/**
 * @file
 * Unit and property tests for the MISA instruction set: encoding,
 * decoding, latencies, the program builder and the assembler.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "harness/bare_machine.hh"
#include "isa/assembler.hh"
#include "isa/isa.hh"
#include "isa/program.hh"
#include "sim/random.hh"

using namespace misp;
using namespace misp::isa;

// ---------------------------------------------------------------------
// Encode/decode
// ---------------------------------------------------------------------

TEST(IsaEncoding, RoundTripProperty)
{
    // Property: decode(encode(i)) == i for every well-formed instruction.
    Rng rng(2024);
    for (int trial = 0; trial < 2000; ++trial) {
        Instruction inst;
        inst.op = static_cast<Opcode>(
            rng.below(static_cast<std::uint64_t>(Opcode::NumOpcodes)));
        inst.rd = static_cast<std::uint8_t>(rng.below(kNumRegs));
        inst.rs1 = static_cast<std::uint8_t>(rng.below(kNumRegs));
        inst.rs2 = static_cast<std::uint8_t>(rng.below(kNumRegs));
        inst.sub = static_cast<std::uint8_t>(rng.below(8));
        inst.imm = rng.next();
        auto bytes = encode(inst);
        Instruction out;
        ASSERT_TRUE(decode(bytes.data(), &out));
        EXPECT_EQ(inst, out);
    }
}

TEST(IsaEncoding, RejectsBadOpcode)
{
    std::uint8_t bytes[kInstBytes] = {};
    bytes[0] = 0xFF;
    Instruction out;
    EXPECT_FALSE(decode(bytes, &out));
}

TEST(IsaEncoding, RejectsBadRegister)
{
    Instruction inst;
    inst.op = Opcode::Mov;
    inst.rd = 3;
    auto bytes = encode(inst);
    bytes[2] = 99; // rs1 out of range
    Instruction out;
    EXPECT_FALSE(decode(bytes.data(), &out));
}

TEST(IsaLatency, EveryOpcodeHasNonzeroLatency)
{
    for (unsigned op = 0;
         op < static_cast<unsigned>(Opcode::NumOpcodes); ++op) {
        EXPECT_GE(baseLatency(static_cast<Opcode>(op)), 1u)
            << opcodeName(static_cast<Opcode>(op));
    }
}

TEST(IsaLatency, RelativeCostsSane)
{
    EXPECT_LT(baseLatency(Opcode::Add), baseLatency(Opcode::Mul));
    EXPECT_LT(baseLatency(Opcode::Mul), baseLatency(Opcode::Div));
    EXPECT_GT(baseLatency(Opcode::CmpXchg), baseLatency(Opcode::Ld));
}

TEST(IsaNames, AllOpcodesNamed)
{
    for (unsigned op = 0;
         op < static_cast<unsigned>(Opcode::NumOpcodes); ++op) {
        EXPECT_STRNE(opcodeName(static_cast<Opcode>(op)), "???");
    }
}

TEST(IsaDisasm, RendersRepresentativeForms)
{
    Instruction movi{Opcode::MovI, 3, 0, 0, 0, 42};
    EXPECT_EQ(disassemble(movi), "movi r3, 42");
    Instruction ld{Opcode::Ld, 2, 5, 0, 8, 16};
    EXPECT_EQ(disassemble(ld), "ld8 r2, [r5+16]");
    Instruction sig{Opcode::Signal, 3, 1, 2, 0, 0};
    EXPECT_EQ(disassemble(sig), "signal sid=r1, eip=r2, esp=r3");
}

// ---------------------------------------------------------------------
// ProgramBuilder
// ---------------------------------------------------------------------

TEST(ProgramBuilder, ResolvesForwardLabels)
{
    ProgramBuilder b;
    auto target = b.newLabel();
    b.jmp(target);    // forward reference
    b.nop();
    b.bind(target);
    b.halt();
    Program prog = b.finish(0x1000);
    ASSERT_EQ(prog.insts.size(), 3u);
    EXPECT_EQ(prog.insts[0].op, Opcode::Jmp);
    EXPECT_EQ(prog.insts[0].imm, 0x1000u + 2 * kInstBytes);
}

TEST(ProgramBuilder, UnboundLabelIsError)
{
    ProgramBuilder b;
    auto missing = b.newLabel();
    b.jmp(missing);
    EXPECT_THROW(b.finish(0x1000), SimError);
}

TEST(ProgramBuilder, DoubleBindIsError)
{
    ProgramBuilder b;
    auto l = b.newLabel();
    b.bind(l);
    EXPECT_THROW(b.bind(l), SimError);
}

TEST(ProgramBuilder, ExportsSymbols)
{
    ProgramBuilder b;
    b.nop();
    b.exportHere("entry");
    b.halt();
    Program prog = b.finish(0x2000);
    EXPECT_EQ(prog.symbol("entry"), 0x2000u + kInstBytes);
    EXPECT_THROW(prog.symbol("missing"), SimError);
}

TEST(ProgramBuilder, LeaLabelLoadsAbsoluteAddress)
{
    ProgramBuilder b;
    auto fn = b.newLabel();
    b.leaLabel(4, fn);
    b.halt();
    b.bind(fn);
    b.ret();
    Program prog = b.finish(0x3000);
    EXPECT_EQ(prog.insts[0].op, Opcode::MovI);
    EXPECT_EQ(prog.insts[0].imm, 0x3000u + 2 * kInstBytes);
}

TEST(ProgramBuilder, BytesMatchEncodedInstructions)
{
    ProgramBuilder b;
    b.movi(1, 7);
    b.addi(2, 1, 3);
    Program prog = b.finish(0x1000);
    auto bytes = prog.bytes();
    ASSERT_EQ(bytes.size(), 2 * kInstBytes);
    Instruction out;
    ASSERT_TRUE(decode(bytes.data(), &out));
    EXPECT_EQ(out.op, Opcode::MovI);
    EXPECT_EQ(out.imm, 7u);
}

// ---------------------------------------------------------------------
// Assembler
// ---------------------------------------------------------------------

TEST(Assembler, AssemblesBasicProgram)
{
    Program prog = assemble(R"(
        ; a tiny program
        main:
            movi r1, 10
            movi r2, 0x20
            add  r3, r1, r2
            halt
    )",
                            0x1000);
    ASSERT_EQ(prog.insts.size(), 4u);
    EXPECT_EQ(prog.symbol("main"), 0x1000u);
    EXPECT_EQ(prog.insts[1].imm, 0x20u);
    EXPECT_EQ(prog.insts[2].op, Opcode::Add);
}

TEST(Assembler, MemoryOperandsAndSizes)
{
    Program prog = assemble(R"(
        ld8 r1, [r2+8]
        ld1 r3, [r4]
        st4 [r5-4], r6
    )",
                            0);
    EXPECT_EQ(prog.insts[0].sub, 8);
    EXPECT_EQ(prog.insts[0].imm, 8u);
    EXPECT_EQ(prog.insts[1].sub, 1);
    EXPECT_EQ(prog.insts[2].op, Opcode::St);
    EXPECT_EQ(static_cast<std::int64_t>(prog.insts[2].imm), -4);
}

TEST(Assembler, ForwardAndBackwardBranches)
{
    Program prog = assemble(R"(
        start:
            cmpi r1, 5
            jcc.ge end
            addi r1, r1, 1
            jmp start
        end:
            halt
    )",
                            0x4000);
    EXPECT_EQ(prog.insts[1].imm, 0x4000u + 4 * kInstBytes); // -> end
    EXPECT_EQ(prog.insts[3].imm, 0x4000u);                  // -> start
}

TEST(Assembler, MispExtensionInstructions)
{
    Program prog = assemble(R"(
        init:
            semonitor proxy, handler
            signal r1, r2, r3
            halt
        handler:
            yret
    )",
                            0);
    EXPECT_EQ(prog.insts[0].op, Opcode::Semonitor);
    EXPECT_EQ(prog.insts[0].sub,
              static_cast<std::uint8_t>(Scenario::ProxyRequest));
    EXPECT_EQ(prog.insts[0].imm, 3u * kInstBytes);
    EXPECT_EQ(prog.insts[1].op, Opcode::Signal);
    EXPECT_EQ(prog.insts[3].op, Opcode::Yret);
}

TEST(Assembler, AtomicsAndRuntimeCalls)
{
    Program prog = assemble(R"(
        fetchadd r1, [r2], r3
        cmpxchg r4, [r5], r6
        xchg r7, [r8]
        rtcall 7
        syscall 3
        compute 100
        pause
    )",
                            0);
    EXPECT_EQ(prog.insts[0].op, Opcode::FetchAdd);
    EXPECT_EQ(prog.insts[1].op, Opcode::CmpXchg);
    EXPECT_EQ(prog.insts[2].op, Opcode::Xchg);
    EXPECT_EQ(prog.insts[3].imm, 7u);
    EXPECT_EQ(prog.insts[4].imm, 3u);
    EXPECT_EQ(prog.insts[5].imm, 100u);
}

TEST(Assembler, SpAlias)
{
    Program prog = assemble("mov r1, sp\n", 0);
    EXPECT_EQ(prog.insts[0].rs1, kRegSp);
}

TEST(Assembler, ErrorsCarryLineNumbers)
{
    try {
        assemble("nop\nbogus r1\n", 0);
        FAIL() << "expected AsmError";
    } catch (const AsmError &e) {
        EXPECT_EQ(e.line(), 2u);
        EXPECT_NE(std::string(e.what()).find("bogus"), std::string::npos);
    }
}

TEST(Assembler, UnknownLabelReportsError)
{
    EXPECT_THROW(assemble("jmp nowhere\n", 0), AsmError);
}

TEST(Assembler, OperandCountValidation)
{
    EXPECT_THROW(assemble("add r1, r2\n", 0), AsmError);
    EXPECT_THROW(assemble("movi r1\n", 0), AsmError);
    EXPECT_THROW(assemble("halt r1\n", 0), AsmError);
    EXPECT_THROW(assemble("xchg r1, [r2+8]\n", 0), AsmError);
    EXPECT_THROW(assemble("ld r1, [r2]\n", 0), AsmError);
}

TEST(Assembler, DisassemblyReassemblesForEveryPlainFormat)
{
    // The table drives both directions: every opcode whose operands are
    // plain registers/immediates round-trips through its disassembly.
    for (unsigned i = 0; i < static_cast<unsigned>(Opcode::NumOpcodes);
         ++i) {
        Instruction inst{static_cast<Opcode>(i)};
        switch (kOpTable[i].format) {
          case OpFormat::R: inst.rd = 3; break;
          case OpFormat::RR: inst.rd = 3; inst.rs1 = 4; break;
          case OpFormat::RRR:
          case OpFormat::RAR:
          case OpFormat::Signal:
            inst.rd = 3; inst.rs1 = 4; inst.rs2 = 5; break;
          case OpFormat::RI: inst.rd = 3; inst.imm = 42; break;
          case OpFormat::RRI:
          case OpFormat::RM:
            inst.rd = 3; inst.rs1 = 4; inst.imm = 42; break;
          case OpFormat::SS: inst.rs1 = 4; inst.rs2 = 5; break;
          case OpFormat::SI: inst.rs1 = 4; inst.imm = 42; break;
          case OpFormat::S: inst.rs1 = 4; break;
          case OpFormat::I: inst.imm = 42; break;
          case OpFormat::RA: inst.rd = 3; inst.rs1 = 4; break;
          case OpFormat::None: break;
          default: continue; // label / special syntax
        }
        std::string text = disassemble(inst);
        if (inst.op == Opcode::Signal) // disassembly names the fields
            text = "signal r4, r5, r3";
        Program prog = assemble(text + "\n", 0);
        ASSERT_EQ(prog.insts.size(), 1u) << text;
        EXPECT_EQ(prog.insts[0], inst) << text;
    }
}

// ---------------------------------------------------------------------
// Semantics: known answers, run on a one-sequencer machine under both
// engines (which share one copy of the ALU semantics)
// ---------------------------------------------------------------------

namespace {

constexpr cpu::Engine kEngines[] = {cpu::Engine::Reference,
                                    cpu::Engine::Superblock};

/** Assemble `main: <body> halt` and run it to completion. */
std::unique_ptr<harness::BareMachine>
runBody(const std::string &body, cpu::Engine engine)
{
    auto m = std::make_unique<harness::BareMachine>(
        "main:\n" + body + "    halt\n", engine);
    m->run();
    return m;
}

struct Kat {
    Opcode op;
    const char *body;
    Word r1; ///< expected r1 after the body
};

const Kat kKats[] = {
    {Opcode::Nop, "movi r1, 5\n nop\n", 5},
    {Opcode::MovI, "movi r1, -1\n", ~Word{0}},
    {Opcode::Mov, "movi r2, 7\n mov r1, r2\n", 7},
    {Opcode::Add, "movi r2, 5\n movi r3, -7\n add r1, r2, r3\n", Word(-2)},
    {Opcode::Sub, "movi r2, 5\n movi r3, 7\n sub r1, r2, r3\n", Word(-2)},
    {Opcode::Mul, "movi r2, -3\n movi r3, 7\n mul r1, r2, r3\n", Word(-21)},
    {Opcode::And, "movi r2, 0xff0\n movi r3, 0x0ff\n and r1, r2, r3\n",
     0x0f0},
    {Opcode::Or, "movi r2, 0xff0\n movi r3, 0x0ff\n or r1, r2, r3\n",
     0xfff},
    {Opcode::Xor, "movi r2, 0xff0\n movi r3, 0x0ff\n xor r1, r2, r3\n",
     0xf0f},
    // Shift counts are masked to 6 bits: 65 -> 1, 124 -> 60, 68 -> 4.
    {Opcode::Shl, "movi r2, 3\n movi r3, 65\n shl r1, r2, r3\n", 6},
    {Opcode::Shr, "movi r2, -1\n movi r3, 124\n shr r1, r2, r3\n", 0xf},
    // sar fills with the sign bit; shr shifts in zeroes.
    {Opcode::Sar, "movi r2, -256\n movi r3, 68\n sar r1, r2, r3\n",
     Word(-16)},
    {Opcode::AddI, "movi r2, 10\n addi r1, r2, -3\n", 7},
    {Opcode::SubI, "movi r2, 10\n subi r1, r2, 13\n", Word(-3)},
    {Opcode::MulI, "movi r2, 6\n muli r1, r2, -7\n", Word(-42)},
    {Opcode::AndI, "movi r2, 0x1234\n andi r1, r2, 0xff\n", 0x34},
    {Opcode::OrI, "movi r2, 0x1234\n ori r1, r2, 0xff\n", 0x12ff},
    {Opcode::XorI, "movi r2, 0x1234\n xori r1, r2, 0xffff\n", 0xedcb},
    {Opcode::ShlI, "movi r2, 1\n shli r1, r2, 64\n", 1},
    {Opcode::ShrI, "movi r2, -9223372036854775808\n shri r1, r2, 127\n",
     1},
    {Opcode::Lea, "movi r2, 100\n lea r1, [r2-4]\n", 96},
    {Opcode::Pause, "movi r1, 9\n pause\n", 9},
    {Opcode::Compute, "movi r1, 9\n compute 5\n", 9},
    {Opcode::SeqId, "movi r1, 99\n seqid r1\n", 0},
    {Opcode::NumSeq, "numseq r1\n", 1},
    // Division (Mem class) truncates toward zero.
    {Opcode::Div, "movi r2, -7\n movi r3, 2\n div r1, r2, r3\n", Word(-3)},
    {Opcode::Rem, "movi r2, -7\n movi r3, 2\n rem r1, r2, r3\n", Word(-1)},
    {Opcode::DivI, "movi r2, 7\n divi r1, r2, -2\n", Word(-3)},
};

} // namespace

TEST(IsaSemantics, KnownAnswers)
{
    for (cpu::Engine engine : kEngines) {
        for (const Kat &k : kKats) {
            auto m = runBody(k.body, engine);
            EXPECT_EQ(m->reg(1), k.r1)
                << opcodeName(k.op) << " under " << cpu::engineName(engine);
        }
    }
}

TEST(IsaSemantics, EveryInlineOpcodeHasAKnownAnswer)
{
    // Cmp/CmpI and RdTick have dedicated tests below.
    for (unsigned i = 0; i < static_cast<unsigned>(Opcode::NumOpcodes);
         ++i) {
        const Opcode op = static_cast<Opcode>(i);
        if (kOpTable[i].cls != OpClass::Inline || op == Opcode::Cmp ||
            op == Opcode::CmpI || op == Opcode::RdTick)
            continue;
        bool found = false;
        for (const Kat &k : kKats)
            found = found || k.op == op;
        EXPECT_TRUE(found) << kOpTable[i].name;
    }
}

TEST(IsaSemantics, CompareFlags)
{
    struct Case {
        const char *body;
        Flags want;
    };
    const Case cases[] = {
        // INT64_MIN - 1 overflows: OF set, SF clear, and `lt` (SF != OF)
        // still holds.
        {"movi r2, -9223372036854775808\n movi r3, 1\n cmp r2, r3\n",
         {false, false, false, true}},
        // 1 - (-1): no overflow; unsigned 1 < 0xff..ff borrows (CF).
        {"movi r2, 1\n movi r3, -1\n cmp r2, r3\n",
         {false, false, true, false}},
        {"movi r2, 3\n cmpi r2, 5\n", {false, true, true, false}},
        {"movi r2, 5\n cmpi r2, 5\n", {true, false, false, false}},
        // INT64_MAX - (-1) overflows into the sign bit.
        {"movi r2, 9223372036854775807\n cmpi r2, -1\n",
         {false, true, true, true}},
    };
    for (cpu::Engine engine : kEngines) {
        for (const Case &c : cases) {
            auto m = runBody(c.body, engine);
            const Flags &f = m->seq.context().flags;
            EXPECT_EQ(f.zf, c.want.zf) << c.body;
            EXPECT_EQ(f.sf, c.want.sf) << c.body;
            EXPECT_EQ(f.cf, c.want.cf) << c.body;
            EXPECT_EQ(f.of, c.want.of) << c.body;
        }
    }
}

TEST(IsaSemantics, ComputeBurnsImmediatePlusRegister)
{
    auto busy = [](const char *body, cpu::Engine engine) {
        return runBody(body, engine)->seq.busyCycles();
    };
    for (cpu::Engine engine : kEngines) {
        // compute and nop both have base latency 1: the difference is
        // exactly the burst.
        const Tick base = busy("movi r3, 500\n nop\n", engine);
        EXPECT_EQ(busy("movi r3, 500\n compute 7\n", engine), base + 7);
        EXPECT_EQ(busy("movi r3, 500\n compute 1000, r3\n", engine),
                  base + 1500);
    }
}

TEST(IsaSemantics, RdTickReadsTheSliceStartTick)
{
    for (cpu::Engine engine : kEngines) {
        // The burst overruns the slice's cycle budget, so rdtick runs in
        // the next slice (the one that also halts), which starts no
        // earlier than the burst's end.
        auto m = runBody("compute 3000\n rdtick r1\n", engine);
        EXPECT_GE(m->reg(1), 3000u);
        EXPECT_EQ(m->reg(1), m->eq.curTick());
    }
}

TEST(IsaSemantics, SignedDivideOverflowFaults)
{
    // INT64_MIN / -1 has no 64-bit result: like IA-32's IDIV it raises
    // a divide error (which the bare machine's environment turns into a
    // kill) instead of executing.
    for (cpu::Engine engine : kEngines) {
        for (const char *op : {"div", "rem"}) {
            auto m = runBody(std::string("movi r1, 5\n"
                                         " movi r2, -9223372036854775808\n"
                                         " movi r3, -1\n ") +
                                 op + " r1, r2, r3\n movi r1, 6\n",
                             engine);
            EXPECT_TRUE(m->seq.halted());
            EXPECT_EQ(m->reg(1), 5u) << op;
        }
        auto m = runBody("movi r1, 5\n movi r2, -9223372036854775808\n"
                         " divi r1, r2, -1\n movi r1, 6\n",
                         engine);
        EXPECT_EQ(m->reg(1), 5u);
        auto z = runBody("movi r1, 5\n divi r1, r1, 0\n movi r1, 6\n",
                         engine);
        EXPECT_EQ(z->reg(1), 5u);
    }
}
