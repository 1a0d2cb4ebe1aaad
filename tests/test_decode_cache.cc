/**
 * @file
 * Decode-cache coherence tests: the superblock engine, which executes
 * from predecoded pages, must never execute stale instructions.
 * Covered invalidation paths:
 *
 *  - self-modifying code: a guest store to a decoded page forces a
 *    re-decode before the next fetch from it;
 *  - host-side pokes (loaders/runtimes) obey the same rule;
 *  - CR3 / address-space switch: no block from another space is reused;
 *  - MISP serialization purge (TLB flush + decoded-block drop) resyncs
 *    with memory the modeled kernel changed;
 *  - every decode, the first and a redecode after SMC, stores each
 *    slot as isa::decode of its bytes, or the undecodable marker;
 *  - and the engine is a pure host-side optimization: simulated cycles
 *    and retired counts are bit-identical with the engine on and off.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cpu/decode_cache.hh"
#include "cpu/sequencer.hh"
#include "harness/bare_machine.hh"
#include "harness/experiment.hh"
#include "isa/assembler.hh"
#include "mem/address_space.hh"
#include "sim/random.hh"
#include "workloads/workload.hh"

using namespace misp;

namespace {

/** One-sequencer machine with a writable code region (SMC tests). */
struct Machine : harness::BareMachine {
    Machine(const std::string &src,
            cpu::Engine engine = cpu::Engine::Superblock)
        : harness::BareMachine(src, engine, /*writableCode=*/true)
    {}
};

// The guest overwrites the immediate field of a later instruction
// (bytes 8..15 of the 16-byte bundle), then executes it.
const char *kSmcSrc = R"(
    main:
        movi r5, target
        addi r5, r5, 8
        movi r6, 222
        st8 [r5+0], r6
    target:
        movi r0, 111
        halt
)";

} // namespace

TEST(DecodeCacheCoherence, SelfModifyingStoreForcesRedecode)
{
    Machine m(kSmcSrc, cpu::Engine::Superblock);
    m.run();
    // Stale predecode would execute movi r0, 111.
    EXPECT_EQ(m.reg(0), 222u);
    EXPECT_GE(m.as.decodeCache().invalidations(), 1u);
    EXPECT_GE(m.as.decodeCache().pagesDecoded(), 2u); // initial + redecode
}

TEST(DecodeCacheCoherence, SmcMatchesReferencePathBitExactly)
{
    Machine ref(kSmcSrc, cpu::Engine::Reference);
    ref.run();
    EXPECT_EQ(ref.reg(0), 222u);
    {
        const cpu::Engine engine = cpu::Engine::Superblock;
        Machine m(kSmcSrc, engine);
        m.run();
        EXPECT_EQ(m.reg(0), 222u) << cpu::engineName(engine);
        EXPECT_EQ(m.eq.curTick(), ref.eq.curTick())
            << cpu::engineName(engine);
        EXPECT_EQ(m.seq.instsRetired(), ref.seq.instsRetired());
        EXPECT_EQ(m.seq.busyCycles(), ref.seq.busyCycles());
    }
}

TEST(DecodeCacheCoherence, HostPokeInvalidatesDecodedPage)
{
    const char *src = R"(
        main:
            movi r0, 1
            halt
    )";
    {
        const cpu::Engine engine = cpu::Engine::Superblock;
        Machine m(src, engine);
        m.run();
        EXPECT_EQ(m.reg(0), 1u) << cpu::engineName(engine);

        // Host-side rewrite of the first instruction's immediate (the
        // path loaders and runtimes use), then re-run from the same
        // address.
        Word newImm = 7;
        m.as.pokeWord(m.prog.symbol("main") + 8, newImm, 8);
        EXPECT_GE(m.as.decodeCache().invalidations(), 1u);
        m.run();
        EXPECT_EQ(m.reg(0), 7u) << cpu::engineName(engine);
    }
}

TEST(DecodeCacheCoherence, AddressSpaceSwitchNeverReusesBlocks)
{
    // Two address spaces with different code at the same VA; a CR3
    // write (setAddressSpace) between runs must never leak blocks.
    const char *srcA = "main:\n    movi r0, 1\n    halt\n";
    const char *srcB = "main:\n    movi r0, 2\n    halt\n";

    Machine m(srcA, cpu::Engine::Superblock);
    mem::AddressSpace other("q", m.pmem);
    isa::Program progB = isa::assemble(srcB, 0x40'0000);
    other.defineRegion(progB.base, progB.byteSize() + 64, false, "code",
                       progB.bytes());

    m.run();
    EXPECT_EQ(m.reg(0), 1u);

    m.env.as = &other;
    m.seq.mmu().setAddressSpace(&other); // CR3 write: TLB purge
    m.seq.startAt(progB.symbol("main"), 0);
    m.eq.run();
    EXPECT_EQ(m.reg(0), 2u);

    // And back: space A's decoded page may be reused (it is still
    // coherent), but must again produce A's code.
    m.env.as = &m.as;
    m.seq.mmu().setAddressSpace(&m.as);
    m.seq.startAt(m.prog.symbol("main"), 0);
    m.eq.run();
    EXPECT_EQ(m.reg(0), 1u);
}

TEST(DecodeCacheCoherence, SerializationPurgeResyncsWithMemory)
{
    // Model the MISP serialization engine's purge (misp_processor's
    // SpeculativeMonitor path): the kernel changed guest memory during
    // a Ring-0 episode; the sequencer's TLB is flushed and its decoded
    // block dropped before it resumes.
    const char *src = R"(
        main:
            movi r0, 1
            halt
    )";
    Machine m(src, cpu::Engine::Superblock);
    m.run();
    EXPECT_EQ(m.reg(0), 1u);

    // Ring-0 episode rewrites the code page behind the sequencer...
    std::array<std::uint8_t, isa::kInstBytes> bytes =
        isa::encode({isa::Opcode::MovI, 0, 0, 0, 0, 99});
    m.as.poke(m.prog.symbol("main"), bytes.data(), bytes.size());
    // ...and the serialization engine purges before resuming.
    m.seq.mmu().tlb().flushAll();
    m.seq.invalidateDecodedBlock();

    m.run();
    EXPECT_EQ(m.reg(0), 99u);
}

TEST(DecodeCacheCoherence, FullSystemIdenticalUnderSpeculativeMonitor)
{
    // End-to-end: the serialization policy that keeps AMSs running and
    // purges on CR3 change, with the engine on vs. off, must agree.
    const wl::WorkloadInfo *target = nullptr;
    for (const wl::WorkloadInfo &info : wl::allWorkloads()) {
        if (info.name == "dense_mvm")
            target = &info;
    }
    ASSERT_NE(target, nullptr);

    auto runOnce = [&](cpu::Engine engine) {
        wl::WorkloadParams params;
        params.workers = 7;
        wl::Workload w = target->build(params);
        arch::SystemConfig sys = arch::SystemConfig::uniprocessor(7);
        sys.misp.serialization =
            arch::SerializationPolicy::SpeculativeMonitor;
        sys.misp.engine = engine;
        harness::Experiment exp(sys, rt::Backend::Shred);
        harness::LoadedProcess proc = exp.load(w.app);
        Tick t = exp.runToCompletion(proc.process).ticks;
        EXPECT_TRUE(!w.validate ||
                    w.validate(proc.process->addressSpace()));
        return t;
    };

    Tick ref = runOnce(cpu::Engine::Reference);
    EXPECT_EQ(runOnce(cpu::Engine::Superblock), ref);
}

// ---------------------------------------------------------------------
// Chain invalidation: a hot chain that crosses pages, or stays live
// across slices, must never reach a page stale. Each scenario
// compares both engines tick-for-tick, so a chain that survived an
// invalidation would show up as an architectural or timing divergence.
// ---------------------------------------------------------------------

namespace {

/** Loop whose body immediate is patched mid-run by the purge tests. */
std::string
chainLoopSrc(unsigned imm, unsigned iters)
{
    return "main:\n"
           "    movi r1, 0\n"
           "loop:\n"
           "    movi r3, " +
           std::to_string(imm) +
           "\n"
           "    add r4, r4, r3\n"
           "    addi r1, r1, 1\n"
           "    cmpi r1, " +
           std::to_string(iters) +
           "\n"
           "    jcc.lt loop\n"
           "    halt\n";
}

} // namespace

TEST(SuperblockChain, SmcIntoLinkedSuccessorBreaksChain)
{
    // A loop on code page 1 whose taken exit is a cross-page jmp to
    // `target` on page 2, which the superblock engine reaches through
    // its cached block_ after the first traversal. On iteration 3 the
    // guest stores into `target`'s immediate; every later traversal
    // must execute the patched code, not page 2's version-stale
    // decode.
    std::string src = R"(
        main:
            movi r1, 0
            movi r5, target
            addi r5, r5, 8
        loop:
            addi r1, r1, 1
            cmpi r1, 3
            jcc.ne skip
            movi r6, 999
            st8 [r5+0], r6
        skip:
            jmp target
        back:
            cmpi r1, 6
            jcc.lt loop
            halt
    )";
    // Pad (never-executed, after halt) so `target` lands on the next
    // 256-slot code page and the jmp really crosses pages.
    for (int i = 0; i < 300; ++i)
        src += "    nop\n";
    src += R"(
        target:
            movi r3, 111
            jmp back
    )";

    Machine ref(src, cpu::Engine::Reference);
    ref.run();
    EXPECT_EQ(ref.reg(1), 6u);
    EXPECT_EQ(ref.reg(3), 999u); // stale chain would leave 111

    {
        const cpu::Engine engine = cpu::Engine::Superblock;
        Machine m(src, engine);
        m.run();
        EXPECT_EQ(m.reg(3), 999u) << cpu::engineName(engine);
        EXPECT_EQ(m.reg(1), 6u) << cpu::engineName(engine);
        EXPECT_EQ(m.eq.curTick(), ref.eq.curTick())
            << cpu::engineName(engine);
        EXPECT_EQ(m.seq.instsRetired(), ref.seq.instsRetired());
        EXPECT_EQ(m.seq.busyCycles(), ref.seq.busyCycles());
        // The store really dropped a decoded page (the target's).
        EXPECT_GE(m.as.decodeCache().invalidations(), 1u)
            << cpu::engineName(engine);
        EXPECT_GT(m.seq.decodeCacheHits(), 0u) << cpu::engineName(engine);
    }
}

TEST(SuperblockChain, Cr3SwitchMidChainDropsLinkedBlocks)
{
    // Run a hot loop in space A to a fixed tick, then model a CR3
    // switch to space B holding same-layout code with a different
    // immediate at the same VAs, and let execution continue mid-loop.
    // Any decoded page of A surviving the switch (in block_) would keep
    // folding A's immediate.
    std::string srcA = chainLoopSrc(5, 4000);
    std::string srcB = chainLoopSrc(9, 4000);

    Tick refTicks = 0;
    Word refR4 = 0;
    bool first = true;
    for (cpu::Engine engine :
         {cpu::Engine::Reference, cpu::Engine::Superblock}) {
        Machine m(srcA, engine);
        mem::AddressSpace other("q", m.pmem);
        isa::Program progB = isa::assemble(srcB, 0x40'0000);
        other.defineRegion(progB.base, progB.byteSize() + 64, false,
                           "code", progB.bytes());

        m.start();
        m.eq.run(3000); // chain is hot, loop not yet done
        m.env.as = &other;
        m.seq.mmu().setAddressSpace(&other); // CR3 write mid-chain
        m.eq.run();

        EXPECT_EQ(m.reg(1), 4000u) << cpu::engineName(engine);
        if (first) {
            refTicks = m.eq.curTick();
            refR4 = m.reg(4);
            first = false;
            // The switch landed mid-loop: r4 mixes both immediates.
            EXPECT_NE(refR4, Word{5} * 4000) << "switched too late";
            EXPECT_NE(refR4, Word{9} * 4000) << "switched too early";
        } else {
            EXPECT_EQ(m.eq.curTick(), refTicks)
                << cpu::engineName(engine);
            EXPECT_EQ(m.reg(4), refR4) << cpu::engineName(engine);
        }
    }
}

TEST(SuperblockChain, PageFreedWithItsAddressSpaceIsNeverRead)
{
    // As above, but space A is destroyed right after the switch, so the
    // sequencer's cached block points into freed memory. The next slice
    // must reject it by the address-space generation before reading the
    // page (an AddressSanitizer build reports any read), and run B's
    // code like the reference engine does.
    std::string srcA = chainLoopSrc(5, 4000);
    std::string srcB = chainLoopSrc(9, 4000);

    Tick refTicks = 0;
    Word refR4 = 0;
    for (cpu::Engine engine :
         {cpu::Engine::Reference, cpu::Engine::Superblock}) {
        Machine m(srcB, engine);
        auto a = std::make_unique<mem::AddressSpace>("a", m.pmem);
        isa::Program progA = isa::assemble(srcA, 0x40'0000);
        a->defineRegion(progA.base, progA.byteSize() + 64, false, "code",
                        progA.bytes());
        a->defineRegion(0x10'0000, 8 * mem::kPageSize, true, "stack");
        m.env.as = a.get();
        m.seq.mmu().setAddressSpace(a.get());

        m.start();
        m.eq.run(3000); // chain is hot in A, loop not yet done
        m.env.as = &m.as;
        m.seq.mmu().setAddressSpace(&m.as);
        a.reset();
        m.eq.run();

        EXPECT_EQ(m.reg(1), 4000u) << cpu::engineName(engine);
        if (engine == cpu::Engine::Reference) {
            refTicks = m.eq.curTick();
            refR4 = m.reg(4);
            EXPECT_NE(refR4, Word{5} * 4000) << "switched too late";
            EXPECT_NE(refR4, Word{9} * 4000) << "switched too early";
        } else {
            EXPECT_EQ(m.eq.curTick(), refTicks);
            EXPECT_EQ(m.reg(4), refR4);
            EXPECT_GT(m.seq.decodeCacheHits(), 0u);
        }
    }
}

TEST(SuperblockChain, SerializationPurgeMidChain)
{
    // MISP serialization purge while the chain is hot: at a fixed tick
    // a Ring-0 episode rewrites the loop body's immediate behind the
    // sequencer, then the serialization engine flushes the TLB and
    // drops the decoded block before resuming. All engines must resync
    // identically mid-loop.
    std::string src = chainLoopSrc(5, 4000);

    Tick refTicks = 0;
    Word refR4 = 0;
    bool first = true;
    for (cpu::Engine engine :
         {cpu::Engine::Reference, cpu::Engine::Superblock}) {
        Machine m(src, engine);
        m.start();
        m.eq.run(3000);
        m.as.pokeWord(m.prog.symbol("loop") + 8, 9, 8);
        m.seq.mmu().tlb().flushAll();
        m.seq.invalidateDecodedBlock();
        m.eq.run();

        EXPECT_EQ(m.reg(1), 4000u) << cpu::engineName(engine);
        if (first) {
            refTicks = m.eq.curTick();
            refR4 = m.reg(4);
            first = false;
            EXPECT_NE(refR4, Word{5} * 4000) << "patched too late";
            EXPECT_NE(refR4, Word{9} * 4000) << "patched too early";
        } else {
            EXPECT_EQ(m.eq.curTick(), refTicks)
                << cpu::engineName(engine);
            EXPECT_EQ(m.reg(4), refR4) << cpu::engineName(engine);
        }
    }
}

TEST(SuperblockChain, CrossSpaceReplayWindowsNeverSurviveSwitch)
{
    // Regression for the Mmu one-entry last-translation caches vs.
    // chaining: after a CR3 switch, neither the fetch-side nor the
    // data-side replay window (which holds a raw frame byte pointer)
    // may serve accesses out of the old space's frames, and the chain
    // may not reach the old space's decoded pages (they are per-space
    // by construction). A hot load loop reads the same VA before and
    // after the switch; the two spaces back that VA with different
    // data.
    const char *src = R"(
        main:
            movi r1, 0
            movi r5, 0x100000
            movi r6, 5
            st8 [r5+0], r6
        loop:
            ld8 r3, [r5+0]
            add r4, r4, r3
            addi r1, r1, 1
            cmpi r1, 4000
            jcc.lt loop
            halt
    )";

    Tick refTicks = 0;
    Word refR4 = 0;
    bool first = true;
    for (cpu::Engine engine :
         {cpu::Engine::Reference, cpu::Engine::Superblock}) {
        Machine m(src, engine);
        // Space B: identical code at the same VAs, but the data page at
        // 0x100000 holds 9 where space A's run stored 5.
        mem::AddressSpace other("q", m.pmem);
        isa::Program progB = isa::assemble(src, 0x40'0000);
        other.defineRegion(progB.base, progB.byteSize() + 64, false,
                           "code", progB.bytes());
        std::vector<std::uint8_t> data(64, 0);
        data[0] = 9;
        other.defineRegion(0x100000, mem::kPageSize, true, "data", data);

        m.start();
        m.eq.run(3000); // load loop hot: replay windows primed
        m.env.as = &other;
        m.seq.mmu().setAddressSpace(&other); // CR3 write mid-loop
        m.eq.run();

        EXPECT_EQ(m.reg(1), 4000u) << cpu::engineName(engine);
        if (first) {
            refTicks = m.eq.curTick();
            refR4 = m.reg(4);
            first = false;
            // The switch landed mid-loop and the loads really moved to
            // B's frame: r4 mixes 5s (space A) and 9s (space B).
            EXPECT_NE(refR4, Word{5} * 4000) << "switched too late";
            EXPECT_NE(refR4, Word{9} * 4000) << "switched too early";
        } else {
            EXPECT_EQ(m.eq.curTick(), refTicks)
                << cpu::engineName(engine);
            EXPECT_EQ(m.reg(4), refR4) << cpu::engineName(engine);
        }
    }
}

// ---------------------------------------------------------------------
// DecodeCache unit behavior
// ---------------------------------------------------------------------

TEST(DecodeCacheUnit, DecodeFindInvalidateCycle)
{
    mem::PhysicalMemory pmem(16);
    cpu::DecodeCache dc(pmem);

    std::uint64_t frame = pmem.allocFrame();
    PAddr pa = frame << mem::kPageShift;
    auto bytes = isa::encode({isa::Opcode::MovI, 3, 0, 0, 0, 42});
    pmem.writeBytes(pa, bytes.data(), bytes.size());

    const std::uint64_t vpn = 0x400;
    EXPECT_EQ(dc.find(vpn), nullptr);

    cpu::DecodedPage *page = dc.decodePage(vpn, pa);
    ASSERT_NE(page, nullptr);
    EXPECT_EQ(dc.find(vpn), page);
    EXPECT_EQ(page->slots[0].op, isa::Opcode::MovI);
    EXPECT_EQ(page->slots[0].rd, 3u);
    EXPECT_EQ(page->slots[0].imm, 42u);
    EXPECT_EQ(dc.residentPages(), 1u);

    std::uint64_t v0 = page->version;
    dc.invalidateVpn(vpn);
    EXPECT_EQ(dc.find(vpn), nullptr);
    EXPECT_GT(page->version, v0); // stale references die by version
    EXPECT_EQ(dc.invalidations(), 1u);
    EXPECT_EQ(dc.residentPages(), 0u);

    // Redecode reuses the allocation and bumps the version again.
    cpu::DecodedPage *again = dc.decodePage(vpn, pa);
    EXPECT_EQ(again, page);
    EXPECT_GT(page->version, v0 + 1);
}

TEST(DecodeCacheUnit, NoteWriteOnlyTouchesDecodedPages)
{
    mem::PhysicalMemory pmem(16);
    cpu::DecodeCache dc(pmem);
    std::uint64_t frame = pmem.allocFrame();
    PAddr pa = frame << mem::kPageShift;

    const std::uint64_t vpn = 0x400;
    dc.decodePage(vpn, pa);

    // Store to an undecoded page: no invalidation.
    dc.noteWrite((vpn + 1) << mem::kPageShift);
    EXPECT_EQ(dc.invalidations(), 0u);
    EXPECT_NE(dc.find(vpn), nullptr);

    // Store to the decoded page: dropped.
    dc.noteWrite((vpn << mem::kPageShift) + 0x123);
    EXPECT_EQ(dc.invalidations(), 1u);
    EXPECT_EQ(dc.find(vpn), nullptr);

    // Second store to the now-undecoded page: no double count.
    dc.noteWrite((vpn << mem::kPageShift) + 0x456);
    EXPECT_EQ(dc.invalidations(), 1u);

    // A store above the highest decoded page lands past the coherence
    // bitmap, which grows only that far: nothing is dropped.
    dc.decodePage(vpn, pa);
    dc.noteWrite(0x8000'0000);
    EXPECT_EQ(dc.invalidations(), 1u);
    EXPECT_NE(dc.find(vpn), nullptr);

    // A decode near kStackTop grows the bitmap to its page: stores to
    // it and to the lower decoded page are both seen, one above it is
    // not.
    const std::uint64_t stackVpn = mem::pageNumber(mem::kStackTop - 1);
    dc.decodePage(stackVpn, pa);
    dc.noteWrite(mem::kUserLimit - 8);
    EXPECT_EQ(dc.invalidations(), 1u);
    dc.noteWrite(mem::kStackTop - 8);
    EXPECT_EQ(dc.invalidations(), 2u);
    EXPECT_EQ(dc.find(stackVpn), nullptr);
    EXPECT_NE(dc.find(vpn), nullptr);
    dc.noteWrite(vpn << mem::kPageShift);
    EXPECT_EQ(dc.invalidations(), 3u);
    EXPECT_EQ(dc.find(vpn), nullptr);
}

TEST(DecodeCacheUnit, InvalidDecodesFaultAsSlots)
{
    mem::PhysicalMemory pmem(16);
    cpu::DecodeCache dc(pmem);
    std::uint64_t frame = pmem.allocFrame();
    PAddr pa = frame << mem::kPageShift;

    std::uint8_t junk[isa::kInstBytes] = {0xFF}; // out-of-range opcode
    pmem.writeBytes(pa, junk, sizeof(junk));

    cpu::DecodedPage *page = dc.decodePage(0x400, pa);
    // Becomes InvalidOpcode on fetch.
    EXPECT_EQ(page->slots[0], cpu::kUndecodable);
    // Zero-filled rest of the page decodes as NOPs.
    EXPECT_EQ(page->slots[1], isa::Instruction{});
}

namespace {

/** Each slot of @p page that is not isa::decode of its bytes in @p code
 *  (the page's guest bytes), or kUndecodable where decode fails, one
 *  "slot N: got G want W" line each; empty when every slot agrees. */
std::string
slotMismatches(const cpu::DecodedPage &page, const std::uint8_t *code)
{
    std::string out;
    for (std::size_t i = 0; i < cpu::DecodedPage::kSlots; ++i) {
        isa::Instruction want;
        if (!isa::decode(&code[i * isa::kInstBytes], &want))
            want = cpu::kUndecodable;
        const isa::Instruction &got = page.slots[i];
        if (got != want)
            out += "slot " + std::to_string(i) + ": got " +
                   isa::disassemble(got) + " want " +
                   isa::disassemble(want) + "\n";
    }
    return out;
}

} // namespace

TEST(DecodeCacheUnit, SlotsAreTheDecodedInstructions)
{
    // Fuzzed pages: every opcode, ld/st of valid and invalid sizes, and
    // some undecodable slots (bad opcode, register or Jcc condition).
    mem::PhysicalMemory pmem(16);
    cpu::DecodeCache dc(pmem);
    const PAddr pa = pmem.allocFrame() << mem::kPageShift;
    Rng rng(19);
    // Opcodes seen decoded, and the first bytes of slots seen
    // undecodable, so the fuzz provably covers every row and the
    // partial decodes (a ld/st whose size alone fails) that must not
    // leave their opcode in the slot.
    std::set<unsigned> decoded;
    std::set<unsigned> rejected;
    std::uint8_t code[mem::kPageSize];
    for (int trial = 0; trial < 200; ++trial) {
        const std::uint64_t density = 1 + rng.below(16);
        for (std::size_t i = 0; i < cpu::DecodedPage::kSlots; ++i) {
            isa::Instruction inst;
            inst.op = isa::Opcode::AddI;
            if (rng.below(density) == 0)
                inst.op = static_cast<isa::Opcode>(rng.below(
                    static_cast<std::uint64_t>(isa::Opcode::NumOpcodes)));
            if (rng.below(8) == 0)
                inst.op = rng.below(2) ? isa::Opcode::Ld : isa::Opcode::St;
            inst.rd = static_cast<std::uint8_t>(rng.below(isa::kNumRegs));
            inst.sub = static_cast<std::uint8_t>(rng.below(20));
            auto bytes = isa::encode(inst);
            if (rng.below(64) == 0)
                bytes[rng.below(5)] = 0xF0; // opcode/register/sub
            std::memcpy(&code[i * isa::kInstBytes], bytes.data(),
                        bytes.size());
        }
        pmem.writeBytes(pa, code, sizeof code);
        const cpu::DecodedPage *page = dc.decodePage(0x400, pa);
        ASSERT_EQ(slotMismatches(*page, code), "") << "trial " << trial;
        for (std::size_t i = 0; i < cpu::DecodedPage::kSlots; ++i) {
            if (page->slots[i] == cpu::kUndecodable)
                rejected.insert(code[i * isa::kInstBytes]);
            else
                decoded.insert(static_cast<unsigned>(page->slots[i].op));
        }
    }
    for (unsigned op = 0;
         op < static_cast<unsigned>(isa::Opcode::NumOpcodes); ++op)
        EXPECT_TRUE(decoded.count(op)) << isa::kOpTable[op].name;
    EXPECT_TRUE(rejected.count(static_cast<unsigned>(isa::Opcode::Ld)));
    EXPECT_TRUE(rejected.count(static_cast<unsigned>(isa::Opcode::St)));
    EXPECT_TRUE(rejected.count(0xF0));
}

TEST(DecodeCacheUnit, SmcRedecodeRecomputesSlots)
{
    // The guest turns the jmp at `patch` into a nop (opcode 0) and the
    // ld8 at `sized` into a 3-byte load it never reaches. The stores
    // drop the decoded page; its redecode must hold the new slots: a
    // nop at `patch`, the undecodable marker at `sized`.
    const char *src = R"(
        main:
            movi r5, patch
            movi r6, 0
            st1 [r5+0], r6
            movi r5, sized
            movi r6, 3
            st1 [r5+4], r6
            movi r1, 1
        patch:
            jmp done
            movi r2, 2
            jmp done
        sized:
            ld8 r3, [r5+0]
        done:
            halt
    )";
    for (cpu::Engine engine :
         {cpu::Engine::Reference, cpu::Engine::Superblock}) {
        Machine m(src, engine);
        const VAddr base = m.prog.symbol("main") & ~VAddr{mem::kPageMask};
        const auto slot = [&](const char *label) {
            return (m.prog.symbol(label) - base) / isa::kInstBytes;
        };
        m.run();
        EXPECT_EQ(m.reg(2), 2u) << cpu::engineName(engine);
        if (engine == cpu::Engine::Reference)
            continue; // it never decodes pages
        EXPECT_GE(m.as.decodeCache().invalidations(), 1u);
        const cpu::DecodedPage *page =
            m.as.decodeCache().find(mem::pageNumber(base));
        ASSERT_NE(page, nullptr);
        EXPECT_EQ(page->slots[slot("patch")].op, isa::Opcode::Nop);
        EXPECT_EQ(page->slots[slot("sized")], cpu::kUndecodable);
        std::uint8_t code[mem::kPageSize];
        m.as.peek(base, code, sizeof code);
        EXPECT_EQ(slotMismatches(*page, code), "");
    }
}

// ---------------------------------------------------------------------
// Engine on/off equivalence on interpreter-bound kernels
// ---------------------------------------------------------------------

TEST(DecodeCacheEquivalence, LoopKernelBitIdentical)
{
    const char *src = R"(
        main:
            movi r1, 0
        loop:
            addi r1, r1, 1
            muli r2, r1, 3
            cmpi r1, 20000
            jcc.lt loop
            halt
    )";
    Machine off(src, cpu::Engine::Reference);
    off.run();
    EXPECT_EQ(off.seq.decodeCacheHits(), 0u);
    {
        const cpu::Engine engine = cpu::Engine::Superblock;
        Machine on(src, engine);
        on.run();
        EXPECT_EQ(on.eq.curTick(), off.eq.curTick())
            << cpu::engineName(engine);
        EXPECT_EQ(on.seq.instsRetired(), off.seq.instsRetired());
        EXPECT_EQ(on.seq.busyCycles(), off.seq.busyCycles());
        EXPECT_EQ(on.seq.mmu().tlb().hits(),
                  off.seq.mmu().tlb().hits());
        EXPECT_EQ(on.seq.mmu().tlb().misses(),
                  off.seq.mmu().tlb().misses());
        EXPECT_EQ(on.seq.mmu().pageWalks(), off.seq.mmu().pageWalks());
        EXPECT_EQ(on.reg(1), off.reg(1));
        // The engine actually engaged.
        EXPECT_GT(on.seq.decodeCacheHits(), 0u)
            << cpu::engineName(engine);
    }
}
