/**
 * @file
 * MISA: the micro instruction set architecture of the simulated machine.
 *
 * MISA is a compact 64-bit-register, 32-bit-address load/store ISA that
 * retains the IA-32 *system* semantics the MISP paper depends on (rings,
 * CR3 paging, faults) and adds the paper's MIMD extension:
 *
 *  - SIGNAL sid, eip, esp  — user-level inter-sequencer signal carrying a
 *    shred continuation <EIP, ESP> to the sequencer named by SID (§2.4).
 *  - SEMONITOR scenario, handler — YIELD-CONDITIONAL registration: map an
 *    ingress asynchronous scenario to a fly-weight handler (§2.4).
 *  - YRET — return from an asynchronous handler, resuming the interrupted
 *    shred at its saved EIP.
 *
 * Instructions are a fixed 16 bytes in guest memory: opcode, three
 * register fields, a condition/size subfield, and a 64-bit immediate.
 */

#ifndef MISP_ISA_ISA_HH
#define MISP_ISA_ISA_HH

#include <array>
#include <cstdint>
#include <string>

#include "sim/types.hh"

namespace misp::isa {

/** Number of general-purpose registers. r15 doubles as the stack
 *  pointer (the paper's ESP). */
constexpr unsigned kNumRegs = 16;
constexpr unsigned kRegSp = 15;
/** Conventional argument/return registers of the MISA ABI. */
constexpr unsigned kRegRet = 0;
constexpr unsigned kRegArg0 = 0;
constexpr unsigned kRegArg1 = 1;
constexpr unsigned kRegArg2 = 2;
constexpr unsigned kRegArg3 = 3;

/** Fixed instruction width in guest memory. */
constexpr unsigned kInstBytes = 16;

/** Host-dispatch class of an opcode: where a superblock may hold it and
 *  how the superblock engine dispatches it. */
enum class OpClass : std::uint8_t {
    /** Pure register/flags op: the block executor runs it inline with a
     *  batched fetch replay (no TLB, memory, or environment effects). */
    Inline,
    /** Memory or fault-capable op: a superblock *body* member
     *  (non-terminating), dispatched through the generic path, after
     *  which execution revalidates the chain (SMC, TLB churn). */
    Mem,
    /** Pure control transfer (JMP / JMPR / Jcc): superblock terminator,
     *  executed in the fast loop, which follows a same-page target. */
    Branch,
    /** Environment/serialization point, or a control transfer that
     *  touches memory (CALL/RET): superblock terminator, dispatched
     *  slowly and followed by a full re-resolve. */
    Slow,
    /** Decode failed: terminator raising InvalidOpcode on dispatch. */
    Invalid,
};

/** Operand format: the assembly syntax of an opcode and the instruction
 *  fields its operands fill. Disassembly renders the same syntax. */
enum class OpFormat : std::uint8_t {
    None,    ///< no operands
    R,       ///< rd
    RR,      ///< rd, rs1
    RRR,     ///< rd, rs1, rs2
    RI,      ///< rd, imm
    RRI,     ///< rd, rs1, imm
    SS,      ///< rs1, rs2
    SI,      ///< rs1, imm
    S,       ///< rs1
    I,       ///< imm
    RM,      ///< rd, [rs1+imm]
    Load,    ///< ld<size> rd, [rs1+imm]; size in `sub`
    Store,   ///< st<size> [rs1+imm], rs2; size in `sub`
    RA,      ///< rd, [rs1]; no displacement
    RAR,     ///< rd, [rs1], rs2; no displacement
    Target,  ///< absolute address in imm (a label in assembly)
    Cond,    ///< .<cond> target; condition in `sub`
    Compute, ///< imm [, rs1]
    Signal,  ///< sid=rs1, eip=rs2, esp=rd
    Monitor, ///< scenario=sub, handler=imm
};

/**
 * The opcode table: the one definition of every MISA opcode.
 *
 * Columns: enumerator, mnemonic, base latency in cycles, dispatch
 * class, operand format. Row order is the encoding (opcode byte = row
 * index), so encoded programs, snapshot images and golden digests
 * depend on it: append rows, never reorder them. Adding an opcode is
 * one row here plus one semantics case in cpu::Sequencer (execInline
 * for an Inline row, executeDecoded otherwise).
 *
 * Latencies model a simple in-order core with a CPI near 1 for ALU
 * work, matching the paper's "throughput is governed by event counts,
 * not core microarchitecture" analysis. Execution adds MMU cycles to
 * memory ops, the burst to Compute, ring transitions to Syscall and
 * the fabric's delivery latency to Signal.
 */
#define MISP_OPCODES(X)                                                  \
    X(Nop,       "nop",       1,  Inline, None)                          \
    X(Halt,      "halt",      1,  Slow,   None)    /* OMS: stop thread */\
    X(MovI,      "movi",      1,  Inline, RI)      /* rd = imm */        \
    X(Mov,       "mov",       1,  Inline, RR)      /* rd = rs1 */        \
    X(Add,       "add",       1,  Inline, RRR)                           \
    X(Sub,       "sub",       1,  Inline, RRR)                           \
    X(Mul,       "mul",       3,  Inline, RRR)                           \
    X(Div,       "div",       20, Mem,    RRR)     /* signed; #DE */     \
    X(Rem,       "rem",       20, Mem,    RRR)                           \
    X(And,       "and",       1,  Inline, RRR)                           \
    X(Or,        "or",        1,  Inline, RRR)                           \
    X(Xor,       "xor",       1,  Inline, RRR)                           \
    X(Shl,       "shl",       1,  Inline, RRR)     /* count & 63 */      \
    X(Shr,       "shr",       1,  Inline, RRR)                           \
    X(Sar,       "sar",       1,  Inline, RRR)                           \
    X(AddI,      "addi",      1,  Inline, RRI)                           \
    X(SubI,      "subi",      1,  Inline, RRI)                           \
    X(MulI,      "muli",      3,  Inline, RRI)                           \
    X(DivI,      "divi",      20, Mem,    RRI)                           \
    X(AndI,      "andi",      1,  Inline, RRI)                           \
    X(OrI,       "ori",       1,  Inline, RRI)                           \
    X(XorI,      "xori",      1,  Inline, RRI)                           \
    X(ShlI,      "shli",      1,  Inline, RRI)                           \
    X(ShrI,      "shri",      1,  Inline, RRI)                           \
    X(Cmp,       "cmp",       1,  Inline, SS)      /* signed compare */  \
    X(CmpI,      "cmpi",      1,  Inline, SI)                            \
    X(Ld,        "ld",        1,  Mem,    Load)    /* rd = [rs1+imm] */  \
    X(St,        "st",        1,  Mem,    Store)   /* [rs1+imm] = rs2 */ \
    X(Push,      "push",      1,  Mem,    S)                             \
    X(Pop,       "pop",       1,  Mem,    R)                             \
    X(Lea,       "lea",       1,  Inline, RM)      /* rd = rs1 + imm */  \
    X(Jmp,       "jmp",       2,  Branch, Target)                        \
    X(JmpR,      "jmpr",      2,  Branch, S)                             \
    X(Jcc,       "jcc",       2,  Branch, Cond)                          \
    X(Call,      "call",      3,  Slow,   Target)                        \
    X(CallR,     "callr",     3,  Slow,   S)                             \
    X(Ret,       "ret",       3,  Slow,   None)                          \
    X(Xchg,      "xchg",      20, Mem,    RA)      /* LOCK RMW */        \
    X(CmpXchg,   "cmpxchg",   20, Mem,    RAR)                           \
    X(FetchAdd,  "fetchadd",  20, Mem,    RAR)                           \
    X(Pause,     "pause",     10, Inline, None)    /* spin hint */       \
    X(Compute,   "compute",   1,  Inline, Compute) /* + imm (+ rs1) */   \
    X(Syscall,   "syscall",   10, Slow,   I)       /* OS service */      \
    X(RtCall,    "rtcall",    5,  Slow,   I)       /* ShredLib service */\
    X(SeqId,     "seqid",     1,  Inline, R)       /* own SID */         \
    X(NumSeq,    "numseq",    1,  Inline, R)       /* sequencer count */ \
    X(RdTick,    "rdtick",    1,  Inline, R)       /* TSC analog */      \
    X(Signal,    "signal",    2,  Slow,   Signal)  /* MIMD (§2.4) */     \
    X(Semonitor, "semonitor", 2,  Slow,   Monitor)                       \
    X(Yret,      "yret",      3,  Slow,   None)

/** Opcode space: one enumerator per table row, in row order. */
enum class Opcode : std::uint8_t {
#define MISP_OPCODE_ENUM(op, name, lat, cls, fmt) op,
    MISP_OPCODES(MISP_OPCODE_ENUM)
#undef MISP_OPCODE_ENUM
    NumOpcodes
};

/** One row of the opcode table. */
struct OpInfo {
    const char *name; ///< assembly mnemonic
    Cycles latency;   ///< base execution latency in cycles
    OpClass cls;      ///< superblock dispatch class
    OpFormat format;  ///< operand syntax
};

inline constexpr OpInfo kOpTable[] = {
#define MISP_OPCODE_INFO(op, name, lat, cls, fmt)                        \
    {name, lat, OpClass::cls, OpFormat::fmt},
    MISP_OPCODES(MISP_OPCODE_INFO)
#undef MISP_OPCODE_INFO
};
static_assert(sizeof(kOpTable) / sizeof(kOpTable[0]) ==
              static_cast<std::size_t>(Opcode::NumOpcodes));

/** The table row of @p op, which must be a decodable opcode. */
inline const OpInfo &
opInfo(Opcode op)
{
    return kOpTable[static_cast<std::size_t>(op)];
}

/** Look up the opcode whose mnemonic is @p name. */
bool opcodeFromName(const std::string &name, Opcode *out);

/** Branch conditions for Jcc, encoded in the `sub` field; decode
 *  rejects a Jcc whose `sub` is not one of these. */
enum class Cond : std::uint8_t {
    Eq = 0, Ne, Lt, Le, Gt, Ge, ///< signed, from FLAGS
    Ult, Uge,                   ///< unsigned
};
constexpr unsigned kNumConds = 8;
static_assert(static_cast<unsigned>(Cond::Uge) + 1 == kNumConds);

/** YIELD-CONDITIONAL scenario identifiers for SEMONITOR (§2.4, §2.5). */
enum class Scenario : std::uint8_t {
    IngressSignal = 0, ///< a SIGNAL arrived while a shred is running
    ProxyRequest = 1,  ///< (OMS only) an AMS raised a proxy-execution fault
    NumScenarios
};

/** FLAGS register: one nibble, zf | sf<<1 | cf<<2 | of<<3. */
class Flags
{
  public:
    static constexpr std::uint8_t kZf = 1; ///< zero
    static constexpr std::uint8_t kSf = 2; ///< sign
    static constexpr std::uint8_t kCf = 4; ///< carry (unsigned borrow)
    static constexpr std::uint8_t kOf = 8; ///< overflow
    static constexpr unsigned kStates = 16;

    static constexpr Flags
    make(bool zf, bool sf, bool cf, bool overflow)
    {
        return fromBits((zf ? kZf : 0) | (sf ? kSf : 0) | (cf ? kCf : 0) |
                        (overflow ? kOf : 0));
    }

    /** @p bits must be below kStates. */
    static constexpr Flags
    fromBits(unsigned bits)
    {
        Flags f;
        f.bits_ = static_cast<std::uint8_t>(bits);
        return f;
    }

    /** The flags CMP sets for the signed compare of @p a with @p b. */
    static constexpr Flags
    compare(SWord a, SWord b)
    {
        SWord diff = 0;
        const bool overflow = __builtin_sub_overflow(a, b, &diff);
        return make(a == b, diff < 0,
                    static_cast<std::uint64_t>(a) <
                        static_cast<std::uint64_t>(b),
                    overflow);
    }

    constexpr bool zf() const { return bits_ & kZf; }
    constexpr bool sf() const { return bits_ & kSf; }
    constexpr bool cf() const { return bits_ & kCf; }
    constexpr bool of() const { return bits_ & kOf; }
    constexpr unsigned bits() const { return bits_; }

    /** CAS reports success in ZF alone. */
    constexpr void
    setZf(bool zf)
    {
        bits_ = static_cast<std::uint8_t>((bits_ & ~kZf) | (zf ? kZf : 0));
    }

    bool operator==(const Flags &) const = default;

  private:
    std::uint8_t bits_ = 0;
};

/** The meaning of each Jcc condition: the one definition, from which
 *  kCondMasks is built. */
constexpr bool
condPredicate(Cond cond, Flags f)
{
    switch (cond) {
      case Cond::Eq: return f.zf();
      case Cond::Ne: return !f.zf();
      case Cond::Lt: return f.sf() != f.of();
      case Cond::Le: return f.zf() || (f.sf() != f.of());
      case Cond::Gt: return !f.zf() && (f.sf() == f.of());
      case Cond::Ge: return f.sf() == f.of();
      case Cond::Ult: return f.cf();
      case Cond::Uge: return !f.cf();
    }
    return false;
}

/** Bit `Flags::bits()` of row `cond`: whether the condition holds in
 *  that flag state. */
inline constexpr std::array<std::uint16_t, kNumConds> kCondMasks = [] {
    std::array<std::uint16_t, kNumConds> masks{};
    for (unsigned c = 0; c < kNumConds; ++c)
        for (unsigned bits = 0; bits < Flags::kStates; ++bits)
            if (condPredicate(static_cast<Cond>(c), Flags::fromBits(bits)))
                masks[c] |= static_cast<std::uint16_t>(1u << bits);
    return masks;
}();

/** Whether Jcc @p cond is taken under @p f. @p cond is in range: decode
 *  rejects any other condition byte. */
inline bool
condHolds(Cond cond, Flags f)
{
    return (kCondMasks[static_cast<unsigned>(cond)] >> f.bits()) & 1;
}

/** A decoded MISA instruction. */
struct Instruction {
    Opcode op = Opcode::Nop;
    std::uint8_t rd = 0;
    std::uint8_t rs1 = 0;
    std::uint8_t rs2 = 0;
    std::uint8_t sub = 0; ///< size for Ld/St, condition for Jcc, scenario
    std::uint64_t imm = 0;

    bool operator==(const Instruction &) const = default;
};

/** Encode @p inst into the 16-byte guest representation. */
std::array<std::uint8_t, kInstBytes> encode(const Instruction &inst);

/** Decode 16 bytes fetched from guest memory.
 *  @return false if the opcode byte, a register field or a Jcc's
 *  condition is out of range. */
bool decode(const std::uint8_t bytes[kInstBytes], Instruction *out);

/** Base execution latency of @p op in cycles (the table's column). */
inline Cycles
baseLatency(Opcode op)
{
    return opInfo(op).latency;
}

/** Mnemonic of @p op; "???" outside the opcode space. */
const char *opcodeName(Opcode op);
const char *condName(Cond cond);

/** One-line disassembly. */
std::string disassemble(const Instruction &inst);

/** True for opcodes that only the kernel may execute. MISA has none at
 *  present (the kernel is host-modeled), but the hook keeps the privilege
 *  check explicit in the sequencer. */
bool privileged(Opcode op);

} // namespace misp::isa

#endif // MISP_ISA_ISA_HH
