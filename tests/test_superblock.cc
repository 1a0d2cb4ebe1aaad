/**
 * @file
 * Differential fuzzing of the superblock-chained execution engine.
 *
 * An execution engine is a host-side optimization only: for any guest
 * program, the reference interpreter and the chained-superblock engine
 * must produce tick-for-tick identical machine state. This suite
 * generates seeded random guest programs — every Inline-class opcode
 * of the ISA table, divisions, atomics, call/ret pairs, branches
 * (static, conditional, indirect), aligned loads/stores of every size,
 * bounded loops, page-crossing straight runs, self-modifying stores
 * into the program's own code pages, RTCALLs, and stack traffic — and
 * fails on the first observable divergence between the engines: final
 * tick, retired/busy counts, every architectural register, FLAGS, the
 * data regions' contents, the TLB's hit/miss/walk statistics and its
 * snapshot bytes (reference bits and clock hands included), physical
 * memory's byte counters, and the event queue's processed-event count
 * and next sequence number.
 *
 * Further legs add a seeded periodic second event source, which makes
 * the superblock engine's in-place slice continuation be taken and
 * refused at random points (and samples the sequencer's counters at
 * every one of its ticks); the same source disturbing the sequencer
 * between two of its slices, so slices resume from the chain cursor
 * and are refused it (SMC poke, TLB flush, address-space switch, EIP
 * rewrite, signal delivery, snapshot round trip); and programs whose
 * loads and stores span more data pages than the TLB holds, so
 * data-window re-aims, evictions and page walks interleave.
 *
 * A further leg runs the loads and stores the generator never emits —
 * raw-encoded sizes other than 1, 2, 4 and 8, and misaligned accesses
 * — which the fast loop leaves to the generic path.
 *
 * A second pass replays a seed subset with a host-side poke schedule:
 * the machine runs to a fixed tick, the host rewrites a code page (the
 * loader/runtime path, which also exercises mapping-change
 * invalidation), and the run resumes. Engines are tick-identical, so
 * the poke lands at the same logical point under each one.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cpu/decode_cache.hh"
#include "cpu/sequencer.hh"
#include "harness/bare_machine.hh"
#include "isa/assembler.hh"
#include "mem/address_space.hh"
#include "snapshot/serialize.hh"

using namespace misp;

namespace {

/** Deterministic 64-bit generator (splitmix64): identical streams on
 *  every platform, unlike <random> distributions. */
struct Rng {
    std::uint64_t s;
    explicit Rng(std::uint64_t seed) : s(seed + 0x9e3779b97f4a7c15ull) {}
    std::uint64_t
    next()
    {
        std::uint64_t z = (s += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }
    /** Uniform in [0, n). */
    std::uint64_t pick(std::uint64_t n) { return next() % n; }
};

/** Scratch registers the generator is allowed to clobber. r1 is the
 *  outer loop counter, r2 the data base, r10..r13 are reserved for
 *  generated control (inner counters, indirect targets, SMC), r14 is
 *  the SMC accumulator, and r15 is the architectural stack pointer
 *  (push/pop chunks would fault through a clobbered one). */
unsigned
scratchReg(Rng &rng)
{
    static const unsigned kScratch[] = {3, 4, 5, 6, 7, 8, 9};
    return kScratch[rng.pick(sizeof(kScratch) / sizeof(kScratch[0]))];
}

const char *kConds[] = {"eq", "ne", "lt", "le", "gt", "ge", "ult",
                        "uge"};

/** The Inline-class rows of the opcode table: every op the engines run
 *  through the shared inline semantics. */
const std::vector<isa::Opcode> &
inlineOps()
{
    static const std::vector<isa::Opcode> ops = [] {
        std::vector<isa::Opcode> v;
        for (unsigned i = 0;
             i < static_cast<unsigned>(isa::Opcode::NumOpcodes); ++i) {
            if (isa::kOpTable[i].cls == isa::OpClass::Inline)
                v.push_back(static_cast<isa::Opcode>(i));
        }
        return v;
    }();
    return ops;
}

/** One Inline-class instruction, drawn uniformly from the table. */
void
emitAlu(std::string &src, Rng &rng)
{
    const isa::Opcode op = inlineOps()[rng.pick(inlineOps().size())];
    const char *mn = isa::opcodeName(op);
    const unsigned rd = scratchReg(rng);
    const unsigned rs = scratchReg(rng);
    const unsigned rt = scratchReg(rng);
    // Immediate shift counts up to 127 exercise the `& 63` masking.
    const bool shift = op == isa::Opcode::ShlI || op == isa::Opcode::ShrI;
    const auto imm =
        static_cast<unsigned long long>(rng.pick(shift ? 128 : 0x10000));
    char buf[96];
    switch (isa::opInfo(op).format) {
      case isa::OpFormat::None:
        std::snprintf(buf, sizeof buf, "    %s\n", mn);
        break;
      case isa::OpFormat::R:
        std::snprintf(buf, sizeof buf, "    %s r%u\n", mn, rd);
        break;
      case isa::OpFormat::RR:
        std::snprintf(buf, sizeof buf, "    %s r%u, r%u\n", mn, rd, rs);
        break;
      case isa::OpFormat::RRR:
        std::snprintf(buf, sizeof buf, "    %s r%u, r%u, r%u\n", mn, rd,
                      rs, rt);
        break;
      case isa::OpFormat::RI:
        std::snprintf(buf, sizeof buf, "    %s r%u, %llu\n", mn, rd, imm);
        break;
      case isa::OpFormat::RRI:
        std::snprintf(buf, sizeof buf, "    %s r%u, r%u, %llu\n", mn, rd,
                      rs, imm);
        break;
      case isa::OpFormat::SS:
        std::snprintf(buf, sizeof buf, "    %s r%u, r%u\n", mn, rs, rt);
        break;
      case isa::OpFormat::SI:
        std::snprintf(buf, sizeof buf, "    %s r%u, %llu\n", mn, rs, imm);
        break;
      case isa::OpFormat::RM:
        std::snprintf(buf, sizeof buf, "    %s r%u, [r%u+%llu]\n", mn, rd,
                      rs, imm);
        break;
      case isa::OpFormat::Compute:
        // The burst register is r1, the small outer-loop counter, so
        // the burn stays bounded.
        std::snprintf(buf, sizeof buf,
                      rng.pick(2) ? "    %s %llu, r1\n" : "    %s %llu\n",
                      mn, imm % 200);
        break;
      default:
        ADD_FAILURE() << "no generator for the format of " << mn;
        buf[0] = '\0';
        break;
    }
    src += buf;
}

/** Signed division with a forced divisor in [1, 255]: never zero and
 *  never -1, so no #DE fault ends the run. */
void
emitDivide(std::string &src, Rng &rng)
{
    const unsigned rd = scratchReg(rng);
    const unsigned rs = scratchReg(rng);
    const unsigned rt = scratchReg(rng);
    char buf[160];
    switch (rng.pick(3)) {
      case 0:
      case 1:
        std::snprintf(buf, sizeof buf,
                      "    andi r%u, r%u, 0xff\n"
                      "    ori r%u, r%u, 1\n"
                      "    %s r%u, r%u, r%u\n",
                      rt, rt, rt, rt, rng.pick(2) ? "div" : "rem", rd, rs,
                      rt);
        break;
      default:
        std::snprintf(buf, sizeof buf, "    divi r%u, r%u, %llu\n", rd, rs,
                      (unsigned long long)(1 + rng.pick(100)));
        break;
    }
    src += buf;
}

/** Atomic read-modify-writes on an aligned word of the data region
 *  (r12 holds the address; the SMC chunk reloads it before use). */
void
emitAtomics(std::string &src, Rng &rng)
{
    char buf[96];
    std::snprintf(buf, sizeof buf, "    lea r12, [r2+%llu]\n",
                  (unsigned long long)(rng.pick(3 * 4096 / 8) * 8));
    src += buf;
    const int n = 1 + (int)rng.pick(3);
    for (int i = 0; i < n; ++i) {
        const unsigned rx = scratchReg(rng);
        const unsigned ry = scratchReg(rng);
        switch (rng.pick(3)) {
          case 0:
            std::snprintf(buf, sizeof buf, "    xchg r%u, [r12]\n", rx);
            break;
          case 1:
            std::snprintf(buf, sizeof buf, "    cmpxchg r%u, [r12], r%u\n",
                          rx, ry);
            break;
          default:
            std::snprintf(buf, sizeof buf,
                          "    fetchadd r%u, [r12], r%u\n", rx, ry);
            break;
        }
        src += buf;
    }
}

/** The wide data region: more pages than the 64-entry TLB holds. */
constexpr VAddr kWideBase = 0x20'0000;
constexpr std::uint64_t kWidePages = 96;

void
emitMem(std::string &src, Rng &rng, bool wide)
{
    // Aligned access inside the first three pages of the writable data
    // region at 0x10'0000 (the machine's stack lives pages above; r2
    // holds the base), or anywhere in the wide region. Misaligned or
    // unmapped accesses would kill the bare machine, so the generator
    // never produces them.
    static const unsigned kSizes[] = {1, 2, 4, 8};
    const unsigned size = kSizes[rng.pick(4)];
    std::uint64_t off = rng.pick(3 * 4096 / size) * size; // aligned
    if (wide) {
        // Half the accesses crowd a few TLB sets (pages 16 apart share
        // a set of the 16-set TLB), so clock sweeps clear reference
        // bits of pages that are then hit again; the rest spread over
        // the whole region.
        const std::uint64_t page = rng.pick(2) == 0
                                       ? rng.pick(2) + 16 * rng.pick(6)
                                       : rng.pick(kWidePages);
        off = kWideBase - 0x10'0000 + page * 4096 +
              rng.pick(4096 / size) * size;
    }
    const unsigned rv = scratchReg(rng);
    char buf[96];
    if (rng.pick(2) == 0)
        std::snprintf(buf, sizeof buf, "    ld%u r%u, [r2+%llu]\n",
                      size, rv, (unsigned long long)off);
    else
        std::snprintf(buf, sizeof buf, "    st%u [r2+%llu], r%u\n",
                      size, (unsigned long long)off, rv);
    src += buf;
}

/** One seeded random program. Control flow is forward-only except for
 *  bounded counted loops, so every program halts. With @p wide, memory
 *  runs address the wide region. */
std::string
genProgram(std::uint64_t seed, bool wide = false)
{
    Rng rng(seed);
    std::string src = "main:\n"
                      "    movi r1, 0\n"
                      "    movi r2, 0x100000\n"
                      "outer:\n";
    int label = 0;
    const int chunks = 4 + (int)rng.pick(5);
    for (int c = 0; c < chunks; ++c) {
        char buf[128];
        switch (rng.pick(11)) {
          case 0: { // straight ALU run (long ones cross a page: a
                    // 4 KiB page holds 256 instruction bundles)
            const int n = rng.pick(6) == 0 ? 280 + (int)rng.pick(80)
                                           : 4 + (int)rng.pick(30);
            for (int i = 0; i < n; ++i)
                emitAlu(src, rng);
            break;
          }
          case 1: { // memory run
            const int n = 2 + (int)rng.pick(8);
            for (int i = 0; i < n; ++i)
                emitMem(src, rng, wide);
            break;
          }
          case 2: { // bounded inner loop (never nested)
            const int id = label++;
            std::snprintf(buf, sizeof buf,
                          "    movi r10, 0\nl%d:\n", id);
            src += buf;
            const int body = 1 + (int)rng.pick(6);
            for (int i = 0; i < body; ++i) {
                if (rng.pick(3) == 0)
                    emitMem(src, rng, wide);
                else
                    emitAlu(src, rng);
            }
            std::snprintf(buf, sizeof buf,
                          "    addi r10, r10, 1\n"
                          "    cmpi r10, %d\n"
                          "    jcc.lt l%d\n",
                          2 + (int)rng.pick(5), id);
            src += buf;
            break;
          }
          case 3: { // conditional forward skip
            const int id = label++;
            std::snprintf(buf, sizeof buf,
                          "    cmp r%u, r%u\n    jcc.%s l%d\n",
                          scratchReg(rng), scratchReg(rng),
                          kConds[rng.pick(8)], id);
            src += buf;
            const int n = 1 + (int)rng.pick(10);
            for (int i = 0; i < n; ++i)
                emitAlu(src, rng);
            std::snprintf(buf, sizeof buf, "l%d:\n", id);
            src += buf;
            break;
          }
          case 4: { // indirect forward jump (target read at run time)
            const int id = label++;
            std::snprintf(buf, sizeof buf,
                          "    movi r11, l%d\n    jmp r11\n", id);
            src += buf;
            for (int i = 0; i < 1 + (int)rng.pick(4); ++i)
                emitAlu(src, rng);
            std::snprintf(buf, sizeof buf, "l%d:\n", id);
            src += buf;
            break;
          }
          case 5: // environment call (a Slow-class serialization point)
            std::snprintf(buf, sizeof buf, "    rtcall %llu\n",
                          (unsigned long long)rng.pick(8));
            src += buf;
            break;
          case 6: { // self-modifying store into the patch target's
                    // immediate field (bytes 8..15 of its bundle)
            std::snprintf(buf, sizeof buf,
                          "    movi r12, patch\n"
                          "    addi r12, r12, 8\n"
                          "    movi r13, %llu\n"
                          "    st8 [r12+0], r13\n",
                          (unsigned long long)rng.pick(100000));
            src += buf;
            break;
          }
          case 7: { // stack traffic through the Mem-class slow path
            const unsigned rv = scratchReg(rng);
            std::snprintf(buf, sizeof buf,
                          "    push r%u\n    pop r%u\n", rv,
                          scratchReg(rng));
            src += buf;
            break;
          }
          case 8: // division run (Mem class: a fault-capable body op)
            for (int i = 0, n = 1 + (int)rng.pick(3); i < n; ++i)
                emitDivide(src, rng);
            break;
          case 9: // atomics on the data region
            emitAtomics(src, rng);
            break;
          default: { // call/ret pair around a forward-skipped body
            const int id = label++;
            if (rng.pick(2) == 0)
                std::snprintf(buf, sizeof buf, "    call f%d\n", id);
            else
                std::snprintf(buf, sizeof buf,
                              "    movi r11, f%d\n    call r11\n", id);
            src += buf;
            std::snprintf(buf, sizeof buf, "    jmp g%d\nf%d:\n", id, id);
            src += buf;
            for (int i = 0, n = 1 + (int)rng.pick(6); i < n; ++i)
                emitAlu(src, rng);
            std::snprintf(buf, sizeof buf, "    ret\ng%d:\n", id);
            src += buf;
            break;
          }
        }
    }
    // The SMC patch target: every outer iteration executes whatever
    // immediate the last chunk-6 store left here.
    src += "patch:\n"
           "    movi r13, 7\n"
           "    add r14, r14, r13\n";
    char tail[96];
    std::snprintf(tail, sizeof tail,
                  "    addi r1, r1, 1\n"
                  "    cmpi r1, %d\n"
                  "    jcc.lt outer\n"
                  "done:\n"
                  "    halt\n",
                  2 + (int)rng.pick(3));
    src += tail;
    return src;
}

struct FuzzMachine : harness::BareMachine {
    FuzzMachine(const std::string &src, cpu::Engine engine)
        : harness::BareMachine(src, engine, /*writableCode=*/true)
    {
        as.defineRegion(kWideBase, kWidePages * mem::kPageSize, true,
                        "wide");
    }
};

/** FNV-1a over @p n bytes. */
std::uint64_t
fnv(const void *data, std::size_t n,
    std::uint64_t h = 0xcbf29ce484222325ull)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    for (std::size_t i = 0; i < n; ++i)
        h = (h ^ p[i]) * 0x100000001b3ull;
    return h;
}

/** What a Ticker does to the sequencer at each of its ticks, between
 *  two of the sequencer's slices — each a way to invalidate the chain
 *  cursor a resumed slice would start from. */
enum class Disturb {
    None,
    SmcPoke,    ///< host rewrite of the patch target and the EIP's bundle
    TlbFlush,   ///< drop every translation
    SwitchAs,   ///< CR3 to another address space and back
    EipRewrite, ///< send EIP back to `outer` (at most kMaxRewrites times)
    Signal,     ///< an ingress SIGNAL into a registered handler (at most
                ///< kMaxSignals, one at a time)
    Snapshot,   ///< the sequencer's state through an image and back
};

/** Handler for Disturb::Signal, appended to the generated program. */
const char *const kSignalHandler = "sighandler:\n"
                                   "    addi r9, r9, 1\n"
                                   "    yret\n";

/**
 * A seeded periodic second event source. Its ticks land at random
 * points of the sequencer's slices — before, at, and after the tick a
 * slice would continue at, at every priority — so the superblock
 * engine's continuation is taken and refused at random, and slices it
 * refused resume from the chain cursor. Each tick samples what another
 * event could observe of the sequencer (retired and busy counts, TLB
 * hits), which must match the reference engine, then applies its
 * disturbance on a seeded half of the ticks, so slices resumed after an
 * undisturbed gap and slices refused after a disturbed one interleave.
 */
class Ticker : public Event
{
  public:
    Ticker(harness::BareMachine &m, std::uint64_t seed,
           Disturb disturb = Disturb::None)
        : Event("ticker", kPrios[seed % 4]), m_(m), rng_(seed),
          period_(1 + rng_.pick(seed % 3 == 0 ? 40 : 3000)),
          disturb_(disturb)
    {
        m_.eq.schedule(this, rng_.pick(period_));
    }

    ~Ticker() override
    {
        if (scheduled())
            m_.eq.deschedule(this);
    }

    void
    process() override
    {
        const std::uint64_t sample[] = {
            m_.eq.curTick(), m_.seq.instsRetired(), m_.seq.busyCycles(),
            m_.seq.mmu().tlb().hits()};
        samples = fnv(sample, sizeof sample, samples);
        if (m_.seq.halted())
            return;
        if (disturb_ != Disturb::None && rng_.pick(2) == 0)
            disturb();
        m_.eq.schedule(this, m_.eq.curTick() + 1 + rng_.pick(2 * period_));
    }

    std::uint64_t samples = 0;

  private:
    static constexpr int kPrios[] = {kPrioInterrupt, kPrioDefault,
                                     kPrioCpu, kPrioStats};
    // Caps that keep every disturbed program finite.
    static constexpr unsigned kMaxRewrites = 3;
    static constexpr unsigned kMaxSignals = 16;

    void
    disturb()
    {
        cpu::Sequencer &seq = m_.seq;
        switch (disturb_) {
          case Disturb::None:
            break;
          case Disturb::SmcPoke: {
            m_.as.pokeWord(m_.prog.symbol("patch") + 8,
                           1000 + rng_.pick(1000), 8);
            // The resumed page itself, rewritten with its own bytes.
            const VAddr eip = seq.context().eip;
            m_.as.pokeWord(eip, m_.as.peekWord(eip, 8), 8);
            break;
          }
          case Disturb::TlbFlush:
            seq.mmu().tlb().flushAll();
            break;
          case Disturb::SwitchAs:
            seq.mmu().setAddressSpace(&other_);
            seq.mmu().setAddressSpace(&m_.as);
            break;
          case Disturb::EipRewrite: {
            // Only from inside the outer loop: main's set-up must have
            // run.
            const VAddr eip = seq.context().eip;
            if (count_ < kMaxRewrites && eip >= m_.prog.symbol("outer") &&
                eip < m_.prog.symbol("done")) {
                ++count_;
                seq.context().eip = m_.prog.symbol("outer");
            }
            break;
          }
          case Disturb::Signal:
            if (count_ < kMaxSignals && seq.pendingSignals() == 0) {
                ++count_;
                seq.deliverSignal(cpu::SignalPayload{0, 0, rng_.pick(100)});
            }
            break;
          case Disturb::Snapshot: {
            snap::Serializer s;
            s.beginSection(1);
            seq.archive(s);
            s.endSection();
            // The restore re-enqueues the pending slice itself.
            if (seq.snapRunEvent()->scheduled())
                m_.eq.deschedule(const_cast<Event *>(seq.snapRunEvent()));
            snap::Deserializer d(s.done());
            d.openSection(1);
            seq.archive(d);
            break;
          }
        }
    }

    harness::BareMachine &m_;
    Rng rng_;
    std::uint64_t period_;
    Disturb disturb_;
    unsigned count_ = 0; ///< rewrites or signals so far
    mem::AddressSpace other_{"other", m_.pmem};
};

struct Observed {
    Tick ticks = 0;
    Tick busy = 0;
    std::uint64_t retired = 0;
    std::uint64_t tlbHits = 0;
    std::uint64_t tlbMisses = 0;
    std::uint64_t walks = 0;
    Word regs[isa::kNumRegs] = {};
    isa::Flags flags;
    std::uint64_t dataHash = 0; ///< FNV-1a of both data regions
    std::uint64_t tlbImage = 0; ///< FNV-1a of the TLB's snapshot bytes
    std::uint64_t bytesRead = 0;
    std::uint64_t bytesWritten = 0;
    std::uint64_t eventsProcessed = 0;
    std::uint64_t nextSeq = 0;
    std::uint64_t tickerSamples = 0;

    static Observed
    of(harness::BareMachine &m, const Ticker *ticker = nullptr)
    {
        Observed o;
        std::vector<std::uint8_t> data(3 * 4096);
        m.as.peek(0x10'0000, data.data(), data.size());
        o.dataHash = fnv(data.data(), data.size());
        data.resize(kWidePages * 4096);
        m.as.peek(kWideBase, data.data(), data.size());
        o.dataHash = fnv(data.data(), data.size(), o.dataHash);
        snap::Serializer s;
        s.beginSection(1);
        m.seq.mmu().tlb().archive(s);
        s.endSection();
        const std::string image = s.done();
        o.tlbImage = fnv(image.data(), image.size());
        o.flags = m.seq.context().flags;
        o.ticks = m.eq.curTick();
        o.busy = m.seq.busyCycles();
        o.retired = m.seq.instsRetired();
        o.tlbHits = m.seq.mmu().tlb().hits();
        o.tlbMisses = m.seq.mmu().tlb().misses();
        o.walks = m.seq.mmu().pageWalks();
        o.bytesRead = m.pmem.bytesRead();
        o.bytesWritten = m.pmem.bytesWritten();
        o.eventsProcessed = m.eq.numProcessed();
        o.nextSeq = m.eq.nextSeq();
        o.tickerSamples = ticker ? ticker->samples : 0;
        for (unsigned r = 0; r < isa::kNumRegs; ++r)
            o.regs[r] = m.seq.context().regs[r];
        return o;
    }
};

void
expectIdentical(const Observed &ref, const Observed &got,
                cpu::Engine engine, std::uint64_t seed)
{
    const char *en = cpu::engineName(engine);
    EXPECT_EQ(got.ticks, ref.ticks) << en << " seed " << seed;
    EXPECT_EQ(got.busy, ref.busy) << en << " seed " << seed;
    EXPECT_EQ(got.retired, ref.retired) << en << " seed " << seed;
    EXPECT_EQ(got.tlbHits, ref.tlbHits) << en << " seed " << seed;
    EXPECT_EQ(got.tlbMisses, ref.tlbMisses) << en << " seed " << seed;
    EXPECT_EQ(got.walks, ref.walks) << en << " seed " << seed;
    EXPECT_EQ(got.flags, ref.flags) << en << " seed " << seed;
    EXPECT_EQ(got.dataHash, ref.dataHash) << en << " seed " << seed;
    EXPECT_EQ(got.tlbImage, ref.tlbImage) << en << " seed " << seed;
    EXPECT_EQ(got.bytesRead, ref.bytesRead) << en << " seed " << seed;
    EXPECT_EQ(got.bytesWritten, ref.bytesWritten)
        << en << " seed " << seed;
    EXPECT_EQ(got.eventsProcessed, ref.eventsProcessed)
        << en << " seed " << seed;
    EXPECT_EQ(got.nextSeq, ref.nextSeq) << en << " seed " << seed;
    EXPECT_EQ(got.tickerSamples, ref.tickerSamples)
        << en << " seed " << seed;
    for (unsigned r = 0; r < isa::kNumRegs; ++r)
        EXPECT_EQ(got.regs[r], ref.regs[r])
            << en << " seed " << seed << " r" << r;
}

/** What the superblock run of runBothEngines did at slice
 *  boundaries. */
struct SliceCounts {
    std::uint64_t continued = 0;
    std::uint64_t resumed = 0;
};

/** Run genProgram(@p seed, @p wide) under both engines, optionally
 *  with a Ticker applying @p disturb, and compare. @return the
 *  superblock run's slice counts. */
SliceCounts
runBothEngines(std::uint64_t seed, bool wide, bool ticker,
               Disturb disturb = Disturb::None)
{
    std::string src = genProgram(seed, wide);
    if (disturb == Disturb::Signal)
        src += kSignalHandler;
    Observed want;
    SliceCounts counts;
    for (cpu::Engine engine :
         {cpu::Engine::Reference, cpu::Engine::Superblock}) {
        FuzzMachine m(src, engine);
        m.start();
        if (disturb == Disturb::Signal)
            m.seq.context().setTrigger(isa::Scenario::IngressSignal,
                                       m.prog.symbol("sighandler"));
        std::unique_ptr<Ticker> t;
        if (ticker)
            t = std::make_unique<Ticker>(m, seed, disturb);
        m.eq.run();
        if (engine == cpu::Engine::Reference) {
            // The program must run to its final HALT: a fault (an
            // unguarded divide, a stray access) kills the run early.
            EXPECT_EQ(m.seq.context().eip, m.prog.symbol("done"))
                << "seed " << seed << "\n"
                << src;
            EXPECT_EQ(m.seq.slicesContinued(), 0u);
            EXPECT_EQ(m.seq.slicesResumed(), 0u);
            want = Observed::of(m, t.get());
        } else {
            expectIdentical(want, Observed::of(m, t.get()), engine, seed);
            counts.continued = m.seq.slicesContinued();
            counts.resumed = m.seq.slicesResumed();
        }
    }
    return counts;
}

} // namespace

TEST(SuperblockFuzz, EnginesBitIdenticalOver128Seeds)
{
    for (std::uint64_t seed = 1; seed <= 128; ++seed) {
        const std::string src = genProgram(seed);
        FuzzMachine ref(src, cpu::Engine::Reference);
        ref.run();
        // A generated program must actually run to completion (a
        // killed or dead seed would silently weaken the fuzzer; the
        // smallest possible program retires ~20 instructions).
        ASSERT_GT(ref.seq.instsRetired(), 15u)
            << "seed " << seed << "\n"
            << src;
        // It must also end at its final HALT: a fault (an unguarded
        // divide, a stray access) kills the run early instead.
        ASSERT_EQ(ref.seq.context().eip, ref.prog.symbol("done"))
            << "seed " << seed << "\n"
            << src;
        const Observed want = Observed::of(ref);
        FuzzMachine m(src, cpu::Engine::Superblock);
        m.run();
        expectIdentical(want, Observed::of(m), cpu::Engine::Superblock,
                        seed);
        if (HasFailure())
            break; // the seed is in the failure output; stop the flood
    }
}

TEST(SuperblockFuzz, HostPokeScheduleBitIdentical)
{
    // Mid-run host pokes: run to a tick, rewrite the patch target's
    // immediate from the host side (the loader/runtime path), resume.
    // Tick-identical engines see the poke at the same logical point.
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        const std::string src = genProgram(seed);
        Observed want;
        bool haveRef = false;
        for (cpu::Engine engine :
             {cpu::Engine::Reference, cpu::Engine::Superblock}) {
            FuzzMachine m(src, engine);
            m.start();
            const VAddr patchImm = m.prog.symbol("patch") + 8;
            for (Tick at = 4000; at <= 20000; at += 4000) {
                m.eq.run(at);
                m.as.pokeWord(patchImm, 1000 + at, 8);
            }
            m.eq.run();
            if (!haveRef) {
                want = Observed::of(m);
                haveRef = true;
            } else {
                expectIdentical(want, Observed::of(m), engine, seed);
            }
        }
        if (HasFailure())
            break;
    }
}

TEST(SuperblockFuzz, SecondEventSourceBitIdentical)
{
    // Continuation taken and refused at random points: the queue's
    // processed count and next sequence, and everything the ticker saw
    // at each of its ticks, must match the reference engine's.
    SliceCounts total;
    for (std::uint64_t seed = 1; seed <= 64; ++seed) {
        const SliceCounts c =
            runBothEngines(seed, /*wide=*/false, /*ticker=*/true);
        total.continued += c.continued;
        total.resumed += c.resumed;
        if (HasFailure())
            break;
    }
    EXPECT_GT(total.continued, 0u);
    // Refused slices must actually resume from the chain cursor, or
    // the disturbance legs below test nothing.
    EXPECT_GT(total.resumed, 0u);
}

/** Every seed of a disturbance leg: the second event source disturbs
 *  the sequencer between two of its slices. */
void
disturbanceLeg(Disturb disturb)
{
    std::uint64_t resumed = 0;
    for (std::uint64_t seed = 1; seed <= 48; ++seed) {
        resumed += runBothEngines(seed, /*wide=*/seed % 4 == 0,
                                  /*ticker=*/true, disturb)
                       .resumed;
        if (::testing::Test::HasFailure())
            break;
    }
    EXPECT_GT(resumed, 0u);
}

TEST(SuperblockResume, SmcPokeOfTheResumedPageBitIdentical)
{
    disturbanceLeg(Disturb::SmcPoke);
}

TEST(SuperblockResume, TlbFlushBitIdentical)
{
    disturbanceLeg(Disturb::TlbFlush);
}

TEST(SuperblockResume, AddressSpaceSwitchAwayAndBackBitIdentical)
{
    disturbanceLeg(Disturb::SwitchAs);
}

TEST(SuperblockResume, EipRewriteBitIdentical)
{
    disturbanceLeg(Disturb::EipRewrite);
}

TEST(SuperblockResume, SignalDeliveryBitIdentical)
{
    disturbanceLeg(Disturb::Signal);
}

TEST(SuperblockResume, SnapshotSaveAndRestoreMidRunBitIdentical)
{
    disturbanceLeg(Disturb::Snapshot);
}

TEST(SuperblockFuzz, DataSetsWiderThanTheTlbBitIdentical)
{
    // 96 data pages over a 64-entry TLB: data-window re-aims, clock
    // evictions and page walks interleave (with and without the
    // second event source).
    for (std::uint64_t seed = 1; seed <= 48; ++seed) {
        runBothEngines(seed, /*wide=*/true, /*ticker=*/seed % 2 == 0);
        if (HasFailure())
            break;
    }
}

TEST(SuperblockFuzz, StoreToAReadOnlyTlbPageFaultsUnderBothEngines)
{
    // The TLB holds the read-only page when the store comes, but the
    // data window has moved on: the store must not be re-aimed into
    // the window; it faults (and the bare machine kills the run) under
    // both engines at the same instruction.
    const std::string src = R"(
main:
    movi r2, 0x300000
    movi r3, 0x100000
    ld8 r4, [r2+0]      ; the TLB now maps the read-only page
    ld8 r5, [r3+0]      ; the data window moves to the stack page
store:
    st8 [r2+8], r5      ; write to a read-only page: must fault
    halt
)";
    Observed want;
    for (cpu::Engine engine :
         {cpu::Engine::Reference, cpu::Engine::Superblock}) {
        FuzzMachine m(src, engine);
        m.as.defineRegion(0x30'0000, mem::kPageSize, /*writable=*/false,
                          "ro");
        m.run();
        EXPECT_TRUE(m.seq.halted()) << cpu::engineName(engine);
        EXPECT_EQ(m.seq.context().eip, m.prog.symbol("store"))
            << cpu::engineName(engine);
        if (engine == cpu::Engine::Reference)
            want = Observed::of(m);
        else
            expectIdentical(want, Observed::of(m), engine, 0);
    }
}

TEST(SuperblockFuzz, LoadsAndStoresTheFastLoopExitsOnBitIdentical)
{
    // Loads and stores whose slots take the fast loop's exit handler,
    // which the generator never emits: sizes MISA does not access
    // (raw-encoded: the assembler takes only 1, 2, 4 and 8) and
    // misaligned ones. Each runs at `bad`, behind a loop that keeps the
    // fast loop hot, and ends the run there — whatever the reference
    // engine does with it, the superblock engine must do the same.
    const std::string src = R"(
main:
    movi r2, 0x100000
    movi r1, 0
loop:
    addi r1, r1, 1
    st8 [r2+0], r1
    ld8 r3, [r2+0]
    cmpi r1, 100
    jcc.lt loop
    movi r4, 7
bad:
    ld8 r5, [r2+8]
    halt
)";
    struct Case {
        isa::Opcode op;
        std::uint8_t size;
        std::uint64_t disp;
    };
    const Case cases[] = {
        {isa::Opcode::Ld, 0, 8},  {isa::Opcode::Ld, 3, 8},
        {isa::Opcode::Ld, 16, 16}, {isa::Opcode::St, 0, 8},
        {isa::Opcode::St, 3, 8},  {isa::Opcode::St, 16, 16},
        {isa::Opcode::Ld, 8, 9},  {isa::Opcode::St, 4, 6},
    };
    for (const Case &k : cases) {
        const std::string what = std::string(isa::opcodeName(k.op)) +
                                 std::to_string(k.size) + " +" +
                                 std::to_string(k.disp);
        Observed want;
        bool wantThrew = false;
        for (cpu::Engine engine :
             {cpu::Engine::Reference, cpu::Engine::Superblock}) {
            FuzzMachine m(src, engine);
            const auto bytes = isa::encode(
                {k.op, /*rd=*/5, /*rs1=*/2, /*rs2=*/5, k.size, k.disp});
            m.as.poke(m.prog.symbol("bad"), bytes.data(), bytes.size());
            m.start();
            bool threw = false;
            try {
                m.eq.run();
            } catch (const SimError &) {
                threw = true;
            }
            EXPECT_EQ(m.seq.context().eip, m.prog.symbol("bad"))
                << what << " " << cpu::engineName(engine);
            EXPECT_EQ(m.reg(1), 100u) << what;
            if (engine == cpu::Engine::Reference) {
                want = Observed::of(m);
                wantThrew = threw;
            } else {
                EXPECT_EQ(threw, wantThrew) << what;
                expectIdentical(want, Observed::of(m), engine, 0);
                EXPECT_GT(m.seq.decodeCacheHits(), 0u) << what;
            }
        }
        if (HasFailure()) {
            ADD_FAILURE() << "at " << what;
            break;
        }
    }
}

TEST(SuperblockFuzz, SuperblockEngineActuallyEngages)
{
    // Guard against the fuzzer silently testing nothing: under the
    // superblock engine the generated programs must hit the decoded-
    // block fast path.
    const std::string src = genProgram(7);
    FuzzMachine m(src, cpu::Engine::Superblock);
    m.run();
    EXPECT_GT(m.seq.decodeCacheHits(), 0u);
    EXPECT_GT(m.as.decodeCache().pagesDecoded(), 0u);
}
