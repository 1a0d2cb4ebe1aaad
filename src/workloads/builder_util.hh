/**
 * @file
 * Shared helpers for authoring multi-shredded guest workloads.
 */

#ifndef MISP_WORKLOADS_BUILDER_UTIL_HH
#define MISP_WORKLOADS_BUILDER_UTIL_HH

#include <algorithm>
#include <cstring>
#include <functional>
#include <vector>

#include "harness/loader.hh"
#include "isa/program.hh"
#include "mem/address_space.hh"
#include "shredlib/stub_library.hh"
#include "sim/logging.hh"
#include "sim/random.hh"

namespace misp::wl {

/** Resolved stub-library entry points (identical for both backends by
 *  the fixed-slot ABI). */
struct StubCalls {
    VAddr init, create, joinAll, self, yield;
    VAddr mutexLock, mutexUnlock, barrierWait;
    VAddr semWait, semPost, condWait, condSignal, condBroadcast;
    VAddr eventWait, eventSet;
    VAddr malloc, prefault, exitProcess, logWrite;

    static const StubCalls &get();
};

/** Sequential static-data layout starting at the guest data base. */
class DataLayout
{
  public:
    /** Reserve @p bytes (page-aligned) and return the guest address. */
    VAddr
    reserve(std::uint64_t bytes, std::string label)
    {
        VAddr addr = cursor_;
        std::uint64_t rounded =
            (bytes + mem::kPageSize - 1) & ~(mem::kPageSize - 1);
        cursor_ += rounded + mem::kPageSize; // guard page
        regions_.push_back(
            harness::DataRegion{addr, rounded, true, std::move(label), {}});
        return addr;
    }

    /** Reserve and back with an int64 image. */
    VAddr
    reserveInts(const std::vector<std::int64_t> &values, std::string label)
    {
        VAddr addr = reserve(values.size() * 8, std::move(label));
        auto &img = regions_.back().image;
        img.resize(values.size() * 8);
        std::memcpy(img.data(), values.data(), img.size());
        return addr;
    }

    std::vector<harness::DataRegion> take() { return std::move(regions_); }

  private:
    VAddr cursor_ = mem::kDataBase;
    std::vector<harness::DataRegion> regions_;
};

/** Registers conventionally used by workload code. Stub calls clobber
 *  r0 (return value) and r9 (sync-word touch); r4..r8 and r14 survive
 *  only within straight-line shred code (no callee-save convention —
 *  workloads simply avoid calls while values are live, or re-derive). */
namespace reg {
constexpr unsigned a0 = 0, a1 = 1, a2 = 2, a3 = 3;
constexpr unsigned t0 = 4, t1 = 5, t2 = 6, t3 = 7, t4 = 8, t5 = 9;
constexpr unsigned s0 = 10, s1 = 11, s2 = 12, s3 = 13, s4 = 14;
} // namespace reg

/** Emit `main:` with rt_init and optional §5.3 page probes. Serial
 *  setup code goes right after this. */
void emitMainProlog(isa::ProgramBuilder &b,
                    const std::vector<std::pair<VAddr, std::uint64_t>>
                        &prefaultRanges = {});

/** Emit the parallel region: create @p workers shreds running
 *  @p workerFn(arg = worker index), then join_all. */
void emitCreateAndJoin(isa::ProgramBuilder &b, unsigned workers,
                       isa::ProgramBuilder::Label workerFn);

/** Emit exit_process(0). */
void emitMainEpilog(isa::ProgramBuilder &b);

/** Emit a compute burst of ~@p totalCycles as a loop of bounded COMPUTE
 *  instructions (chunks of ~2000 cycles), so pending suspensions and
 *  signals are still honored at instruction boundaries. Clobbers
 *  @p scratch. Models the FP-dense inner loops of the original
 *  workloads at the paper's compute-to-fault ratios. */
void emitComputeBurst(isa::ProgramBuilder &b, std::uint64_t totalCycles,
                      unsigned scratch);

/** Emit a serial guest-init loop: for (i = 0; i < count; ++i)
 *  mem64[base + i*stride] = (i * mult + add) & mask.
 *  Touches pages on the executing (main/OMS) sequencer. */
void emitSerialFill(isa::ProgramBuilder &b, VAddr base,
                    std::uint64_t count, std::uint64_t stride,
                    std::uint64_t mult, std::uint64_t add,
                    std::uint64_t mask);

/** Host-side mirror of emitSerialFill (for reference computations). */
std::vector<std::int64_t> hostFill(std::uint64_t count, std::uint64_t mult,
                                   std::uint64_t add, std::uint64_t mask);

/** Emit code computing this worker's [lo, hi) static chunk of @p total
 *  items into registers @p regLo / @p regHi, given the worker index in
 *  r0 at function entry. Clobbers t5. */
void emitChunkBounds(isa::ProgramBuilder &b, std::uint64_t total,
                     unsigned workers, unsigned regLo, unsigned regHi);

/** Build a validator comparing the @p count int64 words of the guest
 *  array at @p addr with `expectedAt(i)`. The validator computes each
 *  expected word when it runs, so it holds only what @p expectedAt
 *  captures; on a mismatch it warns `<what>: mismatch at [i]: got X,
 *  want Y` for the first differing index and returns false. */
template <typename ExpectedAt>
std::function<bool(mem::AddressSpace &)>
makeIntArrayValidator(VAddr addr, std::size_t count, ExpectedAt expectedAt,
                      std::string what)
{
    return [addr, count, expectedAt = std::move(expectedAt),
            what = std::move(what)](mem::AddressSpace &as) {
        // One peek per guest page, into a fixed buffer: one page-table
        // lookup per page, and no allocation however long the array.
        constexpr std::size_t kWords = mem::kPageSize / 8;
        std::int64_t buf[kWords];
        for (std::size_t i = 0; i < count;) {
            const VAddr va = addr + i * 8;
            const std::size_t n = std::min(
                count - i,
                std::max<std::size_t>(
                    1, (mem::kPageSize - mem::pageOffset(va)) / 8));
            as.peek(va, buf, n * 8);
            for (std::size_t k = 0; k < n; ++k, ++i) {
                const std::int64_t want = expectedAt(i);
                if (buf[k] != want) {
                    warn("%s: mismatch at [%zu]: got %lld, want %lld",
                         what.c_str(), i, (long long)buf[k],
                         (long long)want);
                    return false;
                }
            }
        }
        return true;
    };
}

/** The same validator over a host copy of the answer, @p expected. */
std::function<bool(mem::AddressSpace &)>
makeIntArrayValidator(VAddr addr, std::vector<std::int64_t> expected,
                      std::string what);

} // namespace misp::wl

#endif // MISP_WORKLOADS_BUILDER_UTIL_HH
