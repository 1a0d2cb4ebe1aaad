/**
 * @file
 * Parameterized end-to-end sweep: every workload in the paper's suite
 * must run to completion and produce the host-validated result on the
 * MISP machine, plus cross-backend and property checks, and the
 * validators' own checks. A counting global operator new/delete tracks
 * this binary's live heap bytes, so a test can weigh a built workload.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>

#include "harness/experiment.hh"
#include "mem/address_space.hh"
#include "mem/physical_memory.hh"
#include "workloads/builder_util.hh"
#include "workloads/workload.hh"

using namespace misp;

namespace {

/** Live heap bytes requested through operator new, less those
 *  released. Each block carries its size in a 16-byte prefix (keeping
 *  malloc's alignment), so delete knows how much to subtract. */
std::atomic<long long> gLiveBytes{0};
constexpr std::size_t kPrefix = 16;

void *
countedAlloc(std::size_t n)
{
    void *p = std::malloc(n + kPrefix);
    if (!p)
        throw std::bad_alloc();
    *static_cast<std::size_t *>(p) = n;
    gLiveBytes += static_cast<long long>(n);
    return static_cast<char *>(p) + kPrefix;
}

void
countedFree(void *p) noexcept
{
    if (!p)
        return;
    void *block = static_cast<char *>(p) - kPrefix;
    gLiveBytes -= static_cast<long long>(*static_cast<std::size_t *>(block));
    std::free(block);
}

} // namespace

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void operator delete(void *p) noexcept { countedFree(p); }
void operator delete[](void *p) noexcept { countedFree(p); }
void operator delete(void *p, std::size_t) noexcept { countedFree(p); }
void operator delete[](void *p, std::size_t) noexcept { countedFree(p); }

namespace {

struct RunOut {
    Tick ticks = 0;
    bool valid = false;
    std::uint64_t proxies = 0;
};

RunOut
runWorkload(const wl::WorkloadInfo &info, const arch::SystemConfig &cfg,
            rt::Backend backend, const wl::WorkloadParams &params)
{
    wl::Workload w = info.build(params);
    harness::Experiment exp(cfg, backend);
    auto proc = exp.load(w.app);
    RunOut out;
    out.ticks = exp.runToCompletion(proc.process).ticks;
    out.valid =
        !w.validate || w.validate(proc.process->addressSpace());
    out.proxies = static_cast<std::uint64_t>(
        exp.system().processor(0).statGroup().lookupValue(
            "proxyRequests"));
    return out;
}

class WorkloadSweep
    : public ::testing::TestWithParam<const wl::WorkloadInfo *>
{};

std::string
workloadName(
    const ::testing::TestParamInfo<const wl::WorkloadInfo *> &info)
{
    return info.param->name;
}

std::vector<const wl::WorkloadInfo *>
allInfos()
{
    std::vector<const wl::WorkloadInfo *> out;
    for (const wl::WorkloadInfo &info : wl::allWorkloads())
        out.push_back(&info);
    return out;
}

} // namespace

TEST_P(WorkloadSweep, CorrectOnMispUniprocessor)
{
    wl::WorkloadParams params;
    params.workers = 7;
    RunOut out = runWorkload(*GetParam(),
                             arch::SystemConfig::uniprocessor(7),
                             rt::Backend::Shred, params);
    ASSERT_GT(out.ticks, 0u);
    EXPECT_TRUE(out.valid);
}

TEST_P(WorkloadSweep, DeterministicAcrossRuns)
{
    wl::WorkloadParams params;
    params.workers = 3;
    arch::SystemConfig cfg = arch::SystemConfig::uniprocessor(3);
    RunOut a = runWorkload(*GetParam(), cfg, rt::Backend::Shred, params);
    RunOut b = runWorkload(*GetParam(), cfg, rt::Backend::Shred, params);
    ASSERT_GT(a.ticks, 0u);
    // Bit-identical simulation: same seed, same config => same tick.
    EXPECT_EQ(a.ticks, b.ticks);
    EXPECT_EQ(a.proxies, b.proxies);
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadSweep,
                         ::testing::ValuesIn(allInfos()), workloadName);

// ---------------------------------------------------------------------
// Cross-cutting properties on a representative subset
// ---------------------------------------------------------------------

class WorkloadProperties
    : public ::testing::TestWithParam<const wl::WorkloadInfo *>
{};

std::vector<const wl::WorkloadInfo *>
subsetInfos()
{
    std::vector<const wl::WorkloadInfo *> out;
    for (const char *name :
         {"dense_mvm", "kmeans", "sparse_mvm_trans", "Raytracer",
          "galgel"}) {
        out.push_back(wl::findWorkload(name));
    }
    return out;
}

TEST_P(WorkloadProperties, CorrectOnSmpBaseline)
{
    wl::WorkloadParams params;
    params.workers = 7;
    RunOut out = runWorkload(
        *GetParam(), arch::SystemConfig::mp({0, 0, 0, 0, 0, 0, 0, 0}),
        rt::Backend::OsThread, params);
    ASSERT_GT(out.ticks, 0u);
    EXPECT_TRUE(out.valid);
}

TEST_P(WorkloadProperties, CorrectWithOneWorker)
{
    wl::WorkloadParams params;
    params.workers = 1;
    RunOut out = runWorkload(*GetParam(),
                             arch::SystemConfig::uniprocessor(1),
                             rt::Backend::Shred, params);
    ASSERT_GT(out.ticks, 0u);
    EXPECT_TRUE(out.valid);
}

TEST_P(WorkloadProperties, ParallelismHelps)
{
    wl::WorkloadParams params;
    params.workers = 7;
    RunOut par = runWorkload(*GetParam(),
                             arch::SystemConfig::uniprocessor(7),
                             rt::Backend::Shred, params);
    RunOut ser = runWorkload(*GetParam(), arch::SystemConfig::mp({0}),
                             rt::Backend::OsThread, params);
    ASSERT_GT(par.ticks, 0u);
    ASSERT_GT(ser.ticks, 0u);
    double speedup = double(ser.ticks) / double(par.ticks);
    EXPECT_GT(speedup, 4.0) << "8 sequencers should speed up >4x";
    EXPECT_LT(speedup, 8.5) << "speedup cannot exceed sequencer count";
}

TEST_P(WorkloadProperties, PrefaultEliminatesProxyPageFaults)
{
    const wl::WorkloadInfo *info = GetParam();
    if (std::string(info->name) == "kmeans" ||
        info->name == std::string("galgel")) {
        GTEST_SKIP() << "serial-init workloads fault on the OMS anyway";
    }
    wl::WorkloadParams off;
    off.workers = 7;
    wl::WorkloadParams on = off;
    on.prefault = true;
    RunOut roff = runWorkload(*info, arch::SystemConfig::uniprocessor(7),
                              rt::Backend::Shred, off);
    RunOut ron = runWorkload(*info, arch::SystemConfig::uniprocessor(7),
                             rt::Backend::Shred, on);
    if (info->name == std::string("dense_mvm") ||
        info->name == std::string("sparse_mvm_trans")) {
        EXPECT_LT(ron.proxies, roff.proxies);
    }
    EXPECT_TRUE(ron.valid);
}

INSTANTIATE_TEST_SUITE_P(Subset, WorkloadProperties,
                         ::testing::ValuesIn(subsetInfos()),
                         workloadName);

TEST(IntArrayValidator, ReportsTheFirstMismatchAcrossPages)
{
    // An int64 array that starts three words before a page edge and
    // runs into a page never touched (not present: it reads as 0). The
    // validator reads page-sized chunks; each mismatch must still be
    // reported at its own index, first one only.
    mem::PhysicalMemory pmem(64);
    mem::AddressSpace as("p", pmem);
    constexpr VAddr kBase = 0x10'0000;
    as.defineRegion(kBase, 3 * mem::kPageSize, true, "data");
    const VAddr addr = kBase + mem::kPageSize - 3 * 8;
    // Elements 0..2 on the first page, 3..514 on the second, 515.. on
    // the third (left unmapped).
    const std::size_t n = 3 + 512 + 4;
    std::vector<std::int64_t> want(n, 0);
    for (std::size_t i = 0; i < 3 + 512; ++i) {
        want[i] = static_cast<std::int64_t>(i * 7 + 1);
        as.pokeWord(addr + i * 8, static_cast<Word>(want[i]), 8);
    }
    ASSERT_FALSE(as.mapped(addr + 515 * 8));

    // The callable form, computing each expected word from a copy of
    // @p expected as the validator reads.
    auto check = [&](std::vector<std::int64_t> expected) {
        testing::internal::CaptureStderr();
        const std::size_t count = expected.size();
        const bool ok = wl::makeIntArrayValidator(
            addr, count,
            [expected = std::move(expected)](std::size_t i) {
                return expected[i];
            },
            "arr")(as);
        return std::make_pair(ok, testing::internal::GetCapturedStderr());
    };

    auto [ok, log] = check(want);
    EXPECT_TRUE(ok);
    EXPECT_EQ(log, "");

    // Last word before the page edge, then the first one after it: the
    // earlier index wins.
    std::vector<std::int64_t> bad = want;
    bad[2] = -5;
    bad[3] = -6;
    std::tie(ok, log) = check(bad);
    EXPECT_FALSE(ok);
    EXPECT_EQ(log, "warn: arr: mismatch at [2]: got 15, want -5\n");

    bad = want;
    bad[3] = -6;
    std::tie(ok, log) = check(bad);
    EXPECT_FALSE(ok);
    EXPECT_EQ(log, "warn: arr: mismatch at [3]: got 22, want -6\n");

    // A word of the non-present page reads as 0.
    bad = want;
    bad[517] = 9;
    std::tie(ok, log) = check(bad);
    EXPECT_FALSE(ok);
    EXPECT_EQ(log, "warn: arr: mismatch at [517]: got 0, want 9\n");
    EXPECT_FALSE(as.mapped(addr + 515 * 8)); // validation faults nothing in

    // The vector form wraps the callable one: same verdict, same text.
    testing::internal::CaptureStderr();
    EXPECT_FALSE(wl::makeIntArrayValidator(addr, bad, "arr")(as));
    EXPECT_EQ(testing::internal::GetCapturedStderr(),
              "warn: arr: mismatch at [517]: got 0, want 9\n");
}

namespace {

/** The Raytracer at the ledger multiprog workload's scene size: scale
 *  3, 144 rows, a 576 x 144 framebuffer of int64 pixels (648 KiB). */
wl::WorkloadParams
multiprogRaytracerParams()
{
    wl::WorkloadParams params;
    params.workers = 7;
    params.scale = 3;
    params.extra = {{"rows", "144"}};
    return params;
}

constexpr std::size_t kMultiprogFrameBytes = 576 * 144 * 8;

const harness::DataRegion &
frameRegion(const wl::Workload &w)
{
    for (const harness::DataRegion &r : w.app.data)
        if (r.label == "framebuffer")
            return r;
    throw std::runtime_error("Raytracer has no framebuffer region");
}

} // namespace

TEST(RaytracerValidator, NamesTheFirstWrongPixel)
{
    const wl::Workload w =
        wl::findWorkload("Raytracer")->build(multiprogRaytracerParams());
    const harness::DataRegion &frame = frameRegion(w);
    ASSERT_EQ(frame.size, kMultiprogFrameBytes);

    harness::Experiment exp(arch::SystemConfig::uniprocessor(7),
                            rt::Backend::Shred);
    auto proc = exp.load(w.app);
    ASSERT_GT(exp.runToCompletion(proc.process).ticks, 0u);
    mem::AddressSpace &as = proc.process->addressSpace();
    ASSERT_TRUE(w.validate(as));

    // One wrong pixel mid-frame, past the first page: validation fails
    // and names its index, with the rendered and the computed value.
    constexpr std::size_t kPixel = 40'000;
    const VAddr va = frame.addr + kPixel * 8;
    const std::int64_t good = static_cast<std::int64_t>(as.peekWord(va, 8));
    as.pokeWord(va, static_cast<Word>(good + 1), 8);
    testing::internal::CaptureStderr();
    EXPECT_FALSE(w.validate(as));
    EXPECT_EQ(testing::internal::GetCapturedStderr(),
              "warn: raytracer.frame: mismatch at [40000]: got " +
                  std::to_string(good + 1) + ", want " +
                  std::to_string(good) + "\n");

    as.pokeWord(va, static_cast<Word>(good), 8);
    EXPECT_TRUE(w.validate(as));
}

TEST(RaytracerValidator, HoldsLessHeapThanOneFramebuffer)
{
    const wl::WorkloadInfo &info = *wl::findWorkload("Raytracer");
    info.build(multiprogRaytracerParams()); // builds the stub library
    const long long before = gLiveBytes;
    const wl::Workload w = info.build(multiprogRaytracerParams());
    const long long held = gLiveBytes - before;
    std::printf("built Raytracer (scale 3, 144 rows): %lld heap bytes\n",
                held);
    // The validator computes each pixel as it reads, so the built
    // workload holds its program, its region table and the validator's
    // captures. A host copy of the answer alone would be a framebuffer.
    EXPECT_GT(held, 0);
    EXPECT_LT(held, static_cast<long long>(kMultiprogFrameBytes));
}
