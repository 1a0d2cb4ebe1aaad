/**
 * @file
 * Parameterized end-to-end sweep: every workload in the paper's suite
 * must run to completion and produce the host-validated result on the
 * MISP machine, plus cross-backend and property checks.
 */

#include <gtest/gtest.h>

#include <tuple>
#include <utility>

#include "harness/experiment.hh"
#include "mem/address_space.hh"
#include "mem/physical_memory.hh"
#include "workloads/builder_util.hh"
#include "workloads/workload.hh"

using namespace misp;

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

    auto check = [&](std::vector<std::int64_t> expected) {
        testing::internal::CaptureStderr();
        const bool ok = wl::makeIntArrayValidator(addr, std::move(expected),
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
}
