/**
 * @file
 * Grid-scale tests: what a sweep keeps per point, how many allocations
 * booting a grid point's machine costs, that a grid's config hash is
 * stable (so shard images written by older builds still merge), and
 * that every MetricFrame lookup returns the rows the frames it
 * replaced returned.
 *
 * A counting global operator new/delete tracks the live heap bytes, their
 * high-water mark and the allocations of this binary, so the per-point
 * test measures exactly what the driver allocates per point for a grid
 * swept the way mispsim sweeps it.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "driver/runner.hh"
#include "driver/shard.hh"
#include "point_fixtures.hh"
#include "sim/logging.hh"

using namespace misp;
using namespace misp::driver;
using harness::MetricFrame;

namespace {

/** Live heap bytes requested through operator new, less those
 *  released, their high-water mark, and the number of operator new
 *  calls. Tests are single-threaded. */
long long gLiveBytes = 0;
long long gPeakBytes = 0;
long long gAllocs = 0;

/** Each block carries its size in a 16-byte prefix (keeping malloc's
 *  alignment), so delete knows how much to subtract. */
constexpr std::size_t kPrefix = 16;

void *
countedAlloc(std::size_t n)
{
    void *p = std::malloc(n + kPrefix);
    if (!p)
        throw std::bad_alloc();
    *static_cast<std::size_t *>(p) = n;
    gLiveBytes += static_cast<long long>(n);
    gPeakBytes = std::max(gPeakBytes, gLiveBytes);
    ++gAllocs;
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

class QuietEnv : public ::testing::Environment
{
  public:
    void SetUp() override { setQuietLogging(true); }
};

const ::testing::Environment *const kQuietEnv =
    ::testing::AddGlobalTestEnvironment(new QuietEnv);

Scenario
loadScenario(const std::string &path)
{
    SpecFile spec;
    Scenario sc;
    std::string err;
    EXPECT_TRUE(SpecFile::parseFile(path, &spec, &err)) << err;
    EXPECT_TRUE(Scenario::fromSpec(spec, &sc, &err)) << err;
    return sc;
}

const std::string kGridLarge =
    std::string(MISP_SOURCE_ROOT) + "/scenarios/grid_large.scn";

std::vector<ScenarioPoint>
expand(const Scenario &sc, bool quick)
{
    std::vector<ScenarioPoint> pts;
    std::string err;
    EXPECT_TRUE(sc.expandPoints(quick, &pts, &err)) << err;
    return pts;
}

std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 1469598103934665603ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

std::string
rowText(std::size_t r)
{
    return r == MetricFrame::npos ? "npos" : std::to_string(r);
}

/**
 * Every lookup the frame answers, over every row and group of
 * @p f, as text: axisValues per axis, describePoint, axisBaselineRow
 * per axis, groupLabel, rowInGroup and rowWithOverrides (each axis
 * value, an unseen value, an unseen key, two overrides) for known and
 * unknown machines. The frame this one replaced (interned ids and
 * tuple indexes, itself checked against the string-keyed frame before
 * it) produced the digests pinned below.
 */
std::string
lookups(const MetricFrame &f)
{
    std::string o;
    std::vector<std::string> keys;
    for (const harness::SweepAxis &a : f.grid().axes)
        keys.push_back(a.key);
    auto values = [&](const std::string &key) { return *f.axisValues(key); };
    const std::vector<std::string> machines = {"1p", "misp", "a", "b",
                                               "nosuch"};
    for (const std::string &k : keys) {
        o += "axisValues " + k + ":";
        for (const std::string &v : values(k))
            o += " " + v;
        o += "\n";
    }
    o += std::string("axisValues nosuch:") +
         (f.axisValues("nosuch") ? "set" : "null") + "\n";
    for (std::size_t r = 0; r < f.numRows(); ++r) {
        o += "describe " + describePoint(f, r) + "\n";
        for (const std::string &k : keys)
            o += "axisBaseline " + rowText(r) + " " + k + " " +
                 rowText(f.axisBaselineRow(r, k)) + "\n";
        o += "axisBaseline " + rowText(r) + " nosuch " +
             rowText(f.axisBaselineRow(r, "nosuch")) + "\n";
    }
    for (std::size_t g = 0; g < f.numGroups(); ++g) {
        o += "label " + f.groupLabel(g) + "\n";
        for (const std::string &m : machines) {
            o += "inGroup " + rowText(g) + " " + m + " " +
                 rowText(f.rowInGroup(g, m)) + "\n";
            for (const std::string &k : keys) {
                for (const std::string &v : values(k))
                    o += "over " + rowText(g) + " " + m + " " + k + "=" + v +
                         " " + rowText(f.rowWithOverrides(g, m, {{k, v}})) +
                         "\n";
                o += "overBad " + rowText(g) + " " + m + " " + k + " " +
                     rowText(f.rowWithOverrides(g, m, {{k, "77"}})) + "\n";
            }
            o += "overUnseenKey " +
                 rowText(f.rowWithOverrides(g, m, {{"nosuch", "1"}})) + "\n";
            if (keys.size() >= 2) {
                const std::string v0 = values(keys[0]).back();
                const std::string v1 = values(keys[1]).front();
                o += "over2 " +
                     rowText(f.rowWithOverrides(
                         g, m, {{keys[0], v0}, {keys[1], v1}})) +
                     "\n";
            }
        }
    }
    return o;
}

} // namespace

namespace {

/** The live-heap high-water mark of a streamed sweep (expandGrid, then
 *  ScenarioRunner::run, as mispsim runs it) of @p combos coordinate
 *  combinations x 2 machines, above the bytes live before it. Both
 *  machines are uniprocessors, which read no signal cost, so every
 *  point after the first reuses its record and the sweep is quick. */
long long
streamedSweepPeak(std::size_t combos)
{
    SpecFile spec;
    Scenario sc;
    std::string err;
    EXPECT_TRUE(SpecFile::parse(
        "[machine a]\nprocessors = 0\nbackend = os\n"
        "[machine b]\nprocessors = 0\nbackend = os\n"
        "[workload]\nname = dense_mvm\nparam.rows = 8\n"
        "[sweep]\nmachine.signal_cycles = 1000.." +
            std::to_string(1000 + combos - 1) + "\n",
        "<test>", &spec, &err))
        << err;
    EXPECT_TRUE(Scenario::fromSpec(spec, &sc, &err)) << err;

    const long long base = gLiveBytes;
    gPeakBytes = base;
    std::shared_ptr<const GridTable> grid;
    EXPECT_TRUE(sc.expandGrid(false, &grid, &err)) << err;
    RunnerOptions opts;
    opts.hostLines = false;
    const Sweep sweep = ScenarioRunner(opts).run(
        sc, grid, shardCombos(ShardSpec{}, grid->combos()));
    EXPECT_EQ(sweep.frame.numRows(), 2 * combos);
    for (std::size_t r = 0; r < sweep.frame.numRows(); ++r)
        EXPECT_EQ(sweep.frame.status(r), harness::RunStatus::Completed);
    return gPeakBytes - base;
}

} // namespace

TEST(GridScale, PerPointStateStaysSmall)
{
    // What a sweep keeps per point, as the slope of its live-heap peak
    // between 2,000 and 20,000 points (the one machine a point boots
    // at a time, the workload and the spec are the same at both sizes
    // and cancel). The peak is the frame, which exists before the
    // first point runs, plus the grid table; a point is resolved when
    // it runs and its record lives only while it is in flight.
    const long long small = streamedSweepPeak(1000);
    const long long large = streamedSweepPeak(10000);
    const double perPoint = double(large - small) / 18000.0;
    std::printf("streamed sweep: peak %lld B at 2,000 points, %lld B at "
                "20,000; %.0f B a point\n",
                small, large, perPoint);

    // Measured: 151 B a point — a frame row (a status and 16 measured
    // doubles, 132 B, plus its share of the group list) and its share
    // of the grid table's axis values. Before points resolved when
    // they ran, mispsim held every point three times: 644 B a point
    // during the run on grid_large (a resolved ScenarioPoint 316 B,
    // then a PointResult 328 B), then results + frame 462 B. The
    // bound is 1.25x the measured slope.
    EXPECT_LE(perPoint, 1.25 * 151);
}

TEST(GridScale, MachineBootAllocatesNothingPerCounter)
{
    // The grid spec's misp machine (1 OMS + 3 AMSs, shred backend),
    // constructed and torn down as each of its grid points does.
    const Scenario sc = loadScenario(kGridLarge);
    const std::vector<ScenarioPoint> pts = expand(sc, true);
    ASSERT_EQ(pts[1].machine.name, "misp");
    const arch::SystemConfig config = pts[1].machine.config;
    const rt::Backend backend = pts[1].machine.backend;
    auto boot = [&] { harness::Experiment exp(config, backend); };
    boot(); // the first boot also builds the process-wide stub library
    const long long before = gAllocs;
    boot();
    const long long allocs = gAllocs - before;
    std::printf("misp machine boot: %lld allocations\n", allocs);

    // Measured: 31 (the machine's objects, its TLB arrays and a few stat
    // and event names too long for the short-string buffer). Stats and
    // groups link into their group intrusively, and every queue (the
    // sequencers' pending signals, the kernel's ready queue, the
    // processor's proxy queue) is a vector that allocates when first
    // used; a std::deque allocates twice when built.
    EXPECT_LE(allocs, 31);
}

TEST(GridScale, ConfigHashIsStable)
{
    // Pinned from the string-coordinate build: a shard image it wrote
    // must still merge, so the hash of the same grid may not move.
    const Scenario sc = loadScenario(kGridLarge);
    std::shared_ptr<const GridTable> quick, full;
    std::string err;
    ASSERT_TRUE(sc.expandGrid(true, &quick, &err)) << err;
    ASSERT_EQ(quick->combos() * quick->machines.size(), 16u);
    EXPECT_EQ(gridConfigHash(sc, *quick), 0xa318bbbfcd3397aaull);
    ASSERT_TRUE(sc.expandGrid(false, &full, &err)) << err;
    ASSERT_EQ(full->combos() * full->machines.size(), 20000u);
    EXPECT_EQ(gridConfigHash(sc, *full), 0xf429c28d6346e4b7ull);
}

TEST(GridScale, FrameLookupsMatchTheStringKeyedFrame)
{
    // Digests of lookups() over the interned-id frame, on the same
    // two grids.
    {
        SpecFile spec;
        Scenario sc;
        std::string err;
        ASSERT_TRUE(SpecFile::parse(
            "[machine a]\nams = 1\n[machine b]\nams = 3\n"
            "[workload]\nname = dense_mvm\n"
            "[sweep]\nworkload.param.dim = 64, 96\n"
            "[report]\nbaseline_machine = a\n",
            "<test>", &spec, &err));
        ASSERT_TRUE(Scenario::fromSpec(spec, &sc, &err)) << err;
        std::vector<PointResult> results = test::gridResults(sc);
        const Tick ticks[] = {400, 200, 800, 200};
        for (std::size_t i = 0; i < results.size(); ++i) {
            results[i].run.status = harness::RunStatus::Completed;
            results[i].run.ticks = ticks[i];
            results[i].run.valid = true;
            results[i].run.instsRetired = 1'000'000;
        }
        const std::string text = lookups(buildMetricFrame(sc, results));
        EXPECT_EQ(text.size(), 2116u);
        EXPECT_EQ(fnv1a(text), 0x088dd494f8a803e4ull) << text;
    }
    {
        const Scenario sc = loadScenario(kGridLarge);
        const std::string text =
            lookups(buildMetricFrame(sc, test::gridResults(sc, true)));
        EXPECT_EQ(text.size(), 21786u);
        EXPECT_EQ(fnv1a(text), 0xb7731c7f5a389598ull)
            << text.substr(0, 2000);
    }
}
