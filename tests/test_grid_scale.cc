/**
 * @file
 * Grid-scale tests: what a sweep keeps per point, how many allocations
 * booting a grid point's machine costs, that a grid's config hash is
 * stable (so shard images written by older builds still merge), and
 * that every MetricFrame lookup returns the rows the frames it
 * replaced returned.
 *
 * A counting global operator new/delete tracks the live heap bytes and
 * the allocations of this binary, so the per-point test measures
 * exactly what the driver allocates for a grid that is expanded, given
 * unmeasured results and turned into a frame, none of its points run.
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
 *  released, and the number of operator new calls. Tests are
 *  single-threaded. */
long long gLiveBytes = 0;
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

TEST(GridScale, PerPointStateStaysSmall)
{
    // scenarios/grid_large.scn in full mode: 10^4 coordinate
    // combinations x 2 machines, expanded, given unmeasured results
    // and turned into a frame, as mispsim holds them. mispsim releases
    // the point list before it builds the frame, so the peak is the
    // larger of points + results (during the run) and results + frame.
    const Scenario sc = loadScenario(kGridLarge);
    const long long base = gLiveBytes;
    std::vector<ScenarioPoint> pts = expand(sc, false);
    const std::size_t n = pts.size();
    ASSERT_EQ(n, 20000u);
    const double pointsB = double(gLiveBytes - base) / double(n);

    std::vector<PointResult> results;
    results.reserve(n);
    for (const ScenarioPoint &pt : pts)
        results.push_back(unmeasuredResult(pt));
    const double runB = double(gLiveBytes - base) / double(n);
    std::vector<ScenarioPoint>().swap(pts);
    const double resultsB = double(gLiveBytes - base) / double(n);

    const MetricFrame frame = buildMetricFrame(sc, results);
    ASSERT_EQ(frame.numRows(), n);
    const double frameB = double(gLiveBytes - base) / double(n);
    const double peakB = std::max(runB, frameB);
    std::printf("per point: points %.0f B, results %.0f B, frame %.0f B; "
                "peak %.0f B\n",
                pointsB, resultsB, frameB - resultsB, peakB);

    // Measured at this layout: 644 B a point during the run (points
    // 316 B + results 328 B); the frame adds 134 B a row (a status and
    // 16 measured doubles, plus its share of the group list), so
    // results + frame is 462 B. The frame that interned its own
    // coordinates and indexed id tuples peaked at 818 B a point, at
    // the frame build (results 328 B + frame 490 B), and the
    // string-coordinate layout before it at 2.7 KB (points 774 B,
    // results 659 B, frame 1,269 B, all alive at the frame build).
    // The bound is 1.25x the measured peak.
    EXPECT_LE(peakB, 1.25 * 644);
}

TEST(GridScale, MachineBootAllocatesNothingPerCounter)
{
    // The grid spec's misp machine (1 OMS + 3 AMSs, shred backend),
    // constructed and torn down as each of its grid points does.
    const Scenario sc = loadScenario(kGridLarge);
    const std::vector<ScenarioPoint> pts = expand(sc, true);
    ASSERT_EQ(pts[1].machine.name, "misp");
    const arch::SystemConfig config = pts[1].machine.toSystemConfig();
    const rt::Backend backend = pts[1].machine.backend;
    auto boot = [&] { harness::Experiment exp(config, backend); };
    boot(); // the first boot also builds the process-wide stub library
    const long long before = gAllocs;
    boot();
    const long long allocs = gAllocs - before;
    std::printf("misp machine boot: %lld allocations\n", allocs);

    // Measured: 35 (the machine's objects, its TLB arrays and a few stat
    // and event names too long for the short-string buffer). The
    // parent made 122: each stat group grew vectors of its stats and
    // children (71 allocations), and each sequencer's two pending-
    // signal deques allocated when built (16). Stats and groups now
    // link into their group intrusively, and the queues allocate when
    // first used.
    EXPECT_LE(allocs, 35);
}

TEST(GridScale, ConfigHashIsStable)
{
    // Pinned from the string-coordinate build: a shard image it wrote
    // must still merge, so the hash of the same grid may not move.
    const Scenario sc = loadScenario(kGridLarge);
    const std::vector<ScenarioPoint> quick = expand(sc, true);
    ASSERT_EQ(quick.size(), 16u);
    EXPECT_EQ(gridConfigHash(sc, quick), 0xa318bbbfcd3397aaull);
    const std::vector<ScenarioPoint> full = expand(sc, false);
    ASSERT_EQ(full.size(), 20000u);
    EXPECT_EQ(gridConfigHash(sc, full), 0xf429c28d6346e4b7ull);
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
