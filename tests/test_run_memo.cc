/**
 * @file
 * Reused points are exact: a sweep that reuses finished points
 * (RunnerOptions::reuseRuns, the default) emits the same artifacts as
 * one that simulates every point.
 *
 *  - Every checked-in spec (scenarios/, --quick) and the three ledger
 *    templates (bench/ledger/workloads/, seed 1), run with reuse off and
 *    on, serially and on 4 worker threads (where twins race), give
 *    byte-identical -o JSON, --metrics JSON, --points lines and
 *    tables. Under the superblock engine every spec runs; the
 *    reference engine reruns the checked-in specs whose sweeps reuse a
 *    point (the engine is part of the reuse key, and the two engines'
 *    bit-identity is proved elsewhere).
 *  - The serial counts are pinned: the ledger grid simulates 652 of
 *    its 2,500 points, suite 48 of 48, multiprog 30 of 30.
 *  - --profile's host numbers count simulated points only.
 *  - The point-list adapters bench/ledger drives give the same
 *    --metrics bytes as mispsim's streamed sweep on every ledger
 *    template, and those bytes carry the ledger's golden digests.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "driver/report.hh"
#include "driver/runner.hh"
#include "driver/shard.hh"
#include "obs/host_profile.hh"
#include "point_fixtures.hh"
#include "sim/logging.hh"

using namespace misp;
using namespace misp::driver;

namespace {

class QuietEnv : public ::testing::Environment
{
  public:
    void SetUp() override { setQuietLogging(true); }
};

const ::testing::Environment *const kQuietEnv =
    ::testing::AddGlobalTestEnvironment(new QuietEnv);

const std::string kRoot = MISP_SOURCE_ROOT;

/** A spec to sweep: its file, whether to apply [quick], and for a
 *  ledger template the points a serial sweep simulates. */
struct Spec {
    std::string path;
    bool quick = false;
    std::size_t simulated = 0;
};

/** Every checked-in spec in --quick mode, then the ledger templates. */
std::vector<Spec>
allSpecs()
{
    std::vector<Spec> out;
    for (const auto &e :
         std::filesystem::directory_iterator(kRoot + "/scenarios"))
        if (e.path().extension() == ".scn")
            out.push_back({e.path().string(), true});
    std::sort(out.begin(), out.end(),
              [](const Spec &a, const Spec &b) { return a.path < b.path; });
    // grid: 2 (1p, one per worker count: it reads no signal or
    // context-transfer cost) + 25 (misp, 1 worker: the signal cost) +
    // 625 (misp, 2 workers: both, since its proxy requests read the
    // context-transfer cost) of 2,500. Suite (48 points) and multiprog
    // (30) repeat no point.
    const std::string ledger = kRoot + "/bench/ledger/workloads/";
    out.push_back({ledger + "grid.scn", false, 652});
    out.push_back({ledger + "suite.scn", false, 48});
    out.push_back({ledger + "multiprog.scn", false, 30});
    return out;
}

/** @p path parsed, with a ledger template's @SEED@ set to 1. */
Scenario
loadSpec(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    std::string text = ss.str();
    for (std::size_t at; (at = text.find("@SEED@")) != std::string::npos;)
        text.replace(at, 6, "1");
    SpecFile spec;
    Scenario sc;
    std::string err;
    EXPECT_TRUE(SpecFile::parse(text, path, &spec, &err)) << err;
    EXPECT_TRUE(Scenario::fromSpec(spec, &sc, &err)) << err;
    return sc;
}

struct SweepRun {
    std::vector<PointResult> results;
    std::string artifacts;
    std::size_t simulated = 0;
};

/** Sweep @p spec and render every artifact mispsim writes from it. */
SweepRun
sweep(const Spec &spec, cpu::Engine engine, unsigned jobs, bool reuse)
{
    const Scenario sc = loadSpec(spec.path);
    std::vector<ScenarioPoint> pts;
    std::string err;
    EXPECT_TRUE(sc.expandPoints(spec.quick, &pts, &err)) << err;
    RunnerOptions opts;
    opts.hostLines = false;
    opts.forceEngine = true;
    opts.engine = engine;
    opts.jobs = jobs;
    opts.reuseRuns = reuse;
    SweepRun out;
    out.results = ScenarioRunner(opts).runAll(sc, pts);
    for (const PointResult &r : out.results)
        out.simulated += r.run.reusedFrom == harness::kSimulated;

    const harness::MetricFrame frame = buildMetricFrame(sc, out.results);
    std::ostringstream json, metrics, points, table, tables;
    writeJson(json, sc, spec.quick, frame, test::statsOf(out.results));
    writeMetricsJson(metrics, sc, spec.quick, frame);
    writePoints(points, frame);
    writeTable(table, sc, frame, false);
    if (!sc.tables.empty()) {
        EXPECT_TRUE(writeTables(tables, sc, frame, false, &err)) << err;
    }
    out.artifacts = json.str() + "\x1e" + metrics.str() + "\x1e" +
                    points.str() + "\x1e" + table.str() + "\x1e" +
                    tables.str();
    return out;
}

} // namespace

TEST(RunMemo, ReuseOnMatchesReuseOff)
{
    for (const Spec &spec : allSpecs()) {
        bool reused = false;
        for (cpu::Engine engine :
             {cpu::Engine::Superblock, cpu::Engine::Reference}) {
            if (engine == cpu::Engine::Reference && (!reused || !spec.quick))
                continue;
            const std::string what =
                spec.path + " engine " + cpu::engineName(engine);
            const SweepRun off = sweep(spec, engine, 1, false);
            EXPECT_EQ(off.simulated, off.results.size()) << what;
            const SweepRun serial = sweep(spec, engine, 1, true);
            EXPECT_EQ(serial.artifacts, off.artifacts) << what << " serial";
            const SweepRun pool = sweep(spec, engine, 4, true);
            EXPECT_EQ(pool.artifacts, off.artifacts) << what << " jobs 4";
            reused = serial.simulated < serial.results.size();
            if (spec.simulated) {
                EXPECT_EQ(serial.simulated, spec.simulated) << what;
                for (const PointResult &r : serial.results)
                    EXPECT_TRUE(r.run.ok()) << what << " " << r.coords.str();
            }
            // A reused point names a simulated source, and carries its
            // record with one attempt and no host time.
            for (const SweepRun *s : {&serial, &pool}) {
                for (const PointResult &r : s->results) {
                    if (r.run.reusedFrom == harness::kSimulated)
                        continue;
                    ASSERT_LT(r.run.reusedFrom, s->results.size()) << what;
                    const harness::RunRecord &src =
                        s->results[r.run.reusedFrom].run;
                    EXPECT_EQ(src.reusedFrom, harness::kSimulated) << what;
                    EXPECT_EQ(r.run.configReads, src.configReads) << what;
                    EXPECT_EQ(r.run.attempts, 1u) << what;
                    EXPECT_EQ(r.run.hostSeconds, 0.0) << what;
                }
            }
        }
    }
}

TEST(RunMemo, ProfileCountsSimulatedPointsOnly)
{
    // A reused point spent no host time and executed no instruction of
    // its own: it is counted as reused, and nowhere else.
    obs::PointProfile sim;
    sim.engine = "superblock";
    sim.phases.run = 0.5;
    sim.hostSeconds = 0.5;
    sim.instsRetired = 1'000'000;
    obs::PointProfile reused = sim;
    reused.reused = true;
    obs::HostProfile profile;
    for (const obs::PointProfile &p : {sim, reused, sim})
        profile.add(p);
    std::ostringstream os;
    profile.writeJson(os);
    const std::string json = os.str();
    for (const char *want :
         {"\"points\": 3,", "\"points_simulated\": 2,",
          "\"points_reused\": 1,", "\"host_seconds\": 1.000000,",
          "\"insts_retired\": 2000000,",
          "\"run\": {\"total_s\": 1.000000, \"mean_s\": 0.500000",
          "\"superblock\": {\"points\": 2, \"insts\": 2000000, "
          "\"host_s\": 1.000000, \"mips\": 2.000000}"})
        EXPECT_NE(json.find(want), std::string::npos) << want << "\n" << json;
    // The process's own peak RSS rides along (host plane).
    const std::size_t rss = json.find("\"peak_rss_mb\": ");
    ASSERT_NE(rss, std::string::npos) << json;
    EXPECT_GT(std::strtod(json.c_str() + rss + 15, nullptr), 0.0) << json;
}

namespace {

/** FNV-1a 64-bit digest of @p bytes as 16 hex digits: the ledger's
 *  --metrics digest (bench/ledger/golden.json). */
std::string
ledgerDigest(const std::string &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

} // namespace

TEST(LedgerAdapters, MatchTheStreamedSweep)
{
    // bench/ledger drives the point-list adapters (expandPoints, runAll,
    // buildMetricFrame); mispsim streams the sweep into its frame
    // (expandGrid, run). On each ledger template at seed 1 both give
    // the --metrics bytes whose digest golden.json pins, so the
    // benchmark's traced pass and backend probe measure the program
    // mispsim runs.
    std::ifstream in(kRoot + "/bench/ledger/golden.json");
    std::stringstream golden;
    golden << in.rdbuf();
    ASSERT_NE(golden.str().find("\"seed\": 1,"), std::string::npos);
    RunnerOptions opts;
    opts.hostLines = false;
    for (const std::string name : {"grid", "suite", "multiprog"}) {
        const Scenario sc =
            loadSpec(kRoot + "/bench/ledger/workloads/" + name + ".scn");
        std::string err;
        std::vector<ScenarioPoint> pts;
        ASSERT_TRUE(sc.expandPoints(false, &pts, &err)) << err;
        std::ostringstream adapters;
        writeMetricsJson(
            adapters, sc, false,
            buildMetricFrame(sc, ScenarioRunner(opts).runAll(sc, pts)));

        std::shared_ptr<const GridTable> grid;
        ASSERT_TRUE(sc.expandGrid(false, &grid, &err)) << err;
        const Sweep streamedSweep = ScenarioRunner(opts).run(
            sc, grid, shardCombos(ShardSpec{}, grid->combos()));
        std::ostringstream streamed;
        writeMetricsJson(streamed, sc, false, streamedSweep.frame);

        EXPECT_EQ(adapters.str(), streamed.str()) << name;
        EXPECT_NE(golden.str().find("\"" + name + "\": \"" +
                                    ledgerDigest(streamed.str()) + "\""),
                  std::string::npos)
            << name << " digest " << ledgerDigest(streamed.str());
    }
}
