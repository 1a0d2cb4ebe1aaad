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
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "driver/report.hh"
#include "driver/runner.hh"
#include "obs/host_profile.hh"
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

struct Sweep {
    std::vector<PointResult> results;
    std::string artifacts;
    std::size_t simulated = 0;
};

/** Sweep @p spec and render every artifact mispsim writes from it. */
Sweep
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
    Sweep out;
    out.results = ScenarioRunner(opts).runAll(sc, pts);
    for (const PointResult &r : out.results)
        out.simulated += r.run.reusedFrom == harness::kSimulated;

    const harness::MetricFrame frame = buildMetricFrame(sc, out.results);
    std::ostringstream json, metrics, points, table, tables;
    writeJson(json, sc, spec.quick, frame, out.results);
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
            const Sweep off = sweep(spec, engine, 1, false);
            EXPECT_EQ(off.simulated, off.results.size()) << what;
            const Sweep serial = sweep(spec, engine, 1, true);
            EXPECT_EQ(serial.artifacts, off.artifacts) << what << " serial";
            const Sweep pool = sweep(spec, engine, 4, true);
            EXPECT_EQ(pool.artifacts, off.artifacts) << what << " jobs 4";
            reused = serial.simulated < serial.results.size();
            if (spec.simulated) {
                EXPECT_EQ(serial.simulated, spec.simulated) << what;
                for (const PointResult &r : serial.results)
                    EXPECT_TRUE(r.run.ok()) << what << " " << r.coords.str();
            }
            // A reused point names a simulated source, and carries its
            // record with one attempt and no host time.
            for (const Sweep *s : {&serial, &pool}) {
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
    const obs::PointProfile points[] = {sim, reused, sim};
    std::ostringstream os;
    obs::writeProfileJson(os, 3, [&](std::size_t i) { return points[i]; });
    const std::string json = os.str();
    for (const char *want :
         {"\"points\": 3,", "\"points_simulated\": 2,",
          "\"points_reused\": 1,", "\"host_seconds\": 1.000000,",
          "\"insts_retired\": 2000000,",
          "\"run\": {\"total_s\": 1.000000, \"mean_s\": 0.500000",
          "\"superblock\": {\"points\": 2, \"insts\": 2000000, "
          "\"host_s\": 1.000000, \"mips\": 2.000000}"})
        EXPECT_NE(json.find(want), std::string::npos) << want << "\n" << json;
}
