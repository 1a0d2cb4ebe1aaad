/**
 * @file
 * Scenario-driver tests: the `.scn` spec parser (round-trip and
 * diagnostics), the scenario model (sweep expansion, quick overrides),
 * the workload registry (lookup, selectors, parameter setting), the
 * stats JSON emitter, and — the load-bearing property — equivalence
 * between ScenarioRunner and the hand-rolled experiment code the
 * figure benches used before the driver existed.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "driver/runner.hh"
#include "driver/scenario.hh"
#include "driver/spec.hh"
#include "harness/experiment.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"
#include "workloads/workload.hh"

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

SpecFile
mustParse(const std::string &text)
{
    SpecFile spec;
    std::string err;
    EXPECT_TRUE(SpecFile::parse(text, "<test>", &spec, &err)) << err;
    return spec;
}

Scenario
mustScenario(const std::string &text)
{
    Scenario sc;
    std::string err;
    EXPECT_TRUE(Scenario::fromSpec(mustParse(text), &sc, &err)) << err;
    return sc;
}

} // namespace

// ---------------------------------------------------------------------
// Spec parser
// ---------------------------------------------------------------------

TEST(SpecParse, SectionsEntriesAndComments)
{
    SpecFile spec = mustParse("# leading comment\n"
                              "[scenario]\n"
                              "name = demo   ; trailing comment\n"
                              "\n"
                              "[machine 1x4+4]\n"
                              "processors = 3,0,0,0,0  # paper Figure 6\n"
                              "backend = shred\n");
    ASSERT_EQ(spec.sections.size(), 2u);
    EXPECT_EQ(spec.sections[0].type, "scenario");
    EXPECT_EQ(spec.sections[0].name, "");
    EXPECT_EQ(spec.sections[0].get("name"), "demo");
    EXPECT_EQ(spec.sections[1].type, "machine");
    EXPECT_EQ(spec.sections[1].name, "1x4+4");
    EXPECT_EQ(spec.sections[1].get("processors"), "3,0,0,0,0");
    EXPECT_EQ(spec.sections[1].find("processors")->line, 6);
    EXPECT_FALSE(spec.sections[1].has("missing"));
}

TEST(SpecParse, RoundTrip)
{
    const std::string text = "[scenario]\n"
                             "name = rt\n"
                             "\n"
                             "[machine a]\n"
                             "ams = 7\n"
                             "\n"
                             "[sweep]\n"
                             "competitors = 0..2\n";
    SpecFile one = mustParse(text);
    SpecFile two = mustParse(one.serialize());
    ASSERT_EQ(two.sections.size(), one.sections.size());
    for (std::size_t i = 0; i < one.sections.size(); ++i) {
        EXPECT_EQ(two.sections[i].type, one.sections[i].type);
        EXPECT_EQ(two.sections[i].name, one.sections[i].name);
        ASSERT_EQ(two.sections[i].entries.size(),
                  one.sections[i].entries.size());
        for (std::size_t j = 0; j < one.sections[i].entries.size(); ++j) {
            EXPECT_EQ(two.sections[i].entries[j].key,
                      one.sections[i].entries[j].key);
            EXPECT_EQ(two.sections[i].entries[j].value,
                      one.sections[i].entries[j].value);
        }
    }
    // Serialization is a fixed point.
    EXPECT_EQ(two.serialize(), one.serialize());
}

TEST(SpecParse, DiagnosticsCarryLineNumbers)
{
    SpecFile spec;
    std::string err;

    EXPECT_FALSE(SpecFile::parse("[machine\n", "f.scn", &spec, &err));
    EXPECT_EQ(err, "f.scn:1: section header missing ']'");

    EXPECT_FALSE(
        SpecFile::parse("[m]\njust words\n", "f.scn", &spec, &err));
    EXPECT_NE(err.find("f.scn:2:"), std::string::npos);
    EXPECT_NE(err.find("key = value"), std::string::npos);

    EXPECT_FALSE(SpecFile::parse("key = 1\n", "f.scn", &spec, &err));
    EXPECT_NE(err.find("before any [section]"), std::string::npos);

    EXPECT_FALSE(
        SpecFile::parse("[m]\na = 1\na = 2\n", "f.scn", &spec, &err));
    EXPECT_EQ(err, "f.scn:3: duplicate key 'a' in section [m]");

    EXPECT_FALSE(SpecFile::parse("[m]\n = 1\n", "f.scn", &spec, &err));
    EXPECT_NE(err.find("empty key"), std::string::npos);

    EXPECT_FALSE(SpecFile::parseFile("/nonexistent/x.scn", &spec, &err));
    EXPECT_NE(err.find("cannot open"), std::string::npos);
}

TEST(SpecParse, ValueHelpers)
{
    EXPECT_EQ(splitList(" a, b ,, c "),
              (std::vector<std::string>{"a", "b", "c"}));

    std::vector<std::string> vals;
    std::string err;
    ASSERT_TRUE(expandValues("0..2, 7, 9..10", &vals, &err));
    EXPECT_EQ(vals,
              (std::vector<std::string>{"0", "1", "2", "7", "9", "10"}));

    EXPECT_FALSE(expandValues("5..x", &vals, &err));
    EXPECT_NE(err.find("malformed span"), std::string::npos);
    EXPECT_FALSE(expandValues("4..2", &vals, &err));
    EXPECT_NE(err.find("inverted span"), std::string::npos);

    std::uint64_t u = 0;
    EXPECT_TRUE(parseU64("0x100", &u));
    EXPECT_EQ(u, 0x100u);
    EXPECT_FALSE(parseU64("12kb", &u));
    // A leading '-' must not strtoull-wrap to a huge positive.
    EXPECT_FALSE(parseU64("-1", &u));
    bool b = false;
    EXPECT_TRUE(parseBool("on", &b));
    EXPECT_TRUE(b);
    EXPECT_FALSE(parseBool("maybe", &b));
}

// ---------------------------------------------------------------------
// Scenario model
// ---------------------------------------------------------------------

TEST(Scenario, MachineKnobsMapToSystemConfig)
{
    Scenario sc = mustScenario("[machine m]\n"
                               "processors = 3,0\n"
                               "backend = os\n"
                               "engine = ref\n"
                               "signal_cycles = 500\n"
                               "slice_limit = 8\n"
                               "serialization = speculative_monitor\n"
                               "pin_min_ams = 3\n"
                               "ideal_placement = true\n"
                               "[workload]\n"
                               "name = dense_mvm\n");
    ASSERT_EQ(sc.machines.size(), 1u);
    const MachineSpec &m = sc.machines[0];
    EXPECT_EQ(m.backend, rt::Backend::OsThread);
    EXPECT_EQ(m.pinMinAms, 3u);
    EXPECT_TRUE(m.idealPlacement);
    arch::SystemConfig sys = m.toSystemConfig();
    EXPECT_EQ(sys.amsPerProcessor, (std::vector<unsigned>{3, 0}));
    EXPECT_EQ(sys.misp.engine, cpu::Engine::Reference);
    EXPECT_EQ(sys.misp.signalCycles, 500u);
    EXPECT_EQ(sys.misp.sliceLimit, 8u);
    EXPECT_EQ(sys.misp.serialization,
              arch::SerializationPolicy::SpeculativeMonitor);
}

TEST(Scenario, ValidationDiagnostics)
{
    Scenario sc;
    std::string err;

    EXPECT_FALSE(Scenario::fromSpec(
        mustParse("[machina]\nams = 7\n"), &sc, &err));
    EXPECT_NE(err.find("unknown section [machina]"), std::string::npos);

    EXPECT_FALSE(Scenario::fromSpec(
        mustParse("[machine m]\nwheels = 4\n"), &sc, &err));
    EXPECT_EQ(err, "<test>:2: unknown machine knob 'wheels'");

    EXPECT_FALSE(Scenario::fromSpec(
        mustParse("[machine m]\nams = 7\n[workload]\nname = nope\n"),
        &sc, &err));
    EXPECT_NE(err.find("unknown workload 'nope'"), std::string::npos);

    EXPECT_FALSE(Scenario::fromSpec(
        mustParse("[machine m]\nams = 7\n"), &sc, &err));
    EXPECT_NE(err.find("no [workload] section"), std::string::npos);

    EXPECT_FALSE(Scenario::fromSpec(
        mustParse("[workload]\nname = gauss\n"), &sc, &err));
    EXPECT_NE(err.find("no [machine] section"), std::string::npos);

    EXPECT_FALSE(Scenario::fromSpec(
        mustParse("[machine m]\nams = 7\n[workload]\nname = gauss\n"
                  "[report]\nbaseline_machine = other\n"),
        &sc, &err));
    EXPECT_NE(err.find("baseline_machine"), std::string::npos);

    EXPECT_FALSE(Scenario::fromSpec(
        mustParse("[machine m]\nams = 7\n[machine m]\nams = 3\n"
                  "[workload]\nname = gauss\n"),
        &sc, &err));
    EXPECT_NE(err.find("duplicate machine name"), std::string::npos);

    EXPECT_FALSE(Scenario::fromSpec(
        mustParse("[machine m]\nams = 7\n[workload]\nname = gauss\n"
                  "[sweep]\nwheels = 1..4\n"),
        &sc, &err));
    EXPECT_NE(err.find("unknown sweep axis 'wheels'"), std::string::npos);

    // List-valued topology knobs must not be comma-split into scalar
    // axis values.
    EXPECT_FALSE(Scenario::fromSpec(
        mustParse("[machine m]\nams = 7\n[workload]\nname = gauss\n"
                  "[sweep]\nmachine.processors = 3,0,0\n"),
        &sc, &err));
    EXPECT_NE(err.find("machine.processors cannot be swept"),
              std::string::npos);
}

TEST(Scenario, SweepExpansionOrderAndOverrides)
{
    Scenario sc = mustScenario("[machine a]\nams = 1\n"
                               "[machine b]\nams = 2\n"
                               "[workload]\nname = dense_mvm\n"
                               "[sweep]\n"
                               "workload.name = suite:specomp\n"
                               "competitors = 0..1\n"
                               "[quick]\n"
                               "workload.name = gauss\n"
                               "machine.engine = ref\n");

    std::vector<ScenarioPoint> pts;
    std::string err;
    ASSERT_TRUE(sc.expandPoints(false, &pts, &err)) << err;
    // 5 SPEComp workloads x 2 competitor values x 2 machines.
    ASSERT_EQ(pts.size(), 20u);
    // First axis varies slowest; machines vary fastest.
    EXPECT_EQ(pts[0].workload.name, "swim");
    EXPECT_EQ(pts[0].competitors, 0u);
    EXPECT_EQ(pts[0].machine.name, "a");
    EXPECT_EQ(pts[1].machine.name, "b");
    EXPECT_EQ(pts[2].competitors, 1u);
    EXPECT_EQ(pts[4].workload.name, "applu");
    EXPECT_EQ(pts[0].machine.engine, cpu::Engine::Superblock);
    EXPECT_EQ(pts[0].coordString(), "workload.name=swim competitors=0");

    // Quick mode: workload axis replaced, machine.engine knob appended
    // as a single-value axis.
    ASSERT_TRUE(sc.expandPoints(true, &pts, &err)) << err;
    ASSERT_EQ(pts.size(), 4u);
    EXPECT_EQ(pts[0].workload.name, "gauss");
    EXPECT_EQ(pts[0].machine.engine, cpu::Engine::Reference);
}

TEST(Scenario, SweepValueDiagnostics)
{
    Scenario sc = mustScenario("[machine a]\nams = 1\n"
                               "[workload]\nname = dense_mvm\n"
                               "[sweep]\nworkload.name = suite:nope\n");
    std::vector<ScenarioPoint> pts;
    std::string err;
    EXPECT_FALSE(sc.expandPoints(false, &pts, &err));
    EXPECT_EQ(err, "<test>:6: unknown workload suite 'nope'");

    Scenario sc2 = mustScenario("[machine a]\nams = 1\n"
                                "[workload]\nname = dense_mvm\n"
                                "[sweep]\nmachine.slice_limit = x\n");
    EXPECT_FALSE(sc2.expandPoints(false, &pts, &err));
    EXPECT_NE(err.find("slice_limit"), std::string::npos);
}

TEST(Scenario, SupervisionAndFaultSections)
{
    Scenario sc = mustScenario(
        "[machine a]\nams = 1\n[workload]\nname = dense_mvm\n"
        "[run]\npoint_deadline_ms = 5000\nretries = 2\n"
        "retry_backoff_ms = 25\n"
        "[faults]\nseed = 11\ninject = crash@0\ninject = hang@p0.5x1\n"
        "[report]\non_failed_points = skip\n");
    EXPECT_EQ(sc.pointDeadlineMs, 5000u);
    EXPECT_EQ(sc.retries, 2u);
    EXPECT_EQ(sc.retryBackoffMs, 25u);
    EXPECT_TRUE(sc.faults.seedSet);
    EXPECT_EQ(sc.faults.seed, 11u);
    ASSERT_EQ(sc.faults.rules.size(), 2u);
    EXPECT_EQ(sc.faults.toString(), "seed=11;crash@0;hang@p0.5x1");
    EXPECT_EQ(sc.report.onFailedPoints, FailedPointPolicy::Skip);

    // Defaults: no deadline, no retries, fail-on-failed-points.
    Scenario plain = mustScenario(
        "[machine a]\nams = 1\n[workload]\nname = dense_mvm\n");
    EXPECT_EQ(plain.pointDeadlineMs, 0u);
    EXPECT_EQ(plain.retries, 0u);
    EXPECT_TRUE(plain.faults.empty());
    EXPECT_EQ(plain.report.onFailedPoints, FailedPointPolicy::Fail);

    // Malformed values diagnose with the spec line.
    Scenario bad;
    std::string err;
    EXPECT_FALSE(Scenario::fromSpec(
        mustParse("[machine a]\nams = 1\n[workload]\nname = dense_mvm\n"
                  "[faults]\ninject = explode@0\n"),
        &bad, &err));
    EXPECT_NE(err.find("unknown fault kind"), std::string::npos) << err;

    EXPECT_FALSE(Scenario::fromSpec(
        mustParse("[machine a]\nams = 1\n[workload]\nname = dense_mvm\n"
                  "[report]\non_failed_points = shrug\n"),
        &bad, &err));
    EXPECT_NE(err.find("on_failed_points"), std::string::npos) << err;

    EXPECT_FALSE(Scenario::fromSpec(
        mustParse("[machine a]\nams = 1\n[workload]\nname = dense_mvm\n"
                  "[run]\npoint_deadline_ms = soon\n"),
        &bad, &err));
    EXPECT_NE(err.find("point_deadline_ms"), std::string::npos) << err;
}

// ---------------------------------------------------------------------
// Workload registry
// ---------------------------------------------------------------------

TEST(Registry, LookupCoversFigureAndUtilWorkloads)
{
    EXPECT_NE(wl::findWorkload("dense_mvm"), nullptr);
    EXPECT_NE(wl::findWorkload("Raytracer"), nullptr);
    EXPECT_NE(wl::findWorkload("spinner"), nullptr);
    EXPECT_EQ(wl::findWorkload("no_such_workload"), nullptr);

    // The spinner stays out of the figure suite.
    for (const wl::WorkloadInfo &info : wl::allWorkloads())
        EXPECT_NE(info.name, "spinner");
}

TEST(Registry, Selectors)
{
    std::string err;
    EXPECT_EQ(wl::selectWorkloads("all").size(),
              wl::allWorkloads().size());
    EXPECT_EQ(wl::selectWorkloads("suite:rms").size(), 11u);
    EXPECT_EQ(wl::selectWorkloads("suite:specomp").size(), 5u);
    EXPECT_EQ(wl::selectWorkloads("gauss").size(), 1u);
    EXPECT_TRUE(wl::selectWorkloads("suite:nope", &err).empty());
    EXPECT_NE(err.find("unknown workload suite"), std::string::npos);
    EXPECT_TRUE(wl::selectWorkloads("bogus", &err).empty());
    EXPECT_NE(err.find("unknown workload"), std::string::npos);
}

TEST(Registry, SetWorkloadParam)
{
    wl::WorkloadParams p;
    std::string err;
    EXPECT_TRUE(wl::setWorkloadParam(p, "workers", "3", &err));
    EXPECT_TRUE(wl::setWorkloadParam(p, "scale", "2", &err));
    EXPECT_TRUE(wl::setWorkloadParam(p, "prefault", "true", &err));
    EXPECT_TRUE(wl::setWorkloadParam(p, "seed", "0x2a", &err));
    EXPECT_EQ(p.workers, 3u);
    EXPECT_EQ(p.scale, 2u);
    EXPECT_TRUE(p.prefault);
    EXPECT_EQ(p.seed, 42u);

    EXPECT_FALSE(wl::setWorkloadParam(p, "workers", "many", &err));
    EXPECT_NE(err.find("expected an integer"), std::string::npos);
    EXPECT_FALSE(wl::setWorkloadParam(p, "workers", "-1", &err));
    EXPECT_EQ(p.workers, 3u);
    EXPECT_FALSE(wl::setWorkloadParam(p, "color", "red", &err));
    EXPECT_NE(err.find("unknown workload parameter"), std::string::npos);
}

// ---------------------------------------------------------------------
// Stats JSON emitter
// ---------------------------------------------------------------------

TEST(StatsJson, ScalarVectorAndNesting)
{
    stats::StatGroup root("");
    stats::StatGroup child("cpu0", &root);
    stats::Scalar s(&root, "ticks", "total ticks");
    stats::Vector v(&child, "events", "per-slot", 2);
    s += 42;
    v[0] = 1;
    v[1] = 2;

    std::ostringstream os;
    root.dumpJson(os);
    std::string json = os.str();
    EXPECT_NE(json.find("\"ticks\": 42"), std::string::npos);
    EXPECT_NE(json.find("\"cpu0\""), std::string::npos);
    EXPECT_NE(json.find("\"[0]\": 1"), std::string::npos);
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
}

// ---------------------------------------------------------------------
// Runner equivalence with the hand-rolled figure-bench code paths
// ---------------------------------------------------------------------

namespace {

/** The pre-driver fig4_speedup run: build workload, instantiate the
 *  machine + backend, load unpinned, run to completion. */
Tick
handRolledFig4Run(const arch::SystemConfig &sys, rt::Backend backend,
                  const wl::WorkloadInfo &info,
                  const wl::WorkloadParams &params)
{
    wl::Workload w = info.build(params);
    harness::Experiment exp(sys, backend);
    harness::LoadedProcess proc = exp.load(w.app);
    return exp.runToCompletion(proc.process).ticks;
}

/** The pre-driver fig7 runRaytracerUnder: pin the shredded target to
 *  processors with enough AMSs, spinners to the rest when ideal. */
Tick
handRolledFig7Run(const std::vector<unsigned> &ams, unsigned shredProcAms,
                  bool ideal, unsigned competitors,
                  const wl::WorkloadParams &params)
{
    wl::Workload w = wl::buildRaytracer(params);
    arch::SystemConfig sys = arch::SystemConfig::mp(ams);
    harness::Experiment exp(sys, rt::Backend::Shred);

    std::vector<int> shredAffinity;
    std::vector<int> otherCpus;
    for (unsigned i = 0; i < exp.system().numProcessors(); ++i) {
        int cpu = exp.system().processor(i).cpuId();
        if (exp.system().processor(i).numAms() >= shredProcAms)
            shredAffinity.push_back(cpu);
        else
            otherCpus.push_back(cpu);
    }
    auto rtProc = exp.load(w.app, shredAffinity);

    wl::WorkloadParams spinParams;
    for (unsigned c = 0; c < competitors; ++c) {
        std::vector<int> affinity;
        if (ideal && !otherCpus.empty())
            affinity = otherCpus;
        exp.load(wl::buildSpinner(spinParams).app, affinity);
    }
    return exp.runToCompletion(rtProc.process).ticks;
}

std::vector<PointResult>
runScenarioText(const std::string &text, bool quick = false)
{
    Scenario sc = mustScenario(text);
    std::vector<ScenarioPoint> pts;
    std::string err;
    EXPECT_TRUE(sc.expandPoints(quick, &pts, &err)) << err;
    ScenarioRunner::Options opts;
    opts.hostLines = false;
    return ScenarioRunner(opts).runAll(sc, pts);
}

} // namespace

TEST(RunnerEquivalence, Fig4StyleMachinesMatchHandRolledRuns)
{
    wl::WorkloadParams params;
    params.workers = 7;
    const wl::WorkloadInfo *info = wl::findWorkload("dense_mvm");
    ASSERT_NE(info, nullptr);

    Tick oneP = handRolledFig4Run(arch::SystemConfig::mp({0}),
                                  rt::Backend::OsThread, *info, params);
    Tick misp = handRolledFig4Run(arch::SystemConfig::uniprocessor(7),
                                  rt::Backend::Shred, *info, params);

    std::vector<PointResult> results =
        runScenarioText("[machine 1p]\nprocessors = 0\nbackend = os\n"
                        "[machine misp]\nprocessors = 7\nbackend = shred\n"
                        "[workload]\nname = dense_mvm\nworkers = 7\n");
    ASSERT_EQ(results.size(), 2u);
    const PointResult *r1p = findResult(results, "1p", "dense_mvm", 0);
    const PointResult *rMisp = findResult(results, "misp", "dense_mvm", 0);
    ASSERT_NE(r1p, nullptr);
    ASSERT_NE(rMisp, nullptr);

    EXPECT_EQ(r1p->run.ticks, oneP);
    EXPECT_EQ(rMisp->run.ticks, misp);
    EXPECT_TRUE(r1p->run.valid);
    EXPECT_TRUE(rMisp->run.valid);
    // The MISP machine multi-shreds; the speedup must be real.
    EXPECT_LT(rMisp->run.ticks, r1p->run.ticks);
}

TEST(RunnerEquivalence, Fig7StylePinnedRunMatchesHandRolled)
{
    wl::WorkloadParams params;
    params.workers = 3;

    Tick unloaded = handRolledFig7Run({1, 0}, 1, true, 0, params);
    Tick loaded = handRolledFig7Run({1, 0}, 1, true, 1, params);

    std::vector<PointResult> results = runScenarioText(
        "[machine mp]\nprocessors = 1,0\npin_min_ams = 1\n"
        "ideal_placement = true\n"
        "[workload]\nname = Raytracer\nworkers = 3\n"
        "[sweep]\ncompetitors = 0..1\n");
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].competitors, 0u);
    EXPECT_EQ(results[0].run.ticks, unloaded);
    EXPECT_EQ(results[1].competitors, 1u);
    EXPECT_EQ(results[1].run.ticks, loaded);
    // Ideal placement keeps the competitor off the MISP CPU: the
    // loaded run cannot be much slower than the unloaded one.
    EXPECT_LT(results[1].run.ticks, unloaded + unloaded / 4);
}

TEST(RunnerEquivalence, EveryEngineIsBitIdentical)
{
    const std::string text =
        "[machine misp]\nams = 3\n"
        "[workload]\nname = dense_mvm\nworkers = 3\n";
    // Default leg: the machine's default engine (superblock).
    std::vector<PointResult> base = runScenarioText(text);

    Scenario sc = mustScenario(text);
    std::vector<ScenarioPoint> pts;
    std::string err;
    ASSERT_TRUE(sc.expandPoints(false, &pts, &err));
    {
        const cpu::Engine engine = cpu::Engine::Reference;
        ScenarioRunner::Options opts;
        opts.hostLines = false;
        opts.forceEngine = true;
        opts.engine = engine;
        std::vector<PointResult> leg =
            ScenarioRunner(opts).runAll(sc, pts);

        ASSERT_EQ(base.size(), leg.size());
        EXPECT_EQ(base[0].run.ticks, leg[0].run.ticks)
            << cpu::engineName(engine);
        EXPECT_EQ(base[0].run.instsRetired, leg[0].run.instsRetired)
            << cpu::engineName(engine);
        EXPECT_EQ(base[0].run.events.omsSyscalls,
                  leg[0].run.events.omsSyscalls);
        EXPECT_EQ(base[0].run.events.serializations,
                  leg[0].run.events.serializations);
    }
}

// ---------------------------------------------------------------------
// Emitters
// ---------------------------------------------------------------------

TEST(Emitters, JsonTableAndPoints)
{
    Scenario sc = mustScenario(
        "[scenario]\nname = emit\ntitle = Emitter test\n"
        "[machine a]\nams = 1\n[machine b]\nams = 3\n"
        "[workload]\nname = dense_mvm\nworkers = 3\n"
        "[report]\nbaseline_machine = a\n");
    std::vector<ScenarioPoint> pts;
    std::string err;
    ASSERT_TRUE(sc.expandPoints(false, &pts, &err)) << err;
    ScenarioRunner::Options opts;
    opts.hostLines = false;
    std::vector<PointResult> results = ScenarioRunner(opts).runAll(sc, pts);
    ASSERT_EQ(results.size(), 2u);

    const harness::MetricFrame frame = buildMetricFrame(sc, results);

    std::ostringstream jsonOs;
    writeJson(jsonOs, sc, false, frame);
    const std::string json = jsonOs.str();
    EXPECT_NE(json.find("\"scenario\": \"emit\""), std::string::npos);
    EXPECT_NE(json.find("\"ticks\": "), std::string::npos);
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));

    std::ostringstream table;
    writeTable(table, sc, frame, /*markdown=*/false);
    EXPECT_NE(table.str().find("speedup_vs_a"), std::string::npos);

    std::ostringstream md;
    writeTable(md, sc, frame, /*markdown=*/true);
    EXPECT_NE(md.str().find("| machine |"), std::string::npos);
    EXPECT_NE(md.str().find("| --- |"), std::string::npos);

    std::ostringstream pl;
    writePoints(pl, frame);
    EXPECT_NE(pl.str().find("machine=a workload=dense_mvm competitors=0 "
                            "coords=- ticks="),
              std::string::npos);

    // The a-machine row's speedup against itself is exactly 1.000.
    EXPECT_NE(table.str().find("1.000"), std::string::npos);
}
