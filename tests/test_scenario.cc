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

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <type_traits>

#include "driver/runner.hh"
#include "driver/scenario.hh"
#include "driver/spec.hh"
#include "harness/experiment.hh"
#include "point_fixtures.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"
#include "snapshot/snapshot.hh"
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
    // Nor may a value past 2^64-1 saturate to it.
    EXPECT_TRUE(parseU64("18446744073709551615", &u));
    EXPECT_EQ(u, 18446744073709551615ull);
    EXPECT_FALSE(parseU64("18446744073709551616", &u));
    EXPECT_FALSE(parseU64("99999999999999999999999", &u));
    EXPECT_FALSE(parseU64("0x10000000000000000", &u));
    unsigned u32 = 0;
    EXPECT_FALSE(parseUnsigned("99999999999999999999999", &u32));
    bool b = false;
    EXPECT_TRUE(parseBool("on", &b));
    EXPECT_TRUE(b);
    EXPECT_FALSE(parseBool("maybe", &b));
}

TEST(SpecParse, OverlongSpansRejectedBeforeExpanding)
{
    std::vector<std::string> vals;
    std::string err;
    // Expanding the first would take ~10^11 strings; the second's
    // `v <= hi` loop could never end. Both fail before any value is
    // produced.
    EXPECT_FALSE(expandValues("0..100000000000", &vals, &err));
    EXPECT_NE(err.find("span '0..100000000000'"), std::string::npos)
        << err;
    EXPECT_TRUE(vals.empty());
    EXPECT_FALSE(expandValues("1, 0..18446744073709551615", &vals, &err));
    EXPECT_NE(err.find("span '0..18446744073709551615'"),
              std::string::npos)
        << err;

    // The bound is inclusive, and a span ending at 2^64-1 ends.
    ASSERT_TRUE(expandValues("1..65536", &vals, &err)) << err;
    EXPECT_EQ(vals.size(), kMaxSpanValues);
    EXPECT_FALSE(expandValues("0..65536", &vals, &err));
    ASSERT_TRUE(expandValues(
        "18446744073709551614..18446744073709551615", &vals, &err))
        << err;
    EXPECT_EQ(vals, (std::vector<std::string>{"18446744073709551614",
                                              "18446744073709551615"}));
}

TEST(Scenario, OverlongSpanAndOverflowingKeyDiagnosed)
{
    // The same inputs through a whole spec: a diagnostic naming the
    // line, never an allocation failure or a clamped value.
    auto rejected = [](const std::string &text) {
        SpecFile spec;
        Scenario sc;
        std::vector<ScenarioPoint> pts;
        std::string err;
        EXPECT_TRUE(SpecFile::parse(text, "<test>", &spec, &err)) << err;
        if (Scenario::fromSpec(spec, &sc, &err)) {
            EXPECT_FALSE(sc.expandPoints(false, &pts, &err));
        }
        return err;
    };
    const std::string base =
        "[machine a]\nams = 1\n[workload]\nname = dense_mvm\n";
    std::string err = rejected(
        base + "[sweep]\nmachine.kernel_seed = 0..100000000000\n");
    EXPECT_NE(err.find("<test>:6:"), std::string::npos) << err;
    EXPECT_NE(err.find("0..100000000000"), std::string::npos) << err;
    err = rejected(
        "[machine a]\nams = 1\nsignal_cycles = 18446744073709551616\n"
        "[workload]\nname = dense_mvm\n");
    EXPECT_NE(err.find("<test>:3:"), std::string::npos) << err;
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
    const arch::SystemConfig &sys = m.config;
    EXPECT_TRUE(sys.kernel.idealPlacement);
    EXPECT_EQ(sys.amsPerProcessor, (std::vector<unsigned>{3, 0}));
    EXPECT_EQ(sys.misp.engine, cpu::Engine::Reference);
    EXPECT_EQ(sys.misp.signalCycles, 500u);
    EXPECT_EQ(sys.misp.sliceLimit, 8u);
    EXPECT_EQ(sys.misp.serialization,
              arch::SerializationPolicy::SpeculativeMonitor);
}

// ---------------------------------------------------------------------
// Machine knobs: the tracked-field table, the parser and the image
// ---------------------------------------------------------------------

namespace {

/** @p v set to another value of its type. */
template <class T>
void
perturb(T &v)
{
    if constexpr (std::is_same_v<T, std::vector<unsigned>>)
        v.push_back(1);
    else if constexpr (std::is_same_v<T, bool>)
        v = !v;
    else if constexpr (std::is_enum_v<T>)
        v = static_cast<T>(1 - static_cast<int>(v));
    else
        ++v;
}

/** What a bad value of each settable table row is diagnosed as: the
 *  messages of the hand-written parser the table replaced. */
const std::map<std::string, std::string> kKnobExpects = {
    {"processors", "a comma list of AMS counts"},
    {"phys_frames", "a frame count"},
    {"signal_cycles", "a cycle count"},
    {"context_xfer_cycles", "a cycle count"},
    {"serialization", "'suspend_all' or 'speculative_monitor'"},
    {"slice_limit", "an integer"},
    {"timer_period", "a tick count"},
    {"quantum_ticks", "an integer"},
    {"device_irq_mean_period", "a tick count (0 disables device IRQs)"},
    {"kernel_seed", "an integer seed"},
    {"ideal_placement", "a boolean"},
};

/** A good non-default value for a knob of kind @p kind. */
std::string
knobValue(KnobKind kind)
{
    switch (kind) {
      case KnobKind::Policy:
        return "speculative_monitor";
      case KnobKind::AmsList:
        return "3,0";
      case KnobKind::Flag:
        return "true";
      default:
        return "3";
    }
}

} // namespace

TEST(MachineKnobs, EveryTrackedFieldKeysTheImage)
{
    // The snapshot archive names each field by hand: perturbing any
    // field through the table's path map must move configHash.
    const std::uint64_t base = snap::configHash(harness::RunRequest{});
    for (std::size_t i = 0; i < kNumConfigFields; ++i) {
        harness::RunRequest req;
        harness::visitConfigField(static_cast<ConfigField>(i),
                                  [&](auto get) { perturb(get(req.config)); });
        EXPECT_NE(snap::configHash(req), base) << kConfigFieldNames[i];
    }
}

TEST(MachineKnobs, EachSettableRowSetsExactlyItsField)
{
    const KnobKind kinds[] = {
#define MISP_KNOB_KIND(en, name, owner, member, kind, expect) KnobKind::kind,
        MISP_CONFIG_FIELDS(MISP_KNOB_KIND)
#undef MISP_KNOB_KIND
    };
    const arch::SystemConfig defaults;
    std::size_t settable = 0;
    for (std::size_t i = 0; i < kNumConfigFields; ++i) {
        const std::string key = kConfigFieldNames[i];
        if (kinds[i] == KnobKind::Fixed)
            continue;
        ++settable;
        const ConfigMask bit = configBit(static_cast<ConfigField>(i));
        MachineSpec m;
        std::string err;
        ASSERT_TRUE(m.apply(key, knobValue(kinds[i]), &err)) << err;
        EXPECT_FALSE(harness::sameConfigFields(m.config, defaults, bit))
            << key;
        EXPECT_TRUE(harness::sameConfigFields(m.config, defaults,
                                              kAllConfigFields & ~bit))
            << key;
        EXPECT_EQ(m.config.misp.engine, defaults.misp.engine) << key;

        MachineSpec bad;
        EXPECT_FALSE(bad.apply(key, "x", &err)) << key;
        ASSERT_TRUE(kKnobExpects.count(key)) << key;
        EXPECT_EQ(err, key + ": expected " + kKnobExpects.at(key) +
                           ", got 'x'");
    }
    EXPECT_EQ(settable, kKnobExpects.size());
}

TEST(MachineKnobs, KernelCostsAreNoSpecKey)
{
    for (const char *key : {"syscall_base", "write_per_byte",
                            "page_fault_service", "timer_service",
                            "device_irq_service", "ctx_switch"}) {
        MachineSpec m;
        std::string err;
        EXPECT_FALSE(m.apply(key, "1", &err)) << key;
        EXPECT_EQ(err, std::string("unknown machine knob '") + key + "'");
    }
}

TEST(Scenario, MachinesThatCannotRunAreRejected)
{
    // Each of these used to pass --dry-run and then panic (no frames,
    // no instruction per slice) or re-fire the timer at one tick
    // forever; the AMS and processor counts are bounded so a machine
    // cannot exhaust the host while it is built.
    std::string tooManyProcessors = "processors = 0";
    for (int i = 0; i < 256; ++i)
        tooManyProcessors += ",0";
    const struct {
        std::string knob;
        std::string want;
    } cases[] = {
        {"phys_frames = 0", "physFrames is 0"},
        {"slice_limit = 0", "misp.sliceLimit is 0"},
        {"timer_period = 0", "kernel.timerPeriod is 0"},
        {"processors = 3,257",
         "amsPerProcessor[1] is 257; a processor has at most 256"},
        {"ams = 4294967295", "amsPerProcessor[0] is 4294967295"},
        {tooManyProcessors,
         "the processor count is 257; a machine has 1 to 256"},
    };
    for (const auto &c : cases) {
        Scenario sc;
        std::string err;
        EXPECT_FALSE(Scenario::fromSpec(
            mustParse("[machine m]\n" + c.knob + "\n[workload]\n"
                      "name = dense_mvm\n"),
            &sc, &err));
        EXPECT_EQ(err.rfind("<test>:2: " + c.want, 0), 0u) << err;
    }

    // The same check runs on every point's machine.* overrides, at the
    // axis's line.
    for (const auto &c : {cases[0], cases[1], cases[2]}) {
        Scenario sc = mustScenario(
            "[machine m]\n[workload]\nname = dense_mvm\n[sweep]\n"
            "machine." + c.knob.substr(0, c.knob.find(' ')) + " = 1, 0\n");
        std::vector<ScenarioPoint> pts;
        std::string err;
        EXPECT_FALSE(sc.expandPoints(false, &pts, &err));
        EXPECT_EQ(err.rfind("<test>:5: " + c.want, 0), 0u) << err;
    }
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
    EXPECT_EQ(pts[0].machine.config.misp.engine, cpu::Engine::Superblock);
    EXPECT_EQ(pts[0].coords.str(), "workload.name=swim competitors=0");

    // Quick mode: workload axis replaced, machine.engine knob appended
    // as a single-value axis.
    ASSERT_TRUE(sc.expandPoints(true, &pts, &err)) << err;
    ASSERT_EQ(pts.size(), 4u);
    EXPECT_EQ(pts[0].workload.name, "gauss");
    EXPECT_EQ(pts[0].machine.config.misp.engine, cpu::Engine::Reference);
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
    stats::Scalar s(&root, "ticks");
    stats::Vector v(&child, "events", 2);
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
    const PointResult &r1p = results[0]; // grid order: machines as declared
    const PointResult &rMisp = results[1];
    ASSERT_EQ(r1p.coords.machine(), "1p");
    ASSERT_EQ(rMisp.coords.machine(), "misp");

    EXPECT_EQ(r1p.run.ticks, oneP);
    EXPECT_EQ(rMisp.run.ticks, misp);
    EXPECT_TRUE(r1p.run.valid);
    EXPECT_TRUE(rMisp.run.valid);
    // The MISP machine multi-shreds; the speedup must be real.
    EXPECT_LT(rMisp.run.ticks, r1p.run.ticks);
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
    EXPECT_EQ(results[0].coords.competitors(), 0u);
    EXPECT_EQ(results[0].run.ticks, unloaded);
    EXPECT_EQ(results[1].coords.competitors(), 1u);
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
        opts.engine = engine;
        std::vector<PointResult> leg =
            ScenarioRunner(opts).runAll(sc, pts);

        ASSERT_EQ(base.size(), leg.size());
        EXPECT_EQ(base[0].run.ticks, leg[0].run.ticks)
            << cpu::engineName(engine);
        EXPECT_EQ(base[0].run.instsRetired, leg[0].run.instsRetired)
            << cpu::engineName(engine);
        EXPECT_EQ(base[0].run.events, leg[0].run.events)
            << cpu::engineName(engine);
    }
}

// ---------------------------------------------------------------------
// Regression specs (tests/regress/)
// ---------------------------------------------------------------------

TEST(Regression, Ring0ReentrySeedsCompleteAndValidate)
{
    // Seeds 2 and 7 of the checked-in spec raise exit_process on the
    // OMS while a timer episode is in flight; the request is held and
    // serviced at Ring-0 exit instead of tripping a re-entry panic.
    std::ifstream in(std::string(MISP_SOURCE_ROOT) +
                     "/tests/regress/ring0_reentry.scn");
    ASSERT_TRUE(in) << "tests/regress/ring0_reentry.scn not found";
    std::stringstream text;
    text << in.rdbuf();
    Scenario sc = mustScenario(text.str());
    std::vector<ScenarioPoint> all, pts;
    std::string err;
    ASSERT_TRUE(sc.expandPoints(false, &all, &err)) << err;
    ASSERT_EQ(all.size(), 40u);
    for (const ScenarioPoint &pt : all)
        if (pt.coords.value(0) == "2" || pt.coords.value(0) == "7")
            pts.push_back(pt);
    ASSERT_EQ(pts.size(), 2u);

    ScenarioRunner::Options opts;
    opts.hostLines = false;
    std::vector<PointResult> results = ScenarioRunner(opts).runAll(sc, pts);
    ASSERT_EQ(results.size(), 2u);
    for (const PointResult &r : results) {
        EXPECT_EQ(r.run.status, harness::RunStatus::Completed)
            << r.run.note;
        EXPECT_TRUE(r.run.valid);
    }
    const harness::MetricFrame frame = buildMetricFrame(sc, results);
    EXPECT_EQ(describePoint(frame, 1),
              "machine=misp3 workload=ADAt competitors=0 "
              "machine.kernel_seed=7");
}

// ---------------------------------------------------------------------
// Checked-in specs
// ---------------------------------------------------------------------

TEST(CheckedInScenarios, EverySpecLoadsAndExpandsInBothModes)
{
    // Loading compiles every assert, column and footer, so a checked-in
    // expression that stops compiling fails here. The ledger templates
    // are read only, with their @SEED@ placeholder substituted.
    const std::string root = MISP_SOURCE_ROOT;
    std::vector<std::string> paths;
    for (const char *dir :
         {"/scenarios", "/tests/regress", "/bench/ledger/workloads"}) {
        for (const auto &e : std::filesystem::directory_iterator(root + dir))
            if (e.path().extension() == ".scn")
                paths.push_back(e.path().string());
    }
    EXPECT_GE(paths.size(), 15u);
    for (const std::string &path : paths) {
        std::ifstream in(path);
        std::stringstream buf;
        buf << in.rdbuf();
        std::string text = buf.str();
        for (std::size_t at; (at = text.find("@SEED@")) != std::string::npos;)
            text.replace(at, 6, "1");
        SpecFile spec;
        Scenario sc;
        std::string err;
        ASSERT_TRUE(SpecFile::parse(text, path, &spec, &err)) << err;
        ASSERT_TRUE(Scenario::fromSpec(spec, &sc, &err)) << err;
        for (bool quick : {true, false}) {
            std::vector<ScenarioPoint> pts;
            EXPECT_TRUE(sc.expandPoints(quick, &pts, &err)) << err;
            EXPECT_FALSE(pts.empty()) << path;
        }
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
    writeJson(jsonOs, sc, false, frame, test::statsOf(results));
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
