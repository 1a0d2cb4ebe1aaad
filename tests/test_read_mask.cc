/**
 * @file
 * What reusing a finished point rests on.
 *
 *  - A run's read mask (RunRecord::configReads) names every machine-
 *    config field that can move its record: on one point per (machine,
 *    worker count) of each ledger template (seed 1) and of
 *    grid_large --quick, perturbing each field the mask leaves out, in
 *    turn, leaves the record equal. The fields the grids sweep land
 *    where the model reads them: signal_cycles on every machine with
 *    AMSs, context_xfer_cycles on the grids' 2-worker misp points
 *    only (their proxy requests), and neither on a machine without
 *    AMSs. kernel_seed is read only where the kernel draws device-IRQ
 *    gaps: not at all with device_irq_mean_period = 0. A flag
 *    (ideal_placement) is perturbed by flipping it.
 *  - Workloads are pure (workloads/workload.hh), so one built workload
 *    may serve every point of a sweep: for every workload the ledger
 *    templates load, two builds digest equal, and running a point on a
 *    built workload leaves its digest unchanged.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "driver/runner.hh"
#include "sim/logging.hh"
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

const std::string kRoot = MISP_SOURCE_ROOT;

/** @p text (from @p path) parsed, with a ledger template's @SEED@ set
 *  to 1. */
Scenario
parseSpec(std::string text, const std::string &path)
{
    for (std::size_t at; (at = text.find("@SEED@")) != std::string::npos;)
        text.replace(at, 6, "1");
    SpecFile spec;
    Scenario sc;
    std::string err;
    EXPECT_TRUE(SpecFile::parse(text, path, &spec, &err)) << err;
    EXPECT_TRUE(Scenario::fromSpec(spec, &sc, &err)) << err;
    return sc;
}

Scenario
loadSpec(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    return parseSpec(ss.str(), path);
}

std::vector<ScenarioPoint>
expand(const Scenario &sc, bool quick)
{
    std::vector<ScenarioPoint> pts;
    std::string err;
    EXPECT_TRUE(sc.expandPoints(quick, &pts, &err)) << err;
    return pts;
}

const std::string kLedger = kRoot + "/bench/ledger/workloads/";

/** A value other than @p v that keeps the machine buildable. */
void
perturb(std::vector<unsigned> &v)
{
    v.push_back(0);
}
void
perturb(bool &v)
{
    v = !v;
}
void
perturb(arch::SerializationPolicy &v)
{
    v = v == arch::SerializationPolicy::SuspendAll
            ? arch::SerializationPolicy::SpeculativeMonitor
            : arch::SerializationPolicy::SuspendAll;
}
template <class T>
void
perturb(T &v)
{
    v = v * 2 + 1;
}

bool
hasField(ConfigMask mask, ConfigField f)
{
    return (mask & configBit(f)) != 0;
}

/** The fields of @p mask by name, for failure messages. */
std::string
names(ConfigMask mask)
{
    std::string out;
    for (std::size_t f = 0; f < kNumConfigFields; ++f)
        if (hasField(mask, ConfigField(f)))
            out += (out.empty() ? "" : ",") + std::string(kConfigFieldNames[f]);
    return out;
}

void
expectSameRecord(const harness::RunRecord &a, const harness::RunRecord &b,
                 const std::string &what)
{
    EXPECT_EQ(a.status, b.status) << what;
    EXPECT_EQ(a.ticks, b.ticks) << what;
    EXPECT_EQ(a.valid, b.valid) << what;
    EXPECT_EQ(a.events, b.events) << what;
    EXPECT_EQ(a.instsRetired, b.instsRetired) << what;
    EXPECT_EQ(a.configReads, b.configReads) << what;
}

/** Run one point, then again with each field its mask leaves out
 *  perturbed; @return the point's mask. */
ConfigMask
probe(const Scenario &sc, const ScenarioPoint &pt, const std::string &what)
{
    RunnerOptions opts;
    opts.hostLines = false;
    const harness::RunRequest req = makeRunRequest(sc, pt, opts);
    const harness::RunRecord base = harness::runOne(req);
    EXPECT_TRUE(base.ok()) << what;
    for (std::size_t f = 0; f < kNumConfigFields; ++f) {
        if (hasField(base.configReads, ConfigField(f)))
            continue;
        harness::RunRequest changed = req;
        harness::visitConfigField(ConfigField(f), [&](auto field) {
            perturb(field(changed.config));
        });
        expectSameRecord(harness::runOne(changed), base,
                         what + ": unread " + kConfigFieldNames[f] +
                             " perturbed");
    }
    return base.configReads;
}

} // namespace

TEST(ReadMask, UnreadFieldsLeaveTheRecordEqual)
{
    struct Spec {
        std::string path;
        bool quick;
        bool grid; ///< machines 1p and misp, workers 1..2
    };
    const Spec specs[] = {{kLedger + "grid.scn", false, true},
                          {kLedger + "suite.scn", false, false},
                          {kLedger + "multiprog.scn", false, false},
                          {kRoot + "/scenarios/grid_large.scn", true, true}};
    for (const Spec &spec : specs) {
        const Scenario sc = loadSpec(spec.path);
        std::set<std::pair<std::string, unsigned>> probed;
        for (const ScenarioPoint &pt : expand(sc, spec.quick)) {
            const unsigned workers = pt.workload.params.workers;
            if (!probed.insert({pt.machine.name, workers}).second)
                continue;
            const std::string what = spec.path + " " + pt.machine.name +
                                     " workers=" + std::to_string(workers);
            const ConfigMask mask = probe(sc, pt, what);
            unsigned ams = 0;
            for (unsigned n : pt.machine.config.amsPerProcessor)
                ams += n;
            const bool signal = hasField(mask, ConfigField::SignalCycles);
            const bool xfer = hasField(mask, ConfigField::ContextXferCycles);
            EXPECT_EQ(signal, ams > 0) << what << " read " << names(mask);
            // Device IRQs are on, so the kernel draws their gaps.
            EXPECT_TRUE(hasField(mask, ConfigField::KernelSeed))
                << what << " read " << names(mask);
            if (ams == 0) {
                EXPECT_FALSE(xfer) << what << " read " << names(mask);
            } else if (spec.grid) {
                EXPECT_EQ(xfer, workers == 2)
                    << what << " read " << names(mask);
            }
        }
        EXPECT_FALSE(probed.empty()) << spec.path;
    }

    // With device IRQs off the kernel never draws from its RNG, so no
    // machine reads kernel_seed, and perturbing it (with every other
    // unread field) leaves the record equal.
    const Scenario quiet = parseSpec(
        "[machine 1p]\nprocessors = 0\nbackend = os\n"
        "device_irq_mean_period = 0\n"
        "[machine misp]\nprocessors = 3\nbackend = shred\n"
        "device_irq_mean_period = 0\n"
        "[workload]\nname = dense_mvm\nparam.rows = 8\nworkers = 2\n",
        "<quiet>");
    for (const ScenarioPoint &pt : expand(quiet, false)) {
        const std::string what = "device_irq_mean_period = 0 " + pt.machine.name;
        const ConfigMask mask = probe(quiet, pt, what);
        EXPECT_FALSE(hasField(mask, ConfigField::KernelSeed))
            << what << " read " << names(mask);
        EXPECT_TRUE(hasField(mask, ConfigField::DeviceIrqMeanPeriod))
            << what << " read " << names(mask);
    }
}

namespace {

/** FNV-1a over everything a built workload loads and reports. */
class Digest
{
  public:
    void
    bytes(const void *p, std::size_t n)
    {
        for (std::size_t i = 0; i < n; ++i) {
            h_ ^= static_cast<const unsigned char *>(p)[i];
            h_ *= 1099511628211ull;
        }
    }
    void word(std::uint64_t v) { bytes(&v, sizeof v); }
    void
    str(const std::string &s)
    {
        word(s.size());
        bytes(s.data(), s.size());
    }
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 1469598103934665603ull;
};

std::uint64_t
digest(const wl::Workload &w)
{
    Digest d;
    const harness::GuestApp &app = w.app;
    d.str(app.name);
    d.word(app.program.base);
    const std::vector<std::uint8_t> code = app.program.bytes();
    d.str(std::string(code.begin(), code.end()));
    for (const auto &[name, addr] : app.program.symbols) {
        d.str(name);
        d.word(addr);
    }
    for (const harness::DataRegion &r : app.data) {
        d.word(r.addr);
        d.word(r.size);
        d.word(r.writable);
        d.str(r.label);
        d.str(std::string(r.image.begin(), r.image.end()));
    }
    d.word(w.workEstimate);
    d.word(static_cast<bool>(w.validate));
    return d.value();
}

} // namespace

TEST(WorkloadPurity, BuildsAgreeAndRunsLeaveWorkloadsUnchanged)
{
    // Each key the templates load, with one point that loads it.
    std::map<harness::WorkloadKey, std::pair<Scenario, ScenarioPoint>> keys;
    for (const char *t : {"grid", "suite", "multiprog"}) {
        const Scenario sc = loadSpec(kLedger + t + ".scn");
        for (const ScenarioPoint &pt : expand(sc, false)) {
            std::vector<harness::WorkloadKey> loads = {
                {wl::findWorkload(pt.workload.name), pt.workload.params}};
            if (pt.competitors > 0)
                loads.push_back(
                    {wl::findWorkload(pt.competitor), wl::WorkloadParams{}});
            for (const harness::WorkloadKey &k : loads)
                keys.emplace(k, std::make_pair(sc, pt));
        }
    }
    // Every figure workload (suite), the Raytracer (multiprog), its
    // spinner competitors and dense_mvm at two worker counts (grid).
    EXPECT_EQ(keys.size(), wl::allWorkloads().size() + 4);

    RunnerOptions opts;
    opts.hostLines = false;
    for (const auto &[key, point] : keys) {
        const std::string what =
            key.info->name + " workers=" + std::to_string(key.params.workers);
        const std::uint64_t built = digest(key.info->build(key.params));
        EXPECT_EQ(digest(key.info->build(key.params)), built) << what;

        // The store keeps the workload alive past the point: it counts
        // a second point that never runs.
        harness::RunRequest req =
            makeRunRequest(point.first, point.second, opts);
        harness::WorkloadStore store;
        store.expect(req);
        store.expect(req);
        req.workloads = &store;
        EXPECT_TRUE(harness::runOne(req).ok()) << what;
        const std::size_t builds = store.builds();
        harness::WorkloadStore::Lease lease(store);
        EXPECT_EQ(digest(lease.take(key)), built) << what;
        EXPECT_EQ(store.builds(), builds) << what << " was rebuilt";
    }
}
