/**
 * @file
 * Observability subsystem tests.
 *
 * Plane 1 (deterministic trace): recorder semantics against a real
 * EventQueue (base cursor, category filter, bounded buffer with drop
 * accounting, marker bypass), the category grammar, the [trace] spec
 * section, and the determinism contract end-to-end — byte-identical
 * Chrome traces across all three engines, across --jobs/--isolate
 * topologies, across a plain run vs a save leg, and a snapshot-restored
 * run vs a cold run with --trace-skip at the restore cursor. The
 * RunRecord wire codec round-trips the trace and fails closed.
 *
 * Plane 2 (host telemetry): the supervisor run log under chaos — every
 * launch attempt emits exactly one `dispatched` line, so the log's
 * dispatch count must equal the sum of RunRecord::attempts.
 *
 * Plus the CLI-surface audit: --help is rendered from the flag/exit
 * code registries, and every registered name must appear in it.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "driver/cli_help.hh"
#include "driver/faults.hh"
#include "driver/runner.hh"
#include "harness/run_record.hh"
#include "obs/host_run_log.hh"
#include "obs/trace.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "snapshot/snapshot.hh"

using namespace misp;

namespace {

class QuietEnv : public ::testing::Environment
{
  public:
    void SetUp() override { setQuietLogging(true); }
};

const ::testing::Environment *const kQuietEnv =
    ::testing::AddGlobalTestEnvironment(new QuietEnv);

/** Render one point's buffer exactly as `mispsim --trace` would. */
std::string
render(const std::string &label, const obs::TraceBuffer &buf)
{
    std::ostringstream os;
    obs::writeChromeTrace(os, 1, [&](std::size_t) {
        return obs::TracePoint{label, &buf};
    });
    return os.str();
}

/** The multi-shred request the snapshot tests use: big enough to
 *  exercise signals, scheduling, TLB traffic, and runtime calls. */
harness::RunRequest
tracedRequest()
{
    harness::RunRequest req;
    req.label = "trace_test";
    req.config = arch::SystemConfig::uniprocessor(3);
    req.config.physFrames = 1 << 16;
    req.backend = rt::Backend::Shred;
    req.target.name = "dense_mvm";
    req.target.params.workers = 3;
    req.hostLine = false;
    req.trace.enabled = true;
    return req;
}

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + name;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** Count occurrences of @p needle in @p hay. */
int
countOf(const std::string &hay, const std::string &needle)
{
    int n = 0;
    for (std::size_t at = hay.find(needle); at != std::string::npos;
         at = hay.find(needle, at + needle.size()))
        ++n;
    return n;
}

const char *kTraceScn = R"(
[scenario]
name = trace_test

[machine misp]
ams = 3
phys_frames = 65536

[workload]
name = dense_mvm

[sweep]
workload.workers = 1, 2, 3
)";

std::vector<driver::PointResult>
runScenario(const driver::RunnerOptions &opts,
            std::vector<driver::ScenarioPoint> *ptsOut = nullptr,
            const char *text = kTraceScn)
{
    driver::SpecFile spec;
    driver::Scenario sc;
    std::vector<driver::ScenarioPoint> pts;
    std::string err;
    EXPECT_TRUE(driver::SpecFile::parse(text, "<test>", &spec, &err))
        << err;
    EXPECT_TRUE(driver::Scenario::fromSpec(spec, &sc, &err)) << err;
    EXPECT_TRUE(sc.expandPoints(false, &pts, &err)) << err;
    if (ptsOut)
        *ptsOut = pts;
    return driver::ScenarioRunner(opts).runAll(sc, pts);
}

} // namespace

// ---------------------------------------------------------------------
// Recorder semantics against a real EventQueue
// ---------------------------------------------------------------------

TEST(TraceRecorder, SeqFollowsEventQueueAndBaseGates)
{
    EventQueue eq;
    obs::TraceConfig cfg;
    cfg.catMask = obs::kAllCats;
    obs::TraceRecorder rec(eq, cfg, /*base=*/3);

    for (int i = 1; i <= 6; ++i) {
        eq.scheduleLambda(i * 10, "emit", [&rec, i] {
            rec.record(obs::TraceKind::TlbFill, 0, 0, i);
        });
    }
    while (eq.step()) {
    }

    // numProcessed is incremented before an event's callback runs, so
    // the nth event records seq == n; a base of 3 keeps the first
    // three out (warmup suppression) with no drop accounting.
    const obs::TraceBuffer &buf = rec.buffer();
    ASSERT_EQ(buf.events.size(), 3u);
    EXPECT_EQ(buf.dropped, 0u);
    for (std::size_t i = 0; i < buf.events.size(); ++i) {
        EXPECT_EQ(buf.events[i].seq, 4 + i);
        EXPECT_EQ(buf.events[i].tick, (4 + i) * 10);
        EXPECT_EQ(buf.events[i].arg0, 4 + i);
    }
}

TEST(TraceRecorder, CategoryFilterIsNotDropAccounting)
{
    EventQueue eq;
    obs::TraceConfig cfg;
    cfg.catMask = obs::kCatSched; // TLB traffic filtered out
    obs::TraceRecorder rec(eq, cfg, 0);

    eq.scheduleLambda(5, "emit", [&rec] {
        rec.record(obs::TraceKind::TlbFill);
        rec.record(obs::TraceKind::KernelQuantum);
        rec.record(obs::TraceKind::RtcallEnter);
    });
    while (eq.step()) {
    }

    // Only the sched-category event lands; filtered events are not
    // "dropped" (that word is reserved for buffer overflow).
    ASSERT_EQ(rec.buffer().events.size(), 1u);
    EXPECT_EQ(rec.buffer().events[0].kind,
              static_cast<std::uint16_t>(obs::TraceKind::KernelQuantum));
    EXPECT_EQ(rec.buffer().dropped, 0u);
}

TEST(TraceRecorder, BufferBoundCountsOverflow)
{
    EventQueue eq;
    obs::TraceConfig cfg;
    cfg.catMask = obs::kAllCats;
    cfg.maxEvents = 4;
    obs::TraceRecorder rec(eq, cfg, 0);

    for (int i = 1; i <= 10; ++i) {
        eq.scheduleLambda(i, "emit", [&rec] {
            rec.record(obs::TraceKind::SignalSend);
        });
    }
    while (eq.step()) {
    }

    // First-N retention: the four earliest survive, the rest count.
    const obs::TraceBuffer &buf = rec.buffer();
    ASSERT_EQ(buf.events.size(), 4u);
    EXPECT_EQ(buf.dropped, 6u);
    EXPECT_EQ(buf.events.front().seq, 1u);
    EXPECT_EQ(buf.events.back().seq, 4u);
    EXPECT_EQ(buf.maxEvents, 4u);
}

TEST(TraceRecorder, MarkersBypassBaseButNotCategories)
{
    EventQueue eq;
    obs::TraceConfig cfg;
    cfg.catMask = obs::kAllCats;
    obs::TraceRecorder rec(eq, cfg, /*base=*/100);
    eq.scheduleLambda(5, "emit", [&rec] {
        rec.record(obs::TraceKind::TlbFill);                 // gated
        rec.recordMarker(obs::TraceKind::SnapshotRestore);   // not
    });
    while (eq.step()) {
    }
    ASSERT_EQ(rec.buffer().events.size(), 1u);
    EXPECT_EQ(
        rec.buffer().events[0].kind,
        static_cast<std::uint16_t>(obs::TraceKind::SnapshotRestore));

    // The default mask excludes the snapshot category, so the same
    // marker is invisible in a default-configured recorder.
    obs::TraceConfig defCfg;
    obs::TraceRecorder defRec(eq, defCfg, 100);
    defRec.recordMarker(obs::TraceKind::SnapshotRestore);
    EXPECT_TRUE(defRec.buffer().events.empty());
}

// ---------------------------------------------------------------------
// Category grammar + spec section
// ---------------------------------------------------------------------

TEST(TraceCats, ParseGrammar)
{
    std::uint32_t mask = 0;
    std::string err;
    EXPECT_TRUE(obs::parseTraceCats("all", &mask, &err));
    EXPECT_EQ(mask, obs::kAllCats);
    EXPECT_TRUE(obs::parseTraceCats("none", &mask, &err));
    EXPECT_EQ(mask, 0u);
    EXPECT_TRUE(obs::parseTraceCats("default", &mask, &err));
    EXPECT_EQ(mask, obs::kDefaultCats);
    EXPECT_TRUE(obs::parseTraceCats("signal,mem", &mask, &err));
    EXPECT_EQ(mask, obs::kCatSignal | obs::kCatMem);
    EXPECT_TRUE(obs::parseTraceCats("sched rtcall", &mask, &err));
    EXPECT_EQ(mask, obs::kCatSched | obs::kCatRtcall);

    EXPECT_FALSE(obs::parseTraceCats("signal,bogus", &mask, &err));
    EXPECT_NE(err.find("bogus"), std::string::npos);
}

TEST(TraceCats, DefaultMaskExcludesHostSensitiveCategories)
{
    // The whole determinism story rests on this: engine events differ
    // across --engine and snapshot markers differ across save legs.
    EXPECT_EQ(obs::kDefaultCats & obs::kCatEngine, 0u);
    EXPECT_EQ(obs::kDefaultCats & obs::kCatSnapshot, 0u);
    // Every kind maps into exactly one known category bit.
    for (std::uint16_t k = 0;
         k < static_cast<std::uint16_t>(obs::TraceKind::NumKinds); ++k) {
        auto kind = static_cast<obs::TraceKind>(k);
        std::uint32_t cat = obs::traceKindCat(kind);
        EXPECT_NE(cat & obs::kAllCats, 0u) << obs::traceKindName(kind);
        EXPECT_EQ(cat & (cat - 1), 0u) << obs::traceKindName(kind);
    }
}

TEST(TraceSpec, SectionParsesAndRejectsUnknowns)
{
    const char *text = R"(
[scenario]
name = spec_test

[machine misp]
ams = 2

[workload]
name = dense_mvm

[trace]
categories = sched mem
max_events = 128
)";
    driver::SpecFile spec;
    driver::Scenario sc;
    std::string err;
    ASSERT_TRUE(driver::SpecFile::parse(text, "<test>", &spec, &err))
        << err;
    ASSERT_TRUE(driver::Scenario::fromSpec(spec, &sc, &err)) << err;
    EXPECT_EQ(sc.trace.catMask, obs::kCatSched | obs::kCatMem);
    EXPECT_EQ(sc.trace.maxEvents, 128u);
    EXPECT_FALSE(sc.trace.enabled); // only --trace switches it on

    std::string bad = text;
    bad.replace(bad.find("sched mem"), 9, "sched bog");
    driver::SpecFile badSpec;
    ASSERT_TRUE(
        driver::SpecFile::parse(bad, "<test>", &badSpec, &err))
        << err;
    driver::Scenario badSc;
    EXPECT_FALSE(driver::Scenario::fromSpec(badSpec, &badSc, &err));
    EXPECT_NE(err.find("bog"), std::string::npos);
}

// ---------------------------------------------------------------------
// The determinism contract, end to end
// ---------------------------------------------------------------------

TEST(TraceDeterminism, ByteIdenticalAcrossEngines)
{
    std::string ref;
    for (cpu::Engine e :
         {cpu::Engine::Reference, cpu::Engine::Superblock}) {
        harness::RunRequest req = tracedRequest();
        req.config.misp.engine = e;
        harness::RunRecord rec = harness::runOne(req);
        ASSERT_TRUE(rec.ok());
        EXPECT_GT(rec.trace.events.size(), 0u);
        EXPECT_EQ(rec.trace.dropped, 0u);
        // Record order follows the event queue: seq never decreases.
        for (std::size_t i = 1; i < rec.trace.events.size(); ++i)
            EXPECT_GE(rec.trace.events[i].seq,
                      rec.trace.events[i - 1].seq);
        std::string json = render("engines", rec.trace);
        if (ref.empty())
            ref = json;
        else
            EXPECT_EQ(json, ref) << cpu::engineName(e);
    }
}

TEST(TraceDeterminism, ByteIdenticalAcrossJobsAndIsolate)
{
    driver::RunnerOptions serial;
    serial.hostLines = false;
    serial.traceEnabled = true;

    driver::RunnerOptions pool = serial;
    pool.jobs = 2;

    driver::RunnerOptions isolate = pool;
    isolate.isolate = true;

    std::vector<driver::PointResult> a = runScenario(serial);
    std::vector<driver::PointResult> b = runScenario(pool);
    std::vector<driver::PointResult> c = runScenario(isolate);
    ASSERT_EQ(a.size(), 3u);
    ASSERT_EQ(b.size(), a.size());
    ASSERT_EQ(c.size(), a.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_TRUE(a[i].run.ok());
        EXPECT_GT(a[i].run.trace.events.size(), 0u);
        std::string expect = render("pt", a[i].run.trace);
        EXPECT_EQ(render("pt", b[i].run.trace), expect) << i;
        EXPECT_EQ(render("pt", c[i].run.trace), expect) << i;
    }
}

TEST(TraceDeterminism, SaveLegMatchesColdAndRestoreMatchesSkip)
{
    const std::string image = tempPath("trace_legs.misnap");

    harness::RunRequest cold = tracedRequest();
    harness::RunRecord coldRec = harness::runOne(cold);
    ASSERT_TRUE(coldRec.ok());
    ASSERT_GT(coldRec.trace.events.size(), 0u);

    // Save leg: warms up, archives, runs on. Under the default mask
    // the snapshot.save marker is filtered, so the trace must be
    // byte-identical to the uninterrupted run's.
    harness::RunRequest save = cold;
    save.snapshotOut = image;
    save.warmupTicks = coldRec.ticks / 3;
    harness::RunRecord saveRec = harness::runOne(save);
    ASSERT_TRUE(saveRec.ok());
    EXPECT_EQ(render("cold", saveRec.trace),
              render("cold", coldRec.trace));

    // Restore leg: the recorder's base lands on the restore point's
    // processed-event cursor — a strict filter of the cold trace.
    harness::RunRequest warm = cold;
    warm.snapshotIn = image;
    harness::RunRecord warmRec = harness::runOne(warm);
    ASSERT_TRUE(warmRec.ok());
    const std::uint64_t base = warmRec.trace.base;
    EXPECT_GT(base, 0u);
    std::vector<obs::TraceEvent> tail;
    for (const obs::TraceEvent &ev : coldRec.trace.events)
        if (ev.seq > base)
            tail.push_back(ev);
    ASSERT_EQ(warmRec.trace.events.size(), tail.size());
    for (std::size_t i = 0; i < tail.size(); ++i) {
        EXPECT_EQ(warmRec.trace.events[i].seq, tail[i].seq);
        EXPECT_EQ(warmRec.trace.events[i].tick, tail[i].tick);
        EXPECT_EQ(warmRec.trace.events[i].kind, tail[i].kind);
    }

    // And the documented reproduction recipe: a cold run with
    // --trace-skip at the restored base emits the identical trace.
    harness::RunRequest skip = cold;
    skip.traceSkip = base;
    harness::RunRecord skipRec = harness::runOne(skip);
    ASSERT_TRUE(skipRec.ok());
    EXPECT_EQ(render("leg", skipRec.trace), render("leg", warmRec.trace));

    std::remove(image.c_str());
}

TEST(TraceDeterminism, TracingDoesNotPerturbResultsOrImages)
{
    const std::string traced = tempPath("trace_on.misnap");
    const std::string plain = tempPath("trace_off.misnap");

    harness::RunRequest on = tracedRequest();
    on.snapshotOut = traced;
    on.warmupTicks = 10'000'000;
    harness::RunRecord onRec = harness::runOne(on);

    harness::RunRequest off = on;
    off.trace.enabled = false;
    off.snapshotOut = plain;
    harness::RunRecord offRec = harness::runOne(off);

    ASSERT_TRUE(onRec.ok());
    ASSERT_TRUE(offRec.ok());
    EXPECT_EQ(onRec.ticks, offRec.ticks);
    EXPECT_EQ(onRec.instsRetired, offRec.instsRetired);
    EXPECT_TRUE(offRec.trace.events.empty());

    // Tracing is excluded from configHash and touches no machine
    // state: the archived images must be byte-identical.
    std::string a = slurp(traced);
    std::string b = slurp(plain);
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, b);

    std::remove(traced.c_str());
    std::remove(plain.c_str());
}

// ---------------------------------------------------------------------
// Wire codec
// ---------------------------------------------------------------------

TEST(TraceCodec, RoundTripCarriesTraceAndPhases)
{
    harness::RunRecord rec;
    rec.status = harness::RunStatus::Completed;
    rec.ticks = 123456;
    rec.instsRetired = 42;
    rec.attempts = 3;
    rec.phases.parse = 0.25;
    rec.phases.warmup = 0.5;
    rec.phases.run = 1.5;
    rec.phases.serialize = 0.125;
    rec.trace.base = 7;
    rec.trace.dropped = 2;
    rec.trace.catMask = obs::kDefaultCats;
    rec.trace.maxEvents = 16;
    for (int i = 0; i < 3; ++i) {
        obs::TraceEvent ev;
        ev.tick = 100 + i;
        ev.seq = 8 + i;
        ev.kind = static_cast<std::uint16_t>(obs::TraceKind::ShredStart);
        ev.sid = static_cast<std::uint16_t>(i);
        ev.aux = 5;
        ev.arg0 = 0xAB00 + i;
        ev.arg1 = i;
        rec.trace.events.push_back(ev);
    }

    std::string wire = snap::encodeRunRecord(rec);
    harness::RunRecord out;
    std::string err;
    ASSERT_TRUE(snap::decodeRunRecord(wire, &out, &err)) << err;
    EXPECT_EQ(out.attempts, 3u);
    EXPECT_EQ(out.phases.run, 1.5);
    EXPECT_EQ(out.phases.serialize, 0.125);
    EXPECT_EQ(out.trace.base, 7u);
    EXPECT_EQ(out.trace.dropped, 2u);
    EXPECT_EQ(out.trace.catMask, obs::kDefaultCats);
    EXPECT_EQ(out.trace.maxEvents, 16u);
    EXPECT_EQ(render("codec", out.trace), render("codec", rec.trace));
}

TEST(TraceCodec, FailsClosedOnGarbage)
{
    harness::RunRecord rec;
    rec.trace.events.resize(2);
    std::string wire = snap::encodeRunRecord(rec);

    harness::RunRecord out;
    std::string err;
    // Truncation anywhere in the trace payload is an error, not a
    // short read.
    EXPECT_FALSE(snap::decodeRunRecord(
        wire.substr(0, wire.size() - 10), &out, &err));

    // An out-of-range kind is rejected (the enum is append-only, so a
    // kind from the future means a codec mismatch).
    harness::RunRecord badKind;
    badKind.trace.events.resize(1);
    badKind.trace.events[0].kind = 999;
    EXPECT_FALSE(snap::decodeRunRecord(snap::encodeRunRecord(badKind),
                                       &out, &err));
    EXPECT_FALSE(err.empty());
}

// ---------------------------------------------------------------------
// Plane 2: the supervisor run log under chaos
// ---------------------------------------------------------------------

TEST(RunLog, DispatchCountMatchesAttemptsUnderChaos)
{
    std::ostringstream logStream;
    obs::RunLog runLog(&logStream);

    driver::RunnerOptions opts;
    opts.hostLines = false;
    opts.traceEnabled = true;
    opts.isolate = true;
    opts.jobs = 2;
    opts.runLog = &runLog;
    const std::string chaos = std::string(kTraceScn) +
                              "[run]\nretries = 3\nretry_backoff_ms = 1\n"
                              "[faults]\nseed = 9\ninject = crash@p0.5\n";

    std::vector<driver::ScenarioPoint> pts;
    std::vector<driver::PointResult> results =
        runScenario(opts, &pts, chaos.c_str());
    ASSERT_EQ(results.size(), 3u);

    const std::string log = logStream.str();
    unsigned totalAttempts = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
        totalAttempts += results[i].run.attempts;
        // Per point: one dispatched line per attempt (even attempts
        // the fault plan kills before fork), exactly one terminal
        // completed line, and attempts-1 retried lines.
        std::string label = pts[i].machine.name + ":" +
                            pts[i].workload.name + " " +
                            pts[i].coords.str();
        std::string key = "\"point\":\"" + label + "\"";
        int dispatched = 0, completed = 0, retried = 0;
        std::istringstream lines(log);
        std::string line;
        while (std::getline(lines, line)) {
            if (line.find(key) == std::string::npos)
                continue;
            dispatched += line.find("\"event\":\"dispatched\"") !=
                          std::string::npos;
            completed += line.find("\"event\":\"completed\"") !=
                         std::string::npos;
            retried += line.find("\"event\":\"retried\"") !=
                       std::string::npos;
        }
        EXPECT_EQ(dispatched,
                  static_cast<int>(results[i].run.attempts))
            << label;
        EXPECT_EQ(completed, 1) << label;
        EXPECT_EQ(retried,
                  static_cast<int>(results[i].run.attempts) - 1)
            << label;
    }
    EXPECT_EQ(countOf(log, "\"event\":\"dispatched\""),
              static_cast<int>(totalAttempts));
    // Every line is self-describing JSONL with a monotonic timestamp.
    EXPECT_EQ(countOf(log, "\"ts_ms\":"), countOf(log, "\n"));

    // Chaos must not perturb the simulated plane: the surviving
    // points' traces are byte-identical to a clean serial run's.
    driver::RunnerOptions clean;
    clean.hostLines = false;
    clean.traceEnabled = true;
    std::vector<driver::PointResult> ref = runScenario(clean);
    for (std::size_t i = 0; i < results.size(); ++i) {
        if (!results[i].run.ok())
            continue;
        EXPECT_EQ(render("pt", results[i].run.trace),
                  render("pt", ref[i].run.trace))
            << i;
    }
}

// ---------------------------------------------------------------------
// CLI surface audit
// ---------------------------------------------------------------------

TEST(CliHelp, UsageNamesEveryRegisteredFlag)
{
    const std::string usage = driver::mispsimUsage("mispsim");
    const std::vector<std::string> names = driver::mispsimFlagNames();
    ASSERT_FALSE(names.empty());
    for (const std::string &name : names)
        EXPECT_NE(usage.find(name), std::string::npos) << name;

    // The observability flags this PR adds must be part of the
    // audited surface.
    for (const char *flag : {"--trace", "--trace-skip", "--run-log",
                             "--progress", "--profile"})
        EXPECT_NE(std::find(names.begin(), names.end(), flag),
                  names.end())
            << flag;
}

TEST(CliHelp, ParserMatchesExactlyTheRegisteredFlags)
{
    // The flags mispsim's parser matches, read from its source: each
    // strcmp(arg, "...") literal and each strncmp(arg, "--x=", ...)
    // prefix, its '=' stripped as mispsimFlagNames() strips it.
    std::ifstream in(std::string(MISP_SOURCE_ROOT) + "/tools/mispsim.cc");
    ASSERT_TRUE(in);
    std::ostringstream text;
    text << in.rdbuf();
    const std::string src = text.str();
    std::set<std::string> parsed;
    for (const std::string call : {"strcmp(arg, \"", "strncmp(arg, \""}) {
        for (std::size_t at = src.find(call); at != std::string::npos;
             at = src.find(call, at + 1)) {
            const std::size_t begin = at + call.size();
            const std::size_t end = src.find('"', begin);
            if (end == std::string::npos || end == begin)
                continue;
            std::string name = src.substr(begin, end - begin);
            if (name.back() == '=')
                name.pop_back();
            parsed.insert(name);
        }
    }
    EXPECT_TRUE(parsed.count("--engine"));

    const std::vector<std::string> names = driver::mispsimFlagNames();
    const std::set<std::string> registered(names.begin(), names.end());
    EXPECT_EQ(parsed, registered);
}

TEST(CliHelp, ExitCodeTableIsCompleteAndRendered)
{
    const std::vector<driver::CliExitCode> &codes =
        driver::mispsimExitCodes();
    std::vector<int> values;
    for (const driver::CliExitCode &c : codes)
        values.push_back(c.code);
    // The full exit surface of mispsim, in one auditable place:
    // 0 success, 1 run/validation failure, 2 usage error, 4 partial
    // sweep (some points failed infra-side).
    EXPECT_EQ(values, (std::vector<int>{0, 1, 2, 4}));
    EXPECT_TRUE(std::is_sorted(values.begin(), values.end()));

    const std::string usage = driver::mispsimUsage("mispsim");
    EXPECT_NE(usage.find("exit codes"), std::string::npos);
    for (const driver::CliExitCode &c : codes) {
        // The renderer indents continuation lines, so match on the
        // "  <code>  <first help line>" prefix.
        std::string help(c.help);
        std::string entry = "  " + std::to_string(c.code) + "  " +
                            help.substr(0, help.find('\n'));
        EXPECT_NE(usage.find(entry), std::string::npos) << entry;
    }
}
