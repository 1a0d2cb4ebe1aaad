/**
 * @file
 * Sharded-sweep merge tests: the deterministic grid partition
 * (--shard k/N), the shard image writer/reader round trip, the
 * fail-closed merge validation (truncated, corrupt and foreign
 * images, overlaps, gaps, hash/scenario/quick mismatches — each
 * diagnostic naming the offending file), degraded-shard merges
 * carrying every record bit for bit, the merged CLI output against
 * the serial run's, and the shared JSON quoting/number helpers both
 * emitters lean on for byte-identity.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <sstream>

#include <sys/wait.h>

#include "driver/runner.hh"
#include "driver/scenario.hh"
#include "driver/shard.hh"
#include "driver/spec.hh"
#include "harness/experiment.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"
#include "snapshot/snapshot.hh"

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

/** A small two-machine, two-axis sweep: 4 combinations x 2 machines
 *  = 8 points, the smallest grid where a 3-way shard split leaves
 *  shards with unequal point counts. */
const char *kSpec = R"(
[scenario]
name = shardtest
title = shard-merge test sweep

[machine 1p]
processors = 0
backend = os

[machine misp]
processors = 3
backend = shred

[workload]
name = dense_mvm
scale = 1

[sweep]
machine.signal_cycles = 1000, 1040
workload.workers = 1, 2

[report]
baseline_machine = 1p
)";

Scenario
testScenario()
{
    SpecFile spec;
    Scenario sc;
    std::string err;
    EXPECT_TRUE(SpecFile::parse(kSpec, "<test>", &spec, &err)) << err;
    EXPECT_TRUE(Scenario::fromSpec(spec, &sc, &err)) << err;
    return sc;
}

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + name;
}

/** Run the whole grid once (serial, in-process); cached because every
 *  merge test slices the same results. */
struct GridRun {
    Scenario sc;
    std::shared_ptr<const GridTable> grid;
    std::vector<ScenarioPoint> points;
    std::vector<PointResult> results;
};

const GridRun &
gridRun()
{
    static GridRun *run = [] {
        GridRun *r = new GridRun;
        r->sc = testScenario();
        std::string err;
        EXPECT_TRUE(r->sc.expandGrid(false, &r->grid, &err)) << err;
        EXPECT_TRUE(r->sc.expandPoints(false, &r->points, &err)) << err;
        RunnerOptions opts;
        opts.hostLines = false;
        r->results = ScenarioRunner(opts).runAll(r->sc, r->points);
        return r;
    }();
    return *run;
}

std::string
serialMetrics(const GridRun &run)
{
    harness::MetricFrame frame = buildMetricFrame(run.sc, run.results);
    std::ostringstream os;
    writeMetricsJson(os, run.sc, false, frame);
    return os.str();
}

/** Shard k/N's image, built from @p results (defaults to the cached
 *  grid's — degraded tests pass a doctored copy); @p doctor edits the
 *  header before encoding, so a tampered field still carries a valid
 *  CRC and reaches the merge's own checks. */
std::string
shardImage(const GridRun &run, std::size_t k, std::size_t n,
           const std::function<void(ShardHeader &)> &doctor = {},
           const std::vector<PointResult> *results = nullptr)
{
    const std::vector<PointResult> &all =
        results ? *results : run.results;
    ShardHeader header =
        makeShardHeader(run.sc, false, ShardSpec{k, n}, *run.grid);
    std::vector<std::string> owned;
    for (std::size_t g : header.indices)
        owned.push_back(snap::encodeRunRecord(all[g].run));
    if (doctor)
        doctor(header);
    return encodeShardImage(header, owned);
}

std::string
writeImage(const std::string &name, const std::string &bytes)
{
    const std::string path = tempPath(name);
    std::ofstream os(path, std::ios::binary);
    os << bytes;
    return path;
}

/** Read and merge @p paths; false + @p err on any rejection. */
bool
mergeResults(const GridRun &run, const std::vector<std::string> &paths,
             Sweep *out, std::string *err)
{
    std::vector<ShardDump> dumps;
    for (const std::string &p : paths) {
        if (!readShardImage(p, &dumps.emplace_back(), err))
            return false;
    }
    return mergeShardDumps(run.sc, false, run.grid, std::move(dumps), out,
                           err);
}

/** The merged `--metrics` text; "" when the merge is rejected. */
std::string
mergeMetrics(const GridRun &run, const std::vector<std::string> &paths,
             std::string *err)
{
    Sweep merged;
    if (!mergeResults(run, paths, &merged, err))
        return "";
    std::ostringstream os;
    writeMetricsJson(os, run.sc, false, merged.frame);
    return os.str();
}

/** Merge @p paths expecting a rejection; returns its diagnostic. */
std::string
mergeError(const GridRun &run, const std::vector<std::string> &paths)
{
    Sweep merged;
    std::string err;
    EXPECT_FALSE(mergeResults(run, paths, &merged, &err));
    return err;
}

/** The grid with one misp point (not the baseline machine, so every
 *  other row's speedup denominator is untouched) turned into a
 *  supervised crash after 3 attempts; @p victim gets its index. */
std::vector<PointResult>
crashedGrid(const GridRun &run, std::size_t *victim)
{
    std::vector<PointResult> doctored = run.results;
    *victim = harness::MetricFrame::npos;
    for (std::size_t i = 0; i < doctored.size(); ++i) {
        if (doctored[i].coords.machine() == "misp") {
            *victim = i;
            break;
        }
    }
    EXPECT_NE(*victim, harness::MetricFrame::npos);
    harness::RunRecord &rec = doctored[*victim].run;
    rec.status = harness::RunStatus::WorkerCrashed;
    rec.valid = false;
    rec.attempts = 3;
    rec.note = "gave up after 3 attempts: worker killed by signal 6";
    return doctored;
}

/** One `mispsim` invocation's exit code and output. */
struct CliRun {
    int rc = -1;
    std::string out;
    std::string err;
};

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

CliRun
mispsim(const std::string &args)
{
    const std::string outPath = tempPath("sm_cli.out");
    const std::string errPath = tempPath("sm_cli.err");
    const std::string cmd = std::string(MISPSIM_BIN) + " " + args +
                            " > " + outPath + " 2> " + errPath;
    const int status = std::system(cmd.c_str());
    CliRun r;
    if (WIFEXITED(status))
        r.rc = WEXITSTATUS(status);
    r.out = slurp(outPath);
    r.err = slurp(errPath);
    return r;
}

/** The `mispsim: point ...` failure lines of @p stderrText. */
std::string
failureLines(const std::string &stderrText)
{
    std::istringstream in(stderrText);
    std::string line, out;
    while (std::getline(in, line)) {
        if (line.rfind("mispsim: point ", 0) == 0)
            out += line + "\n";
    }
    return out;
}

} // namespace

// ---------------------------------------------------------------------
// Shard spec + partition
// ---------------------------------------------------------------------

TEST(ShardSpec, ParsesAndRejects)
{
    ShardSpec s;
    std::string err;
    EXPECT_TRUE(parseShardSpec("0/4", &s, &err));
    EXPECT_EQ(s.index, 0u);
    EXPECT_EQ(s.count, 4u);
    EXPECT_TRUE(parseShardSpec("3/4", &s, &err));
    EXPECT_EQ(s.index, 3u);

    EXPECT_FALSE(parseShardSpec("4/4", &s, &err));
    EXPECT_NE(err.find("out of range"), std::string::npos);
    EXPECT_FALSE(parseShardSpec("0/0", &s, &err));
    EXPECT_FALSE(parseShardSpec("1", &s, &err));
    EXPECT_FALSE(parseShardSpec("a/b", &s, &err));
    EXPECT_FALSE(parseShardSpec("/2", &s, &err));
    EXPECT_FALSE(parseShardSpec("-1/2", &s, &err));
}

TEST(ShardSpec, OverflowingFieldsRejectedNotClamped)
{
    // strtoull saturates at 2^64-1; an overflowing field must be an
    // error, not a silently clamped shard count.
    ShardSpec s;
    std::string err;
    EXPECT_FALSE(
        parseShardSpec("0/99999999999999999999999", &s, &err));
    EXPECT_NE(err.find("out-of-range"), std::string::npos) << err;
    EXPECT_FALSE(
        parseShardSpec("99999999999999999999999/1", &s, &err));
    EXPECT_TRUE(parseShardSpec("0/18446744073709551615", &s, &err));
    EXPECT_EQ(s.count, 18446744073709551615ull);
}

TEST(ShardSpec, PartitionCoversDisjointAndKeepsGroupsWhole)
{
    const std::size_t machines = 2, total = 14; // 7 combos
    std::vector<int> owner(total, -1);
    for (std::size_t k = 0; k < 3; ++k) {
        for (std::size_t g :
             shardPointIndices(ShardSpec{k, 3}, total, machines)) {
            ASSERT_LT(g, total);
            EXPECT_EQ(owner[g], -1) << "point " << g << " owned twice";
            owner[g] = static_cast<int>(k);
        }
    }
    for (std::size_t g = 0; g < total; ++g) {
        EXPECT_NE(owner[g], -1) << "point " << g << " unowned";
        // Both machines of one combination land on the same shard.
        EXPECT_EQ(owner[g], owner[g - g % machines]);
    }
}

// ---------------------------------------------------------------------
// Clean merge: byte-identical to the serial run
// ---------------------------------------------------------------------

TEST(ShardMerge, MergedFrameIsByteIdenticalToSerial)
{
    const GridRun &run = gridRun();
    const std::string serial = serialMetrics(run);

    // 3-way split of 4 combos: shard 0 gets two combos, 1 and 2 one
    // each — exercises unequal shard sizes.
    std::vector<std::string> paths;
    for (std::size_t k = 0; k < 3; ++k)
        paths.push_back(writeImage("sm_clean" + std::to_string(k) +
                                       ".shard",
                                   shardImage(run, k, 3)));
    std::string err;
    const std::string merged = mergeMetrics(run, paths, &err);
    EXPECT_EQ(merged, serial) << err;
}

TEST(ShardMerge, SingleShardRoundTrips)
{
    const GridRun &run = gridRun();
    std::vector<std::string> paths = {
        writeImage("sm_single.shard", shardImage(run, 0, 1))};
    std::string err;
    EXPECT_EQ(mergeMetrics(run, paths, &err), serialMetrics(run))
        << err;
}

// ---------------------------------------------------------------------
// Degraded shards: failure columns and notes survive the merge
// ---------------------------------------------------------------------

TEST(ShardMerge, DegradedShardPreservesRecordsExactly)
{
    const GridRun &run = gridRun();
    std::size_t victim = 0;
    const std::vector<PointResult> doctored = crashedGrid(run, &victim);

    std::vector<std::string> paths;
    for (std::size_t k = 0; k < 2; ++k)
        paths.push_back(writeImage("sm_degraded" + std::to_string(k) +
                                       ".shard",
                                   shardImage(run, k, 2, {}, &doctored)));
    Sweep merged;
    std::string err;
    ASSERT_TRUE(mergeResults(run, paths, &merged, &err)) << err;

    // Every record's row crosses the merge exactly — failure status
    // and attempt count included — on its grid coordinates, and the
    // failure note lands in the notes side table.
    const harness::MetricFrame want = buildMetricFrame(run.sc, doctored);
    const harness::MetricFrame &frame = merged.frame;
    ASSERT_EQ(frame.numRows(), want.numRows());
    for (std::size_t i = 0; i < frame.numRows(); ++i) {
        EXPECT_EQ(describePoint(frame, i), describePoint(want, i));
        EXPECT_EQ(frame.status(i), want.status(i)) << "point " << i;
        for (const std::string &m : want.metrics())
            EXPECT_EQ(frame.at(i, m), want.at(i, m))
                << "point " << i << " " << m;
    }
    EXPECT_EQ(merged.notes.size(), 1u);
    EXPECT_EQ(merged.notes[victim], doctored[victim].run.note);
    EXPECT_TRUE(merged.stats.empty());

    EXPECT_EQ(frame.status(victim),
              harness::RunStatus::WorkerCrashed);
    EXPECT_EQ(frame.at(victim, "failed"), 1.0);
    EXPECT_EQ(frame.at(victim, "attempts"), 3.0);
    EXPECT_EQ(frame.at(victim, "valid"), 0.0);
}

TEST(ShardMerge, CliTablesAndFailureLinesMatchSerial)
{
    // End to end through mispsim: a [table] spec, one point crashing
    // its worker on every attempt. The merged stdout and failure
    // lines (failure notes included) equal the serial run's.
    const std::string spec = tempPath("sm_cli.scn");
    writeImage("sm_cli.scn",
               std::string(kSpec) +
                   "\n[table]\ntitle = misp speedup\n"
                   "column = 1p (Mcyc) = 1p.mcycles\n"
                   "column = misp = misp.speedup\n");
    const std::string supervise =
        " --isolate --inject 'seed=3;crash@1' --retries 1 --backoff 1"
        " --on-failed skip";
    const CliRun serial = mispsim(spec + supervise);
    ASSERT_EQ(serial.rc, 4) << serial.err;
    ASSERT_NE(failureLines(serial.err), "") << serial.err;

    std::string inputs;
    for (int k = 0; k < 2; ++k) {
        const std::string img =
            tempPath("sm_cli" + std::to_string(k) + ".shard");
        const CliRun shard = mispsim(spec + supervise + " --shard " +
                                     std::to_string(k) + "/2 --metrics " +
                                     img);
        ASSERT_EQ(shard.rc, k == 0 ? 4 : 0) << shard.err;
        inputs += " " + img;
    }
    const CliRun merged =
        mispsim(spec + " --on-failed skip --merge-frames " +
                tempPath("sm_cli_merged.json") + inputs);
    EXPECT_EQ(merged.rc, 4) << merged.err;
    EXPECT_NE(serial.out.find("misp speedup"), std::string::npos);
    EXPECT_EQ(merged.out, serial.out);
    EXPECT_EQ(failureLines(merged.err), failureLines(serial.err));
}

TEST(ShardMerge, ShardTableHasNoBaselineFromTheOtherShard)
{
    // fig7.scn's per-point table carries vs_competitors0 ([report]
    // baseline_axis = competitors); --quick sweeps competitors 0..2.
    // Shard 0/2 holds competitors 0 and 2, so its ratios are the serial
    // run's; shard 1/2 holds only competitors 1, whose baseline rows
    // live in shard 0, so its cells read `-` (no baseline).
    const std::string spec =
        std::string(MISP_SOURCE_ROOT) + "/scenarios/fig7.scn --quick";
    // "machine competitors vs_competitors0" per row of a shard's table.
    auto ratios = [&](const std::string &shard) {
        const CliRun r = mispsim(spec + " --shard " + shard);
        EXPECT_EQ(r.rc, 0) << r.err;
        std::istringstream in(r.out);
        std::string line, out;
        while (std::getline(in, line)) {
            std::istringstream cells(line);
            std::string machine, workload, competitors, mcycles, vs;
            if (cells >> machine >> workload >> competitors >> mcycles >>
                    vs &&
                workload == "Raytracer")
                out += machine + " " + competitors + " " + vs + "\n";
        }
        return out;
    };
    EXPECT_EQ(ratios("0/2"), "4x2 0 1.000\n2x4 0 1.000\n1x8 0 1.000\n"
                             "1x4+4 0 1.000\nideal 0 1.000\nsmp 0 1.000\n"
                             "4x2 2 1.000\n2x4 2 0.663\n1x8 2 0.340\n"
                             "1x4+4 2 1.000\nideal 2 1.000\nsmp 2 0.897\n");
    EXPECT_EQ(ratios("1/2"), "4x2 1 -\n2x4 1 -\n1x8 1 -\n1x4+4 1 -\n"
                             "ideal 1 -\nsmp 1 -\n");
}

// ---------------------------------------------------------------------
// Fail-closed validation: every rejection names the offending file
// ---------------------------------------------------------------------

TEST(ShardMerge, TruncatedImageFailsClosedNamingFile)
{
    const GridRun &run = gridRun();
    const std::string image = shardImage(run, 0, 2);
    for (std::size_t keep : {std::size_t{0}, std::size_t{7},
                             image.size() / 2, image.size() - 1}) {
        const std::string path =
            writeImage("sm_trunc.shard", image.substr(0, keep));
        ShardDump dump;
        std::string err;
        EXPECT_FALSE(readShardImage(path, &dump, &err)) << keep;
        EXPECT_NE(err.find(path), std::string::npos) << err;
    }
}

TEST(ShardMerge, FlippedByteFailsClosedNamingFile)
{
    const GridRun &run = gridRun();
    const std::string image = shardImage(run, 0, 2);
    // One byte in the header section, one deep in the records.
    for (std::size_t at : {std::size_t{60}, image.size() - 9}) {
        std::string bad = image;
        bad[at] = static_cast<char>(bad[at] ^ 0x5a);
        const std::string path = writeImage("sm_flip.shard", bad);
        ShardDump dump;
        std::string err;
        EXPECT_FALSE(readShardImage(path, &dump, &err)) << at;
        EXPECT_NE(err.find(path), std::string::npos) << err;
    }
}

TEST(ShardMerge, SnapshotImageIsNotAShardImage)
{
    // A real machine snapshot: a valid container with valid CRCs, but
    // no shard header.
    const GridRun &run = gridRun();
    Scenario sc = run.sc;
    sc.snapshotWarmupTicks = 10000;
    RunnerOptions opts;
    opts.hostLines = false;
    opts.snapshotSaveDir = ::testing::TempDir();
    ScenarioRunner(opts).runPoint(sc, run.points[0], 0);
    const std::string snapshot =
        snapshotPointPath(::testing::TempDir(), 0);
    std::string image, err;
    ASSERT_TRUE(snap::readFileBytes(snapshot, &image, &err)) << err;
    ASSERT_GT(image.size(), 0u);

    ShardDump dump;
    EXPECT_FALSE(readShardImage(snapshot, &dump, &err));
    EXPECT_NE(err.find(snapshot), std::string::npos) << err;
    EXPECT_NE(err.find("not a shard image"), std::string::npos) << err;
}

TEST(ShardMerge, MissingFileFailsClosed)
{
    ShardDump dump;
    std::string err;
    const std::string path = tempPath("sm_nonexistent.shard");
    EXPECT_FALSE(readShardImage(path, &dump, &err));
    EXPECT_NE(err.find(path), std::string::npos) << err;
}

TEST(ShardMerge, OverlappingShardsRejected)
{
    const GridRun &run = gridRun();
    const std::string err = mergeError(
        run, {writeImage("sm_ov0.shard", shardImage(run, 0, 2)),
              writeImage("sm_ov1.shard", shardImage(run, 1, 2)),
              writeImage("sm_ov0b.shard", shardImage(run, 0, 2))});
    EXPECT_NE(err.find("overlaps"), std::string::npos) << err;
    EXPECT_NE(err.find("sm_ov0b.shard"), std::string::npos) << err;
}

TEST(ShardMerge, MissingShardIsAGap)
{
    const GridRun &run = gridRun();
    const std::string err = mergeError(
        run, {writeImage("sm_gap0.shard", shardImage(run, 0, 3)),
              writeImage("sm_gap2.shard", shardImage(run, 2, 3))});
    EXPECT_NE(err.find("missing"), std::string::npos) << err;
    EXPECT_NE(err.find("1/3"), std::string::npos) << err;
    EXPECT_NE(err.find("sm_gap0.shard"), std::string::npos) << err;
}

TEST(ShardMerge, HugeShardCountIsAGapNotAnAllocation)
{
    // The declared count sizes nothing: a count far past the inputs
    // is the gap diagnostic, not a bad_alloc.
    const GridRun &run = gridRun();
    for (std::size_t count : {std::size_t{400000000},
                              std::size_t{1000000000000000}}) {
        const std::string err = mergeError(
            run, {writeImage("sm_huge.shard",
                             shardImage(run, 0, 1, [&](ShardHeader &h) {
                                 h.shard.count = count;
                             }))});
        EXPECT_NE(err.find("gap"), std::string::npos) << err;
        EXPECT_NE(err.find("sm_huge.shard"), std::string::npos) << err;
    }
}

TEST(ShardMerge, ConfigHashMismatchRejectedNamingFile)
{
    const GridRun &run = gridRun();
    const std::string err = mergeError(
        run, {writeImage("sm_badhash.shard",
                         shardImage(run, 0, 1, [](ShardHeader &h) {
                             h.configHash ^= 0xdeadbeefull;
                         }))});
    EXPECT_NE(err.find("config hash"), std::string::npos) << err;
    EXPECT_NE(err.find("sm_badhash.shard"), std::string::npos) << err;
}

TEST(ShardMerge, TamperedIndicesRejected)
{
    const GridRun &run = gridRun();
    // Shard 0 of 2 over 4 combos x 2 machines owns 0,1,4,5.
    const std::string err = mergeError(
        run, {writeImage("sm_badidx.shard",
                         shardImage(run, 0, 2,
                                    [](ShardHeader &h) {
                                        ASSERT_EQ(h.indices,
                                                  (std::vector<std::size_t>{
                                                      0, 1, 4, 5}));
                                        h.indices.back() = 6;
                                    })),
              writeImage("sm_badidx1.shard", shardImage(run, 1, 2))});
    EXPECT_NE(err.find("partition"), std::string::npos) << err;
    EXPECT_NE(err.find("sm_badidx.shard"), std::string::npos) << err;
}

TEST(ShardMerge, WrongScenarioRejected)
{
    const GridRun &run = gridRun();
    const std::string err = mergeError(
        run, {writeImage("sm_badscn.shard",
                         shardImage(run, 0, 1, [](ShardHeader &h) {
                             h.scenario = "other";
                         }))});
    EXPECT_NE(err.find("does not match"), std::string::npos) << err;
    EXPECT_NE(err.find("sm_badscn.shard"), std::string::npos) << err;
}

TEST(ShardMerge, QuickModeMismatchRejected)
{
    const GridRun &run = gridRun();
    const std::string err = mergeError(
        run, {writeImage("sm_badquick.shard",
                         shardImage(run, 0, 1, [](ShardHeader &h) {
                             h.quick = true;
                         }))});
    EXPECT_NE(err.find("quick"), std::string::npos) << err;
    EXPECT_NE(err.find("sm_badquick.shard"), std::string::npos) << err;
}

// ---------------------------------------------------------------------
// Bad specs fail at load, before the first point of any run mode
// ---------------------------------------------------------------------

TEST(LoadTimeDiagnostics, BadSpecsFailBeforeTheFirstPoint)
{
    // smoke.scn's grid (three quick points), then one bad line.
    const std::string base = "[scenario]\nname = smoke\n"
                             "[machine misp]\nams = 3\nbackend = shred\n"
                             "[workload]\nname = dense_mvm\nscale = 1\n"
                             "[sweep]\nworkload.workers = 1, 2, 3\n";
    const struct {
        const char *head; ///< section header (and lines) before the bad one
        const char *bad;
        const char *want;
    } cases[] = {
        {"[report]", "assert = avg( misp.Mcycles  >= 1",
         "assert 'avg( misp.Mcycles  >= 1': expected ')' closing "
         "avg(...), got '>='"},
        {"[table]", "column = x = misp.Mcyclez",
         "'x = misp.Mcyclez': 'misp.Mcyclez': unknown metric 'Mcyclez'"},
        {"[table]\ncolumn = x = misp.mcycles", "footer = y = misp.mcycles",
         "footer 'y': per-point references must sit inside an aggregate"},
        {"[machine big]", "phys_frames = 0",
         "physFrames is 0; a machine needs memory"},
        {"[machine big]", "slice_limit = 0",
         "misp.sliceLimit is 0; a slice must retire an instruction"},
        {"[machine big]", "timer_period = 0",
         "kernel.timerPeriod is 0; the timer would re-fire forever"},
        // A value listed twice, as spelled or after selector expansion.
        {"[quick]", "workload.workers = 1, 2, 1",
         "axis 'workload.workers' lists '1' twice"},
        {"[quick]", "workload.name = all, gauss",
         "axis 'workload.name' lists 'gauss' twice"},
    };
    const std::string path = tempPath("sm_bad.scn");
    for (const auto &c : cases) {
        const std::string head = base + c.head + "\n";
        const auto line = std::count(head.begin(), head.end(), '\n') + 1;
        std::ofstream(path) << head << c.bad << "\n";
        for (const char *mode : {"--dry-run", "--shard 1/2"}) {
            const CliRun r = mispsim(path + " --quick " + mode);
            EXPECT_EQ(r.rc, 1) << c.bad << " " << mode;
            // One diagnostic line and nothing else: no progress line,
            // no HOST line, no dry-run listing.
            EXPECT_EQ(r.err, "mispsim: " + path + ":" +
                                 std::to_string(line) + ": " + c.want +
                                 "\n")
                << mode;
            EXPECT_EQ(r.out, "") << c.bad << " " << mode;
        }
    }

    // A selector pinning an axis only [quick] sweeps: a full run (and
    // its dry run and shards) fails before the first point; under
    // --quick the axis exists and the spec runs.
    const std::string head = base +
                             "[quick]\nmachine.kernel_seed = 1\n"
                             "[report]\n";
    const auto line = std::count(head.begin(), head.end(), '\n') + 1;
    std::ofstream(path) << head
                        << "assert = misp[machine.kernel_seed=1].ticks > 1\n";
    for (const char *mode : {"", " --dry-run", " --shard 1/2"}) {
        const CliRun r = mispsim(path + mode);
        EXPECT_EQ(r.rc, 1) << "full" << mode;
        EXPECT_EQ(r.err, "mispsim: " + path + ":" + std::to_string(line) +
                             ": assert 'misp[machine.kernel_seed=1].ticks "
                             "> 1': selector axis 'machine.kernel_seed' "
                             "names no sweep coordinate (only [quick] "
                             "sweeps it)\n")
            << "full" << mode;
        EXPECT_EQ(r.out, "") << "full" << mode;
    }
    const CliRun quick = mispsim(path + " --quick");
    EXPECT_EQ(quick.rc, 0) << quick.err;
}

// ---------------------------------------------------------------------
// The shared JSON helpers (one copy; both emitters depend on their
// exact output for byte-identity)
// ---------------------------------------------------------------------

TEST(JsonHelpers, EscapeControlCharsAndQuotes)
{
    EXPECT_EQ(stats::jsonQuote("plain"), "\"plain\"");
    EXPECT_EQ(stats::jsonQuote("a\"b"), "\"a\\\"b\"");
    EXPECT_EQ(stats::jsonQuote("a\\b"), "\"a\\\\b\"");
    EXPECT_EQ(stats::jsonQuote("a\nb\tc"), "\"a\\nb\\tc\"");
    EXPECT_EQ(stats::jsonQuote(std::string("a\x01") + "b"),
              "\"a\\u0001b\"");
    EXPECT_EQ(stats::jsonQuote(std::string(1, '\0')), "\"\\u0000\"");
}

TEST(JsonHelpers, Utf8PassesThroughUntouched)
{
    const std::string utf8 = "caf\xc3\xa9 \xe2\x86\x92 \xf0\x9f\x9a\x80";
    EXPECT_EQ(stats::jsonQuote(utf8), "\"" + utf8 + "\"");
}

TEST(JsonHelpers, QuoteAndStreamAgree)
{
    const std::string s = "x\n\"y\"\\z";
    std::ostringstream os;
    stats::writeJsonQuoted(os, s);
    EXPECT_EQ(os.str(), stats::jsonQuote(s));
}

TEST(JsonHelpers, NumbersIntegralAndRoundTrip)
{
    auto render = [](double v) {
        std::ostringstream os;
        stats::writeJsonNumber(os, v);
        return os.str();
    };
    EXPECT_EQ(render(0), "0");
    EXPECT_EQ(render(-3), "-3");
    EXPECT_EQ(render(92066845), "92066845");
    EXPECT_EQ(render(2e15), "2000000000000000");
    EXPECT_EQ(render(92.066845), "92.066845");
    EXPECT_EQ(render(4.38652499), "4.38652499");
    // A reader that parses the rendered string back through strtod
    // and re-renders it gets the same bytes.
    for (double v : {92.066845, 55318.954, 6.92168324, 1e-3, 0.5}) {
        const std::string once = render(v);
        EXPECT_EQ(render(std::strtod(once.c_str(), nullptr)), once);
    }
}
