/**
 * @file
 * misplint's own test suite.
 *
 * Two halves:
 *
 *  - Fixture corpus: tests/misplint_fixtures/ is a miniature source
 *    tree with one file per violation class (and two clean ones). The
 *    tests assert the exact (file, line, rule, symbol) tuples, so a
 *    tokenizer regression that shifts a line or drops a rule fails
 *    loudly, not silently. The fixtures are never compiled (the tests
 *    glob is non-recursive) and discover() excludes them from real
 *    scans.
 *
 *  - Self-scan: the live tree under MISPLINT_SOURCE_ROOT must be
 *    clean, every archive class the repo is known to carry must be
 *    inside the completeness rule's coverage, and the member count
 *    must be in a sane range — so coverage cannot silently collapse
 *    to zero while the "0 findings" gate stays green.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "misplint.hh"

namespace {

using misplint::Finding;
using misplint::Report;

/** (file, line, rule, symbol) — what the fixture tests pin down. */
using Key = std::tuple<std::string, int, std::string, std::string>;

Key
key(const Finding &f)
{
    return {f.file, f.line, f.rule, f.symbol};
}

const Report &
fixtureReport()
{
    static const Report report = [] {
        misplint::Options opts;
        opts.root = std::string(MISPLINT_SOURCE_ROOT) +
                    "/tests/misplint_fixtures";
        opts.paths = {"src"};
        return misplint::run(opts);
    }();
    return report;
}

std::vector<Key>
findingsIn(const std::string &file)
{
    std::vector<Key> out;
    for (const Finding &f : fixtureReport().findings)
        if (f.file == file)
            out.push_back(key(f));
    return out;
}

} // namespace

// ---------------------------------------------------------------------
// Fixture corpus — exact findings per violation class.
// ---------------------------------------------------------------------

TEST(MisplintFixtures, BannedRandAndTime)
{
    std::vector<Key> expected = {
        {"src/sim/banned_rand.cc", 12, "det-rand", "rand"},
        {"src/sim/banned_rand.cc", 13, "det-rand", "srand"},
        {"src/sim/banned_rand.cc", 15, "det-rand", "random_device"},
        {"src/sim/banned_rand.cc", 18, "det-time", "time"},
        {"src/sim/banned_rand.cc", 19, "det-time", "clock"},
        {"src/sim/banned_rand.cc", 21, "det-time", "chrono"},
    };
    EXPECT_EQ(findingsIn("src/sim/banned_rand.cc"), expected);
}

TEST(MisplintFixtures, UnorderedIterationAndPointerKeys)
{
    std::vector<Key> expected = {
        {"src/sim/unordered_emit.cc", 9, "det-ptr-key", "std::map"},
        {"src/sim/unordered_emit.cc", 13, "det-unordered-iter",
         "table_"},
        {"src/sim/unordered_emit.cc", 20, "det-unordered-iter",
         "table_"},
        // Line 27's range-for is covered by a misplint: allow
        // annotation — it must NOT appear here.
    };
    EXPECT_EQ(findingsIn("src/sim/unordered_emit.cc"), expected);
}

TEST(MisplintFixtures, LayeringAndChronoInclude)
{
    std::vector<Key> expected = {
        {"src/mem/bad_layering.cc", 6, "layer-include",
         "driver/runner.hh"},
        {"src/mem/bad_layering.cc", 7, "layer-include",
         "harness/run_record.hh"},
        // One finding, although the include line trips both the
        // include gate and the token scan.
        {"src/mem/bad_layering.cc", 8, "det-time", "chrono"},
    };
    EXPECT_EQ(findingsIn("src/mem/bad_layering.cc"), expected);
}

TEST(MisplintFixtures, HostClockOutsideSimulatedDirs)
{
    // src/driver/ is not a simulated dir, but the det-time scan covers
    // every non-allowlisted file under src/.
    std::vector<Key> expected = {
        {"src/driver/host_clock.cc", 8, "det-time", "gettimeofday"},
        {"src/driver/host_clock.cc", 9, "det-time", "getrusage"},
        {"src/driver/host_clock.cc", 10, "det-time", "clock"},
    };
    EXPECT_EQ(findingsIn("src/driver/host_clock.cc"), expected);
}

TEST(MisplintFixtures, ObsHostPlaneQuarantine)
{
    // Simulated code must not include the obs host plane; the
    // deterministic trace header is fine.
    std::vector<Key> expected = {
        {"src/os/bad_obs_include.cc", 5, "obs-host-plane",
         "obs/host_run_log.hh"},
    };
    EXPECT_EQ(findingsIn("src/os/bad_obs_include.cc"), expected);

    // src/obs/ outside the host_ prefix is simulated code...
    std::vector<Key> simObs = {
        {"src/obs/trace_rand.cc", 7, "det-rand", "rand"},
    };
    EXPECT_EQ(findingsIn("src/obs/trace_rand.cc"), simObs);

    // ...while host_-prefixed files may use the wall clock freely.
    EXPECT_TRUE(findingsIn("src/obs/host_wall_clock.cc").empty());
}

TEST(MisplintFixtures, SnapshotCompleteness)
{
    // One archive body serves both directions, so a member is either
    // referenced in it or missing from it — there is no save-only case.
    std::vector<Key> expected = {
        {"src/mem/missing_member.hh", 15, "snap-archive-missing", "lost_"},
        {"src/mem/missing_member.hh", 17, "snap-bad-annotation",
         "badKind_"},
    };
    EXPECT_EQ(findingsIn("src/mem/missing_member.hh"), expected);
}

TEST(MisplintFixtures, RawImageReadsOutsideTheSnapshotLayer)
{
    std::vector<Key> expected = {
        {"src/driver/raw_read.cc", 9, "snap-raw-read", "Deserializer"},
    };
    EXPECT_EQ(findingsIn("src/driver/raw_read.cc"), expected);
    // The snapshot layer itself owns the reader.
    EXPECT_TRUE(findingsIn("src/snapshot/container.cc").empty());
}

TEST(MisplintFixtures, ClosureEvents)
{
    std::vector<Key> expected = {
        {"src/misp/closure_event.cc", 9, "snap-closure-event",
         "scheduleLambda"},
        {"src/misp/closure_event.cc", 14, "snap-closure-event",
         "LambdaEvent"},
    };
    EXPECT_EQ(findingsIn("src/misp/closure_event.cc"), expected);
}

TEST(MisplintFixtures, RawConfigReads)
{
    std::vector<Key> expected = {
        {"src/os/config_raw_read.cc", 29, "config-raw-read", "ctxSwitch"},
        {"src/os/config_raw_read.cc", 30, "config-raw-read",
         "quantumTicks"},
        {"src/os/config_raw_read.cc", 33, "config-raw-read",
         "quantumTicks"},
        {"src/os/config_raw_read.cc", 35, "config-raw-read",
         "signalCycles"},
    };
    EXPECT_EQ(findingsIn("src/os/config_raw_read.cc"), expected);
    // The nested structs (misp, kernel) are paths, not fields, and the
    // annotated member is deliberately untracked.
    EXPECT_EQ(fixtureReport().configFields,
              (std::vector<std::string>{"ctxSwitch", "quantumTicks",
                                        "signalCycles"}));
}

TEST(MisplintFixtures, CleanFilesStayClean)
{
    EXPECT_TRUE(findingsIn("src/sim/clean.cc").empty());
    EXPECT_TRUE(findingsIn("src/mem/annotated_derived.hh").empty());
}

TEST(MisplintFixtures, NothingOutsideTheExpectedFiles)
{
    // The per-file tests above cover every file that should have
    // findings; this catches a rule firing somewhere unexpected.
    int total = 0;
    for (const char *file :
         {"src/sim/banned_rand.cc", "src/sim/unordered_emit.cc",
          "src/mem/bad_layering.cc", "src/mem/missing_member.hh",
          "src/misp/closure_event.cc", "src/driver/host_clock.cc",
          "src/os/bad_obs_include.cc", "src/obs/trace_rand.cc",
          "src/driver/raw_read.cc", "src/os/config_raw_read.cc"})
        total += static_cast<int>(findingsIn(file).size());
    EXPECT_EQ(static_cast<int>(fixtureReport().findings.size()),
              total);
}

TEST(MisplintFixtures, ReportCounters)
{
    const Report &r = fixtureReport();
    EXPECT_EQ(r.filesScanned, 14);
    // Widget (missing_member.hh) and Cache (annotated_derived.hh).
    EXPECT_EQ(r.archiveClasses, 2);
    std::vector<std::string> names = r.archiveNames;
    std::sort(names.begin(), names.end());
    EXPECT_EQ(names, (std::vector<std::string>{"Cache", "Widget"}));
    // Widget: wiring_, kept_, lost_, badKind_;
    // Cache: mode_, window_, hostTicks_, ways_, drained_.
    EXPECT_EQ(r.membersChecked, 9);
    // 1 misplint: allow site + 5 snap:-annotated members (Cache's 4
    // plus Widget's badKind_, which is counted even though the kind
    // is unknown).
    EXPECT_EQ(r.suppressed, 6);
}

TEST(MisplintFixtures, OutputAndBaselineFormats)
{
    Finding f{"src/sim/banned_rand.cc", 12, "det-rand", "rand",
              "rand() is banned"};
    EXPECT_EQ(misplint::format(f),
              "src/sim/banned_rand.cc:12: det-rand rand() is banned");
    // The baseline key is line-number-free so baselines survive
    // unrelated edits above the finding.
    EXPECT_EQ(misplint::baselineKey(f),
              "src/sim/banned_rand.cc:det-rand:rand");
}

// ---------------------------------------------------------------------
// Self-scan — the live tree.
// ---------------------------------------------------------------------

TEST(MisplintSelfScan, LiveTreeIsClean)
{
    misplint::Options opts;
    opts.root = MISPLINT_SOURCE_ROOT;
    const Report r = misplint::run(opts);
    for (const Finding &f : r.findings)
        ADD_FAILURE() << misplint::format(f);
    EXPECT_TRUE(r.findings.empty());
}

TEST(MisplintSelfScan, CoverageDidNotCollapse)
{
    misplint::Options opts;
    opts.root = MISPLINT_SOURCE_ROOT;
    const Report r = misplint::run(opts);

    // Every class the repo archives must be inside the completeness
    // rule's coverage — if a parser regression drops one, this names
    // it instead of letting the clean verdict go hollow.
    for (const char *cls :
         {"AddressSpace", "Kernel", "MispProcessor", "Mmu",
          "OsApiRuntime", "PageTable", "PhysicalMemory", "Sequencer",
          "ShredRuntime", "SignalFabric", "Tlb"})
        EXPECT_NE(std::find(r.archiveNames.begin(),
                            r.archiveNames.end(), cls),
                  r.archiveNames.end())
            << cls << " fell out of snapshot-completeness coverage";

    // Every field the run's read mask tracks is inside config-raw-read
    // (sim/config_reads.hh's MISP_CONFIG_FIELDS, by member name).
    for (const char *field :
         {"amsPerProcessor", "physFrames", "numAms", "signalCycles",
          "contextXferCycles", "serialization", "sliceLimit",
          "syscallBase", "writePerByte", "pageFaultService",
          "timerService", "deviceIrqService", "ctxSwitch", "timerPeriod",
          "quantumTicks", "deviceIrqMeanPeriod", "rngSeed"})
        EXPECT_TRUE(std::binary_search(r.configFields.begin(),
                                       r.configFields.end(),
                                       std::string(field)))
            << field << " fell out of config-raw-read coverage";

    EXPECT_GE(r.archiveClasses, 11);
    EXPECT_GE(r.membersChecked, 100);
    EXPECT_GT(r.filesScanned, 50);
}
