/**
 * @file
 * The performance ledger: one command for the end-to-end sweep metrics
 * and the per-layer spans of three workloads.
 *
 *   ledger [--workload W] [--seed N] [--reps R | --seconds S]
 *          [--trace 0|1] [-o FILE]
 *   ledger --selftest
 *
 * End to end (tracing off): each workload's spec is generated from its
 * template in bench/ledger/workloads/ with the seed substituted, then
 * run as `mispsim <spec> --metrics F --profile P` R times (default 5) or
 * for S seconds, rotating round-robin across the workloads, with a fixed
 * host-speed probe before every rep. Wall time is steady_clock from
 * spawn to exit, cut into stretches by the arrival of mispsim's stderr
 * lines; peak RSS comes from the child's wait4 rusage. Every rep's exit
 * code, point statuses and --metrics digest are checked.
 *
 * Per layer (--trace 1, the default): one in-process pass over the same
 * grid at jobs 1 with full stats, with spans around the calls into each
 * layer's public functions, kept in memory and written once at exit as
 * Chrome trace JSON.
 *
 * The last stdout line is one JSON object with the keys correct,
 * attempted, failed and metrics: the end-to-end metrics with --trace 0,
 * the per-layer ones with --trace 1.
 */

#include <fcntl.h>
#include <linux/perf_event.h>
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "driver/report.hh"
#include "driver/runner.hh"
#include "harness/bare_machine.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"
#include "snapshot/snapshot.hh"
#include "workloads/workload.hh"

#if !defined(LEDGER_DIR) || !defined(LEDGER_MISPSIM)
#error "build the ledger through bench/ledger/CMakeLists.txt"
#endif

using namespace misp;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------------
// The metric catalogue. BENCHMARK.json at the repository root mirrors
// these tables; --selftest fails when the two disagree.
// ---------------------------------------------------------------------

struct MetricDef {
    const char *name;
    const char *unit;
    const char *better; ///< "lower" or "higher"
    /** End-to-end only: how far the reported value may worsen, as a
     *  share of the parent's, before a change counts as a regression. */
    double bound;
    /** End-to-end only: how the reported value is made from the reps
     *  (see summarize). */
    const char *estimator;
};

enum E2e { kSweepS, kHostMips, kSetupS, kPeakRssMb, kNumE2e };

const MetricDef kEndToEnd[kNumE2e] = {
    {"sweep_s", "s", "lower", 0.25, "least-disturbed stretches, scaled"},
    {"host_mips", "Minst/s", "higher", 0.25, "insts / sweep_s"},
    {"setup_s", "s", "lower", 0.25, "median rep's set-up share x sweep_s"},
    {"peak_rss_mb", "MB", "lower", 0.10, "median rep"},
};

const MetricDef kPerLayer[] = {
    {"driver.spec_ms", "ms", "lower", 0, ""},
    {"driver.frame_ms", "ms", "lower", 0, ""},
    {"driver.emit_ms", "ms", "lower", 0, ""},
    {"driver.emit_mb", "MB", "lower", 0, ""},
    {"driver.asserts_ms", "ms", "lower", 0, ""},
    {"driver.pool_efficiency", "ratio", "higher", 0, ""},
    {"driver.isolate_ms_per_point", "ms", "lower", 0, ""},
    {"harness.setup_ms_p50", "ms", "lower", 0, ""},
    {"harness.setup_ms_p90", "ms", "lower", 0, ""},
    {"harness.run_ms_p50", "ms", "lower", 0, ""},
    {"harness.run_ms_p90", "ms", "lower", 0, ""},
    {"harness.harvest_ms_p50", "ms", "lower", 0, ""},
    {"harness.point_ms_p50", "ms", "lower", 0, ""},
    {"harness.point_ms_p90", "ms", "lower", 0, ""},
    {"harness.span_coverage_p50", "ratio", "higher", 0, ""},
    {"workloads.build_ms_p50", "ms", "lower", 0, ""},
    {"snapshot.record_encode_us", "us", "lower", 0, ""},
    {"snapshot.record_decode_us", "us", "lower", 0, ""},
    {"snapshot.record_bytes", "bytes", "lower", 0, ""},
    {"cpu.run_ns_per_inst", "ns/inst", "lower", 0, ""},
    {"cpu.kernel_ns_per_inst.alu", "ns/inst", "lower", 0, ""},
    {"cpu.kernel_ns_per_inst.mem", "ns/inst", "lower", 0, ""},
    {"cpu.kernel_ns_per_inst.branch", "ns/inst", "lower", 0, ""},
    {"cpu.decode_miss_per_minst", "1/Minst", "lower", 0, ""},
    {"cpu.insts_m", "Minst", "lower", 0, ""},
    {"mem.tlb_miss_per_minst", "1/Minst", "lower", 0, ""},
    {"mem.tlb_flush_per_minst", "1/Minst", "lower", 0, ""},
    {"mem.page_walk_per_minst", "1/Minst", "lower", 0, ""},
    {"mem.frames_per_point", "frames", "lower", 0, ""},
    {"sim.eq_ns_per_event", "ns/event", "lower", 0, ""},
    {"os.ctx_switch_per_minst", "1/Minst", "lower", 0, ""},
    {"os.timer_irq_per_minst", "1/Minst", "lower", 0, ""},
    {"os.page_fault_per_minst", "1/Minst", "lower", 0, ""},
    {"os.syscall_per_minst", "1/Minst", "lower", 0, ""},
    {"misp.signal_per_minst", "1/Minst", "lower", 0, ""},
    {"misp.serialization_per_minst", "1/Minst", "lower", 0, ""},
    {"misp.proxy_per_minst", "1/Minst", "lower", 0, ""},
    {"shredlib.switch_per_minst", "1/Minst", "lower", 0, ""},
    {"shredlib.sync_blocked_per_minst", "1/Minst", "lower", 0, ""},
    {"obs.trace_overhead", "ratio", "lower", 0, ""},
};

/** Simulated-event counters summed from the full-stats dumps: the
 *  per-layer metric each feeds (per 10^6 retired instructions) and the
 *  stats-tree path suffix it is read from. */
struct StatCounter {
    const char *metric;
    const char *suffix;
};

const StatCounter kCounters[] = {
    {"cpu.decode_miss_per_minst", "decodeCacheMisses"},
    {"mem.tlb_miss_per_minst", "tlb.misses"},
    {"mem.tlb_flush_per_minst", "tlb.flushes"},
    {"mem.page_walk_per_minst", "mmu.pageWalks"},
    {"os.ctx_switch_per_minst", "kernel.ctxSwitches"},
    {"os.timer_irq_per_minst", "kernel.timerIrqs"},
    {"os.page_fault_per_minst", "kernel.pageFaults"},
    {"os.syscall_per_minst", "kernel.syscalls"},
    {"misp.signal_per_minst", "fabric.deliveries"},
    {"misp.serialization_per_minst", "serializations"},
    {"misp.proxy_per_minst", "proxyRequests"},
    {"shredlib.switch_per_minst", "shredlib.shredSwitches"},
    {"shredlib.sync_blocked_per_minst", "shredlib.syncBlocked"},
};
constexpr std::size_t kNumCounters = std::size(kCounters);

// ---------------------------------------------------------------------
// The workloads. Each has a template bench/ledger/workloads/<name>.scn;
// the comment at its top says why it exists.
// ---------------------------------------------------------------------

struct WorkloadDef {
    const char *name;
    std::size_t points; ///< grid size the template must expand to
    std::vector<std::string> flags; ///< mispsim flags beyond the spec
};

const std::vector<WorkloadDef> &
workloadDefs()
{
    static const std::vector<WorkloadDef> defs = {
        {"suite", 48, {}},
        {"multiprog", 30, {}},
        {"grid", 2500, {}},
    };
    return defs;
}

constexpr std::uint64_t kDefaultSeed = 1;
constexpr unsigned kDefaultReps = 5;
/** --seconds mode runs at least this many rounds, so every median has
 *  three samples even when one rep outlasts the budget. */
constexpr unsigned kMinTimedRounds = 3;

std::string
ledgerPath(const std::string &rel)
{
    return std::string(LEDGER_DIR) + "/" + rel;
}

std::string
workPath(const std::string &rel)
{
    return std::string(LEDGER_WORK_DIR) + "/" + rel;
}

// ---------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/** First and third quartiles exactly as Python's
 *  statistics.quantiles(v, n=4) computes them (its default "exclusive"
 *  method), so a reader recomputing a spread from the samples gets the
 *  ledger's number. One sample is its own quartiles. */
std::pair<double, double>
quartiles(std::vector<double> v)
{
    if (v.empty())
        return {0.0, 0.0};
    std::sort(v.begin(), v.end());
    if (v.size() == 1)
        return {v[0], v[0]};
    const long ld = static_cast<long>(v.size());
    const long m = ld + 1;
    auto cut = [&](long i) {
        const long j = std::clamp(i * m / 4, 1L, ld - 1);
        const long delta = i * m - j * 4;
        return (v[static_cast<std::size_t>(j - 1)] * double(4 - delta) +
                v[static_cast<std::size_t>(j)] * double(delta)) /
               4.0;
    };
    return {cut(1), cut(3)};
}

/** The @p p-th percentile (0..100), interpolated linearly between the
 *  closest ranks. */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = p / 100.0 * double(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (rank - double(lo));
}

/** FNV-1a 64-bit digest of @p bytes, as 16 hex digits. */
std::string
fnv1a64(const std::string &bytes)
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

/** A JSON number as measured, with all its digits; non-finite values
 *  (which no metric should produce) render as null. */
std::string
num(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.12g", v);
    return buf;
}

// ---------------------------------------------------------------------
// Host-speed probe. On a shared VM the host's speed drifts by tens of
// percent for minutes at a time, longer than a run, so even a run's
// fastest rep does not repeat across runs. A fixed loop (probe.cc, run as ledger_probe)
// timed between the reps drifts with it: its best time in the run says
// how fast the host was, and host times are reported at the reference
// speed.
// ---------------------------------------------------------------------

/** ledger_probe's best time on the quiet host baseline.json was measured
 *  on. A time t from a run whose best probe took p is reported as
 *  t * kProbeRefS / p. */
constexpr double kProbeRefS = 0.0139;
/** Probe calls before every rep. */
constexpr int kProbesPerRep = 3;

// ---------------------------------------------------------------------
// A small streaming JSON reader: mispsim's --metrics and --profile files,
// full-stats dumps, golden.json and BENCHMARK.json are all read through
// it. It visits each scalar with the key path leading to it (array
// elements are keyed by their decimal index), so nothing larger than one
// value is materialized — the grid's --metrics file is 25 MB.
// ---------------------------------------------------------------------

struct JsonScalar {
    enum class Kind { Number, String, Bool, Null };
    Kind kind = Kind::Null;
    double number = 0.0;
    std::string text; ///< String value; "true"/"false" for Bool
};

using JsonPath = std::vector<std::string>;
using JsonVisit =
    std::function<void(const JsonPath &path, const JsonScalar &value)>;

class JsonWalker
{
  public:
    JsonWalker(const std::string &text, const JsonVisit &visit)
        : s_(text), visit_(visit)
    {}

    bool
    walk(std::string *err)
    {
        skipWs();
        bool ok = value(0);
        if (ok) {
            skipWs();
            if (i_ != s_.size())
                ok = fail("trailing characters");
        }
        if (!ok && err)
            *err = error_;
        return ok;
    }

  private:
    /** Nesting bound: a hostile file cannot exhaust the stack. */
    static constexpr int kMaxDepth = 64;

    bool
    fail(const std::string &what)
    {
        if (error_.empty())
            error_ = "JSON offset " + std::to_string(i_) + ": " + what;
        return false;
    }

    void
    skipWs()
    {
        while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\t' ||
                                  s_[i_] == '\r' || s_[i_] == '\n'))
            ++i_;
    }

    bool
    value(int depth)
    {
        if (depth > kMaxDepth)
            return fail("nesting deeper than " + std::to_string(kMaxDepth));
        if (i_ >= s_.size())
            return fail("unexpected end");
        const char c = s_[i_];
        if (c == '{')
            return object(depth);
        if (c == '[')
            return array(depth);
        JsonScalar v;
        if (c == '"') {
            v.kind = JsonScalar::Kind::String;
            if (!string(&v.text))
                return false;
        } else if (c == '-' || (c >= '0' && c <= '9')) {
            v.kind = JsonScalar::Kind::Number;
            const char *begin = s_.c_str() + i_;
            char *end = nullptr;
            v.number = std::strtod(begin, &end);
            if (end == begin)
                return fail("bad number");
            i_ += static_cast<std::size_t>(end - begin);
        } else if (literal("true")) {
            v.kind = JsonScalar::Kind::Bool;
            v.text = "true";
        } else if (literal("false")) {
            v.kind = JsonScalar::Kind::Bool;
            v.text = "false";
        } else if (literal("null")) {
            v.kind = JsonScalar::Kind::Null;
        } else {
            return fail("unexpected character");
        }
        visit_(path_, v);
        return true;
    }

    bool
    literal(const char *word)
    {
        const std::size_t n = std::strlen(word);
        if (s_.compare(i_, n, word) != 0)
            return false;
        i_ += n;
        return true;
    }

    bool
    object(int depth)
    {
        ++i_; // '{'
        skipWs();
        if (i_ < s_.size() && s_[i_] == '}') {
            ++i_;
            return true;
        }
        for (;;) {
            skipWs();
            std::string key;
            if (i_ >= s_.size() || s_[i_] != '"')
                return fail("expected a key");
            if (!string(&key))
                return false;
            skipWs();
            if (i_ >= s_.size() || s_[i_] != ':')
                return fail("expected ':'");
            ++i_;
            skipWs();
            path_.push_back(std::move(key));
            if (!value(depth + 1))
                return false;
            path_.pop_back();
            skipWs();
            if (i_ < s_.size() && s_[i_] == ',') {
                ++i_;
                continue;
            }
            if (i_ < s_.size() && s_[i_] == '}') {
                ++i_;
                return true;
            }
            return fail("expected ',' or '}'");
        }
    }

    bool
    array(int depth)
    {
        ++i_; // '['
        skipWs();
        if (i_ < s_.size() && s_[i_] == ']') {
            ++i_;
            return true;
        }
        for (std::size_t index = 0;; ++index) {
            skipWs();
            path_.push_back(std::to_string(index));
            if (!value(depth + 1))
                return false;
            path_.pop_back();
            skipWs();
            if (i_ < s_.size() && s_[i_] == ',') {
                ++i_;
                continue;
            }
            if (i_ < s_.size() && s_[i_] == ']') {
                ++i_;
                return true;
            }
            return fail("expected ',' or ']'");
        }
    }

    bool
    string(std::string *out)
    {
        ++i_; // opening quote
        while (i_ < s_.size()) {
            const char c = s_[i_++];
            if (c == '"')
                return true;
            if (c != '\\') {
                out->push_back(c);
                continue;
            }
            if (i_ >= s_.size())
                break;
            const char e = s_[i_++];
            switch (e) {
              case '"': case '\\': case '/': out->push_back(e); break;
              case 'b': out->push_back('\b'); break;
              case 'f': out->push_back('\f'); break;
              case 'n': out->push_back('\n'); break;
              case 'r': out->push_back('\r'); break;
              case 't': out->push_back('\t'); break;
              case 'u':
                // No file the ledger reads escapes non-ASCII; keep a
                // placeholder rather than decode UTF-16.
                if (i_ + 4 > s_.size())
                    return fail("short \\u escape");
                i_ += 4;
                out->push_back('?');
                break;
              default:
                return fail("bad escape");
            }
        }
        return fail("unterminated string");
    }

    const std::string &s_;
    const JsonVisit &visit_;
    std::size_t i_ = 0;
    JsonPath path_;
    std::string error_;
};

bool
walkJson(const std::string &text, const JsonVisit &visit, std::string *err)
{
    return JsonWalker(text, visit).walk(err);
}

bool
walkJsonFile(const std::string &path, const JsonVisit &visit,
             std::string *err)
{
    std::string text;
    if (!snap::readFileBytes(path, &text, err))
        return false;
    if (!walkJson(text, visit, err)) {
        *err = path + ": " + *err;
        return false;
    }
    return true;
}

// ---------------------------------------------------------------------
// Env block: where a number came from, and the builds not worth timing.
// ---------------------------------------------------------------------

struct Env {
    std::string gitSha = "unknown";
    std::string compiler = __VERSION__;
    std::string buildType = LEDGER_BUILD_TYPE;
    std::string cxxFlags = LEDGER_CXX_FLAGS;
    std::string sanitizer;
    bool optimized = false;
    std::string cpuModel = "unknown";
    unsigned nproc = 0;
    std::string counterSource = "steady_clock+rusage";
    std::string hwCounters;
    std::string timestampUtc;
};

/** HEAD's commit, read from the source tree's .git directly (no git
 *  process, and no search above the tree); "unknown" outside a
 *  checkout with history. */
std::string
gitSha()
{
    const std::string git = std::string(LEDGER_SOURCE_ROOT) + "/.git/";
    std::string head, err;
    if (!snap::readFileBytes(git + "HEAD", &head, &err))
        return "unknown";
    while (!head.empty() && std::isspace(static_cast<unsigned char>(
                                head.back())))
        head.pop_back();
    if (head.rfind("ref: ", 0) != 0)
        return head.empty() ? "unknown" : head;
    const std::string ref = head.substr(5);
    std::string sha;
    if (snap::readFileBytes(git + ref, &sha, &err))
        return sha.substr(0, sha.find_first_of(" \r\n"));
    std::string packed;
    if (snap::readFileBytes(git + "packed-refs", &packed, &err)) {
        std::istringstream in(packed);
        std::string line;
        while (std::getline(in, line)) {
            const std::size_t sp = line.find(' ');
            if (sp != std::string::npos && line.substr(sp + 1) == ref)
                return line.substr(0, sp);
        }
    }
    return "unknown";
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) != 0)
            continue;
        std::size_t at = line.find(':');
        if (at == std::string::npos)
            break;
        at = line.find_first_not_of(' ', at + 1);
        return at == std::string::npos ? "unknown" : line.substr(at);
    }
    return "unknown";
}

/** Whether hardware instruction counters could be read. The ledger times
 *  with steady_clock+rusage either way; this records why. */
std::string
probeHwCounters()
{
    perf_event_attr attr{};
    attr.type = PERF_TYPE_HARDWARE;
    attr.size = sizeof(attr);
    attr.config = PERF_COUNT_HW_INSTRUCTIONS;
    attr.disabled = 1;
    attr.exclude_kernel = 1;
    attr.exclude_hv = 1;
    const long fd = ::syscall(SYS_perf_event_open, &attr, 0, -1, -1, 0);
    if (fd < 0) {
        const char *name = strerrorname_np(errno);
        return std::string("unavailable: perf_event_open("
                           "PERF_COUNT_HW_INSTRUCTIONS) failed with ") +
               (name ? name : std::to_string(errno).c_str());
    }
    ::close(static_cast<int>(fd));
    return "available, unused";
}

Env
collectEnv()
{
    Env env;
    env.gitSha = gitSha();
    env.sanitizer = LEDGER_SANITIZE;
#if defined(__SANITIZE_ADDRESS__)
    if (env.sanitizer.empty())
        env.sanitizer = "address";
#endif
#if defined(__SANITIZE_THREAD__)
    if (env.sanitizer.empty())
        env.sanitizer = "thread";
#endif
#if defined(__OPTIMIZE__)
    env.optimized = true;
#endif
    env.cpuModel = cpuModel();
    env.nproc = std::thread::hardware_concurrency();
    env.hwCounters = probeHwCounters();
    std::time_t now = std::time(nullptr);
    std::tm tm{};
    gmtime_r(&now, &tm);
    char buf[32];
    std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
    env.timestampUtc = buf;
    return env;
}

std::string
envJson(const Env &env)
{
    std::ostringstream os;
    os << "{\"git_sha\": " << stats::jsonQuote(env.gitSha)
       << ", \"compiler\": " << stats::jsonQuote(env.compiler)
       << ", \"build_type\": " << stats::jsonQuote(env.buildType)
       << ", \"cxx_flags\": " << stats::jsonQuote(env.cxxFlags)
       << ", \"optimized\": " << (env.optimized ? "true" : "false")
       << ", \"sanitizer\": " << stats::jsonQuote(env.sanitizer)
       << ", \"cpu_model\": " << stats::jsonQuote(env.cpuModel)
       << ", \"nproc\": " << env.nproc
       << ", \"counter_source\": " << stats::jsonQuote(env.counterSource)
       << ", \"hw_counters\": " << stats::jsonQuote(env.hwCounters)
       << ", \"timestamp_utc\": " << stats::jsonQuote(env.timestampUtc)
       << "}";
    return os.str();
}

// ---------------------------------------------------------------------
// Specs and golden digests
// ---------------------------------------------------------------------

std::string
substituteSeed(std::string text, std::uint64_t seed)
{
    const std::string key = "@SEED@";
    const std::string value = std::to_string(seed);
    for (std::size_t at = text.find(key); at != std::string::npos;
         at = text.find(key, at + value.size()))
        text.replace(at, key.size(), value);
    return text;
}

/** Parse, validate and expand a generated spec in-process: the grid the
 *  traced pass runs and the point count every rep is checked against. */
bool
expandSpec(const std::string &text, const std::string &path,
           driver::Scenario *sc, std::vector<driver::ScenarioPoint> *pts,
           std::string *err)
{
    driver::SpecFile spec;
    return driver::SpecFile::parse(text, path, &spec, err) &&
           driver::Scenario::fromSpec(spec, sc, err) &&
           sc->expandPoints(false, pts, err);
}

/** golden.json: the --metrics digest of every workload at one seed. */
struct Golden {
    std::uint64_t seed = 0;
    std::map<std::string, std::string> digests;
};

bool
loadGolden(Golden *golden, std::string *err)
{
    return walkJsonFile(
        ledgerPath("golden.json"),
        [&](const JsonPath &path, const JsonScalar &v) {
            if (path.size() == 1 && path[0] == "seed")
                golden->seed = static_cast<std::uint64_t>(v.number);
            else if (path.size() == 2 && path[0] == "digests")
                golden->digests[path[1]] = v.text;
        },
        err);
}

// ---------------------------------------------------------------------
// End-to-end reps
// ---------------------------------------------------------------------

struct ChildResult {
    bool spawned = false;
    int exitCode = -1; ///< -1 unless the child exited normally
    double wallS = 0.0;
    double maxRssMb = 0.0; ///< largest RSS in the child's process tree
    /** When each line the child wrote to stderr arrived, in seconds since
     *  the fork. mispsim writes a HOST line and a progress line per
     *  point, so these mark its progress through the grid. */
    std::vector<double> lineS;
};

/** Run @p args (on @p cpus when given) with stdout sent to a file and
 *  stderr through a pipe into another, wait for it, and time it from fork
 *  to exit.
 *
 *  fork, not posix_spawn: Linux starts an exec'd process's ru_maxrss at
 *  the RSS of the address space it replaces. posix_spawn's vfork child
 *  replaces the ledger's own address space, so the ledger's lifetime peak
 *  would mask mispsim's; a fork child replaces a copy holding only the
 *  ledger's current RSS, which malloc_trim keeps below any mispsim run's. */
ChildResult
runChild(const std::vector<std::string> &args, const std::string &outPath,
         const std::string &errPath, const cpu_set_t *cpus)
{
    ChildResult out;
    const int flags = O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC;
    const int outFd = ::open(outPath.c_str(), flags, 0644);
    const int errFd = ::open(errPath.c_str(), flags, 0644);
    int pipeFd[2] = {-1, -1};
    const bool piped = ::pipe2(pipeFd, O_CLOEXEC) == 0;
    std::vector<char *> argv;
    for (const std::string &a : args)
        argv.push_back(const_cast<char *>(a.c_str()));
    argv.push_back(nullptr);

    ::malloc_trim(0);
    const auto t0 = Clock::now();
    const pid_t pid = outFd >= 0 && errFd >= 0 && piped ? ::fork() : -1;
    if (pid == 0) {
        if (cpus)
            ::sched_setaffinity(0, sizeof(*cpus), cpus);
        ::dup2(outFd, STDOUT_FILENO);
        ::dup2(pipeFd[1], STDERR_FILENO);
        ::execv(argv[0], argv.data());
        ::_exit(127);
    }
    for (int fd : {outFd, pipeFd[1]})
        if (fd >= 0)
            ::close(fd);
    if (pid > 0) {
        // Drain until every writer (mispsim and any worker it forks) is
        // gone, even past a failed copy, so the child never blocks on a
        // full pipe.
        char buf[1 << 16];
        bool copying = true;
        for (;;) {
            const ssize_t n = ::read(pipeFd[0], buf, sizeof(buf));
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                break;
            const double at = secondsBetween(t0, Clock::now());
            out.lineS.insert(out.lineS.end(),
                             std::size_t(std::count(buf, buf + n, '\n')), at);
            copying = copying && ::write(errFd, buf, std::size_t(n)) == n;
        }
    }
    for (int fd : {errFd, pipeFd[0]})
        if (fd >= 0)
            ::close(fd);
    if (pid < 0)
        return out;
    out.spawned = true;
    int status = 0;
    struct rusage ru {};
    while (::wait4(pid, &status, 0, &ru) < 0) {
        if (errno != EINTR)
            return out;
    }
    out.wallS = secondsBetween(t0, Clock::now());
    out.exitCode = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    out.maxRssMb = ru.ru_maxrss / 1024.0; // Linux reports KiB
    return out;
}

/** The fastest of kProbesPerRep ledger_probe calls, run on @p cpus when
 *  given; 0 when the probe could not run. */
double
runProbe(const cpu_set_t *cpus)
{
    const std::string out = workPath("probe.stdout");
    const ChildResult c =
        runChild({LEDGER_PROBE, std::to_string(kProbesPerRep)}, out,
                 workPath("probe.stderr"), cpus);
    std::string text, err;
    if (c.exitCode != 0 || !snap::readFileBytes(out, &text, &err))
        return 0.0;
    return std::strtod(text.c_str(), nullptr);
}

/** What a --metrics frame says about its points. */
struct FrameScan {
    std::size_t rows = 0;
    std::size_t failed = 0; ///< not completed, or completed but invalid
    double insts = 0.0;     ///< retired guest instructions, all points
};

bool
scanFrame(const std::string &json, FrameScan *out, std::string *err)
{
    std::vector<std::string> status;
    std::vector<double> valid;
    auto row = [&](const std::string &index) {
        const std::size_t r = std::strtoul(index.c_str(), nullptr, 10);
        if (r >= status.size()) {
            status.resize(r + 1);
            valid.resize(r + 1, 0.0);
        }
        return r;
    };
    const bool ok = walkJson(
        json,
        [&](const JsonPath &p, const JsonScalar &v) {
            if (p.size() < 4 || p[0] != "frame" || p[1] != "points")
                return;
            if (p.size() == 4 && p[3] == "status")
                status[row(p[2])] = v.text;
            else if (p.size() == 5 && p[3] == "values" && p[4] == "valid")
                valid[row(p[2])] = v.number;
            else if (p.size() == 5 && p[3] == "values" && p[4] == "insts")
                out->insts += v.number;
        },
        err);
    out->rows = status.size();
    for (std::size_t r = 0; r < status.size(); ++r)
        out->failed += status[r] != "completed" || valid[r] == 0.0;
    return ok;
}

/** One workload's whole ledger record. */
struct WorkloadRun {
    const WorkloadDef *def = nullptr;
    int index = 0; ///< position in workloadDefs(); the trace's pid
    std::string specPath;
    driver::Scenario sc;
    std::vector<driver::ScenarioPoint> points;

    struct Rep {
        std::array<double, kNumE2e> value{}; ///< as measured, unscaled
        double insts = 0.0; ///< retired guest instructions, all points
        std::vector<double> lineS; ///< see ChildResult::lineS
        std::size_t failed = 0;
        std::string digest; ///< of the --metrics file; "" when unread
        std::string problem;
    };
    std::vector<Rep> reps;
    /** kProbeRefS over the run's best ledger_probe time: the factor that
     *  puts the scaled metrics at the reference host speed. */
    double hostScale = 1.0;

    bool traced = false;
    std::string tracedDigest;
    std::size_t tracedFailed = 0;
    std::map<std::string, double> layer;  ///< per-layer metrics
    std::map<std::string, double> selfMs; ///< traced self time per layer

    std::string expectDigest; ///< golden, or the first rep's
    std::vector<std::string> problems;
    std::size_t attempted = 0;
    std::size_t failed = 0;
};

/** One untraced `mispsim` run of @p w's spec, on @p cpus when given. */
WorkloadRun::Rep
runRep(const WorkloadRun &w, const cpu_set_t *cpus)
{
    const std::string base = workPath(w.def->name);
    const std::string metricsPath = base + ".metrics.json";
    const std::string profilePath = base + ".profile.json";
    std::error_code ec;
    std::filesystem::remove(metricsPath, ec);
    std::filesystem::remove(profilePath, ec);

    std::vector<std::string> args = {LEDGER_MISPSIM, w.specPath,
                                     "--metrics",    metricsPath,
                                     "--profile",    profilePath};
    args.insert(args.end(), w.def->flags.begin(), w.def->flags.end());
    ChildResult c =
        runChild(args, base + ".stdout", base + ".stderr", cpus);

    WorkloadRun::Rep rep;
    rep.value[kSweepS] = c.wallS;
    rep.value[kPeakRssMb] = c.maxRssMb;
    rep.lineS = std::move(c.lineS);
    const std::size_t all = w.points.size();
    if (!c.spawned) {
        rep.problem = "cannot spawn " + args[0];
        rep.failed = all;
        return rep;
    }
    // A non-zero exit (which includes a failed [report] assert) fails
    // every point of the run.
    if (c.exitCode != 0) {
        rep.problem = "mispsim exited with status " +
                      std::to_string(c.exitCode) + " (see " + base +
                      ".stderr)";
        rep.failed = all;
    }

    std::string frame, err;
    FrameScan scan;
    if (!snap::readFileBytes(metricsPath, &frame, &err) ||
        !scanFrame(frame, &scan, &err)) {
        if (rep.problem.empty())
            rep.problem = err;
        rep.failed = all;
        return rep;
    }
    rep.digest = fnv1a64(frame);
    if (scan.rows != all) {
        if (rep.problem.empty())
            rep.problem = "--metrics frame has " +
                          std::to_string(scan.rows) + " rows, expected " +
                          std::to_string(all);
        rep.failed = all;
    }
    rep.failed = std::max(rep.failed, scan.failed);
    rep.insts = scan.insts;
    rep.value[kHostMips] = c.wallS > 0 ? scan.insts / c.wallS / 1e6 : 0.0;

    // Set-up: host time before each point's first simulated tick —
    // workload build, machine construction, guest load (the profile's
    // parse phase) plus any snapshot warmup leg.
    double setup = 0.0;
    if (!walkJsonFile(
            profilePath,
            [&](const JsonPath &p, const JsonScalar &v) {
                if (p.size() == 3 && p[0] == "phases" &&
                    (p[1] == "parse" || p[1] == "warmup") &&
                    p[2] == "total_s")
                    setup += v.number;
            },
            &err)) {
        if (rep.problem.empty())
            rep.problem = err;
        rep.failed = all;
    }
    rep.value[kSetupS] = setup;
    return rep;
}

// ---------------------------------------------------------------------
// Spans: kept in memory, written once at exit as Chrome trace JSON.
// ---------------------------------------------------------------------

struct Span {
    /** "<layer>.<what>", a string literal; the layer is a src/
     *  module. Literals keep a 10^5-span grid off the heap. */
    const char *name = "";
    double start = 0.0; ///< seconds since the ledger started
    double end = 0.0;
    long parent = -1;  ///< index of the enclosing span; -1 at the top
    long point = -1;   ///< grid point index; -1 outside any point
    int workload = -1; ///< index into workloadDefs(); -1 for host probes
};

class Spans
{
  public:
    explicit Spans(Clock::time_point epoch) : epoch_(epoch) {}

    /** Run @p fn inside a new top-level span; returns the span's index. */
    long
    time(const char *name, int workload, long point,
         const std::function<void()> &fn)
    {
        Span s;
        s.name = name;
        s.workload = workload;
        s.point = point;
        s.start = now();
        fn();
        s.end = now();
        return add(std::move(s));
    }

    /** Record a span measured elsewhere (a RunRecord phase). */
    long
    add(Span s)
    {
        spans_.push_back(std::move(s));
        return static_cast<long>(spans_.size() - 1);
    }

    const Span &at(long id) const { return spans_[std::size_t(id)]; }
    double ms(long id) const { return (at(id).end - at(id).start) * 1e3; }

    std::size_t size() const { return spans_.size(); }

    /** Self time per layer of @p workload's spans from index @p from on:
     *  each span's duration minus its children's, summed by the name's
     *  layer prefix. */
    std::map<std::string, double>
    selfMsByLayer(int workload, std::size_t from) const
    {
        std::vector<double> childMs(spans_.size(), 0.0);
        for (const Span &s : spans_)
            if (s.parent >= 0)
                childMs[std::size_t(s.parent)] += (s.end - s.start) * 1e3;
        std::map<std::string, double> out;
        for (std::size_t i = from; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            if (s.workload != workload)
                continue;
            const std::string name = s.name;
            out[name.substr(0, name.find('.'))] +=
                (s.end - s.start) * 1e3 - childMs[i];
        }
        return out;
    }

    /** Chrome trace-event JSON: one process per workload ("ledger" for
     *  the host probes), complete events in microseconds. */
    void
    writeChromeTrace(std::ostream &os) const
    {
        os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
        os << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 0, "
              "\"args\": {\"name\": \"ledger\"}}";
        for (std::size_t w = 0; w < workloadDefs().size(); ++w)
            os << ",\n{\"name\": \"process_name\", \"ph\": \"M\", "
                  "\"pid\": "
               << w + 1 << ", \"args\": {\"name\": \""
               << workloadDefs()[w].name << "\"}}";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            os << ",\n{\"name\": " << stats::jsonQuote(s.name)
               << ", \"ph\": \"X\", \"pid\": " << s.workload + 1
               << ", \"tid\": 1, \"ts\": " << num(s.start * 1e6)
               << ", \"dur\": " << num((s.end - s.start) * 1e6)
               << ", \"args\": {\"id\": " << i << ", \"parent\": "
               << s.parent << ", \"point\": " << s.point << "}}";
        }
        os << "\n]}\n";
    }

  private:
    double now() const { return secondsBetween(epoch_, Clock::now()); }

    Clock::time_point epoch_;
    std::vector<Span> spans_;
};

// ---------------------------------------------------------------------
// The traced pass
// ---------------------------------------------------------------------

/** kCounters plus the physical frames, summed over full-stats dumps. */
struct SimCounters {
    std::array<double, kNumCounters> sum{};
    double frames = 0.0;

    bool
    add(const std::string &statsJson, std::string *err)
    {
        // Suffixes split into path components once: the dumps of a large
        // grid hold millions of leaves.
        static const std::vector<JsonPath> suffixes = [] {
            std::vector<JsonPath> out;
            for (const StatCounter &c : kCounters) {
                JsonPath parts;
                std::istringstream in(c.suffix);
                for (std::string part; std::getline(in, part, '.');)
                    parts.push_back(part);
                out.push_back(parts);
            }
            return out;
        }();
        static const JsonPath framesPath = {"physmem", "framesAllocated"};
        auto endsWith = [](const JsonPath &path, const JsonPath &tail) {
            return path.size() >= tail.size() &&
                   std::equal(tail.rbegin(), tail.rend(), path.rbegin());
        };
        return walkJson(
            statsJson,
            [&](const JsonPath &p, const JsonScalar &v) {
                for (std::size_t c = 0; c < kNumCounters; ++c)
                    if (endsWith(p, suffixes[c]))
                        sum[c] += v.number;
                if (p == framesPath)
                    frames += v.number;
            },
            err);
    }
};

/** What the backend probe ran: the first grid points, with each one's
 *  untraced host time (all RunRecord phases) in-process at jobs 1. */
struct ProbeResult {
    std::vector<double> serialPointMs;
};

/** The execution backends on a prefix of the grid worth about a second
 *  of the untraced reps' time (2..500 points): the same points
 *  serially, on the two-thread pool, and fork-per-point. */
ProbeResult
backendProbe(WorkloadRun &w, const driver::Scenario &sc,
             const std::vector<driver::ScenarioPoint> &pts, Spans &spans)
{
    using namespace driver;
    double repS = 0.0;
    for (const WorkloadRun::Rep &rep : w.reps)
        repS = std::max(repS, rep.value[kSweepS]);
    const double perPointS =
        repS / double(std::max<std::size_t>(1, pts.size()));
    std::size_t k = perPointS > 0 ? std::size_t(1.0 / perPointS) + 1 : 500;
    k = std::min({k, std::size_t(500), pts.size()});
    k = std::max(k, std::min<std::size_t>(2, pts.size()));
    const std::vector<ScenarioPoint> prefix(pts.begin(),
                                            pts.begin() + long(k));

    // Hand freed heap back first: a forked worker that reuses the
    // ledger's retained heap pays copy-on-write faults that a fork of
    // mispsim, with its small heap, does not.
    ::malloc_trim(0);
    auto runAll = [&](const char *name, unsigned jobs, bool isolate,
                      std::vector<PointResult> *out) {
        RunnerOptions o;
        o.hostLines = false;
        o.jobs = jobs;
        o.isolate = isolate;
        return spans.time(name, w.index, -1, [&] {
            *out = ScenarioRunner(o).runAll(sc, prefix);
        });
    };
    std::vector<PointResult> serial, pooled, isolated;
    const long serialSpan = runAll("driver.runAll.serial", 1, false, &serial);
    const long poolSpan = runAll("driver.runAll.pool", 2, false, &pooled);
    const long isoSpan = runAll("driver.runAll.isolated", 1, true, &isolated);
    double busyS = 0.0;
    for (const PointResult &r : pooled)
        busyS += r.run.phases.parse + r.run.phases.warmup +
                 r.run.phases.run + r.run.phases.serialize;
    for (const auto *set : {&serial, &pooled, &isolated})
        for (const PointResult &r : *set)
            if (!r.run.ok())
                w.problems.push_back("backend probe: a point failed");
    const double poolJobs = double(std::min<std::size_t>(2, k));
    w.layer["driver.pool_efficiency"] =
        busyS * 1e3 / (poolJobs * spans.ms(poolSpan));
    w.layer["driver.isolate_ms_per_point"] =
        (spans.ms(isoSpan) - spans.ms(serialSpan)) / double(k);
    ProbeResult out;
    for (const PointResult &r : serial)
        out.serialPointMs.push_back(
            (r.run.phases.parse + r.run.phases.warmup + r.run.phases.run +
             r.run.phases.serialize) *
            1e3);
    return out;
}

/** In-process jobs-1 pass over @p w's grid with full stats, spans
 *  around each layer's public entry points. Fills w.layer, w.selfMs and
 *  the traced digest. */
void
tracedPass(WorkloadRun &w, Spans &spans)
{
    using namespace driver;
    const int wid = w.index;
    const ProbeResult probe = backendProbe(w, w.sc, w.points, spans);
    const std::size_t firstSpan = spans.size();

    std::string err;
    Scenario sc;
    std::vector<ScenarioPoint> pts;
    bool specOk = false;
    const long specSpan = spans.time("driver.spec", wid, -1, [&] {
        SpecFile spec;
        specOk = SpecFile::parseFile(w.specPath, &spec, &err) &&
                 Scenario::fromSpec(spec, &sc, &err) &&
                 sc.expandPoints(false, &pts, &err);
    });
    if (!specOk) {
        w.problems.push_back("traced pass: " + err);
        w.tracedFailed = w.points.size();
        w.traced = true;
        return;
    }

    RunnerOptions opts;
    opts.fullStats = true;
    opts.hostLines = false;
    ScenarioRunner runner(opts);

    std::vector<PointResult> results;
    results.reserve(pts.size());
    std::vector<double> setupMs, runMs, harvestMs, pointMs, buildMs,
        coverage, encodeUs, decodeUs;
    SimCounters counters;
    double runS = 0.0, insts = 0.0, recordBytes = 0.0;
    std::vector<double> tracedPointMs; // the probe's points, traced
    for (std::size_t i = 0; i < pts.size(); ++i) {
        const long pid = static_cast<long>(i);
        const wl::WorkloadInfo *info = wl::findWorkload(pts[i].workload.name);
        const long build = spans.time("workloads.build", wid, pid, [&] {
            wl::Workload built = info->build(pts[i].workload.params);
            (void)built;
        });
        buildMs.push_back(spans.ms(build));

        PointResult r;
        const long point = spans.time("harness.runPoint", wid, pid, [&] {
            r = runner.runPoint(sc, pts[i], i);
        });
        // The run layer's own phase split becomes the point's children.
        const obs::HostPhases &ph = r.run.phases;
        double at = spans.at(point).start;
        const std::pair<const char *, double> phases[] = {
            {"harness.setup", ph.parse + ph.warmup},
            {"harness.run", ph.run},
            {"harness.harvest", ph.serialize}};
        for (const auto &[name, dur] : phases) {
            spans.add({name, at, at + dur, point, pid, wid});
            at += dur;
        }
        setupMs.push_back((ph.parse + ph.warmup) * 1e3);
        runMs.push_back(ph.run * 1e3);
        harvestMs.push_back(ph.serialize * 1e3);
        pointMs.push_back(spans.ms(point));
        coverage.push_back((at - spans.at(point).start) * 1e3 /
                           spans.ms(point));
        runS += ph.run;
        insts += double(r.run.instsRetired);

        if (!counters.add(r.run.statsJson, &err))
            w.problems.push_back("traced pass: stats dump: " + err);
        r.run.statsJson.clear(); // frames never carry it; keep RSS flat

        std::string wire;
        const long enc = spans.time("snapshot.encode", wid, pid, [&] {
            wire = snap::encodeRunRecord(r.run);
        });
        harness::RunRecord back;
        bool decoded = false;
        const long dec = spans.time("snapshot.decode", wid, pid, [&] {
            decoded = snap::decodeRunRecord(wire, &back, &err);
        });
        if (!decoded)
            w.problems.push_back("traced pass: wire codec: " + err);
        encodeUs.push_back(spans.ms(enc) * 1e3);
        decodeUs.push_back(spans.ms(dec) * 1e3);
        recordBytes += double(wire.size());
        if (i < probe.serialPointMs.size())
            tracedPointMs.push_back(
                (spans.at(dec).end - spans.at(build).start) * 1e3);

        w.tracedFailed += !r.run.ok();
        results.push_back(std::move(r));
    }

    harness::MetricFrame frame;
    const long frameSpan = spans.time("driver.frame", wid, -1, [&] {
        frame = buildMetricFrame(sc, results);
    });
    const std::string metricsPath =
        workPath(std::string(w.def->name) + ".traced.metrics.json");
    const long emitSpan = spans.time("driver.emit", wid, -1, [&] {
        std::ofstream os(metricsPath);
        writeMetricsJson(os, sc, false, frame);
    });
    std::vector<AssertFailure> failures;
    bool assertsOk = false;
    const long assertSpan = spans.time("driver.asserts", wid, -1, [&] {
        assertsOk = evaluateAsserts(sc, frame, &failures, &err);
    });
    w.selfMs = spans.selfMsByLayer(wid, firstSpan);
    if (!assertsOk || !failures.empty()) {
        w.problems.push_back("traced pass: [report] asserts failed");
        w.tracedFailed = pts.size();
    }
    std::string emitted;
    if (snap::readFileBytes(metricsPath, &emitted, &err))
        w.tracedDigest = fnv1a64(emitted);

    const double n = double(pts.size());
    const double minst = insts / 1e6;
    auto perMinst = [&](double count) {
        return minst > 0 ? count / minst : 0.0;
    };
    std::map<std::string, double> &L = w.layer;
    L["driver.spec_ms"] = spans.ms(specSpan);
    L["driver.frame_ms"] = spans.ms(frameSpan);
    L["driver.emit_ms"] = spans.ms(emitSpan);
    L["driver.emit_mb"] = double(emitted.size()) / 1e6;
    L["driver.asserts_ms"] = spans.ms(assertSpan);
    L["harness.setup_ms_p50"] = percentile(setupMs, 50);
    L["harness.setup_ms_p90"] = percentile(setupMs, 90);
    L["harness.run_ms_p50"] = percentile(runMs, 50);
    L["harness.run_ms_p90"] = percentile(runMs, 90);
    L["harness.harvest_ms_p50"] = percentile(harvestMs, 50);
    L["harness.point_ms_p50"] = percentile(pointMs, 50);
    L["harness.point_ms_p90"] = percentile(pointMs, 90);
    L["harness.span_coverage_p50"] = percentile(coverage, 50);
    L["workloads.build_ms_p50"] = percentile(buildMs, 50);
    L["snapshot.record_encode_us"] = percentile(encodeUs, 50);
    L["snapshot.record_decode_us"] = percentile(decodeUs, 50);
    L["snapshot.record_bytes"] = n > 0 ? recordBytes / n : 0.0;
    L["cpu.run_ns_per_inst"] = insts > 0 ? runS * 1e9 / insts : 0.0;
    L["cpu.insts_m"] = minst;
    for (std::size_t c = 0; c < kNumCounters; ++c)
        L[kCounters[c].metric] = perMinst(counters.sum[c]);
    L["mem.frames_per_point"] = n > 0 ? counters.frames / n : 0.0;
    // The same points in the same process, traced against untraced;
    // medians over points shrug off a burst of host noise.
    const double untraced = median(probe.serialPointMs);
    L["obs.trace_overhead"] =
        untraced > 0 ? median(tracedPointMs) / untraced - 1 : 0.0;

    w.traced = true;
}

/** Host ns per retired guest instruction of a BareMachine kernel on the
 *  default engine, median of five runs. */
double
kernelNsPerInst(const std::string &src)
{
    std::vector<double> v;
    for (int r = 0; r < 5; ++r) {
        harness::BareMachine m(src);
        const auto t0 = Clock::now();
        m.run();
        const double s = secondsBetween(t0, Clock::now());
        v.push_back(s * 1e9 / double(std::max<std::uint64_t>(
                                  1, m.seq.instsRetired())));
    }
    return median(v);
}

/** Layer probes that do not depend on the workload: the engine on three
 *  instruction mixes, and the event queue. */
std::map<std::string, double>
hostProbes(Spans &spans)
{
    // ~5x10^6 retired instructions each.
    const std::string alu = R"(
        main:
            movi r1, 0
        loop:
            addi r1, r1, 1
            muli r2, r1, 3
            xori r3, r2, 0x55
            cmpi r1, 1000000
            jcc.lt loop
            halt
    )";
    const std::string mem = R"(
        main:
            movi r1, 0
            movi r4, 0x100000
        loop:
            ld8 r2, [r4+0]
            addi r2, r2, 1
            st8 [r4+0], r2
            addi r1, r1, 1
            cmpi r1, 1000000
            jcc.lt loop
            halt
    )";
    const std::string branch = R"(
        main:
            movi r1, 0
        loop:
            andi r2, r1, 1
            cmpi r2, 0
            jcc.eq even
            addi r3, r3, 1
            jmp next
        even:
            addi r4, r4, 1
        next:
            addi r1, r1, 1
            cmpi r1, 700000
            jcc.lt loop
            halt
    )";
    std::map<std::string, double> out;
    struct Kernel {
        const char *span;
        const char *metric;
        const std::string &src;
    };
    const Kernel kernels[] = {
        {"cpu.kernel.alu", "cpu.kernel_ns_per_inst.alu", alu},
        {"cpu.kernel.mem", "cpu.kernel_ns_per_inst.mem", mem},
        {"cpu.kernel.branch", "cpu.kernel_ns_per_inst.branch", branch}};
    for (const Kernel &k : kernels)
        spans.time(k.span, -1, -1,
                   [&] { out[k.metric] = kernelNsPerInst(k.src); });

    constexpr int kEvents = 200000;
    std::vector<double> ns;
    spans.time("sim.eq", -1, -1, [&] {
        for (int r = 0; r < 5; ++r) {
            EventQueue eq;
            std::uint64_t sink = 0;
            const auto t0 = Clock::now();
            for (int i = 0; i < kEvents; ++i)
                eq.scheduleLambda(Tick(i), "e", [&sink] { ++sink; });
            eq.run();
            ns.push_back(secondsBetween(t0, Clock::now()) * 1e9 / kEvents);
            if (sink != kEvents)
                fatal("ledger: event queue ran %llu of %d events",
                      static_cast<unsigned long long>(sink), kEvents);
        }
    });
    out["sim.eq_ns_per_event"] = median(ns);
    return out;
}

// ---------------------------------------------------------------------
// Preparing, checking and reporting
// ---------------------------------------------------------------------

struct Options {
    std::vector<const WorkloadDef *> workloads;
    std::uint64_t seed = kDefaultSeed;
    unsigned reps = kDefaultReps;
    unsigned seconds = 0; ///< nonzero: measure for this long instead
    bool trace = true;
    std::string outPath;
};

std::string
templatePath(const WorkloadDef &def)
{
    return ledgerPath("workloads/") + def.name + ".scn";
}

/** Generate @p def's spec from @p templateText for @p seed into the work
 *  directory and expand it in-process. */
bool
prepareWorkload(const WorkloadDef &def, int index,
                const std::string &templateText, std::uint64_t seed,
                WorkloadRun *w, std::string *err)
{
    w->def = &def;
    w->index = index;
    const std::string text = substituteSeed(templateText, seed);
    w->specPath = workPath(std::string(def.name) + ".scn");
    if (!snap::writeFileBytes(w->specPath, text, err) ||
        !expandSpec(text, w->specPath, &w->sc, &w->points, err))
        return false;
    if (w->points.size() != def.points) {
        *err = w->specPath + ": expands to " +
               std::to_string(w->points.size()) + " points, expected " +
               std::to_string(def.points);
        return false;
    }
    return true;
}

/** The correctness gate. Reps and the traced pass must all produce the
 *  golden --metrics digest at the golden seed, and one shared digest at
 *  any other seed; a run whose digest differs fails all its points. */
void
checkWorkload(WorkloadRun &w, const Golden &golden, std::uint64_t seed)
{
    const auto g = golden.digests.find(w.def->name);
    if (seed == golden.seed && g != golden.digests.end())
        w.expectDigest = g->second;
    for (const WorkloadRun::Rep &rep : w.reps)
        if (w.expectDigest.empty() && !rep.digest.empty())
            w.expectDigest = rep.digest;

    const std::size_t all = w.points.size();
    for (std::size_t r = 0; r < w.reps.size(); ++r) {
        WorkloadRun::Rep &rep = w.reps[r];
        if (!rep.problem.empty())
            w.problems.push_back("rep " + std::to_string(r) + ": " +
                                 rep.problem);
        else if (rep.digest != w.expectDigest) {
            w.problems.push_back("rep " + std::to_string(r) +
                                 ": --metrics digest " + rep.digest +
                                 " != expected " + w.expectDigest);
            rep.failed = all;
        }
        w.attempted += all;
        w.failed += rep.failed;
    }
    if (w.traced) {
        if (w.tracedDigest != w.expectDigest) {
            w.problems.push_back("traced pass: --metrics digest " +
                                 w.tracedDigest + " != expected " +
                                 w.expectDigest);
            w.tracedFailed = all;
        }
        w.attempted += all;
        w.failed += w.tracedFailed;
        for (const MetricDef &m : kPerLayer)
            if (!w.layer.count(m.name))
                w.problems.push_back(std::string("per-layer metric ") +
                                     m.name + " was not measured");
    }
}

/** A rep's stretches (see leastDisturbedS) are at least this long. */
constexpr double kStretchS = 0.02;

/** A sweep's wall time at its least disturbed. The first rep's stderr
 *  lines cut every rep into the same stretches of about kStretchS (the
 *  lines are deterministic: a HOST and a progress line per point), each
 *  stretch takes its shortest time over the reps, and the stretches are
 *  summed. Host interference comes in bursts shorter than a rep, and
 *  noise only ever adds time to a deterministic run, so this sums the
 *  parts of the reps that missed the bursts. Falls back to the best rep
 *  when the reps wrote different numbers of lines. */
double
leastDisturbedS(const std::vector<WorkloadRun::Rep> &reps)
{
    if (reps.empty())
        return 0.0;
    double best = HUGE_VAL;
    for (const WorkloadRun::Rep &rep : reps)
        best = std::min(best, rep.value[kSweepS]);
    const std::vector<double> &first = reps[0].lineS;
    for (const WorkloadRun::Rep &rep : reps)
        if (rep.lineS.size() != first.size())
            return best;

    // A cut is a line index; cut first.size() is the exit.
    std::vector<std::size_t> cuts;
    double last = 0.0;
    for (std::size_t i = 0; i < first.size(); ++i) {
        if (first[i] - last >= kStretchS) {
            cuts.push_back(i);
            last = first[i];
        }
    }
    cuts.push_back(first.size());
    auto at = [](const WorkloadRun::Rep &rep, std::size_t cut) {
        return cut < rep.lineS.size() ? rep.lineS[cut] : rep.value[kSweepS];
    };
    double total = 0.0;
    for (std::size_t k = 0; k < cuts.size(); ++k) {
        double shortest = HUGE_VAL;
        for (const WorkloadRun::Rep &rep : reps)
            shortest = std::min(shortest, at(rep, cuts[k]) -
                                              (k ? at(rep, cuts[k - 1]) : 0.0));
        total += shortest;
    }
    return total;
}

/** One end-to-end metric of one workload. The samples and their median
 *  and quartiles are as measured, one per rep; value is what the metric
 *  reports (MetricDef::estimator), with times at the reference host
 *  speed. */
struct Summary {
    double value = 0.0;
    double median = 0.0, q1 = 0.0, q3 = 0.0;
    std::vector<double> samples;
};

Summary
summarize(const WorkloadRun &w, int metric)
{
    Summary s;
    for (const WorkloadRun::Rep &rep : w.reps)
        s.samples.push_back(rep.value[std::size_t(metric)]);
    s.median = median(s.samples);
    std::tie(s.q1, s.q3) = quartiles(s.samples);
    const double sweepS = leastDisturbedS(w.reps) * w.hostScale;
    switch (metric) {
    case kSweepS:
        s.value = sweepS;
        break;
    case kHostMips:
        s.value = w.reps.empty() || sweepS <= 0
                      ? 0.0
                      : w.reps[0].insts / sweepS / 1e6;
        break;
    case kSetupS: {
        // Set-up is spread over the whole rep, so no stretch isolates it;
        // its share of a rep moves little when a burst slows the rep.
        std::vector<double> share;
        for (const WorkloadRun::Rep &rep : w.reps)
            if (rep.value[kSweepS] > 0)
                share.push_back(rep.value[kSetupS] / rep.value[kSweepS]);
        s.value = median(share) * sweepS;
        break;
    }
    default:
        s.value = s.median;
    }
    return s;
}

/** The last stdout line. With one workload the metric names are bare;
 *  with several they are prefixed "<workload>:". */
std::string
resultLine(const std::vector<WorkloadRun> &runs, bool trace)
{
    bool correct = true;
    std::size_t attempted = 0, failed = 0;
    std::ostringstream metrics;
    bool first = true;
    for (const WorkloadRun &w : runs) {
        correct = correct && w.problems.empty();
        attempted += w.attempted;
        failed += w.failed;
        const std::string prefix =
            runs.size() == 1 ? "" : std::string(w.def->name) + ":";
        auto emit = [&](const MetricDef &m, double v) {
            metrics << (first ? "" : ", ")
                    << stats::jsonQuote(prefix + m.name)
                    << ": {\"value\": " << num(v)
                    << ", \"unit\": " << stats::jsonQuote(m.unit) << "}";
            first = false;
        };
        if (trace) {
            for (const MetricDef &m : kPerLayer) {
                const auto it = w.layer.find(m.name);
                emit(m, it == w.layer.end() ? 0.0 : it->second);
            }
        } else {
            for (int i = 0; i < kNumE2e; ++i)
                emit(kEndToEnd[i], summarize(w, i).value);
        }
    }
    return std::string("{\"correct\": ") + (correct ? "true" : "false") +
           ", \"attempted\": " + std::to_string(attempted) +
           ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {" +
           metrics.str() + "}}";
}

void
printHuman(const std::vector<WorkloadRun> &runs)
{
    std::printf("%-10s %-32s %14s %14s %14s %14s %4s  %s\n", "workload",
                "metric", "value", "median", "q1", "q3", "n", "unit");
    for (const WorkloadRun &w : runs) {
        for (int i = 0; i < kNumE2e; ++i) {
            const Summary s = summarize(w, i);
            std::printf("%-10s %-32s %14.6g %14.6g %14.6g %14.6g %4zu  %s\n",
                        w.def->name, kEndToEnd[i].name, s.value, s.median,
                        s.q1, s.q3, s.samples.size(), kEndToEnd[i].unit);
        }
        std::printf("%-10s %-32s %14.6g %49s  ratio (%zu of %zu points)\n",
                    w.def->name, "fail_frac",
                    w.attempted ? double(w.failed) / double(w.attempted)
                                : 0.0,
                    "", w.failed, w.attempted);
        std::printf("%-10s %-32s %14.6g %49s  ratio (reference / best probe "
                    "time)\n",
                    w.def->name, "host_scale", w.hostScale, "");
        for (const MetricDef &m : kPerLayer) {
            const auto it = w.layer.find(m.name);
            if (it != w.layer.end())
                std::printf("%-10s %-32s %14.6g %49s  %s\n", w.def->name,
                            m.name, it->second, "", m.unit);
        }
        for (const auto &[layer, ms] : w.selfMs)
            std::printf("%-10s %-32s %14.6g %49s  ms\n", w.def->name,
                        ("self." + layer).c_str(), ms, "");
        for (const std::string &p : w.problems)
            std::printf("%-10s PROBLEM: %s\n", w.def->name, p.c_str());
    }
}

void
writeReport(std::ostream &os, const Env &env, const Options &opt,
            const std::vector<WorkloadRun> &runs,
            const std::string &tracePath)
{
    auto defs = [&](const MetricDef *begin, const MetricDef *end,
                    bool bounded) {
        std::string s = "[";
        for (const MetricDef *m = begin; m != end; ++m) {
            s += std::string(m == begin ? "" : ", ") +
                 "{\"name\": " + stats::jsonQuote(m->name) +
                 ", \"unit\": " + stats::jsonQuote(m->unit) +
                 ", \"better\": " + stats::jsonQuote(m->better);
            if (bounded)
                s += ", \"bound\": " + num(m->bound) + ", \"estimator\": " +
                     stats::jsonQuote(m->estimator);
            s += "}";
        }
        return s + "]";
    };
    os << "{\n  \"schema\": \"misp-ledger/1\",\n";
    os << "  \"env\": " << envJson(env) << ",\n";
    os << "  \"config\": {\"seed\": " << opt.seed << ", \"reps\": "
       << (opt.seconds ? 0 : opt.reps) << ", \"seconds\": " << opt.seconds
       << ", \"trace\": " << (opt.trace ? "true" : "false") << "},\n";
    os << "  \"end_to_end\": "
       << defs(std::begin(kEndToEnd), std::end(kEndToEnd), true) << ",\n";
    os << "  \"per_layer\": "
       << defs(std::begin(kPerLayer), std::end(kPerLayer), false) << ",\n";
    os << "  \"trace_file\": " << stats::jsonQuote(tracePath) << ",\n";
    os << "  \"workloads\": {";
    for (std::size_t k = 0; k < runs.size(); ++k) {
        const WorkloadRun &w = runs[k];
        os << (k ? "," : "") << "\n    " << stats::jsonQuote(w.def->name)
           << ": {\n      \"points\": " << w.points.size()
           << ",\n      \"attempted\": " << w.attempted
           << ",\n      \"failed\": " << w.failed
           << ",\n      \"fail_frac\": "
           << num(w.attempted ? double(w.failed) / double(w.attempted) : 0)
           << ",\n      \"host_scale\": " << num(w.hostScale)
           << ",\n      \"digest\": "
           << stats::jsonQuote(w.reps.empty() ? "" : w.reps[0].digest)
           << ",\n      \"problems\": [";
        for (std::size_t p = 0; p < w.problems.size(); ++p)
            os << (p ? ", " : "") << stats::jsonQuote(w.problems[p]);
        os << "],\n      \"e2e\": {";
        for (int i = 0; i < kNumE2e; ++i) {
            const Summary s = summarize(w, i);
            os << (i ? "," : "") << "\n        "
               << stats::jsonQuote(kEndToEnd[i].name)
               << ": {\"value\": " << num(s.value)
               << ", \"median\": " << num(s.median)
               << ", \"q1\": " << num(s.q1) << ", \"q3\": " << num(s.q3)
               << ", \"n\": " << s.samples.size() << ", \"samples\": [";
            for (std::size_t j = 0; j < s.samples.size(); ++j)
                os << (j ? ", " : "") << num(s.samples[j]);
            os << "]}";
        }
        os << "\n      },\n      \"per_layer\": {";
        bool first = true;
        for (const MetricDef &m : kPerLayer) {
            const auto it = w.layer.find(m.name);
            if (it == w.layer.end())
                continue;
            os << (first ? "" : ",") << "\n        "
               << stats::jsonQuote(m.name) << ": " << num(it->second);
            first = false;
        }
        os << "\n      },\n      \"self_ms_by_layer\": {";
        first = true;
        for (const auto &[layer, ms] : w.selfMs) {
            os << (first ? "" : ", ") << stats::jsonQuote(layer) << ": "
               << num(ms);
            first = false;
        }
        os << "}\n    }";
    }
    os << "\n  }\n}\n";
}

/** The whole ledger: reps round-robin, the correctness gate, the traced
 *  pass, and every report. Returns false when a workload could not even
 *  be prepared (nothing is printed as a result then). */
bool
runLedger(const Options &opt, const Env &env,
          std::vector<WorkloadRun> *runsOut, std::string *err)
{
    const auto epoch = Clock::now();
    Golden golden;
    if (!loadGolden(&golden, err))
        return false;

    std::vector<WorkloadRun> &runs = *runsOut;
    runs.resize(opt.workloads.size());
    for (std::size_t k = 0; k < runs.size(); ++k) {
        const WorkloadDef &def = *opt.workloads[k];
        const int index = int(&def - workloadDefs().data());
        std::string text;
        if (!snap::readFileBytes(templatePath(def), &text, err) ||
            !prepareWorkload(def, index, text, opt.seed, &runs[k], err))
            return false;
    }

    // The probe and the reps share one CPU, so they meet the same share of
    // the host (a busy neighbour on that core slows both). The ledger,
    // which reads the reps' stderr, keeps to the other CPUs meanwhile.
    cpu_set_t all, shared, rest;
    CPU_ZERO(&shared);
    const int cpu = ::sched_getcpu();
    const bool pin = cpu >= 0 &&
                     ::sched_getaffinity(0, sizeof(all), &all) == 0 &&
                     CPU_COUNT(&all) > 1;
    if (pin) {
        CPU_SET(cpu, &shared);
        rest = all;
        CPU_CLR(cpu, &rest);
        ::sched_setaffinity(0, sizeof(rest), &rest);
    }

    const auto t0 = Clock::now();
    double probeBestS = HUGE_VAL;
    bool probeFailed = false;
    auto probe = [&] {
        const double s = runProbe(pin ? &shared : nullptr);
        probeFailed = probeFailed || s <= 0;
        if (s > 0)
            probeBestS = std::min(probeBestS, s);
    };
    for (unsigned round = 0;; ++round) {
        if (opt.seconds > 0) {
            // Start another round only while it should still end within
            // the budget (judged by the mean round so far).
            const double spent = secondsBetween(t0, Clock::now());
            if (round >= kMinTimedRounds &&
                spent + spent / round > double(opt.seconds))
                break;
        } else if (round >= opt.reps) {
            break;
        }
        for (WorkloadRun &w : runs) {
            probe();
            w.reps.push_back(runRep(w, pin ? &shared : nullptr));
        }
    }
    probe();
    if (pin)
        ::sched_setaffinity(0, sizeof(all), &all);
    for (WorkloadRun &w : runs) {
        w.hostScale = probeFailed ? 0.0 : kProbeRefS / probeBestS;
        if (probeFailed)
            w.problems.push_back("the host-speed probe " LEDGER_PROBE
                                 " failed");
    }

    std::string tracePath;
    if (opt.trace) {
        Spans spans(epoch);
        const std::map<std::string, double> probes = hostProbes(spans);
        for (WorkloadRun &w : runs) {
            try {
                tracedPass(w, spans);
            } catch (const std::exception &e) {
                w.problems.push_back(std::string("traced pass: ") +
                                     e.what());
                w.tracedFailed = w.points.size();
                w.traced = true;
            }
            w.layer.insert(probes.begin(), probes.end());
        }
        tracePath = workPath("trace.json");
        std::ofstream os(tracePath);
        spans.writeChromeTrace(os);
    }

    for (WorkloadRun &w : runs)
        checkWorkload(w, golden, opt.seed);

    if (!opt.outPath.empty()) {
        std::ofstream os(opt.outPath);
        writeReport(os, env, opt, runs, tracePath);
        if (!os) {
            *err = "cannot write '" + opt.outPath + "'";
            return false;
        }
    }
    return true;
}

// ---------------------------------------------------------------------
// --selftest
// ---------------------------------------------------------------------

/** A 4-point grid for the schema check: seconds, not minutes. */
const char *const kSelftestSpec = R"(
[scenario]
name = ledger_selftest

[machine misp]
ams = 3
backend = shred

[workload]
name = dense_mvm
param.rows = 8
seed = @SEED@

[run]
max_ticks = 50000000

[sweep]
workload.workers = 1..4

[report]
assert = min ( misp.valid ) == 1
)";

/** BENCHMARK.json must list exactly this binary's workloads and
 *  metrics, with the same units, directions and bounds. */
void
checkBenchmarkJson(const std::function<void(bool, const std::string &)>
                       &check)
{
    const std::string path =
        std::string(LEDGER_SOURCE_ROOT) + "/BENCHMARK.json";
    std::map<std::string, std::map<std::string, JsonScalar>> e2e, layer;
    std::vector<std::string> workloads, e2eOrder, layerOrder;
    std::string err;
    const bool ok = walkJsonFile(
        path,
        [&](const JsonPath &p, const JsonScalar &v) {
            if (p.size() != 3)
                return;
            if (p[0] == "workloads" && p[2] == "name")
                workloads.push_back(v.text);
            auto &table = p[0] == "end_to_end" ? e2e : layer;
            auto &order = p[0] == "end_to_end" ? e2eOrder : layerOrder;
            if (p[0] == "end_to_end" || p[0] == "per_layer") {
                if (!table.count(p[1]))
                    order.push_back(p[1]);
                table[p[1]][p[2]] = v;
            }
        },
        &err);
    check(ok, "BENCHMARK.json: " + err);
    if (!ok)
        return;
    std::vector<std::string> want;
    for (const WorkloadDef &d : workloadDefs())
        want.push_back(d.name);
    check(workloads == want, "BENCHMARK.json: workloads differ");
    auto compare = [&](const char *what, const MetricDef *begin,
                       const MetricDef *end, auto &table, auto &order,
                       bool bounded) {
        check(order.size() == std::size_t(end - begin),
              std::string("BENCHMARK.json: ") + what + " count differs");
        for (std::size_t i = 0; i < order.size() && begin + i < end; ++i) {
            const MetricDef &m = begin[i];
            auto &row = table[order[i]];
            const bool same =
                row["name"].text == m.name && row["unit"].text == m.unit &&
                row["better"].text == m.better &&
                (!bounded || row["bound"].number == m.bound);
            check(same, std::string("BENCHMARK.json: ") + what + " " +
                            m.name + " differs");
        }
    };
    compare("end_to_end", std::begin(kEndToEnd), std::end(kEndToEnd), e2e,
            e2eOrder, true);
    compare("per_layer", std::begin(kPerLayer), std::end(kPerLayer), layer,
            layerOrder, false);
}

/** Check the final line's schema: exactly correct/attempted/failed/
 *  metrics, and every metric of @p defs with a value and a unit. */
void
checkResultLine(const std::string &line, const MetricDef *begin,
                const MetricDef *end, std::size_t attempted,
                const std::function<void(bool, const std::string &)> &check)
{
    std::map<std::string, JsonScalar> top;
    std::map<std::string, std::map<std::string, JsonScalar>> metrics;
    std::string err;
    check(walkJson(
              line,
              [&](const JsonPath &p, const JsonScalar &v) {
                  if (p.size() == 1)
                      top[p[0]] = v;
                  else if (p.size() == 3 && p[0] == "metrics")
                      metrics[p[1]][p[2]] = v;
              },
              &err),
          "result line: " + err);
    check(top.size() == 3 && top.count("correct") && top.count("attempted") &&
              top.count("failed"),
          "result line: top-level keys");
    check(top["correct"].text == "true", "result line: not correct");
    check(top["attempted"].number == double(attempted),
          "result line: attempted");
    check(top["failed"].number == 0, "result line: failed");
    check(metrics.size() == std::size_t(end - begin),
          "result line: metric count");
    for (const MetricDef *m = begin; m != end; ++m) {
        auto &row = metrics[m->name];
        check(row.size() == 2 &&
                  row["value"].kind == JsonScalar::Kind::Number &&
                  row["unit"].text == m->unit,
              std::string("result line: metric ") + m->name);
    }
}

int
selftest()
{
    std::vector<std::string> fails;
    const std::function<void(bool, const std::string &)> check =
        [&](bool ok, const std::string &what) {
            if (!ok)
                fails.push_back(what);
        };
    auto near = [](double a, double b) { return std::fabs(a - b) < 1e-9; };

    // Statistics helpers on fixed vectors (quartiles as Python's
    // statistics.quantiles(v, n=4) gives them).
    check(near(median({3, 1, 2}), 2) && near(median({4, 1, 3, 2}), 2.5),
          "median");
    auto q = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
    check(near(q.first, 2.75) && near(q.second, 8.25), "quartiles n=10");
    q = quartiles({5, 1, 3});
    check(near(q.first, 1.0) && near(q.second, 5.0), "quartiles n=3");
    q = quartiles({2, 1});
    check(near(q.first, 0.75) && near(q.second, 2.25), "quartiles n=2");
    check(near(percentile({1, 2, 3, 4, 5}, 90), 4.6) &&
              near(percentile({10}, 50), 10) &&
              near(percentile({4, 1, 3, 2}, 50), 2.5),
          "percentile");

    // Least-disturbed stretches: a burst in a different stretch of each
    // rep is left out; reps that wrote different line counts fall back
    // to the best rep.
    WorkloadRun::Rep burstA, burstB;
    burstA.lineS = {0.03, 0.10, 0.13};
    burstA.value[kSweepS] = 0.16;
    burstB.lineS = {0.05, 0.08, 0.11};
    burstB.value[kSweepS] = 0.14;
    check(near(leastDisturbedS({burstA, burstB}), 0.12), "leastDisturbedS");
    burstB.lineS.pop_back();
    check(near(leastDisturbedS({burstA, burstB}), 0.14),
          "leastDisturbedS: line counts differ");
    check(runProbe(nullptr) > 0, "the host-speed probe " LEDGER_PROBE);

    // FNV-1a 64 reference vectors.
    check(fnv1a64("") == "cbf29ce484222325" &&
              fnv1a64("a") == "af63dc4c8601ec8c" &&
              fnv1a64("foobar") == "85944171f73967e8",
          "fnv1a64");

    // The reader rejects truncated and over-deep input.
    std::string err;
    auto ignore = [](const JsonPath &, const JsonScalar &) {};
    check(!walkJson("{\"a\": [1, 2", ignore, &err), "json: truncated");
    check(!walkJson(std::string(100, '['), ignore, &err), "json: depth");

    // Seed substitution into every template.
    for (const WorkloadDef &def : workloadDefs()) {
        std::string text;
        driver::Scenario sc;
        std::vector<driver::ScenarioPoint> pts;
        const bool read = snap::readFileBytes(templatePath(def), &text, &err);
        check(read && text.find("@SEED@") != std::string::npos,
              std::string(def.name) + ": template has no @SEED@");
        const std::string spec = substituteSeed(text, 987654321);
        check(spec.find("@SEED@") == std::string::npos &&
                  spec.find("seed = 987654321") != std::string::npos,
              std::string(def.name) + ": seed substitution");
        check(expandSpec(spec, def.name, &sc, &pts, &err) &&
                  pts.size() == def.points,
              std::string(def.name) + ": spec expands to " +
                  std::to_string(pts.size()) + " points " + err);
    }

    checkBenchmarkJson(check);

    // One rep and one traced pass of a 4-point spec, then the schema of
    // both result lines and of the report.
    const WorkloadDef def{"selftest", 4, {}};
    WorkloadRun w;
    Spans spans(Clock::now());
    if (prepareWorkload(def, int(workloadDefs().size()), kSelftestSpec, 7,
                        &w, &err)) {
        w.reps.push_back(runRep(w, nullptr));
        tracedPass(w, spans);
        const auto probes = hostProbes(spans);
        w.layer.insert(probes.begin(), probes.end());
        checkWorkload(w, Golden{}, 7);
        for (const std::string &p : w.problems)
            check(false, "4-point run: " + p);
        const std::vector<WorkloadRun> runs = {w};
        checkResultLine(resultLine(runs, false), std::begin(kEndToEnd),
                        std::end(kEndToEnd), 8, check);
        checkResultLine(resultLine(runs, true), std::begin(kPerLayer),
                        std::end(kPerLayer), 8, check);
        std::ostringstream report;
        writeReport(report, collectEnv(), Options{}, runs, "");
        std::map<std::string, bool> seen;
        check(walkJson(
                  report.str(),
                  [&](const JsonPath &p, const JsonScalar &) {
                      std::string key;
                      for (const std::string &k : p)
                          key += (key.empty() ? "" : ".") + k;
                      seen[key] = true;
                  },
                  &err),
              "report: " + err);
        for (const char *key :
             {"schema", "env.git_sha", "env.compiler", "env.build_type",
              "env.cpu_model", "env.nproc", "env.counter_source",
              "env.hw_counters", "workloads.selftest.failed",
              "workloads.selftest.digest",
              "workloads.selftest.e2e.sweep_s.median",
              "workloads.selftest.e2e.sweep_s.q1",
              "workloads.selftest.e2e.sweep_s.n",
              "workloads.selftest.per_layer.obs.trace_overhead"})
            check(seen.count(key) > 0, std::string("report: no ") + key);
    } else {
        check(false, "4-point spec: " + err);
    }

    for (const std::string &f : fails)
        std::printf("selftest FAILED: %s\n", f.c_str());
    std::printf("selftest: %s\n", fails.empty() ? "ok" : "FAILED");
    return fails.empty() ? 0 : 1;
}

int
usage(const char *argv0, int code)
{
    std::fprintf(code ? stderr : stdout,
                 "usage: %s [--workload W] [--seed N] [--reps R | "
                 "--seconds S]\n"
                 "          [--trace 0|1] [-o FILE]\n"
                 "       %s --selftest\n"
                 "Workloads: suite, multiprog, grid (default: all). "
                 "Defaults: --seed %llu, --reps %u, --trace 1.\n",
                 argv0, argv0, static_cast<unsigned long long>(kDefaultSeed),
                 kDefaultReps);
    return code;
}

} // namespace

int
main(int argc, char **argv)
{
    setQuietLogging(true);
    Options opt;
    bool selftestMode = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool hasValue = i + 1 < argc;
        if (arg == "-h" || arg == "--help")
            return usage(argv[0], 0);
        if (arg == "--selftest") {
            selftestMode = true;
        } else if (arg == "--workload" && hasValue) {
            const std::string name = argv[++i];
            const WorkloadDef *found = nullptr;
            for (const WorkloadDef &d : workloadDefs())
                if (name == d.name)
                    found = &d;
            if (!found) {
                std::fprintf(stderr, "ledger: unknown workload '%s'\n",
                             name.c_str());
                return usage(argv[0], 2);
            }
            opt.workloads.push_back(found);
        } else if (arg == "--seed" && hasValue) {
            if (!driver::parseU64(argv[++i], &opt.seed))
                return usage(argv[0], 2);
        } else if (arg == "--reps" && hasValue) {
            if (!driver::parseUnsigned(argv[++i], &opt.reps) ||
                opt.reps == 0)
                return usage(argv[0], 2);
        } else if (arg == "--seconds" && hasValue) {
            if (!driver::parseUnsigned(argv[++i], &opt.seconds) ||
                opt.seconds == 0)
                return usage(argv[0], 2);
        } else if (arg == "--trace" && hasValue) {
            const std::string v = argv[++i];
            if (v != "0" && v != "1")
                return usage(argv[0], 2);
            opt.trace = v == "1";
        } else if (arg == "-o" && hasValue) {
            opt.outPath = argv[++i];
        } else {
            std::fprintf(stderr, "ledger: bad argument '%s'\n", arg.c_str());
            return usage(argv[0], 2);
        }
    }

    std::error_code ec;
    std::filesystem::create_directories(LEDGER_WORK_DIR, ec);
    if (ec) {
        std::fprintf(stderr, "ledger: cannot create %s: %s\n",
                     LEDGER_WORK_DIR, ec.message().c_str());
        return 1;
    }
    if (selftestMode)
        return selftest();

    const Env env = collectEnv();
    if (!env.optimized || !env.sanitizer.empty()) {
        std::fprintf(stderr,
                     "ledger: refusing to time a %s build (build type "
                     "'%s', flags '%s'); configure with "
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo and no "
                     "MISP_SANITIZE\n",
                     env.sanitizer.empty() ? "unoptimised"
                                           : env.sanitizer.c_str(),
                     env.buildType.c_str(), env.cxxFlags.c_str());
        return 2;
    }
    if (opt.workloads.empty())
        for (const WorkloadDef &d : workloadDefs())
            opt.workloads.push_back(&d);

    std::printf("ledger: seed %llu, %zu workload(s), ",
                static_cast<unsigned long long>(opt.seed),
                opt.workloads.size());
    if (opt.seconds)
        std::printf("%u s of reps", opt.seconds);
    else
        std::printf("%u rep(s)", opt.reps);
    std::printf(", trace %s; git %s, %s, %s x%u, counters %s (%s)\n",
                opt.trace ? "on" : "off", env.gitSha.c_str(),
                env.buildType.c_str(), env.cpuModel.c_str(), env.nproc,
                env.counterSource.c_str(), env.hwCounters.c_str());
    std::fflush(stdout);

    std::vector<WorkloadRun> runs;
    std::string err;
    if (!runLedger(opt, env, &runs, &err)) {
        std::fprintf(stderr, "ledger: %s\n", err.c_str());
        return 1;
    }
    printHuman(runs);
    std::printf("%s\n", resultLine(runs, opt.trace).c_str());
    return 0;
}
