#include "cli_help.hh"

#include <cstdio>
#include <cstring>

namespace misp::driver {

const std::vector<CliFlag> &
mispsimFlags()
{
    static const std::vector<CliFlag> flags = {
        {"-o FILE", "write results as JSON to FILE"},
        {"--metrics FILE",
         "write the full metric frame (every sweep\n"
         "point x every metric, incl. derived\n"
         "speedup and per-10^6-instruction event\n"
         "rates) as deterministic JSON to FILE"},
        {"--quick", "apply the scenario's [quick] overrides"},
        {"--jobs N",
         "run grid points on N worker threads; all\n"
         "outputs (JSON, tables, --points, --trace)\n"
         "stay byte-identical to a serial run"},
        {"--isolate",
         "crash-isolated workers: fork one child\n"
         "process per grid point (up to N at once);\n"
         "a crashing point is recorded as\n"
         "worker_crashed instead of killing the\n"
         "sweep; outputs stay byte-identical"},
        {"--deadline MS",
         "(with --isolate) per-attempt wall-clock\n"
         "deadline; a worker exceeding it is\n"
         "SIGKILLed and its point recorded as\n"
         "worker_timeout (0 = none; default: the\n"
         "scenario's [run] point_deadline_ms)"},
        {"--retries N",
         "(with --isolate) relaunch a point up to N\n"
         "extra times after a transient failure\n"
         "(crash, timeout, snapshot error); the\n"
         "record keeps the attempt count"},
        {"--backoff MS",
         "(with --isolate) base relaunch delay;\n"
         "attempt k waits MS * 2^(k-1) ms"},
        {"--inject SPEC",
         "(with --isolate) deterministic fault\n"
         "injection, e.g. \"seed=7;crash@0;hang@2\"\n"
         "(kinds: crash, hang, corrupt_pipe,\n"
         "corrupt_snapshot, fork_fail; targets:\n"
         "point indices `1,3` / `0..2` or `p0.1`\n"
         "probability; `x1` bounds a fault to the\n"
         "first attempt); merged over the\n"
         "scenario's [faults] section"},
        {"--on-failed P",
         "what failed points do to reporting:\n"
         "fail (default, exit 1), skip (degrade\n"
         "gracefully: asserts skip affected\n"
         "groups, exit 4), require_all (asserts\n"
         "touching failed points fail)"},
        {"--save-snapshot DIR",
         "warm every grid point up for the\n"
         "scenario's [snapshot] warmup_ticks, write\n"
         "DIR/point_<k>.misnap, and keep running to\n"
         "completion (results unchanged)"},
        {"--from-snapshot DIR",
         "restore each grid point from\n"
         "DIR/point_<k>.misnap instead of booting\n"
         "cold; results are byte-identical to a\n"
         "cold run of the same spec (exception:\n"
         "--full-stats decode-cache hit/miss\n"
         "counters, which restart cold — the\n"
         "decode cache is derived state)"},
        {"--engine=E",
         "force the host execution engine on every\n"
         "machine: ref (per-instruction\n"
         "fetch+decode) or superblock (chained\n"
         "basic-block dispatch; the default). Both\n"
         "engines produce bit-identical results"},
        {"--trace FILE",
         "record each point's deterministic event\n"
         "trace and write one Chrome trace-event\n"
         "JSON (chrome://tracing, Perfetto) to\n"
         "FILE. Categories and the event bound\n"
         "come from the scenario's [trace]\n"
         "section; the trace is simulated-plane\n"
         "data — byte-identical across --jobs,\n"
         "--isolate, every --engine, and snapshot\n"
         "save/restore topologies"},
        {"--trace-skip N",
         "(with --trace) skip events before the\n"
         "Nth processed queue event; set N to a\n"
         "restored trace's reported `base` to\n"
         "reproduce that trace from a cold run"},
        {"--run-log FILE",
         "append one JSON line per scheduling\n"
         "event (dispatched / retried / timed_out\n"
         "/ completed, with attempt, worker pid,\n"
         "wall ms, backoff) to FILE — host-plane\n"
         "telemetry, never byte-compared"},
        {"--shard K/N",
         "run only this process's 1/N of the sweep:\n"
         "coordinate combinations are dealt\n"
         "round-robin (combination j to shard\n"
         "j mod N), so groups stay whole;\n"
         "--metrics writes a binary shard image\n"
         "(the points' RunRecords) that merges\n"
         "byte-identically; points keep\n"
         "their global grid indices, so snapshots\n"
         "and --inject compose unchanged; [report]\n"
         "asserts and [table]s are checked when the\n"
         "spec loads, and only their evaluation is\n"
         "deferred to --merge-frames"},
        {"--merge-frames OUT",
         "merge mode: treat the remaining\n"
         "arguments as per-shard images, validate\n"
         "them against the scenario (config hash,\n"
         "shard arity, gaps, overlaps, corruption\n"
         "— fail-closed, naming the offending\n"
         "file), and finish the reassembled sweep\n"
         "like a serial run: OUT byte-identical\n"
         "to its --metrics, the same tables and\n"
         "failure lines, and the deferred\n"
         "[report] asserts evaluated"},
        {"--progress",
         "force per-point progress lines on stderr\n"
         "even in --points mode (default: on for\n"
         "table/JSON output)"},
        {"--profile FILE",
         "write a host-profiling summary to FILE:\n"
         "per-phase (parse/warmup/run/serialize)\n"
         "totals and histograms plus per-engine\n"
         "host-MIPS — host-plane data, varies run\n"
         "to run"},
        {"--md", "print the results tables as markdown"},
        {"--points",
         "print canonical point lines only (the\n"
         "engine-equivalence diff format)"},
        {"--dry-run",
         "expand and print the grid without running;\n"
         "loading the spec already checks every\n"
         "machine and every assert, column and\n"
         "footer, so only their evaluation is left"},
        {"--full-stats",
         "include a full stats dump per point in the\n"
         "JSON output"},
        {"--verbose", "keep the simulator's event log on stderr"},
        {"--list-workloads", "print the workload registry and exit"},
        {"-h, --help", "this message"},
    };
    return flags;
}

const std::vector<CliExitCode> &
mispsimExitCodes()
{
    static const std::vector<CliExitCode> codes = {
        {0, "every point ran, every assert held"},
        {1, "a point failed, an assert failed, or a spec error"},
        {2, "usage error"},
        {4,
         "completed with failed points (--on-failed skip /\n"
         "[report] on_failed_points = skip) and everything else\n"
         "passed"},
    };
    return codes;
}

std::vector<std::string>
mispsimFlagNames()
{
    std::vector<std::string> names;
    for (const CliFlag &f : mispsimFlags()) {
        const char *p = f.spec;
        while (*p) {
            // One alias: up to the first ' ', ',', or '='.
            std::size_t n = std::strcspn(p, " ,=");
            if (n > 0)
                names.emplace_back(p, n);
            p += n;
            // A ',' separates aliases; a ' ' or '=' starts a value
            // placeholder, which ends the spec's name list.
            if (*p != ',')
                break;
            ++p;
            while (*p == ' ')
                ++p;
        }
    }
    return names;
}

std::string
mispsimUsage(const char *argv0)
{
    std::string out = "usage: ";
    out += argv0;
    out += " <scenario.scn> [options]\n"
           "       ";
    out += argv0;
    out += " <scenario.scn> --merge-frames OUT IN1 [IN2...]\n"
           "\n"
           "Runs a declarative scenario: machines x workloads x sweep "
           "axes.\n"
           "Spec format: see docs/ARCHITECTURE.md (Scenario driver) and "
           "the\n"
           "checked-in examples under scenarios/.\n"
           "\n"
           "options:\n";
    for (const CliFlag &f : mispsimFlags()) {
        std::string spec = "  ";
        spec += f.spec;
        if (spec.size() < 21)
            spec.resize(21, ' ');
        else
            spec += " ";
        const std::string indent(21, ' ');
        out += spec;
        for (const char *p = f.help; *p;) {
            const char *nl = std::strchr(p, '\n');
            std::size_t n = nl ? static_cast<std::size_t>(nl - p)
                               : std::strlen(p);
            out.append(p, n);
            out += "\n";
            p += n + (nl ? 1 : 0);
            if (*p)
                out += indent;
        }
    }
    out += "\nexit codes:\n";
    for (const CliExitCode &c : mispsimExitCodes()) {
        char head[16];
        std::snprintf(head, sizeof(head), "  %d  ", c.code);
        out += head;
        const std::string indent(std::strlen(head), ' ');
        for (const char *p = c.help; *p;) {
            const char *nl = std::strchr(p, '\n');
            std::size_t n = nl ? static_cast<std::size_t>(nl - p)
                               : std::strlen(p);
            out.append(p, n);
            out += "\n";
            p += n + (nl ? 1 : 0);
            if (*p)
                out += indent;
        }
    }
    return out;
}

} // namespace misp::driver
