/**
 * @file
 * The scenario model: what a parsed `.scn` spec *means*.
 *
 * A scenario is a grid of simulation runs:
 *
 *   points = [machine sections] x cartesian([sweep] axes)
 *
 * Sections:
 *   [scenario]            name, title
 *   [machine <name>]      one grid axis value per section; knobs below
 *   [workload]            the measured target (first section) and its
 *                         parameters; later [workload] sections are
 *                         co-loaded background processes (mixed runs)
 *   [run]                 max_ticks, competitors, competitor, and the
 *                         --isolate supervision knobs
 *                         point_deadline_ms / retries /
 *                         retry_backoff_ms (defaults when the CLI
 *                         doesn't override them)
 *   [sweep]               axes: key = value-list (commas, `lo..hi`)
 *   [quick]               axis/knob overrides applied in --quick mode
 *   [report]              baseline_machine, baseline_axis, and
 *                         repeatable `assert = <expr>` paper-claim
 *                         guards (grammar: driver/report.hh)
 *   [table]               zero or more paper tables rendered from the
 *                         sweep instead of the per-point table:
 *                         `title`, repeatable `column = <label> =
 *                         <expr>` and `footer = <label> = <aggregate
 *                         expr> [by suite]` (driver/report.hh)
 *   [snapshot]            warmup_ticks: per-point warmup depth for
 *                         `mispsim --save-snapshot` (snapshot/)
 *   [faults]              deterministic fault injection for --isolate
 *                         sweeps: `seed = N` plus repeatable
 *                         `inject = <item>` lines (item grammar:
 *                         driver/faults.hh)
 *   [trace]               deterministic-trace defaults for
 *                         `mispsim --trace`: `categories` (a list of
 *                         signal/shred/sched/mem/rtcall/engine/
 *                         snapshot, or all|none|default) and
 *                         `max_events` (ring bound; overflow counts
 *                         into the drop counter)
 *
 * Machine knobs: `processors` (comma list of per-processor AMS counts)
 * or `ams` (uniprocessor shorthand), `backend` (shred|os),
 * `engine` (ref|superblock), `signal_cycles`,
 * `context_xfer_cycles`,
 * `slice_limit`, `serialization` (suspend_all|speculative_monitor),
 * `phys_frames`, the OS-model cadence knobs `timer_period`,
 * `device_irq_mean_period` (0 disables device IRQs — a deterministic
 * event mix), `quantum_ticks`, `kernel_seed`, and the Figure-7
 * placement policy: `pin_min_ams` (pin the target to processors with
 * at least that many AMSs; 0 = no pinning) and `ideal_placement`
 * (keep competitors off those processors).
 *
 * Sweep axis keys: `workload.<param>` (name/workers/scale/prefault/
 * seed, or a per-workload knob `workload.param.<key>`; `workload.name`
 * accepts the selectors of wl::selectWorkloads, e.g. `all` or
 * `suite:rms`), `machine.<knob>` (overrides the knob on every
 * machine), and `competitors`.
 *
 * [workload] sections take the same keys without the prefix, including
 * `param.<key> = <value>` per-workload knobs (routed through
 * wl::setWorkloadParam into WorkloadParams::extra — e.g. the
 * RayTracer's `param.rows` scene size).
 */

#ifndef MISP_DRIVER_SCENARIO_HH
#define MISP_DRIVER_SCENARIO_HH

#include <string>
#include <utility>
#include <vector>

#include "driver/faults.hh"
#include "driver/spec.hh"
#include "misp/misp_system.hh"
#include "obs/trace.hh"
#include "shredlib/stub_library.hh"
#include "workloads/workload.hh"

namespace misp::driver {

/** One grid-axis machine: topology + per-processor knobs + placement. */
struct MachineSpec {
    std::string name = "machine";
    std::vector<unsigned> amsPerProcessor{7};
    rt::Backend backend = rt::Backend::Shred;
    /** Host execution engine (`engine = ref|superblock`). */
    cpu::Engine engine = cpu::Engine::Superblock;
    Cycles signalCycles = 5000;
    Cycles contextXferCycles = 150;
    unsigned sliceLimit = 32;
    arch::SerializationPolicy serialization =
        arch::SerializationPolicy::SuspendAll;
    std::uint64_t physFrames = 1ull << 18;

    // OS-model knobs (defaults match os::KernelConfig). Exposed so the
    // event-mix ablations can pin the interrupt cadence from the spec
    // (e.g. `device_irq_mean_period = 0` for a deterministic mix).
    Tick timerPeriod = os::KernelConfig{}.timerPeriod;
    Tick deviceIrqMeanPeriod = os::KernelConfig{}.deviceIrqMeanPeriod;
    unsigned quantumTicks = os::KernelConfig{}.quantumTicks;
    std::uint64_t kernelSeed = os::KernelConfig{}.seed;

    /** Pin the target to processors with >= this many AMSs (0 = load
     *  with no affinity, the kernel schedules freely). */
    unsigned pinMinAms = 0;
    /** Pin competitors to the processors the target is *not* pinned to
     *  (Figure 7's "ideal" placement). No-op when no such CPU exists. */
    bool idealPlacement = false;

    /** Build the arch config this spec describes. */
    arch::SystemConfig toSystemConfig() const;

    /** Apply one `key = value` knob. False + @p err on unknown key or
     *  bad value. */
    bool apply(const std::string &key, const std::string &value,
               std::string *err);

    /** "3,0,0,0,0" style rendering of amsPerProcessor. */
    std::string topologyString() const;
};

/** A workload instance: registry name + build parameters. */
struct WorkloadSpec {
    std::string name;
    wl::WorkloadParams params;

    bool apply(const std::string &key, const std::string &value,
               std::string *err);
};

/** One sweep axis: a dotted key and its expanded value list. */
struct SweepAxis {
    std::string key;
    std::vector<std::string> values;
    int line = 0; ///< spec line, for expansion-time diagnostics
};

/** One `assert = <expr>` guard from a [report] section, evaluated
 *  against RunRecord-derived metrics after the grid runs. */
struct ReportAssert {
    std::string text;
    int line = 0; ///< spec line, for failure diagnostics
};

/** What reporting does with grid points that failed for infrastructure
 *  reasons (worker crash/timeout, snapshot error) — the
 *  `[report] on_failed_points` policy. */
enum class FailedPointPolicy {
    /** Failed points make the run fail (exit 1), but asserts still
     *  evaluate over the surviving points (default). */
    Fail,
    /** Degrade gracefully: asserts skip groups containing failed
     *  points, and `mispsim` exits 4 ("completed with failed points")
     *  instead of 1 when everything else passes. */
    Skip,
    /** Any assert whose evaluation touches a failed point is itself a
     *  failure — for claims that are only meaningful over the full
     *  grid. */
    RequireAll,
};

/** Derived-column requests for the per-point table, and asserts. */
struct ReportSpec {
    /** Speedup column: ticks on this machine / ticks, per coordinate. */
    std::string baselineMachine;
    /** Speedup column relative to the point with this axis at its
     *  first value, same machine / other coordinates ("competitors"
     *  gives Figure 7's vs-unloaded curve). */
    std::string baselineAxis;
    /** `on_failed_points = fail|skip|require_all` (default fail). */
    FailedPointPolicy onFailedPoints = FailedPointPolicy::Fail;
    /** Paper-claim guards; see driver/report.hh for the grammar. */
    std::vector<ReportAssert> asserts;
};

/** One `column = <label> = <expr>` or `footer = <label> = <expr>
 *  [by suite]` line of a [table] section. */
struct TableCell {
    std::string label;
    std::string expr; ///< a `side` of the assert grammar
    bool bySuite = false; ///< footers only: one line per suite
    int line = 0;
};

/** One [table] section: a paper table declared as data. */
struct TableSpec {
    std::string title;
    std::vector<TableCell> columns;
    std::vector<TableCell> footers;
};

/** A fully-resolved grid point, ready to run. */
struct ScenarioPoint {
    MachineSpec machine;   ///< machine axis value + machine.* overrides
    WorkloadSpec workload; ///< target, with workload.* overrides
    std::vector<WorkloadSpec> background; ///< extra [workload] sections
    unsigned competitors = 0;
    std::string competitor = "spinner";
    /** Swept (key, value) coordinates, in axis order — machine name is
     *  carried by `machine.name`, not repeated here. */
    std::vector<std::pair<std::string, std::string>> coords;

    std::string coordString() const; ///< "competitors=2 workload.name=gauss"
};

/** A validated scenario. */
struct Scenario {
    std::string name = "scenario";
    std::string title;
    std::string specPath; ///< diagnostic prefix for expansion errors
    std::vector<MachineSpec> machines;
    WorkloadSpec workload;
    std::vector<WorkloadSpec> background;
    unsigned competitors = 0;
    std::string competitor = "spinner";
    Tick maxTicks = 2'000'000'000'000ull;
    std::vector<SweepAxis> sweep;
    std::vector<SweepAxis> quick;
    ReportSpec report;
    /** [table] sections, in file order; when any exist they replace
     *  the per-point table on stdout. */
    std::vector<TableSpec> tables;

    /** `[snapshot] warmup_ticks`: how deep each grid point warms up
     *  before `--save-snapshot` archives it (0 = save at the first
     *  snapshot point). Inert unless the CLI/runner asks for snapshot
     *  traffic. */
    Tick snapshotWarmupTicks = 0;

    // --isolate supervision defaults ([run] section; the CLI's
    // --deadline / --retries / --backoff flags override them).

    /** Wall-clock deadline per worker attempt in ms; 0 = no deadline. */
    std::uint64_t pointDeadlineMs = 0;
    /** Extra launches after a transient failure (crash / timeout /
     *  snapshot error) before a point is given up. */
    unsigned retries = 0;
    /** Base relaunch delay in ms; attempt k waits
     *  retryBackoffMs * 2^(k-1) (deterministic exponential backoff). */
    unsigned retryBackoffMs = 100;

    /** `[faults]` schedule; empty unless the spec declares one. Merged
     *  with (and overridden by) the CLI's --inject plan. */
    FaultPlan faults;

    /** `[trace]` defaults (category filter + buffer bound). `enabled`
     *  stays false here — recording is requested by the CLI
     *  (`--trace FILE`), never by the spec alone. */
    obs::TraceConfig trace;

    /**
     * Validate and type a parsed spec. All diagnostics carry
     * "path:line:" prefixes. Requires at least one [machine] and one
     * [workload] section with a registered workload name.
     */
    static bool fromSpec(const SpecFile &spec, Scenario *out,
                         std::string *err);

    /**
     * Expand the run grid: cartesian product of the sweep axes (with
     * [quick] overrides when @p quickMode), crossed with the machine
     * list. Sweep order: first axis varies slowest; machines vary
     * fastest. Axis values are validated here (e.g. workload names).
     */
    bool expandPoints(bool quickMode, std::vector<ScenarioPoint> *out,
                      std::string *err) const;
};

} // namespace misp::driver

#endif // MISP_DRIVER_SCENARIO_HH
