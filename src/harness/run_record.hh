/**
 * @file
 * The unified run layer: one value type describing a run to perform
 * (RunRequest) and one describing everything it measured (RunRecord),
 * with runOne() as the single execution entry point.
 *
 * Every consumer — the scenario runner behind `mispsim`, bench_common's
 * runWorkload(), tests — funnels through
 * runOne(), so run semantics (placement policy, timing, validation,
 * event harvesting) can never diverge between harnesses. A RunRecord
 * is self-contained and deterministic in its simulated fields (ticks,
 * events, retired instructions), which is what makes scenario-level
 * `--jobs N` fan-out possible: records computed on worker threads are
 * indistinguishable from records computed serially.
 */

#ifndef MISP_HARNESS_RUN_RECORD_HH
#define MISP_HARNESS_RUN_RECORD_HH

#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "obs/host_profile.hh"
#include "obs/trace.hh"
#include "workloads/workload.hh"

namespace misp::harness {

/** One workload instance to load: registry name + build parameters. */
struct RunWorkload {
    std::string name;
    wl::WorkloadParams params;
};

/** Everything needed to perform one measured run. */
struct RunRequest {
    /** Label for the uniform HOST throughput line on stderr. */
    std::string label = "run";

    /** The machine (including misp.engine — callers that honor
     *  --engine set it before submitting; on a snapshot restore this
     *  engine choice overrides the saver's). */
    arch::SystemConfig config;
    rt::Backend backend = rt::Backend::Shred;

    /** The measured target process. Must name a registered workload. */
    RunWorkload target;
    /** Co-loaded background processes (mixed runs); not measured. */
    std::vector<RunWorkload> background;

    /** N competing single-threaded processes (Figure 7's load). */
    unsigned competitors = 0;
    std::string competitor = "spinner";

    /** Placement policy (Figure 7, §5.4): pin the target to processors
     *  with at least this many AMSs (0 = no pinning)... */
    unsigned pinMinAms = 0;
    /** ...and optionally keep competitors off those processors. */
    bool idealPlacement = false;

    /** Tick budget; exceeding it yields RunStatus::MaxTicksReached. */
    Tick maxTicks = 2'000'000'000'000ull;

    /** Emit the uniform HOST throughput line on stderr. */
    bool hostLine = true;
    /** Capture a full stats::StatGroup JSON dump into the record. */
    bool fullStats = false;

    // Snapshot plumbing (src/snapshot/) -------------------------------

    /** Restore the machine from this image instead of booting cold;
     *  the run continues from the archived tick. The image's config
     *  hash must match this request (fail-closed SnapshotError
     *  otherwise). Empty = cold boot. */
    std::string snapshotIn;
    /** After warmupTicks, archive the machine here, then keep running
     *  to completion — so a save leg's RunRecord stays byte-identical
     *  to an uninterrupted run's. Empty = never save. */
    std::string snapshotOut;
    /** Simulated ticks to run before saving snapshotOut. The save
     *  happens at the first snapshot point at or after this tick. */
    Tick warmupTicks = 0;

    // Observability (src/obs/) ----------------------------------------

    /** Deterministic trace recorder configuration (--trace, [trace]).
     *  Disabled by default; never part of configHash (tracing a run
     *  must not invalidate its snapshots). */
    obs::TraceConfig trace;
    /** Processed-event cursor: record only events past this count
     *  (--trace-skip). A restored run implicitly starts at the restore
     *  point's count, so a cold run with the same skip value emits a
     *  byte-identical trace. */
    std::uint64_t traceSkip = 0;
};

/** Everything measured by one run. Simulated fields (status, ticks,
 *  valid, events, instsRetired, statsJson) are deterministic; host
 *  timing is informational and varies run to run. */
struct RunRecord {
    /** How the run ended — no more ambiguous `Tick 0`. */
    RunStatus status = RunStatus::MaxTicksReached;
    /** Completion tick of the target; 0 unless status == Completed. */
    Tick ticks = 0;
    /** Host-side result validation (true when the workload has none). */
    bool valid = true;
    /** Table-1 counters of processor 0, indexed by EventCounter. */
    EventCounts events{};
    /** Retired guest instructions, all sequencers of all processors. */
    std::uint64_t instsRetired = 0;

    // Host-side throughput (informational; never byte-compared).
    double hostSeconds = 0.0;
    double hostMips = 0.0;

    /** Full root-stats dump (JSON) when RunRequest::fullStats is set. */
    std::string statsJson;

    /** Failure diagnostic (snapshot_error / worker_crashed /
     *  worker_timeout); never part of the deterministic JSON
     *  artifacts. */
    std::string note;

    /** How many launches the supervised --isolate backend spent on
     *  this point (1 = first try; >1 means retries happened). Always 1
     *  outside --isolate. */
    unsigned attempts = 1;

    /** Deterministic trace buffer (empty unless RunRequest::trace is
     *  enabled). Simulated-plane data: byte-compared by CI across
     *  engines, job counts, and snapshot topologies. */
    obs::TraceBuffer trace;

    /** Host wall-clock phase split (plane 2; informational, never
     *  byte-compared — the --profile aggregation input). */
    obs::HostPhases phases;

    bool completed() const { return status == RunStatus::Completed; }

    /** Completed and validated. */
    bool ok() const { return completed() && valid; }

    // Derived metrics ---------------------------------------------------

    double megaCycles() const { return ticks / 1e6; }

    /** Table-1 normalization: @p count per 10^6 retired instructions
     *  (0 when nothing retired). */
    double perMegaInsts(double count) const;
};

/**
 * The single execution entry point: build the machine + runtime
 * backend, load the target (pinned per the placement policy), load
 * background workloads and competitors, run to target completion under
 * the wall clock, validate, and harvest Table-1 events from processor
 * 0. Raises SimError (via fatal()) on an unregistered workload name.
 */
RunRecord runOne(const RunRequest &req);

} // namespace misp::harness

#endif // MISP_HARNESS_RUN_RECORD_HH
