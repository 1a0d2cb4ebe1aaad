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

#include <atomic>
#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
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

class WorkloadStore;

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

    /** Placement (Figure 7, §5.4): pin the target to processors with
     *  at least this many AMSs (0 = no pinning), and place competitors
     *  on the others; the machine's `ideal_placement` knob says whether
     *  the kernel keeps them there (os::KernelConfig::idealPlacement). */
    unsigned pinMinAms = 0;

    /** Tick budget; exceeding it yields RunStatus::MaxTicksReached. */
    Tick maxTicks = 2'000'000'000'000ull;

    /** Emit the uniform HOST throughput line on stderr. */
    bool hostLine = true;
    /** Capture a full stats::StatGroup JSON dump into the record. */
    bool fullStats = false;

    /** The sweep's shared workload store, which must have counted this
     *  request (WorkloadStore::expect); not owned. Null: the run builds
     *  the workloads it loads and frees them when it returns. */
    WorkloadStore *workloads = nullptr;

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

/** Whether a finished run of @p req may stand in for later points:
 *  not when it traces, dumps full stats, or saves or restores a
 *  snapshot (those points always simulate). */
bool reusableRun(const RunRequest &req);

/** Whether @p a and @p b ask for the same run apart from their machine
 *  configs: workloads, backend, competitors, target pin, max_ticks and
 *  engine, compared exactly. Labels and host plumbing do not count. */
bool sameRunInputs(const RunRequest &a, const RunRequest &b);
/** A hash of what sameRunInputs compares. */
std::uint64_t hashRunInputs(const RunRequest &req);

/** Whether @p a and @p b agree on every config field in @p mask. */
bool sameConfigFields(const arch::SystemConfig &a,
                      const arch::SystemConfig &b, ConfigMask mask);
/** A hash of @p config's fields in @p mask. */
std::uint64_t hashConfigFields(const arch::SystemConfig &config,
                               ConfigMask mask);

/** Call @p fn with an accessor from a (const or mutable) SystemConfig
 *  to its field @p f: the map from ConfigField to member path, made
 *  from the table's owner and member columns (sim/config_reads.hh). */
template <class Fn>
void
visitConfigField(ConfigField f, Fn &&fn)
{
    switch (f) {
#define MISP_CONFIG_PATH(en, name, owner, member, ...)                    \
      case ConfigField::en:                                             \
        fn([](auto &c) -> auto & {                                      \
            return arch::configPart<owner>(c).member;                   \
        });                                                             \
        return;
      MISP_CONFIG_FIELDS(MISP_CONFIG_PATH)
#undef MISP_CONFIG_PATH
      case ConfigField::NumFields:
        break;
    }
}

/** One workload a run loads: its registry entry and build knobs. */
struct WorkloadKey {
    const wl::WorkloadInfo *info = nullptr;
    wl::WorkloadParams params;

    bool operator==(const WorkloadKey &) const = default;
    /** Registry entry, then knobs: the order of WorkloadStore's map. */
    bool operator<(const WorkloadKey &o) const;
};

/**
 * The built workloads of one sweep, shared by its points and worker
 * threads, so each is built once per sweep and freed after its last
 * point. Before the first point runs, expect() counts the points that
 * load each key. A point takes its workloads through a Lease inside
 * runOne's timed set-up: the first to need a key builds it, and a
 * racing point that needs the same key waits for that build. Ending
 * the lease, after harvest or on a throw, releases the point's keys,
 * and a key's last release frees its workload. Sharing rests on the
 * purity contract in workloads/workload.hh.
 */
class WorkloadStore
{
    struct Entry {
        std::mutex mutex;
        std::unique_ptr<const wl::Workload> built;
        /** Counted points that have not released the key yet. */
        std::size_t pending = 0;
    };

  public:
    WorkloadStore() = default;
    WorkloadStore(const WorkloadStore &) = delete;
    WorkloadStore &operator=(const WorkloadStore &) = delete;

    /** Count one more point that runs @p req. Not thread-safe: count
     *  every point before the first Lease takes anything. */
    void expect(const RunRequest &req);

    /** Forget every count and free every workload. No Lease may be
     *  open. */
    void
    clear()
    {
        entries_.clear();
        alive_ = 0;
    }

    /** Release the keys of a counted point that will not run (its
     *  record is reused); a key's last release frees its workload. */
    void skip(const RunRequest &req);

    /** Workloads this store has built, and those alive now. */
    std::size_t builds() const { return builds_.load(); }
    std::size_t alive() const { return alive_.load(); }

    /** One point's hold on the workloads it loads. */
    class Lease
    {
      public:
        explicit Lease(WorkloadStore &store) : store_(store) {}
        ~Lease();
        Lease(const Lease &) = delete;
        Lease &operator=(const Lease &) = delete;

        /** The built workload of @p key, which expect() counted for
         *  this point; built here if no point has built it yet. */
        const wl::Workload &take(const WorkloadKey &key);

      private:
        WorkloadStore &store_;
        std::vector<Entry *> held_;
    };

  private:
    /** One counted point is done with @p e; its last frees it. */
    void release(Entry &e);

    std::map<WorkloadKey, Entry> entries_;
    std::atomic<std::size_t> builds_{0};
    std::atomic<std::size_t> alive_{0};
};

/** @p ticks in millions of cycles (the frame's `mcycles`). */
inline double
megaCycles(double ticks)
{
    return ticks / 1e6;
}

/** Table-1 normalization: @p count per 10^6 of @p insts retired
 *  instructions (0 when nothing retired). */
inline double
perMegaInsts(double count, double insts)
{
    return insts == 0.0 ? 0.0 : count / (insts / 1e6);
}

/** RunRecord::reusedFrom of a record whose own run simulated it. */
inline constexpr std::size_t kSimulated = static_cast<std::size_t>(-1);

/** Everything measured by one run. Simulated fields (status, ticks,
 *  valid, events, instsRetired, statsJson, configReads) are
 *  deterministic; host timing is informational and varies run to
 *  run. */
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

    /** The machine-config fields the run read (sim/config_reads.hh):
     *  a later point matching the run's config on these reuses the
     *  record. Outside the wire codec: an --isolate or shard image
     *  carries none. */
    ConfigMask configReads = 0;

    /** Host side: the sweep index of the point whose record this one
     *  copies, or kSimulated. Reused points carry no host timing. */
    std::size_t reusedFrom = kSimulated;

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

    double megaCycles() const { return harness::megaCycles(double(ticks)); }
};

/**
 * The single execution entry point: build the machine + runtime
 * backend, load the target (pinned per the placement policy), load
 * background workloads and competitors, run to target completion under
 * the wall clock, validate, and harvest Table-1 events from processor
 * 0. Workloads come from RunRequest::workloads when set. Raises
 * SimError (via fatal()) on an unregistered workload name.
 */
RunRecord runOne(const RunRequest &req);

} // namespace misp::harness

#endif // MISP_HARNESS_RUN_RECORD_HH
