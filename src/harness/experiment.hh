/**
 * @file
 * Experiment driver: builds a simulated machine with the right runtime
 * backend, loads guest applications, runs to completion of a measured
 * target process, and harvests statistics.
 */

#ifndef MISP_HARNESS_EXPERIMENT_HH
#define MISP_HARNESS_EXPERIMENT_HH

#include <functional>
#include <memory>
#include <string>

#include "harness/loader.hh"
#include "misp/misp_system.hh"
#include "shredlib/os_runtime.hh"
#include "shredlib/shred_runtime.hh"

namespace misp::harness {

/** How a measured run ended. */
enum class RunStatus {
    Completed,       ///< the target process exited
    MaxTicksReached, ///< the target never finished within the budget
    SnapshotError,   ///< snapshot save/restore failed (fail-closed:
                     ///< corrupt image, config mismatch, I/O error)
    WorkerCrashed,   ///< --isolate worker process died before reporting
    WorkerTimeout,   ///< --isolate worker exceeded its wall-clock
                     ///< deadline and was killed by the supervisor
};

const char *runStatusName(RunStatus status);

/** Inverse of runStatusName — the `--merge-frames` dump reader's
 *  status parse. Returns false on an unknown name. */
bool runStatusFromName(const std::string &name, RunStatus *out);

/** True for statuses caused by the execution infrastructure (worker
 *  crash/timeout, snapshot failure) rather than by the simulated
 *  machine itself. These are the transient statuses the supervised
 *  --isolate backend retries, and the rows graceful-degradation
 *  reporting may skip; MaxTicksReached and validation failures are
 *  real simulation outcomes and are never retried or skipped. */
bool runStatusIsInfraFailure(RunStatus status);

/** Typed outcome of running a target process to completion. */
struct RunOutcome {
    RunStatus status = RunStatus::MaxTicksReached;
    /** Completion tick of the target; 0 unless status == Completed. */
    Tick ticks = 0;

    bool completed() const { return status == RunStatus::Completed; }
};

/** One machine + runtime instantiation. */
class Experiment
{
  public:
    Experiment(const arch::SystemConfig &config, rt::Backend backend);
    ~Experiment();

    arch::MispSystem &system() { return *system_; }
    rt::Backend backend() const { return backend_; }

    /** Load an application (see loadApp). */
    LoadedProcess load(const GuestApp &app,
                       const std::vector<int> &affinity = {});

    /**
     * Start the machine and run until @p target exits (or @p maxTicks).
     * Background processes (e.g. Figure 7's competing load) may still be
     * running when this returns.
     */
    RunOutcome runToCompletion(os::Process *target,
                               Tick maxTicks = 2'000'000'000'000ull);

    /**
     * runToCompletion() for a machine that is already under way — a
     * snapshot restore, or a continuation after a warmup leg. Skips
     * start(): thread dispatch and interrupt arming are part of the
     * restored state, and re-running them would double-arm timers.
     */
    RunOutcome resumeToCompletion(os::Process *target,
                                  Tick maxTicks = 2'000'000'000'000ull);

    /** Shortcut: Table-1 event count on processor @p proc. */
    std::uint64_t events(unsigned proc, arch::Ring0Cause cause);

    /** Sum of retired guest instructions over every sequencer of
     *  every processor — the numerator of host-MIPS reporting. */
    std::uint64_t totalInstsRetired();

    /** The concrete runtime backends, for the snapshot layer (exactly
     *  one is non-null, matching backend()). */
    rt::ShredRuntime *shredRuntime() { return shredRt_.get(); }
    rt::OsApiRuntime *osRuntime() { return osRt_.get(); }

  private:
    RunOutcome finishRun(os::Process *target, Tick maxTicks);

    rt::Backend backend_;
    std::unique_ptr<arch::MispSystem> system_;
    std::unique_ptr<rt::ShredRuntime> shredRt_;
    std::unique_ptr<rt::OsApiRuntime> osRt_;
};

/** Free-function form of Experiment::totalInstsRetired, for callers
 *  holding a bare system (e.g. BareMachine users). */
std::uint64_t totalInstsRetired(arch::MispSystem &sys);

/**
 * Table-1 event snapshot of one MISP processor — the single
 * harvesting point shared by the benches (bench_common's
 * RunResult) and the scenario runner (driver::PointResult), so a new
 * counter can never silently diverge between the two.
 */
struct EventSnapshot {
    std::uint64_t omsSyscalls = 0;
    std::uint64_t omsPageFaults = 0;
    std::uint64_t timer = 0;
    std::uint64_t interrupts = 0;
    std::uint64_t amsSyscalls = 0;
    std::uint64_t amsPageFaults = 0;
    std::uint64_t serializations = 0;
    double serializeCycles = 0;
    double privCycles = 0;
    double proxySignalCycles = 0;
    std::uint64_t proxyRequests = 0;
    /** Total cycles the AMSs spent suspended (summed over AMSs) — the
     *  cost the serialization-policy ablation quantifies. */
    double suspendedCycles = 0;
};

EventSnapshot snapshotEvents(arch::MispProcessor &mp);

/** One Table-1 counter: its canonical name (the JSON key and the
 *  assert-grammar `events.<name>` reference) plus paired accessors —
 *  the setter exists so wire codecs (the --isolate RunRecord pipe)
 *  can round-trip by iterating this registry instead of keeping a
 *  parallel field list. `cycles` fields are cycle sums (rendered
 *  %.0f); the rest are event counts (rendered as integers). */
struct EventField {
    const char *name;
    bool cycles;
    double (*get)(const EventSnapshot &);
    void (*set)(EventSnapshot &, double);
};

/** The authoritative counter list, in emission order — the single
 *  place the JSON emitter and the [report] assert evaluator agree on
 *  names, so a new counter can never be reachable from one but not
 *  the other. */
const std::vector<EventField> &eventFields();

/** Emit the uniform per-run HOST throughput line on stderr — the one
 *  format shared by the benches and the scenario runner so
 *  perf trajectories stay comparable across harnesses and PRs.
 *  @return MIPS. */
double reportHost(const std::string &name, std::uint64_t instsRetired,
                  double hostSeconds, cpu::Engine engine);

} // namespace misp::harness

#endif // MISP_HARNESS_EXPERIMENT_HH
