/**
 * @file
 * Experiment driver: builds a simulated machine with the right runtime
 * backend, loads guest applications, runs to completion of a measured
 * target process, and harvests statistics.
 */

#ifndef MISP_HARNESS_EXPERIMENT_HH
#define MISP_HARNESS_EXPERIMENT_HH

#include <array>
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
    /** experiment.stop: ends run() once the target's exit drained. */
    MemberEvent<EventQueue, &EventQueue::requestStop> stopEvent_;
};

/** Free-function form of Experiment::totalInstsRetired, for callers
 *  holding a bare system (e.g. BareMachine users). */
std::uint64_t totalInstsRetired(arch::MispSystem &sys);

/**
 * The Table-1 counter table: the one declaration of every counter a
 * run harvests from processor 0 — serializing events by cause and the
 * cycle sums behind Eqs. 1-2.
 *
 * Columns: enumerator; name (the "events" JSON key, the MetricFrame's
 * events.<name> and events_per_mi.<name> columns, the assert-grammar
 * reference); kind (Count renders as an integer, Cycles as %.0f); and
 * where snapshotEvents() reads it: Cause — eventCount() of the
 * Ring0Cause at the row's index; Stat — the processor stat named last;
 * AmsSum — that per-sequencer stat summed over the AMSs. Row order is
 * the order of every artifact and of the RunRecord wire codec.
 */
#define MISP_EVENT_COUNTERS(X)                                           \
    X(OmsSyscalls,       "oms_syscalls",        Count,  Cause,  "")      \
    X(OmsPageFaults,     "oms_page_faults",     Count,  Cause,  "")      \
    X(Timer,             "timer",               Count,  Cause,  "")      \
    X(Interrupts,        "interrupts",          Count,  Cause,  "")      \
    X(AmsSyscalls,       "ams_syscalls",        Count,  Cause,  "")      \
    X(AmsPageFaults,     "ams_page_faults",     Count,  Cause,  "")      \
    X(Serializations,    "serializations",      Count,  Stat,            \
      "serializations")                                                  \
    X(SerializeCycles,   "serialize_cycles",    Cycles, Stat,            \
      "serializeCycles")                                                 \
    X(PrivCycles,        "priv_cycles",         Cycles, Stat,            \
      "privCycles")                                                      \
    X(ProxySignalCycles, "proxy_signal_cycles", Cycles, Stat,            \
      "proxySignalCycles")                                               \
    X(ProxyRequests,     "proxy_requests",      Count,  Stat,            \
      "proxyRequests")                                                   \
    X(SuspendedCycles,   "suspended_cycles",    Cycles, AmsSum,          \
      "suspendedCycles")

/** One enumerator per counter-table row, in row order. */
enum class EventCounter : std::uint8_t {
#define MISP_EVENT_ENUM(en, name, kind, source, stat) en,
    MISP_EVENT_COUNTERS(MISP_EVENT_ENUM)
#undef MISP_EVENT_ENUM
};
enum class EventKind : std::uint8_t { Count, Cycles };
enum class EventSource : std::uint8_t { Cause, Stat, AmsSum };

/** One row of the counter table. */
struct EventCounterInfo {
    const char *name;
    EventKind kind;
    EventSource source;
    const char *stat;
};

inline constexpr EventCounterInfo kEventCounters[] = {
#define MISP_EVENT_INFO(en, name, kind, source, stat)                    \
    {name, EventKind::kind, EventSource::source, stat},
    MISP_EVENT_COUNTERS(MISP_EVENT_INFO)
#undef MISP_EVENT_INFO
};
inline constexpr std::size_t kNumEventCounters = std::size(kEventCounters);

static_assert(
    [] {
        for (std::size_t i = 0; i < kNumEventCounters; ++i) {
            if ((i < std::size_t(arch::Ring0Cause::NumCauses)) !=
                (kEventCounters[i].source == EventSource::Cause))
                return false;
        }
        return true;
    }(),
    "the Cause rows must lead the table, in Ring0Cause order");

/** A run's counters, indexed by EventCounter (or by row). Each crosses
 *  the wire codec and the MetricFrame as a double, so it is one here. */
struct EventCounts : std::array<double, kNumEventCounters> {
    using array::operator[];
    double &operator[](EventCounter c) { return data()[std::size_t(c)]; }
    double operator[](EventCounter c) const
    {
        return data()[std::size_t(c)];
    }
};

/** Read every row of the counter table off @p mp. */
EventCounts snapshotEvents(arch::MispProcessor &mp);

/** Emit the uniform per-run HOST throughput line on stderr — the one
 *  format shared by the benches and the scenario runner so
 *  perf trajectories stay comparable across harnesses and PRs.
 *  @return MIPS. */
double reportHost(const std::string &name, std::uint64_t instsRetired,
                  double hostSeconds, cpu::Engine engine);

} // namespace misp::harness

#endif // MISP_HARNESS_EXPERIMENT_HH
