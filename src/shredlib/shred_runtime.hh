/**
 * @file
 * ShredLib: the user-level multi-shredding runtime (§3, §4.2).
 *
 * Implements the paper's M:N gang scheduler over a shared work queue
 * (Figure 3): shred continuations wait in a ready queue; the OMS and
 * every AMS run gang-scheduler pulls (the `ams_entry` stub) that grab
 * the next shred and light-weight-context-switch into it. Shreds that
 * block on a synchronization object have their sequencer handed to the
 * next ready shred; sequencers with no work park and are re-activated
 * with the architectural SIGNAL instruction when work appears.
 *
 * The runtime is host-modeled at the RTCALL boundary (the gem5
 * syscall-emulation technique): services manipulate guest-visible state
 * and charge calibrated cycle costs, while control transfers (shred
 * dispatch, parking, SIGNAL wakeups, proxy handling) use the
 * architectural mechanisms of the MISP processor model.
 *
 * Provided primitives (POSIX-compliant suite per §4.2): shred create /
 * join / yield, mutexes, condition variables, semaphores, barriers and
 * events — plus the page-probe pre-faulting optimization of §5.3.
 */

#ifndef MISP_SHREDLIB_SHRED_RUNTIME_HH
#define MISP_SHREDLIB_SHRED_RUNTIME_HH

#include <deque>
#include <map>
#include <memory>
#include <set>
#include <unordered_map>
#include <vector>

#include "misp/misp_processor.hh"
#include "misp/misp_system.hh"
#include "shredlib/rt_abi.hh"
#include "shredlib/stub_library.hh"
#include "sim/stats.hh"

namespace misp::rt {

/** Work-queue scheduling discipline. */
enum class SchedPolicy {
    Fifo, ///< the paper's Figure-3 FIFO gang scheduler
    Lifo, ///< depth-first; better locality for fork-heavy shred trees
};

/** Lifecycle of one shred. */
enum class ShredState : std::uint8_t {
    Fresh,   ///< created, never dispatched
    Ready,   ///< runnable, context saved
    Running, ///< on a sequencer
    Blocked, ///< waiting on a synchronization object
    Done,
};

/** The ShredLib runtime for MISP systems. One instance serves a whole
 *  system; per-OS-thread gang state hangs off OsThread::runtimeData. */
class ShredRuntime : public arch::RtHandler
{
  public:
    explicit ShredRuntime(stats::StatGroup *parent,
                          RtCosts costs = RtCosts{},
                          SchedPolicy policy = SchedPolicy::Fifo);
    ~ShredRuntime() override;

    // ---- RtHandler -----------------------------------------------------
    Cycles rtcall(arch::MispProcessor &proc, cpu::Sequencer &seq,
                  Word service) override;
    void onThreadLoaded(arch::MispProcessor &proc,
                        os::OsThread &t) override;
    void onThreadUnloading(arch::MispProcessor &proc,
                           os::OsThread &t) override;

    // ---- snapshot ------------------------------------------------------
    /** Snapshot every gang: shred descriptors and contexts, the shared
     *  work queue, sequencer->shred bindings, in-flight wakes, and the
     *  synchronization-object tables. Gangs are keyed by OS-thread tid
     *  in the image (and emitted in tid order, so identical states
     *  produce identical bytes). Load rebuilds the gangs onto the
     *  restored kernel threads of @p sys (re-establishing
     *  OsThread::runtimeData). */
    template <class Ar>
    void archive(Ar &a, arch::MispSystem &sys);

    // ---- observability ----------------------------------------------------
    std::uint64_t shredSwitches() const
    {
        return static_cast<std::uint64_t>(shredSwitches_.value());
    }

  private:
    struct Shred {
        ShredId id = 0;
        VAddr fn = 0;
        Word arg = 0;
        VAddr stackTop = 0;
        ShredState state = ShredState::Fresh;
        cpu::SequencerContext ctx; ///< valid when Ready (after first run)
    };

    struct MutexObj {
        bool locked = false;
        ShredId owner = kInvalidShredId;
        std::deque<ShredId> waiters;
    };

    struct BarrierObj {
        unsigned arrived = 0;
        std::vector<ShredId> waiting;
    };

    struct SemObj {
        SWord value = 0;
        bool initialized = false;
        std::deque<ShredId> waiters;
    };

    struct CondObj {
        std::deque<ShredId> waiters;
    };

    struct EventObj {
        bool set = false;
        bool initialized = false;
        std::vector<ShredId> waiters;
    };

    /** Per-OS-thread gang: the shreds, the shared work queue, and the
     *  synchronization-object tables. */
    struct Gang {
        os::OsThread *thread = nullptr;
        arch::MispProcessor *proc = nullptr; ///< processor when loaded
        std::unordered_map<ShredId, Shred> shreds;
        std::deque<ShredId> ready;
        ShredId nextId = 1;
        unsigned outstanding = 0;   ///< created, not yet Done
        bool mainWaiting = false;   ///< main parked inside join_all
        std::unordered_map<SequencerId, ShredId> runningOn;
        /** Sequencers with an undelivered wake SIGNAL in flight (the
         *  fabric latency makes them look idle until delivery). */
        std::set<SequencerId> wakesInFlight;

        std::map<VAddr, MutexObj> mutexes;
        std::map<VAddr, BarrierObj> barriers;
        std::map<VAddr, SemObj> sems;
        std::map<VAddr, CondObj> conds;
        std::map<VAddr, EventObj> events;
    };

    /** One gang's shreds, queues, bindings and sync objects (its
     *  thread and processor travel with the gang list). */
    template <class Ar>
    static void archiveGang(Ar &a, Gang &g);

    Gang &gangOf(arch::MispProcessor &proc, cpu::Sequencer &seq);
    ShredId shredIdOn(Gang &g, cpu::Sequencer &seq) const;

    /** Pop the next shred this sequencer may run (main/shred 0 only on
     *  the OMS). kInvalidShredId when none. */
    ShredId popReady(Gang &g, cpu::Sequencer &seq);

    /** Switch @p seq to @p id (restore or fresh-start). */
    void dispatch(Gang &g, cpu::Sequencer &seq, ShredId id);

    /** Give this sequencer its next work, or park it. */
    void scheduleNextOn(Gang &g, cpu::Sequencer &seq);

    /** Save the current shred's context and mark it @p newState. */
    void blockCurrent(Gang &g, cpu::Sequencer &seq, ShredState newState);

    /** Move @p id to the ready queue and SIGNAL a parked sequencer. */
    void makeReady(Gang &g, ShredId id);

    /** SIGNAL the gang-scheduler continuation to an idle sequencer
     *  (prefers AMSs; targets the OMS only for main wake-up). */
    void wakeIdleSequencer(Gang &g, bool needOms);

    // Service bodies.
    Cycles doInit(arch::MispProcessor &proc, cpu::Sequencer &seq);
    Cycles doShredCreate(Gang &g, cpu::Sequencer &seq);
    Cycles doJoinAll(Gang &g, cpu::Sequencer &seq);
    Cycles doShredExit(Gang &g, cpu::Sequencer &seq);
    Cycles doShredYield(Gang &g, cpu::Sequencer &seq);
    Cycles doMutexLock(Gang &g, cpu::Sequencer &seq);
    Cycles doMutexUnlock(Gang &g, cpu::Sequencer &seq);
    Cycles doBarrierWait(Gang &g, cpu::Sequencer &seq);
    Cycles doSemWait(Gang &g, cpu::Sequencer &seq);
    Cycles doSemPost(Gang &g, cpu::Sequencer &seq);
    Cycles doCondWait(Gang &g, cpu::Sequencer &seq);
    Cycles doCondSignal(Gang &g, cpu::Sequencer &seq, bool broadcast);
    Cycles doEventWait(Gang &g, cpu::Sequencer &seq);
    Cycles doEventSet(Gang &g, cpu::Sequencer &seq);
    Cycles doMalloc(Gang &g, cpu::Sequencer &seq);
    Cycles doExitProcess(arch::MispProcessor &proc, cpu::Sequencer &seq);

    /** Grant @p m to @p id or enqueue it as a waiter.
     *  @return true if granted immediately. */
    bool acquireOrWait(Gang &g, MutexObj &m, ShredId id);

    mem::AddressSpace &as(Gang &g);

    RtCosts costs_;      ///< snap: config
    SchedPolicy policy_; ///< snap: config
    /** snap: config — resolved from the stub library at build. */
    VAddr symAmsEntry_;
    VAddr symShredDone_; ///< snap: config — ditto

    std::unordered_map<os::OsThread *, std::unique_ptr<Gang>> gangs_;

    stats::StatGroup statGroup_;
    stats::Scalar shredsCreated_;
    stats::Scalar shredSwitches_; ///< light-weight shred context switches
    stats::Scalar wakeSignals_;   ///< SIGNALs sent to wake parked sequencers
    stats::Scalar syncFastPath_;  ///< uncontended synchronization operations
    stats::Scalar syncBlocked_;
    stats::Scalar parks_;         ///< sequencer parks (no ready work)
};

} // namespace misp::rt

#endif // MISP_SHREDLIB_SHRED_RUNTIME_HH
