/**
 * @file
 * The MISP processor: the paper's primary contribution (§2).
 *
 * One MispProcessor couples an OS-managed sequencer (OMS) with N
 * application-managed sequencers (AMS) and implements the four
 * architectural mechanisms the paper defines:
 *
 *  1. user-level inter-sequencer signaling (SIGNAL / YIELD-CONDITIONAL),
 *  2. a shared virtual address space maintained by serializing AMSs
 *     across OMS Ring-0 episodes (§2.3),
 *  3. proxy execution, which relays AMS faults to the OMS so that OS
 *     services happen on behalf of Ring-3-only sequencers (§2.5), and
 *  4. the OS-visible single-logical-CPU illusion: the kernel schedules
 *     ordinary OS threads onto the OMS, with the aggregate AMS state
 *     saved and restored at thread switches (§2.2).
 *
 * It also implements the paper's firmware event log: every serializing
 * event is classified exactly as in Table 1 (OMS SysCall / PF / Timer /
 * Interrupt, AMS SysCall / PF), and the Eq.1–Eq.3 overhead components
 * are accumulated for the model cross-check bench.
 */

#ifndef MISP_MISP_MISP_PROCESSOR_HH
#define MISP_MISP_MISP_PROCESSOR_HH

#include <array>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "cpu/sequencer.hh"
#include "misp/misp_config.hh"
#include "misp/signal_fabric.hh"
#include "os/kernel.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"

namespace misp::arch {

class MispProcessor;

/** Runtime hook: ShredLib (or another user-level runtime) implements
 *  this to service RTCALL instructions and to track which gang of
 *  shreds is bound to the processor's AMSs. */
class RtHandler
{
  public:
    virtual ~RtHandler() = default;

    /** Service an RTCALL executed on @p seq. @return cycles charged. */
    virtual Cycles rtcall(MispProcessor &proc, cpu::Sequencer &seq,
                          Word service) = 0;

    /** The kernel loaded @p thread onto this processor's OMS; the
     *  thread's shreds may now use the AMSs. */
    virtual void onThreadLoaded(MispProcessor &proc, os::OsThread &t) = 0;

    /** The kernel is about to switch @p thread away. */
    virtual void onThreadUnloading(MispProcessor &proc, os::OsThread &t) = 0;
};

/** Why a Ring-0 episode happened; the Table 1 classification. */
enum class Ring0Cause : std::uint8_t {
    OmsSyscall = 0,
    OmsPageFault,
    Timer,
    OtherInterrupt,
    ProxySyscall,   ///< AMS syscall serviced by proxy execution
    ProxyPageFault, ///< AMS page fault serviced by proxy execution
    NumCauses
};

const char *ring0CauseName(Ring0Cause cause);

/** An in-flight proxy-execution request (§2.5). */
struct ProxyRequest {
    cpu::Sequencer *ams = nullptr;
    mem::Fault fault;
    cpu::SequencerContext savedCtx; ///< AMS state saved at fault time
};

/** The kernel work of one Ring-0 episode, as data. */
struct Ring0Work {
    enum class Kind : std::uint8_t {
        TimerTick,
        DeviceIrq,
        OmsSyscall,     ///< the OMS trapped; patch its r0, advance EIP
        OmsPageFault,
        Proxy,          ///< an AMS syscall or page fault, by proxy
        RuntimeSyscall, ///< a runtime service entering the kernel
        NumKinds
    };
    /** patchSid value: the syscall's return value goes nowhere. */
    static constexpr SequencerId kNoPatch = ~SequencerId{0};

    Kind kind = Kind::TimerTick;
    Ring0Cause cause = Ring0Cause::Timer; ///< the Table-1 class
    /** The thread the kernel serves (every kind but the interrupts). */
    os::OsThread *thread = nullptr;
    Word number = 0;            ///< OmsSyscall, RuntimeSyscall
    std::array<Word, 4> args{}; ///< OmsSyscall, RuntimeSyscall
    VAddr addr = 0;             ///< OmsPageFault
    bool write = false;         ///< OmsPageFault
    /** RuntimeSyscall: the sequencer whose r0 gets the return value. */
    SequencerId patchSid = kNoPatch;
    ProxyRequest proxy{};       ///< Proxy
};

/**
 * One MISP processor (1 OMS + N AMS), acting as the SequencerEnv for all
 * of its sequencers and as the CPU driver for one kernel CPU slot.
 */
class MispProcessor : public cpu::SequencerEnv
{
  public:
    MispProcessor(std::string name, const MispConfig &config,
                  EventQueue &eq, mem::PhysicalMemory &pmem,
                  os::Kernel &kernel, stats::StatGroup *parent);

    ~MispProcessor() override;

    const std::string &name() const { return name_; }
    const MispConfig &config() const { return config_; }

    /** Re-select the host execution engine on every sequencer (used
     *  after a snapshot restore, where the requester's engine choice —
     *  not the saver's — governs; the engine is never architectural
     *  state, so this is always safe). */
    void
    setEngine(cpu::Engine engine)
    {
        config_.engine = engine;
        oms_->setEngine(engine);
        for (auto &ams : ams_)
            ams->setEngine(engine);
    }

    /** Kernel CPU slot id of the OMS. */
    int cpuId() const { return cpuId_; }

    cpu::Sequencer &oms() { return *oms_; }
    unsigned numAms() const { return static_cast<unsigned>(ams_.size()); }
    cpu::Sequencer &amsAt(unsigned i) { return *ams_[i]; }

    /** Sequencer by SID (0 = OMS, 1..N = AMS). */
    cpu::Sequencer *sequencer(SequencerId sid);

    SignalFabric &fabric() { return fabric_; }
    os::Kernel &kernel() { return kernel_; }
    EventQueue &eventQueue() { return eq_; }

    void attachRuntime(RtHandler *rt) { runtime_ = rt; }
    RtHandler *runtime() const { return runtime_; }

    // ---- kernel CPU driver --------------------------------------------
    /** Load @p thread onto the OMS (restore context + AMS save area).
     *  Called at startup and after context-switch decisions. */
    void loadThread(os::OsThread *thread);

    /** Thread currently loaded on the OMS (kernel's view). */
    os::OsThread *currentThread() const;

    /** Start periodic timer (and optional device) interrupts. */
    void startInterrupts();

    /** Stop delivering interrupts (end of experiment). */
    void stopInterrupts();

    /** True while a Ring-0 episode is in progress. */
    bool inRing0() const { return episode_.phase != Phase::Idle; }
    /** True while an OMS request waits for the episode in flight. */
    bool requestHeld() const { return held_.has_value(); }

    // ---- SequencerEnv --------------------------------------------------
    cpu::FaultAction handleFault(cpu::Sequencer &seq,
                                 const mem::Fault &fault,
                                 Cycles *extraCycles) override;
    Cycles handleRtCall(cpu::Sequencer &seq, Word service) override;
    void signalInstruction(cpu::Sequencer &seq, SequencerId sid,
                           const cpu::SignalPayload &payload) override;
    void sequencerHalted(cpu::Sequencer &seq) override;
    unsigned numSequencers() const override
    {
        return 1 + static_cast<unsigned>(ams_.size());
    }

    // ---- proxy execution (called by the runtime's proxy handler) -------
    /** True if a proxy request is queued or being serviced. */
    bool proxyInFlight() const { return !proxyQueue_.empty(); }

    /** Service the oldest pending proxy request on the OMS; invoked by
     *  ShredLib's guest proxy-handler stub via RTCALL (§2.5, §4.2).
     *  @return cycles charged to the OMS for the impersonation. */
    Cycles serviceProxy(cpu::Sequencer &omsSeq);

    /** Raise a syscall-class Ring-0 episode from runtime code running on
     *  the OMS (used by runtime services that must enter the kernel,
     *  e.g. the OS-thread backend's thread_create). Counts as an OMS
     *  SysCall event; the caller must have placed the OMS InKernel via
     *  enterKernelEpisode(). After the suspension handshake the kernel
     *  runs syscall @p number with @p args for the current thread, and
     *  its return value lands in r0 of sequencer @p patchSid (unless
     *  Ring0Work::kNoPatch). */
    void raiseSyscallEpisode(Word number, const std::array<Word, 4> &args,
                             SequencerId patchSid = Ring0Work::kNoPatch);

    // ---- table-1 statistics ---------------------------------------------
    std::uint64_t eventCount(Ring0Cause cause) const;
    std::uint64_t serializations() const
    {
        return static_cast<std::uint64_t>(serializations_.value());
    }

    stats::StatGroup &statGroup() { return statGroup_; }

    // ---- snapshot -------------------------------------------------------
    /** Snapshot interrupt arming, the proxy queue, the pending timer /
     *  device-IRQ occurrences, the Ring-0 episode (phase, work, kernel
     *  result, pending phase event) and a held request, the fabric's
     *  deliveries in flight, and every sequencer. Valid at any event
     *  boundary. */
    template <class Ar>
    void archive(Ar &a);

  private:
    /** Where the Ring-0 episode is (§2.3). Each phase but Idle has
     *  ring0Event_ pending for its end. */
    enum class Phase : std::uint8_t {
        Idle,      ///< no episode in flight
        Handshake, ///< AMSs being suspended; the kernel work is next
        Kernel,    ///< kernel work done; Ring 3 returns next
        NumPhases
    };

    /** The episode in flight, as data. */
    struct Episode {
        Phase phase = Phase::Idle;
        Ring0Work work;
        os::KernelResult res; ///< the kernel's decision (Kernel phase)
        Cycles signal = 0;    ///< suspension handshake latency
    };

    /** Request a Ring-0 episode for @p work on the OMS at the current
     *  tick: suspend AMSs, run the work after the suspension handshake,
     *  apply the kernel decision, resume AMSs. An OMS request made
     *  while an episode is in flight is held (see held_). */
    void ring0Episode(const Ring0Work &work);
    /** ring0Event_: the next phase of the episode in flight. */
    void onRing0Phase();
    void exitRing0();
    os::KernelResult kernelWork(const Ring0Work &work);

    void beginSerialization();
    void endSerialization(bool rootChanged);
    /** Phase-1 half of a thread switch: snapshot the outgoing thread's
     *  OMS context and AMS save area *in the same event as the kernel's
     *  scheduling decision*, so a cross-CPU wake can never observe (and
     *  re-dispatch) the thread with a stale context. */
    void saveOutgoingThread(const os::KernelResult &res);
    /** Phase-2 half: restore the incoming thread at Ring-0 exit. */
    void loadIncomingThread(const os::KernelResult &res);
    void completeProxy(ProxyRequest req, const os::KernelResult &res);
    void onTimer();
    void onDeviceIrq();
    void scheduleNextDeviceIrq();

    std::string name_;  ///< snap: config
    MispConfig config_; ///< snap: config
    EventQueue &eq_;
    mem::PhysicalMemory &pmem_;
    os::Kernel &kernel_;
    int cpuId_;         ///< snap: config

    stats::StatGroup statGroup_;
    SignalFabric fabric_;

    std::unique_ptr<cpu::Sequencer> oms_;
    std::vector<std::unique_ptr<cpu::Sequencer>> ams_;

    RtHandler *runtime_ = nullptr; ///< snap: config — wired at build

    bool interruptsOn_ = false;
    std::deque<ProxyRequest> proxyQueue_;
    Episode episode_;
    /** An OMS request raised while an episode was in flight (the OMS
     *  ran a signal handler mid-episode). It starts as its own episode
     *  at Ring-0 exit, before the OMS resumes — the same decline-and-
     *  retry idiom serviceProxy uses. */
    std::optional<Ring0Work> held_;
    /** Owned events, rescheduled in place rather than allocated per
     *  occurrence: the periodic interrupts and the episode's phases. */
    MemberEvent<MispProcessor, &MispProcessor::onTimer> timerEvent_;
    MemberEvent<MispProcessor, &MispProcessor::onDeviceIrq> deviceEvent_;
    MemberEvent<MispProcessor, &MispProcessor::onRing0Phase> ring0Event_;

    // Table 1 event log.
    stats::Vector events_;          ///< event counts by Ring0Cause
    stats::Scalar serializations_;  ///< Ring-0 serialization episodes
    stats::Scalar serializeCycles_; ///< sum of full 2*signal+priv windows
    stats::Scalar privCycles_;      ///< priv portion only
    stats::Scalar proxyRequests_;   ///< proxy execution requests from AMSs
    stats::Scalar proxySignalCycles_; ///< Eq.2 egress overhead, 3*signal/req
    stats::Scalar threadSwitches_;  ///< OS thread switches applied here
};

} // namespace misp::arch

#endif // MISP_MISP_MISP_PROCESSOR_HH
