/**
 * @file
 * The sequencer: MISP's new category of architectural resource (§2.1).
 *
 * "A sequencer corresponds to a hardware thread context that is capable
 * of fetching and executing one stream of instructions." This class is
 * the execution engine for both sequencer flavours:
 *
 *  - the OMS (full ISA, Ring 0 and Ring 3), and
 *  - an AMS (Ring-3-only subset; any Ring-0 need becomes a proxy
 *    execution trigger).
 *
 * A Sequencer executes guest MISA instructions in slices on the event
 * queue. Everything that requires coordination beyond one instruction
 * stream — faults, syscalls, runtime calls, SIGNAL delivery, suspension —
 * is delegated to a SequencerEnv implemented by the owning processor
 * model (MispProcessor or SmpSystem).
 */

#ifndef MISP_CPU_SEQUENCER_HH
#define MISP_CPU_SEQUENCER_HH

#include <array>
#include <cstdint>
#include <string>

#include "cpu/decode_cache.hh"
#include "cpu/engine.hh"
#include "isa/isa.hh"
#include "mem/mmu.hh"
#include "sim/config_reads.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace misp::cpu {

/** Architectural register state of one sequencer, the unit that proxy
 *  execution saves, impersonates, and restores (§2.5), and that the OS
 *  aggregates on a thread context switch (§2.2). */
struct SequencerContext {
    std::array<Word, isa::kNumRegs> regs{};
    VAddr eip = 0;
    isa::Flags flags;
    /** YIELD-CONDITIONAL trigger-response table: scenario -> handler EIP
     *  (0 = unregistered). Part of the architectural state. */
    std::array<VAddr, static_cast<std::size_t>(
                          isa::Scenario::NumScenarios)> triggers{};
    /** EIP saved by an asynchronous control transfer; YRET resumes it. */
    VAddr savedEip = 0;
    /** Whether the sequencer is inside an asynchronous handler. */
    bool inHandler = false;
    /** Payload registers (r10..r13) of the interrupted stream, banked by
     *  the asynchronous transfer and restored by YRET so fly-weight
     *  handlers are transparent to the interrupted shred. */
    std::array<Word, 4> bankedRegs{};

    Word &sp() { return regs[isa::kRegSp]; }
    Word sp() const { return regs[isa::kRegSp]; }

    VAddr
    trigger(isa::Scenario sc) const
    {
        return triggers[static_cast<std::size_t>(sc)];
    }

    void
    setTrigger(isa::Scenario sc, VAddr handler)
    {
        triggers[static_cast<std::size_t>(sc)] = handler;
    }

    /** Modeled size of the context save area in guest memory; determines
     *  the cost of proxy/context-switch state transfers. */
    static constexpr std::uint64_t kSaveBytes =
        isa::kNumRegs * 8 + 8 /*eip*/ + 8 /*flags*/ + 8 * 4 /*triggers+*/;
};

/** Execution state of a sequencer. */
enum class SeqState : std::uint8_t {
    Idle,         ///< no instruction stream (AMS awaiting a SIGNAL)
    Running,      ///< executing user instructions
    InKernel,     ///< (OMS/SMP only) occupied by a modeled Ring-0 episode
    Suspended,    ///< paused by MISP serialization (OMS in Ring 0)
    WaitingProxy, ///< (AMS) faulted; waiting for OMS proxy completion
    Halted,       ///< terminal
};

const char *seqStateName(SeqState s);

/** A pending inter-sequencer signal payload: the shred continuation. */
struct SignalPayload {
    VAddr eip = 0;
    VAddr esp = 0;
    Word arg = 0; ///< optional data word (delivered in r11 / start r2)
};

class Sequencer;

/** What the environment tells the sequencer to do after a fault. */
enum class FaultAction : std::uint8_t {
    Retry,    ///< fault fixed synchronously; re-execute the instruction
    Continue, ///< fault consumed (e.g. syscall done); advance past it
    Deferred, ///< env took ownership; sequencer stops until resumed
    Kill,     ///< unrecoverable; halt the sequencer
};

/** Environment interface implemented by the owning processor model. */
class SequencerEnv
{
  public:
    virtual ~SequencerEnv() = default;

    /** A fault (page fault, syscall, GP, ...) was raised mid-execution.
     *  May charge cycles via @p extraCycles (applied before a retry or
     *  continue). */
    virtual FaultAction handleFault(Sequencer &seq, const mem::Fault &fault,
                                    Cycles *extraCycles) = 0;

    /** RTCALL: user-level runtime service request. The handler may edit
     *  the context (return values in r0), park or redirect the
     *  sequencer. @return cycles charged. */
    virtual Cycles handleRtCall(Sequencer &seq, Word service) = 0;

    /** SIGNAL instruction executed: route the continuation to @p sid. */
    virtual void signalInstruction(Sequencer &seq, SequencerId sid,
                                   const SignalPayload &payload) = 0;

    /** HALT executed. */
    virtual void sequencerHalted(Sequencer &seq) = 0;

    /** NUMSEQ value for this sequencer's processor. */
    virtual unsigned numSequencers() const = 0;
};

/**
 * One hardware thread context, event-driven.
 *
 * Asynchronous-transfer register convention (the modeled analog of the
 * paper's "fly-weight control transfer", §2.4): on entry to a handler,
 *   r10 = scenario id, r11 = payload arg, r12 = payload EIP,
 *   r13 = payload ESP.
 * On a startAt() continuation the payload arg arrives in r2.
 */
class Sequencer
{
  public:
    /** Registers used to pass async-transfer payloads to handlers. */
    static constexpr unsigned kRegScenario = 10;
    static constexpr unsigned kRegPayloadArg = 11;
    static constexpr unsigned kRegPayloadEip = 12;
    static constexpr unsigned kRegPayloadEsp = 13;

    /** Modeled cost of the fly-weight asynchronous control transfer. */
    static constexpr Cycles kAsyncXferCycles = 10;

    /** Modeled cost of one context save or restore to/from memory. */
    static constexpr Cycles kContextXferCycles = 150;

    Sequencer(std::string name, SequencerId sid, bool ring0Capable,
              EventQueue &eq, mem::PhysicalMemory &pmem,
              stats::StatGroup *parent);

    ~Sequencer();

    Sequencer(const Sequencer &) = delete;
    Sequencer &operator=(const Sequencer &) = delete;

    // ---- identity ----------------------------------------------------
    const std::string &name() const { return name_; }
    SequencerId sid() const { return sid_; }
    /** True for the OMS (full ISA, all rings); false for an AMS. */
    bool ring0Capable() const { return ring0Capable_; }

    void setEnv(SequencerEnv *env) { env_ = env; }
    SequencerEnv *env() const { return env_; }

    mem::Mmu &mmu() { return mmu_; }
    SequencerContext &context() { return ctx_; }
    const SequencerContext &context() const { return ctx_; }
    EventQueue &eventQueue() { return eq_; }

    // ---- state machine ------------------------------------------------
    SeqState state() const { return state_; }
    bool idle() const { return state_ == SeqState::Idle; }
    bool running() const { return state_ == SeqState::Running; }
    bool halted() const { return state_ == SeqState::Halted; }

    /** True if the sequencer has no instruction stream: Idle now, or
     *  Suspended-while-idle (it will return to Idle when the
     *  serialization window ends). Such a sequencer starts executing a
     *  delivered SIGNAL continuation as soon as it is able — the check
     *  runtimes use when looking for a sequencer to wake. */
    bool
    idleOrSuspendedIdle() const
    {
        return state_ == SeqState::Idle ||
               (state_ == SeqState::Suspended &&
                preSuspendState_ == SeqState::Idle);
    }

    /** Begin executing at a continuation (initial start, or signal to an
     *  idle sequencer). */
    void startAt(VAddr eip, VAddr esp, Word arg = 0);

    /** Request suspension (MISP serialization). Takes effect at the next
     *  slice boundary; time suspended is accounted separately. */
    void suspend();

    /** Resume a Suspended / WaitingProxy / InKernel sequencer.
     *  @param retryFault re-execute the instruction that faulted
     *  (deferred-fault completion). */
    void resume(bool retryFault = false);

    /** End-of-serialization resume: wakes a Suspended sequencer OR
     *  cancels a suspension that has not yet taken effect at a slice
     *  boundary (a real race when the signal latency is small compared
     *  to a slice). No-op for all other states. */
    void resumeFromSerialization();

    /** Park the sequencer: stop fetching and go Idle (runtime blocked
     *  the current shred / AMS awaits work). Queued signals will start
     *  it again. */
    void park();

    /** Enter the terminal state. */
    void halt();

    /** Move to WaitingProxy (AMS side of proxy execution). */
    void beginProxyWait();

    /** Mark the sequencer as occupied by a Ring-0 episode until resumed
     *  (OMS only); used while the host-modeled kernel runs. */
    void enterKernelEpisode();

    /** Asynchronous variant of enterKernelEpisode(): valid from event
     *  context (timer/device interrupt), cancels the pending execution
     *  slice. @return true if the sequencer was running user code. */
    bool pauseForKernel();

    /** Replace the context and (re)start execution from it. Used by the
     *  runtime to wake parked sequencers and by thread reloads. */
    void restartFromContext(const SequencerContext &ctx);

    /** Tear the sequencer off its current thread (OS context switch):
     *  any state becomes Idle, wait-time accounting is closed, and
     *  pending user signals (which belong to the outgoing thread's
     *  shreds) are dropped. Proxy-request queue entries are preserved. */
    void unloadForSwitch();

    /** Deliver an ingress inter-sequencer signal (called by the signal
     *  fabric at the delivery tick). §2.4 semantics:
     *   - Idle: the continuation starts directly.
     *   - Running with an IngressSignal trigger: asynchronous transfer
     *     at the next instruction boundary.
     *   - Otherwise queues until one of the above holds. */
    void deliverSignal(const SignalPayload &payload);

    /** Deliver a proxy-request notification (OMS only); dispatched to
     *  the ProxyRequest trigger handler ahead of ordinary signals. */
    void deliverProxyRequest(const SignalPayload &payload);

    /** Number of queued, undelivered async payloads. */
    std::size_t
    pendingSignals() const
    {
        return pendingSignals_.size() + pendingProxy_.size();
    }

    /** Drop queued proxy-request notifications (OS thread switch: the
     *  outgoing thread's faulted shreds will re-fault on reload). */
    void clearPendingProxies() { pendingProxy_.clear(); }

    /** True if this sequencer holds a live instruction stream whose
     *  context must be preserved across an OS thread switch: Running,
     *  WaitingProxy, or Suspended-while-running. A parked (idle or
     *  suspended-while-idle) sequencer holds only stale state. */
    bool
    hasLiveStream() const
    {
        switch (state_) {
          case SeqState::Running:
          case SeqState::WaitingProxy:
          case SeqState::InKernel:
            return true;
          case SeqState::Suspended:
            return preSuspendState_ == SeqState::Running;
          case SeqState::Idle:
          case SeqState::Halted:
            return false;
        }
        return false;
    }

    // ---- context transfer (proxy execution, thread switches) ----------
    SequencerContext saveContext() const { return ctx_; }
    void restoreContext(const SequencerContext &ctx) { ctx_ = ctx; }

    // ---- execution ----------------------------------------------------
    /** Instructions per scheduling slice; smaller values increase
     *  inter-sequencer timing fidelity at simulation-speed cost. A
     *  machine's limit is recorded as read at each slice. */
    void setSliceLimit(TrackedValue<unsigned> insts);

    /** Select the execution engine. Both engines produce bit-identical
     *  simulated cycles and stats: Reference is the per-instruction
     *  fetch+decode path, and Superblock chains predecoded slots into
     *  basic-block runs. Engine choice is host-side only — never
     *  architectural state. */
    void
    setEngine(Engine engine)
    {
        engine_ = engine;
        invalidateDecodedBlock();
    }
    Engine engine() const { return engine_; }

    /** Drop the cached decoded-block reference. Called by the MISP
     *  serialization engine alongside TLB purges, and by anything else
     *  that wants a hard resynchronization with guest memory. The block
     *  is also revalidated wherever the machine may have moved under it
     *  (chainLive: address-space generation, page version, EIP, fetch
     *  window), so this is a belt-and-braces purge point, not the only
     *  line of defense. */
    void
    invalidateDecodedBlock()
    {
        block_ = BlockRef{};
    }

    std::uint64_t decodeCacheHits() const
    {
        return static_cast<std::uint64_t>(decodeCacheHits_.value());
    }
    std::uint64_t decodeCacheMisses() const
    {
        return static_cast<std::uint64_t>(decodeCacheMisses_.value());
    }
    /** Slices the superblock engine started in place, without an
     *  event-queue round trip (EventQueue::continueWith). */
    std::uint64_t slicesContinued() const
    {
        return static_cast<std::uint64_t>(slicesContinued_.value());
    }
    /** Scheduled slices the superblock engine started on a live chain
     *  (block_ still describes EIP's page and the fetch window still
     *  covers it), without a fetch translation or chain resolve. */
    std::uint64_t slicesResumed() const
    {
        return static_cast<std::uint64_t>(slicesResumed_.value());
    }

    /** The current privilege ring (AMSs are always Ring 3 / User). */
    mem::Ring ring() const { return ring_; }

    // ---- accounting ----------------------------------------------------
    std::uint64_t instsRetired() const
    {
        return static_cast<std::uint64_t>(instsRetired_.value());
    }
    Tick busyCycles() const
    {
        return static_cast<Tick>(busyCycles_.value());
    }
    Tick suspendedCycles() const
    {
        return static_cast<Tick>(suspendedCycles_.value());
    }

    /** Record cycles spent in a modeled Ring-0 episode. */
    void chargeKernelCycles(Cycles c) { kernelCycles_ += c; }

    stats::StatGroup &statGroup() { return statGroup_; }

    // ---- snapshot -------------------------------------------------------
    /** Snapshot the architectural and scheduling state, including the
     *  pending run-slice event (with its queue insertion sequence, so
     *  same-tick event ordering survives restore). The decoded-block
     *  reference is derived state and resets cold. */
    template <class Ar>
    void archive(Ar &a);

    /** Identity of the run-slice event, for the snapshot layer's
     *  every-pending-event-is-claimed audit. */
    const Event *snapRunEvent() const { return &runEvent_; }

  private:
    void runSlice();
    void scheduleRun(Tick when);
    void stopRunEvent();
    /** Slice-end bookkeeping shared by both engines: charge the
     *  slice's busy cycles (at least one), apply a pending suspension,
     *  or book the next slice at @p start + @p consumed. With
     *  @p inPlace the queue may hand that next slice straight back
     *  (EventQueue::continueWith). @return true when it did: the
     *  caller runs the next slice now. */
    bool endSlice(Tick start, Cycles consumed, bool inPlace);
    /** Start a queued payload if the sequencer is idle, or dispatch an
     *  async transfer if a trigger is registered. @return cycles charged. */
    Cycles dispatchPendingAsync();
    void asyncTransfer(isa::Scenario scenario, VAddr handler,
                       const SignalPayload &payload);

    /** Reference engine: fetch, decode and execute one instruction;
     *  returns consumed cycles, sets *stop when the slice must end
     *  (fault deferred, halted, parked, ...). */
    Cycles executeOne(bool *stop);
    /** Superblock engine: run this slice by chained basic-block
     *  dispatch — and every following slice the queue lets continue in
     *  place (endSlice) — replacing the per-instruction loop of
     *  runSlice(). */
    void runSuperblocks(unsigned sliceLimit);

    /** The slice's running totals after runFast's stretch, and whether
     *  it left the page; two registers wide, so they come back in
     *  registers. */
    struct FastExit {
        Cycles consumed;   ///< slice cycles so far
        unsigned executed; ///< slice instructions so far
        bool left;         ///< the chain left @p page: resolve next
    };
    /** Run Inline ops, data-window loads/stores and branches on
     *  @p page (block_'s) by direct-threaded dispatch on each slot's
     *  opcode, starting with the instruction at ctx_.eip (its fetch
     *  already charged), until a slot needs the generic path, the chain
     *  leaves the page (its edge, a branch off it or to a misaligned
     *  target, an SMC store to it), or @p limit / @p budget ends the
     *  run. EIP lives in a register and goes back to ctx_.eip once. */
    FastExit runFast(DecodedPage &page, Cycles consumed, unsigned executed,
                     unsigned limit, Cycles budget);
    /** Execute one OpClass::Inline instruction on the register file:
     *  the only definition of the Inline ops' semantics. @return the
     *  cycles it burns beyond its base latency (COMPUTE). */
    Cycles execInline(const isa::Instruction &inst);
    /** Execute the already-fetched @p inst, shared by both engines;
     *  Inline-class ops go to execInline. @p cycles has the fetch+base
     *  latency. */
    Cycles executeDecoded(const isa::Instruction &inst, Cycles cycles,
                          bool *stop);
    /** Re-point block_ at the decoded page for @p vpn (decoding it if
     *  needed); the fetch translation for the page resolved to @p pa. */
    void refillBlock(std::uint64_t vpn, PAddr pa);
    Cycles handleFaultFromExec(const mem::Fault &fault, bool *stop,
                               bool *advance);

    std::string name_;   ///< snap: config
    SequencerId sid_;    ///< snap: config
    bool ring0Capable_;  ///< snap: config
    EventQueue &eq_;
    SequencerEnv *env_ = nullptr; ///< snap: config — wired at build

    SequencerContext ctx_;
    SeqState state_ = SeqState::Idle;
    SeqState preSuspendState_ = SeqState::Idle;
    mem::Ring ring_ = mem::Ring::User;
    TrackedValue<unsigned> sliceLimit_ = 32; ///< snap: config
    Cycles sliceCycleBudget_ = 2500; ///< snap: config

    /** Cached reference into the current address space's decode cache:
     *  the superblock engine's only position state (the slot is
     *  slotOf(ctx_.eip)). Valid only while the MMU's address-space
     *  generation and the page's version are unchanged. */
    struct BlockRef {
        DecodedPage *page = nullptr;
        std::uint64_t vpn = 0;
        std::uint64_t version = 0;
        std::uint64_t asGen = 0;
    };

    /** The chain's one liveness rule: block_ still decodes the aligned
     *  instruction at ctx_.eip and the fetch window still replays its
     *  fetch, so the resolve would find exactly block_. The generation
     *  is checked first: a page freed with its address space is never
     *  read. */
    bool
    chainLive() const
    {
        return block_.page != nullptr &&
               block_.asGen == mmu_.addressSpaceGen() &&
               block_.page->version == block_.version &&
               mem::pageNumber(ctx_.eip) == block_.vpn &&
               (ctx_.eip & (isa::kInstBytes - 1)) == 0 &&
               mmu_.fetchReplayable(ctx_.eip, ring_);
    }

    Engine engine_ = Engine::Superblock; ///< snap: config
    BlockRef block_; ///< snap: derived — revalidated by chainLive

    MemberEvent<Sequencer, &Sequencer::runSlice> runEvent_;
    bool suspendRequested_ = false;
    /** FIFO queues of a few payloads at most: vectors, which allocate
     *  only once a payload arrives (a deque allocates when built). */
    std::vector<SignalPayload> pendingSignals_;
    std::vector<SignalPayload> pendingProxy_;

    Tick waitSince_ = 0; ///< start of the current suspend/proxy wait
    Tick kernelResumeFloor_ = 0; ///< earliest user re-run after a kernel episode

    stats::StatGroup statGroup_;
    stats::Scalar instsRetired_;
    stats::Scalar busyCycles_;      ///< cycles executing user code
    stats::Scalar kernelCycles_;    ///< cycles in modeled Ring-0 episodes
    stats::Scalar suspendedCycles_; ///< suspended by MISP serialization
    stats::Scalar proxyWaitCycles_; ///< waiting for proxy execution
    stats::Scalar signalsReceived_; ///< ingress inter-sequencer signals
    stats::Scalar signalsSent_;     ///< egress SIGNAL instructions executed
    stats::Scalar asyncTransfers_;  ///< YIELD-CONDITIONAL control transfers
    stats::Scalar faultsRaised_;    ///< architectural faults
    // HostScalar: engine-dependent host counters stay out of snapshot
    // images (they would make otherwise-identical machine states warmed
    // under different engines serialize differently).
    /** Instructions dispatched from a live predecoded block. */
    stats::HostScalar decodeCacheHits_;
    /** Decoded-block refills (page switch, invalidation, or CR3 change). */
    stats::HostScalar decodeCacheMisses_;
    /** Slices started in place, without an event-queue round trip. */
    stats::HostScalar slicesContinued_;
    /** Scheduled slices started on a live chain, without a fetch
     *  translation or chain resolve. */
    stats::HostScalar slicesResumed_;
    mem::Mmu mmu_;
};

} // namespace misp::cpu

#endif // MISP_CPU_SEQUENCER_HH
