#include "sequencer.hh"

#include <algorithm>
#include <limits>
#include <string>

#include "obs/trace.hh"
#include "snapshot/state_io.hh"

namespace misp::cpu {

namespace {

/** Shorthand for the sequencer lifecycle hooks: sid in the event, the
 *  pre-transition state in aux (deterministic; engine-independent). */
inline void
traceShred(obs::TraceKind kind, SequencerId sid, SeqState prior,
           std::uint64_t arg0 = 0, std::uint64_t arg1 = 0)
{
    obs::trace(kind, static_cast<std::uint16_t>(sid),
               static_cast<std::uint32_t>(prior), arg0, arg1);
}

/** A SeqState byte from an image; a CRC-valid image can still carry
 *  one outside the enum. */
SeqState
getSeqState(snap::Deserializer &d)
{
    const std::uint8_t v = d.u8();
    if (v > static_cast<std::uint8_t>(SeqState::Halted))
        throw snap::SnapError("sequencer state " + std::to_string(v) +
                              " out of range");
    return static_cast<SeqState>(v);
}

/** A pending-payload queue from an image. The count is bounded by the
 *  bytes left in the section (a payload is 3 x u64) before anything is
 *  allocated. */
void
getPayloads(snap::Deserializer &d, std::deque<SignalPayload> *q)
{
    const std::uint64_t n = d.u64();
    if (n > d.remaining() / 24)
        throw snap::SnapError("pending payload count " + std::to_string(n) +
                              " exceeds the section");
    q->resize(n);
    for (SignalPayload &p : *q)
        p = snap::getPayload(d);
}

/** Instruction slot of @p va within its page. */
inline std::uint16_t
slotOf(VAddr va)
{
    return static_cast<std::uint16_t>(mem::pageOffset(va) /
                                      isa::kInstBytes);
}

} // namespace

using isa::Opcode;
using isa::Scenario;

const char *
seqStateName(SeqState s)
{
    switch (s) {
      case SeqState::Idle: return "idle";
      case SeqState::Running: return "running";
      case SeqState::InKernel: return "in-kernel";
      case SeqState::Suspended: return "suspended";
      case SeqState::WaitingProxy: return "waiting-proxy";
      case SeqState::Halted: return "halted";
    }
    return "?";
}

Sequencer::Sequencer(std::string name, SequencerId sid, bool ring0Capable,
                     EventQueue &eq, mem::PhysicalMemory &pmem,
                     stats::StatGroup *parent)
    : name_(std::move(name)),
      sid_(sid),
      ring0Capable_(ring0Capable),
      eq_(eq),
      runEvent_(*this),
      statGroup_(name_, parent),
      instsRetired_(&statGroup_, "instsRetired", "instructions retired"),
      busyCycles_(&statGroup_, "busyCycles", "cycles executing user code"),
      kernelCycles_(&statGroup_, "kernelCycles",
                    "cycles in modeled Ring-0 episodes"),
      suspendedCycles_(&statGroup_, "suspendedCycles",
                       "cycles suspended by MISP serialization"),
      proxyWaitCycles_(&statGroup_, "proxyWaitCycles",
                       "cycles waiting for proxy execution"),
      signalsReceived_(&statGroup_, "signalsReceived",
                       "ingress inter-sequencer signals"),
      signalsSent_(&statGroup_, "signalsSent",
                   "egress SIGNAL instructions executed"),
      asyncTransfers_(&statGroup_, "asyncTransfers",
                      "YIELD-CONDITIONAL asynchronous control transfers"),
      faultsRaised_(&statGroup_, "faultsRaised", "architectural faults"),
      decodeCacheHits_(&statGroup_, "decodeCacheHits",
                       "instructions dispatched from a live predecoded "
                       "block"),
      decodeCacheMisses_(&statGroup_, "decodeCacheMisses",
                         "decoded-block refills (page switch, "
                         "invalidation, or CR3 change)"),
      slicesContinued_(&statGroup_, "slicesContinued",
                       "slices started in place, without an event-queue "
                       "round trip"),
      slicesResumed_(&statGroup_, "slicesResumed",
                     "scheduled slices resumed from the chain cursor, "
                     "without a fetch translation or chain resolve"),
      mmu_("mmu", pmem, &statGroup_)
{}

Sequencer::~Sequencer()
{
    if (runEvent_.scheduled())
        eq_.deschedule(&runEvent_);
}

void
Sequencer::setSliceLimit(unsigned insts)
{
    MISP_ASSERT(insts > 0);
    sliceLimit_ = insts;
}

void
Sequencer::scheduleRun(Tick when)
{
    if (!runEvent_.scheduled())
        eq_.schedule(&runEvent_, when);
}

void
Sequencer::stopRunEvent()
{
    if (runEvent_.scheduled())
        eq_.deschedule(&runEvent_);
}

void
Sequencer::startAt(VAddr eip, VAddr esp, Word arg)
{
    MISP_ASSERT(state_ == SeqState::Idle || state_ == SeqState::Halted);
    traceShred(obs::TraceKind::ShredStart, sid_, state_, eip, arg);
    ctx_.eip = eip;
    ctx_.sp() = esp;
    ctx_.regs[2] = arg;
    ctx_.inHandler = false;
    ctx_.savedEip = 0;
    state_ = SeqState::Running;
    scheduleRun(eq_.curTick());
}

void
Sequencer::suspend()
{
    switch (state_) {
      case SeqState::Running:
        // Applied at the next slice boundary.
        traceShred(obs::TraceKind::ShredSuspend, sid_, state_);
        suspendRequested_ = true;
        break;
      case SeqState::Idle:
        traceShred(obs::TraceKind::ShredSuspend, sid_, state_);
        preSuspendState_ = SeqState::Idle;
        state_ = SeqState::Suspended;
        waitSince_ = eq_.curTick();
        break;
      case SeqState::Suspended:
      case SeqState::WaitingProxy:
      case SeqState::Halted:
      case SeqState::InKernel:
        // Already stopped (or OMS-only state): nothing to do. A
        // proxy-waiting AMS stays in the proxy protocol.
        break;
    }
}

void
Sequencer::resume(bool retryFault)
{
    Tick now = eq_.curTick();
    switch (state_) {
      case SeqState::Running:
        // Suspension was requested but never took effect before the
        // resume arrived; just cancel the request.
        suspendRequested_ = false;
        break;
      case SeqState::Suspended:
        traceShred(obs::TraceKind::ShredResume, sid_, state_);
        suspendedCycles_ += now - waitSince_;
        suspendRequested_ = false;
        if (preSuspendState_ == SeqState::Idle) {
            state_ = SeqState::Idle;
            dispatchPendingAsync();
        } else {
            state_ = SeqState::Running;
            scheduleRun(now);
        }
        break;
      case SeqState::WaitingProxy:
        MISP_ASSERT(retryFault);
        traceShred(obs::TraceKind::ShredResume, sid_, state_);
        proxyWaitCycles_ += now - waitSince_;
        state_ = SeqState::Running;
        scheduleRun(now);
        break;
      case SeqState::InKernel:
        traceShred(obs::TraceKind::ShredResume, sid_, state_);
        state_ = SeqState::Running;
        scheduleRun(std::max(kernelResumeFloor_, now));
        break;
      case SeqState::Idle:
      case SeqState::Halted:
        panic("%s: resume from state %s", name_.c_str(),
              seqStateName(state_));
    }
}

void
Sequencer::resumeFromSerialization()
{
    if (state_ == SeqState::Suspended) {
        resume();
    } else if (state_ == SeqState::Running && suspendRequested_) {
        suspendRequested_ = false;
    }
}

void
Sequencer::park()
{
    MISP_ASSERT(state_ == SeqState::Running);
    traceShred(obs::TraceKind::ShredPark, sid_, state_);
    state_ = SeqState::Idle;
    // Queued work may immediately restart the sequencer.
    dispatchPendingAsync();
}

void
Sequencer::halt()
{
    traceShred(obs::TraceKind::ShredHalt, sid_, state_);
    stopRunEvent();
    state_ = SeqState::Halted;
}

void
Sequencer::beginProxyWait()
{
    MISP_ASSERT(!ring0Capable_); // only AMSs proxy
    MISP_ASSERT(state_ == SeqState::Running);
    traceShred(obs::TraceKind::ShredProxyWait, sid_, state_);
    state_ = SeqState::WaitingProxy;
    waitSince_ = eq_.curTick();
}

void
Sequencer::enterKernelEpisode()
{
    MISP_ASSERT(ring0Capable_);
    MISP_ASSERT(state_ == SeqState::Running);
    state_ = SeqState::InKernel;
    kernelResumeFloor_ = eq_.curTick();
}

bool
Sequencer::pauseForKernel()
{
    MISP_ASSERT(ring0Capable_);
    if (state_ != SeqState::Running)
        return false;
    // The displaced slice already committed work up to its scheduled
    // re-run tick; remember it so resume() does not double-book time.
    kernelResumeFloor_ =
        runEvent_.scheduled() ? runEvent_.when() : eq_.curTick();
    stopRunEvent();
    state_ = SeqState::InKernel;
    return true;
}

void
Sequencer::restartFromContext(const SequencerContext &ctx)
{
    MISP_ASSERT(state_ == SeqState::Idle);
    ctx_ = ctx;
    state_ = SeqState::Running;
    scheduleRun(eq_.curTick());
}

void
Sequencer::unloadForSwitch()
{
    if (state_ == SeqState::Halted)
        return;
    Tick now = eq_.curTick();
    switch (state_) {
      case SeqState::Suspended:
        suspendedCycles_ += now - waitSince_;
        break;
      case SeqState::WaitingProxy:
        proxyWaitCycles_ += now - waitSince_;
        break;
      default:
        break;
    }
    stopRunEvent();
    suspendRequested_ = false;
    if (!pendingSignals_.empty()) {
        // The dropped payloads belong to the outgoing thread's shreds.
        traceShred(obs::TraceKind::SignalDrop, sid_, state_,
                   pendingSignals_.size());
    }
    pendingSignals_.clear();
    state_ = SeqState::Idle;
}

void
Sequencer::deliverSignal(const SignalPayload &payload)
{
    if (state_ == SeqState::Halted) {
        warn("%s: dropping signal to halted sequencer", name_.c_str());
        traceShred(obs::TraceKind::SignalDrop, sid_, state_, 1);
        return;
    }
    ++signalsReceived_;
    traceShred(obs::TraceKind::SignalDeliver, sid_, state_, payload.eip,
               payload.arg);
    pendingSignals_.push_back(payload);
    if (state_ == SeqState::Idle)
        dispatchPendingAsync();
    // Running sequencers pick it up at the next instruction boundary;
    // suspended ones when resumed.
}

void
Sequencer::deliverProxyRequest(const SignalPayload &payload)
{
    MISP_ASSERT(ring0Capable_);
    if (state_ == SeqState::Halted) {
        warn("%s: dropping proxy request to halted sequencer",
             name_.c_str());
        traceShred(obs::TraceKind::SignalDrop, sid_, state_, 1);
        return;
    }
    ++signalsReceived_;
    traceShred(obs::TraceKind::ProxyDeliver, sid_, state_, payload.arg);
    pendingProxy_.push_back(payload);
    if (state_ == SeqState::Idle)
        dispatchPendingAsync();
}

Cycles
Sequencer::dispatchPendingAsync()
{
    if (ctx_.inHandler)
        return 0;

    if (state_ == SeqState::Idle) {
        if (!pendingProxy_.empty() &&
            ctx_.trigger(Scenario::ProxyRequest) != 0) {
            SignalPayload p = pendingProxy_.front();
            pendingProxy_.pop_front();
            // Transfer out of the idle loop: YRET will re-park.
            ctx_.eip = 0;
            state_ = SeqState::Running;
            asyncTransfer(Scenario::ProxyRequest,
                          ctx_.trigger(Scenario::ProxyRequest), p);
            scheduleRun(eq_.curTick());
            return kAsyncXferCycles;
        }
        if (!pendingSignals_.empty()) {
            SignalPayload p = pendingSignals_.front();
            pendingSignals_.pop_front();
            startAt(p.eip, p.esp, p.arg);
            return 0;
        }
        return 0;
    }

    if (state_ != SeqState::Running)
        return 0;

    if (!pendingProxy_.empty() &&
        ctx_.trigger(Scenario::ProxyRequest) != 0) {
        SignalPayload p = pendingProxy_.front();
        pendingProxy_.pop_front();
        asyncTransfer(Scenario::ProxyRequest,
                      ctx_.trigger(Scenario::ProxyRequest), p);
        return kAsyncXferCycles;
    }
    if (!pendingSignals_.empty() &&
        ctx_.trigger(Scenario::IngressSignal) != 0) {
        SignalPayload p = pendingSignals_.front();
        pendingSignals_.pop_front();
        asyncTransfer(Scenario::IngressSignal,
                      ctx_.trigger(Scenario::IngressSignal), p);
        return kAsyncXferCycles;
    }
    return 0;
}

void
Sequencer::asyncTransfer(Scenario scenario, VAddr handler,
                         const SignalPayload &payload)
{
    MISP_ASSERT(!ctx_.inHandler);
    ++asyncTransfers_;
    ctx_.savedEip = ctx_.eip;
    ctx_.inHandler = true;
    for (unsigned i = 0; i < 4; ++i)
        ctx_.bankedRegs[i] = ctx_.regs[kRegScenario + i];
    ctx_.regs[kRegScenario] = static_cast<Word>(scenario);
    ctx_.regs[kRegPayloadArg] = payload.arg;
    ctx_.regs[kRegPayloadEip] = payload.eip;
    ctx_.regs[kRegPayloadEsp] = payload.esp;
    ctx_.eip = handler;
}

void
Sequencer::runSlice()
{
    if (state_ != SeqState::Running)
        return; // stale event

    if (suspendRequested_) {
        suspendRequested_ = false;
        preSuspendState_ = SeqState::Running;
        state_ = SeqState::Suspended;
        waitSince_ = eq_.curTick();
        return;
    }

    if (engine_ == Engine::Superblock) {
        runSuperblocks();
        return;
    }
    const Tick start = eq_.curTick();
    Cycles consumed = 0;
    unsigned executed = 0;
    bool stop = false;
    while (executed < sliceLimit_ && consumed < sliceCycleBudget_ && !stop) {
        consumed += dispatchPendingAsync();
        consumed += executeOne(&stop);
        ++executed;
        if (suspendRequested_)
            break;
    }
    endSlice(start, consumed, /*inPlace=*/false);
}

bool
Sequencer::endSlice(Tick start, Cycles consumed, bool inPlace)
{
    if (consumed == 0)
        consumed = 1;
    busyCycles_ += consumed;

    if (state_ != SeqState::Running)
        return false;
    if (suspendRequested_) {
        suspendRequested_ = false;
        preSuspendState_ = SeqState::Running;
        state_ = SeqState::Suspended;
        waitSince_ = start + consumed;
        return false;
    }
    if (runEvent_.scheduled())
        return false;
    if (inPlace)
        return eq_.continueWith(&runEvent_, start + consumed);
    eq_.schedule(&runEvent_, start + consumed);
    return false;
}

Cycles
Sequencer::handleFaultFromExec(const mem::Fault &fault, bool *stop,
                               bool *advance)
{
    ++faultsRaised_;
    MISP_ASSERT(env_ != nullptr);
    Cycles extra = 0;
    FaultAction action = env_->handleFault(*this, fault, &extra);
    switch (action) {
      case FaultAction::Retry:
        *advance = false;
        *stop = true; // re-sync at a clean slice boundary
        break;
      case FaultAction::Continue:
        *advance = true;
        break;
      case FaultAction::Deferred:
        *advance = false;
        *stop = true;
        MISP_ASSERT(state_ != SeqState::Running);
        break;
      case FaultAction::Kill:
        *advance = false;
        *stop = true;
        halt();
        break;
    }
    return extra;
}

void
Sequencer::setFlagsFromCompare(SWord a, SWord b)
{
    SWord diff;
    bool of = __builtin_sub_overflow(a, b, &diff);
    ctx_.flags.zf = a == b;
    ctx_.flags.sf = diff < 0;
    ctx_.flags.cf =
        static_cast<std::uint64_t>(a) < static_cast<std::uint64_t>(b);
    ctx_.flags.of = of;
}

[[gnu::always_inline]] inline bool
Sequencer::condHolds(isa::Cond cond) const
{
    const isa::Flags &f = ctx_.flags;
    switch (cond) {
      case isa::Cond::Eq: return f.zf;
      case isa::Cond::Ne: return !f.zf;
      case isa::Cond::Lt: return f.sf != f.of;
      case isa::Cond::Le: return f.zf || (f.sf != f.of);
      case isa::Cond::Gt: return !f.zf && (f.sf == f.of);
      case isa::Cond::Ge: return f.sf == f.of;
      case isa::Cond::Ult: return f.cf;
      case isa::Cond::Uge: return !f.cf;
    }
    return false;
}

void
Sequencer::refillBlock(std::uint64_t vpn, PAddr pa)
{
    ++decodeCacheMisses_;
    mem::AddressSpace *as = mmu_.addressSpace();
    MISP_ASSERT(as != nullptr); // fetch translation just succeeded
    DecodeCache &dc = as->decodeCache();
    const PAddr paBase = pa & ~static_cast<PAddr>(mem::kPageMask);
    DecodedPage *page = dc.find(vpn);
    if (!page || page->paBase != paBase)
        page = dc.decodePage(vpn, paBase);
    block_.page = page;
    block_.vpn = vpn;
    block_.version = page->version;
    block_.asGen = mmu_.addressSpaceGen();
}

Cycles
Sequencer::executeOne(bool *stop)
{
    std::uint8_t buf[isa::kInstBytes];
    mem::AccessResult fr = mmu_.fetchInst(ctx_.eip, buf, ring_);
    Cycles cycles = fr.cycles;
    if (fr.fault) {
        bool advance = false;
        cycles += handleFaultFromExec(fr.fault, stop, &advance);
        return cycles;
    }

    isa::Instruction inst;
    if (!isa::decode(buf, &inst)) {
        bool advance = false;
        cycles += handleFaultFromExec(
            mem::Fault::of(mem::FaultKind::InvalidOpcode, ctx_.eip), stop,
            &advance);
        if (advance)
            ctx_.eip += isa::kInstBytes;
        return cycles;
    }

    return executeDecoded(inst, cycles + isa::baseLatency(inst.op), stop);
}

Cycles
Sequencer::executeDecoded(const isa::Instruction &inst, Cycles cycles,
                          bool *stop)
{
    auto &regs = ctx_.regs;
    bool advance = true;

    // Memory access helpers that route faults through the environment.
    bool faulted = false;
    auto memRead = [&](VAddr va, unsigned size, Word *out) {
        mem::AccessResult r = mmu_.read(va, size, ring_);
        cycles += r.cycles;
        if (r.fault) {
            cycles += handleFaultFromExec(r.fault, stop, &advance);
            faulted = true;
            return false;
        }
        *out = r.value;
        return true;
    };
    auto memWrite = [&](VAddr va, Word value, unsigned size) {
        mem::AccessResult r = mmu_.write(va, value, size, ring_);
        cycles += r.cycles;
        if (r.fault) {
            cycles += handleFaultFromExec(r.fault, stop, &advance);
            faulted = true;
            return false;
        }
        return true;
    };
    // Atomic read-modify-write: one translation with write intent.
    auto memRmw = [&](VAddr va, Word *oldOut,
                      auto &&newValue) { // newValue(Word old) -> Word
        PAddr pa = 0;
        mem::AccessResult r =
            mmu_.translate(va, 8, mem::Access::Write, ring_, &pa);
        cycles += r.cycles;
        if (r.fault) {
            cycles += handleFaultFromExec(r.fault, stop, &advance);
            faulted = true;
            return false;
        }
        Word old = mmu_.read(va, 8, ring_).value;
        *oldOut = old;
        mmu_.write(va, newValue(old), 8, ring_);
        return true;
    };

    switch (inst.op) {
      case Opcode::Halt:
        advance = false;
        *stop = true;
        halt();
        if (env_)
            env_->sequencerHalted(*this);
        break;
      case Opcode::Div:
      case Opcode::Rem:
      case Opcode::DivI: {
        const SWord a = static_cast<SWord>(regs[inst.rs1]);
        const SWord b = static_cast<SWord>(
            inst.op == Opcode::DivI ? inst.imm : regs[inst.rs2]);
        // Like IA-32's IDIV: a zero divisor and the one quotient that
        // does not fit (INT64_MIN / -1) raise a divide error.
        if (b == 0 ||
            (b == -1 && a == std::numeric_limits<SWord>::min())) {
            cycles += handleFaultFromExec(
                mem::Fault::of(mem::FaultKind::DivideError, ctx_.eip),
                stop, &advance);
            break;
        }
        regs[inst.rd] =
            static_cast<Word>(inst.op == Opcode::Rem ? a % b : a / b);
        break;
      }
      case Opcode::Ld: {
        Word v = 0;
        if (memRead(regs[inst.rs1] + inst.imm, inst.sub, &v))
            regs[inst.rd] = v;
        break;
      }
      case Opcode::St:
        memWrite(regs[inst.rs1] + inst.imm, regs[inst.rs2], inst.sub);
        break;
      case Opcode::Push: {
        Word newSp = ctx_.sp() - 8;
        if (memWrite(newSp, regs[inst.rs1], 8))
            ctx_.sp() = newSp;
        break;
      }
      case Opcode::Pop: {
        Word v = 0;
        if (memRead(ctx_.sp(), 8, &v)) {
            regs[inst.rd] = v;
            ctx_.sp() += 8;
        }
        break;
      }
      case Opcode::Jmp:
        ctx_.eip = inst.imm;
        advance = false;
        break;
      case Opcode::JmpR:
        ctx_.eip = regs[inst.rs1];
        advance = false;
        break;
      case Opcode::Jcc:
        if (condHolds(static_cast<isa::Cond>(inst.sub))) {
            ctx_.eip = inst.imm;
            advance = false;
        }
        break;
      case Opcode::Call: {
        Word newSp = ctx_.sp() - 8;
        if (memWrite(newSp, ctx_.eip + isa::kInstBytes, 8)) {
            ctx_.sp() = newSp;
            ctx_.eip = inst.imm;
            advance = false;
        }
        break;
      }
      case Opcode::CallR: {
        VAddr target = regs[inst.rs1];
        Word newSp = ctx_.sp() - 8;
        if (memWrite(newSp, ctx_.eip + isa::kInstBytes, 8)) {
            ctx_.sp() = newSp;
            ctx_.eip = target;
            advance = false;
        }
        break;
      }
      case Opcode::Ret: {
        Word v = 0;
        if (memRead(ctx_.sp(), 8, &v)) {
            ctx_.sp() += 8;
            ctx_.eip = v;
            advance = false;
        }
        break;
      }
      case Opcode::Xchg: {
        Word old = 0;
        Word mine = regs[inst.rd];
        if (memRmw(regs[inst.rs1], &old, [&](Word) { return mine; }))
            regs[inst.rd] = old;
        break;
      }
      case Opcode::CmpXchg: {
        Word old = 0;
        Word expected = regs[inst.rd];
        Word desired = regs[inst.rs2];
        bool swapped = false;
        if (memRmw(regs[inst.rs1], &old, [&](Word cur) {
                if (cur == expected) {
                    swapped = true;
                    return desired;
                }
                return cur;
            })) {
            ctx_.flags.zf = swapped;
            if (!swapped)
                regs[inst.rd] = old;
        }
        break;
      }
      case Opcode::FetchAdd: {
        Word old = 0;
        Word addend = regs[inst.rs2];
        if (memRmw(regs[inst.rs1], &old,
                   [&](Word cur) { return cur + addend; }))
            regs[inst.rd] = old;
        break;
      }
      case Opcode::Syscall: {
        cycles += handleFaultFromExec(mem::Fault::syscall(inst.imm), stop,
                                      &advance);
        break;
      }
      case Opcode::RtCall: {
        MISP_ASSERT(env_ != nullptr);
        // Advance first so services that redirect EIP (shred switches)
        // see the post-call continuation.
        ctx_.eip += isa::kInstBytes;
        advance = false;
        cycles += env_->handleRtCall(*this, inst.imm);
        if (state_ != SeqState::Running)
            *stop = true;
        break;
      }
      case Opcode::Signal: {
        MISP_ASSERT(env_ != nullptr);
        ++signalsSent_;
        SignalPayload payload;
        payload.eip = regs[inst.rs2];
        payload.esp = regs[inst.rd];
        payload.arg = regs[2];
        env_->signalInstruction(
            *this, static_cast<SequencerId>(regs[inst.rs1]), payload);
        break;
      }
      case Opcode::Semonitor:
        ctx_.setTrigger(static_cast<Scenario>(inst.sub), inst.imm);
        break;
      case Opcode::Yret: {
        if (!ctx_.inHandler) {
            cycles += handleFaultFromExec(
                mem::Fault::of(mem::FaultKind::GeneralProtection,
                               ctx_.eip),
                stop, &advance);
            break;
        }
        ctx_.inHandler = false;
        advance = false;
        for (unsigned i = 0; i < 4; ++i)
            ctx_.regs[kRegScenario + i] = ctx_.bankedRegs[i];
        if (ctx_.savedEip == 0) {
            // The transfer interrupted an idle sequencer: go back to
            // idle (a queued payload may immediately restart us).
            *stop = true;
            park();
        } else {
            ctx_.eip = ctx_.savedEip;
            ctx_.savedEip = 0;
        }
        break;
      }
      default: // the Inline class: one copy of its semantics
        cycles += execInline(inst);
        break;
    }

    if (!faulted || advance) {
        // Retired (faulting instructions that will retry don't count).
        if (!faulted)
            ++instsRetired_;
    }
    if (advance)
        ctx_.eip += isa::kInstBytes;
    return cycles;
}

// Force-inlined into both engines' dispatch (executeDecoded and the
// superblock fast loop) so the burn comes back in a register.
[[gnu::always_inline]] inline Cycles
Sequencer::execInline(const isa::Instruction &inst)
{
    auto &regs = ctx_.regs;
    switch (inst.op) {
      case Opcode::Nop:
      case Opcode::Pause:
        break;
      case Opcode::MovI:
        regs[inst.rd] = inst.imm;
        break;
      case Opcode::Mov:
        regs[inst.rd] = regs[inst.rs1];
        break;
      case Opcode::Add:
        regs[inst.rd] = regs[inst.rs1] + regs[inst.rs2];
        break;
      case Opcode::Sub:
        regs[inst.rd] = regs[inst.rs1] - regs[inst.rs2];
        break;
      case Opcode::Mul:
        regs[inst.rd] = regs[inst.rs1] * regs[inst.rs2];
        break;
      case Opcode::And:
        regs[inst.rd] = regs[inst.rs1] & regs[inst.rs2];
        break;
      case Opcode::Or:
        regs[inst.rd] = regs[inst.rs1] | regs[inst.rs2];
        break;
      case Opcode::Xor:
        regs[inst.rd] = regs[inst.rs1] ^ regs[inst.rs2];
        break;
      case Opcode::Shl:
        regs[inst.rd] = regs[inst.rs1] << (regs[inst.rs2] & 63);
        break;
      case Opcode::Shr:
        regs[inst.rd] = regs[inst.rs1] >> (regs[inst.rs2] & 63);
        break;
      case Opcode::Sar:
        regs[inst.rd] = static_cast<Word>(
            static_cast<SWord>(regs[inst.rs1]) >> (regs[inst.rs2] & 63));
        break;
      case Opcode::AddI:
        regs[inst.rd] = regs[inst.rs1] + inst.imm;
        break;
      case Opcode::SubI:
        regs[inst.rd] = regs[inst.rs1] - inst.imm;
        break;
      case Opcode::MulI:
        regs[inst.rd] = regs[inst.rs1] * inst.imm;
        break;
      case Opcode::AndI:
        regs[inst.rd] = regs[inst.rs1] & inst.imm;
        break;
      case Opcode::OrI:
        regs[inst.rd] = regs[inst.rs1] | inst.imm;
        break;
      case Opcode::XorI:
        regs[inst.rd] = regs[inst.rs1] ^ inst.imm;
        break;
      case Opcode::ShlI:
        regs[inst.rd] = regs[inst.rs1] << (inst.imm & 63);
        break;
      case Opcode::ShrI:
        regs[inst.rd] = regs[inst.rs1] >> (inst.imm & 63);
        break;
      case Opcode::Cmp:
        setFlagsFromCompare(static_cast<SWord>(regs[inst.rs1]),
                            static_cast<SWord>(regs[inst.rs2]));
        break;
      case Opcode::CmpI:
        setFlagsFromCompare(static_cast<SWord>(regs[inst.rs1]),
                            static_cast<SWord>(inst.imm));
        break;
      case Opcode::Lea:
        regs[inst.rd] = regs[inst.rs1] + inst.imm;
        break;
      case Opcode::Compute: {
        Cycles burn = inst.imm;
        if (inst.rs1 != 0)
            burn += regs[inst.rs1];
        return burn;
      }
      case Opcode::SeqId:
        regs[inst.rd] = sid_;
        break;
      case Opcode::NumSeq:
        regs[inst.rd] = env_ ? env_->numSequencers() : 1;
        break;
      case Opcode::RdTick:
        regs[inst.rd] = eq_.curTick();
        break;
      default:
        panic("%s: non-inline opcode in inline dispatch", name_.c_str());
    }
    return 0;
}

Sequencer::FastExit
Sequencer::runFast(ChainCursor &c, Cycles consumed, unsigned executed,
                   unsigned limit, Cycles budget)
{
    using Exit = FastExit::Exit;
    // Plain locals: nothing below takes their address, so they live in
    // registers for the whole loop and go back to the cursor once.
    DecodedPage &page = *c.page;
    VAddr eip = c.eip;
    std::uint16_t cur = c.cur;
    std::uint16_t term = c.term;
    std::uint32_t sbi = c.sbi;
    const unsigned first = executed;
    Exit exit = Exit::Stay;
    for (;;) {
        // The first instruction's fetch is already charged; each later
        // one is a replay of the fetch window, settled by the caller
        // from the returned count.
        Cycles fetch = 0;
        if (executed != first) {
            if (executed >= limit || consumed >= budget)
                break;
            fetch = mem::Mmu::kAccessCycles;
        }
        if (cur < term) {
            const DecodedSlot &s = page.slots[cur];
            bool smc = false;
            if (s.cls == OpClass::Inline) {
                consumed += fetch + s.lat + execInline(s.inst);
            } else if (s.inst.op == Opcode::Ld || s.inst.op == Opcode::St) {
                // An aligned, valid-size load/store the data window
                // covers — or, re-aimed, any page the TLB holds with the
                // needed permission — is replayed in place: same modeled
                // cycles and TLB effects as the full translate (the hit
                // is batched like the fetch replays), and no fault is
                // possible: size and alignment are checked here and the
                // entry passed the ring/write checks under an unchanged
                // TLB stamp. Any other size goes the generic way.
                const isa::Instruction &in = s.inst;
                const bool isSt = in.op == Opcode::St;
                const VAddr va = ctx_.regs[in.rs1] + in.imm;
                const unsigned size = in.sub;
                if (!mem::accessSize(size) || (va & (size - 1)) != 0 ||
                    !(mmu_.dataReplayable(va, isSt, ring_) ||
                      mmu_.retargetData(va, isSt, ring_)))
                    break; // generic dispatch
                consumed += fetch + s.lat + mem::Mmu::kAccessCycles;
                if (isSt) {
                    mmu_.dataReplayWrite(va, ctx_.regs[in.rs2], size);
                    // The store may have hit this very code page (SMC):
                    // the invalidation bumped its version, so the chain
                    // breaks before the next dispatch.
                    smc = page.version != block_.version;
                } else {
                    ctx_.regs[in.rd] = mmu_.dataReplayRead(va, size);
                }
            } else {
                break; // generic dispatch
            }
            eip += isa::kInstBytes;
            ++cur;
            ++executed;
            if (smc) {
                exit = Exit::Drop;
                break;
            }
            if (cur == DecodedPage::kSlots) {
                exit = Exit::Taken; // ran off the page edge
                break;
            }
            continue;
        }
        if (cur != term || term == DecodedPage::kSlots)
            break; // off-block EIP or page-edge: generic path
        const DecodedSlot &t = page.slots[term];
        if (t.cls != OpClass::Branch)
            break; // Slow / Invalid terminator: generic path
        // Pure control transfer, executed inline; its exits carry the
        // chain links.
        consumed += fetch + t.lat;
        bool taken = true;
        VAddr target = t.inst.imm;
        if (t.inst.op == Opcode::JmpR)
            target = ctx_.regs[t.inst.rs1];
        else if (t.inst.op == Opcode::Jcc)
            taken = condHolds(static_cast<isa::Cond>(t.inst.sub));
        eip = taken ? target : eip + isa::kInstBytes;
        ++executed;
        if (mem::pageNumber(eip) == page.vpn &&
            (eip & (isa::kInstBytes - 1)) == 0) {
            // Same-page chain: the per-page block table is the link;
            // the fetch stays on the batched replay path.
            cur = slotOf(eip);
            sbi = superblockAt(page, cur);
            term = page.sbs->blocks[sbi].term;
            continue;
        }
        // An indirect branch's target may differ every traversal, so
        // only static exits are linked.
        exit = t.inst.op == Opcode::JmpR ? Exit::Drop
               : taken                   ? Exit::Taken
                                         : Exit::Fall;
        break;
    }
    c.eip = eip;
    c.cur = cur;
    c.term = term;
    c.sbi = sbi;
    return FastExit{consumed, executed, exit};
}

void
Sequencer::runSuperblocks()
{
    // Hoisted member loads: nothing in a slice changes these, and the
    // fast loop checks them per instruction.
    const unsigned sliceLimit = sliceLimit_;
    const Cycles sliceBudget = sliceCycleBudget_;
    Tick start = eq_.curTick();
    unsigned executed = 0;
    Cycles consumed = 0;
    bool stop = false;
    std::uint64_t continued = 0;

    // Block-local accumulators: per-instruction stat updates are folded
    // locally and committed in one shot at every slow-path boundary, so
    // externally observable state — the TLB's reference bits included —
    // is exact whenever the environment or an eviction scan could look.
    std::uint64_t retired = 0;
    std::uint64_t hits = 0;
    std::uint64_t replays = 0;
    auto commit = [&] {
        if (replays != 0) {
            mmu_.commitFetchReplays(replays);
            replays = 0;
        }
        mmu_.commitDataReplays();
        if (retired != 0) {
            instsRetired_ += retired;
            retired = 0;
        }
        if (hits != 0) {
            decodeCacheHits_ += hits;
            hits = 0;
        }
    };
    // Charge one instruction fetch as a batched replay: the chained
    // invariant is that the one-entry last-translation cache still
    // covers the current page.
    auto replayFetch = [&] {
        ++replays;
        consumed += mem::Mmu::kAccessCycles;
        ++hits;
    };

    // Chained-dispatch state: the cursor (chain_). The current
    // superblock is held by index, never by pointer: building a
    // successor may grow the block vector. A live cursor always
    // describes ctx_.eip at the loop head and when the slice ends.
    ChainCursor &c = chain_;
    // Resume: the previous slice left the cursor live and nothing that
    // ran since disturbed it — EIP, the block it was resolved through
    // (the generation check first: a page of a switched-away space is
    // never dereferenced), the page's contents, and the fetch window —
    // so the resolve would find exactly this state. Its fetch is
    // charged at the loop head as the replay the resolve's fast path
    // would make (same cycles, TLB hit and decode-cache hit).
    if (c.page != nullptr) {
        if (c.eip == ctx_.eip && block_.page == c.page &&
            block_.asGen == mmu_.addressSpaceGen() &&
            c.page->version == block_.version &&
            mmu_.fetchReplayable(ctx_.eip, ring_)) {
            ++slicesResumed_;
        } else {
            c.page = nullptr;
        }
    }
    // Whether the modeled fetch of the instruction at ctx_.eip has
    // already been charged (true right after a resolve).
    bool fetchPaid = false;

    // Cross-page chain handoff: a block exit stashes its link here; the
    // next resolve consumes it (and writes the resolved successor back
    // into the exiting block). Never outlives the next resolve or the
    // call — at most a continued slice boundary lies in between, where
    // no other event runs — so the raw page pointers cannot dangle.
    SbLink hint{};
    DecodedPage *linkFrom = nullptr;
    std::uint32_t linkFromSb = 0;
    std::uint64_t linkFromVer = 0;
    bool linkTaken = false;
    // Leave the current block through a static exit (the taken edge of
    // a branch or the page edge, or a Jcc's fall-through), handing its
    // link to the next resolve.
    auto exitBlock = [&](bool taken) {
        Superblock &blk = c.page->sbs->blocks[c.sbi];
        hint = taken ? blk.taken : blk.fall;
        linkFrom = c.page;
        linkFromSb = c.sbi;
        linkFromVer = c.page->version;
        linkTaken = taken;
        c.page = nullptr;
    };

    // One iteration per slice: this one, then each next slice the
    // queue hands straight back (endSlice).
    for (;;) {
        while (executed < sliceLimit && consumed < sliceBudget && !stop) {
            // Exactly one guest instruction is dispatched per iteration
            // while async work is pending, so the slice conditions and the
            // async-delivery point run at the same per-instruction
            // boundaries as the reference engine's loop.
            if (!pendingSignals_.empty() || !pendingProxy_.empty()) {
                commit();
                Cycles dc = dispatchPendingAsync();
                if (dc != 0) {
                    // An asynchronous transfer redirected EIP.
                    consumed += dc;
                    c.page = nullptr;
                    fetchPaid = false;
                    hint = SbLink{};
                    linkFrom = nullptr;
                }
            }

            if (c.page == nullptr) {
                // ---- resolve: page + superblock for ctx_.eip ------------
                commit(); // a fetch miss may insert into the TLB
                mem::FetchResult fr =
                    mmu_.fetchTranslate(ctx_.eip, ring_, /*fastPath=*/true);
                consumed += fr.cycles;
                if (fr.fault) {
                    hint = SbLink{};
                    linkFrom = nullptr; // the handler may free decoded pages
                    bool advance = false;
                    consumed +=
                        handleFaultFromExec(fr.fault, &stop, &advance);
                    ++executed;
                    if (suspendRequested_)
                        break;
                    continue;
                }
                const std::uint64_t vpn = mem::pageNumber(ctx_.eip);
                const PAddr paBase =
                    fr.pa & ~static_cast<PAddr>(mem::kPageMask);
                if (block_.page != nullptr &&
                    block_.asGen == mmu_.addressSpaceGen() &&
                    block_.vpn == vpn &&
                    block_.page->version == block_.version &&
                    block_.page->paBase == paBase) {
                    ++hits;
                } else if (hint.page != nullptr &&
                           hint.asGen == mmu_.addressSpaceGen() &&
                           hint.page->vpn == vpn &&
                           hint.page->version == hint.version &&
                           hint.page->paBase == paBase) {
                    // Threaded dispatch: the exiting block's link is live —
                    // re-point block_ without the page-map probe. The
                    // generation check runs first: a link can only ever
                    // name pages of this address space's own decode cache,
                    // and a stale-generation link is never dereferenced.
                    block_.page = hint.page;
                    block_.vpn = vpn;
                    block_.version = hint.version;
                    block_.asGen = hint.asGen;
                    ++hits;
                } else {
                    refillBlock(vpn, fr.pa);
                }
                c.page = block_.page;
                c.cur = slotOf(ctx_.eip);
                c.sbi = superblockAt(*c.page, c.cur);
                c.term = c.page->sbs->blocks[c.sbi].term;
                fetchPaid = true;
                // Resolve the exiting block's link for its next traversal.
                if (linkFrom != nullptr &&
                    linkFrom->version == linkFromVer) {
                    SbLink l;
                    l.page = c.page;
                    l.sb = c.sbi;
                    l.version = c.page->version;
                    l.asGen = block_.asGen;
                    l.paBase = c.page->paBase;
                    Superblock &from = linkFrom->sbs->blocks[linkFromSb];
                    (linkTaken ? from.taken : from.fall) = l;
                }
                hint = SbLink{};
                linkFrom = nullptr;
            }

            // ---- charge the modeled fetch for this instruction ------
            if (!fetchPaid) {
                // Re-established after every slow dispatch below.
                MISP_ASSERT(mmu_.fetchReplayable(ctx_.eip, ring_));
                replayFetch();
            }
            fetchPaid = false;

            // ---- fast loop (runFast) ----------------------------------
            // While this sequencer's async queues are empty they stay
            // empty for the rest of the slice (enqueues only arrive
            // through Slow-class dispatch, fault handlers, or other
            // sequencers between slices), so the queue probe, the
            // resolve check, and the fetch-paid bookkeeping are hoisted
            // out of the per-instruction path — only the slice
            // conditions remain live. With work pending, the limit
            // stops it after one instruction. The first instruction
            // that needs more breaks out to the generic path below with
            // its fetch already charged.
            const bool pending =
                !pendingSignals_.empty() || !pendingProxy_.empty();
            c.eip = ctx_.eip;
            const FastExit r =
                runFast(c, consumed, executed,
                        pending ? executed + 1 : sliceLimit, sliceBudget);
            const unsigned n = r.executed - executed;
            ctx_.eip = c.eip;
            consumed = r.consumed;
            executed = r.executed;
            if (n != 0) {
                retired += n;
                replays += n - 1;
                hits += n - 1;
                switch (r.exit) {
                  case FastExit::Exit::Stay:
                    break;
                  case FastExit::Exit::Drop:
                    c.page = nullptr;
                    break;
                  case FastExit::Exit::Taken:
                    exitBlock(true);
                    break;
                  case FastExit::Exit::Fall:
                    exitBlock(false);
                    break;
                }
                continue; // the outer head re-runs the boundary work
            }

            // ---- generic one-instruction path ---------------------------
            // Mem-class body ops the fast loop could not replay, and the
            // Slow / Invalid terminators; the fetch is already charged.
            if (c.cur == DecodedPage::kSlots) {
                // Unreachable by construction (the page-edge exit is taken
                // when the last body instruction retires); fall back to a
                // full resolve rather than trusting the chain.
                c.page = nullptr;
                continue;
            }
            // Read before dispatching: a Slow op may free the page.
            const DecodedSlot &s = c.page->slots[c.cur];
            const OpClass cls = s.cls;
            commit();
            if (cls == OpClass::Invalid) {
                bool advance = false;
                consumed += handleFaultFromExec(
                    mem::Fault::of(mem::FaultKind::InvalidOpcode, ctx_.eip),
                    &stop, &advance);
                if (advance)
                    ctx_.eip += isa::kInstBytes;
            } else {
                consumed += executeDecoded(s.inst, s.lat, &stop);
            }
            ++executed;
            // A Mem op continues the chain only if nothing was disturbed:
            // same live block (an SMC store to this page bumps its version,
            // a CR3 switch bumps the generation, a serialization purge drops
            // block_), EIP still on this page, and the fetch fast path still
            // replayable (the access may have walked and inserted a TLB
            // entry). Anything else — EIP, the address space and the block
            // may all have changed under a Slow op — takes a full resolve.
            // Settled before a suspension ends the slice, so the cursor
            // the slice leaves is live or cleared, never stale.
            if (cls == OpClass::Mem && !stop && block_.page == c.page &&
                block_.asGen == mmu_.addressSpaceGen() &&
                c.page->version == block_.version &&
                mem::pageNumber(ctx_.eip) == c.page->vpn &&
                mmu_.fetchReplayable(ctx_.eip, ring_)) {
                c.cur = slotOf(ctx_.eip);
            } else {
                c.page = nullptr;
            }
            if (suspendRequested_)
                break;
        }
        commit();

        // Slice boundary. When the queue hands the next slice straight
        // back, it starts here with the chain state live: a live cursor
        // still satisfies the loop-head invariant, so its first fetch
        // is charged as the replay a fresh slice's resolve would make
        // (same cycles, TLB hit and decode-cache hit). Otherwise the
        // cursor waits for the next scheduled slice to resume it.
        if (!endSlice(start, consumed, /*inPlace=*/true))
            break;
        ++continued;
        start = eq_.curTick();
        executed = 0;
        consumed = 0;
        stop = false;
    }
    c.eip = ctx_.eip;
    if (continued != 0)
        slicesContinued_ += continued;
}

void
Sequencer::snapSave(snap::Serializer &s) const
{
    snap::putContext(s, ctx_);
    s.u8(static_cast<std::uint8_t>(state_));
    s.u8(static_cast<std::uint8_t>(preSuspendState_));
    s.b(suspendRequested_);
    s.u64(pendingSignals_.size());
    for (const SignalPayload &p : pendingSignals_)
        snap::putPayload(s, p);
    s.u64(pendingProxy_.size());
    for (const SignalPayload &p : pendingProxy_)
        snap::putPayload(s, p);
    s.u64(waitSince_);
    s.u64(kernelResumeFloor_);
    mmu_.snapSave(s);
    snap::putEventSchedule(s, &runEvent_);
}

void
Sequencer::snapRestore(snap::Deserializer &d)
{
    ctx_ = snap::getContext(d);
    state_ = getSeqState(d);
    preSuspendState_ = getSeqState(d);
    suspendRequested_ = d.b();
    getPayloads(d, &pendingSignals_);
    getPayloads(d, &pendingProxy_);
    waitSince_ = d.u64();
    kernelResumeFloor_ = d.u64();
    mmu_.snapRestore(d);
    block_ = BlockRef{};
    chain_ = ChainCursor{};
    snap::getEventSchedule(d, eq_, &runEvent_);
}

double
Sequencer::utilization(Tick elapsed) const
{
    if (elapsed == 0)
        return 0.0;
    return (busyCycles_.value() + kernelCycles_.value()) /
           static_cast<double>(elapsed);
}

} // namespace misp::cpu
