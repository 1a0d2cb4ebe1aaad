#include "sequencer.hh"

#include <algorithm>
#include <iterator>
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

/** Instruction slot of @p va within its page. */
inline std::uint16_t
slotOf(VAddr va)
{
    return static_cast<std::uint16_t>(mem::pageOffset(va) /
                                      isa::kInstBytes);
}

/** Remove and return the oldest payload of a pending queue. */
SignalPayload
takeFront(std::vector<SignalPayload> &q)
{
    SignalPayload p = q.front();
    q.erase(q.begin());
    return p;
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
      runEvent_(*this, name_ + ".run", Event::kPrioCpu),
      statGroup_(name_, parent),
      instsRetired_(&statGroup_, "instsRetired"),
      busyCycles_(&statGroup_, "busyCycles"),
      kernelCycles_(&statGroup_, "kernelCycles"),
      suspendedCycles_(&statGroup_, "suspendedCycles"),
      proxyWaitCycles_(&statGroup_, "proxyWaitCycles"),
      signalsReceived_(&statGroup_, "signalsReceived"),
      signalsSent_(&statGroup_, "signalsSent"),
      asyncTransfers_(&statGroup_, "asyncTransfers"),
      faultsRaised_(&statGroup_, "faultsRaised"),
      decodeCacheHits_(&statGroup_, "decodeCacheHits"),
      decodeCacheMisses_(&statGroup_, "decodeCacheMisses"),
      slicesContinued_(&statGroup_, "slicesContinued"),
      slicesResumed_(&statGroup_, "slicesResumed"),
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
            SignalPayload p = takeFront(pendingProxy_);
            // Transfer out of the idle loop: YRET will re-park.
            ctx_.eip = 0;
            state_ = SeqState::Running;
            asyncTransfer(Scenario::ProxyRequest,
                          ctx_.trigger(Scenario::ProxyRequest), p);
            scheduleRun(eq_.curTick());
            return kAsyncXferCycles;
        }
        if (!pendingSignals_.empty()) {
            SignalPayload p = takeFront(pendingSignals_);
            startAt(p.eip, p.esp, p.arg);
            return 0;
        }
        return 0;
    }

    if (state_ != SeqState::Running)
        return 0;

    if (!pendingProxy_.empty() &&
        ctx_.trigger(Scenario::ProxyRequest) != 0) {
        SignalPayload p = takeFront(pendingProxy_);
        asyncTransfer(Scenario::ProxyRequest,
                      ctx_.trigger(Scenario::ProxyRequest), p);
        return kAsyncXferCycles;
    }
    if (!pendingSignals_.empty() &&
        ctx_.trigger(Scenario::IngressSignal) != 0) {
        SignalPayload p = takeFront(pendingSignals_);
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
        if (isa::condHolds(static_cast<isa::Cond>(inst.sub), ctx_.flags)) {
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
            ctx_.flags.setZf(swapped);
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
        ctx_.flags = isa::Flags::compare(static_cast<SWord>(regs[inst.rs1]),
                                         static_cast<SWord>(regs[inst.rs2]));
        break;
      case Opcode::CmpI:
        ctx_.flags = isa::Flags::compare(static_cast<SWord>(regs[inst.rs1]),
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
Sequencer::runFast(DecodedPage &page, Cycles consumed, unsigned executed,
                   unsigned limit, Cycles budget)
{
    // Direct-threaded dispatch (GNU computed goto) on each slot's
    // opcode: every handler ends with its own copy of the dispatch, so a
    // guest instruction costs one indirect jump. The table follows the
    // opcode table by class: an Inline or Branch row has its handler,
    // Ld and St have theirs (decode admits only the sizes they access),
    // and every other row, like the undecodable marker, leaves for the
    // generic path.
#define MISP_FAST_Inline(O) &&h_##O,
#define MISP_FAST_Branch(O) &&h_##O,
#define MISP_FAST_Mem(O)                                                 \
    (Opcode::O == Opcode::Ld   ? &&h_Ld                                  \
     : Opcode::O == Opcode::St ? &&h_St                                  \
                               : &&done),
#define MISP_FAST_Slow(O) &&done,
#define MISP_FAST_ROW(O, name, lat, cls, fmt) MISP_FAST_##cls(O)
    static const void *const kHandlers[] = {
        MISP_OPCODES(MISP_FAST_ROW) &&done};
    static_assert(std::size(kHandlers) ==
                  static_cast<std::size_t>(kUndecodable.op) + 1);

    // Plain locals: nothing below takes their address, so they live in
    // registers for the whole run and EIP goes back to the context once.
    VAddr eip = ctx_.eip;
    std::uint16_t cur = slotOf(eip);
    const DecodedSlot *s = &page.slots[cur];
    bool left = false;
    // The first instruction's fetch is already charged; each later one
    // is a replay of the fetch window, settled by the caller from the
    // returned count.
    Cycles fetch = 0;
    goto *kHandlers[static_cast<std::size_t>(s->op)];

    // The dispatch each handler ends with: the slice conditions, the
    // fetch charge, one indirect jump.
#define MISP_DISPATCH()                                                  \
    do {                                                                 \
        if (executed >= limit || consumed >= budget)                     \
            goto done;                                                   \
        fetch = mem::Mmu::kAccessCycles;                                 \
        s = &page.slots[cur];                                            \
        goto *kHandlers[static_cast<std::size_t>(s->op)];                \
    } while (0)
    // A body slot retired; running off the page edge, or @p smc (a
    // store hit this very page), leaves the page.
#define MISP_NEXT_SLOT(smc)                                              \
    do {                                                                 \
        eip += isa::kInstBytes;                                          \
        ++executed;                                                      \
        if (++cur == DecodedPage::kSlots || (smc))                       \
            goto leave;                                                  \
        MISP_DISPATCH();                                                 \
    } while (0)
    // Control transfer O retired at `eip`: a same-page, aligned target
    // chains on the batched fetch replay; any other leaves the page.
#define MISP_BRANCH_TAIL(O)                                              \
    do {                                                                 \
        consumed += fetch + isa::baseLatency(Opcode::O);                 \
        ++executed;                                                      \
        if (mem::pageNumber(eip) != page.vpn ||                          \
            (eip & (isa::kInstBytes - 1)) != 0)                          \
            goto leave;                                                  \
        cur = slotOf(eip);                                               \
        MISP_DISPATCH();                                                 \
    } while (0)

    // Inline ops: execInline on a copy whose opcode is a constant, so
    // its switch folds to this one case.
#define MISP_HANDLER_Inline(O)                                           \
    h_##O : {                                                            \
        isa::Instruction in = *s;                                        \
        in.op = Opcode::O;                                               \
        consumed += fetch + isa::baseLatency(Opcode::O) + execInline(in); \
        MISP_NEXT_SLOT(false);                                           \
    }
#define MISP_HANDLER_Mem(O)
#define MISP_HANDLER_Branch(O)
#define MISP_HANDLER_Slow(O)
#define MISP_HANDLER_ROW(O, name, lat, cls, fmt) MISP_HANDLER_##cls(O)
    MISP_OPCODES(MISP_HANDLER_ROW)

    // An aligned load/store the data window covers — or, re-aimed, any
    // page the TLB holds with the needed permission — is replayed in
    // place: same modeled cycles and TLB effects as the full translate
    // (the hit is batched like the fetch replays), and no fault is
    // possible: decode admitted only a valid size, alignment is checked
    // here, and the entry passed the ring/write checks under an
    // unchanged TLB stamp. Anything else goes the generic way.
#define MISP_DATA_REPLAYABLE(va, size, isSt)                             \
    (((va) & ((size) - 1)) == 0 &&                                       \
     (mmu_.dataReplayable(va, isSt, ring_) ||                            \
      mmu_.retargetData(va, isSt, ring_)))
h_Ld : {
    const isa::Instruction &in = *s;
    const VAddr va = ctx_.regs[in.rs1] + in.imm;
    if (!MISP_DATA_REPLAYABLE(va, in.sub, false))
        goto done;
    consumed +=
        fetch + isa::baseLatency(Opcode::Ld) + mem::Mmu::kAccessCycles;
    ctx_.regs[in.rd] = mmu_.dataReplayRead(va, in.sub);
    MISP_NEXT_SLOT(false);
}
h_St : {
    const isa::Instruction &in = *s;
    const VAddr va = ctx_.regs[in.rs1] + in.imm;
    if (!MISP_DATA_REPLAYABLE(va, in.sub, true))
        goto done;
    consumed +=
        fetch + isa::baseLatency(Opcode::St) + mem::Mmu::kAccessCycles;
    mmu_.dataReplayWrite(va, ctx_.regs[in.rs2], in.sub);
    // The store may have hit this very code page (SMC): the
    // invalidation bumped its version, so the chain leaves the page.
    MISP_NEXT_SLOT(page.version != block_.version);
}
h_Jmp:
    eip = s->imm;
    MISP_BRANCH_TAIL(Jmp);
h_JmpR:
    eip = ctx_.regs[s->rs1];
    MISP_BRANCH_TAIL(JmpR);
h_Jcc:
    eip = isa::condHolds(static_cast<isa::Cond>(s->sub), ctx_.flags)
              ? s->imm
              : eip + isa::kInstBytes;
    MISP_BRANCH_TAIL(Jcc);

#undef MISP_DATA_REPLAYABLE
#undef MISP_HANDLER_ROW
#undef MISP_HANDLER_Slow
#undef MISP_HANDLER_Branch
#undef MISP_HANDLER_Mem
#undef MISP_HANDLER_Inline
#undef MISP_BRANCH_TAIL
#undef MISP_NEXT_SLOT
#undef MISP_DISPATCH
#undef MISP_FAST_ROW
#undef MISP_FAST_Slow
#undef MISP_FAST_Mem
#undef MISP_FAST_Branch
#undef MISP_FAST_Inline

leave: // the chain left the page (or an SMC store hit it)
    left = true;
done: // a slice condition, or the slot at `cur` takes the generic path
    ctx_.eip = eip;
    return FastExit{consumed, executed, left};
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

    // Whether the chain is live at ctx_.eip (chainLive): the resolve
    // would then find exactly block_ through the fetch window's replay,
    // so the fetch is charged as that replay (same cycles, TLB hit and
    // decode-cache hit) and nothing is resolved. Only what runs outside
    // runFast can move the machine under the chain, so the predicate is
    // evaluated here, after an async transfer and after every
    // generic-path instruction; runFast itself reports leaving the page.
    bool live = chainLive();
    if (live)
        ++slicesResumed_;

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
                    live = chainLive();
                }
            }

            // ---- charge the modeled fetch for this instruction ------
            if (live) {
                ++replays;
                consumed += mem::Mmu::kAccessCycles;
                ++hits;
            } else {
                // ---- resolve: the fetch translation and page ---------
                commit(); // a fetch miss may insert into the TLB
                mem::FetchResult fr =
                    mmu_.fetchTranslate(ctx_.eip, ring_, /*fastPath=*/true);
                consumed += fr.cycles;
                if (fr.fault) {
                    bool advance = false;
                    consumed +=
                        handleFaultFromExec(fr.fault, &stop, &advance);
                    ++executed;
                    if (suspendRequested_)
                        break;
                    continue;
                }
                // block_ is the one-entry page cache: a hit needs the
                // page it names to still hold this frame's bytes.
                const std::uint64_t vpn = mem::pageNumber(ctx_.eip);
                const PAddr paBase =
                    fr.pa & ~static_cast<PAddr>(mem::kPageMask);
                if (block_.page != nullptr &&
                    block_.asGen == mmu_.addressSpaceGen() &&
                    block_.vpn == vpn &&
                    block_.page->version == block_.version &&
                    block_.page->paBase == paBase) {
                    ++hits;
                } else {
                    refillBlock(vpn, fr.pa);
                }
            }

            // ---- fast loop (runFast) ----------------------------------
            // While this sequencer's async queues are empty they stay
            // empty for the rest of the slice (enqueues only arrive
            // through Slow-class dispatch, fault handlers, or other
            // sequencers between slices), so the queue probe and the
            // liveness check are hoisted out of the per-instruction
            // path — only the slice conditions remain live. With work
            // pending, the limit stops it after one instruction. The
            // first instruction that needs more breaks out to the
            // generic path below with its fetch already charged.
            const bool pending =
                !pendingSignals_.empty() || !pendingProxy_.empty();
            const FastExit r =
                runFast(*block_.page, consumed, executed,
                        pending ? executed + 1 : sliceLimit, sliceBudget);
            const unsigned n = r.executed - executed;
            consumed = r.consumed;
            executed = r.executed;
            if (n != 0) {
                retired += n;
                replays += n - 1;
                hits += n - 1;
                live = !r.left;
                continue; // the outer head re-runs the boundary work
            }

            // ---- generic one-instruction path ---------------------------
            // Mem-class ops the fast loop could not replay, Slow ops and
            // undecodable slots; the fetch is already charged. Copied
            // before dispatching: a Slow op may free the page.
            const DecodedSlot inst = block_.page->slots[slotOf(ctx_.eip)];
            commit();
            if (inst.op == kUndecodable.op) {
                bool advance = false;
                consumed += handleFaultFromExec(
                    mem::Fault::of(mem::FaultKind::InvalidOpcode, ctx_.eip),
                    &stop, &advance);
                if (advance)
                    ctx_.eip += isa::kInstBytes;
            } else {
                consumed +=
                    executeDecoded(inst, isa::baseLatency(inst.op), &stop);
            }
            ++executed;
            live = chainLive();
            if (suspendRequested_)
                break;
        }
        commit();

        // Slice boundary. When the queue hands the next slice straight
        // back, nothing else ran in between, so it starts here with
        // `live` as the last slice left it. Otherwise the next
        // scheduled slice re-evaluates the chain on entry.
        if (!endSlice(start, consumed, /*inPlace=*/true))
            break;
        ++continued;
        start = eq_.curTick();
        executed = 0;
        consumed = 0;
        stop = false;
    }
    if (continued != 0)
        slicesContinued_ += continued;
}

template <class Ar>
void
Sequencer::archive(Ar &a)
{
    constexpr std::size_t kStates =
        static_cast<std::size_t>(SeqState::Halted) + 1;
    auto payload = [&](SignalPayload &p) { snap::archive(a, p); };
    snap::archive(a, ctx_);
    a.enumByte(state_, kStates, "sequencer state");
    a.enumByte(preSuspendState_, kStates, "sequencer pre-suspend state");
    a.b(suspendRequested_);
    snap::sequence(a, pendingSignals_, snap::kPayloadBytes,
                   "pending signal", payload);
    snap::sequence(a, pendingProxy_, snap::kPayloadBytes,
                   "pending proxy payload", payload);
    a.u64(waitSince_);
    a.u64(kernelResumeFloor_);
    mmu_.archive(a);
    if constexpr (Ar::kLoading)
        block_ = BlockRef{};
    snap::archiveSchedule(a, eq_, runEvent_);
    auto ring = static_cast<std::uint8_t>(ring_);
    a.u8(ring);
    if constexpr (Ar::kLoading) {
        if (ring != static_cast<std::uint8_t>(mem::Ring::Kernel) &&
            ring != static_cast<std::uint8_t>(mem::Ring::User))
            throw snap::SnapError("image: sequencer ring byte " +
                                  std::to_string(ring) +
                                  " is neither 0 nor 3");
        ring_ = static_cast<mem::Ring>(ring);
    }
}

MISP_SNAP_ARCHIVE(Sequencer);

} // namespace misp::cpu
