#include "misp_processor.hh"

#include <optional>

#include "obs/trace.hh"
#include "snapshot/state_io.hh"

namespace misp::arch {

using cpu::SeqState;

const char *
ring0CauseName(Ring0Cause cause)
{
    switch (cause) {
      case Ring0Cause::OmsSyscall: return "oms-syscall";
      case Ring0Cause::OmsPageFault: return "oms-page-fault";
      case Ring0Cause::Timer: return "timer";
      case Ring0Cause::OtherInterrupt: return "interrupt";
      case Ring0Cause::ProxySyscall: return "ams-syscall";
      case Ring0Cause::ProxyPageFault: return "ams-page-fault";
      case Ring0Cause::NumCauses: break;
    }
    return "?";
}

MispProcessor::MispProcessor(std::string name, const MispConfig &config,
                             EventQueue &eq, mem::PhysicalMemory &pmem,
                             os::Kernel &kernel, ConfigReads &reads,
                             stats::StatGroup *parent)
    : name_(std::move(name)),
      config_(config),
      reads_(reads),
      eq_(eq),
      pmem_(pmem),
      kernel_(kernel),
      cpuId_(kernel.addCpu()),
      statGroup_(name_, parent),
      fabric_(eq, deferConfig<&MispConfig::signalCycles>(config_, reads_),
              &statGroup_, cpuId_),
      timerEvent_(*this, name_ + ".timer"),
      deviceEvent_(*this, name_ + ".deviceIrq"),
      ring0Event_(*this, name_ + ".ring0"),
      events_(&statGroup_, "serializingEvents",
              static_cast<std::size_t>(Ring0Cause::NumCauses)),
      serializations_(&statGroup_, "serializations"),
      serializeCycles_(&statGroup_, "serializeCycles"),
      privCycles_(&statGroup_, "privCycles"),
      proxyRequests_(&statGroup_, "proxyRequests"),
      proxySignalCycles_(&statGroup_, "proxySignalCycles"),
      threadSwitches_(&statGroup_, "threadSwitches")
{
    oms_ = std::make_unique<cpu::Sequencer>("oms", 0, /*ring0=*/true, eq_,
                                            pmem_, &statGroup_);
    // Each sequencer records the slice limit read when it runs a slice.
    const TrackedValue<unsigned> sliceLimit =
        deferConfig<&MispConfig::sliceLimit>(config_, reads_);
    oms_->setEnv(this);
    oms_->setSliceLimit(sliceLimit);
    oms_->setEngine(config_.engine);
    const unsigned numAms = knob<&MispConfig::numAms>();
    for (unsigned i = 0; i < numAms; ++i) {
        ams_.push_back(std::make_unique<cpu::Sequencer>(
            "ams" + std::to_string(i + 1), i + 1, /*ring0=*/false, eq_,
            pmem_, &statGroup_));
        ams_.back()->setEnv(this);
        ams_.back()->setSliceLimit(sliceLimit);
        ams_.back()->setEngine(config_.engine);
    }
}

MispProcessor::~MispProcessor()
{
    // A run cut short (tick budget, snapshot save-and-exit) leaves the
    // periodic interrupts armed and maybe an episode in flight; detach
    // them before the queue sees a destroyed event.
    for (Event *ev : std::initializer_list<Event *>{
             &timerEvent_, &deviceEvent_, &ring0Event_})
        if (ev->scheduled())
            eq_.deschedule(ev);
}

cpu::Sequencer *
MispProcessor::sequencer(SequencerId sid)
{
    if (sid == 0)
        return oms_.get();
    if (sid <= ams_.size())
        return ams_[sid - 1].get();
    return nullptr;
}

os::OsThread *
MispProcessor::currentThread() const
{
    return kernel_.current(cpuId_);
}

std::uint64_t
MispProcessor::eventCount(Ring0Cause cause) const
{
    return static_cast<std::uint64_t>(
        events_.at(static_cast<std::size_t>(cause)));
}

// ---------------------------------------------------------------------
// Snapshot
// ---------------------------------------------------------------------

namespace {

/** Least image bytes of a proxy request: AMS sid, fault, context. */
constexpr std::uint64_t kProxyBytes =
    8 + snap::kFaultBytes + snap::kContextBytes;

template <class Ar>
void
archiveProxy(Ar &a, ProxyRequest &req, MispProcessor &proc)
{
    const snap::Lookup amsIds{
        "sid", "AMS", &cpu::Sequencer::sid,
        [&proc](std::uint64_t sid) -> cpu::Sequencer * {
            return sid != 0 && sid <= proc.numAms()
                       ? proc.sequencer(static_cast<SequencerId>(sid))
                       : nullptr;
        }};
    a.ref(req.ams, amsIds, "proxy request");
    snap::archive(a, req.fault);
    // Only these two kinds are ever proxied (handleFault).
    if constexpr (Ar::kLoading) {
        if (req.fault.kind != mem::FaultKind::Syscall &&
            req.fault.kind != mem::FaultKind::PageFault)
            throw snap::SnapError("image: proxy request carries a fault "
                                  "that is never proxied");
    }
    snap::archive(a, req.savedCtx);
}

template <class Ar>
void
archiveWork(Ar &a, Ring0Work &work, MispProcessor &proc)
{
    using Kind = Ring0Work::Kind;
    a.enumByte(work.kind, static_cast<std::size_t>(Kind::NumKinds),
               "Ring-0 work kind");
    a.enumByte(work.cause, static_cast<std::size_t>(Ring0Cause::NumCauses),
               "Ring-0 cause");
    a.optRef(work.thread, proc.kernel().threadIds(), "Ring-0 work thread");
    if constexpr (Ar::kLoading) {
        const bool interrupt =
            work.kind == Kind::TimerTick || work.kind == Kind::DeviceIrq;
        if (!interrupt && !work.thread)
            throw snap::SnapError(
                "image: Ring-0 work kind " +
                std::to_string(static_cast<int>(work.kind)) +
                " has no thread");
    }
    a.u64(work.number);
    for (Word &arg : work.args)
        a.u64(arg);
    a.u64(work.addr);
    a.b(work.write);
    a.u32(work.patchSid);
    if constexpr (Ar::kLoading) {
        if (work.patchSid != Ring0Work::kNoPatch &&
            !proc.sequencer(work.patchSid))
            throw snap::SnapError("image: Ring-0 work patches absent "
                                  "sequencer sid " +
                                  std::to_string(work.patchSid));
    }
    if (work.kind == Kind::Proxy)
        archiveProxy(a, work.proxy, proc);
}

} // namespace

template <class Ar>
void
MispProcessor::archive(Ar &a)
{
    const auto tids = kernel_.threadIds();
    a.b(interruptsOn_);
    snap::sequence(a, proxyQueue_, kProxyBytes, "proxy request",
                   [&](ProxyRequest &req) { archiveProxy(a, req, *this); });
    snap::archiveSchedule(a, eq_, timerEvent_);
    snap::archiveSchedule(a, eq_, deviceEvent_);

    if constexpr (Ar::kLoading)
        episode_ = Episode{};
    a.enumByte(episode_.phase, static_cast<std::size_t>(Phase::NumPhases),
               "Ring-0 phase");
    if (episode_.phase != Phase::Idle) {
        archiveWork(a, episode_.work, *this);
        a.u64(episode_.signal);
        a.u64(episode_.res.priv);
        a.u64(episode_.res.retval);
        a.b(episode_.res.reschedule);
        a.optRef(episode_.res.prev, tids, "KernelResult prev");
        a.optRef(episode_.res.next, tids, "KernelResult next");
        a.b(episode_.res.fatalFault);
    }
    snap::archiveSchedule(a, eq_, ring0Event_);
    // Every phase but Idle ends with ring0Event_.
    if constexpr (Ar::kLoading) {
        if (ring0Event_.scheduled() != (episode_.phase != Phase::Idle))
            throw snap::SnapError(
                "image: Ring-0 phase " +
                std::to_string(static_cast<int>(episode_.phase)) +
                " disagrees with its pending phase event");
    }
    bool held = held_.has_value();
    a.b(held);
    if constexpr (Ar::kLoading) {
        held_.reset();
        if (held && episode_.phase == Phase::Idle)
            throw snap::SnapError("image: held Ring-0 request without an "
                                  "episode in flight");
        if (held)
            held_.emplace();
    }
    if (held)
        archiveWork(a, *held_, *this);

    std::vector<cpu::Sequencer *> bySid{oms_.get()};
    for (auto &ams : ams_)
        bySid.push_back(ams.get());
    fabric_.archive(a, bySid);
    for (cpu::Sequencer *seq : bySid)
        seq->archive(a);
}

MISP_SNAP_ARCHIVE(MispProcessor);

// ---------------------------------------------------------------------
// Kernel CPU driver
// ---------------------------------------------------------------------

void
MispProcessor::loadThread(os::OsThread *thread)
{
    if (!thread)
        return;
    MISP_ASSERT(thread->cpu() == cpuId_);
    MISP_ASSERT(oms_->idle());

    mem::AddressSpace *as = &thread->process()->addressSpace();
    // All sequencers of a MISP processor share the thread's virtual
    // address space (§2.3): every MMU gets the same root.
    oms_->mmu().setAddressSpace(as);
    for (auto &ams : ams_)
        ams->mmu().setAddressSpace(as);

    if (thread->context().eip != 0) {
        oms_->restartFromContext(thread->context());
    }
    // eip == 0 marks a thread whose OMS was parked in the user-level
    // scheduler; the runtime re-arms it from onThreadLoaded.

    // Restore the aggregate AMS save area (§2.2/§2.6). A saved context
    // with eip == 0 marks an AMS that was idle.
    auto &save = thread->amsSaveArea();
    for (std::size_t i = 0; i < save.size() && i < ams_.size(); ++i) {
        if (save[i].eip != 0)
            ams_[i]->restartFromContext(save[i]);
    }
    save.clear();

    if (runtime_)
        runtime_->onThreadLoaded(*this, *thread);
}

void
MispProcessor::saveOutgoingThread(const os::KernelResult &res)
{
    ++threadSwitches_;
    os::OsThread *prev = res.prev;
    if (prev) {
        if (runtime_)
            runtime_->onThreadUnloading(*this, *prev);
        prev->context() = oms_->saveContext();
        if (!oms_->hasLiveStream()) {
            // The OMS was parked in the user-level scheduler (no current
            // shred): mark the saved context idle so reload leaves the
            // OMS parked for the runtime to re-arm, instead of resuming
            // a stale instruction stream.
            prev->context().eip = 0;
        } else if (held_ &&
                   held_->kind == Ring0Work::Kind::RuntimeSyscall) {
            // A held runtime call came from an RTCALL, which already
            // stepped past itself: step back so it re-executes when the
            // thread is reloaded (see held_ below).
            prev->context().eip -= isa::kInstBytes;
        }
        // Aggregate AMS save (performed concurrently on real hardware;
        // the cost is inside the kernel's ctxSwitch priv figure).
        auto &save = prev->amsSaveArea();
        save.assign(ams_.size(), cpu::SequencerContext{});
        for (std::size_t i = 0; i < ams_.size(); ++i) {
            if (ams_[i]->hasLiveStream()) {
                save[i] = ams_[i]->saveContext();
            } else {
                save[i].eip = 0;
            }
        }
    }
    for (auto &ams : ams_)
        ams->unloadForSwitch();
    oms_->unloadForSwitch();

    // In-flight proxy requests belong to the outgoing thread. Their
    // AMS contexts were saved at the *faulting* EIP (proxy never
    // advances it), so the shreds simply re-fault and re-request proxy
    // execution when the thread is reloaded; the stale bookkeeping is
    // dropped here.
    proxyQueue_.clear();
    oms_->clearPendingProxies();
    // So does a held request: the trapping instruction re-executes on
    // reload (its EIP was never advanced), or the thread has exited.
    held_.reset();
}

void
MispProcessor::loadIncomingThread(const os::KernelResult &res)
{
    if (res.next) {
        MISP_ASSERT(res.next->cpu() == cpuId_);
        loadThread(res.next);
    }
}

void
MispProcessor::startInterrupts()
{
    if (interruptsOn_)
        return;
    interruptsOn_ = true;
    // Stagger timer phase per CPU slot so MP configurations do not
    // serialize all processors at the same instant.
    Tick phase = kernel_.knob<&os::KernelConfig::timerPeriod>() /
                 (1 + static_cast<Tick>(cpuId_) % 7);
    eq_.schedule(&timerEvent_, eq_.curTick() + phase);
    if (kernel_.knob<&os::KernelConfig::deviceIrqMeanPeriod>() > 0)
        scheduleNextDeviceIrq();
}

void
MispProcessor::stopInterrupts()
{
    interruptsOn_ = false;
}

void
MispProcessor::onTimer()
{
    if (!interruptsOn_)
        return;
    eq_.schedule(&timerEvent_,
                 eq_.curTick() +
                     kernel_.knob<&os::KernelConfig::timerPeriod>());
    events_[static_cast<std::size_t>(Ring0Cause::Timer)] += 1;
    if (inRing0()) {
        // Coalesced: the OMS is already serialized in Ring 0. The tick
        // is counted; the next one reschedules.
        return;
    }
    ring0Episode(
        {.kind = Ring0Work::Kind::TimerTick, .cause = Ring0Cause::Timer});
}

void
MispProcessor::scheduleNextDeviceIrq()
{
    Tick gap = kernel_.nextDeviceIrqGap();
    if (gap == 0)
        return;
    eq_.schedule(&deviceEvent_, eq_.curTick() + gap);
}

void
MispProcessor::onDeviceIrq()
{
    if (!interruptsOn_)
        return;
    scheduleNextDeviceIrq();
    events_[static_cast<std::size_t>(Ring0Cause::OtherInterrupt)] += 1;
    if (inRing0())
        return;
    ring0Episode({.kind = Ring0Work::Kind::DeviceIrq,
                  .cause = Ring0Cause::OtherInterrupt});
}

// ---------------------------------------------------------------------
// Ring-0 episode orchestration (§2.3 serialization)
// ---------------------------------------------------------------------

void
MispProcessor::beginSerialization()
{
    // A processor with no AMSs has nothing to serialize, whatever the
    // policy.
    if (ams_.empty() ||
        knob<&MispConfig::serialization>() != SerializationPolicy::SuspendAll)
        return;
    for (auto &ams : ams_)
        fabric_.send(SignalFabric::Delivery::Suspend, *ams);
}

void
MispProcessor::endSerialization(bool rootChanged)
{
    if (ams_.empty())
        return;
    using Policy = SerializationPolicy;
    if (knob<&MispConfig::serialization>() == Policy::SuspendAll) {
        for (auto &ams : ams_)
            fabric_.send(SignalFabric::Delivery::Resume, *ams);
    } else if (rootChanged) {
        // Speculative monitor: AMSs kept executing; a CR3 change means
        // their speculative work must be discarded at TLB granularity,
        // and their predecoded blocks resynchronized with it.
        for (auto &ams : ams_) {
            ams->mmu().tlb().flushAll();
            ams->invalidateDecodedBlock();
        }
    }
}

void
MispProcessor::ring0Episode(const Ring0Work &work)
{
    if (inRing0()) {
        // The OMS trapped while an episode is in flight: it was idle
        // when the episode began and a signal restarted it. It is
        // InKernel now and stays there; the request is held and runs
        // as its own episode at this one's Ring-0 exit.
        MISP_ASSERT(!held_);
        held_ = work;
        return;
    }
    episode_ = Episode{};
    episode_.phase = Phase::Handshake;
    episode_.work = work;
    obs::trace(obs::TraceKind::Ring0Enter,
               static_cast<std::uint16_t>(oms_->sid()),
               static_cast<std::uint32_t>(work.cause));

    // The OMS enters Ring 0. If this episode was raised from inside the
    // OMS's own execution (fault path), the sequencer is already
    // InKernel; an interrupt path needs pauseForKernel().
    if (oms_->state() == SeqState::Running)
        oms_->pauseForKernel();

    beginSerialization();

    // A processor with no AMSs (a plain CPU in an SMP or mixed
    // configuration) has nothing to synchronize: no handshake latency.
    // Likewise, the speculative-monitor ablation lets AMSs keep running,
    // so the OMS enters the kernel without waiting.
    using Policy = SerializationPolicy;
    episode_.signal =
        (ams_.empty() ||
         knob<&MispConfig::serialization>() == Policy::SpeculativeMonitor)
            ? 0
            : fabric_.signalCycles();
    // The handshake ends at t0 + signal: the kernel work executes.
    eq_.schedule(&ring0Event_, eq_.curTick() + episode_.signal);
}

void
MispProcessor::onRing0Phase()
{
    if (episode_.phase == Phase::Kernel) {
        exitRing0();
        return;
    }
    MISP_ASSERT(episode_.phase == Phase::Handshake);
    const os::KernelResult res = kernelWork(episode_.work);
    privCycles_ += res.priv;
    episode_.res = res;
    episode_.phase = Phase::Kernel;
    // The outgoing thread's context must be snapshotted in the same
    // event as the kernel's decision: once it sits in a wait queue a
    // wake from another CPU may re-dispatch it at any later event.
    if (res.reschedule)
        saveOutgoingThread(res);

    // Return to Ring 3 at t0 + signal + priv.
    eq_.schedule(&ring0Event_, eq_.curTick() + res.priv);
}

void
MispProcessor::exitRing0()
{
    const Episode ep = episode_;
    const os::KernelResult &res = ep.res;
    oms_->chargeKernelCycles(ep.signal + res.priv);
    if (res.fatalFault)
        fatal("%s: unservicable fault (guest bug), cause=%s",
              name_.c_str(), ring0CauseName(ep.work.cause));

    if (res.reschedule)
        loadIncomingThread(res);
    if (ep.work.kind == Ring0Work::Kind::Proxy)
        completeProxy(ep.work.proxy, res);

    endSerialization(/*rootChanged=*/res.reschedule);
    ++serializations_;
    serializeCycles_ += 2 * ep.signal + res.priv;
    episode_ = Episode{};
    obs::trace(obs::TraceKind::Ring0Exit,
               static_cast<std::uint16_t>(oms_->sid()),
               static_cast<std::uint32_t>(ep.work.cause), res.priv);

    if (held_) {
        // The OMS stays InKernel: its held request is the next episode.
        Ring0Work next = *held_;
        held_.reset();
        ring0Episode(next);
        return;
    }

    // Resume the OMS's user execution if it is still parked in the
    // kernel (i.e. no thread switch displaced it).
    if (oms_->state() == SeqState::InKernel)
        oms_->resume();

    // Wakes that arrived while we were in Ring 0 were declined (the CPU
    // was busy); poll for ready work now so a woken thread does not wait
    // for the next timer.
    if (currentThread() == nullptr && oms_->idle()) {
        os::OsThread *next = kernel_.pickNext(cpuId_);
        if (next)
            loadThread(next);
    }
}

os::KernelResult
MispProcessor::kernelWork(const Ring0Work &work)
{
    using Kind = Ring0Work::Kind;
    switch (work.kind) {
      case Kind::TimerTick:
        return kernel_.timerTick(cpuId_);
      case Kind::DeviceIrq:
        return kernel_.deviceIrq(cpuId_);
      case Kind::OmsSyscall:
      case Kind::RuntimeSyscall: {
        os::KernelResult res =
            kernel_.syscall(cpuId_, *work.thread, work.number, work.args);
        // Patch the return while the context is still on the OMS (it
        // may be saved by a switch right after).
        if (work.kind == Kind::OmsSyscall) {
            oms_->context().regs[0] = res.retval;
            oms_->context().eip += isa::kInstBytes;
        } else if (work.patchSid != Ring0Work::kNoPatch) {
            sequencer(work.patchSid)->context().regs[0] = res.retval;
        }
        return res;
      }
      case Kind::OmsPageFault:
        return kernel_.pageFault(cpuId_, *work.thread, work.addr,
                                 work.write);
      case Kind::Proxy: {
        // "The OMS re-executes the faulting instruction, triggering the
        // fault again and causing OS services to be activated."
        const mem::Fault &fault = work.proxy.fault;
        if (fault.kind != mem::FaultKind::Syscall)
            return kernel_.pageFault(cpuId_, *work.thread, fault.addr,
                                     fault.write);
        const cpu::SequencerContext &ctx = work.proxy.savedCtx;
        std::array<Word, 4> args{ctx.regs[0], ctx.regs[1], ctx.regs[2],
                                 ctx.regs[3]};
        os::KernelResult res =
            kernel_.syscall(cpuId_, *work.thread, fault.code, args);
        if (res.reschedule) {
            // A blocking syscall from a shred would block the whole OS
            // thread (the ODE lesson, §5.5). The model does not support
            // it; workloads must keep blocking syscalls on OS threads.
            warn("%s: blocking syscall %llu proxied from an AMS is "
                 "unsupported; treated as immediate",
                 name_.c_str(), (unsigned long long)fault.code);
            res.reschedule = false;
            res.prev = res.next = nullptr;
        }
        return res;
      }
      case Kind::NumKinds:
        break;
    }
    panic("%s: Ring-0 work of unknown kind", name_.c_str());
}

// ---------------------------------------------------------------------
// Proxy execution (§2.5)
// ---------------------------------------------------------------------

Cycles
MispProcessor::serviceProxy(cpu::Sequencer &omsSeq)
{
    MISP_ASSERT(&omsSeq == oms_.get());
    if (proxyQueue_.empty()) {
        // Spurious dispatch (e.g. the request was consumed by an earlier
        // handler activation): nothing to do.
        return 0;
    }
    if (inRing0()) {
        // The handler was dispatched to an idle OMS while an
        // interrupt-initiated Ring-0 episode is still in flight; decline
        // and redeliver so the request retries after the episode.
        cpu::SignalPayload payload;
        payload.arg = proxyQueue_.front().ams->sid();
        fabric_.send(SignalFabric::Delivery::ProxyRequest, *oms_, payload);
        return 0;
    }
    ProxyRequest req = proxyQueue_.front();
    proxyQueue_.erase(proxyQueue_.begin());

    os::OsThread *thread = currentThread();
    MISP_ASSERT(thread != nullptr);

    // The OMS saves its own state and assumes the AMS's (impersonation).
    Cycles charge = 2 * knob<&MispConfig::contextXferCycles>();

    omsSeq.enterKernelEpisode();

    ring0Episode({.kind = Ring0Work::Kind::Proxy,
                  .cause = req.fault.kind == mem::FaultKind::Syscall
                               ? Ring0Cause::ProxySyscall
                               : Ring0Cause::ProxyPageFault,
                  .thread = thread,
                  .proxy = req});

    // The final restore of the OMS's own context happens when the guest
    // proxy-handler stub YRETs; its cost is pre-charged here.
    return charge + knob<&MispConfig::contextXferCycles>();
}

void
MispProcessor::raiseSyscallEpisode(Word number,
                                   const std::array<Word, 4> &args,
                                   SequencerId patchSid)
{
    events_[static_cast<std::size_t>(Ring0Cause::OmsSyscall)] += 1;
    MISP_ASSERT(currentThread() != nullptr);
    ring0Episode({.kind = Ring0Work::Kind::RuntimeSyscall,
                  .cause = Ring0Cause::OmsSyscall,
                  .thread = currentThread(),
                  .number = number,
                  .args = args,
                  .patchSid = patchSid});
}

void
MispProcessor::completeProxy(ProxyRequest req, const os::KernelResult &res)
{
    // Patch the serviced architectural state before shipping it back.
    if (req.fault.kind == mem::FaultKind::Syscall) {
        req.savedCtx.regs[0] = res.retval;
        req.savedCtx.eip += isa::kInstBytes;
    }
    // Page fault: the kernel installed the mapping; the AMS retries the
    // same EIP.
    proxySignalCycles_ += 3 * fabric_.signalCycles();
    fabric_.send(SignalFabric::Delivery::ProxyDone, *req.ams, {},
                 req.savedCtx);
}

// ---------------------------------------------------------------------
// SequencerEnv
// ---------------------------------------------------------------------

cpu::FaultAction
MispProcessor::handleFault(cpu::Sequencer &seq, const mem::Fault &fault,
                           Cycles *extraCycles)
{
    *extraCycles = 0;

    if (&seq == oms_.get()) {
        os::OsThread *thread = currentThread();
        switch (fault.kind) {
          case mem::FaultKind::Syscall: {
            if (!thread)
                panic("%s: syscall with no thread loaded", name_.c_str());
            events_[static_cast<std::size_t>(Ring0Cause::OmsSyscall)] += 1;
            const auto &r = seq.context().regs;
            seq.enterKernelEpisode();
            ring0Episode({.kind = Ring0Work::Kind::OmsSyscall,
                          .cause = Ring0Cause::OmsSyscall,
                          .thread = thread,
                          .number = fault.code,
                          .args = {r[0], r[1], r[2], r[3]}});
            return cpu::FaultAction::Deferred;
          }
          case mem::FaultKind::PageFault: {
            if (!thread)
                panic("%s: page fault with no thread loaded",
                      name_.c_str());
            events_[static_cast<std::size_t>(Ring0Cause::OmsPageFault)] +=
                1;
            seq.enterKernelEpisode();
            ring0Episode({.kind = Ring0Work::Kind::OmsPageFault,
                          .cause = Ring0Cause::OmsPageFault,
                          .thread = thread,
                          .addr = fault.addr,
                          .write = fault.write});
            return cpu::FaultAction::Deferred;
          }
          default:
            warn("%s: OMS raised %s at eip=%#llx; killing", name_.c_str(),
                 mem::faultKindName(fault.kind),
                 (unsigned long long)seq.context().eip);
            return cpu::FaultAction::Kill;
        }
    }

    // AMS: every OS-requiring fault becomes a proxy-execution trigger.
    switch (fault.kind) {
      case mem::FaultKind::Syscall:
        events_[static_cast<std::size_t>(Ring0Cause::ProxySyscall)] += 1;
        break;
      case mem::FaultKind::PageFault:
        events_[static_cast<std::size_t>(Ring0Cause::ProxyPageFault)] += 1;
        break;
      default:
        warn("%s: AMS %s raised %s at eip=%#llx; killing", name_.c_str(),
             seq.name().c_str(), mem::faultKindName(fault.kind),
             (unsigned long long)seq.context().eip);
        return cpu::FaultAction::Kill;
    }

    ++proxyRequests_;
    ProxyRequest req;
    req.ams = &seq;
    req.fault = fault;
    req.savedCtx = seq.saveContext();
    proxyQueue_.push_back(req);

    seq.beginProxyWait();

    cpu::SignalPayload payload;
    payload.arg = seq.sid();
    fabric_.send(SignalFabric::Delivery::ProxyRequest, *oms_, payload);

    return cpu::FaultAction::Deferred;
}

Cycles
MispProcessor::handleRtCall(cpu::Sequencer &seq, Word service)
{
    if (!runtime_) {
        warn("%s: RTCALL %llu with no runtime attached", name_.c_str(),
             (unsigned long long)service);
        return 0;
    }
    obs::trace(obs::TraceKind::RtcallEnter,
               static_cast<std::uint16_t>(seq.sid()), 0, service);
    Cycles cycles = runtime_->rtcall(*this, seq, service);
    obs::trace(obs::TraceKind::RtcallExit,
               static_cast<std::uint16_t>(seq.sid()), 0, service, cycles);
    return cycles;
}

void
MispProcessor::signalInstruction(cpu::Sequencer &seq, SequencerId sid,
                                 const cpu::SignalPayload &payload)
{
    (void)seq;
    cpu::Sequencer *target = sequencer(sid);
    if (!target) {
        warn("%s: SIGNAL to invalid SID %u ignored", name_.c_str(), sid);
        return;
    }
    fabric_.send(SignalFabric::Delivery::Signal, *target, payload);
}

void
MispProcessor::sequencerHalted(cpu::Sequencer &seq)
{
    (void)seq;
    // HALT is a test/benchmark convenience; real workloads terminate via
    // the runtime (RT_EXIT_PROCESS). Nothing to coordinate here.
}

} // namespace misp::arch
