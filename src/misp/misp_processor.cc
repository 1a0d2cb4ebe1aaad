#include "misp_processor.hh"

#include <optional>

#include "obs/trace.hh"
#include "snapshot/state_io.hh"

namespace misp::arch {

using cpu::SeqState;

const char *
serializationPolicyName(SerializationPolicy p)
{
    switch (p) {
      case SerializationPolicy::SuspendAll: return "suspend-all";
      case SerializationPolicy::SpeculativeMonitor:
        return "speculative-monitor";
    }
    return "?";
}

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
                             os::Kernel &kernel, stats::StatGroup *parent)
    : name_(std::move(name)),
      config_(config),
      eq_(eq),
      pmem_(pmem),
      kernel_(kernel),
      cpuId_(kernel.addCpu()),
      statGroup_(name_, parent),
      fabric_(eq, config.signalCycles, &statGroup_, cpuId_),
      events_(&statGroup_, "serializingEvents",
              "Table-1 event counts by cause",
              static_cast<std::size_t>(Ring0Cause::NumCauses)),
      serializations_(&statGroup_, "serializations",
                      "Ring-0 serialization episodes"),
      serializeCycles_(&statGroup_, "serializeCycles",
                       "total serialization window cycles (2*signal+priv)"),
      privCycles_(&statGroup_, "privCycles", "cycles of Ring-0 work"),
      proxyRequests_(&statGroup_, "proxyRequests",
                     "proxy execution requests from AMSs"),
      proxySignalCycles_(&statGroup_, "proxySignalCycles",
                         "Eq.2 egress signal overhead (3*signal/request)"),
      threadSwitches_(&statGroup_, "threadSwitches",
                      "OS thread switches applied on this processor")
{
    oms_ = std::make_unique<cpu::Sequencer>("oms", 0, /*ring0=*/true, eq_,
                                            pmem_, &statGroup_);
    oms_->setEnv(this);
    oms_->setSliceLimit(config_.sliceLimit);
    oms_->setEngine(config_.engine);
    for (unsigned i = 0; i < config_.numAms; ++i) {
        ams_.push_back(std::make_unique<cpu::Sequencer>(
            "ams" + std::to_string(i + 1), i + 1, /*ring0=*/false, eq_,
            pmem_, &statGroup_));
        ams_.back()->setEnv(this);
        ams_.back()->setSliceLimit(config_.sliceLimit);
        ams_.back()->setEngine(config_.engine);
    }
    timerEvent_ = std::make_unique<LambdaEvent>(name_ + ".timer",
                                                [this] { onTimer(); });
    deviceEvent_ = std::make_unique<LambdaEvent>(
        name_ + ".deviceIrq", [this] { onDeviceIrq(); });
}

MispProcessor::~MispProcessor()
{
    // A run cut short (tick budget, snapshot save-and-exit) leaves the
    // periodic interrupts armed; detach them before the queue sees a
    // destroyed event.
    if (timerEvent_->scheduled())
        eq_.deschedule(timerEvent_.get());
    if (deviceEvent_->scheduled())
        eq_.deschedule(deviceEvent_.get());
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

void
MispProcessor::snapSave(snap::Serializer &s) const
{
    // Ring-0 episode phases capture arbitrary closures; the snapshot
    // layer steps the queue past them before calling us.
    MISP_ASSERT(!inRing0_);
    s.b(interruptsOn_);
    s.u64(proxyQueue_.size());
    for (const ProxyRequest &req : proxyQueue_) {
        s.u64(req.ams->sid());
        snap::putFault(s, req.fault);
        snap::putContext(s, req.savedCtx);
        s.u64(req.start);
    }
    snap::putEventSchedule(s, timerEvent_.get());
    snap::putEventSchedule(s, deviceEvent_.get());
    oms_->snapSave(s);
    for (const auto &ams : ams_)
        ams->snapSave(s);
}

void
MispProcessor::snapRestore(snap::Deserializer &d)
{
    interruptsOn_ = d.b();
    std::uint64_t pending = d.u64();
    for (std::uint64_t i = 0; i < pending; ++i) {
        ProxyRequest req;
        SequencerId sid = static_cast<SequencerId>(d.u64());
        req.ams = sequencer(sid);
        if (!req.ams)
            throw snap::SnapError("processor: proxy request names an "
                                  "absent sequencer");
        req.fault = snap::getFault(d);
        // Only these two kinds are ever proxied (handleFault).
        if (req.fault.kind != mem::FaultKind::Syscall &&
            req.fault.kind != mem::FaultKind::PageFault)
            throw snap::SnapError("processor: proxy request carries a "
                                  "fault that is never proxied");
        req.savedCtx = snap::getContext(d);
        req.start = d.u64();
        proxyQueue_.push_back(std::move(req));
    }
    snap::getEventSchedule(d, eq_, timerEvent_.get());
    snap::getEventSchedule(d, eq_, deviceEvent_.get());
    oms_->snapRestore(d);
    for (auto &ams : ams_)
        ams->snapRestore(d);
}

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
    const os::KernelConfig &kc = kernel_.config();
    // Stagger timer phase per CPU slot so MP configurations do not
    // serialize all processors at the same instant.
    Tick phase = kc.timerPeriod / (1 + static_cast<Tick>(cpuId_) % 7);
    eq_.schedule(timerEvent_.get(), eq_.curTick() + phase);
    if (kc.deviceIrqMeanPeriod > 0)
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
    eq_.schedule(timerEvent_.get(),
                 eq_.curTick() + kernel_.config().timerPeriod);
    events_[static_cast<std::size_t>(Ring0Cause::Timer)] += 1;
    if (inRing0_) {
        // Coalesced: the OMS is already serialized in Ring 0. The tick
        // is counted; the next one reschedules.
        return;
    }
    ring0Episode(
        Ring0Cause::Timer, [this] { return kernel_.timerTick(cpuId_); },
        nullptr, std::nullopt);
}

void
MispProcessor::scheduleNextDeviceIrq()
{
    Tick gap = kernel_.nextDeviceIrqGap();
    if (gap == 0)
        return;
    eq_.schedule(deviceEvent_.get(), eq_.curTick() + gap);
}

void
MispProcessor::onDeviceIrq()
{
    if (!interruptsOn_)
        return;
    scheduleNextDeviceIrq();
    events_[static_cast<std::size_t>(Ring0Cause::OtherInterrupt)] += 1;
    if (inRing0_)
        return;
    ring0Episode(
        Ring0Cause::OtherInterrupt,
        [this] { return kernel_.deviceIrq(cpuId_); }, nullptr,
        std::nullopt);
}

// ---------------------------------------------------------------------
// Ring-0 episode orchestration (§2.3 serialization)
// ---------------------------------------------------------------------

void
MispProcessor::beginSerialization()
{
    if (config_.serialization != SerializationPolicy::SuspendAll)
        return;
    for (auto &amsPtr : ams_) {
        cpu::Sequencer *ams = amsPtr.get();
        fabric_.sendAction(name_ + ".suspend",
                           [ams] { ams->suspend(); });
    }
}

void
MispProcessor::endSerialization(bool rootChanged)
{
    if (config_.serialization == SerializationPolicy::SuspendAll) {
        for (auto &amsPtr : ams_) {
            cpu::Sequencer *ams = amsPtr.get();
            fabric_.sendAction(name_ + ".resume",
                               [ams] { ams->resumeFromSerialization(); });
        }
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
MispProcessor::ring0Episode(
    Ring0Cause cause, std::function<os::KernelResult()> work,
    std::function<void(const os::KernelResult &)> done,
    std::optional<ProxyRequest> proxy)
{
    MISP_ASSERT(!inRing0_);
    inRing0_ = true;
    obs::trace(obs::TraceKind::Ring0Enter,
               static_cast<std::uint16_t>(oms_->sid()),
               static_cast<std::uint32_t>(cause));

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
    const Cycles signal =
        (ams_.empty() ||
         config_.serialization == SerializationPolicy::SpeculativeMonitor)
            ? 0
            : fabric_.signalCycles();
    Tick t0 = eq_.curTick();

    // Phase 1 (t0 + signal): suspension handshake complete; the kernel
    // work executes.
    eq_.scheduleLambda(t0 + signal, name_ + ".ring0work", [this, cause,
                                                           work, done,
                                                           proxy, signal,
                                                           t0] {
        os::KernelResult res = work();
        privCycles_ += res.priv;
        // The outgoing thread's context must be snapshotted in the same
        // event as the kernel's decision: once it sits in a wait queue a
        // wake from another CPU may re-dispatch it at any later event.
        if (res.reschedule)
            saveOutgoingThread(res);

        // Phase 2 (t0 + signal + priv): return to Ring 3.
        eq_.scheduleLambda(
            eq_.curTick() + res.priv, name_ + ".ring0end",
            [this, cause, res, done, proxy, signal, t0] {
                oms_->chargeKernelCycles(signal + res.priv);
                if (res.fatalFault)
                    fatal("%s: unservicable fault (guest bug), cause=%s",
                          name_.c_str(), ring0CauseName(cause));

                if (res.reschedule)
                    loadIncomingThread(res);
                if (proxy)
                    completeProxy(*proxy, res);

                endSerialization(/*rootChanged=*/res.reschedule);
                ++serializations_;
                serializeCycles_ += 2 * signal + res.priv;
                inRing0_ = false;
                obs::trace(obs::TraceKind::Ring0Exit,
                           static_cast<std::uint16_t>(oms_->sid()),
                           static_cast<std::uint32_t>(cause), res.priv);

                if (done)
                    done(res);

                // Resume the OMS's user execution if it is still parked
                // in the kernel (i.e. no thread switch displaced it).
                if (oms_->state() == SeqState::InKernel)
                    oms_->resume();

                // Wakes that arrived while we were in Ring 0 were
                // declined (the CPU was busy); poll for ready work now
                // so a woken thread does not wait for the next timer.
                if (currentThread() == nullptr && oms_->idle()) {
                    os::OsThread *next = kernel_.pickNext(cpuId_);
                    if (next)
                        loadThread(next);
                }
                (void)t0;
            });
    });
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
    if (inRing0_) {
        // The handler was dispatched to an idle OMS while an
        // interrupt-initiated Ring-0 episode is still in flight; decline
        // and redeliver so the request retries after the episode.
        cpu::SignalPayload payload;
        payload.arg = proxyQueue_.front().ams->sid();
        fabric_.sendProxyRequest(*oms_, payload);
        return 0;
    }
    ProxyRequest req = proxyQueue_.front();
    proxyQueue_.pop_front();

    os::OsThread *thread = currentThread();
    MISP_ASSERT(thread != nullptr);

    // The OMS saves its own state and assumes the AMS's (impersonation).
    Cycles charge = 2 * config_.contextXferCycles;

    Ring0Cause cause = req.fault.kind == mem::FaultKind::Syscall
                           ? Ring0Cause::ProxySyscall
                           : Ring0Cause::ProxyPageFault;

    omsSeq.enterKernelEpisode();

    mem::Fault fault = req.fault;
    ring0Episode(
        cause,
        [this, thread, fault, ctx = req.savedCtx]() -> os::KernelResult {
            // "The OMS re-executes the faulting instruction, triggering
            // the fault again and causing OS services to be activated."
            if (fault.kind == mem::FaultKind::Syscall) {
                std::array<Word, 4> args{ctx.regs[0], ctx.regs[1],
                                         ctx.regs[2], ctx.regs[3]};
                os::KernelResult res =
                    kernel_.syscall(cpuId_, *thread, fault.code, args);
                if (res.reschedule) {
                    // A blocking syscall from a shred would block the
                    // whole OS thread (the ODE lesson, §5.5). The model
                    // does not support it; workloads must keep blocking
                    // syscalls on OS threads.
                    warn("%s: blocking syscall %llu proxied from an AMS "
                         "is unsupported; treated as immediate",
                         name_.c_str(), (unsigned long long)fault.code);
                    res.reschedule = false;
                    res.prev = res.next = nullptr;
                }
                return res;
            }
            return kernel_.pageFault(cpuId_, *thread, fault.addr,
                                     fault.write);
        },
        nullptr, req);

    // The final restore of the OMS's own context happens when the guest
    // proxy-handler stub YRETs; its cost is pre-charged here.
    return charge + config_.contextXferCycles;
}

void
MispProcessor::raiseSyscallEpisode(std::function<os::KernelResult()> work)
{
    events_[static_cast<std::size_t>(Ring0Cause::OmsSyscall)] += 1;
    ring0Episode(Ring0Cause::OmsSyscall, std::move(work), nullptr,
                 std::nullopt);
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

    cpu::Sequencer *ams = req.ams;
    cpu::SequencerContext serviced = req.savedCtx;
    fabric_.sendAction(name_ + ".proxyDone", [ams, serviced] {
        if (ams->state() == SeqState::WaitingProxy) {
            ams->restoreContext(serviced);
            ams->resume(/*retryFault=*/true);
        }
        // If the thread was switched away mid-proxy (guarded against,
        // but kept safe), the serviced context is already in the save
        // area and will resume on reload.
    });
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
            std::array<Word, 4> args{
                seq.context().regs[0], seq.context().regs[1],
                seq.context().regs[2], seq.context().regs[3]};
            Word number = fault.code;
            seq.enterKernelEpisode();
            ring0Episode(
                Ring0Cause::OmsSyscall,
                [this, thread, number, args]() {
                    os::KernelResult res =
                        kernel_.syscall(cpuId_, *thread, number, args);
                    // Patch the return while the context is still on the
                    // OMS (it may be saved by a switch right after).
                    oms_->context().regs[0] = res.retval;
                    oms_->context().eip += isa::kInstBytes;
                    return res;
                },
                nullptr, std::nullopt);
            return cpu::FaultAction::Deferred;
          }
          case mem::FaultKind::PageFault: {
            if (!thread)
                panic("%s: page fault with no thread loaded",
                      name_.c_str());
            events_[static_cast<std::size_t>(Ring0Cause::OmsPageFault)] +=
                1;
            VAddr va = fault.addr;
            bool write = fault.write;
            seq.enterKernelEpisode();
            ring0Episode(
                Ring0Cause::OmsPageFault,
                [this, thread, va, write]() {
                    return kernel_.pageFault(cpuId_, *thread, va, write);
                },
                nullptr, std::nullopt);
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
    req.start = eq_.curTick();
    proxyQueue_.push_back(req);

    seq.beginProxyWait();

    cpu::SignalPayload payload;
    payload.arg = seq.sid();
    fabric_.sendProxyRequest(*oms_, payload);

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
    fabric_.sendSignal(*target, payload);
}

void
MispProcessor::sequencerHalted(cpu::Sequencer &seq)
{
    (void)seq;
    // HALT is a test/benchmark convenience; real workloads terminate via
    // the runtime (RT_EXIT_PROCESS). Nothing to coordinate here.
}

} // namespace misp::arch
