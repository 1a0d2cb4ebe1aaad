#include "misp_system.hh"

namespace misp::arch {

SystemConfig
SystemConfig::uniprocessor(unsigned numAms)
{
    SystemConfig cfg;
    cfg.amsPerProcessor = {numAms};
    return cfg;
}

SystemConfig
SystemConfig::mp(const std::vector<unsigned> &amsCounts)
{
    SystemConfig cfg;
    cfg.amsPerProcessor = amsCounts;
    return cfg;
}

bool
SystemConfig::validate(std::string *err) const
{
    auto bad = [&](const std::string &field, std::uint64_t value,
                   const std::string &want) {
        *err = field + " is " + std::to_string(value) + "; " + want;
        return false;
    };
    const std::string most = std::to_string(kMaxSequencers);
    if (amsPerProcessor.empty() || amsPerProcessor.size() > kMaxSequencers)
        return bad("the processor count", amsPerProcessor.size(),
                   "a machine has 1 to " + most);
    for (std::size_t i = 0; i < amsPerProcessor.size(); ++i) {
        if (amsPerProcessor[i] > kMaxSequencers)
            return bad("amsPerProcessor[" + std::to_string(i) + "]",
                       amsPerProcessor[i], "a processor has at most " + most);
    }
    if (physFrames == 0)
        return bad("physFrames", 0, "a machine needs memory");
    // misplint: allow(config-raw-read) -- checked before any machine
    if (misp.sliceLimit == 0)
        return bad("misp.sliceLimit", 0, "a slice must retire an instruction");
    // misplint: allow(config-raw-read) -- checked before any machine
    if (kernel.timerPeriod == 0)
        return bad("kernel.timerPeriod", 0, "the timer would re-fire forever");
    return true;
}

MispSystem::MispSystem(const SystemConfig &config)
    : config_(config), root_("")
{
    pmem_ = std::make_unique<mem::PhysicalMemory>(
        readConfig<&SystemConfig::physFrames>(config_, reads_), &root_);
    kernel_ = std::make_unique<os::Kernel>(eq_, *pmem_, config_.kernel,
                                           reads_, &root_);
    kernel_->setClient(this);

    const std::vector<unsigned> &amsCounts =
        readConfig<&SystemConfig::amsPerProcessor>(config_, reads_);
    for (std::size_t i = 0; i < amsCounts.size(); ++i) {
        MispConfig mc = config_.misp;
        mc.numAms = amsCounts[i];
        procs_.push_back(std::make_unique<MispProcessor>(
            "misp" + std::to_string(i), mc, eq_, *pmem_, *kernel_, reads_,
            &root_));
    }
}

MispSystem::~MispSystem() = default;

MispProcessor *
MispSystem::processorForCpu(int cpu)
{
    for (auto &p : procs_) {
        if (p->cpuId() == cpu)
            return p.get();
    }
    return nullptr;
}

void
MispSystem::attachRuntime(RtHandler *rt)
{
    for (auto &p : procs_)
        p->attachRuntime(rt);
}

void
MispSystem::start()
{
    for (auto &p : procs_) {
        // cpuWake() may already have dispatched a thread here when it
        // was created; only pick for still-idle CPUs.
        if (kernel_->current(p->cpuId()) == nullptr) {
            os::OsThread *t = kernel_->pickNext(p->cpuId());
            if (t)
                p->loadThread(t);
        }
        p->startInterrupts();
    }
}

Tick
MispSystem::run(Tick maxTicks)
{
    return eq_.run(maxTicks);
}

void
MispSystem::quiesce()
{
    for (auto &p : procs_)
        p->stopInterrupts();
}

void
MispSystem::cpuWake(int cpu)
{
    MispProcessor *proc = processorForCpu(cpu);
    if (!proc)
        return;
    if (proc->inRing0() || proc->currentThread() != nullptr)
        return;
    if (!proc->oms().idle())
        return;
    os::OsThread *t = kernel_->pickNext(cpu);
    if (!t)
        return;
    // Loading from idle is the tail of whichever kernel path readied the
    // thread; charge the dispatch as kernel time on this OMS.
    proc->oms().chargeKernelCycles(
        kernel_->knob<&os::KernelConfig::ctxSwitch>());
    proc->loadThread(t);
}

} // namespace misp::arch
