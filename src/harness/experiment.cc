#include "experiment.hh"

#include <cstdio>

namespace misp::harness {

Experiment::Experiment(const arch::SystemConfig &config,
                       rt::Backend backend)
    : backend_(backend),
      system_(std::make_unique<arch::MispSystem>(config)),
      stopEvent_(system_->eventQueue(), "experiment.stop")
{
    if (backend == rt::Backend::Shred) {
        shredRt_ = std::make_unique<rt::ShredRuntime>(
            &system_->rootStats());
        system_->attachRuntime(shredRt_.get());
    } else {
        osRt_ = std::make_unique<rt::OsApiRuntime>(&system_->rootStats());
        system_->attachRuntime(osRt_.get());
    }
}

Experiment::~Experiment()
{
    // A run cut short by its tick budget may leave the stop pending.
    if (stopEvent_.scheduled())
        system_->eventQueue().deschedule(&stopEvent_);
}

LoadedProcess
Experiment::load(const GuestApp &app, const std::vector<int> &affinity)
{
    return loadApp(*system_, app, backend_, affinity);
}

const char *
runStatusName(RunStatus status)
{
    switch (status) {
    case RunStatus::Completed:
        return "completed";
    case RunStatus::MaxTicksReached:
        return "max_ticks";
    case RunStatus::SnapshotError:
        return "snapshot_error";
    case RunStatus::WorkerCrashed:
        return "worker_crashed";
    case RunStatus::WorkerTimeout:
        return "worker_timeout";
    }
    return "unknown";
}

bool
runStatusFromName(const std::string &name, RunStatus *out)
{
    static constexpr RunStatus all[] = {
        RunStatus::Completed,     RunStatus::MaxTicksReached,
        RunStatus::SnapshotError, RunStatus::WorkerCrashed,
        RunStatus::WorkerTimeout,
    };
    for (RunStatus status : all) {
        if (name == runStatusName(status)) {
            *out = status;
            return true;
        }
    }
    return false;
}

bool
runStatusIsInfraFailure(RunStatus status)
{
    return status == RunStatus::SnapshotError ||
           status == RunStatus::WorkerCrashed ||
           status == RunStatus::WorkerTimeout;
}

RunOutcome
Experiment::runToCompletion(os::Process *target, Tick maxTicks)
{
    system_->start();
    return finishRun(target, maxTicks);
}

RunOutcome
Experiment::resumeToCompletion(os::Process *target, Tick maxTicks)
{
    return finishRun(target, maxTicks);
}

RunOutcome
Experiment::finishRun(os::Process *target, Tick maxTicks)
{
    Tick finished = 0;
    arch::MispSystem *sys = system_.get();
    system_->kernel().setProcessExitHook(
        [this, &finished, sys, target](os::Process *proc) {
            if (proc != target)
                return;
            finished = sys->eventQueue().curTick();
            sys->quiesce();
            // Let in-flight Ring-0 episodes and signal deliveries drain
            // (their accounting completes at episode end) before
            // stopping; background processes keep the queue non-empty.
            if (!stopEvent_.scheduled())
                sys->eventQueue().schedule(
                    &stopEvent_, sys->eventQueue().curTick() + 500'000);
        });
    system_->run(maxTicks);
    RunOutcome out;
    if (finished == 0) {
        warn("experiment: target process '%s' did not finish within "
             "%llu ticks",
             target->name().c_str(), (unsigned long long)maxTicks);
        out.status = RunStatus::MaxTicksReached;
    } else {
        out.status = RunStatus::Completed;
        out.ticks = finished;
    }
    return out;
}

std::uint64_t
Experiment::totalInstsRetired()
{
    return harness::totalInstsRetired(*system_);
}

std::uint64_t
totalInstsRetired(arch::MispSystem &sys)
{
    std::uint64_t total = 0;
    for (unsigned p = 0; p < sys.numProcessors(); ++p) {
        arch::MispProcessor &mp = sys.processor(p);
        for (SequencerId sid = 0;; ++sid) {
            cpu::Sequencer *seq = mp.sequencer(sid);
            if (!seq)
                break;
            total += seq->instsRetired();
        }
    }
    return total;
}

double
reportHost(const std::string &name, std::uint64_t instsRetired,
           double hostSeconds, cpu::Engine engine)
{
    double mips =
        hostSeconds > 0.0 ? instsRetired / hostSeconds / 1e6 : 0.0;
    std::fprintf(stderr,
                 "HOST name=%s retired=%llu host_ms=%.1f mips=%.2f "
                 "engine=%s\n",
                 name.c_str(), (unsigned long long)instsRetired,
                 hostSeconds * 1e3, mips, cpu::engineName(engine));
    return mips;
}

EventCounts
snapshotEvents(arch::MispProcessor &mp)
{
    EventCounts out{};
    for (std::size_t i = 0; i < kNumEventCounters; ++i) {
        const EventCounterInfo &c = kEventCounters[i];
        switch (c.source) {
        case EventSource::Cause:
            out[i] = double(mp.eventCount(arch::Ring0Cause(i)));
            break;
        case EventSource::Stat:
            out[i] = mp.statGroup().lookupValue(c.stat);
            break;
        case EventSource::AmsSum:
            for (unsigned a = 0; a < mp.numAms(); ++a)
                out[i] += mp.amsAt(a).statGroup().lookupValue(c.stat);
            break;
        }
    }
    return out;
}

} // namespace misp::harness
