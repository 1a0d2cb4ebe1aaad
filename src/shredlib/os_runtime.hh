/**
 * @file
 * The OS-thread runtime backend: the SMP baseline's threading library.
 *
 * Implements the same stub-library ABI as ShredLib, but with classic
 * kernel threads: shred_create becomes a thread-create system call,
 * join_all a sequence of blocking joins, and contended synchronization
 * blocks in the kernel through futex waits (an adaptive
 * spin-then-block mutex, generation-counter barriers, kernel-object
 * semaphores/events — the mix a 2006 Windows/pthreads runtime used).
 *
 * Because this backend runs the *identical* workload code, comparing a
 * MISP system against an SMP system isolates exactly the architectural
 * difference the paper evaluates.
 *
 * Multi-step blocking protocols (mutex retry, condition-variable
 * unlock/wait/relock) are implemented by rewinding the guest EIP to the
 * RTCALL instruction so the service re-executes after each kernel
 * block, with a small per-thread phase machine carrying the state.
 */

#ifndef MISP_SHREDLIB_OS_RUNTIME_HH
#define MISP_SHREDLIB_OS_RUNTIME_HH

#include <map>
#include <memory>
#include <unordered_map>

#include "misp/misp_processor.hh"
#include "misp/misp_system.hh"
#include "shredlib/rt_abi.hh"
#include "shredlib/stub_library.hh"
#include "sim/stats.hh"

namespace misp::rt {

/** RtHandler for systems whose processors are plain CPUs (0 AMS). */
class OsApiRuntime : public arch::RtHandler
{
  public:
    explicit OsApiRuntime(stats::StatGroup *parent,
                          RtCosts costs = RtCosts{});
    ~OsApiRuntime() override;

    Cycles rtcall(arch::MispProcessor &proc, cpu::Sequencer &seq,
                  Word service) override;
    void onThreadLoaded(arch::MispProcessor &proc,
                        os::OsThread &t) override;
    void onThreadUnloading(arch::MispProcessor &proc,
                           os::OsThread &t) override;

    // ---- snapshot ------------------------------------------------------
    /** Snapshot the per-process groups: futex-waiter mirrors, barrier
     *  arrival counts, and the mutex/cond blocking phase machines
     *  (keyed by pid in the image, emitted in pid order). */
    template <class Ar>
    void archive(Ar &a, arch::MispSystem &sys);

  private:
    /** Condition-wait phase machine state (per thread). */
    enum class CondPhase : std::uint8_t { Wait, Relock };

    struct CondState {
        CondPhase phase = CondPhase::Wait;
        Word genAtWait = 0;
    };

    struct Group {
        os::Process *process = nullptr;
        os::OsThread *main = nullptr;
        /** Host mirror of waiter existence per futex word. */
        std::map<VAddr, int> waiters;
        /** Barrier arrival counts (guest word holds the generation). */
        std::map<VAddr, unsigned> barrierArrived;
        /** In-flight mutex waits: tid -> mutex word. */
        std::map<Tid, VAddr> mutexWaiting;
        /** In-flight condition waits: tid -> state. */
        std::map<Tid, CondState> condWaiting;
    };

    Group &groupOf(arch::MispProcessor &proc);
    mem::AddressSpace &as(arch::MispProcessor &proc);

    /** Issue a kernel syscall as a Ring-0 episode on this CPU.
     *  @p patchRet writes the syscall return into r0. */
    Cycles kernelCall(arch::MispProcessor &proc, cpu::Sequencer &seq,
                      os::Sys number, std::array<Word, 4> args,
                      bool patchRet);

    /** Rewind the guest EIP to re-execute the current RTCALL after the
     *  thread unblocks. */
    static void rewind(cpu::Sequencer &seq);

    Cycles doShredCreate(arch::MispProcessor &proc, cpu::Sequencer &seq);
    Cycles doJoinAll(arch::MispProcessor &proc, cpu::Sequencer &seq);
    Cycles doMutexLock(arch::MispProcessor &proc, cpu::Sequencer &seq);
    Cycles doMutexUnlock(arch::MispProcessor &proc, cpu::Sequencer &seq);
    Cycles doBarrierWait(arch::MispProcessor &proc, cpu::Sequencer &seq);
    Cycles doSemWait(arch::MispProcessor &proc, cpu::Sequencer &seq);
    Cycles doSemPost(arch::MispProcessor &proc, cpu::Sequencer &seq);
    Cycles doCondWait(arch::MispProcessor &proc, cpu::Sequencer &seq);
    Cycles doCondSignal(arch::MispProcessor &proc, cpu::Sequencer &seq,
                        bool broadcast);
    Cycles doEventWait(arch::MispProcessor &proc, cpu::Sequencer &seq);
    Cycles doEventSet(arch::MispProcessor &proc, cpu::Sequencer &seq);
    Cycles doMalloc(arch::MispProcessor &proc, cpu::Sequencer &seq);

    RtCosts costs_;       ///< snap: config
    /** snap: config — resolved from the stub library at build. */
    VAddr symShredDone_;

    std::unordered_map<os::Process *, std::unique_ptr<Group>> groups_;

    stats::StatGroup statGroup_;
    stats::Scalar threadsSpawned_;
    stats::Scalar futexBlocks_;
    stats::Scalar spinAcquires_;
};

} // namespace misp::rt

#endif // MISP_SHREDLIB_OS_RUNTIME_HH
