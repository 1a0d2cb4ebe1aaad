/**
 * @file
 * Unit tests for the OS model: scheduling, syscalls, futexes, demand
 * paging, affinity. These drive the Kernel directly (no sequencers).
 */

#include <gtest/gtest.h>

#include "os/kernel.hh"
#include "sim/event_queue.hh"

using namespace misp;
using namespace misp::os;

namespace {

class KernelTest : public ::testing::Test, public KernelClient
{
  protected:
    KernelTest() : pmem(1 << 12), root("")
    {
        KernelConfig cfg;
        kernel = std::make_unique<Kernel>(eq, pmem, cfg, reads, &root);
        kernel->setClient(this);
    }

    void cpuWake(int cpu) override { wakes.push_back(cpu); }

    Process *
    makeProcess(const char *name = "p")
    {
        Process *proc = kernel->createProcess(name);
        proc->addressSpace().defineRegion(0x40'0000,
                                          16 * mem::kPageSize, true,
                                          "mem");
        return proc;
    }

    EventQueue eq;
    mem::PhysicalMemory pmem;
    stats::StatGroup root;
    ConfigReads reads;
    std::unique_ptr<Kernel> kernel;
    std::vector<int> wakes;
};

} // namespace

TEST_F(KernelTest, ThreadLifecycle)
{
    kernel->addCpu();
    Process *proc = makeProcess();
    OsThread *t = kernel->createThread(proc, 0x40'0000, 0x41'0000, 7);
    EXPECT_EQ(t->state(), ThreadState::Ready);
    EXPECT_EQ(t->context().regs[0], 7u);
    EXPECT_EQ(t->context().regs[2], 7u);

    OsThread *picked = kernel->pickNext(0);
    EXPECT_EQ(picked, t);
    EXPECT_EQ(t->state(), ThreadState::Running);
    EXPECT_EQ(t->cpu(), 0);
    EXPECT_EQ(kernel->current(0), t);
}

TEST_F(KernelTest, PickNextEmptyQueueIdles)
{
    kernel->addCpu();
    EXPECT_EQ(kernel->pickNext(0), nullptr);
}

TEST_F(KernelTest, ExitThreadFreesCpuAndPicksNext)
{
    kernel->addCpu();
    Process *proc = makeProcess();
    OsThread *a = kernel->createThread(proc, 0x40'0000, 0x41'0000, 0);
    OsThread *b = kernel->createThread(proc, 0x40'0000, 0x41'0000, 1);
    kernel->pickNext(0);
    KernelResult res = kernel->syscall(
        0, *a, static_cast<Word>(Sys::ExitThread), {0, 0, 0, 0});
    EXPECT_EQ(a->state(), ThreadState::Done);
    EXPECT_TRUE(res.reschedule);
    EXPECT_EQ(res.next, b);
    EXPECT_GT(res.priv, 0u);
}

TEST_F(KernelTest, JoinBlocksUntilTargetExits)
{
    kernel->addCpu();
    kernel->addCpu();
    Process *proc = makeProcess();
    OsThread *worker = kernel->createThread(proc, 0x40'0000, 0x41'0000, 0);
    OsThread *joiner = kernel->createThread(proc, 0x40'0000, 0x42'0000, 0);
    kernel->pickNext(0); // worker
    kernel->pickNext(1); // joiner

    KernelResult res = kernel->syscall(
        1, *joiner, static_cast<Word>(Sys::ThreadJoin),
        {worker->tid(), 0, 0, 0});
    EXPECT_TRUE(res.reschedule);
    EXPECT_EQ(joiner->state(), ThreadState::Blocked);

    wakes.clear();
    KernelResult exitRes = kernel->syscall(
        0, *worker, static_cast<Word>(Sys::ExitThread), {0, 0, 0, 0});
    // The joiner was readied; the exiting CPU may have picked it up
    // immediately as its next thread.
    EXPECT_NE(joiner->state(), ThreadState::Blocked);
    EXPECT_TRUE(exitRes.next == joiner || !wakes.empty() ||
                joiner->state() == ThreadState::Ready);
}

TEST_F(KernelTest, JoinOfFinishedThreadReturnsImmediately)
{
    kernel->addCpu();
    Process *proc = makeProcess();
    OsThread *worker = kernel->createThread(proc, 0x40'0000, 0x41'0000, 0);
    OsThread *joiner = kernel->createThread(proc, 0x40'0000, 0x42'0000, 0);
    kernel->pickNext(0); // worker
    KernelResult exitRes = kernel->syscall(
        0, *worker, static_cast<Word>(Sys::ExitThread), {0, 0, 0, 0});
    ASSERT_EQ(exitRes.next, joiner); // picked up by the freed CPU
    KernelResult res = kernel->syscall(
        0, *joiner, static_cast<Word>(Sys::ThreadJoin),
        {worker->tid(), 0, 0, 0});
    EXPECT_FALSE(res.reschedule);
}

TEST_F(KernelTest, FutexWaitValueMismatchReturns)
{
    kernel->addCpu();
    Process *proc = makeProcess();
    OsThread *t = kernel->createThread(proc, 0x40'0000, 0x41'0000, 0);
    kernel->pickNext(0);
    proc->addressSpace().pokeWord(0x40'0100, 5, 8);
    KernelResult res = kernel->syscall(
        0, *t, static_cast<Word>(Sys::FutexWait), {0x40'0100, 4, 0, 0});
    EXPECT_FALSE(res.reschedule);
    EXPECT_EQ(res.retval, 1u);
    EXPECT_EQ(t->state(), ThreadState::Running);
}

TEST_F(KernelTest, FutexWaitWakeRoundTrip)
{
    kernel->addCpu();
    kernel->addCpu();
    Process *proc = makeProcess();
    OsThread *sleeper = kernel->createThread(proc, 0x40'0000, 0x41'0000, 0);
    OsThread *waker = kernel->createThread(proc, 0x40'0000, 0x42'0000, 0);
    kernel->pickNext(0);
    kernel->pickNext(1);
    proc->addressSpace().pokeWord(0x40'0100, 0, 8);

    KernelResult res = kernel->syscall(
        0, *sleeper, static_cast<Word>(Sys::FutexWait),
        {0x40'0100, 0, 0, 0});
    EXPECT_TRUE(res.reschedule);
    EXPECT_EQ(sleeper->state(), ThreadState::Blocked);

    KernelResult wres = kernel->syscall(
        1, *waker, static_cast<Word>(Sys::FutexWake), {0x40'0100, 1, 0, 0});
    EXPECT_EQ(wres.retval, 1u);
    EXPECT_EQ(sleeper->state(), ThreadState::Ready);
}

TEST_F(KernelTest, FutexWakeWithNoWaiters)
{
    kernel->addCpu();
    Process *proc = makeProcess();
    OsThread *t = kernel->createThread(proc, 0x40'0000, 0x41'0000, 0);
    kernel->pickNext(0);
    KernelResult res = kernel->syscall(
        0, *t, static_cast<Word>(Sys::FutexWake), {0x40'0100, 5, 0, 0});
    EXPECT_EQ(res.retval, 0u);
}

TEST_F(KernelTest, SleepWakesAfterDuration)
{
    kernel->addCpu();
    Process *proc = makeProcess();
    OsThread *t = kernel->createThread(proc, 0x40'0000, 0x41'0000, 0);
    kernel->pickNext(0);
    KernelResult res = kernel->syscall(
        0, *t, static_cast<Word>(Sys::Sleep), {5000, 0, 0, 0});
    EXPECT_TRUE(res.reschedule);
    EXPECT_EQ(t->state(), ThreadState::Blocked);
    eq.run();
    EXPECT_EQ(t->state(), ThreadState::Ready);
    EXPECT_GE(eq.curTick(), 5000u);
}

TEST_F(KernelTest, PageFaultMapsPage)
{
    kernel->addCpu();
    Process *proc = makeProcess();
    OsThread *t = kernel->createThread(proc, 0x40'0000, 0x41'0000, 0);
    kernel->pickNext(0);
    EXPECT_FALSE(proc->addressSpace().mapped(0x40'2000));
    KernelResult res = kernel->pageFault(0, *t, 0x40'2000, true);
    EXPECT_FALSE(res.fatalFault);
    EXPECT_GT(res.priv, 0u);
    EXPECT_TRUE(proc->addressSpace().mapped(0x40'2000));
}

TEST_F(KernelTest, BadAddressIsFatalFault)
{
    kernel->addCpu();
    Process *proc = makeProcess();
    OsThread *t = kernel->createThread(proc, 0x40'0000, 0x41'0000, 0);
    kernel->pickNext(0);
    KernelResult res = kernel->pageFault(0, *t, 0xBAD0'0000, false);
    EXPECT_TRUE(res.fatalFault);
}

TEST_F(KernelTest, TimerPreemptsAfterQuantum)
{
    kernel->addCpu();
    Process *proc = makeProcess();
    OsThread *a = kernel->createThread(proc, 0x40'0000, 0x41'0000, 0);
    OsThread *b = kernel->createThread(proc, 0x40'0000, 0x42'0000, 0);
    kernel->pickNext(0);

    unsigned quantum = kernel->config().quantumTicks;
    for (unsigned i = 0; i + 1 < quantum; ++i) {
        KernelResult res = kernel->timerTick(0);
        EXPECT_FALSE(res.reschedule) << "tick " << i;
    }
    KernelResult res = kernel->timerTick(0);
    EXPECT_TRUE(res.reschedule);
    EXPECT_EQ(res.prev, a);
    EXPECT_EQ(res.next, b);
    EXPECT_EQ(a->state(), ThreadState::Ready);
}

TEST_F(KernelTest, NoPreemptionWhenAlone)
{
    kernel->addCpu();
    Process *proc = makeProcess();
    kernel->createThread(proc, 0x40'0000, 0x41'0000, 0);
    kernel->pickNext(0);
    for (int i = 0; i < 10; ++i) {
        KernelResult res = kernel->timerTick(0);
        EXPECT_FALSE(res.reschedule);
    }
}

TEST_F(KernelTest, YieldRotatesReadyQueue)
{
    kernel->addCpu();
    Process *proc = makeProcess();
    OsThread *a = kernel->createThread(proc, 0x40'0000, 0x41'0000, 0);
    OsThread *b = kernel->createThread(proc, 0x40'0000, 0x42'0000, 0);
    kernel->pickNext(0);
    KernelResult res = kernel->syscall(
        0, *a, static_cast<Word>(Sys::Yield), {0, 0, 0, 0});
    EXPECT_TRUE(res.reschedule);
    EXPECT_EQ(res.next, b);
}

TEST_F(KernelTest, AffinityRestrictsPlacement)
{
    kernel->addCpu();
    kernel->addCpu();
    Process *proc = makeProcess();
    OsThread *t = kernel->createThread(proc, 0x40'0000, 0x41'0000, 0);
    t->affinity = {1};
    EXPECT_EQ(kernel->pickNext(0), nullptr);
    EXPECT_EQ(kernel->pickNext(1), t);
}

TEST_F(KernelTest, ExitProcessReapsThreads)
{
    kernel->addCpu();
    Process *proc = makeProcess();
    OsThread *main = kernel->createThread(proc, 0x40'0000, 0x41'0000, 0);
    kernel->createThread(proc, 0x40'0000, 0x42'0000, 0); // queued
    kernel->pickNext(0);
    bool hooked = false;
    kernel->setProcessExitHook([&](Process *p) {
        hooked = p == proc;
    });
    kernel->syscall(0, *main, static_cast<Word>(Sys::ExitProcess),
                    {0, 0, 0, 0});
    EXPECT_TRUE(proc->exited);
    EXPECT_TRUE(proc->allThreadsDone());
    EXPECT_TRUE(hooked);
    EXPECT_FALSE(kernel->processAlive(proc));
}

TEST_F(KernelTest, WriteChargesPerByte)
{
    kernel->addCpu();
    Process *proc = makeProcess();
    OsThread *t = kernel->createThread(proc, 0x40'0000, 0x41'0000, 0);
    kernel->pickNext(0);
    KernelResult small = kernel->syscall(
        0, *t, static_cast<Word>(Sys::Write), {1, 0x40'0000, 10, 0});
    KernelResult large = kernel->syscall(
        0, *t, static_cast<Word>(Sys::Write), {1, 0x40'0000, 1000, 0});
    EXPECT_GT(large.priv, small.priv);
    EXPECT_EQ(small.retval, 10u);
}

TEST_F(KernelTest, DeviceIrqGapIsPositiveAndVaries)
{
    Tick a = kernel->nextDeviceIrqGap();
    Tick b = kernel->nextDeviceIrqGap();
    EXPECT_GT(a, 0u);
    EXPECT_GT(b, 0u);
    // Exponentially distributed: very unlikely to repeat exactly.
    EXPECT_NE(a, b);
}

TEST_F(KernelTest, GetTidReturnsCallerTid)
{
    kernel->addCpu();
    Process *proc = makeProcess();
    OsThread *t = kernel->createThread(proc, 0x40'0000, 0x41'0000, 0);
    kernel->pickNext(0);
    KernelResult res = kernel->syscall(
        0, *t, static_cast<Word>(Sys::GetTid), {0, 0, 0, 0});
    EXPECT_EQ(res.retval, t->tid());
}
