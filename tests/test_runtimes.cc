/**
 * @file
 * Tests for the two threading runtimes behind the stub-library ABI:
 * ShredLib (M:N gang scheduling, user-level sync) and the OS-thread
 * backend (kernel threads, futex blocking) — exercised through guest
 * programs that use the stubs the way workloads do.
 */

#include <gtest/gtest.h>

#include "harness/experiment.hh"
#include "isa/assembler.hh"
#include "shredlib/stub_library.hh"

using namespace misp;

namespace {

harness::GuestApp
appFromAsm(const std::string &name, std::string src)
{
    // Make stub addresses available as decimal literals.
    auto sub = [&](const std::string &key, VAddr value) {
        std::string token = "@" + key;
        std::size_t pos;
        while ((pos = src.find(token)) != std::string::npos)
            src.replace(pos, token.size(), std::to_string(value));
    };
    for (const char *sym :
         {"rt_init", "shred_create", "join_all", "yield", "shred_self",
          "mutex_lock", "mutex_unlock", "barrier_wait", "sem_wait",
          "sem_post", "cond_wait", "cond_signal", "cond_broadcast",
          "event_wait", "event_set", "malloc", "prefault",
          "exit_process"}) {
        sub(sym, rt::stubLibrary(rt::Backend::Shred).symbol(sym));
    }
    harness::GuestApp app;
    app.name = name;
    app.program = isa::assemble(src, mem::kCodeBase);
    harness::DataRegion data;
    data.addr = 0x0800'0000;
    data.size = 64 * mem::kPageSize;
    app.data.push_back(data);
    return app;
}

struct Ran {
    Tick ticks;
    os::Process *process;
    std::unique_ptr<harness::Experiment> exp;
    Word
    word(VAddr addr)
    {
        return process->addressSpace().peekWord(addr, 8);
    }
};

Ran
runOn(rt::Backend backend, const harness::GuestApp &app,
      unsigned numAms = 3)
{
    Ran r;
    arch::SystemConfig cfg =
        backend == rt::Backend::Shred
            ? arch::SystemConfig::uniprocessor(numAms)
            : arch::SystemConfig::mp({0, 0, 0, 0});
    r.exp = std::make_unique<harness::Experiment>(cfg, backend);
    auto loaded = r.exp->load(app);
    r.process = loaded.process;
    r.ticks = r.exp->runToCompletion(loaded.process, 50'000'000'000ull).ticks;
    return r;
}

/** Both backends must run the program to the same result. */
void
checkBothBackends(const harness::GuestApp &app, VAddr resultAddr,
                  Word expected)
{
    for (rt::Backend backend :
         {rt::Backend::Shred, rt::Backend::OsThread}) {
        SCOPED_TRACE(rt::backendName(backend));
        Ran r = runOn(backend, app);
        ASSERT_GT(r.ticks, 0u);
        EXPECT_EQ(r.word(resultAddr), expected);
    }
}

} // namespace

TEST(Runtimes, CreateAndJoinCollectsAllWork)
{
    // 5 workers each add (index+1) into their slot; total checked.
    auto app = appFromAsm("createjoin", R"(
        main:
            call @rt_init
            movi r4, 0
        spawn:
            movi r0, worker
            mov r1, r4
            call @shred_create
            addi r4, r4, 1
            cmpi r4, 5
            jcc.lt spawn
            call @join_all
            ; reduce slots
            movi r4, 0
            movi r6, 0
        reduce:
            shli r5, r4, 3
            addi r5, r5, 0x8000000
            ld8 r7, [r5]
            add r6, r6, r7
            addi r4, r4, 1
            cmpi r4, 5
            jcc.lt reduce
            movi r5, 0x8000100
            st8 [r5], r6
            movi r0, 0
            call @exit_process
        worker:
            mov r4, r0          ; index
            addi r5, r4, 1
            shli r6, r4, 3
            addi r6, r6, 0x8000000
            st8 [r6], r5
            compute 5000
            ret
    )");
    checkBothBackends(app, 0x0800'0100, 1 + 2 + 3 + 4 + 5);
}

TEST(Runtimes, MutexProtectsSharedCounter)
{
    // 6 workers increment a shared counter 200 times under a mutex.
    auto app = appFromAsm("mutexcount", R"(
        main:
            call @rt_init
            movi r4, 0
        spawn:
            movi r0, worker
            mov r1, r4
            call @shred_create
            addi r4, r4, 1
            cmpi r4, 6
            jcc.lt spawn
            call @join_all
            movi r0, 0
            call @exit_process
        worker:
            movi r14, 0         ; iterations
        loop:
            movi r0, 0x8000000  ; mutex word
            call @mutex_lock
            ; counter++ under the lock (plain, unlocked accesses)
            movi r4, 0x8000100
            ld8 r5, [r4]
            addi r5, r5, 1
            compute 120
            st8 [r4], r5
            movi r0, 0x8000000
            call @mutex_unlock
            addi r14, r14, 1
            cmpi r14, 200
            jcc.lt loop
            ret
    )");
    checkBothBackends(app, 0x0800'0100, 6 * 200);
}

TEST(Runtimes, BarrierSynchronizesPhases)
{
    // Phase 1: each worker writes its slot. Barrier. Phase 2: each
    // worker checks the *next* worker's slot was written, accumulating
    // into a success counter (atomic add).
    auto app = appFromAsm("barrier", R"(
        main:
            call @rt_init
            movi r4, 0
        spawn:
            movi r0, worker
            mov r1, r4
            call @shred_create
            addi r4, r4, 1
            cmpi r4, 4
            jcc.lt spawn
            call @join_all
            movi r0, 0
            call @exit_process
        worker:
            mov r14, r0          ; my index
            ; phase 1: slot[i] = i + 7
            shli r4, r14, 3
            addi r4, r4, 0x8000000
            addi r5, r14, 7
            st8 [r4], r5
            compute 3000
            ; barrier(4)
            movi r0, 0x8000200
            movi r1, 4
            call @barrier_wait
            ; phase 2: check slot[(i+1) % 4] == (i+1)%4 + 7
            addi r4, r14, 1
            andi r4, r4, 3
            shli r5, r4, 3
            addi r5, r5, 0x8000000
            ld8 r6, [r5]
            addi r7, r4, 7
            cmp r6, r7
            jcc.ne bad
            movi r4, 0x8000300
            movi r5, 1
            fetchadd r6, [r4], r5
        bad:
            ret
    )");
    checkBothBackends(app, 0x0800'0300, 4);
}

TEST(Runtimes, SemaphoreLimitsConcurrency)
{
    // Counting semaphore initialized to 2 (via a plain store before
    // first use); 4 workers pass through; a gauge counts concurrent
    // holders and its max must stay <= 2.
    auto app = appFromAsm("sem", R"(
        main:
            call @rt_init
            movi r4, 0x8000000  ; sem word
            movi r5, 2
            st8 [r4], r5
            movi r4, 0
        spawn:
            movi r0, worker
            mov r1, r4
            call @shred_create
            addi r4, r4, 1
            cmpi r4, 4
            jcc.lt spawn
            call @join_all
            movi r0, 0
            call @exit_process
        worker:
            movi r0, 0x8000000
            call @sem_wait
            ; gauge++ atomically; track max
            movi r4, 0x8000100
            movi r5, 1
            fetchadd r6, [r4], r5
            addi r6, r6, 1       ; value after increment
            movi r7, 0x8000108   ; max slot
        maxloop:
            ld8 r8, [r7]
            cmp r6, r8
            jcc.le maxdone
            mov r9, r6
            cmpxchg r8, [r7], r9
            jcc.ne maxloop
        maxdone:
            compute 20000
            ; gauge--
            movi r4, 0x8000100
            movi r5, -1
            fetchadd r6, [r4], r5
            movi r0, 0x8000000
            call @sem_post
            ret
    )");
    for (rt::Backend backend :
         {rt::Backend::Shred, rt::Backend::OsThread}) {
        SCOPED_TRACE(rt::backendName(backend));
        Ran r = runOn(backend, app);
        ASSERT_GT(r.ticks, 0u);
        EXPECT_LE(r.word(0x0800'0108), 2u);
        EXPECT_GE(r.word(0x0800'0108), 1u);
        EXPECT_EQ(r.word(0x0800'0100), 0u); // gauge back to zero
    }
}

TEST(Runtimes, EventReleasesAllWaiters)
{
    auto app = appFromAsm("event", R"(
        main:
            call @rt_init
            movi r4, 0
        spawn:
            movi r0, waiter
            mov r1, r4
            call @shred_create
            addi r4, r4, 1
            cmpi r4, 3
            jcc.lt spawn
            compute 30000        ; let the waiters block
            movi r0, 0x8000000
            call @event_set
            call @join_all
            movi r0, 0
            call @exit_process
        waiter:
            movi r0, 0x8000000
            call @event_wait
            movi r4, 0x8000100
            movi r5, 1
            fetchadd r6, [r4], r5
            ret
    )");
    checkBothBackends(app, 0x0800'0100, 3);
}

TEST(Runtimes, YieldRotatesShredsOnOneSequencer)
{
    // 3 cooperating shreds on a 1-AMS machine append to a sequence via
    // yields; all must make progress interleaved.
    auto app = appFromAsm("yield", R"(
        main:
            call @rt_init
            movi r4, 0
        spawn:
            movi r0, worker
            mov r1, r4
            call @shred_create
            addi r4, r4, 1
            cmpi r4, 3
            jcc.lt spawn
            call @join_all
            movi r0, 0
            call @exit_process
        worker:
            movi r14, 0
        loop:
            movi r4, 0x8000000
            movi r5, 1
            fetchadd r6, [r4], r5
            call @yield
            addi r14, r14, 1
            cmpi r14, 10
            jcc.lt loop
            ret
    )");
    Ran r = runOn(rt::Backend::Shred, app, /*numAms=*/1);
    ASSERT_GT(r.ticks, 0u);
    EXPECT_EQ(r.word(0x0800'0000), 30u);
}

TEST(Runtimes, MallocReturnsUsableMemory)
{
    auto app = appFromAsm("malloc", R"(
        main:
            call @rt_init
            movi r0, 4096
            call @malloc
            mov r14, r0
            movi r5, 0xABCD
            st8 [r14], r5
            ld8 r6, [r14]
            movi r4, 0x8000000
            st8 [r4], r6
            movi r0, 0
            call @exit_process
    )");
    checkBothBackends(app, 0x0800'0000, 0xABCD);
}

TEST(Runtimes, CondVarSignalsWaiters)
{
    // One waiter blocks on a condvar; main signals it after setting the
    // predicate.
    auto app = appFromAsm("cond", R"(
        main:
            call @rt_init
            movi r0, waiter
            movi r1, 0
            call @shred_create
            compute 30000          ; let the waiter block
            movi r0, 0x8000000     ; mutex
            call @mutex_lock
            movi r4, 0x8000200     ; predicate
            movi r5, 1
            st8 [r4], r5
            movi r0, 0x8000100     ; cond
            movi r1, 0x8000000
            call @cond_signal
            movi r0, 0x8000000
            call @mutex_unlock
            call @join_all
            movi r0, 0
            call @exit_process
        waiter:
            movi r0, 0x8000000
            call @mutex_lock
        check:
            movi r4, 0x8000200
            ld8 r5, [r4]
            cmpi r5, 1
            jcc.eq ready
            movi r0, 0x8000100
            movi r1, 0x8000000
            call @cond_wait
            jmp check
        ready:
            movi r4, 0x8000300
            movi r5, 42
            st8 [r4], r5
            movi r0, 0x8000000
            call @mutex_unlock
            ret
    )");
    checkBothBackends(app, 0x0800'0300, 42);
}

TEST(Runtimes, MoreShredsThanSequencers)
{
    // M:N: 12 shreds on 1 OMS + 2 AMS must all complete.
    auto app = appFromAsm("oversubscribe", R"(
        main:
            call @rt_init
            movi r4, 0
        spawn:
            movi r0, worker
            mov r1, r4
            call @shred_create
            addi r4, r4, 1
            cmpi r4, 12
            jcc.lt spawn
            call @join_all
            movi r0, 0
            call @exit_process
        worker:
            compute 20000
            movi r4, 0x8000000
            movi r5, 1
            fetchadd r6, [r4], r5
            ret
    )");
    Ran r = runOn(rt::Backend::Shred, app, /*numAms=*/2);
    ASSERT_GT(r.ticks, 0u);
    EXPECT_EQ(r.word(0x0800'0000), 12u);
}
