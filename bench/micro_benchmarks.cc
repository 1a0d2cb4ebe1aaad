/**
 * @file
 * Microbenchmarks (google-benchmark) for the simulator's primitives and
 * the architectural operations the paper's cost model is built on:
 * event-queue throughput, interpreter speed, SIGNAL round-trip latency
 * (in simulated cycles), shred create/dispatch, and uncontended
 * synchronization. These quantify both *simulator* performance (host
 * time) and *modeled* latencies (reported as counters).
 */

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "harness/bare_machine.hh"
#include "harness/experiment.hh"
#include "isa/assembler.hh"
#include "workloads/workload.hh"

using namespace misp;

// ---------------------------------------------------------------------
// Simulator primitives (host performance)
// ---------------------------------------------------------------------

static void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue eq;
        int sink = 0;
        for (int i = 0; i < 1000; ++i)
            eq.scheduleLambda(i, "e", [&sink] { ++sink; });
        eq.run();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleRun);

namespace {

/** The run-slice pattern: an intrusive event that books its own next
 *  occurrence from inside process(), as a sequencer's run event does
 *  at the end of every slice. */
class SelfRescheduling : public Event
{
  public:
    SelfRescheduling(EventQueue &eq, Tick period, int *left)
        : Event("slice", kPrioCpu), eq_(eq), period_(period), left_(left)
    {}

    ~SelfRescheduling() override
    {
        if (scheduled())
            eq_.deschedule(this);
    }

    void
    process() override
    {
        if (--*left_ > 0)
            eq_.schedule(this, eq_.curTick() + period_);
    }

  private:
    EventQueue &eq_;
    Tick period_;
    int *left_;
};

} // namespace

static void
BM_EventQueueSelfReschedule(benchmark::State &state)
{
    // 8 events with co-prime periods interleave, so each reschedule
    // lands somewhere inside the heap rather than always at its root.
    constexpr int kEvents = 8;
    constexpr int kOccurrences = 10000;
    for (auto _ : state) {
        EventQueue eq;
        int left = kOccurrences;
        std::vector<std::unique_ptr<SelfRescheduling>> evs;
        for (int i = 0; i < kEvents; ++i) {
            evs.push_back(std::make_unique<SelfRescheduling>(
                eq, 2400 + 7 * i, &left));
            eq.schedule(evs.back().get(), i);
        }
        eq.run();
        benchmark::DoNotOptimize(eq.numProcessed());
    }
    state.SetItemsProcessed(state.iterations() * (kOccurrences + kEvents - 1));
}
BENCHMARK(BM_EventQueueSelfReschedule);

static void
BM_AssembleSmallProgram(benchmark::State &state)
{
    const std::string src = R"(
        main:
            movi r1, 0
        loop:
            addi r1, r1, 1
            cmpi r1, 100
            jcc.lt loop
            halt
    )";
    for (auto _ : state) {
        isa::Program prog = isa::assemble(src, 0x40'0000);
        benchmark::DoNotOptimize(prog.insts.data());
    }
}
BENCHMARK(BM_AssembleSmallProgram);

static void
BM_InterpreterThroughput(benchmark::State &state)
{
    const std::string src = R"(
        main:
            movi r1, 0
        loop:
            addi r1, r1, 1
            muli r2, r1, 3
            xori r3, r2, 0x55
            cmpi r1, 100000
            jcc.lt loop
            halt
    )";
    std::uint64_t insts = 0;
    for (auto _ : state) {
        harness::BareMachine m(src);
        m.run();
        insts += m.seq.instsRetired();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(insts));
}
BENCHMARK(BM_InterpreterThroughput);

// ---------------------------------------------------------------------
// Modeled architectural latencies (simulated cycles, via counters)
// ---------------------------------------------------------------------

static void
BM_SignalRoundTripSimCycles(benchmark::State &state)
{
    // Measure the modeled SIGNAL->start latency on an idle AMS by
    // running a ping-pong between the OMS and one AMS.
    const std::string src = R"(
        main:
            rdtick r6
            movi r1, 1
            movi r2, pong
            movi r3, 0
            signal r1, r2, r3
        wait:
            movi r4, 0x8000000
            ld8 r5, [r4]
            cmpi r5, 1
            jcc.ne wait
            rdtick r7
            sub r0, r7, r6
            movi r4, 0x8000008
            st8 [r4], r0
            movi r0, 0
            syscall 2
        pong:
            movi r4, 0x8000000
            movi r5, 1
            st8 [r4], r5
            halt
    )";
    Tick simCycles = 0;
    for (auto _ : state) {
        harness::GuestApp app;
        app.name = "pingpong";
        app.program = isa::assemble(src, mem::kCodeBase);
        harness::DataRegion region;
        region.addr = 0x0800'0000;
        region.size = mem::kPageSize;
        app.data.push_back(region);

        arch::SystemConfig cfg = arch::SystemConfig::uniprocessor(1);
        cfg.kernel.deviceIrqMeanPeriod = 0;
        harness::Experiment exp(cfg, rt::Backend::Shred);
        auto proc = exp.load(app);
        exp.runToCompletion(proc.process, 1'000'000'000);
        simCycles +=
            proc.process->addressSpace().peekWord(0x0800'0008, 8);
    }
    state.counters["sim_cycles_roundtrip"] = benchmark::Counter(
        double(simCycles) / double(state.iterations()));
}
BENCHMARK(BM_SignalRoundTripSimCycles);

static void
BM_ShredCreateJoinSimCycles(benchmark::State &state)
{
    // Modeled cost of creating + joining N trivial shreds.
    const unsigned n = static_cast<unsigned>(state.range(0));
    Tick total = 0;
    for (auto _ : state) {
        wl::WorkloadParams params;
        params.workers = n;
        // A tiny raytracer run dominated by create/dispatch/join.
        wl::Workload w = wl::buildRaytracer(params);
        harness::Experiment exp(arch::SystemConfig::uniprocessor(7),
                                rt::Backend::Shred);
        auto proc = exp.load(w.app);
        total += exp.runToCompletion(proc.process).ticks;
    }
    state.counters["sim_cycles"] =
        benchmark::Counter(double(total) / double(state.iterations()));
}
BENCHMARK(BM_ShredCreateJoinSimCycles)->Arg(1)->Arg(7)->Unit(
    benchmark::kMillisecond);

static void
BM_WorkloadBuild(benchmark::State &state)
{
    // Host-side cost of generating a workload image (input synthesis,
    // code emission, reference computation).
    wl::WorkloadParams params;
    params.workers = 7;
    for (auto _ : state) {
        wl::Workload w = wl::buildDenseMvm(params);
        benchmark::DoNotOptimize(w.app.program.insts.data());
    }
}
BENCHMARK(BM_WorkloadBuild)->Unit(benchmark::kMillisecond);

static void
BM_FullMispRunDenseMvm(benchmark::State &state)
{
    // End-to-end simulator performance for one Figure-4 cell.
    setQuietLogging(true);
    wl::WorkloadParams params;
    params.workers = 7;
    for (auto _ : state) {
        wl::Workload w = wl::buildDenseMvm(params);
        harness::Experiment exp(arch::SystemConfig::uniprocessor(7),
                                rt::Backend::Shred);
        auto proc = exp.load(w.app);
        Tick t = exp.runToCompletion(proc.process).ticks;
        benchmark::DoNotOptimize(t);
    }
}
BENCHMARK(BM_FullMispRunDenseMvm)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
