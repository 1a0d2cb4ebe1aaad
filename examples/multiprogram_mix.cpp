/**
 * @file
 * Multiprogramming scenario (§5.4 / Figure 7): a multi-shredded
 * application sharing a MISP MP system with single-threaded processes.
 *
 *   $ ./build/examples/multiprogram_mix
 *
 * Shows why the AMS:OMS ratio matters: on 1x8, a competing process
 * starves the AMSs (they are only usable while the shredded thread
 * holds the one OMS); on 1x4+4 with ideal placement, the competing
 * work lands on AMS-less processors and the shredded app keeps its
 * throughput.
 */

#include <cstdio>

#include "harness/experiment.hh"
#include "workloads/workload.hh"

using namespace misp;

namespace {

struct Outcome {
    Tick ticks;
    double amsUtil;
};

Outcome
runMix(const std::vector<unsigned> &amsPerProc, bool idealPlacement,
       unsigned competitors)
{
    wl::WorkloadParams params;
    params.workers = 7;
    wl::Workload w = wl::buildKmeans(params);

    arch::SystemConfig config = arch::SystemConfig::mp(amsPerProc);
    config.kernel.idealPlacement = idealPlacement;
    harness::Experiment exp(config, rt::Backend::Shred);
    std::vector<int> shredCpus, plainCpus;
    for (unsigned i = 0; i < exp.system().numProcessors(); ++i) {
        if (exp.system().processor(i).numAms() > 0)
            shredCpus.push_back(exp.system().processor(i).cpuId());
        else
            plainCpus.push_back(exp.system().processor(i).cpuId());
    }
    auto proc = exp.load(w.app, shredCpus);
    wl::WorkloadParams sp;
    for (unsigned c = 0; c < competitors; ++c)
        exp.load(wl::buildSpinner(sp).app).mainThread->placement = plainCpus;

    Outcome out;
    out.ticks = exp.runToCompletion(proc.process, 2'000'000'000'000ull).ticks;
    arch::MispProcessor &mp = exp.system().processor(0);
    double busy = 0;
    for (unsigned i = 0; i < mp.numAms(); ++i)
        busy += double(mp.amsAt(i).busyCycles());
    out.amsUtil = out.ticks
                      ? busy / (double(out.ticks) * mp.numAms())
                      : 0.0;
    if (w.validate && !w.validate(proc.process->addressSpace()))
        std::fprintf(stderr, "multiprogram_mix: bad result!\n");
    return out;
}

} // namespace

int
main()
{
    setQuietLogging(true);
    std::printf("kmeans (7 shreds) + competing single-threaded "
                "processes\n\n");
    std::printf("%-34s %12s %10s\n", "configuration", "cycles(M)",
                "AMS util");

    Outcome solo = runMix({7}, false, 0);
    std::printf("%-34s %12.1f %9.0f%%\n", "1x8, unloaded", solo.ticks / 1e6,
                solo.amsUtil * 100);

    Outcome shared = runMix({7}, false, 1);
    std::printf("%-34s %12.1f %9.0f%%   <- OMS shared, AMSs idle half "
                "the time\n",
                "1x8, +1 competitor", shared.ticks / 1e6,
                shared.amsUtil * 100);

    Outcome ideal = runMix({3, 0, 0, 0, 0}, true, 4);
    std::printf("%-34s %12.1f %9.0f%%   <- competitors on AMS-less "
                "CPUs\n",
                "1x4+4 ideal placement, +4", ideal.ticks / 1e6,
                ideal.amsUtil * 100);
    return 0;
}
