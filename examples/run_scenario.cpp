/**
 * @file
 * Driving the scenario subsystem from C++ instead of a `.scn` file.
 *
 * The `mispsim` CLI is a thin shell around this exact sequence: parse
 * a spec, type it into a Scenario, expand the sweep grid, run it, and
 * render the results. Embedding the spec as a string is handy for
 * programmatic experiments and for tests.
 *
 *   $ ./build/run_scenario
 */

#include <iostream>

#include "driver/runner.hh"
#include "sim/logging.hh"

using namespace misp;
using namespace misp::driver;

int
main()
{
    setQuietLogging(true);

    // A two-axis grid: AMS count x workload, 1 OMS each time.
    const std::string spec = R"(
        [scenario]
        name = ams_scaling
        title = dense_mvm and gauss vs AMS count

        [machine misp]
        ams = 1                     ; overridden by the sweep
        backend = shred

        [workload]
        name = dense_mvm
        workers = 7

        [sweep]
        machine.ams = 1, 3, 7
        workload.name = dense_mvm, gauss
    )";

    SpecFile file;
    Scenario sc;
    std::vector<ScenarioPoint> grid;
    std::string err;
    if (!SpecFile::parse(spec, "<embedded>", &file, &err) ||
        !Scenario::fromSpec(file, &sc, &err) ||
        !sc.expandPoints(/*quickMode=*/false, &grid, &err)) {
        std::cerr << "run_scenario: " << err << "\n";
        return 1;
    }

    ScenarioRunner::Options opts;
    opts.hostLines = false;
    std::vector<PointResult> results =
        ScenarioRunner(opts).runAll(sc, grid, &std::cerr);

    writeTable(std::cout, sc, buildMetricFrame(sc, results),
               /*markdown=*/false);

    // Results are plain structs: each point carries the coordinates
    // plus the harness::RunRecord its run measured.
    for (const PointResult &r : results) {
        if (r.coords.workload() != "dense_mvm")
            continue;
        for (std::size_t i = 0; i < r.coords.size(); ++i) {
            if (r.coords.key(i) == "machine.ams" &&
                r.coords.value(i) == "7") {
                std::cout << "\ndense_mvm on 1 OMS + 7 AMS: "
                          << r.run.megaCycles() << " Mcycles, "
                          << std::uint64_t(r.run.events[
                                 harness::EventCounter::Serializations])
                          << " serializations\n";
            }
        }
    }
    return 0;
}
