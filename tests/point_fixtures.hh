/**
 * @file
 * Test fixture: hand-made results on a spec's expanded grid.
 */

#ifndef MISP_TESTS_POINT_FIXTURES_HH
#define MISP_TESTS_POINT_FIXTURES_HH

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "driver/runner.hh"
#include "driver/scenario.hh"

namespace misp::test {

/** One unmeasured result per point of @p sc's expanded grid, in grid
 *  order: a test fills in the runs, and the coordinates are the ones
 *  the frame addresses (whole groups, machines innermost). */
inline std::vector<driver::PointResult>
gridResults(const driver::Scenario &sc, bool quick = false)
{
    std::vector<driver::ScenarioPoint> pts;
    std::string err;
    EXPECT_TRUE(sc.expandPoints(quick, &pts, &err)) << err;
    std::vector<driver::PointResult> results;
    for (const driver::ScenarioPoint &pt : pts)
        results.push_back(driver::unmeasuredResult(pt));
    return results;
}

/** The --full-stats side table of @p results: each point's dump, in
 *  order (what writeJson reads by frame row). */
inline std::vector<std::string>
statsOf(const std::vector<driver::PointResult> &results)
{
    std::vector<std::string> stats;
    for (const driver::PointResult &r : results)
        stats.push_back(r.run.statsJson);
    return stats;
}

} // namespace misp::test

#endif // MISP_TESTS_POINT_FIXTURES_HH
