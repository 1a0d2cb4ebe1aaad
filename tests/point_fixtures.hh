/**
 * @file
 * Test fixture: grid coordinates for a hand-made PointResult.
 */

#ifndef MISP_TESTS_POINT_FIXTURES_HH
#define MISP_TESTS_POINT_FIXTURES_HH

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "driver/scenario.hh"

namespace misp::test {

/** Coordinates of one point outside any expanded grid: a one-point
 *  GridTable holding exactly these names. */
inline driver::PointCoords
pointAt(const std::string &machine, const std::string &workload,
        const std::vector<std::pair<std::string, std::string>> &coords = {},
        unsigned competitors = 0)
{
    auto table = std::make_shared<driver::GridTable>();
    table->machines = {machine};
    table->workload = workload;
    table->competitors = competitors;
    for (const auto &[key, value] : coords)
        table->axes.push_back({key, {value}});
    return driver::PointCoords(table, 0, 0);
}

} // namespace misp::test

#endif // MISP_TESTS_POINT_FIXTURES_HH
