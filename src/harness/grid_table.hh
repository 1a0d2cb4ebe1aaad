/**
 * @file
 * GridTable: the coordinates of one expanded sweep grid, stored once.
 *
 * A grid is the Cartesian product of its sweep axes (the first varies
 * slowest) crossed with its machines (innermost). A point is therefore
 * a (combination, machine) pair, and a combination is an odometer over
 * the axes' value indices: digit(combo, a) is axis a's value index.
 * Points, their results and the sweep's MetricFrame all address the
 * grid this way and read names through one shared table; this file is
 * the one definition of the decode and of the `key=value` label.
 */

#ifndef MISP_HARNESS_GRID_TABLE_HH
#define MISP_HARNESS_GRID_TABLE_HH

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace misp::harness {

/** One sweep axis: a dotted key and its expanded value list. */
struct SweepAxis {
    std::string key;
    std::vector<std::string> values;
    int line = 0; ///< spec line, for expansion-time diagnostics
};

/** The coordinate tables of one expanded grid: every machine name,
 *  axis key and axis value, once. */
struct GridTable {
    static constexpr std::size_t npos = static_cast<std::size_t>(-1);

    std::vector<std::string> machines; ///< the innermost loop
    /** The swept axes after [quick] overrides and workload-selector
     *  expansion; the first varies slowest. Keys are distinct, and so
     *  are the values of one axis. */
    std::vector<SweepAxis> axes;
    std::string workload;     ///< the target when no axis names it
    unsigned competitors = 0; ///< when no axis sets it

    /** Number of coordinate combinations: the product of the axis
     *  sizes (1 with no axes). */
    std::size_t combos() const;

    /** Position of axis @p key; npos when it is not swept. */
    std::size_t axisOf(std::string_view key) const;
    /** Position of machine @p name; npos when absent. */
    std::size_t machineOf(std::string_view name) const;
    /** Position of @p value among axis @p a's values; npos if absent. */
    std::size_t valueOf(std::size_t a, std::string_view value) const;

    /** Axis @p a's value index in combination @p combo. */
    std::size_t digit(std::size_t combo, std::size_t a) const;
    /** @p combo with axis @p a's value index replaced by @p v. */
    std::size_t withDigit(std::size_t combo, std::size_t a,
                          std::size_t v) const;

    /** Axis @p a's value in combination @p combo. */
    const std::string &value(std::size_t combo, std::size_t a) const
    {
        return axes[a].values[digit(combo, a)];
    }
    /** The target workload of @p combo. */
    const std::string &workloadAt(std::size_t combo) const;
    /** The competitor count of @p combo. */
    unsigned competitorsAt(std::size_t combo) const;

    /** "key=value" per axis in axis order, joined by @p sep ("" when
     *  nothing is swept): "competitors=2 workload.name=gauss". */
    std::string label(std::size_t combo, char sep = ' ') const;

  private:
    /** Combinations per step of axis @p a's digit. */
    std::size_t stride(std::size_t a) const;
};

} // namespace misp::harness

#endif // MISP_HARNESS_GRID_TABLE_HH
