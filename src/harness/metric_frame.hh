/**
 * @file
 * MetricFrame: the one queryable metrics store between the run layer
 * and every result consumer.
 *
 * A frame is a small columnar table built once per sweep: one row per
 * grid point (sweep coordinates x machine), one column per metric
 * (ticks, mcycles, insts, valid, completed, failed, attempts, speedup,
 * and the Table-1 event classes both raw and normalized per 10^6
 * retired instructions). `failed` is 1 on rows whose run ended in an
 * infrastructure failure (worker crash/timeout, snapshot error — see
 * runStatusIsInfraFailure), and `attempts` counts supervised --isolate
 * launches; both exist so degraded sweeps stay queryable. Rows iterate
 * in grid order, which is what lets every renderer stay byte-identical
 * across reruns and `--jobs N` fan-out.
 *
 * Everything downstream of harness::runOne reads results through a
 * frame: the `[report]` assert evaluator (including its aggregate and
 * cross-axis references), the JSON/table/points emitters, and the
 * `[table]` renderer behind every paper table. A new metric is
 * added here once and becomes visible to all of them at the same time;
 * hand-rolled walks over result vectors are the bug this layer
 * removes.
 *
 * The frame is a view over the grid it came from. Rows sharing one
 * coordinate combination (e.g. the 1p/misp/smp8 runs of one Figure-4
 * workload) form a *group*, the evaluation unit of per-point asserts
 * and the denominator of machine-relative metrics like speedup. The
 * frame holds the GridTable, the ascending list of combinations it has
 * rows for (every one in a sweep; a shard's whole groups j mod N), and
 * per row only what was measured: a status and 16 doubles (ticks,
 * insts, valid, attempts, the 12 events.*). Every other column is
 * computed from those in value(). Since machines are the grid's
 * innermost loop, row = group x machines + machine index, and every
 * lookup is arithmetic on the combination's odometer digits
 * (GridTable): no names are copied, nothing is indexed, and a const
 * frame is safe to query from any number of threads.
 */

#ifndef MISP_HARNESS_METRIC_FRAME_HH
#define MISP_HARNESS_METRIC_FRAME_HH

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <ranges>
#include <string>
#include <utility>
#include <vector>

#include "harness/grid_table.hh"
#include "harness/run_record.hh"

namespace misp::harness {

class MetricFrame
{
  public:
    /** One sweep coordinate as spelled in the spec (e.g.
     *  {"machine.signal_cycles", "5000"}): the query form. */
    using Coord = std::pair<std::string, std::string>;

    static constexpr std::size_t npos = static_cast<std::size_t>(-1);

    /** An empty frame: no rows, and every column but `speedup`. */
    MetricFrame() = default;

    /**
     * A frame over @p grid with one group per entry of @p combos
     * (ascending combination indices), each the grid's machines in
     * order. Every row exists from the start, and setRow() fills it in
     * when its point finishes, in any order. With @p baselineMachine
     * (a machine of the grid) the frame has the derived `speedup`
     * column: baseline ticks / row ticks within the row's group.
     */
    MetricFrame(std::shared_ptr<const GridTable> grid,
                std::vector<std::uint32_t> combos,
                const std::string &baselineMachine = "");

    /** Store row @p r's measurements. Writers of distinct rows may run
     *  on different threads. */
    void setRow(std::size_t r, const RunRecord &run);

    /** Row @p r's measurements as a record: status, ticks, retired
     *  instructions, valid, attempts and the Table-1 events, every
     *  other field at its default. A point that reuses row @p r's run
     *  takes this. */
    RunRecord record(std::size_t r) const;

    // Shape ------------------------------------------------------------

    std::size_t numRows() const { return status_.size(); }
    std::size_t numGroups() const { return combos_.size(); }

    /** The grid the rows come from; only on a non-empty frame. */
    const GridTable &grid() const { return *grid_; }
    /** Group @p g's coordinate combination. */
    std::size_t combo(std::size_t g) const { return combos_[g]; }
    std::size_t groupOf(std::size_t r) const { return r / machines(); }

    const std::string &machine(std::size_t r) const
    {
        return grid_->machines[r % machines()];
    }
    const std::string &workload(std::size_t r) const
    {
        return grid_->workloadAt(combos_[groupOf(r)]);
    }
    unsigned competitors(std::size_t r) const
    {
        return grid_->competitorsAt(combos_[groupOf(r)]);
    }
    /** Row @p r's value on axis @p a. */
    const std::string &coord(std::size_t r, std::size_t a) const
    {
        return grid_->value(combos_[groupOf(r)], a);
    }
    RunStatus status(std::size_t r) const { return status_[r]; }

    /** Column names, in emission order. */
    const std::vector<std::string> &metrics() const;
    bool hasMetric(const std::string &name) const;

    // Point lookups -----------------------------------------------------

    /** Value of @p metric at row @p r; false when no such column. */
    bool value(std::size_t r, const std::string &metric,
               double *out) const;

    /** Like value(), but fatal on an unknown metric — for renderers
     *  addressing the fixed column set. */
    double at(std::size_t r, const std::string &metric) const;

    /** Speedup of row @p r relative to row @p base: base ticks / row
     *  ticks, or 0 unless both runs completed (and row @p r took a
     *  tick). The `speedup` column and the table renderers'
     *  axis-relative columns both use this, so the completion rule
     *  lives in one place. */
    double speedupOf(std::size_t r, std::size_t base) const;

    // Group queries ------------------------------------------------------

    /** Rows of coordinate group @p g, in grid order. */
    std::ranges::iota_view<std::size_t, std::size_t>
    groupRows(std::size_t g) const
    {
        return {g * machines(), (g + 1) * machines()};
    }

    /** "key=value key=value" rendering of group @p g's coordinates,
     *  joined by @p sep ("-" if none). */
    std::string groupLabel(std::size_t g, char sep = ' ') const;

    /** Row of @p machine inside group @p g; npos if absent. */
    std::size_t rowInGroup(std::size_t g,
                           const std::string &machine) const;

    /** True when any row of group @p g ended in an infrastructure
     *  failure — the unit graceful-degradation reporting skips. */
    bool groupHasFailure(std::size_t g) const;

    /**
     * Cross-axis lookup: the row of @p machine whose coordinates equal
     * group @p g's with @p overrides substituted (an override whose
     * key is no axis substitutes nothing). npos when a value is not
     * on its axis or the frame has no rows at that combination.
     */
    std::size_t rowWithOverrides(std::size_t g,
                                 const std::string &machine,
                                 const std::vector<Coord> &overrides)
        const;

    /**
     * The `[report] baseline_axis` baseline of row @p r: the row on
     * the same machine whose coordinates match on every axis except
     * @p axis, which is at its first value. npos when the frame has no
     * rows at that combination (a shard holding only some groups);
     * row @p r itself when @p axis is not swept.
     */
    std::size_t axisBaselineRow(std::size_t r,
                                const std::string &axis) const;

    /** The values of sweep axis @p key, in axis order (the selector
     *  normalizer's input). nullptr when the axis is not swept. */
    const std::vector<std::string> *axisValues(const std::string &key) const;

    /**
     * The full frame as deterministic JSON (the `mispsim --metrics`
     * CI artifact): column list plus one object per row with its
     * coordinates, status, and every column value. Integral values
     * print as integers, the rest with 9 significant digits; no host
     * timing is included, so reruns are byte-identical. Streams row
     * by row — nothing larger than one value is materialized.
     */
    void writeJson(std::ostream &os) const;

  private:
    std::size_t machines() const
    {
        return grid_ ? grid_->machines.size() : 0;
    }
    /** Column @p m (an index into metrics()) at row @p r. */
    double column(std::size_t r, std::size_t m) const;
    /** The group holding combination @p combo; npos when none does. */
    std::size_t groupOfCombo(std::size_t combo) const;

    std::shared_ptr<const GridTable> grid_;
    std::vector<std::uint32_t> combos_; ///< [group], ascending
    /** Machine index of the `speedup` baseline; npos = no column. */
    std::size_t baseline_ = npos;
    std::vector<RunStatus> status_; ///< [row]
    std::vector<double> measured_;  ///< [row][kMeasured], row-major
};

} // namespace misp::harness

#endif // MISP_HARNESS_METRIC_FRAME_HH
