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
 * launches; both exist so degraded sweeps stay queryable. Rows are added in submission (grid) order and iterate
 * deterministically, which is what lets every renderer stay
 * byte-identical across reruns and `--jobs N` fan-out.
 *
 * Everything downstream of harness::runOne reads results through a
 * frame: the `[report]` assert evaluator (including its aggregate and
 * cross-axis references), the JSON/table/points emitters, and the
 * `[table]` renderer behind every paper table. A new metric is
 * added here once and becomes visible to all of them at the same time;
 * hand-rolled walks over result vectors are the bug this layer
 * removes.
 *
 * Rows carry their sweep-coordinate *group*: all rows sharing one
 * coordinate combination (e.g. the 1p/misp/smp8 runs of one Figure-4
 * workload) form a group, the evaluation unit of per-point asserts and
 * the denominator of machine-relative metrics like speedup.
 *
 * Scale: axis keys/values and machine names are interned into
 * integer ids on addRow, and finalize() builds hashed coord-tuple
 * indexes over them, so every lookup (cross-axis selectors, group and
 * baseline resolution, findRow) costs O(1) id hashing instead of an
 * O(rows) string-compare walk. Row iteration and
 * group numbering stay in grid order, so the indexes change no emitted
 * byte. Lookups need a finalized frame; the linear walk the indexes
 * replaced lives on only as bench/ablation_frame_scale's baseline.
 */

#ifndef MISP_HARNESS_METRIC_FRAME_HH
#define MISP_HARNESS_METRIC_FRAME_HH

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "harness/run_record.hh"

namespace misp::harness {

class MetricFrame
{
  public:
    /** One sweep coordinate: (axis key, value), both as spelled in the
     *  spec (e.g. {"machine.signal_cycles", "5000"}). */
    using Coord = std::pair<std::string, std::string>;

    /** Row identity: where in the sweep this run sits. The measured
     *  numbers live in the columns, not here. */
    struct Row {
        std::string machine;
        std::string workload;
        unsigned competitors = 0;
        std::vector<Coord> coords;
        RunStatus status = RunStatus::MaxTicksReached;
        /** Full stats::StatGroup dump when the run captured one. */
        std::string statsJson;
        /** Coordinate-group index (valid after finalize()). */
        std::size_t group = 0;
    };

    static constexpr std::size_t npos = static_cast<std::size_t>(-1);

    MetricFrame();

    /** Append one grid point's measurements. Rows must be added in
     *  grid (submission) order; iteration order is insertion order. */
    void addRow(std::string machine, std::string workload,
                unsigned competitors, std::vector<Coord> coords,
                const RunRecord &run);

    /**
     * Compute the coordinate groups and, when @p baselineMachine is
     * non-empty, the derived `speedup` column (baseline ticks / row
     * ticks within the row's group; 0 when either run never
     * completed). Call once, after the last addRow().
     */
    void finalize(const std::string &baselineMachine = "");

    // Shape ------------------------------------------------------------

    std::size_t numRows() const { return rows_.size(); }
    std::size_t numGroups() const { return groups_.size(); }
    const Row &row(std::size_t r) const { return rows_[r]; }

    /** Column names, in emission order. */
    const std::vector<std::string> &metrics() const { return metrics_; }
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
    const std::vector<std::size_t> &groupRows(std::size_t g) const
    {
        return groups_[g];
    }

    /** The coordinates every row of group @p g shares. */
    const std::vector<Coord> &groupCoords(std::size_t g) const;

    /** "key=value key=value" rendering of groupCoords ("-" if none). */
    std::string groupLabel(std::size_t g) const;

    /** Row of @p machine inside group @p g; npos if absent. */
    std::size_t rowInGroup(std::size_t g,
                           const std::string &machine) const;

    /** True when any row of group @p g ended in an infrastructure
     *  failure — the unit graceful-degradation reporting skips. */
    bool groupHasFailure(std::size_t g) const;

    /**
     * Cross-axis lookup: the row of @p machine whose coordinates equal
     * group @p g's with @p overrides substituted (each override key
     * must name a coordinate of the group — the caller validates
     * that). npos when no row matches.
     */
    std::size_t rowWithOverrides(std::size_t g,
                                 const std::string &machine,
                                 const std::vector<Coord> &overrides)
        const;

    /**
     * The `[report] baseline_axis` baseline of row @p r: the first row
     * (grid order = first axis value) on the same machine whose
     * coordinates match on every axis except @p axis. npos if absent.
     */
    std::size_t axisBaselineRow(std::size_t r,
                                const std::string &axis) const;

    /** First row on @p machine whose coordinates contain every
     *  (key, value) pair of @p coords; npos if absent. */
    std::size_t findRow(const std::string &machine,
                        const std::vector<Coord> &coords) const;

    /** Distinct values of sweep axis @p key, in first-seen row order
     *  (the selector normalizer's input). nullptr when no row carries
     *  the axis. Available after finalize(). */
    const std::vector<std::string> *
    axisValues(const std::string &key) const;

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
    /** Interned symbol id (machine names, axis keys/values). */
    using Id = std::uint32_t;
    static constexpr Id kNoId = 0xffffffffu;

    struct RowKeys {
        Id machine = kNoId;
        /** (axis key id, value id) in the row's coord order. */
        std::vector<std::pair<Id, Id>> coords;
    };

    Id intern(const std::string &s);
    Id lookupId(const std::string &s) const;

    std::size_t metricIndex(const std::string &name) const;
    void internRow(const Row &row);
    void computeGroups();
    void buildIndexes();
    void buildAxisBaselineIndex(Id axisId) const;

    std::vector<std::string> metrics_;
    std::vector<std::vector<double>> columns_; ///< [metric][row]
    std::vector<Row> rows_;
    std::vector<std::vector<std::size_t>> groups_;
    bool finalized_ = false;

    // The interner and the hashed tuple indexes. Keys are the interned
    // ids packed into strings, so equal keys mean equal tuples (no
    // hash-collision conflation). Lookup-only: nothing ever iterates
    // these maps, so no hash order can leak into any artifact.
    std::unordered_map<std::string, Id> internIds_;
    std::vector<RowKeys> rowKeys_;           ///< [row]
    std::unordered_map<std::string, std::size_t> metricIds_;
    std::unordered_map<std::string, std::size_t> groupOfTuple_;
    std::unordered_map<std::string, std::size_t> rowOfMachineTuple_;
    std::unordered_map<std::string, std::size_t> rowOfSortedTuple_;
    std::vector<std::vector<std::size_t>> rowsOfMachine_; ///< [machine id]
    std::vector<std::pair<std::string, std::vector<std::string>>>
        axisValues_; ///< per axis, values in first-seen order

    /** Lazy `baseline_axis` index: packed (axis, machine, coords with
     *  the axis value masked) -> first matching row. Built once per
     *  axis on first use; mutable because axisBaselineRow is
     *  logically const (queries are single-threaded). */
    mutable std::unordered_map<std::string, std::size_t>
        axisBaseline_;
    mutable std::vector<Id> axisBaselineBuilt_;
};

} // namespace misp::harness

#endif // MISP_HARNESS_METRIC_FRAME_HH
