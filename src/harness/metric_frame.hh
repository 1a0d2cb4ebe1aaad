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
 * Scale: axis keys/values, machine and workload names are interned
 * once into integer ids, and a row holds only ids, a status and its
 * place in the coordinate pool; the columns are reserved once from the
 * row count (reserve()). Hash indexes keyed on the rows' id tuples
 * (built by finalize(), or on first use for baseline_axis) make every
 * lookup (cross-axis selectors, group and baseline resolution,
 * findRow) cost O(1) id hashing instead of an O(rows) string-compare
 * walk. A frame holds about 490 B a row, 264 B of it the 33 columns
 * (1,269 B with string coordinates and string-keyed indexes). Row
 * iteration and group numbering stay in grid order, so the indexes
 * change no emitted byte. Lookups need a finalized frame; the linear walk the indexes
 * replaced lives on only as bench/ablation_frame_scale's baseline.
 */

#ifndef MISP_HARNESS_METRIC_FRAME_HH
#define MISP_HARNESS_METRIC_FRAME_HH

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "harness/run_record.hh"

namespace misp::harness {

class MetricFrame
{
  public:
    /** Interned symbol id: a machine or workload name, an axis key or
     *  an axis value. name() maps it back. */
    using Id = std::uint32_t;
    static constexpr Id kNoId = 0xffffffffu;

    /** One sweep coordinate as spelled in the spec (e.g.
     *  {"machine.signal_cycles", "5000"}): the query form. */
    using Coord = std::pair<std::string, std::string>;

    /** One stored sweep coordinate: (axis key id, value id). */
    struct CoordId {
        Id key = kNoId;
        Id value = kNoId;
        bool operator==(const CoordId &) const = default;
        auto operator<=>(const CoordId &) const = default;
    };

    /** Row identity: where in the sweep this run sits, as ids. The
     *  measured numbers live in the columns, the coordinates in the
     *  frame's coordinate pool (coords()). */
    struct Row {
        Id machine = kNoId;
        Id workload = kNoId;
        unsigned competitors = 0;
        RunStatus status = RunStatus::MaxTicksReached;
        /** Coordinate-group index (valid after finalize()). */
        std::uint32_t group = 0;
        std::uint32_t coordBegin = 0; ///< first entry in the pool
        std::uint32_t coordCount = 0;
    };

    static constexpr std::size_t npos = static_cast<std::size_t>(-1);

    MetricFrame();
    // The interner's names_ point into its own map: move, never copy.
    MetricFrame(const MetricFrame &) = delete;
    MetricFrame &operator=(const MetricFrame &) = delete;
    MetricFrame(MetricFrame &&) = default;
    MetricFrame &operator=(MetricFrame &&) = default;

    /** Size the row table and every column for @p rows rows, once. */
    void reserve(std::size_t rows);

    /** The id of @p s, interning it on first sight. */
    Id intern(const std::string &s);

    /** Append one grid point's measurements: ids from intern(), the
     *  coordinates in axis order. Rows must be added in grid
     *  (submission) order; iteration order is insertion order. */
    void addRow(Id machine, Id workload, unsigned competitors,
                const std::vector<CoordId> &coords, const RunRecord &run);

    /**
     * Compute the coordinate groups and, when @p baselineMachine is
     * non-empty, the derived `speedup` column (baseline ticks / row
     * ticks within the row's group; 0 when either run never
     * completed). Call once, after the last addRow().
     */
    void finalize(const std::string &baselineMachine = "");

    // Shape ------------------------------------------------------------

    std::size_t numRows() const { return rows_.size(); }
    std::size_t numGroups() const { return groupStart_.size() - 1; }
    const Row &row(std::size_t r) const { return rows_[r]; }

    /** The string an id stands for. */
    const std::string &name(Id id) const { return *names_[id]; }

    /** Row @p r's coordinates, in axis order. */
    std::span<const CoordId> coords(std::size_t r) const
    {
        return {coordPool_.data() + rows_[r].coordBegin,
                rows_[r].coordCount};
    }

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
    std::span<const std::uint32_t> groupRows(std::size_t g) const
    {
        return {groupRows_.data() + groupStart_[g],
                groupStart_[g + 1] - groupStart_[g]};
    }

    /** The coordinates every row of group @p g shares. */
    std::span<const CoordId> groupCoords(std::size_t g) const
    {
        return coords(groupRows(g).front());
    }

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
     * The first call for an axis builds that axis's index, so unlike
     * the other lookups this one must not run on two threads at once.
     */
    std::size_t axisBaselineRow(std::size_t r,
                                const std::string &axis) const;

    /** First row on @p machine whose coordinates contain every
     *  (key, value) pair of @p coords; npos if absent. A query naming
     *  every axis is one hash lookup, any other a scan of the
     *  machine's rows. */
    std::size_t findRow(const std::string &machine,
                        const std::vector<Coord> &coords) const;

    /** Distinct value ids of sweep axis @p key, in first-seen row
     *  order (the selector normalizer's input). nullptr when no row
     *  carries the axis. Available after finalize(). */
    const std::vector<Id> *axisValues(const std::string &key) const;

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
    /** Hash of an id tuple. */
    struct IdsHash {
        std::size_t operator()(const std::vector<Id> &ids) const;
    };
    /** An id tuple -> the first row (grid order) that has it. Keyed on
     *  the whole tuple, so equal keys are equal tuples. Lookup-only:
     *  nothing iterates it, so no hash order can leak into an
     *  artifact. */
    using TupleIndex = std::unordered_map<std::vector<Id>, std::uint32_t,
                                          IdsHash>;
    /** Which tuple of a row an index is keyed on. */
    enum class Tuple {
        Coords,        ///< coordinates in axis order (the group key)
        MachineCoords, ///< machine, then coordinates in axis order
        MachineSorted, ///< machine, then coordinates sorted by id
        AxisMasked,    ///< axis, machine, coordinates with its value masked
    };

    Id lookupId(const std::string &s) const;
    std::size_t metricIndex(const std::string &name) const;
    /** Row @p r's @p kind tuple: the one definition of every tuple's
     *  layout. */
    std::vector<Id> tupleOf(Tuple kind, Id axis, std::size_t r) const;
    TupleIndex buildIndex(Tuple kind, Id axis = kNoId) const;
    static std::size_t findIn(const TupleIndex &index,
                              const std::vector<Id> &key);
    void computeGroups();
    void buildIndexes();

    std::vector<std::string> metrics_;
    std::vector<std::vector<double>> columns_; ///< [metric][row]
    std::vector<Row> rows_;
    std::vector<CoordId> coordPool_; ///< every row's coordinates
    /** Rows by group (grid order within a group); group g's rows are
     *  groupRows_[groupStart_[g] .. groupStart_[g + 1]). */
    std::vector<std::uint32_t> groupRows_;
    std::vector<std::uint32_t> groupStart_{0};
    bool finalized_ = false;

    /** The interner: each string once, as a map key; names_[id]
     *  points at it (map nodes never move). */
    std::unordered_map<std::string, Id> internIds_;
    std::vector<const std::string *> names_;
    std::unordered_map<std::string, std::size_t> metricIds_;

    TupleIndex rowOfMachineTuple_;
    TupleIndex rowOfSortedTuple_; ///< findRow's full-tuple index
    std::vector<std::vector<std::uint32_t>> rowsOfMachine_; ///< [machine id]
    std::vector<std::pair<Id, std::vector<Id>>>
        axisValues_; ///< per axis, value ids in first-seen order

    /** One `baseline_axis` index per axis asked for, built on first
     *  use by axisBaselineRow (hence mutable). */
    mutable std::vector<std::pair<Id, TupleIndex>> axisBaseline_;
};

} // namespace misp::harness

#endif // MISP_HARNESS_METRIC_FRAME_HH
