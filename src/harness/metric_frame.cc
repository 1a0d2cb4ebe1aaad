#include "metric_frame.hh"

#include <algorithm>
#include <ostream>
#include <unordered_set>

#include "sim/logging.hh"
#include "sim/stats.hh"

namespace misp::harness {

namespace {

/** Append one interned id to a packed tuple key (4 bytes, fixed
 *  width, so distinct id sequences always pack to distinct keys —
 *  tuple equality is string equality, never a hash accident). */
void
packId(std::string &key, std::uint32_t id)
{
    key.push_back(char(id & 0xff));
    key.push_back(char((id >> 8) & 0xff));
    key.push_back(char((id >> 16) & 0xff));
    key.push_back(char((id >> 24) & 0xff));
}

void
packPairs(std::string &key,
          const std::vector<std::pair<std::uint32_t, std::uint32_t>> &ps)
{
    for (const auto &p : ps) {
        packId(key, p.first);
        packId(key, p.second);
    }
}

} // namespace

MetricFrame::MetricFrame()
{
    metrics_ = {"ticks",     "mcycles", "insts",   "valid",
                "completed", "failed",  "attempts"};
    for (const EventField &f : eventFields())
        metrics_.push_back(std::string("events.") + f.name);
    for (const EventField &f : eventFields())
        metrics_.push_back(std::string("events_per_mi.") + f.name);
    columns_.resize(metrics_.size());
    for (std::size_t m = 0; m < metrics_.size(); ++m)
        metricIds_.emplace(metrics_[m], m);
}

MetricFrame::Id
MetricFrame::intern(const std::string &s)
{
    auto [it, fresh] =
        internIds_.emplace(s, static_cast<Id>(internIds_.size()));
    (void)fresh;
    return it->second;
}

MetricFrame::Id
MetricFrame::lookupId(const std::string &s) const
{
    auto it = internIds_.find(s);
    return it == internIds_.end() ? kNoId : it->second;
}

void
MetricFrame::internRow(const Row &row)
{
    RowKeys keys;
    keys.machine = intern(row.machine);
    keys.coords.reserve(row.coords.size());
    for (const Coord &c : row.coords)
        keys.coords.emplace_back(intern(c.first), intern(c.second));
    rowKeys_.push_back(std::move(keys));
}

void
MetricFrame::addRow(std::string machine, std::string workload,
                    unsigned competitors, std::vector<Coord> coords,
                    const RunRecord &run)
{
    if (finalized_)
        fatal("MetricFrame: addRow() after finalize()");
    Row row;
    row.machine = std::move(machine);
    row.workload = std::move(workload);
    row.competitors = competitors;
    row.coords = std::move(coords);
    row.status = run.status;
    row.statsJson = run.statsJson;
    rows_.push_back(std::move(row));
    internRow(rows_.back());

    std::size_t c = 0;
    columns_[c++].push_back(double(run.ticks));
    columns_[c++].push_back(run.megaCycles());
    columns_[c++].push_back(double(run.instsRetired));
    columns_[c++].push_back(run.valid ? 1.0 : 0.0);
    columns_[c++].push_back(run.completed() ? 1.0 : 0.0);
    columns_[c++].push_back(runStatusIsInfraFailure(run.status) ? 1.0
                                                                : 0.0);
    columns_[c++].push_back(double(run.attempts));
    for (const EventField &f : eventFields())
        columns_[c++].push_back(f.get(run.events));
    for (const EventField &f : eventFields())
        columns_[c++].push_back(run.perMegaInsts(f.get(run.events)));
}

void
MetricFrame::computeGroups()
{
    // Group rows by coordinate combination, preserving first-seen
    // order (the grid expands machines fastest, so a group is the
    // machine list at one sweep coordinate). The hashed tuple index
    // assigns group numbers in exactly the order the old pairwise
    // coordinate comparison did, so group numbering — and every
    // artifact carrying it — is unchanged.
    for (std::size_t r = 0; r < rows_.size(); ++r) {
        std::string key;
        key.reserve(rowKeys_[r].coords.size() * 8);
        packPairs(key, rowKeys_[r].coords);
        auto [it, fresh] =
            groupOfTuple_.emplace(std::move(key), groups_.size());
        if (fresh)
            groups_.emplace_back();
        rows_[r].group = it->second;
        groups_[it->second].push_back(r);
    }
}

void
MetricFrame::buildIndexes()
{
    // All emplace-first: the first row owning a tuple wins, matching
    // the "first match in grid order" contract of the linear walks.
    std::unordered_map<Id, std::size_t> axisSlot;
    std::unordered_set<std::uint64_t> axisValueSeen;
    for (std::size_t r = 0; r < rows_.size(); ++r) {
        const RowKeys &keys = rowKeys_[r];

        std::string tuple;
        tuple.reserve(keys.coords.size() * 8 + 4);
        packId(tuple, keys.machine);
        packPairs(tuple, keys.coords);
        rowOfMachineTuple_.emplace(tuple, r);

        std::vector<std::pair<Id, Id>> sorted = keys.coords;
        std::sort(sorted.begin(), sorted.end());
        std::string sortedKey;
        sortedKey.reserve(sorted.size() * 8 + 4);
        packId(sortedKey, keys.machine);
        packPairs(sortedKey, sorted);
        rowOfSortedTuple_.emplace(std::move(sortedKey), r);

        if (keys.machine >= rowsOfMachine_.size())
            rowsOfMachine_.resize(keys.machine + 1);
        rowsOfMachine_[keys.machine].push_back(r);

        for (std::size_t c = 0; c < keys.coords.size(); ++c) {
            const Id k = keys.coords[c].first;
            const Id v = keys.coords[c].second;
            auto [slot, freshAxis] =
                axisSlot.emplace(k, axisValues_.size());
            if (freshAxis)
                axisValues_.emplace_back(rows_[r].coords[c].first,
                                         std::vector<std::string>{});
            const std::uint64_t kv =
                (std::uint64_t(k) << 32) | std::uint64_t(v);
            if (axisValueSeen.insert(kv).second)
                axisValues_[slot->second].second.push_back(
                    rows_[r].coords[c].second);
        }
    }
}

void
MetricFrame::finalize(const std::string &baselineMachine)
{
    if (finalized_)
        fatal("MetricFrame: finalize() called twice");
    finalized_ = true;
    computeGroups();
    buildIndexes();

    if (baselineMachine.empty())
        return;

    // Derived column: speedup over the baseline machine of the same
    // coordinate group (baseline row resolved once per group, not
    // once per row).
    metrics_.push_back("speedup");
    metricIds_.emplace("speedup", metrics_.size() - 1);
    std::vector<std::size_t> baseOfGroup(groups_.size());
    for (std::size_t g = 0; g < groups_.size(); ++g)
        baseOfGroup[g] = rowInGroup(g, baselineMachine);
    std::vector<double> &speedup = columns_.emplace_back();
    for (std::size_t r = 0; r < rows_.size(); ++r) {
        std::size_t base = baseOfGroup[rows_[r].group];
        speedup.push_back(base != npos ? speedupOf(r, base) : 0.0);
    }
}

bool
MetricFrame::loadRows(const std::vector<std::string> &metrics,
                      std::vector<RawRow> raws, std::string *err)
{
    if (finalized_ || !rows_.empty()) {
        if (err)
            *err = "loadRows: frame is not freshly constructed";
        return false;
    }
    metrics_ = metrics;
    columns_.assign(metrics_.size(), {});
    metricIds_.clear();
    for (std::size_t m = 0; m < metrics_.size(); ++m)
        metricIds_.emplace(metrics_[m], m);
    for (std::size_t i = 0; i < raws.size(); ++i) {
        RawRow &raw = raws[i];
        if (raw.values.size() != metrics_.size()) {
            if (err)
                *err = "loadRows: row " + std::to_string(i) +
                       " carries " + std::to_string(raw.values.size()) +
                       " values for " +
                       std::to_string(metrics_.size()) + " metrics";
            return false;
        }
        rows_.push_back(std::move(raw.row));
        internRow(rows_.back());
        for (std::size_t m = 0; m < metrics_.size(); ++m)
            columns_[m].push_back(raw.values[m]);
    }
    finalized_ = true;
    computeGroups();
    buildIndexes();
    return true;
}

double
MetricFrame::speedupOf(std::size_t r, std::size_t base) const
{
    const std::vector<double> &ticks = columns_[0];
    const std::vector<double> &completed = columns_[4];
    if (completed[r] == 0.0 || completed[base] == 0.0 ||
        ticks[r] == 0.0)
        return 0.0;
    return ticks[base] / ticks[r];
}

bool
MetricFrame::hasMetric(const std::string &name) const
{
    return metricIndex(name) != npos;
}

std::size_t
MetricFrame::metricIndex(const std::string &name) const
{
    auto it = metricIds_.find(name);
    return it == metricIds_.end() ? npos : it->second;
}

bool
MetricFrame::value(std::size_t r, const std::string &metric,
                   double *out) const
{
    std::size_t m = metricIndex(metric);
    if (m == npos)
        return false;
    *out = columns_[m][r];
    return true;
}

double
MetricFrame::at(std::size_t r, const std::string &metric) const
{
    double v = 0;
    if (!value(r, metric, &v))
        fatal("MetricFrame: no metric '%s'", metric.c_str());
    return v;
}

const std::vector<MetricFrame::Coord> &
MetricFrame::groupCoords(std::size_t g) const
{
    return rows_[groups_[g].front()].coords;
}

std::string
MetricFrame::groupLabel(std::size_t g) const
{
    std::string out;
    for (const Coord &c : groupCoords(g)) {
        if (!out.empty())
            out += " ";
        out += c.first + "=" + c.second;
    }
    return out.empty() ? "-" : out;
}

std::size_t
MetricFrame::rowInGroup(std::size_t g, const std::string &machine) const
{
    const Id m = lookupId(machine);
    if (m == kNoId)
        return npos;
    for (std::size_t r : groups_[g]) {
        if (rowKeys_[r].machine == m)
            return r;
    }
    return npos;
}

bool
MetricFrame::groupHasFailure(std::size_t g) const
{
    for (std::size_t r : groups_[g]) {
        if (runStatusIsInfraFailure(rows_[r].status))
            return true;
    }
    return false;
}

std::size_t
MetricFrame::rowWithOverrides(std::size_t g, const std::string &machine,
                              const std::vector<Coord> &overrides) const
{
    const Id m = lookupId(machine);
    if (m == kNoId)
        return npos;
    std::vector<std::pair<Id, Id>> want =
        rowKeys_[groups_[g].front()].coords;
    for (const Coord &o : overrides) {
        const Id k = lookupId(o.first);
        if (k == kNoId)
            continue; // key unseen anywhere: substitutes nothing
        const Id v = lookupId(o.second);
        bool present = false;
        for (auto &c : want) {
            if (c.first == k) {
                present = true;
                c.second = v;
            }
        }
        // A value string no row carries can never match.
        if (present && v == kNoId)
            return npos;
    }
    std::string key;
    key.reserve(want.size() * 8 + 4);
    packId(key, m);
    packPairs(key, want);
    auto it = rowOfMachineTuple_.find(key);
    return it == rowOfMachineTuple_.end() ? npos : it->second;
}

void
MetricFrame::buildAxisBaselineIndex(Id axisId) const
{
    for (std::size_t r = 0; r < rows_.size(); ++r) {
        const RowKeys &keys = rowKeys_[r];
        std::string key;
        key.reserve(keys.coords.size() * 8 + 8);
        packId(key, axisId);
        packId(key, keys.machine);
        for (const auto &c : keys.coords) {
            packId(key, c.first);
            packId(key, c.first == axisId ? kNoId : c.second);
        }
        axisBaseline_.emplace(std::move(key), r);
    }
    axisBaselineBuilt_.push_back(axisId);
}

std::size_t
MetricFrame::axisBaselineRow(std::size_t r,
                             const std::string &axis) const
{
    const RowKeys &keys = rowKeys_[r];
    const Id axisId = lookupId(axis);
    if (axisId == kNoId) {
        // No row carries the axis, so the baseline is simply the
        // first row with this row's machine and exact coordinates.
        std::string key;
        key.reserve(keys.coords.size() * 8 + 4);
        packId(key, keys.machine);
        packPairs(key, keys.coords);
        auto it = rowOfMachineTuple_.find(key);
        return it == rowOfMachineTuple_.end() ? npos : it->second;
    }
    if (std::find(axisBaselineBuilt_.begin(), axisBaselineBuilt_.end(),
                  axisId) == axisBaselineBuilt_.end())
        buildAxisBaselineIndex(axisId);
    std::string key;
    key.reserve(keys.coords.size() * 8 + 8);
    packId(key, axisId);
    packId(key, keys.machine);
    for (const auto &c : keys.coords) {
        packId(key, c.first);
        packId(key, c.first == axisId ? kNoId : c.second);
    }
    auto it = axisBaseline_.find(key);
    return it == axisBaseline_.end() ? npos : it->second;
}

std::size_t
MetricFrame::findRow(const std::string &machine,
                     const std::vector<Coord> &coords) const
{
    const Id m = lookupId(machine);
    if (m == kNoId || m >= rowsOfMachine_.size() ||
        rowsOfMachine_[m].empty())
        return npos;
    std::vector<std::pair<Id, Id>> want;
    want.reserve(coords.size());
    for (const Coord &c : coords) {
        const Id k = lookupId(c.first);
        const Id v = lookupId(c.second);
        if (k == kNoId || v == kNoId)
            return npos; // an unseen key or value matches no row
        want.emplace_back(k, v);
    }
    const std::vector<std::size_t> &mine = rowsOfMachine_[m];
    // Full-tuple fast path: a query naming every axis is an exact
    // sorted-tuple hash hit. A miss (or a partial query) falls back to
    // a containment scan over this machine's rows — id comparisons
    // only, never strings.
    if (want.size() == rowKeys_[mine.front()].coords.size()) {
        std::vector<std::pair<Id, Id>> sorted = want;
        std::sort(sorted.begin(), sorted.end());
        std::string key;
        key.reserve(sorted.size() * 8 + 4);
        packId(key, m);
        packPairs(key, sorted);
        auto it = rowOfSortedTuple_.find(key);
        if (it != rowOfSortedTuple_.end())
            return it->second;
    }
    for (std::size_t r : mine) {
        bool match = true;
        for (const auto &w : want) {
            bool found = false;
            for (const auto &have : rowKeys_[r].coords)
                found = found || have == w;
            match = match && found;
        }
        if (match)
            return r;
    }
    return npos;
}

const std::vector<std::string> *
MetricFrame::axisValues(const std::string &key) const
{
    for (const auto &axis : axisValues_) {
        if (axis.first == key)
            return &axis.second;
    }
    return nullptr;
}

void
MetricFrame::writeJson(std::ostream &os) const
{
    using stats::writeJsonNumber;
    using stats::writeJsonQuoted;
    os << "{\n";
    os << "  \"rows\": " << rows_.size() << ",\n";
    os << "  \"groups\": " << groups_.size() << ",\n";
    os << "  \"metrics\": [";
    for (std::size_t m = 0; m < metrics_.size(); ++m) {
        os << (m ? ", " : "");
        writeJsonQuoted(os, metrics_[m]);
    }
    os << "],\n";
    os << "  \"points\": [";
    for (std::size_t r = 0; r < rows_.size(); ++r) {
        const Row &row = rows_[r];
        os << (r ? ",\n" : "\n");
        os << "    {\n";
        os << "      \"machine\": ";
        writeJsonQuoted(os, row.machine);
        os << ",\n";
        os << "      \"workload\": ";
        writeJsonQuoted(os, row.workload);
        os << ",\n";
        os << "      \"competitors\": " << row.competitors << ",\n";
        os << "      \"coords\": {";
        for (std::size_t c = 0; c < row.coords.size(); ++c) {
            os << (c ? ", " : "");
            writeJsonQuoted(os, row.coords[c].first);
            os << ": ";
            writeJsonQuoted(os, row.coords[c].second);
        }
        os << "},\n";
        os << "      \"group\": " << row.group << ",\n";
        os << "      \"status\": ";
        writeJsonQuoted(os, runStatusName(row.status));
        os << ",\n";
        os << "      \"values\": {";
        for (std::size_t m = 0; m < metrics_.size(); ++m) {
            os << (m ? ", " : "");
            writeJsonQuoted(os, metrics_[m]);
            os << ": ";
            writeJsonNumber(os, columns_[m][r]);
        }
        os << "}\n";
        os << "    }";
    }
    os << "\n  ]\n}\n";
}

} // namespace misp::harness
