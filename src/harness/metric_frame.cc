#include "metric_frame.hh"

#include <algorithm>
#include <ostream>
#include <unordered_set>

#include "sim/logging.hh"
#include "sim/stats.hh"

namespace misp::harness {

namespace {

/** The columns read straight off a RunRecord, ahead of the counter
 *  table's events.* and events_per_mi.* columns: name and value side
 *  by side, so the two cannot drift out of order. */
struct BaseColumn {
    const char *name;
    double (*value)(const RunRecord &);
};

constexpr BaseColumn kBaseColumns[] = {
    {"ticks", [](const RunRecord &r) { return double(r.ticks); }},
    {"mcycles", [](const RunRecord &r) { return r.megaCycles(); }},
    {"insts", [](const RunRecord &r) { return double(r.instsRetired); }},
    {"valid", [](const RunRecord &r) { return r.valid ? 1.0 : 0.0; }},
    {"completed",
     [](const RunRecord &r) { return r.completed() ? 1.0 : 0.0; }},
    {"failed",
     [](const RunRecord &r) {
         return runStatusIsInfraFailure(r.status) ? 1.0 : 0.0;
     }},
    {"attempts", [](const RunRecord &r) { return double(r.attempts); }},
};

} // namespace

MetricFrame::MetricFrame()
{
    for (const BaseColumn &b : kBaseColumns)
        metrics_.push_back(b.name);
    for (const EventCounterInfo &c : kEventCounters)
        metrics_.push_back(std::string("events.") + c.name);
    for (const EventCounterInfo &c : kEventCounters)
        metrics_.push_back(std::string("events_per_mi.") + c.name);
    columns_.resize(metrics_.size());
    for (std::size_t m = 0; m < metrics_.size(); ++m)
        metricIds_.emplace(metrics_[m], m);
}

void
MetricFrame::reserve(std::size_t rows)
{
    rows_.reserve(rows);
    for (std::vector<double> &column : columns_)
        column.reserve(rows);
}

MetricFrame::Id
MetricFrame::intern(const std::string &s)
{
    auto [it, fresh] = internIds_.emplace(s, static_cast<Id>(names_.size()));
    if (fresh)
        names_.push_back(&it->first);
    return it->second;
}

MetricFrame::Id
MetricFrame::lookupId(const std::string &s) const
{
    auto it = internIds_.find(s);
    return it == internIds_.end() ? kNoId : it->second;
}

void
MetricFrame::addRow(Id machine, Id workload, unsigned competitors,
                    const std::vector<CoordId> &coords, const RunRecord &run)
{
    if (finalized_)
        fatal("MetricFrame: addRow() after finalize()");
    // Grid rows all carry the same axes: the first row sizes the pool.
    if (coordPool_.empty())
        coordPool_.reserve(rows_.capacity() * coords.size());
    Row row;
    row.machine = machine;
    row.workload = workload;
    row.competitors = competitors;
    row.status = run.status;
    row.coordBegin = static_cast<std::uint32_t>(coordPool_.size());
    row.coordCount = static_cast<std::uint32_t>(coords.size());
    coordPool_.insert(coordPool_.end(), coords.begin(), coords.end());
    rows_.push_back(row);

    std::size_t c = 0;
    for (const BaseColumn &b : kBaseColumns)
        columns_[c++].push_back(b.value(run));
    for (double v : run.events)
        columns_[c++].push_back(v);
    for (double v : run.events)
        columns_[c++].push_back(run.perMegaInsts(v));
}

std::size_t
MetricFrame::IdsHash::operator()(const std::vector<Id> &ids) const
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (Id id : ids) {
        h = (h ^ id) * 0x9e3779b97f4a7c15ull;
        h ^= h >> 32;
    }
    return static_cast<std::size_t>(h);
}

std::vector<MetricFrame::Id>
MetricFrame::tupleOf(Tuple kind, Id axis, std::size_t r) const
{
    std::span<const CoordId> cs = coords(r);
    std::vector<CoordId> sorted;
    if (kind == Tuple::MachineSorted) {
        sorted.assign(cs.begin(), cs.end());
        std::sort(sorted.begin(), sorted.end());
        cs = sorted;
    }
    std::vector<Id> ids;
    ids.reserve(2 * cs.size() + (kind == Tuple::AxisMasked) +
                (kind != Tuple::Coords));
    if (kind == Tuple::AxisMasked)
        ids.push_back(axis);
    if (kind != Tuple::Coords)
        ids.push_back(rows_[r].machine);
    for (const CoordId &c : cs) {
        ids.push_back(c.key);
        ids.push_back(kind == Tuple::AxisMasked && c.key == axis ? kNoId
                                                                 : c.value);
    }
    return ids;
}

MetricFrame::TupleIndex
MetricFrame::buildIndex(Tuple kind, Id axis) const
{
    TupleIndex index;
    index.reserve(rows_.size());
    // emplace keeps the first row owning a tuple, matching the "first
    // match in grid order" contract of the linear walks.
    for (std::size_t r = 0; r < rows_.size(); ++r)
        index.emplace(tupleOf(kind, axis, r), static_cast<std::uint32_t>(r));
    return index;
}

std::size_t
MetricFrame::findIn(const TupleIndex &index, const std::vector<Id> &key)
{
    auto it = index.find(key);
    return it == index.end() ? npos : it->second;
}

void
MetricFrame::computeGroups()
{
    // Group rows by coordinate combination, preserving first-seen
    // order (the grid expands machines fastest, so a group is the
    // machine list at one sweep coordinate). The tuple -> group map is
    // only needed here.
    std::uint32_t groups = 0;
    {
        TupleIndex groupOf;
        for (std::size_t r = 0; r < rows_.size(); ++r) {
            auto [it, fresh] =
                groupOf.emplace(tupleOf(Tuple::Coords, kNoId, r), groups);
            groups += fresh;
            rows_[r].group = it->second;
        }
    }

    groupStart_.assign(groups + 1, 0);
    for (const Row &row : rows_)
        ++groupStart_[row.group + 1];
    for (std::uint32_t g = 0; g < groups; ++g)
        groupStart_[g + 1] += groupStart_[g];
    groupRows_.resize(rows_.size());
    std::vector<std::uint32_t> fill(groupStart_.begin(), groupStart_.end() - 1);
    for (std::size_t r = 0; r < rows_.size(); ++r)
        groupRows_[fill[rows_[r].group]++] = static_cast<std::uint32_t>(r);
}

void
MetricFrame::buildIndexes()
{
    rowOfMachineTuple_ = buildIndex(Tuple::MachineCoords);
    rowOfSortedTuple_ = buildIndex(Tuple::MachineSorted);

    std::unordered_map<Id, std::size_t> axisSlot;
    std::unordered_set<std::uint64_t> axisValueSeen;
    for (std::size_t r = 0; r < rows_.size(); ++r) {
        const Id m = rows_[r].machine;
        if (m >= rowsOfMachine_.size())
            rowsOfMachine_.resize(m + 1);
        rowsOfMachine_[m].push_back(static_cast<std::uint32_t>(r));

        for (const CoordId &c : coords(r)) {
            auto [slot, freshAxis] =
                axisSlot.emplace(c.key, axisValues_.size());
            if (freshAxis)
                axisValues_.emplace_back(c.key, std::vector<Id>{});
            const std::uint64_t kv =
                (std::uint64_t(c.key) << 32) | std::uint64_t(c.value);
            if (axisValueSeen.insert(kv).second)
                axisValues_[slot->second].second.push_back(c.value);
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
    std::vector<std::size_t> baseOfGroup(numGroups());
    for (std::size_t g = 0; g < numGroups(); ++g)
        baseOfGroup[g] = rowInGroup(g, baselineMachine);
    std::vector<double> &speedup = columns_.emplace_back();
    speedup.reserve(rows_.size());
    for (std::size_t r = 0; r < rows_.size(); ++r) {
        std::size_t base = baseOfGroup[rows_[r].group];
        speedup.push_back(base != npos ? speedupOf(r, base) : 0.0);
    }
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

std::string
MetricFrame::groupLabel(std::size_t g) const
{
    std::string out;
    for (const CoordId &c : groupCoords(g)) {
        if (!out.empty())
            out += " ";
        out += name(c.key) + "=" + name(c.value);
    }
    return out.empty() ? "-" : out;
}

std::size_t
MetricFrame::rowInGroup(std::size_t g, const std::string &machine) const
{
    const Id m = lookupId(machine);
    if (m == kNoId)
        return npos;
    for (std::size_t r : groupRows(g)) {
        if (rows_[r].machine == m)
            return r;
    }
    return npos;
}

bool
MetricFrame::groupHasFailure(std::size_t g) const
{
    for (std::size_t r : groupRows(g)) {
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
    // The group's (machine, coordinates) tuple, then the machine and
    // the overridden values substituted in place.
    std::vector<Id> key =
        tupleOf(Tuple::MachineCoords, kNoId, groupRows(g).front());
    key[0] = m;
    for (const Coord &o : overrides) {
        const Id k = lookupId(o.first);
        if (k == kNoId)
            continue; // key unseen anywhere: substitutes nothing
        const Id v = lookupId(o.second);
        bool present = false;
        for (std::size_t i = 1; i < key.size(); i += 2) {
            if (key[i] == k) {
                present = true;
                key[i + 1] = v;
            }
        }
        // A value string no row carries can never match.
        if (present && v == kNoId)
            return npos;
    }
    return findIn(rowOfMachineTuple_, key);
}

std::size_t
MetricFrame::axisBaselineRow(std::size_t r,
                             const std::string &axis) const
{
    const Id axisId = lookupId(axis);
    if (axisId == kNoId) {
        // No row carries the axis, so the baseline is simply the
        // first row with this row's machine and exact coordinates.
        return findIn(rowOfMachineTuple_,
                      tupleOf(Tuple::MachineCoords, kNoId, r));
    }
    auto built = std::find_if(axisBaseline_.begin(), axisBaseline_.end(),
                              [&](const auto &a) { return a.first == axisId; });
    if (built == axisBaseline_.end()) {
        axisBaseline_.emplace_back(axisId,
                                   buildIndex(Tuple::AxisMasked, axisId));
        built = axisBaseline_.end() - 1;
    }
    return findIn(built->second, tupleOf(Tuple::AxisMasked, axisId, r));
}

std::size_t
MetricFrame::findRow(const std::string &machine,
                     const std::vector<Coord> &coords) const
{
    const Id m = lookupId(machine);
    if (m == kNoId || m >= rowsOfMachine_.size() ||
        rowsOfMachine_[m].empty())
        return npos;
    std::vector<CoordId> want;
    want.reserve(coords.size());
    for (const Coord &c : coords) {
        const Id k = lookupId(c.first);
        const Id v = lookupId(c.second);
        if (k == kNoId || v == kNoId)
            return npos; // an unseen key or value matches no row
        want.push_back({k, v});
    }
    const std::vector<std::uint32_t> &mine = rowsOfMachine_[m];
    // Full-tuple fast path: a query naming every axis is an exact
    // sorted-tuple hash hit. A miss (or a partial query) falls back to
    // a containment scan over this machine's rows — id comparisons
    // only, never strings.
    if (want.size() == rows_[mine.front()].coordCount) {
        std::sort(want.begin(), want.end());
        std::vector<Id> key{m};
        for (const CoordId &c : want) {
            key.push_back(c.key);
            key.push_back(c.value);
        }
        const std::size_t hit = findIn(rowOfSortedTuple_, key);
        if (hit != npos)
            return hit;
    }
    for (std::size_t r : mine) {
        bool match = true;
        for (const CoordId &w : want) {
            bool found = false;
            for (const CoordId &have : this->coords(r))
                found = found || have == w;
            match = match && found;
        }
        if (match)
            return r;
    }
    return npos;
}

const std::vector<MetricFrame::Id> *
MetricFrame::axisValues(const std::string &key) const
{
    const Id k = lookupId(key);
    for (const auto &axis : axisValues_) {
        if (axis.first == k)
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
    os << "  \"groups\": " << numGroups() << ",\n";
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
        writeJsonQuoted(os, name(row.machine));
        os << ",\n";
        os << "      \"workload\": ";
        writeJsonQuoted(os, name(row.workload));
        os << ",\n";
        os << "      \"competitors\": " << row.competitors << ",\n";
        os << "      \"coords\": {";
        bool first = true;
        for (const CoordId &c : coords(r)) {
            os << (first ? "" : ", ");
            first = false;
            writeJsonQuoted(os, name(c.key));
            os << ": ";
            writeJsonQuoted(os, name(c.value));
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
