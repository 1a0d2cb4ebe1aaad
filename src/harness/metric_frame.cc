#include "metric_frame.hh"

#include <algorithm>
#include <ostream>
#include <unordered_map>

#include "sim/logging.hh"
#include "sim/stats.hh"

namespace misp::harness {

namespace {

/** What a row stores: its measured doubles, in this order. */
enum Measured : std::size_t {
    kTicks,
    kInsts,
    kValid,
    kAttempts,
    kEvents, ///< kNumEventCounters of them, in counter-table order
    kMeasured = kEvents + kNumEventCounters,
};

/** Positions in metrics(): the base columns, then events.*, then
 *  events_per_mi.*, then the optional speedup. */
enum Column : std::size_t {
    cTicks,
    cMcycles,
    cInsts,
    cValid,
    cCompleted,
    cFailed,
    cAttempts,
    cEvents,
    cPerMi = cEvents + kNumEventCounters,
    cSpeedup = cPerMi + kNumEventCounters,
};

/** Every column name in emission order, `speedup` last. */
const std::vector<std::string> &
allColumns()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> n = {"ticks",     "mcycles", "insts",
                                      "valid",     "completed", "failed",
                                      "attempts"};
        for (const EventCounterInfo &c : kEventCounters)
            n.push_back(std::string("events.") + c.name);
        for (const EventCounterInfo &c : kEventCounters)
            n.push_back(std::string("events_per_mi.") + c.name);
        n.push_back("speedup");
        return n;
    }();
    return names;
}

/** Position of column @p name in allColumns(); npos if none. */
std::size_t
columnOf(const std::string &name)
{
    static const std::unordered_map<std::string, std::size_t> ids = [] {
        std::unordered_map<std::string, std::size_t> m;
        for (std::size_t i = 0; i < allColumns().size(); ++i)
            m.emplace(allColumns()[i], i);
        return m;
    }();
    auto it = ids.find(name);
    return it == ids.end() ? MetricFrame::npos : it->second;
}

} // namespace

MetricFrame::MetricFrame(std::shared_ptr<const GridTable> grid,
                         std::vector<std::uint32_t> combos,
                         const std::string &baselineMachine)
    : grid_(std::move(grid)), combos_(std::move(combos))
{
    if (!baselineMachine.empty()) {
        baseline_ = grid_->machineOf(baselineMachine);
        if (baseline_ == npos)
            fatal("MetricFrame: baseline machine '%s' is not in the grid",
                  baselineMachine.c_str());
    }
    status_.assign(combos_.size() * machines(), RunStatus::MaxTicksReached);
    measured_.assign(status_.size() * kMeasured, 0.0);
}

void
MetricFrame::setRow(std::size_t r, const RunRecord &run)
{
    MISP_ASSERT(r < numRows());
    status_[r] = run.status;
    double *v = measured_.data() + r * kMeasured;
    v[kTicks] = double(run.ticks);
    v[kInsts] = double(run.instsRetired);
    v[kValid] = run.valid ? 1.0 : 0.0;
    v[kAttempts] = double(run.attempts);
    std::copy(run.events.begin(), run.events.end(), v + kEvents);
}

RunRecord
MetricFrame::record(std::size_t r) const
{
    const double *v = measured_.data() + r * kMeasured;
    RunRecord run;
    run.status = status_[r];
    run.ticks = static_cast<Tick>(v[kTicks]);
    run.instsRetired = static_cast<std::uint64_t>(v[kInsts]);
    run.valid = v[kValid] != 0.0;
    run.attempts = static_cast<unsigned>(v[kAttempts]);
    std::copy(v + kEvents, v + kMeasured, run.events.begin());
    return run;
}

const std::vector<std::string> &
MetricFrame::metrics() const
{
    static const std::vector<std::string> withoutSpeedup(
        allColumns().begin(), allColumns().end() - 1);
    return baseline_ == npos ? withoutSpeedup : allColumns();
}

bool
MetricFrame::hasMetric(const std::string &name) const
{
    const std::size_t m = columnOf(name);
    return m != npos && (m != cSpeedup || baseline_ != npos);
}

double
MetricFrame::column(std::size_t r, std::size_t m) const
{
    const double *v = measured_.data() + r * kMeasured;
    switch (m) {
      case cTicks:
        return v[kTicks];
      case cMcycles:
        return megaCycles(v[kTicks]);
      case cInsts:
        return v[kInsts];
      case cValid:
        return v[kValid];
      case cCompleted:
        return status_[r] == RunStatus::Completed ? 1.0 : 0.0;
      case cFailed:
        return runStatusIsInfraFailure(status_[r]) ? 1.0 : 0.0;
      case cAttempts:
        return v[kAttempts];
      case cSpeedup:
        return speedupOf(r, groupOf(r) * machines() + baseline_);
    }
    if (m < cPerMi)
        return v[kEvents + (m - cEvents)];
    return perMegaInsts(v[kEvents + (m - cPerMi)], v[kInsts]);
}

bool
MetricFrame::value(std::size_t r, const std::string &metric,
                   double *out) const
{
    if (!hasMetric(metric))
        return false;
    *out = column(r, columnOf(metric));
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

double
MetricFrame::speedupOf(std::size_t r, std::size_t base) const
{
    const double ticks = measured_[r * kMeasured + kTicks];
    if (status_[r] != RunStatus::Completed ||
        status_[base] != RunStatus::Completed || ticks == 0.0)
        return 0.0;
    return measured_[base * kMeasured + kTicks] / ticks;
}

std::string
MetricFrame::groupLabel(std::size_t g, char sep) const
{
    const std::string out = grid_->label(combos_[g], sep);
    return out.empty() ? "-" : out;
}

std::size_t
MetricFrame::rowInGroup(std::size_t g, const std::string &machine) const
{
    const std::size_t m = grid_->machineOf(machine);
    return m == npos ? npos : g * machines() + m;
}

bool
MetricFrame::groupHasFailure(std::size_t g) const
{
    for (std::size_t r : groupRows(g)) {
        if (runStatusIsInfraFailure(status_[r]))
            return true;
    }
    return false;
}

std::size_t
MetricFrame::groupOfCombo(std::size_t combo) const
{
    auto it = std::lower_bound(combos_.begin(), combos_.end(), combo);
    if (it == combos_.end() || *it != combo)
        return npos;
    return static_cast<std::size_t>(it - combos_.begin());
}

std::size_t
MetricFrame::rowWithOverrides(std::size_t g, const std::string &machine,
                              const std::vector<Coord> &overrides) const
{
    const std::size_t m = grid_->machineOf(machine);
    if (m == npos)
        return npos;
    std::size_t combo = combos_[g];
    for (const Coord &o : overrides) {
        const std::size_t a = grid_->axisOf(o.first);
        if (a == npos)
            continue;
        const std::size_t v = grid_->valueOf(a, o.second);
        if (v == npos)
            return npos;
        combo = grid_->withDigit(combo, a, v);
    }
    const std::size_t h = groupOfCombo(combo);
    return h == npos ? npos : h * machines() + m;
}

std::size_t
MetricFrame::axisBaselineRow(std::size_t r, const std::string &axis) const
{
    const std::size_t a = grid_->axisOf(axis);
    if (a == npos)
        return r;
    const std::size_t h =
        groupOfCombo(grid_->withDigit(combos_[groupOf(r)], a, 0));
    return h == npos ? npos : h * machines() + r % machines();
}

const std::vector<std::string> *
MetricFrame::axisValues(const std::string &key) const
{
    const std::size_t a = grid_ ? grid_->axisOf(key) : npos;
    return a == npos ? nullptr : &grid_->axes[a].values;
}

void
MetricFrame::writeJson(std::ostream &os) const
{
    using stats::writeJsonNumber;
    using stats::writeJsonQuoted;
    const std::vector<std::string> &names = metrics();
    os << "{\n";
    os << "  \"rows\": " << numRows() << ",\n";
    os << "  \"groups\": " << numGroups() << ",\n";
    os << "  \"metrics\": [";
    for (std::size_t m = 0; m < names.size(); ++m) {
        os << (m ? ", " : "");
        writeJsonQuoted(os, names[m]);
    }
    os << "],\n";
    os << "  \"points\": [";
    for (std::size_t r = 0; r < numRows(); ++r) {
        os << (r ? ",\n" : "\n");
        os << "    {\n";
        os << "      \"machine\": ";
        writeJsonQuoted(os, machine(r));
        os << ",\n";
        os << "      \"workload\": ";
        writeJsonQuoted(os, workload(r));
        os << ",\n";
        os << "      \"competitors\": " << competitors(r) << ",\n";
        os << "      \"coords\": {";
        for (std::size_t a = 0; a < grid_->axes.size(); ++a) {
            os << (a ? ", " : "");
            writeJsonQuoted(os, grid_->axes[a].key);
            os << ": ";
            writeJsonQuoted(os, coord(r, a));
        }
        os << "},\n";
        os << "      \"group\": " << groupOf(r) << ",\n";
        os << "      \"status\": ";
        writeJsonQuoted(os, runStatusName(status_[r]));
        os << ",\n";
        os << "      \"values\": {";
        for (std::size_t m = 0; m < names.size(); ++m) {
            os << (m ? ", " : "");
            writeJsonQuoted(os, names[m]);
            os << ": ";
            writeJsonNumber(os, column(r, m));
        }
        os << "}\n";
        os << "    }";
    }
    os << "\n  ]\n}\n";
}

} // namespace misp::harness
