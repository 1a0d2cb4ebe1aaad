#include "report.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <ostream>
#include <set>

#include "sim/logging.hh"

namespace misp::driver {

namespace {

using harness::MetricFrame;

/** One resolved reference, echoed into AssertFailure::detail. */
struct RefEcho {
    std::string text;
    double value = 0;
};

/** Where one evaluation stands: its coordinate group, and what its
 *  references report back. */
struct Scope {
    std::size_t group = 0;
    /** Inside an aggregate body: echoes carry the group label. */
    bool inAggregate = false;
    std::vector<RefEcho> *refs = nullptr;
    /** Set when a reference landed on an infrastructure-failed row (or
     *  an aggregate lost every group to degradation) — the signal the
     *  [report] on_failed_points policy acts on. */
    bool *sawFailed = nullptr;
    /** [table] cells: set when a reference outside an aggregate landed
     *  in a degraded group (one holding any failed point). */
    bool *touchedDegraded = nullptr;
};

/** The registry suite of group @p g's target workload ("" if the
 *  workload is unregistered). */
const std::string &
groupSuite(const MetricFrame &frame, std::size_t g)
{
    static const std::string kNone;
    const wl::WorkloadInfo *info =
        wl::findWorkload(frame.grid().workloadAt(frame.combo(g)));
    return info ? info->suite : kNone;
}

bool
compare(double l, const std::string &op, double r)
{
    return op == "<"    ? l < r
           : op == "<=" ? l <= r
           : op == ">"  ? l > r
           : op == ">=" ? l >= r
           : op == "==" ? l == r
                        : l != r;
}

/**
 * Walks one compiled expression over the frame. Each aggregate node
 * folds the sweep once, on first use, and every later evaluation —
 * another coordinate group of the same assert, another row of the
 * same column — replays that fold: an aggregate's value is
 * group-independent, since its body iterates every group itself.
 */
class Evaluator
{
  public:
    /** With @p suite, aggregates fold only over the groups whose
     *  workload belongs to that registry suite (`footer ... by
     *  suite`). With @p echo, aggregates keep the references their
     *  body read, for a failure message. */
    Evaluator(const Scenario &sc, const MetricFrame &frame,
              const Expr &expr, const std::string *suite = nullptr,
              bool echo = false)
        : sc_(sc), frame_(frame), expr_(expr), suite_(suite), echo_(echo),
          folds_(expr.nodes.size())
    {
        // Scenario::fromSpec compiles every expression it keeps.
        MISP_ASSERT(!expr.nodes.empty());
    }

    bool eval(std::size_t node, const Scope &s, double *out,
              std::string *why);

  private:
    struct Fold {
        bool done = false;
        double value = 0;
        std::vector<RefEcho> refs;
        bool allDegraded = false; ///< every group was degraded
    };

    bool ref(const ExprNode &n, const Scope &s, double *out,
             std::string *why);
    bool fold(const ExprNode &n, Fold &f, std::string *why);

    const Scenario &sc_;
    const MetricFrame &frame_;
    const Expr &expr_;
    const std::string *suite_;
    const bool echo_;
    std::vector<Fold> folds_; ///< per node; used by Aggregate nodes
};

bool
Evaluator::eval(std::size_t node, const Scope &s, double *out,
                std::string *why)
{
    const ExprNode &n = expr_.nodes[node];
    switch (n.kind) {
      case ExprNode::Kind::Number:
        *out = n.number;
        return true;
      case ExprNode::Kind::Ref:
        return ref(n, s, out, why);
      case ExprNode::Kind::Aggregate: {
        Fold &f = folds_[node];
        if (!f.done && !fold(n, f, why))
            return false;
        if (s.refs)
            s.refs->insert(s.refs->end(), f.refs.begin(), f.refs.end());
        if (f.allDegraded && s.sawFailed)
            *s.sawFailed = true;
        *out = f.value;
        return true;
      }
      case ExprNode::Kind::Arith:
      case ExprNode::Kind::Compare:
        break;
    }
    double rhs = 0;
    if (!eval(n.lhs, s, out, why) || !eval(n.rhs, s, &rhs, why))
        return false;
    const char op = n.text[0];
    if (n.kind == ExprNode::Kind::Compare) {
        *out = compare(*out, n.text, rhs) ? 1.0 : 0.0;
    } else if (op == '/' && rhs == 0.0) {
        // Fail closed: a guard must not silently pass because the run
        // it divides by never finished (ticks == 0) — unless the
        // evaluation already touched a failed point, in which case
        // zeros are expected and the on_failed_points policy (not a
        // spurious division error) decides the outcome.
        if (!s.sawFailed || !*s.sawFailed) {
            *why = "division by zero";
            return false;
        }
        *out = 0.0;
    } else {
        *out = op == '+'   ? *out + rhs
               : op == '-' ? *out - rhs
               : op == '*' ? *out * rhs
                           : *out / rhs;
    }
    return true;
}

/** A compiled reference's value at the scope's group: the row (the
 *  selector's pins substituted, values matched against the frame's
 *  axis values) and its column. */
bool
Evaluator::ref(const ExprNode &n, const Scope &s, double *out,
               std::string *why)
{
    auto at = [&] { return frame_.groupLabel(s.group); };
    std::size_t row = MetricFrame::npos;
    if (!n.pins.empty()) {
        std::vector<MetricFrame::Coord> overrides;
        for (const auto &[axis, value] : n.pins) {
            // Every row carries the same axes, so an axis no row
            // carries is no coordinate of this group either (an axis
            // only [quick] sweeps, in a full run).
            const std::vector<std::string> *values =
                frame_.axisValues(axis);
            if (!values) {
                *why = "'" + n.text + "': selector axis '" + axis +
                       "' names no sweep coordinate at " + at();
                return false;
            }
            // `signal_cycles=5e3` addresses the axis value spelled
            // `5000`: an exact spelling wins, else the first value
            // equal as a number.
            std::string match;
            double want = 0, have = 0;
            for (const std::string &v : *values) {
                if (v == value) {
                    match = v;
                    break;
                }
                if (match.empty() && parseNumber(value, &want) &&
                    parseNumber(v, &have) && have == want)
                    match = v;
            }
            if (match.empty()) {
                std::string list;
                for (const std::string &v : *values)
                    list += (list.empty() ? "" : ", ") + v;
                *why = "'" + n.text + "': selector value '" + value +
                       "' matches no value of axis '" + axis +
                       "' (values: " + list + ")";
                return false;
            }
            overrides.emplace_back(axis, match);
        }
        row = frame_.rowWithOverrides(s.group, n.machine, overrides);
        if (row == MetricFrame::npos) {
            std::string coords;
            for (const MetricFrame::Coord &c : overrides)
                coords += (coords.empty() ? "" : ",") + c.first + "=" +
                          c.second;
            *why = "no result for machine '" + n.machine + "' at [" +
                   coords + "] from " + at();
            return false;
        }
    } else {
        row = frame_.rowInGroup(s.group, n.machine);
        if (row == MetricFrame::npos) {
            *why = "no result for machine '" + n.machine + "' at " + at();
            return false;
        }
    }

    // Groups are whole, so the speedup baseline row is always there.
    const std::size_t g = frame_.groupOf(row);
    if (!frame_.value(row, n.metric, out)) {
        *why = "'" + n.text + "': unknown metric '" + n.metric + "'";
        return false;
    }
    // A reference landing on an infrastructure-failed row taints the
    // evaluation; the policy layer decides what that means.
    if (s.sawFailed &&
        harness::runStatusIsInfraFailure(frame_.status(row)))
        *s.sawFailed = true;
    if (s.touchedDegraded && frame_.groupHasFailure(g))
        *s.touchedDegraded = true;
    if (s.refs)
        s.refs->push_back(
            {s.inAggregate ? n.text + "[" + at() + "]" : n.text, *out});
    return true;
}

/** `AGG '(' side ')'`: evaluate the body once per coordinate group
 *  and fold the values of the groups that are not degraded. */
bool
Evaluator::fold(const ExprNode &n, Fold &f, std::string *why)
{
    std::vector<double> values;
    std::size_t degraded = 0;
    for (std::size_t g = 0; g < frame_.numGroups(); ++g) {
        if (suite_ && groupSuite(frame_, g) != *suite_)
            continue;
        const std::size_t refMark = f.refs.size();
        bool bodyFailed = false;
        double v = 0;
        if (!eval(n.lhs,
                  Scope{g, true, echo_ ? &f.refs : nullptr, &bodyFailed,
                        nullptr},
                  &v, why))
            return false;
        // Degraded groups stay out of the fold — any group containing
        // an infrastructure-failed point, whether or not this body's
        // references touch the failed row, so ref-less bodies (the
        // `count ( 1 )` idiom) and ref-ful ones fold over the same
        // surviving groups.
        if (bodyFailed || frame_.groupHasFailure(g)) {
            f.refs.resize(refMark);
            ++degraded;
            continue;
        }
        values.push_back(v);
    }
    if (degraded > 0)
        f.refs.push_back({n.text + "(...) degraded groups skipped",
                          double(degraded)});
    if (values.empty()) {
        if (degraded == 0) {
            *why = n.text + "(...): no results to aggregate over";
            return false;
        }
        // Every group was degraded: nothing to fold, so the aggregate
        // itself is degraded and the enclosing evaluation follows the
        // on_failed_points policy.
        f.allDegraded = f.done = true;
        return true;
    }

    const bool geomean = n.text == "geomean";
    double sum = 0, logSum = 0, nonzero = 0;
    for (double v : values) {
        if (geomean && v <= 0.0) {
            *why = "geomean(...): non-positive value " +
                   std::to_string(v) + " in the sweep";
            return false;
        }
        sum += v;
        logSum += geomean ? std::log(v) : 0.0;
        nonzero += v != 0.0 ? 1 : 0;
    }
    const double count = double(values.size());
    const auto [lo, hi] = std::minmax_element(values.begin(), values.end());
    f.value = n.text == "avg"   ? sum / count
              : geomean         ? std::exp(logSum / count)
              : n.text == "min" ? *lo
              : n.text == "max" ? *hi
              : n.text == "sum" ? sum
                                : nonzero; // count: nonzero bodies
    f.done = true;
    return true;
}

std::string
failureDetail(double lhs, double rhs, const std::string &where,
              const std::vector<RefEcho> &refs)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "lhs=%g rhs=%g at ", lhs, rhs);
    std::string out = buf + where;
    for (const RefEcho &r : refs) {
        std::snprintf(buf, sizeof(buf), "=%g", r.value);
        out += "; " + r.text + buf;
    }
    return out;
}

/** The part of group @p g an evaluation depends on: the "key=value"
 *  join over the @p consulted axes, in coordinate order. Empty when
 *  the evaluation consults no axis of the frame. */
std::string
projectionLabel(const MetricFrame &frame, std::size_t g,
                const std::vector<std::string> &consulted)
{
    const harness::GridTable &grid = frame.grid();
    std::string out;
    for (std::size_t a = 0; a < grid.axes.size(); ++a) {
        const std::string &key = grid.axes[a].key;
        if (std::find(consulted.begin(), consulted.end(), key) ==
            consulted.end())
            continue;
        if (!out.empty())
            out += " ";
        out += key + "=" + grid.value(frame.combo(g), a);
    }
    return out;
}

} // namespace

bool
evaluateAsserts(const Scenario &sc, const MetricFrame &frame,
                std::vector<AssertFailure> *failures, std::string *err,
                std::size_t *skippedGroups)
{
    if (skippedGroups)
        *skippedGroups = 0;
    const FailedPointPolicy policy = sc.report.onFailedPoints;
    for (const ReportAssert &a : sc.report.asserts) {
        // An evaluation depends on the group only through the axes its
        // tree consults (none for aggregate-only "suite claims"; the
        // unpinned axes for cross-axis references). Groups that agree
        // on every consulted axis evaluate identically, so each
        // distinct projection is evaluated — and can fail — once.
        // Degraded evaluations never claim their projection: a later
        // clean group with the same projection must still evaluate.
        Evaluator ev(sc, frame, a.tree);
        // Echoed references only feed a failure message, so a second
        // evaluator collects them for a failing group alone: an
        // aggregate's echo holds an entry per group it folds.
        std::optional<Evaluator> echo;
        const ExprNode &cmp = a.tree.nodes[a.tree.root()];
        std::set<std::string> seen;
        for (std::size_t g = 0; g < frame.numGroups(); ++g) {
            const std::string where =
                projectionLabel(frame, g, a.tree.consulted);
            if (seen.count(where))
                continue;
            bool sawFailed = false;
            double lhs = 0, rhs = 0;
            const Scope s{g, false, nullptr, &sawFailed, nullptr};
            std::string why;
            if (!ev.eval(cmp.lhs, s, &lhs, &why) ||
                !ev.eval(cmp.rhs, s, &rhs, &why)) {
                if (err)
                    *err = specError(sc.specPath, a.line,
                                     "assert '" + a.text + "': " + why);
                return false;
            }
            const std::string span = where.empty() ? "the whole sweep"
                                                   : where;

            // A group-dependent evaluation is degraded when its group
            // contains a failed point (even one its references missed:
            // the group is the evaluation unit) or its references
            // reached a failed point elsewhere. Suite claims (nothing
            // consulted) are degraded only through their aggregates.
            if (sawFailed || (!where.empty() && frame.groupHasFailure(g))) {
                if (skippedGroups)
                    ++*skippedGroups;
                if (policy == FailedPointPolicy::RequireAll)
                    failures->push_back(
                        {a.text, a.line,
                         "references failed point(s) at " + span +
                             " (on_failed_points=require_all)"});
            } else {
                seen.insert(where);
                if (!compare(lhs, cmp.text, rhs)) {
                    if (!echo)
                        echo.emplace(sc, frame, a.tree, nullptr, true);
                    std::vector<RefEcho> refs;
                    bool echoFailed = false;
                    const Scope es{g, false, &refs, &echoFailed, nullptr};
                    // The same evaluation again: it cannot fail now.
                    const bool again = echo->eval(cmp.lhs, es, &lhs, &why) &&
                                       echo->eval(cmp.rhs, es, &rhs, &why);
                    MISP_ASSERT(again);
                    failures->push_back(
                        {a.text, a.line,
                         failureDetail(lhs, rhs, span, refs)});
                }
            }
            // Nothing consulted the group: one evaluation covers the
            // sweep.
            if (where.empty())
                break;
        }
    }
    return true;
}

namespace {

/** The [table] number rule: integral values print as integers, all
 *  others with three decimals. */
std::string
formatCell(double v)
{
    char buf[64];
    if (v == std::floor(v) && std::fabs(v) < 1e15)
        std::snprintf(buf, sizeof(buf), "%.0f", v == 0.0 ? 0.0 : v);
    else
        std::snprintf(buf, sizeof(buf), "%.3f", v);
    return buf;
}

/** One [table] cell, footer or footer line: @p cell's tree at
 *  @p group, as text — `-` when the evaluation touches a degraded
 *  group (or an aggregate lost every group to degradation). */
bool
evaluateCell(const Scenario &sc, Evaluator &ev, const TableCell &cell,
             std::size_t group, std::string *text, std::string *err)
{
    bool sawFailed = false;
    bool touched = false;
    double v = 0;
    std::string why;
    if (!ev.eval(cell.tree.root(),
                 Scope{group, false, nullptr, &sawFailed, &touched}, &v,
                 &why)) {
        *err = specError(sc.specPath, cell.line,
                         "'" + cell.label + " = " + cell.expr + "': " + why);
        return false;
    }
    *text = sawFailed || touched ? "-" : formatCell(v);
    return true;
}

/** A [table] evaluated over the frame: its header (the label axes —
 *  the union of the axes its columns consult — then the column
 *  labels), one row per distinct projection of the coordinate groups
 *  onto the label axes, in first-seen grid order, and its footer
 *  lines. */
struct TablePlan {
    std::vector<std::string> header;
    std::vector<std::vector<std::string>> rows;
    std::vector<std::string> footerLines;
};

/** Evaluate every cell and footer of @p table, so a run-time error is
 *  diagnosed before any output. */
bool
planTable(const Scenario &sc, const MetricFrame &frame,
          const TableSpec &table, TablePlan *plan, std::string *err)
{
    const harness::GridTable &grid = frame.grid();
    std::vector<std::string> axes;
    std::vector<std::size_t> axisAt;
    for (std::size_t a = 0; a < grid.axes.size(); ++a) {
        const std::string &key = grid.axes[a].key;
        for (const TableCell &col : table.columns) {
            if (col.tree.consults(key)) {
                axes.push_back(key);
                axisAt.push_back(a);
                break;
            }
        }
    }
    const std::size_t labels = axes.size();
    plan->header = axes;
    std::vector<Evaluator> columns;
    for (const TableCell &c : table.columns) {
        plan->header.push_back(c.label);
        columns.emplace_back(sc, frame, c.tree);
    }

    std::set<std::string> seen;
    for (std::size_t g = 0; g < frame.numGroups(); ++g) {
        if (!seen.insert(projectionLabel(frame, g, axes)).second)
            continue;
        std::vector<std::string> cells;
        for (std::size_t a : axisAt)
            cells.push_back(grid.value(frame.combo(g), a));
        cells.resize(labels + columns.size());
        for (std::size_t c = 0; c < columns.size(); ++c) {
            if (!evaluateCell(sc, columns[c], table.columns[c], g,
                              &cells[labels + c], err))
                return false;
        }
        plan->rows.push_back(std::move(cells));
    }

    for (const TableCell &f : table.footers) {
        // `by suite`: one line per registry suite present in the sweep,
        // in registry order.
        std::vector<std::string> suites = {""};
        if (f.bySuite) {
            suites.clear();
            std::set<std::string> present;
            for (std::size_t g = 0; g < frame.numGroups(); ++g)
                present.insert(groupSuite(frame, g));
            for (const std::vector<wl::WorkloadInfo> *reg :
                 {&wl::allWorkloads(), &wl::utilWorkloads()}) {
                for (const wl::WorkloadInfo &info : *reg) {
                    if (present.erase(info.suite))
                        suites.push_back(info.suite);
                }
            }
        }
        for (const std::string &suite : suites) {
            Evaluator ev(sc, frame, f.tree, f.bySuite ? &suite : nullptr);
            std::string text;
            if (!evaluateCell(sc, ev, f, 0, &text, err))
                return false;
            plan->footerLines.push_back(
                f.label + (f.bySuite ? " [" + suite + "]" : "") + ": " +
                text);
        }
    }
    return true;
}

} // namespace

bool
writeTables(std::ostream &os, const Scenario &sc, const MetricFrame &frame,
            bool markdown, std::string *err)
{
    if (frame.numRows() == 0) {
        os << "(no points)\n";
        return true;
    }
    std::vector<TablePlan> plans(sc.tables.size());
    for (std::size_t t = 0; t < sc.tables.size(); ++t) {
        if (!planTable(sc, frame, sc.tables[t], &plans[t], err))
            return false;
    }
    for (std::size_t t = 0; t < plans.size(); ++t) {
        const TablePlan &plan = plans[t];
        if (t > 0)
            os << "\n";
        writeGrid(
            os, sc.tables[t].title, plan.header, plan.rows.size(),
            [&](std::size_t i) { return plan.rows[i]; }, markdown);
        if (!plan.footerLines.empty())
            os << "\n";
        for (const std::string &line : plan.footerLines)
            os << (markdown ? "- " : "") << line << "\n";
    }
    return true;
}

} // namespace misp::driver
