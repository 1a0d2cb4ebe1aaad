#include "report.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <ostream>
#include <set>
#include <sstream>

namespace misp::driver {

namespace {

using harness::MetricFrame;

// ---------------------------------------------------------------------
// Reference resolution (queries over the MetricFrame)
// ---------------------------------------------------------------------

/** One resolved reference, echoed into AssertFailure::detail. */
struct RefEcho {
    std::string text;
    double value = 0;
};

/** Memoized aggregate evaluations, shared across the per-group
 *  evaluations of one assert: an aggregate's value is
 *  group-independent by construction (its body iterates every group
 *  itself), so re-walking its tokens once per outer group would make
 *  a per-group assert with an aggregate O(groups^2). Keyed by the
 *  token position of the aggregate body. */
struct AggResult {
    double value = 0;
    std::size_t endPos = 0; ///< token position of the closing ')'
    std::vector<RefEcho> refs;
    /** Every group was degraded: the fold had nothing to fold over
     *  and the enclosing evaluation is itself degraded. */
    bool allDegraded = false;
};
using AggCache = std::map<std::size_t, AggResult>;

/** Everything one expression evaluation resolves against: the frame,
 *  the current coordinate group, and the evaluation's diagnostics. */
struct EvalCtx {
    const Scenario &sc;
    const MetricFrame &frame;
    std::size_t group = 0;
    /** True inside an aggregate body: echoes carry the group label and
     *  references do not mark the enclosing assert group-dependent. */
    bool inAggregate = false;

    /** Sweep-axis keys whose group coordinate the evaluation actually
     *  consulted — all of them for a bare reference, the un-pinned
     *  ones for a cross-axis reference, none inside aggregates. Two
     *  groups agreeing on every consulted axis evaluate identically,
     *  which is what lets evaluateAsserts() skip duplicates. */
    std::set<std::string> *consulted = nullptr;
    std::vector<RefEcho> *refs = nullptr;
    AggCache *aggCache = nullptr;

    /** Set when a resolved reference landed on an infrastructure-failed
     *  row (or an aggregate lost every group to degradation) — the
     *  signal the [report] on_failed_points policy acts on. */
    bool *sawFailed = nullptr;

    /** [table] cells: set when a reference outside an aggregate landed
     *  in a degraded group (one holding any failed point). */
    bool *touchedDegraded = nullptr;
    /** `footer = ... by suite`: aggregates fold only over the groups
     *  whose workload belongs to this registry suite. */
    const std::string *suite = nullptr;
};

void
markFailed(const EvalCtx &ctx)
{
    if (ctx.sawFailed)
        *ctx.sawFailed = true;
}

/** Full-string numeric parse (the assert grammar's NUMBER rule). */
bool
parseNumber(const std::string &s, double *out)
{
    if (s.empty())
        return false;
    char *end = nullptr;
    double v = std::strtod(s.c_str(), &end);
    if (!end || *end != '\0' || end == s.c_str())
        return false;
    *out = v;
    return true;
}

/** Value of @p metric at @p row, with the metric-name diagnostics the
 *  grammar promises. */
bool
metricValue(const EvalCtx &ctx, std::size_t row,
            const std::string &metric, const std::string &ref,
            double *out, std::string *why)
{
    if (metric == "speedup") {
        if (ctx.sc.report.baselineMachine.empty()) {
            *why = "'" + ref +
                   "': speedup needs a [report] baseline_machine";
            return false;
        }
        std::size_t g = ctx.frame.row(row).group;
        if (ctx.frame.rowInGroup(g, ctx.sc.report.baselineMachine) ==
            MetricFrame::npos) {
            *why = "no baseline result for machine '" +
                   ctx.sc.report.baselineMachine + "' at " +
                   ctx.frame.groupLabel(g);
            return false;
        }
    }
    if (ctx.frame.value(row, metric, out))
        return true;
    if (metric.rfind("events.", 0) == 0 ||
        metric.rfind("events_per_mi.", 0) == 0) {
        *why = "'" + ref + "': unknown event counter";
        return false;
    }
    *why = "'" + ref + "': unknown metric '" + metric + "'";
    return false;
}

/** Parse the `[axis=value,...]` selector body of a cross-axis
 *  reference, validating each axis against the current group's
 *  coordinates. */
bool
parseSelector(const EvalCtx &ctx, const std::string &body,
              const std::string &ref,
              std::vector<MetricFrame::Coord> *out, std::string *why)
{
    std::size_t pos = 0;
    while (pos <= body.size()) {
        std::size_t comma = body.find(',', pos);
        std::string item = body.substr(
            pos, comma == std::string::npos ? comma : comma - pos);
        std::size_t eq = item.find('=');
        if (item.empty() || eq == std::string::npos || eq == 0 ||
            eq + 1 >= item.size()) {
            *why = "'" + ref + "': selector '" + item +
                   "' is not axis=value";
            return false;
        }
        MetricFrame::Coord coord{item.substr(0, eq),
                                 item.substr(eq + 1)};
        bool known = false;
        for (const MetricFrame::Coord &c :
             ctx.frame.groupCoords(ctx.group))
            known = known || c.first == coord.first;
        if (!known) {
            *why = "'" + ref + "': selector axis '" + coord.first +
                   "' names no sweep coordinate at " +
                   ctx.frame.groupLabel(ctx.group);
            return false;
        }

        // Numeric normalization: `signal_cycles=5e3` must address the
        // axis value spelled `5000`. An exact spelling match wins;
        // otherwise adopt the spelling of the axis value the selector
        // matches numerically. A value matching nothing either way is
        // a malformed selector — diagnose with the axis's values. The
        // frame precomputes each axis's distinct values in first-seen
        // row order (the axis is known to exist: it is a coordinate of
        // the current group).
        const std::vector<std::string> &axisValues =
            *ctx.frame.axisValues(coord.first);
        bool exact = false;
        for (const std::string &v : axisValues)
            exact = exact || v == coord.second;
        if (!exact) {
            double want = 0;
            std::string match;
            if (parseNumber(coord.second, &want)) {
                for (const std::string &v : axisValues) {
                    double have = 0;
                    if (parseNumber(v, &have) && have == want) {
                        match = v;
                        break;
                    }
                }
            }
            if (match.empty()) {
                std::string values;
                for (const std::string &v : axisValues)
                    values += (values.empty() ? "" : ", ") + v;
                *why = "'" + ref + "': selector value '" + coord.second +
                       "' matches no value of axis '" + coord.first +
                       "' (values: " + values + ")";
                return false;
            }
            coord.second = match;
        }
        out->push_back(std::move(coord));
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    return true;
}

/** Resolve `<machine>.<metric>` or the cross-axis
 *  `<machine>[axis=value].<metric>` against the current group. */
bool
resolveRef(const EvalCtx &ctx, const std::string &ref, double *out,
           std::string *why)
{
    std::string metric;
    std::size_t row = MetricFrame::npos;

    std::size_t bracket = ref.find('[');
    if (bracket != std::string::npos) {
        // Cross-axis form: the '[' delimits the machine name exactly.
        const std::string machine = ref.substr(0, bracket);
        bool knownMachine = false;
        for (const MachineSpec &m : ctx.sc.machines)
            knownMachine = knownMachine || m.name == machine;
        if (!knownMachine) {
            *why = "'" + ref + "': '" + machine +
                   "' names no [machine] section";
            return false;
        }
        std::size_t close = ref.find(']', bracket);
        if (close == std::string::npos) {
            *why = "'" + ref + "': missing ']' after the selector";
            return false;
        }
        if (close + 1 >= ref.size() || ref[close + 1] != '.' ||
            close + 2 >= ref.size()) {
            *why = "'" + ref + "': expected '.<metric>' after ']'";
            return false;
        }
        std::vector<MetricFrame::Coord> overrides;
        if (!parseSelector(ctx,
                           ref.substr(bracket + 1, close - bracket - 1),
                           ref, &overrides, why))
            return false;
        if (ctx.consulted && !ctx.inAggregate) {
            // The lookup depends on the group only through the axes
            // the selector leaves unpinned.
            for (const MetricFrame::Coord &c :
                 ctx.frame.groupCoords(ctx.group)) {
                bool pinned = false;
                for (const MetricFrame::Coord &o : overrides)
                    pinned = pinned || o.first == c.first;
                if (!pinned)
                    ctx.consulted->insert(c.first);
            }
        }
        metric = ref.substr(close + 2);
        row = ctx.frame.rowWithOverrides(ctx.group, machine, overrides);
        if (row == MetricFrame::npos) {
            std::string coords;
            for (const MetricFrame::Coord &c : overrides)
                coords += (coords.empty() ? "" : ",") + c.first + "=" +
                          c.second;
            *why = "no result for machine '" + machine + "' at [" +
                   coords + "] from " + ctx.frame.groupLabel(ctx.group);
            return false;
        }
    } else {
        // Plain form: the machine name is the longest [machine] name
        // that prefixes the reference followed by '.' (names may
        // contain '.', so longest match wins).
        const MachineSpec *machine = nullptr;
        for (const MachineSpec &m : ctx.sc.machines) {
            if (ref.size() > m.name.size() + 1 &&
                ref.compare(0, m.name.size(), m.name) == 0 &&
                ref[m.name.size()] == '.' &&
                (!machine || m.name.size() > machine->name.size()))
                machine = &m;
        }
        if (!machine) {
            *why = "'" + ref + "' names no [machine] section";
            return false;
        }
        metric = ref.substr(machine->name.size() + 1);
        row = ctx.frame.rowInGroup(ctx.group, machine->name);
        if (row == MetricFrame::npos) {
            *why = "no result for machine '" + machine->name + "' at " +
                   ctx.frame.groupLabel(ctx.group);
            return false;
        }
        if (ctx.consulted && !ctx.inAggregate) {
            for (const MetricFrame::Coord &c :
                 ctx.frame.groupCoords(ctx.group))
                ctx.consulted->insert(c.first);
        }
    }

    if (!metricValue(ctx, row, metric, ref, out, why))
        return false;
    // A reference landing on an infrastructure-failed row taints the
    // evaluation; the policy layer decides what that means. The value
    // still resolves (the frame's columns exist) so parsing continues
    // and every malformed-expression diagnostic still fires.
    if (harness::runStatusIsInfraFailure(ctx.frame.row(row).status))
        markFailed(ctx);
    if (ctx.touchedDegraded &&
        ctx.frame.groupHasFailure(ctx.frame.row(row).group))
        *ctx.touchedDegraded = true;
    if (ctx.refs) {
        std::string text = ref;
        if (ctx.inAggregate)
            text += "[" + ctx.frame.groupLabel(ctx.group) + "]";
        ctx.refs->push_back({std::move(text), *out});
    }
    return true;
}

// ---------------------------------------------------------------------
// Expression evaluation
// ---------------------------------------------------------------------

struct Tokenizer {
    std::vector<std::string> tokens;
    std::size_t pos = 0;

    explicit Tokenizer(const std::string &text)
    {
        std::istringstream is(text);
        std::string tok;
        while (is >> tok) {
            // Parentheses are their own tokens regardless of spacing
            // ("avg(a + b)" and "avg ( a + b )" parse alike); machine
            // and metric names never contain them, so this cannot
            // split a REF. Square brackets stay inside their token —
            // the selector is parsed by resolveRef.
            std::string cur;
            for (char ch : tok) {
                if (ch == '(' || ch == ')') {
                    if (!cur.empty()) {
                        tokens.push_back(cur);
                        cur.clear();
                    }
                    tokens.emplace_back(1, ch);
                } else {
                    cur += ch;
                }
            }
            if (!cur.empty())
                tokens.push_back(cur);
        }
    }

    const std::string *peek() const
    {
        return pos < tokens.size() ? &tokens[pos] : nullptr;
    }
    const std::string *take()
    {
        return pos < tokens.size() ? &tokens[pos++] : nullptr;
    }
};

bool
isComparison(const std::string &tok)
{
    return tok == "<" || tok == "<=" || tok == ">" || tok == ">=" ||
           tok == "==" || tok == "!=";
}

bool
isAggregateName(const std::string &tok)
{
    return tok == "avg" || tok == "geomean" || tok == "min" ||
           tok == "max" || tok == "sum" || tok == "count";
}

bool parseSide(Tokenizer &tz, const EvalCtx &ctx, double *out,
               std::string *why);

/** The registry suite of group @p g's target workload ("" if the
 *  workload is unregistered). */
const std::string &
groupSuite(const MetricFrame &frame, std::size_t g)
{
    static const std::string kNone;
    const wl::WorkloadInfo *info =
        wl::findWorkload(frame.row(frame.groupRows(g).front()).workload);
    return info ? info->suite : kNone;
}

/** `AGG '(' side ')'`: evaluate the body once per coordinate group
 *  (re-walking the same tokens with each group's context) and fold. */
bool
parseAggregate(Tokenizer &tz, const EvalCtx &ctx,
               const std::string &func, double *out, std::string *why)
{
    tz.take(); // the '(' the caller peeked
    const std::size_t start = tz.pos;

    // One aggregate value per token position per assert: replay the
    // memoized result (and its echoes) instead of re-walking the body
    // once per outer coordinate group.
    if (ctx.aggCache) {
        auto hit = ctx.aggCache->find(start);
        if (hit != ctx.aggCache->end()) {
            tz.pos = hit->second.endPos + 1; // past the ')'
            if (ctx.refs)
                ctx.refs->insert(ctx.refs->end(),
                                 hit->second.refs.begin(),
                                 hit->second.refs.end());
            if (hit->second.allDegraded)
                markFailed(ctx);
            *out = hit->second.value;
            return true;
        }
    }

    std::size_t end = start;
    std::vector<RefEcho> bodyRefs;
    std::vector<double> values;
    std::size_t degraded = 0;
    for (std::size_t g = 0; g < ctx.frame.numGroups(); ++g) {
        if (ctx.suite && groupSuite(ctx.frame, g) != *ctx.suite)
            continue;
        tz.pos = start;
        const std::size_t refMark = bodyRefs.size();
        bool bodyFailed = false;
        EvalCtx inner = ctx;
        inner.group = g;
        inner.inAggregate = true;
        inner.refs = &bodyRefs;
        inner.sawFailed = &bodyFailed;
        inner.touchedDegraded = nullptr; // folds skip degraded groups
        double v = 0;
        if (!parseSide(tz, inner, &v, why))
            return false;
        end = tz.pos;
        // Degraded groups stay out of the fold — any group containing
        // an infrastructure-failed point, whether or not this body's
        // references touch the failed row, so ref-less bodies (the
        // `count ( 1 )` idiom) and ref-ful ones fold over the same
        // surviving groups.
        if (bodyFailed || ctx.frame.groupHasFailure(g)) {
            bodyRefs.resize(refMark);
            ++degraded;
            continue;
        }
        values.push_back(v);
    }
    if (degraded > 0)
        bodyRefs.push_back({func + "(...) degraded groups skipped",
                            double(degraded)});
    bool allDegraded = false;
    if (values.empty()) {
        if (degraded == 0) {
            *why = func + "(...): no results to aggregate over";
            return false;
        }
        // Every group was degraded: nothing to fold, so the aggregate
        // itself is degraded and the enclosing evaluation follows the
        // on_failed_points policy.
        allDegraded = true;
        markFailed(ctx);
    }
    tz.pos = end;
    const std::string *close = tz.take();
    if (!close || *close != ")") {
        *why = "expected ')' closing " + func + "(...), got " +
               (close ? "'" + *close + "'"
                      : std::string("end of expression"));
        return false;
    }
    if (ctx.refs)
        ctx.refs->insert(ctx.refs->end(), bodyRefs.begin(),
                         bodyRefs.end());

    if (allDegraded) {
        *out = 0.0;
    } else if (func == "avg") {
        double sum = 0;
        for (double v : values)
            sum += v;
        *out = sum / double(values.size());
    } else if (func == "geomean") {
        double logSum = 0;
        for (double v : values) {
            if (v <= 0.0) {
                *why = "geomean(...): non-positive value " +
                       std::to_string(v) + " in the sweep";
                return false;
            }
            logSum += std::log(v);
        }
        *out = std::exp(logSum / double(values.size()));
    } else if (func == "min") {
        *out = *std::min_element(values.begin(), values.end());
    } else if (func == "max") {
        *out = *std::max_element(values.begin(), values.end());
    } else if (func == "sum") {
        double sum = 0;
        for (double v : values)
            sum += v;
        *out = sum;
    } else { // count: groups whose body evaluates nonzero
        std::size_t n = 0;
        for (double v : values)
            n += v != 0.0 ? 1 : 0;
        *out = double(n);
    }
    if (ctx.aggCache)
        (*ctx.aggCache)[start] = {*out, end, std::move(bodyRefs),
                                  allDegraded};
    return true;
}

bool
parseValue(Tokenizer &tz, const EvalCtx &ctx, double *out,
           std::string *why)
{
    const std::string *tok = tz.take();
    if (!tok) {
        *why = "expected a number, <machine>.<metric>, an aggregate, "
               "or '(', got end of expression";
        return false;
    }
    if (*tok == "(") {
        if (!parseSide(tz, ctx, out, why))
            return false;
        const std::string *close = tz.take();
        if (!close || *close != ")") {
            *why = "expected ')', got " +
                   (close ? "'" + *close + "'"
                          : std::string("end of expression"));
            return false;
        }
        return true;
    }
    if (isAggregateName(*tok) && tz.peek() && *tz.peek() == "(")
        return parseAggregate(tz, ctx, *tok, out, why);
    char *end = nullptr;
    double num = std::strtod(tok->c_str(), &end);
    if (end && *end == '\0' && end != tok->c_str()) {
        *out = num;
        return true;
    }
    return resolveRef(ctx, *tok, out, why);
}

bool
parseProduct(Tokenizer &tz, const EvalCtx &ctx, double *out,
             std::string *why)
{
    if (!parseValue(tz, ctx, out, why))
        return false;
    while (const std::string *tok = tz.peek()) {
        if (*tok != "*" && *tok != "/")
            break;
        tz.take();
        double rhs = 0;
        if (!parseValue(tz, ctx, &rhs, why))
            return false;
        if (*tok == "/" && rhs == 0.0) {
            // Fail closed: a guard must not silently pass because the
            // run it divides by never finished (ticks == 0) — unless
            // the evaluation already touched a failed point, in which
            // case zeros are expected and the on_failed_points policy
            // (not a spurious division error) decides the outcome.
            if (ctx.sawFailed && *ctx.sawFailed) {
                *out = 0.0;
                continue;
            }
            *why = "division by zero";
            return false;
        }
        *out = *tok == "*" ? *out * rhs : *out / rhs;
    }
    return true;
}

bool
parseSide(Tokenizer &tz, const EvalCtx &ctx, double *out,
          std::string *why)
{
    if (!parseProduct(tz, ctx, out, why))
        return false;
    while (const std::string *tok = tz.peek()) {
        if (*tok != "+" && *tok != "-")
            break;
        tz.take();
        double rhs = 0;
        if (!parseProduct(tz, ctx, &rhs, why))
            return false;
        *out = *tok == "+" ? *out + rhs : *out - rhs;
    }
    return true;
}

bool
compare(double lhs, const std::string &op, double rhs)
{
    if (op == "<")
        return lhs < rhs;
    if (op == "<=")
        return lhs <= rhs;
    if (op == ">")
        return lhs > rhs;
    if (op == ">=")
        return lhs >= rhs;
    if (op == "==")
        return lhs == rhs;
    return lhs != rhs; // "!="
}

/** Evaluate one assert against one coordinate group. Returns false +
 *  @p why on a malformed expression; otherwise sets @p holds, the
 *  evaluated sides, the sweep-axis keys the evaluation consulted,
 *  and the resolved-reference echoes. */
bool
evaluateOne(const std::string &text, const Scenario &sc,
            const MetricFrame &frame, std::size_t group, bool *holds,
            double *lhs, double *rhs, std::set<std::string> *consulted,
            std::vector<RefEcho> *refs, AggCache *aggCache,
            bool *sawFailed, std::string *why)
{
    Tokenizer tz(text);
    EvalCtx ctx{sc,   frame, group,    /*inAggregate=*/false,
                consulted, refs,  aggCache, sawFailed};
    if (!parseSide(tz, ctx, lhs, why))
        return false;
    const std::string *op = tz.take();
    if (!op || !isComparison(*op)) {
        *why = "expected a comparison (<, <=, >, >=, ==, !=), got " +
               (op ? "'" + *op + "'" : std::string("end of expression"));
        return false;
    }
    const std::string cmp = *op;
    if (!parseSide(tz, ctx, rhs, why))
        return false;
    if (const std::string *extra = tz.peek()) {
        *why = "unexpected trailing token '" + *extra + "'";
        return false;
    }
    *holds = compare(*lhs, cmp, *rhs);
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

/** The part of group @p coords an evaluation depended on: the
 *  "key=value" join over the consulted axes, in coordinate order. */
std::string
projectionLabel(const std::vector<MetricFrame::Coord> &coords,
                const std::set<std::string> &consulted)
{
    std::string out;
    for (const MetricFrame::Coord &c : coords) {
        if (!consulted.count(c.first))
            continue;
        if (!out.empty())
            out += " ";
        out += c.first + "=" + c.second;
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
    if (sc.report.asserts.empty())
        return true;
    const FailedPointPolicy policy = sc.report.onFailedPoints;
    for (const ReportAssert &a : sc.report.asserts) {
        // An evaluation depends on the group only through the axes its
        // references consult (none for aggregate-only "suite claims";
        // the unpinned axes for cross-axis references). Groups that
        // agree on every consulted axis evaluate identically, so each
        // distinct projection is evaluated — and can fail — once.
        // Degraded evaluations never claim their projection: a later
        // clean group with the same projection must still evaluate.
        AggCache aggCache;
        std::set<std::string> consulted;
        std::set<std::string> seen;
        bool consultedKnown = false;
        for (std::size_t g = 0; g < frame.numGroups(); ++g) {
            if (consultedKnown &&
                seen.count(
                    projectionLabel(frame.groupCoords(g), consulted)))
                continue;
            bool holds = false;
            bool sawFailed = false;
            double lhs = 0, rhs = 0;
            std::vector<RefEcho> refs;
            std::string why;
            if (!evaluateOne(a.text, sc, frame, g, &holds, &lhs, &rhs,
                             &consulted, &refs, &aggCache, &sawFailed,
                             &why)) {
                if (err)
                    *err = specError(sc.specPath, a.line,
                                     "assert '" + a.text + "': " + why);
                return false;
            }
            consultedKnown = true;
            std::string where =
                projectionLabel(frame.groupCoords(g), consulted);

            // A group-dependent evaluation is degraded when its group
            // contains a failed point (even one its references missed:
            // the group is the evaluation unit) or its references
            // reached a failed point elsewhere. Suite claims (nothing
            // consulted) are degraded only through their aggregates.
            const bool degraded =
                sawFailed ||
                (!consulted.empty() && frame.groupHasFailure(g));
            if (degraded) {
                if (skippedGroups)
                    ++*skippedGroups;
                if (policy == FailedPointPolicy::RequireAll) {
                    failures->push_back(
                        {a.text, a.line,
                         "references failed point(s) at " +
                             (where.empty() ? "the whole sweep"
                                            : where) +
                             " (on_failed_points=require_all)"});
                }
            } else {
                seen.insert(where);
                if (!holds) {
                    failures->push_back(
                        {a.text, a.line,
                         failureDetail(lhs, rhs,
                                       where.empty()
                                           ? "the whole sweep"
                                           : where,
                                       refs)});
                }
            }
            // Nothing consulted the group: one evaluation covers the
            // sweep.
            if (consulted.empty())
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

/** One [table] cell, footer or footer line: @p cell's expression at
 *  @p group, as text — `-` when the evaluation touches a degraded
 *  group (or an aggregate lost every group to degradation). */
bool
evaluateCell(const Scenario &sc, const MetricFrame &frame,
             const TableCell &cell, std::size_t group,
             const std::string *suite, std::set<std::string> *consulted,
             AggCache *aggCache, std::string *text, std::string *err)
{
    bool sawFailed = false;
    bool touched = false;
    EvalCtx ctx{sc,       frame,    group,     /*inAggregate=*/false,
                consulted, nullptr, aggCache, &sawFailed,
                &touched,  suite};
    Tokenizer tz(cell.expr);
    double v = 0;
    std::string why;
    if (parseSide(tz, ctx, &v, &why) && tz.peek())
        why = "unexpected trailing token '" + *tz.peek() + "'";
    if (!why.empty()) {
        *err = specError(sc.specPath, cell.line,
                         "'" + cell.label + " = " + cell.expr + "': " + why);
        return false;
    }
    *text = sawFailed || touched ? "-" : formatCell(v);
    return true;
}

/** A [table] resolved against the frame: its label axes (the union of
 *  the axes its columns consult) and one representative group per
 *  distinct projection onto them, in first-seen grid order. */
struct TablePlan {
    const TableSpec *spec = nullptr;
    std::vector<std::string> axes;
    std::vector<std::size_t> rowGroups;
    /** Per column: aggregate values are group-independent, so each
     *  column folds the sweep once, not once per row. */
    std::vector<AggCache> aggCaches;
    std::vector<std::string> footerLines;
};

/** Label cells plus one evaluated cell per column for plan row @p i. */
bool
tableRow(const Scenario &sc, const MetricFrame &frame, TablePlan &plan,
         std::size_t i, std::vector<std::string> *cells, std::string *err)
{
    const std::size_t g = plan.rowGroups[i];
    cells->clear();
    for (const MetricFrame::Coord &c : frame.groupCoords(g)) {
        if (std::find(plan.axes.begin(), plan.axes.end(), c.first) !=
            plan.axes.end())
            cells->push_back(c.second);
    }
    for (std::size_t c = 0; c < plan.spec->columns.size(); ++c) {
        std::string text;
        if (!evaluateCell(sc, frame, plan.spec->columns[c], g, nullptr,
                          nullptr, &plan.aggCaches[c], &text, err))
            return false;
        cells->push_back(std::move(text));
    }
    return true;
}

/** Resolve @p table against @p frame and evaluate every cell and
 *  footer once, so a bad expression is diagnosed before any output. */
bool
planTable(const Scenario &sc, const MetricFrame &frame,
          const TableSpec &table, TablePlan *plan, std::string *err)
{
    plan->spec = &table;
    plan->aggCaches.resize(table.columns.size());
    std::set<std::string> consulted;
    for (std::size_t c = 0; c < table.columns.size(); ++c) {
        std::string text;
        if (!evaluateCell(sc, frame, table.columns[c], 0, nullptr,
                          &consulted, &plan->aggCaches[c], &text, err))
            return false;
    }
    for (const MetricFrame::Coord &c : frame.groupCoords(0)) {
        if (consulted.count(c.first))
            plan->axes.push_back(c.first);
    }
    std::set<std::string> seen;
    for (std::size_t g = 0; g < frame.numGroups(); ++g) {
        if (seen.insert(projectionLabel(frame.groupCoords(g), consulted))
                .second)
            plan->rowGroups.push_back(g);
    }
    std::vector<std::string> cells;
    for (std::size_t i = 0; i < plan->rowGroups.size(); ++i) {
        if (!tableRow(sc, frame, *plan, i, &cells, err))
            return false;
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
            std::set<std::string> footerConsulted;
            std::string text;
            if (!evaluateCell(sc, frame, f, 0,
                              f.bySuite ? &suite : nullptr,
                              &footerConsulted, nullptr, &text, err))
                return false;
            if (!footerConsulted.empty()) {
                *err = specError(sc.specPath, f.line,
                                 "footer '" + f.label +
                                     "': per-point references must sit "
                                     "inside an aggregate");
                return false;
            }
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
        TablePlan &plan = plans[t];
        std::vector<std::string> header = plan.axes;
        for (const TableCell &c : plan.spec->columns)
            header.push_back(c.label);
        if (t > 0)
            os << "\n";
        writeGrid(
            os, plan.spec->title, header, plan.rowGroups.size(),
            [&](std::size_t i) {
                std::vector<std::string> cells;
                std::string ignored; // planTable evaluated every cell
                tableRow(sc, frame, plan, i, &cells, &ignored);
                return cells;
            },
            markdown);
        if (!plan.footerLines.empty())
            os << "\n";
        for (const std::string &line : plan.footerLines)
            os << (markdown ? "- " : "") << line << "\n";
    }
    return true;
}

} // namespace misp::driver
