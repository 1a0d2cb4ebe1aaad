#include "driver/expr.hh"

#include <algorithm>
#include <cstdlib>
#include <iterator>
#include <sstream>

#include "driver/scenario.hh"
#include "harness/metric_frame.hh"

namespace misp::driver {

namespace {

/** Whitespace-separated tokens, with parentheses split out as tokens
 *  of their own ("avg(a + b)" and "avg ( a + b )" parse alike).
 *  Machine and metric names never contain them, so this cannot split
 *  a reference; square brackets stay inside their token. */
std::vector<std::string>
tokenize(std::string text)
{
    for (std::size_t at = 0;
         (at = text.find_first_of("()", at)) != std::string::npos; at += 3)
        text.insert(at + 1, " ").insert(at, " ");
    std::istringstream is(text);
    return {std::istream_iterator<std::string>(is),
            std::istream_iterator<std::string>()};
}

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

/** The recursive descent of report.hh's grammar. References are only
 *  recorded here; resolve() names them once the whole text parsed. */
struct Parser {
    std::vector<std::string> toks;
    std::size_t pos = 0;
    Expr *out;
    std::string *why;
    int aggDepth = 0;
    /** Ref nodes outside every aggregate: what the value consults. */
    std::vector<std::size_t> groupRefs;

    const std::string *peek() const
    {
        return pos < toks.size() ? &toks[pos] : nullptr;
    }
    std::string got(const std::string *tok) const
    {
        return tok ? "'" + *tok + "'" : std::string("end of expression");
    }
    std::size_t push(ExprNode n)
    {
        out->nodes.push_back(std::move(n));
        return out->nodes.size() - 1;
    }
    std::size_t binary(ExprNode::Kind kind, const std::string &op,
                       std::size_t lhs, std::size_t rhs)
    {
        ExprNode n;
        n.kind = kind;
        n.text = op;
        n.lhs = lhs;
        n.rhs = rhs;
        return push(std::move(n));
    }

    /** `side := product (('+' | '-') product)*`, and `product` the same
     *  over `value` with '*' and '/'. */
    bool chain(bool sum, std::size_t *at)
    {
        if (!(sum ? chain(false, at) : value(at)))
            return false;
        while (peek() && (sum ? *peek() == "+" || *peek() == "-"
                              : *peek() == "*" || *peek() == "/")) {
            const std::string &op = toks[pos++];
            std::size_t rhs = 0;
            if (!(sum ? chain(false, &rhs) : value(&rhs)))
                return false;
            *at = binary(ExprNode::Kind::Arith, op, *at, rhs);
        }
        return true;
    }
    bool side(std::size_t *at) { return chain(true, at); }

    bool close(const std::string &what)
    {
        const std::string *tok = peek();
        if (tok && *tok == ")") {
            ++pos;
            return true;
        }
        *why = "expected ')'" + what + ", got " + got(tok);
        return false;
    }

    bool value(std::size_t *at)
    {
        const std::string *tok = peek();
        if (!tok) {
            *why = "expected a number, <machine>.<metric>, an aggregate, "
                   "or '(', got end of expression";
            return false;
        }
        ++pos;
        if (*tok == "(")
            return side(at) && close("");
        ExprNode n;
        n.text = *tok;
        if (isAggregateName(*tok) && peek() && *peek() == "(") {
            ++pos;
            ++aggDepth;
            if (!side(&n.lhs) || !close(" closing " + *tok + "(...)"))
                return false;
            --aggDepth;
            n.kind = ExprNode::Kind::Aggregate;
            *at = push(std::move(n));
            return true;
        }
        n.kind = parseNumber(*tok, &n.number) ? ExprNode::Kind::Number
                                              : ExprNode::Kind::Ref;
        *at = push(std::move(n));
        if (out->nodes[*at].kind == ExprNode::Kind::Ref && aggDepth == 0)
            groupRefs.push_back(*at);
        return true;
    }
};

/** Resolve Ref node @p n's machine, selector and metric against @p sc
 *  and the spec's axis keys @p axes. */
bool
resolve(const Scenario &sc, const std::vector<std::string> &axes,
        ExprNode &n, std::string *why)
{
    const std::string &ref = n.text;
    auto fail = [&](const std::string &msg) {
        *why = "'" + ref + "'" + msg;
        return false;
    };
    std::size_t bracket = ref.find('[');
    if (bracket != std::string::npos) {
        // Cross-axis form: the '[' delimits the machine name exactly.
        n.machine = ref.substr(0, bracket);
        bool known = false;
        for (const MachineSpec &m : sc.machines)
            known = known || m.name == n.machine;
        if (!known)
            return fail(": '" + n.machine + "' names no [machine] section");
        std::size_t closeAt = ref.find(']', bracket);
        if (closeAt == std::string::npos)
            return fail(": missing ']' after the selector");
        if (closeAt + 2 >= ref.size() || ref[closeAt + 1] != '.')
            return fail(": expected '.<metric>' after ']'");
        n.metric = ref.substr(closeAt + 2);
        const std::string body =
            ref.substr(bracket + 1, closeAt - bracket - 1);
        for (std::size_t at = 0; at <= body.size();) {
            std::size_t comma = std::min(body.find(',', at), body.size());
            std::string item = body.substr(at, comma - at);
            std::size_t eq = item.find('=');
            if (eq == std::string::npos || eq == 0 || eq + 1 >= item.size())
                return fail(": selector '" + item + "' is not axis=value");
            n.pins.emplace_back(item.substr(0, eq), item.substr(eq + 1));
            if (std::find(axes.begin(), axes.end(), n.pins.back().first) ==
                axes.end()) {
                std::string list;
                for (const std::string &a : axes)
                    list += (list.empty() ? "" : ", ") + a;
                return fail(": selector axis '" + n.pins.back().first +
                            "' names no sweep coordinate (axes: " +
                            (list.empty() ? "none" : list) + ")");
            }
            at = comma + 1;
        }
    } else {
        // Plain form: the machine is the longest [machine] name that
        // prefixes the reference followed by '.' (names may contain
        // '.', so the longest match wins).
        for (const MachineSpec &m : sc.machines) {
            if (ref.size() > m.name.size() + 1 &&
                ref.compare(0, m.name.size(), m.name) == 0 &&
                ref[m.name.size()] == '.' &&
                m.name.size() > n.machine.size())
                n.machine = m.name;
        }
        if (n.machine.empty())
            return fail(" names no [machine] section");
        n.metric = ref.substr(n.machine.size() + 1);
    }

    // An empty frame has every column but `speedup`, which exists only
    // under a [report] baseline_machine.
    static const harness::MetricFrame kColumns;
    if (n.metric == "speedup") {
        if (sc.report.baselineMachine.empty())
            return fail(": speedup needs a [report] baseline_machine");
    } else if (!kColumns.hasMetric(n.metric)) {
        if (n.metric.rfind("events.", 0) == 0 ||
            n.metric.rfind("events_per_mi.", 0) == 0)
            return fail(": unknown event counter");
        return fail(": unknown metric '" + n.metric + "'");
    }
    return true;
}

} // namespace

bool
parseNumber(const std::string &s, double *out)
{
    char *end = nullptr;
    *out = std::strtod(s.c_str(), &end);
    return !s.empty() && end && *end == '\0';
}

bool
Expr::consults(const std::string &axis) const
{
    return std::find(consulted.begin(), consulted.end(), axis) !=
           consulted.end();
}

bool
compileExpr(const std::string &text, bool comparison, const Scenario &sc,
            Expr *out, std::string *why)
{
    *out = Expr{};
    Parser p{tokenize(text), 0, out, why, 0, {}};
    std::size_t root = 0;
    if (!p.side(&root))
        return false;
    if (comparison) {
        const std::string *op = p.peek();
        if (!op || !isComparison(*op)) {
            *why = "expected a comparison (<, <=, >, >=, ==, !=), got " +
                   p.got(op);
            return false;
        }
        ++p.pos;
        std::size_t rhs = 0;
        if (!p.side(&rhs))
            return false;
        p.binary(ExprNode::Kind::Compare, *op, root, rhs);
    }
    if (const std::string *extra = p.peek()) {
        *why = "unexpected trailing token '" + *extra + "'";
        return false;
    }

    std::vector<std::string> axes;
    for (const std::vector<SweepAxis> *list : {&sc.sweep, &sc.quick}) {
        for (const SweepAxis &a : *list) {
            if (std::find(axes.begin(), axes.end(), a.key) == axes.end())
                axes.push_back(a.key);
        }
    }
    for (ExprNode &n : out->nodes) {
        if (n.kind == ExprNode::Kind::Ref && !resolve(sc, axes, n, why))
            return false;
    }
    for (std::size_t r : p.groupRefs) {
        for (const std::string &axis : axes) {
            bool pinned = false;
            for (const auto &pin : out->nodes[r].pins)
                pinned = pinned || pin.first == axis;
            if (!pinned && !out->consults(axis))
                out->consulted.push_back(axis);
        }
    }
    return true;
}

} // namespace misp::driver
