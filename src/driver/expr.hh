/**
 * @file
 * Compiled `.scn` expressions: the `assert`, `column` and `footer`
 * grammar of driver/report.hh, parsed once when a spec loads
 * (Scenario::fromSpec) into a small tree whose names are already
 * resolved against the spec's machines, the frame's column vocabulary
 * and the sweep axes. The report layer only walks the tree over a
 * MetricFrame; nothing tokenizes expression text after load.
 */

#ifndef MISP_DRIVER_EXPR_HH
#define MISP_DRIVER_EXPR_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace misp::driver {

struct Scenario;

/** One node of a compiled expression. */
struct ExprNode {
    enum class Kind : std::uint8_t { Number, Ref, Aggregate, Arith, Compare };
    Kind kind = Kind::Number;
    double number = 0; ///< Number
    /** Ref: the reference as written (echoed into failure details);
     *  Aggregate: the function name; Arith and Compare: the operator. */
    std::string text;
    std::string machine; ///< Ref: the [machine] it reads
    std::string metric;  ///< Ref: the frame column it reads
    /** Ref: the `[axis=value,...]` selector's pins, values as written
     *  (they are matched against the frame's axis values when
     *  evaluated); empty for a plain reference. */
    std::vector<std::pair<std::string, std::string>> pins;
    /** Arith and Compare operands, as node indices; an Aggregate's
     *  body is `lhs`. */
    std::size_t lhs = 0, rhs = 0;
};

/** A compiled expression: nodes in post-order (children before their
 *  parent), so the root is the last node. */
struct Expr {
    std::vector<ExprNode> nodes;
    /** The [sweep]/[quick] axes the value depends on: every axis for a
     *  reference outside an aggregate, less the axes its selector pins.
     *  Empty for a sweep-wide value (every reference inside an
     *  aggregate). */
    std::vector<std::string> consulted;

    std::size_t root() const { return nodes.size() - 1; }
    bool consults(const std::string &axis) const;
};

/** The grammar's NUMBER rule: all of @p s is one strtod number. */
bool parseNumber(const std::string &s, double *out);

/**
 * Parse @p text as an assert (a comparison, when @p comparison) or as
 * a table `side`, and resolve its names against @p sc: machines, frame
 * columns, `speedup`'s baseline and selector axes. Syntax errors are
 * reported before name errors. False + @p why (no "path:line:"
 * prefix) on failure.
 */
bool compileExpr(const std::string &text, bool comparison,
                 const Scenario &sc, Expr *out, std::string *why);

} // namespace misp::driver

#endif // MISP_DRIVER_EXPR_HH
