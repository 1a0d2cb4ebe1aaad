/**
 * @file
 * Report layer: the `assert = <expr>` evaluator that guards paper
 * claims from the scenario file itself, and the `[table]` renderer
 * that prints the paper's tables and figures from it. Both are
 * queries over the harness::MetricFrame the runner builds from a
 * sweep's results, and share one expression grammar.
 *
 * Assert grammar (tokens are whitespace-separated, so machine names
 * like `1x4+4` never collide with operators; parentheses are
 * self-delimiting and may hug their operands):
 *
 *   assert      := side CMP side
 *   side        := product (('+' | '-') product)*
 *   product     := value (('*' | '/') value)*
 *   value       := NUMBER | REF | AGG '(' side ')' | '(' side ')'
 *   CMP         := '<' | '<=' | '>' | '>=' | '==' | '!='
 *   AGG         := avg | geomean | min | max | sum | count
 *   REF         := <machine> SELECTOR? '.' <metric>
 *   SELECTOR    := '[' axis '=' value (',' axis '=' value)* ']'
 *   metric      := ticks | mcycles | speedup | insts | valid
 *                | completed | failed | attempts | events.<counter>
 *                | events_per_mi.<counter>
 *
 * `<machine>` names a [machine] section; `speedup` is relative to the
 * [report] baseline_machine. `<counter>` uses the JSON event keys
 * (oms_syscalls, oms_page_faults, timer, interrupts, ams_syscalls,
 * ams_page_faults, serializations, serialize_cycles, priv_cycles,
 * proxy_signal_cycles, proxy_requests, suspended_cycles);
 * `events_per_mi` normalizes per 10^6 retired instructions.
 *
 * A plain assert is evaluated once per sweep-coordinate combination
 * (one MetricFrame group) and must hold at every one of them (e.g. for
 * every workload of a Figure-4 grid). Examples:
 *
 *   assert = misp.speedup >= 0.9 * smp8.speedup
 *   assert = ( s5000.ticks - s0.ticks ) / s0.ticks <= 0.02
 *
 * Cross-axis SELECTORs address *other* coordinate combinations from
 * the current one: `misp[machine.signal_cycles=5000].ticks` is the
 * ticks of machine `misp` at the group whose coordinates equal the
 * current group's with the `machine.signal_cycles` axis forced to
 * 5000. Each selector axis must name a swept coordinate of the group,
 * and selector values are numerically normalized against the axis's
 * actual values — `misp[machine.signal_cycles=5e3].ticks` addresses
 * the axis value spelled `5000` (an exact spelling match wins; a value
 * matching no axis value, numerically or verbatim, is a malformed
 * selector and diagnoses the axis's values).
 * The Figure-5 cost-sensitivity shape needs no per-cost machine
 * sections this way:
 *
 *   assert = misp[machine.signal_cycles=5000].ticks <=
 *            1.03 * misp[machine.signal_cycles=0].ticks
 *
 * AGG aggregates evaluate their body once per coordinate group and
 * fold the results across the whole sweep: `avg` / `min` / `max` /
 * `sum` are the usual folds, `geomean` is the geometric mean (every
 * value must be positive), and `count` counts the groups whose body
 * evaluates nonzero. An assert whose references are all inside
 * aggregates is group-independent and is checked once per sweep
 * ("suite claims" — Figure 4's suite-average speedup, Table 1's
 * suite-average event rates):
 *
 *   assert = geomean ( misp.speedup ) >= 1.5
 *   assert = count ( misp.valid ) == count ( 1 )
 *
 * Aggregates and per-group references compose: an aggregate inside a
 * per-group assert is a sweep-wide constant (e.g.
 * `misp.speedup >= 0.5 * avg ( misp.speedup )` bounds the spread).
 *
 * Failing asserts echo every resolved reference's value in
 * AssertFailure::detail — aggregate bodies echo per coordinate group,
 * so a failing suite-average claim names the offending points.
 *
 * Graceful degradation: grid points that failed for infrastructure
 * reasons (worker crash/timeout, snapshot error — `failed` = 1) make
 * their coordinate group *degraded*. Aggregates always exclude
 * degraded groups from their folds (and echo the skipped count into
 * the failure detail), so `count ( misp.completed ) == count ( 1 )`
 * still holds over the survivors. What happens to per-group
 * evaluations that touch a degraded group is the
 * `[report] on_failed_points` policy's call: `fail` (default) and
 * `skip` skip the evaluation (counted in evaluateAsserts'
 * @p skippedGroups), `require_all` turns it into an assert failure.
 * The policies differ only in `mispsim`'s exit code: failed points
 * exit 1 under `fail`/`require_all` but 4 ("completed with failed
 * points") under `skip`.
 *
 * Tables. A `[table]` section declares one paper table as data:
 *
 *   [table]
 *   title  = <text>
 *   column = <label> = side                 (repeatable, in order)
 *   footer = <label> = side [by suite]      (repeatable)
 *
 * Rows come from the expressions: a column's evaluation consults the
 * sweep axes its bare references depend on, or the axes its
 * selectors leave unpinned (none inside aggregates). The table has
 * one row per distinct projection of the sweep's coordinate groups
 * onto the union of the axes its columns consult, in first-seen grid
 * order, and those axes' values lead each row as label columns. So
 *
 *   column = 5000cyc = misp[machine.signal_cycles=5000].ticks /
 *                      misp[machine.signal_cycles=0].ticks
 *
 * over a workload x signal_cycles sweep gives one row per workload.
 * Cells print integral values as integers and everything else with
 * three decimals; a cell whose evaluation touches a degraded group
 * prints `-`. A footer is a sweep-wide value — its per-point
 * references must sit inside an aggregate — printed as `label: value`
 * under the grid; aggregates fold over non-degraded groups only.
 * `by suite` prints one footer line per workload-registry suite
 * present in the sweep, in registry order, each folding only the
 * groups whose workload belongs to that suite.
 */

#ifndef MISP_DRIVER_REPORT_HH
#define MISP_DRIVER_REPORT_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "driver/runner.hh"

namespace misp::driver {

/** One failed (but well-formed) assert at one coordinate combination
 *  (or once per sweep, for aggregate-only suite claims). */
struct AssertFailure {
    std::string text; ///< the assert expression as written
    int line = 0;     ///< spec line of the assert
    /** "lhs=... rhs=... at <coords>" plus every resolved reference's
     *  value (aggregate bodies suffixed with their coordinate group),
     *  so the failing points are named. */
    std::string detail;
};

/**
 * Evaluate every [report] assert against the sweep's metric frame.
 * Returns false (and sets @p err to a "path:line: message" diagnostic)
 * on a malformed expression, an unresolvable reference, or a malformed
 * cross-axis selector; well-formed asserts that do not hold are
 * appended to @p failures. Evaluations touching degraded coordinate
 * groups follow the `[report] on_failed_points` policy (see the
 * grammar comment); when @p skippedGroups is non-null it receives the
 * number of per-group evaluations skipped because of failed points.
 */
bool evaluateAsserts(const Scenario &sc,
                     const harness::MetricFrame &frame,
                     std::vector<AssertFailure> *failures,
                     std::string *err,
                     std::size_t *skippedGroups = nullptr);

/**
 * Render every [table] of @p sc over @p frame, in file order, through
 * the shared grid emitter (GitHub-flavoured markdown when
 * @p markdown). Every cell and footer is evaluated before anything is
 * written: on a malformed expression, an unresolvable reference or a
 * footer outside an aggregate, nothing is emitted and @p err receives
 * a "path:line: message" diagnostic.
 */
bool writeTables(std::ostream &os, const Scenario &sc,
                 const harness::MetricFrame &frame, bool markdown,
                 std::string *err);

} // namespace misp::driver

#endif // MISP_DRIVER_REPORT_HH
