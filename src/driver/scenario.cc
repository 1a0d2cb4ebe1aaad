#include "scenario.hh"

#include <algorithm>
#include <string_view>
#include <unordered_set>

#include "sim/logging.hh"

namespace misp::driver {

// ---------------------------------------------------------------------
// MachineSpec
// ---------------------------------------------------------------------

arch::SystemConfig
MachineSpec::toSystemConfig() const
{
    arch::SystemConfig sys = arch::SystemConfig::mp(amsPerProcessor);
    sys.misp.engine = engine;
    sys.misp.signalCycles = signalCycles;
    sys.misp.contextXferCycles = contextXferCycles;
    sys.misp.sliceLimit = sliceLimit;
    sys.misp.serialization = serialization;
    sys.physFrames = physFrames;
    sys.kernel.timerPeriod = timerPeriod;
    sys.kernel.deviceIrqMeanPeriod = deviceIrqMeanPeriod;
    sys.kernel.quantumTicks = quantumTicks;
    sys.kernel.rngSeed = kernelSeed;
    return sys;
}

bool
MachineSpec::apply(const std::string &key, const std::string &value,
                   std::string *err)
{
    auto bad = [&](const char *what) {
        if (err)
            *err = key + ": expected " + what + ", got '" + value + "'";
        return false;
    };

    if (key == "processors") {
        std::vector<unsigned> counts;
        for (const std::string &tok : splitList(value)) {
            unsigned v = 0;
            if (!parseUnsigned(tok, &v))
                return bad("a comma list of AMS counts");
            counts.push_back(v);
        }
        if (counts.empty())
            return bad("a comma list of AMS counts");
        amsPerProcessor = std::move(counts);
        return true;
    }
    if (key == "ams") {
        unsigned v = 0;
        if (!parseUnsigned(value, &v))
            return bad("an AMS count");
        amsPerProcessor = {v};
        return true;
    }
    if (key == "backend") {
        if (value == "shred")
            backend = rt::Backend::Shred;
        else if (value == "os")
            backend = rt::Backend::OsThread;
        else
            return bad("'shred' or 'os'");
        return true;
    }
    if (key == "engine")
        return cpu::parseEngineName(value, &engine) ||
               bad("'ref' or 'superblock'");
    if (key == "signal_cycles")
        return parseU64(value, &signalCycles) || bad("a cycle count");
    if (key == "context_xfer_cycles")
        return parseU64(value, &contextXferCycles) || bad("a cycle count");
    if (key == "slice_limit")
        return parseUnsigned(value, &sliceLimit) || bad("an integer");
    if (key == "serialization") {
        if (value == "suspend_all")
            serialization = arch::SerializationPolicy::SuspendAll;
        else if (value == "speculative_monitor")
            serialization = arch::SerializationPolicy::SpeculativeMonitor;
        else
            return bad("'suspend_all' or 'speculative_monitor'");
        return true;
    }
    if (key == "phys_frames")
        return parseU64(value, &physFrames) || bad("a frame count");
    if (key == "timer_period")
        return parseU64(value, &timerPeriod) || bad("a tick count");
    if (key == "device_irq_mean_period")
        return parseU64(value, &deviceIrqMeanPeriod) ||
               bad("a tick count (0 disables device IRQs)");
    if (key == "quantum_ticks")
        return parseUnsigned(value, &quantumTicks) || bad("an integer");
    if (key == "kernel_seed")
        return parseU64(value, &kernelSeed) || bad("an integer seed");
    if (key == "pin_min_ams")
        return parseUnsigned(value, &pinMinAms) || bad("an AMS count");
    if (key == "ideal_placement")
        return parseBool(value, &idealPlacement) || bad("a boolean");

    if (err)
        *err = "unknown machine knob '" + key + "'";
    return false;
}

// ---------------------------------------------------------------------
// WorkloadSpec
// ---------------------------------------------------------------------

bool
WorkloadSpec::apply(const std::string &key, const std::string &value,
                    std::string *err)
{
    if (key == "name") {
        name = value;
        return true;
    }
    return wl::setWorkloadParam(params, key, value, err);
}

// ---------------------------------------------------------------------
// PointCoords
// ---------------------------------------------------------------------

PointCoords::PointCoords(std::shared_ptr<const GridTable> table,
                         std::size_t combo, std::size_t machine)
    : table_(std::move(table)), combo_(static_cast<std::uint32_t>(combo)),
      machine_(static_cast<std::uint32_t>(machine))
{}

// ---------------------------------------------------------------------
// Scenario
// ---------------------------------------------------------------------

namespace {

/** Set @p err (when non-null) to a "path:line: message" diagnostic;
 *  false, so a failing check reads `return fail(...)`. */
bool
fail(std::string *err, const std::string &path, int line,
     const std::string &message)
{
    if (err)
        *err = specError(path, line, message);
    return false;
}

/** The first axis a selector of @p e pins that @p axes does not
 *  sweep, or nullptr. */
const std::string *
unsweptPin(const Expr &e, const std::vector<SweepAxis> &axes)
{
    for (const ExprNode &n : e.nodes) {
        for (const auto &[axis, value] : n.pins) {
            const auto swept = [&](const SweepAxis &a) {
                return a.key == axis;
            };
            if (std::none_of(axes.begin(), axes.end(), swept))
                return &axis;
        }
    }
    return nullptr;
}

bool
validAxisKey(const std::string &key)
{
    return key == "competitors" || key.rfind("workload.", 0) == 0 ||
           key.rfind("machine.", 0) == 0;
}

bool
parseAxes(const SpecFile &spec, const SpecSection &sec,
          std::vector<SweepAxis> *out, std::string *err)
{
    for (const SpecEntry &e : sec.entries) {
        if (!validAxisKey(e.key))
            return fail(err, spec.path, e.line,
                        "unknown sweep axis '" + e.key +
                        "' (expected 'competitors', 'workload.<param>' or "
                        "'machine.<knob>')");
        // List-valued knobs cannot be an axis: the comma-split below
        // would silently turn one topology into several scalar points.
        if (e.key == "machine.processors")
            return fail(err, spec.path, e.line,
                        "machine.processors cannot be swept "
                        "(its value is a comma list); define "
                        "one [machine] section per topology instead");
        SweepAxis axis;
        axis.key = e.key;
        axis.line = e.line;
        std::string msg;
        if (!expandValues(e.value, &axis.values, &msg))
            return fail(err, spec.path, e.line, msg);
        if (axis.values.empty())
            return fail(err, spec.path, e.line,
                        "axis '" + e.key + "' has no values");
        out->push_back(std::move(axis));
    }
    return true;
}

/** One [table] section. `column` and `footer` values are
 *  `<label> = <expr>`; a footer may end in `by suite`. The
 *  expressions compile once every section is read (compileAll). */
bool
parseTable(const SpecFile &spec, const SpecSection &sec,
           std::vector<TableSpec> *out, std::string *err)
{
    TableSpec table;
    for (const SpecEntry &e : sec.entries) {
        if (e.key == "title") {
            table.title = e.value;
            continue;
        }
        if (e.key != "column" && e.key != "footer")
            return fail(err, spec.path, e.line,
                        "unknown [table] key '" + e.key +
                            "' (expected title, column or footer)");
        TableCell cell;
        cell.line = e.line;
        std::size_t eq = e.value.find('=');
        if (eq != std::string::npos) {
            cell.label = trim(e.value.substr(0, eq));
            cell.expr = trim(e.value.substr(eq + 1));
        }
        static const std::string kBySuite = " by suite";
        if (e.key == "footer" && cell.expr.size() > kBySuite.size() &&
            cell.expr.compare(cell.expr.size() - kBySuite.size(),
                              std::string::npos, kBySuite) == 0) {
            cell.bySuite = true;
            cell.expr = trim(
                cell.expr.substr(0, cell.expr.size() - kBySuite.size()));
        }
        if (cell.label.empty() || cell.expr.empty())
            return fail(err, spec.path, e.line,
                        e.key + ": expected '<label> = <expr>', "
                                "got '" + e.value + "'");
        (e.key == "column" ? table.columns : table.footers)
            .push_back(std::move(cell));
    }
    if (table.columns.empty())
        return fail(err, spec.path, sec.line,
                    "[table] needs at least one 'column'");
    out->push_back(std::move(table));
    return true;
}

/** Compile every assert, column and footer of @p sc (names resolve
 *  against the whole spec, so this runs after the last section). */
bool
compileAll(Scenario &sc, std::string *err)
{
    std::string why;
    for (ReportAssert &a : sc.report.asserts) {
        if (!compileExpr(a.text, true, sc, &a.tree, &why))
            return fail(err, sc.specPath, a.line,
                        "assert '" + a.text + "': " + why);
    }
    for (TableSpec &t : sc.tables) {
        for (std::vector<TableCell> *cells : {&t.columns, &t.footers}) {
            for (TableCell &c : *cells) {
                if (!compileExpr(c.expr, false, sc, &c.tree, &why))
                    return fail(err, sc.specPath, c.line,
                                "'" + c.label + " = " + c.expr + "': " + why);
                if (cells == &t.footers && !c.tree.consulted.empty())
                    return fail(err, sc.specPath, c.line,
                                "footer '" + c.label + "': per-point "
                                "references must sit inside an aggregate");
            }
        }
    }
    return true;
}

/** The point at @p coords of @p sc's grid: the machine and workload
 *  with every swept value applied. False + a "path:line:" diagnostic
 *  when a value does not apply or, when @p validate, the machine is
 *  invalid. */
bool
resolvePoint(const Scenario &sc, const PointCoords &coords, bool validate,
             ScenarioPoint *pt, std::string *err)
{
    pt->machine = sc.machines[coords.machineIndex()];
    pt->workload = sc.workload;
    pt->background = sc.background;
    pt->competitors = sc.competitors;
    pt->competitor = sc.competitor;
    pt->coords = coords;

    const std::vector<SweepAxis> &axes = coords.grid()->axes;
    for (std::size_t i = 0; i < axes.size(); ++i) {
        const std::string &key = axes[i].key;
        const std::string &value = coords.value(i);
        std::string msg;
        bool ok;
        if (key == "competitors") {
            ok = parseUnsigned(value, &pt->competitors);
            if (!ok)
                msg = "competitors: expected an integer, got '" + value + "'";
        } else if (key.rfind("workload.", 0) == 0) {
            ok = pt->workload.apply(key.substr(9), value, &msg);
        } else { // machine.<knob>
            ok = pt->machine.apply(key.substr(8), value, &msg) &&
                 (!validate || pt->machine.toSystemConfig().validate(&msg));
        }
        if (!ok)
            return fail(err, sc.specPath, axes[i].line, msg);
    }

    if (!wl::findWorkload(pt->workload.name)) {
        if (err)
            *err = sc.specPath + ": swept workload '" + pt->workload.name +
                   "' is not registered";
        return false;
    }
    return true;
}

} // namespace

bool
Scenario::fromSpec(const SpecFile &spec, Scenario *out, std::string *err)
{
    *out = Scenario{};
    out->specPath = spec.path;

    bool sawWorkload = false;
    for (const SpecSection &sec : spec.sections) {
        if (sec.type == "scenario") {
            for (const SpecEntry &e : sec.entries) {
                if (e.key == "name")
                    out->name = e.value;
                else if (e.key == "title")
                    out->title = e.value;
                else {
                    return fail(err, spec.path, e.line,
                                "unknown [scenario] key '" + e.key + "'");
                }
            }
        } else if (sec.type == "machine") {
            MachineSpec m;
            m.name = sec.name.empty() ? "machine" : sec.name;
            for (const MachineSpec &prev : out->machines) {
                if (prev.name == m.name)
                    return fail(err, spec.path, sec.line,
                                "duplicate machine name '" + m.name + "'");
            }
            for (const SpecEntry &e : sec.entries) {
                std::string msg;
                if (!m.apply(e.key, e.value, &msg) ||
                    !m.toSystemConfig().validate(&msg))
                    return fail(err, spec.path, e.line, msg);
            }
            out->machines.push_back(std::move(m));
        } else if (sec.type == "workload") {
            WorkloadSpec w;
            for (const SpecEntry &e : sec.entries) {
                std::string msg;
                if (!w.apply(e.key, e.value, &msg))
                    return fail(err, spec.path, e.line, msg);
            }
            if (!wl::findWorkload(w.name))
                return fail(err, spec.path, sec.line,
                            w.name.empty()
                                ? std::string("[workload] section "
                                              "needs a 'name' key")
                                : "unknown workload '" + w.name + "'");
            if (!sawWorkload) {
                out->workload = std::move(w);
                sawWorkload = true;
            } else {
                out->background.push_back(std::move(w));
            }
        } else if (sec.type == "run") {
            for (const SpecEntry &e : sec.entries) {
                if (e.key == "max_ticks") {
                    if (!parseU64(e.value, &out->maxTicks))
                        return fail(err, spec.path, e.line,
                                    "max_ticks: expected a tick count");
                } else if (e.key == "competitors") {
                    if (!parseUnsigned(e.value, &out->competitors))
                        return fail(err, spec.path, e.line,
                                    "competitors: expected an integer");
                } else if (e.key == "competitor") {
                    if (!wl::findWorkload(e.value))
                        return fail(err, spec.path, e.line,
                                    "unknown competitor workload "
                                    "'" + e.value + "'");
                    out->competitor = e.value;
                } else if (e.key == "point_deadline_ms") {
                    if (!parseU64(e.value, &out->pointDeadlineMs))
                        return fail(err, spec.path, e.line,
                                    "point_deadline_ms: expected "
                                    "a millisecond count");
                } else if (e.key == "retries") {
                    if (!parseUnsigned(e.value, &out->retries))
                        return fail(err, spec.path, e.line,
                                    "retries: expected an integer");
                } else if (e.key == "retry_backoff_ms") {
                    if (!parseUnsigned(e.value, &out->retryBackoffMs))
                        return fail(err, spec.path, e.line,
                                    "retry_backoff_ms: expected "
                                    "a millisecond count");
                } else {
                    return fail(err, spec.path, e.line,
                                "unknown [run] key '" + e.key + "'");
                }
            }
        } else if (sec.type == "snapshot") {
            for (const SpecEntry &e : sec.entries) {
                if (e.key == "warmup_ticks") {
                    if (!parseU64(e.value, &out->snapshotWarmupTicks))
                        return fail(err, spec.path, e.line,
                                    "warmup_ticks: expected a tick count");
                } else {
                    return fail(err, spec.path, e.line,
                                "unknown [snapshot] key '" + e.key + "'");
                }
            }
        } else if (sec.type == "trace") {
            for (const SpecEntry &e : sec.entries) {
                if (e.key == "categories") {
                    std::string msg;
                    if (!obs::parseTraceCats(e.value, &out->trace.catMask,
                                             &msg))
                        return fail(err, spec.path, e.line, msg);
                } else if (e.key == "max_events") {
                    if (!parseU64(e.value, &out->trace.maxEvents))
                        return fail(err, spec.path, e.line,
                                    "max_events: expected an event count");
                } else {
                    return fail(err, spec.path, e.line,
                                "unknown [trace] key '" + e.key + "'");
                }
            }
        } else if (sec.type == "faults") {
            for (const SpecEntry &e : sec.entries) {
                std::string msg;
                if (e.key == "seed") {
                    if (!parseU64(e.value, &out->faults.seed))
                        return fail(err, spec.path, e.line,
                                    "seed: expected an integer");
                    out->faults.seedSet = true;
                } else if (e.key == "inject") {
                    if (!FaultPlan::parseItem(e.value, &out->faults,
                                              &msg))
                        return fail(err, spec.path, e.line, msg);
                } else {
                    return fail(err, spec.path, e.line,
                                "unknown [faults] key '" + e.key + "'");
                }
            }
        } else if (sec.type == "sweep") {
            if (!parseAxes(spec, sec, &out->sweep, err))
                return false;
        } else if (sec.type == "quick") {
            if (!parseAxes(spec, sec, &out->quick, err))
                return false;
        } else if (sec.type == "report") {
            for (const SpecEntry &e : sec.entries) {
                if (e.key == "baseline_machine")
                    out->report.baselineMachine = e.value;
                else if (e.key == "baseline_axis")
                    out->report.baselineAxis = e.value;
                else if (e.key == "on_failed_points") {
                    if (e.value == "fail")
                        out->report.onFailedPoints =
                            FailedPointPolicy::Fail;
                    else if (e.value == "skip")
                        out->report.onFailedPoints =
                            FailedPointPolicy::Skip;
                    else if (e.value == "require_all")
                        out->report.onFailedPoints =
                            FailedPointPolicy::RequireAll;
                    else {
                        return fail(err, spec.path, e.line,
                                    "on_failed_points: expected "
                                    "'fail', 'skip' or 'require_all', got '" +
                                    e.value + "'");
                    }
                } else if (e.key == "assert") {
                    out->report.asserts.push_back({e.value, e.line, {}});
                } else {
                    return fail(err, spec.path, e.line,
                                "unknown [report] key '" + e.key + "'");
                }
            }
        } else if (sec.type == "table") {
            if (!parseTable(spec, sec, &out->tables, err))
                return false;
        } else {
            return fail(err, spec.path, sec.line,
                        "unknown section [" + sec.type + "]");
        }
    }

    if (out->machines.empty()) {
        if (err)
            *err = spec.path + ": no [machine] section";
        return false;
    }
    if (!sawWorkload) {
        if (err)
            *err = spec.path + ": no [workload] section";
        return false;
    }
    if (!out->report.baselineMachine.empty()) {
        bool found = false;
        for (const MachineSpec &m : out->machines)
            found = found || m.name == out->report.baselineMachine;
        if (!found) {
            if (err)
                *err = spec.path + ": [report] baseline_machine '" +
                       out->report.baselineMachine +
                       "' names no [machine] section";
            return false;
        }
    }
    if (!out->report.baselineAxis.empty()) {
        bool found = false;
        for (const SweepAxis &a : out->sweep)
            found = found || a.key == out->report.baselineAxis;
        if (!found) {
            if (err)
                *err = spec.path + ": [report] baseline_axis '" +
                       out->report.baselineAxis + "' names no sweep axis";
            return false;
        }
    }
    return compileAll(*out, err);
}

bool
Scenario::expandGrid(bool quickMode, std::shared_ptr<const GridTable> *out,
                     std::string *err) const
{
    // Resolve the effective axes: [quick] replaces same-key [sweep]
    // axes and appends new ones.
    std::vector<SweepAxis> axes = sweep;
    if (quickMode) {
        for (const SweepAxis &q : quick) {
            bool replaced = false;
            for (SweepAxis &a : axes) {
                if (a.key == q.key) {
                    a = q;
                    replaced = true;
                    break;
                }
            }
            if (!replaced)
                axes.push_back(q);
        }
    }

    // Selector axes resolve against [sweep] + [quick] at load, and a
    // full run sweeps no [quick]-only axis: a selector pinning one
    // fails here, before the first point, not after the grid ran.
    const auto unswept = [&](const Expr &e, int line,
                             const std::string &what) {
        const std::string *axis = unsweptPin(e, axes);
        if (axis)
            fail(err, specPath, line,
                 what + ": selector axis '" + *axis +
                     "' names no sweep coordinate (only [quick] sweeps it)");
        return axis != nullptr;
    };
    for (const ReportAssert &a : report.asserts) {
        if (unswept(a.tree, a.line, "assert '" + a.text + "'"))
            return false;
    }
    for (const TableSpec &t : tables) {
        for (const std::vector<TableCell> *cells : {&t.columns, &t.footers}) {
            for (const TableCell &c : *cells) {
                if (unswept(c.tree, c.line,
                            "'" + c.label + " = " + c.expr + "'"))
                    return false;
            }
        }
    }

    // Expand workload-name selectors ("all", "suite:rms") into names.
    for (SweepAxis &a : axes) {
        if (a.key != "workload.name")
            continue;
        std::vector<std::string> names;
        for (const std::string &sel : a.values) {
            std::string msg;
            std::vector<const wl::WorkloadInfo *> picked =
                wl::selectWorkloads(sel, &msg);
            if (picked.empty())
                return fail(err, specPath, a.line, msg);
            for (const wl::WorkloadInfo *info : picked)
                names.push_back(info->name);
        }
        a.values = std::move(names);
    }

    // A value listed twice would run its points twice and give one
    // combination two groups: each value is one digit of the grid's
    // combination odometer.
    for (const SweepAxis &a : axes) {
        std::unordered_set<std::string_view> seen;
        for (const std::string &v : a.values) {
            if (!seen.insert(v).second)
                return fail(err, specPath, a.line,
                            "axis '" + a.key + "' lists '" + v + "' twice");
        }
    }

    auto table = std::make_shared<GridTable>();
    for (const MachineSpec &m : machines)
        table->machines.push_back(m.name);
    table->workload = workload.name;
    table->competitors = competitors;
    table->axes = std::move(axes);

    // Every point must resolve before the first one runs; each is
    // resolved again, and kept only while it is in flight, when it
    // runs.
    ScenarioPoint pt;
    for (std::size_t idx = 0; idx < table->combos(); ++idx) {
        for (std::size_t m = 0; m < machines.size(); ++m) {
            if (!resolvePoint(*this, PointCoords(table, idx, m), true, &pt,
                              err))
                return false;
        }
    }
    *out = std::move(table);
    return true;
}

ScenarioPoint
Scenario::resolve(const PointCoords &coords) const
{
    // expandGrid validated every machine of the grid.
    ScenarioPoint pt;
    std::string err;
    if (!resolvePoint(*this, coords, false, &pt, &err))
        fatal("%s", err.c_str());
    return pt;
}

bool
Scenario::expandPoints(bool quickMode, std::vector<ScenarioPoint> *out,
                       std::string *err) const
{
    out->clear();
    std::shared_ptr<const GridTable> grid;
    if (!expandGrid(quickMode, &grid, err))
        return false;
    out->reserve(grid->combos() * machines.size());
    for (std::size_t idx = 0; idx < grid->combos(); ++idx) {
        for (std::size_t m = 0; m < machines.size(); ++m)
            out->push_back(resolve(PointCoords(grid, idx, m)));
    }
    return true;
}

} // namespace misp::driver
