#include "scenario.hh"

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
    sys.kernel.seed = kernelSeed;
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

std::string
MachineSpec::topologyString() const
{
    std::string out;
    for (unsigned a : amsPerProcessor) {
        if (!out.empty())
            out += ",";
        out += std::to_string(a);
    }
    return out;
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

std::string
ScenarioPoint::coordString() const
{
    std::string out;
    for (const auto &[key, value] : coords) {
        if (!out.empty())
            out += " ";
        out += key + "=" + value;
    }
    return out;
}

// ---------------------------------------------------------------------
// Scenario
// ---------------------------------------------------------------------

namespace {

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
        if (!validAxisKey(e.key)) {
            if (err)
                *err = specError(spec.path, e.line,
                                 "unknown sweep axis '" + e.key +
                                 "' (expected 'competitors', "
                                 "'workload.<param>' or "
                                 "'machine.<knob>')");
            return false;
        }
        // List-valued knobs cannot be an axis: the comma-split below
        // would silently turn one topology into several scalar points.
        if (e.key == "machine.processors") {
            if (err)
                *err = specError(spec.path, e.line,
                                 "machine.processors cannot be swept "
                                 "(its value is a comma list); define "
                                 "one [machine] section per topology "
                                 "instead");
            return false;
        }
        SweepAxis axis;
        axis.key = e.key;
        axis.line = e.line;
        std::string msg;
        if (!expandValues(e.value, &axis.values, &msg)) {
            if (err)
                *err = specError(spec.path, e.line, msg);
            return false;
        }
        if (axis.values.empty()) {
            if (err)
                *err = specError(spec.path, e.line,
                                 "axis '" + e.key + "' has no values");
            return false;
        }
        out->push_back(std::move(axis));
    }
    return true;
}

/** One [table] section. `column` and `footer` values are
 *  `<label> = <expr>`; a footer may end in `by suite`. The
 *  expressions are checked against the frame when the table renders
 *  (driver/report.hh). */
bool
parseTable(const SpecFile &spec, const SpecSection &sec,
           std::vector<TableSpec> *out, std::string *err)
{
    auto trim = [](const std::string &s) {
        std::size_t b = s.find_first_not_of(" \t");
        std::size_t e = s.find_last_not_of(" \t");
        return b == std::string::npos ? std::string()
                                       : s.substr(b, e - b + 1);
    };
    TableSpec table;
    for (const SpecEntry &e : sec.entries) {
        if (e.key == "title") {
            table.title = e.value;
            continue;
        }
        if (e.key != "column" && e.key != "footer") {
            if (err)
                *err = specError(spec.path, e.line,
                                 "unknown [table] key '" + e.key +
                                     "' (expected title, column or "
                                     "footer)");
            return false;
        }
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
        if (cell.label.empty() || cell.expr.empty()) {
            if (err)
                *err = specError(spec.path, e.line,
                                 e.key + ": expected '<label> = <expr>', "
                                         "got '" + e.value + "'");
            return false;
        }
        (e.key == "column" ? table.columns : table.footers)
            .push_back(std::move(cell));
    }
    if (table.columns.empty()) {
        if (err)
            *err = specError(spec.path, sec.line,
                             "[table] needs at least one 'column'");
        return false;
    }
    out->push_back(std::move(table));
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
                    if (err)
                        *err = specError(spec.path, e.line,
                                         "unknown [scenario] key '" +
                                         e.key + "'");
                    return false;
                }
            }
        } else if (sec.type == "machine") {
            MachineSpec m;
            m.name = sec.name.empty() ? "machine" : sec.name;
            for (const MachineSpec &prev : out->machines) {
                if (prev.name == m.name) {
                    if (err)
                        *err = specError(spec.path, sec.line,
                                         "duplicate machine name '" +
                                         m.name + "'");
                    return false;
                }
            }
            for (const SpecEntry &e : sec.entries) {
                std::string msg;
                if (!m.apply(e.key, e.value, &msg)) {
                    if (err)
                        *err = specError(spec.path, e.line, msg);
                    return false;
                }
            }
            out->machines.push_back(std::move(m));
        } else if (sec.type == "workload") {
            WorkloadSpec w;
            for (const SpecEntry &e : sec.entries) {
                std::string msg;
                if (!w.apply(e.key, e.value, &msg)) {
                    if (err)
                        *err = specError(spec.path, e.line, msg);
                    return false;
                }
            }
            if (!wl::findWorkload(w.name)) {
                if (err)
                    *err = specError(spec.path, sec.line,
                                     w.name.empty()
                                         ? std::string("[workload] section "
                                                       "needs a 'name' key")
                                         : "unknown workload '" + w.name +
                                               "'");
                return false;
            }
            if (!sawWorkload) {
                out->workload = std::move(w);
                sawWorkload = true;
            } else {
                out->background.push_back(std::move(w));
            }
        } else if (sec.type == "run") {
            for (const SpecEntry &e : sec.entries) {
                if (e.key == "max_ticks") {
                    if (!parseU64(e.value, &out->maxTicks)) {
                        if (err)
                            *err = specError(spec.path, e.line,
                                             "max_ticks: expected a tick "
                                             "count");
                        return false;
                    }
                } else if (e.key == "competitors") {
                    if (!parseUnsigned(e.value, &out->competitors)) {
                        if (err)
                            *err = specError(spec.path, e.line,
                                             "competitors: expected an "
                                             "integer");
                        return false;
                    }
                } else if (e.key == "competitor") {
                    if (!wl::findWorkload(e.value)) {
                        if (err)
                            *err = specError(spec.path, e.line,
                                             "unknown competitor workload "
                                             "'" + e.value + "'");
                        return false;
                    }
                    out->competitor = e.value;
                } else if (e.key == "point_deadline_ms") {
                    if (!parseU64(e.value, &out->pointDeadlineMs)) {
                        if (err)
                            *err = specError(spec.path, e.line,
                                             "point_deadline_ms: expected "
                                             "a millisecond count");
                        return false;
                    }
                } else if (e.key == "retries") {
                    if (!parseUnsigned(e.value, &out->retries)) {
                        if (err)
                            *err = specError(spec.path, e.line,
                                             "retries: expected an "
                                             "integer");
                        return false;
                    }
                } else if (e.key == "retry_backoff_ms") {
                    if (!parseUnsigned(e.value, &out->retryBackoffMs)) {
                        if (err)
                            *err = specError(spec.path, e.line,
                                             "retry_backoff_ms: expected "
                                             "a millisecond count");
                        return false;
                    }
                } else {
                    if (err)
                        *err = specError(spec.path, e.line,
                                         "unknown [run] key '" + e.key +
                                         "'");
                    return false;
                }
            }
        } else if (sec.type == "snapshot") {
            for (const SpecEntry &e : sec.entries) {
                if (e.key == "warmup_ticks") {
                    if (!parseU64(e.value, &out->snapshotWarmupTicks)) {
                        if (err)
                            *err = specError(spec.path, e.line,
                                             "warmup_ticks: expected a "
                                             "tick count");
                        return false;
                    }
                } else {
                    if (err)
                        *err = specError(spec.path, e.line,
                                         "unknown [snapshot] key '" +
                                         e.key + "'");
                    return false;
                }
            }
        } else if (sec.type == "trace") {
            for (const SpecEntry &e : sec.entries) {
                if (e.key == "categories") {
                    std::string msg;
                    if (!obs::parseTraceCats(e.value, &out->trace.catMask,
                                             &msg)) {
                        if (err)
                            *err = specError(spec.path, e.line, msg);
                        return false;
                    }
                } else if (e.key == "max_events") {
                    if (!parseU64(e.value, &out->trace.maxEvents)) {
                        if (err)
                            *err = specError(spec.path, e.line,
                                             "max_events: expected an "
                                             "event count");
                        return false;
                    }
                } else {
                    if (err)
                        *err = specError(spec.path, e.line,
                                         "unknown [trace] key '" + e.key +
                                         "'");
                    return false;
                }
            }
        } else if (sec.type == "faults") {
            for (const SpecEntry &e : sec.entries) {
                std::string msg;
                if (e.key == "seed") {
                    if (!parseU64(e.value, &out->faults.seed)) {
                        if (err)
                            *err = specError(spec.path, e.line,
                                             "seed: expected an integer");
                        return false;
                    }
                    out->faults.seedSet = true;
                } else if (e.key == "inject") {
                    if (!FaultPlan::parseItem(e.value, &out->faults,
                                              &msg)) {
                        if (err)
                            *err = specError(spec.path, e.line, msg);
                        return false;
                    }
                } else {
                    if (err)
                        *err = specError(spec.path, e.line,
                                         "unknown [faults] key '" +
                                         e.key + "'");
                    return false;
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
                        if (err)
                            *err = specError(spec.path, e.line,
                                             "on_failed_points: expected "
                                             "'fail', 'skip' or "
                                             "'require_all', got '" +
                                             e.value + "'");
                        return false;
                    }
                } else if (e.key == "assert") {
                    out->report.asserts.push_back({e.value, e.line});
                } else {
                    if (err)
                        *err = specError(spec.path, e.line,
                                         "unknown [report] key '" + e.key +
                                         "'");
                    return false;
                }
            }
        } else if (sec.type == "table") {
            if (!parseTable(spec, sec, &out->tables, err))
                return false;
        } else {
            if (err)
                *err = specError(spec.path, sec.line,
                                 "unknown section [" + sec.type + "]");
            return false;
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
    return true;
}

bool
Scenario::expandPoints(bool quickMode, std::vector<ScenarioPoint> *out,
                       std::string *err) const
{
    out->clear();

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

    // Expand workload-name selectors ("all", "suite:rms") into names.
    for (SweepAxis &a : axes) {
        if (a.key != "workload.name")
            continue;
        std::vector<std::string> names;
        for (const std::string &sel : a.values) {
            std::string msg;
            std::vector<const wl::WorkloadInfo *> picked =
                wl::selectWorkloads(sel, &msg);
            if (picked.empty()) {
                if (err)
                    *err = specError(specPath, a.line, msg);
                return false;
            }
            for (const wl::WorkloadInfo *info : picked)
                names.push_back(info->name);
        }
        a.values = std::move(names);
    }

    std::size_t total = 1;
    for (const SweepAxis &a : axes)
        total *= a.values.size();

    for (std::size_t idx = 0; idx < total; ++idx) {
        // Odometer decode: first axis varies slowest.
        std::vector<std::pair<std::string, std::string>> combo;
        std::vector<int> axisLines;
        std::size_t rem = idx;
        std::size_t stride = total;
        for (const SweepAxis &a : axes) {
            stride /= a.values.size();
            combo.emplace_back(a.key, a.values[rem / stride]);
            axisLines.push_back(a.line);
            rem %= stride;
        }

        for (const MachineSpec &machine : machines) {
            ScenarioPoint pt;
            pt.machine = machine;
            pt.workload = workload;
            pt.background = background;
            pt.competitors = competitors;
            pt.competitor = competitor;
            pt.coords = combo;

            for (std::size_t i = 0; i < combo.size(); ++i) {
                const auto &[key, value] = combo[i];
                std::string msg;
                bool ok;
                if (key == "competitors") {
                    ok = parseUnsigned(value, &pt.competitors);
                    if (!ok)
                        msg = "competitors: expected an integer, got '" +
                              value + "'";
                } else if (key.rfind("workload.", 0) == 0) {
                    ok = pt.workload.apply(key.substr(9), value, &msg);
                } else { // machine.<knob>
                    ok = pt.machine.apply(key.substr(8), value, &msg);
                }
                if (!ok) {
                    if (err)
                        *err = specError(specPath, axisLines[i], msg);
                    return false;
                }
            }

            if (!wl::findWorkload(pt.workload.name)) {
                if (err)
                    *err = specPath + ": swept workload '" +
                           pt.workload.name + "' is not registered";
                return false;
            }
            out->push_back(std::move(pt));
        }
    }
    return true;
}

} // namespace misp::driver
