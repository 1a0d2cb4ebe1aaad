#include "runner.hh"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <exception>
#include <filesystem>
#include <mutex>
#include <ostream>
#include <thread>

#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "snapshot/snapshot.hh"

namespace misp::driver {

namespace {

void
progressLine(std::ostream &os, std::size_t done, std::size_t total,
             const ScenarioPoint &pt, const PointResult &r)
{
    os << "[" << done << "/" << total << "] " << r.machine << " "
       << r.workload;
    if (!pt.coords.empty())
        os << " " << pt.coordString();
    os << " ticks=" << r.run.ticks << (r.run.valid ? "" : " INVALID")
       << "\n";
    os.flush();
}

/** The run-log's point identifier: machine:workload plus any swept
 *  coordinates — enough to join log lines back to result rows. */
std::string
runLogPoint(const ScenarioPoint &pt)
{
    std::string s = pt.machine.name + ":" + pt.workload.name;
    if (!pt.coords.empty())
        s += " " + pt.coordString();
    return s;
}

/** Emit one run-log line (no-op on a null log). Wall time and status
 *  are omitted from the JSON when left at their sentinels. */
void
logAttempt(obs::RunLog *log, const char *event, const ScenarioPoint &pt,
           int attempt, double wallMs = -1.0,
           const std::string &status = std::string())
{
    if (!log)
        return;
    obs::RunLogEntry e;
    e.event = event;
    e.point = runLogPoint(pt);
    e.attempt = attempt;
    e.wallMs = wallMs;
    e.status = status;
    log->log(e);
}

double
wallMsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

} // namespace

std::string
snapshotPointPath(const std::string &dir, std::size_t index)
{
    return dir + "/point_" + std::to_string(index) + ".misnap";
}

harness::RunRequest
makeRunRequest(const Scenario &sc, const ScenarioPoint &pt,
               const RunnerOptions &opts, std::size_t pointIndex)
{
    harness::RunRequest req;
    req.label = sc.name + "_" + pt.machine.name + "_" + pt.workload.name;
    if (pt.competitors)
        req.label += "_+" + std::to_string(pt.competitors);
    req.config = pt.machine.toSystemConfig();
    if (opts.forceEngine)
        req.config.misp.engine = opts.engine;
    req.backend = pt.machine.backend;
    req.target = {pt.workload.name, pt.workload.params};
    for (const WorkloadSpec &bg : pt.background)
        req.background.push_back({bg.name, bg.params});
    req.competitors = pt.competitors;
    req.competitor = pt.competitor;
    req.pinMinAms = pt.machine.pinMinAms;
    req.idealPlacement = pt.machine.idealPlacement;
    req.maxTicks = sc.maxTicks;
    req.hostLine = opts.hostLines;
    req.fullStats = opts.fullStats;
    if (!opts.snapshotSaveDir.empty()) {
        req.snapshotOut =
            snapshotPointPath(opts.snapshotSaveDir, pointIndex);
        req.warmupTicks = sc.snapshotWarmupTicks;
    }
    if (!opts.snapshotLoadDir.empty()) {
        req.snapshotIn =
            snapshotPointPath(opts.snapshotLoadDir, pointIndex);
    }
    // Trace defaults (categories, buffer bound) come from the spec's
    // [trace] section; whether anything records at all is the CLI's
    // call (--trace), and the skip cursor is CLI-only.
    req.trace = sc.trace;
    req.trace.enabled = opts.traceEnabled;
    req.traceSkip = opts.traceSkip;
    return req;
}

PointResult
ScenarioRunner::runPoint(const Scenario &sc, const ScenarioPoint &pt,
                         std::size_t pointIndex)
{
    PointResult out;
    out.machine = pt.machine.name;
    out.workload = pt.workload.name;
    out.competitors = pt.competitors;
    out.coords = pt.coords;
    out.run = harness::runOne(makeRunRequest(sc, pt, opts_, pointIndex));
    return out;
}

std::vector<PointResult>
ScenarioRunner::runAll(const Scenario &sc,
                       const std::vector<ScenarioPoint> &pts,
                       std::ostream *progress)
{
    if (opts_.isolate)
        return runIsolated(sc, pts, progress);

    std::vector<PointResult> results(pts.size());
    std::size_t jobs = std::max(1u, opts_.jobs);
    jobs = std::min(jobs, pts.size());

    if (jobs <= 1) {
        for (std::size_t i = 0; i < pts.size(); ++i) {
            logAttempt(opts_.runLog, "dispatched", pts[i], 1);
            auto ta = std::chrono::steady_clock::now();
            results[i] = runPoint(sc, pts[i], gridIndex(i));
            logAttempt(opts_.runLog, "completed", pts[i], 1,
                       wallMsSince(ta),
                       harness::runStatusName(results[i].run.status));
            if (progress)
                progressLine(*progress, i + 1, pts.size(), pts[i],
                             results[i]);
        }
        return results;
    }

    // Fan the grid out over a worker pool. Each point is an
    // independent deterministic simulation; results land at their
    // submission index, so emitter output is byte-identical to the
    // serial path. Only the progress lines (stderr) reflect completion
    // order.
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::atomic<bool> failed{false};
    std::mutex progressMutex;
    std::vector<std::exception_ptr> errors(pts.size());

    auto worker = [&] {
        for (;;) {
            // Stop claiming new points once any point has failed —
            // in-flight simulations finish, queued ones are abandoned
            // (the serial path would not have started them either).
            if (failed.load(std::memory_order_relaxed))
                return;
            std::size_t i = next.fetch_add(1);
            if (i >= pts.size())
                return;
            logAttempt(opts_.runLog, "dispatched", pts[i], 1);
            auto ta = std::chrono::steady_clock::now();
            try {
                results[i] = runPoint(sc, pts[i], gridIndex(i));
            } catch (...) {
                errors[i] = std::current_exception();
                failed.store(true, std::memory_order_relaxed);
                logAttempt(opts_.runLog, "failed", pts[i], 1,
                           wallMsSince(ta));
                done.fetch_add(1);
                continue;
            }
            logAttempt(opts_.runLog, "completed", pts[i], 1,
                       wallMsSince(ta),
                       harness::runStatusName(results[i].run.status));
            std::size_t completed = done.fetch_add(1) + 1;
            if (progress) {
                std::lock_guard<std::mutex> lock(progressMutex);
                progressLine(*progress, completed, pts.size(), pts[i],
                             results[i]);
            }
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(jobs);
    for (std::size_t t = 0; t < jobs; ++t)
        pool.emplace_back(worker);
    for (std::thread &t : pool)
        t.join();

    // Surface the first failure in submission order, as the serial
    // path would have.
    for (std::exception_ptr &e : errors) {
        if (e)
            std::rethrow_exception(e);
    }
    return results;
}

// ---------------------------------------------------------------------
// Supervised crash-isolated worker backend (--jobs N --isolate)
// ---------------------------------------------------------------------

namespace {

using SupervisorClock = std::chrono::steady_clock;

/** One live worker child: its pid, the read end of its result pipe,
 *  the grid point + attempt it owns, its wall-clock deadline, and the
 *  bytes received so far. */
struct IsolatedWorker {
    pid_t pid = -1;
    int fd = -1;
    std::size_t index = 0;
    unsigned attempt = 1;
    std::string buf;
    bool hasDeadline = false;
    SupervisorClock::time_point deadline{};
    SupervisorClock::time_point started{};
    bool timedOut = false;
};

/** A relaunch waiting out its backoff delay. */
struct PendingLaunch {
    std::size_t index = 0;
    unsigned attempt = 1;
    SupervisorClock::time_point launchAt{};
};

/** Write all of @p data to @p fd; false when the descriptor failed
 *  (closed pipe, I/O error). A worker whose payload cannot be shipped
 *  in full must exit non-zero — a silently dropped tail would leave
 *  the parent parsing a truncated record. */
bool
writeAll(int fd, const std::string &data)
{
    std::size_t off = 0;
    while (off < data.size()) {
        ssize_t n = ::write(fd, data.data() + off, data.size() - off);
        if (n <= 0) {
            if (n < 0 && errno == EINTR)
                continue;
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    return true;
}

/** Milliseconds until @p when (>= 1 so a poll timeout can't busy-spin),
 *  folded into @p timeout (-1 = infinite). */
void
foldTimeout(SupervisorClock::time_point now,
            SupervisorClock::time_point when, int *timeout)
{
    auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                  when - now)
                  .count();
    int t = ms <= 0 ? 0 : static_cast<int>(std::min<long long>(
                              ms + 1, 3600 * 1000));
    if (*timeout < 0 || t < *timeout)
        *timeout = t;
}

} // namespace

std::vector<PointResult>
ScenarioRunner::runIsolated(const Scenario &sc,
                            const std::vector<ScenarioPoint> &pts,
                            std::ostream *progress)
{
    std::vector<PointResult> results(pts.size());
    // Coordinates are parent-side facts; only the measured RunRecord
    // crosses the process boundary.
    for (std::size_t i = 0; i < pts.size(); ++i) {
        results[i].machine = pts[i].machine.name;
        results[i].workload = pts[i].workload.name;
        results[i].competitors = pts[i].competitors;
        results[i].coords = pts[i].coords;
    }

    // Resolve supervision knobs: explicit CLI values override the
    // scenario's [run] defaults.
    const std::uint64_t deadlineMs =
        opts_.deadlineMs >= 0 ? static_cast<std::uint64_t>(opts_.deadlineMs)
                              : sc.pointDeadlineMs;
    const unsigned retries = opts_.retries >= 0
                                 ? static_cast<unsigned>(opts_.retries)
                                 : sc.retries;
    const unsigned backoffMs =
        opts_.backoffMs >= 0 ? static_cast<unsigned>(opts_.backoffMs)
                             : sc.retryBackoffMs;
    FaultPlan plan = sc.faults;
    plan.merge(opts_.faults);

    // A worker SIGKILLed mid-write (deadline expiry) leaves the parent
    // holding a half-open pipe; conversely a dying parent must not let
    // a worker's write turn into a fatal SIGPIPE in either process.
    // Ignore it for the duration and restore the old disposition after.
    struct sigaction ignorePipe {};
    struct sigaction savedPipe {};
    ignorePipe.sa_handler = SIG_IGN;
    ::sigaction(SIGPIPE, &ignorePipe, &savedPipe);

    // Children inherit stdio buffers; empty them now so a child's
    // exit can never replay parent output.
    std::fflush(stdout);
    std::fflush(stderr);

    const std::size_t jobs =
        std::min<std::size_t>(std::max(1u, opts_.jobs), pts.size());
    std::vector<IsolatedWorker> live;
    std::deque<PendingLaunch> pending;
    std::size_t next = 0;
    std::size_t done = 0;

    auto failRecord = [](harness::RunStatus status,
                         const std::string &why) {
        harness::RunRecord rec;
        rec.status = status;
        rec.valid = false;
        rec.note = why;
        return rec;
    };

    // The single sink for a finished attempt: retry transient failures
    // while the budget lasts, otherwise finalize the point with its
    // attempt count (and a give-up note when retries were spent).
    auto completeOrRetry = [&](std::size_t index, unsigned attempt,
                               harness::RunRecord rec,
                               double wallMs = -1.0) {
        if (harness::runStatusIsInfraFailure(rec.status) &&
            attempt <= retries) {
            const auto delay = std::chrono::milliseconds(
                static_cast<std::uint64_t>(backoffMs)
                << (attempt - 1));
            if (opts_.runLog) {
                obs::RunLogEntry e;
                e.event = "retried";
                e.point = runLogPoint(pts[index]);
                e.attempt = static_cast<int>(attempt);
                e.wallMs = wallMs;
                e.backoffMs = static_cast<long>(delay.count());
                e.status = harness::runStatusName(rec.status);
                opts_.runLog->log(e);
            }
            pending.push_back(
                {index, attempt + 1, SupervisorClock::now() + delay});
            return;
        }
        logAttempt(opts_.runLog, "completed", pts[index],
                   static_cast<int>(attempt), wallMs,
                   harness::runStatusName(rec.status));
        rec.attempts = attempt;
        if (harness::runStatusIsInfraFailure(rec.status) && attempt > 1)
            rec.note = "gave up after " + std::to_string(attempt) +
                       " attempts: " + rec.note;
        results[index].run = std::move(rec);
        ++done;
        if (progress) {
            progressLine(*progress, done, pts.size(), pts[index],
                         results[index]);
        }
    };

    auto launch = [&](std::size_t index, unsigned attempt) {
        // Every launch attempt gets exactly one "dispatched" line (pid
        // -1 when the worker never forked), so a point's dispatched
        // count in the run log always equals its RunRecord::attempts.
        auto logDispatch = [&](long pid) {
            if (!opts_.runLog)
                return;
            obs::RunLogEntry e;
            e.event = "dispatched";
            e.point = runLogPoint(pts[index]);
            e.attempt = static_cast<int>(attempt);
            e.pid = pid;
            opts_.runLog->log(e);
        };
        // Fault decisions are made parent-side, pre-fork: the child
        // inherits `fault` through fork() memory, and parent-side
        // kinds (fork_fail) never spawn at all.
        FaultKind fault{};
        const bool faulted =
            plan.faultFor(gridIndex(index), attempt, &fault);
        if (faulted && fault == FaultKind::ForkFail) {
            logDispatch(-1);
            completeOrRetry(index, attempt,
                            failRecord(harness::RunStatus::WorkerCrashed,
                                       "fork() failed (injected)"));
            return;
        }
        int fds[2];
        if (::pipe(fds) != 0) {
            logDispatch(-1);
            completeOrRetry(index, attempt,
                            failRecord(harness::RunStatus::WorkerCrashed,
                                       "pipe() failed"));
            return;
        }
        pid_t pid = ::fork();
        if (pid < 0) {
            ::close(fds[0]);
            ::close(fds[1]);
            logDispatch(-1);
            completeOrRetry(index, attempt,
                            failRecord(harness::RunStatus::WorkerCrashed,
                                       "fork() failed"));
            return;
        }
        if (pid == 0) {
            // Worker child: one point, result over the pipe, hard exit
            // (no parent-side destructors or buffers to double-flush).
            ::close(fds[0]);
            if (faulted && fault == FaultKind::Crash)
                ::abort();
            if (faulted && fault == FaultKind::Hang) {
                // Never compute, never write: the supervisor's
                // deadline is the only way out.
                for (;;)
                    ::pause();
            }
            int code = 0;
            try {
                harness::RunRequest req = makeRunRequest(
                    sc, pts[index], opts_, gridIndex(index));
                if (faulted && fault == FaultKind::CorruptSnapshot) {
                    // Drive the run layer's real fail-closed restore
                    // path rather than faking a status.
                    req.snapshotIn = snapshotPointPath(
                        "/nonexistent-injected-fault",
                        gridIndex(index));
                }
                harness::RunRecord rec = harness::runOne(req);
                std::string payload = snap::encodeRunRecord(rec);
                if (faulted && fault == FaultKind::CorruptPipe) {
                    // Ship garbage the parent must reject: truncate to
                    // half and flip a byte so neither the CRC nor the
                    // length check can pass.
                    payload.resize(payload.size() / 2);
                    if (!payload.empty())
                        payload[0] ^= 0x5a;
                }
                if (!writeAll(fds[1], payload))
                    code = 3;
            } catch (const std::exception &e) {
                std::fprintf(stderr, "mispsim worker [%zu]: %s\n", index,
                             e.what());
                code = 3;
            } catch (...) {
                code = 3;
            }
            ::close(fds[1]);
            // Flush only what this child wrote (HOST/diagnostic lines);
            // inherited parent buffer content was flushed before the
            // fork and must not be emitted a second time.
            std::fflush(stderr);
            ::_exit(code);
        }
        ::close(fds[1]);
        logDispatch(pid);
        IsolatedWorker w;
        w.pid = pid;
        w.fd = fds[0];
        w.index = index;
        w.attempt = attempt;
        w.started = SupervisorClock::now();
        if (deadlineMs > 0) {
            w.hasDeadline = true;
            w.deadline = w.started + std::chrono::milliseconds(deadlineMs);
        }
        live.push_back(std::move(w));
    };

    auto reap = [&](IsolatedWorker &w) {
        // Drain whatever is left, then collect the exit status.
        char chunk[65536];
        for (;;) {
            ssize_t n = ::read(w.fd, chunk, sizeof(chunk));
            if (n > 0) {
                w.buf.append(chunk, static_cast<std::size_t>(n));
                continue;
            }
            if (n < 0 && errno == EINTR)
                continue;
            break;
        }
        ::close(w.fd);
        int status = 0;
        ::waitpid(w.pid, &status, 0);

        harness::RunRecord rec;
        std::string err;
        if (w.timedOut) {
            rec = failRecord(harness::RunStatus::WorkerTimeout,
                             "worker exceeded " +
                                 std::to_string(deadlineMs) +
                                 "ms deadline");
        } else if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
            rec = failRecord(
                harness::RunStatus::WorkerCrashed,
                WIFSIGNALED(status)
                    ? "worker killed by signal " +
                          std::to_string(WTERMSIG(status))
                    : "worker exited with status " +
                          std::to_string(WIFEXITED(status)
                                             ? WEXITSTATUS(status)
                                             : -1));
        } else if (!snap::decodeRunRecord(w.buf, &rec, &err)) {
            // Truncated or corrupted payloads fail closed here — the
            // codec checks structure, CRC, and exact length.
            rec = failRecord(harness::RunStatus::WorkerCrashed,
                             "worker result undecodable: " + err);
        }
        const double wallMs =
            std::chrono::duration<double, std::milli>(
                SupervisorClock::now() - w.started)
                .count();
        completeOrRetry(w.index, w.attempt, std::move(rec), wallMs);
    };

    while (done < pts.size()) {
        // Fill free worker slots: due retries first (they are older
        // work), then fresh points in submission order.
        auto now = SupervisorClock::now();
        while (live.size() < jobs) {
            if (!pending.empty() && pending.front().launchAt <= now) {
                PendingLaunch p = pending.front();
                pending.pop_front();
                launch(p.index, p.attempt);
            } else if (next < pts.size()) {
                launch(next++, 1);
            } else {
                break;
            }
            now = SupervisorClock::now();
        }

        if (live.empty()) {
            if (pending.empty())
                break; // nothing running, nothing scheduled
            // Sleep out the earliest backoff delay.
            int timeout = -1;
            for (const PendingLaunch &p : pending)
                foldTimeout(now, p.launchAt, &timeout);
            ::poll(nullptr, 0, timeout);
            continue;
        }

        // Wake for pipe traffic, the earliest worker deadline, or the
        // earliest pending relaunch — whichever comes first.
        int timeout = -1;
        for (const IsolatedWorker &w : live)
            if (w.hasDeadline && !w.timedOut)
                foldTimeout(now, w.deadline, &timeout);
        for (const PendingLaunch &p : pending)
            foldTimeout(now, p.launchAt, &timeout);

        std::vector<pollfd> fds(live.size());
        for (std::size_t i = 0; i < live.size(); ++i)
            fds[i] = pollfd{live[i].fd, POLLIN, 0};
        if (::poll(fds.data(), fds.size(), timeout) < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        // Read ready pipes; a closed write end (EOF) means the worker
        // is finishing — reap it.
        for (std::size_t i = live.size(); i-- > 0;) {
            if (!(fds[i].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            char chunk[65536];
            ssize_t n = ::read(live[i].fd, chunk, sizeof(chunk));
            if (n > 0) {
                live[i].buf.append(chunk, static_cast<std::size_t>(n));
            } else if (n == 0 || (n < 0 && errno != EINTR)) {
                reap(live[i]);
                live.erase(live.begin() +
                           static_cast<std::ptrdiff_t>(i));
            }
        }
        // Enforce deadlines: SIGKILL expired workers. The kill closes
        // their pipe's write end, so the normal EOF path reaps them on
        // the next iteration with the timeout flag set.
        now = SupervisorClock::now();
        for (IsolatedWorker &w : live) {
            if (w.hasDeadline && !w.timedOut && now >= w.deadline) {
                w.timedOut = true;
                if (opts_.runLog) {
                    obs::RunLogEntry e;
                    e.event = "timed_out";
                    e.point = runLogPoint(pts[w.index]);
                    e.attempt = static_cast<int>(w.attempt);
                    e.pid = w.pid;
                    e.wallMs = std::chrono::duration<double, std::milli>(
                                   now - w.started)
                                   .count();
                    opts_.runLog->log(e);
                }
                ::kill(w.pid, SIGKILL);
            }
        }
    }

    ::sigaction(SIGPIPE, &savedPipe, nullptr);
    return results;
}

const PointResult *
findResult(const std::vector<PointResult> &results,
           const std::string &machine, const std::string &workload,
           unsigned competitors)
{
    for (const PointResult &r : results) {
        if (r.machine == machine && r.workload == workload &&
            r.competitors == competitors)
            return &r;
    }
    return nullptr;
}

const PointResult *
findResultCoords(const std::vector<PointResult> &results,
                 const std::string &machine,
                 const std::vector<std::pair<std::string, std::string>>
                     &coords)
{
    for (const PointResult &r : results) {
        if (r.machine != machine)
            continue;
        bool match = true;
        for (const auto &want : coords) {
            bool found = false;
            for (const auto &have : r.coords)
                found = found || have == want;
            match = match && found;
        }
        if (match)
            return &r;
    }
    return nullptr;
}

harness::MetricFrame
buildMetricFrame(const Scenario &sc,
                 const std::vector<PointResult> &results)
{
    harness::MetricFrame frame;
    for (const PointResult &r : results)
        frame.addRow(r.machine, r.workload, r.competitors, r.coords,
                     r.run);
    frame.finalize(sc.report.baselineMachine);
    return frame;
}

void
writeJson(std::ostream &os, const Scenario &sc, bool quickMode,
          const harness::MetricFrame &frame)
{
    os << "{\n";
    os << "  \"scenario\": " << stats::jsonQuote(sc.name) << ",\n";
    os << "  \"title\": " << stats::jsonQuote(sc.title) << ",\n";
    os << "  \"quick\": " << (quickMode ? "true" : "false") << ",\n";
    os << "  \"points\": [";
    for (std::size_t i = 0; i < frame.numRows(); ++i) {
        const harness::MetricFrame::Row &r = frame.row(i);
        os << (i ? ",\n" : "\n");
        os << "    {\n";
        os << "      \"machine\": " << stats::jsonQuote(r.machine) << ",\n";
        os << "      \"workload\": " << stats::jsonQuote(r.workload) << ",\n";
        os << "      \"competitors\": " << r.competitors << ",\n";
        os << "      \"coords\": {";
        for (std::size_t c = 0; c < r.coords.size(); ++c) {
            os << (c ? ", " : "") << stats::jsonQuote(r.coords[c].first) << ": "
               << stats::jsonQuote(r.coords[c].second);
        }
        os << "},\n";
        os << "      \"status\": "
           << stats::jsonQuote(harness::runStatusName(r.status)) << ",\n";
        os << "      \"ticks\": "
           << static_cast<std::uint64_t>(frame.at(i, "ticks")) << ",\n";
        os << "      \"valid\": "
           << (frame.at(i, "valid") != 0.0 ? "true" : "false") << ",\n";
        os << "      \"insts_retired\": "
           << static_cast<std::uint64_t>(frame.at(i, "insts")) << ",\n";
        const std::vector<harness::EventField> &fields =
            harness::eventFields();
        os << "      \"events\": {\n";
        for (std::size_t f = 0; f < fields.size(); ++f) {
            os << "        \"" << fields[f].name << "\": ";
            double v =
                frame.at(i, std::string("events.") + fields[f].name);
            if (fields[f].cycles) {
                char buf[64];
                std::snprintf(buf, sizeof(buf), "%.0f", v);
                os << buf;
            } else {
                os << static_cast<std::uint64_t>(v);
            }
            os << (f + 1 < fields.size() ? ",\n" : "\n");
        }
        os << "      }";
        if (!r.statsJson.empty())
            os << ",\n      \"stats\": " << r.statsJson;
        os << "\n    }";
    }
    os << "\n  ]\n}\n";
}

void
writeMetricsJson(std::ostream &os, const Scenario &sc, bool quickMode,
                 const harness::MetricFrame &frame)
{
    os << "{\n";
    os << "  \"scenario\": " << stats::jsonQuote(sc.name) << ",\n";
    os << "  \"title\": " << stats::jsonQuote(sc.title) << ",\n";
    os << "  \"quick\": " << (quickMode ? "true" : "false") << ",\n";
    os << "  \"frame\":\n";
    frame.writeJson(os);
    os << "}\n";
}

void
writeTable(std::ostream &os, const Scenario &sc,
           const harness::MetricFrame &frame, bool markdown)
{
    if (frame.numRows() == 0) {
        os << "(no points)\n";
        return;
    }

    // Column set: machine, workload, swept coords, Mcycles, then the
    // [report]-requested speedups.
    std::vector<std::string> coordKeys;
    for (const auto &[key, value] : frame.row(0).coords) {
        (void)value;
        if (key != "workload.name") // already the workload column
            coordKeys.push_back(key);
    }
    const bool vsMachine = !sc.report.baselineMachine.empty();
    const bool vsAxis = !sc.report.baselineAxis.empty();
    bool anyInvalid = false;
    bool anyFailed = false;
    for (std::size_t i = 0; i < frame.numRows(); ++i) {
        anyInvalid = anyInvalid || frame.at(i, "valid") == 0.0;
        anyFailed = anyFailed || frame.at(i, "failed") != 0.0;
    }

    std::vector<std::string> header = {"machine", "workload"};
    for (const std::string &k : coordKeys)
        header.push_back(k);
    header.push_back("Mcycles");
    if (vsMachine)
        header.push_back("speedup_vs_" + sc.report.baselineMachine);
    if (vsAxis)
        header.push_back("vs_" + sc.report.baselineAxis + "0");
    if (anyInvalid)
        header.push_back("valid");
    if (anyFailed)
        header.push_back("status");

    using Frame = harness::MetricFrame;
    // One row's cells at a time — writeGrid streams the table in two
    // passes (width scan, then emission) instead of materializing the
    // sweep.
    auto formatRow = [&](std::size_t i) {
        const Frame::Row &r = frame.row(i);
        std::vector<std::string> row = {r.machine, r.workload};
        for (const std::string &k : coordKeys) {
            std::string v;
            for (const auto &[ck, cv] : r.coords) {
                if (ck == k)
                    v = cv;
            }
            row.push_back(v);
        }
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.3f", frame.at(i, "mcycles"));
        row.push_back(buf);
        if (vsMachine) {
            // The frame's derived speedup column is already relative
            // to the [report] baseline machine of this row's group.
            std::size_t base = frame.rowInGroup(
                r.group, sc.report.baselineMachine);
            if (base != Frame::npos && frame.at(i, "ticks") != 0.0)
                std::snprintf(buf, sizeof(buf), "%.3f",
                              frame.at(i, "speedup"));
            else
                std::snprintf(buf, sizeof(buf), "-");
            row.push_back(buf);
        }
        if (vsAxis) {
            std::size_t base =
                frame.axisBaselineRow(i, sc.report.baselineAxis);
            if (base != Frame::npos && frame.at(i, "ticks") != 0.0)
                std::snprintf(buf, sizeof(buf), "%.3f",
                              frame.speedupOf(i, base));
            else
                std::snprintf(buf, sizeof(buf), "-");
            row.push_back(buf);
        }
        if (anyInvalid)
            row.push_back(frame.at(i, "valid") != 0.0 ? "yes" : "NO");
        if (anyFailed)
            row.push_back(harness::runStatusName(r.status));
        return row;
    };

    writeGrid(os, sc.title, header, frame.numRows(), formatRow, markdown);
}

void
writeGrid(std::ostream &os, const std::string &title,
          const std::vector<std::string> &header, std::size_t rows,
          const std::function<std::vector<std::string>(std::size_t)>
              &formatRow,
          bool markdown)
{
    // Markdown needs no alignment, so the width pass only runs for
    // the plain-text renderer.
    std::vector<std::size_t> widths(header.size());
    for (std::size_t c = 0; c < header.size(); ++c)
        widths[c] = header[c].size();
    if (!markdown) {
        for (std::size_t i = 0; i < rows; ++i) {
            const std::vector<std::string> row = formatRow(i);
            for (std::size_t c = 0; c < row.size(); ++c)
                widths[c] = std::max(widths[c], row[c].size());
        }
    }

    auto emitRow = [&](const std::vector<std::string> &row) {
        if (markdown) {
            os << "|";
            for (std::size_t c = 0; c < row.size(); ++c)
                os << " " << row[c] << " |";
            os << "\n";
        } else {
            for (std::size_t c = 0; c < row.size(); ++c) {
                os << (c ? "  " : "");
                os << row[c]
                   << std::string(widths[c] - row[c].size(), ' ');
            }
            os << "\n";
        }
    };

    if (!title.empty())
        os << (markdown ? "### " : "") << title << "\n\n";
    emitRow(header);
    if (markdown) {
        os << "|";
        for (std::size_t c = 0; c < header.size(); ++c)
            os << " --- |";
        os << "\n";
    } else {
        std::size_t total = 0;
        for (std::size_t c = 0; c < widths.size(); ++c)
            total += widths[c] + (c ? 2 : 0);
        os << std::string(total, '-') << "\n";
    }
    for (std::size_t i = 0; i < rows; ++i)
        emitRow(formatRow(i));
}

void
writePoints(std::ostream &os, const harness::MetricFrame &frame)
{
    for (std::size_t i = 0; i < frame.numRows(); ++i) {
        const harness::MetricFrame::Row &r = frame.row(i);
        // All swept coordinates ride along (';'-joined, '-' when there
        // are none) so lines stay unambiguous for axes beyond
        // workload.name/competitors (e.g. machine.signal_cycles).
        std::string coords;
        for (const auto &[key, value] : r.coords) {
            if (!coords.empty())
                coords += ";";
            coords += key + "=" + value;
        }
        os << "machine=" << r.machine << " workload=" << r.workload
           << " competitors=" << r.competitors << " coords="
           << (coords.empty() ? "-" : coords) << " ticks="
           << static_cast<std::uint64_t>(frame.at(i, "ticks"))
           << " valid=" << (frame.at(i, "valid") != 0.0 ? 1 : 0);
        // Surviving points keep the legacy line format byte-for-byte;
        // only infrastructure-failed points grow a status marker, so
        // `grep -v ' status='` recovers the clean-run-comparable set.
        if (frame.at(i, "failed") != 0.0)
            os << " status=" << harness::runStatusName(r.status);
        os << "\n";
    }
}

std::string
findScenarioFile(const std::string &nameOrPath, const char *argv0)
{
    namespace fs = std::filesystem;
    std::vector<fs::path> candidates;
    candidates.emplace_back(nameOrPath);
    for (const char *prefix :
         {"scenarios/", "../scenarios/", "../../scenarios/"})
        candidates.emplace_back(prefix + nameOrPath);
    if (argv0 && argv0[0]) {
        fs::path exeDir = fs::path(argv0).parent_path();
        candidates.push_back(exeDir / "scenarios" / nameOrPath);
        candidates.push_back(exeDir / ".." / "scenarios" / nameOrPath);
        candidates.push_back(exeDir / ".." / ".." / "scenarios" /
                             nameOrPath);
    }
    for (const fs::path &p : candidates) {
        std::error_code ec;
        if (fs::exists(p, ec) && fs::is_regular_file(p, ec))
            return p.string();
    }
    return "";
}

bool
runScenarioByName(const std::string &nameOrPath, const char *argv0,
                  bool quick, const RunnerOptions &opts, const char *tool,
                  Scenario *sc, std::vector<PointResult> *results)
{
    std::string path = findScenarioFile(nameOrPath, argv0);
    if (path.empty()) {
        std::fprintf(stderr,
                     "%s: scenario '%s' not found (run from the repo "
                     "root)\n",
                     tool, nameOrPath.c_str());
        return false;
    }
    SpecFile spec;
    std::vector<ScenarioPoint> grid;
    std::string err;
    if (!SpecFile::parseFile(path, &spec, &err) ||
        !Scenario::fromSpec(spec, sc, &err) ||
        !sc->expandPoints(quick, &grid, &err)) {
        std::fprintf(stderr, "%s: %s\n", tool, err.c_str());
        return false;
    }
    *results = ScenarioRunner(opts).runAll(*sc, grid);
    return true;
}

} // namespace misp::driver
