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
#include <functional>
#include <mutex>
#include <ostream>
#include <thread>
#include <unordered_map>

#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "sim/logging.hh"
#include "snapshot/snapshot.hh"

namespace misp::driver {

namespace {

/** One `[done/total] machine workload coords ticks=N` line, built
 *  whole and written at once: std::cerr is unit-buffered, so streaming
 *  it piece by piece would cost a write(2) per piece. */
void
progressLine(std::ostream &os, std::size_t done, std::size_t total,
             const PointCoords &c, const harness::RunRecord &run)
{
    std::string line = "[" + std::to_string(done) + "/" +
                       std::to_string(total) + "] " + c.machine() + " " +
                       c.workload();
    if (!c.empty())
        line += " " + c.str();
    line += " ticks=" + std::to_string(run.ticks);
    if (!run.valid)
        line += " INVALID";
    if (run.reusedFrom != harness::kSimulated)
        line += " reused from point " + std::to_string(run.reusedFrom);
    line += "\n";
    os.write(line.data(), static_cast<std::streamsize>(line.size()));
    os.flush();
}

/** The run-log's point identifier: machine:workload plus any swept
 *  coordinates — enough to join log lines back to result rows. */
std::string
runLogPoint(const PointCoords &c)
{
    std::string s = c.machine() + ":" + c.workload();
    if (!c.empty())
        s += " " + c.str();
    return s;
}

/** Emit one run-log line (no-op on a null log). Wall time and status
 *  are omitted from the JSON when left at their sentinels. */
void
logAttempt(obs::RunLog *log, const char *event, const PointCoords &c,
           int attempt, double wallMs = -1.0,
           const std::string &status = std::string())
{
    if (!log)
        return;
    obs::RunLogEntry e;
    e.event = event;
    e.point = runLogPoint(c);
    e.attempt = attempt;
    e.wallMs = wallMs;
    e.status = status;
    log->log(e);
}

/** @p c's index in its full grid: it keys snapshot images and fault
 *  plans, and names a reused point's source. */
std::size_t
gridIndex(const PointCoords &c)
{
    return c.combo() * c.grid()->machines.size() + c.machineIndex();
}

/** A finished point's contribution to the sweep's host profile. */
obs::PointProfile
profileOf(cpu::Engine engine, const harness::RunRecord &run)
{
    obs::PointProfile p;
    p.engine = cpu::engineName(engine);
    p.phases = run.phases;
    p.hostSeconds = run.hostSeconds;
    p.hostMips = run.hostMips;
    p.instsRetired = run.instsRetired;
    p.reused = run.reusedFrom != harness::kSimulated;
    return p;
}

double
wallMsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/**
 * A sweep's finished points, found again by what a later point must
 * match to reuse one: its run inputs (harness::sameRunInputs) and its
 * machine config on every field the finished run read. An entry is
 * only a (read mask, point index) pair, bucketed by a hash of the run
 * inputs and the masked config values; a lookup tries each mask seen
 * so far and compares a candidate's own request exactly.
 */
class RunMemo
{
  public:
    /** @p request resolves a finished point's RunRequest. */
    explicit RunMemo(
        std::function<harness::RunRequest(std::size_t)> request)
        : request_(std::move(request))
    {}

    /** A finished point whose record @p req may take, or
     *  harness::kSimulated. */
    std::size_t
    find(const harness::RunRequest &req) const
    {
        const std::uint64_t inputs = harness::hashRunInputs(req);
        for (ConfigMask mask : masks_) {
            auto [it, end] =
                entries_.equal_range(bucket(inputs, req.config, mask));
            for (; it != end; ++it) {
                if (it->second.mask != mask)
                    continue;
                const harness::RunRequest src = request_(it->second.point);
                if (harness::sameRunInputs(req, src) &&
                    harness::sameConfigFields(req.config, src.config, mask))
                    return it->second.point;
            }
        }
        return harness::kSimulated;
    }

    /** Point @p point, run as @p req, finished having read @p mask. */
    void
    add(std::size_t point, const harness::RunRequest &req, ConfigMask mask)
    {
        if (std::find(masks_.begin(), masks_.end(), mask) == masks_.end())
            masks_.push_back(mask);
        entries_.emplace(
            bucket(harness::hashRunInputs(req), req.config, mask),
            Entry{mask, point});
    }

  private:
    struct Entry {
        ConfigMask mask;
        std::size_t point;
    };

    static std::uint64_t
    bucket(std::uint64_t inputs, const arch::SystemConfig &config,
           ConfigMask mask)
    {
        return inputs ^ harness::hashConfigFields(config, mask);
    }

    std::function<harness::RunRequest(std::size_t)> request_;
    /** Every distinct read mask of a finished point. */
    std::vector<ConfigMask> masks_;
    std::unordered_multimap<std::uint64_t, Entry> entries_;
};

/** @p src's simulated record for a point that reuses it: the same
 *  simulated fields, no host timing, one attempt. */
harness::RunRecord
reusedRecord(const harness::RunRecord &src, std::size_t srcIndex)
{
    harness::RunRecord out = src;
    out.hostSeconds = 0.0;
    out.hostMips = 0.0;
    out.phases = {};
    out.attempts = 1;
    out.reusedFrom = srcIndex;
    return out;
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
    req.config = pt.machine.config;
    if (opts.engine)
        req.config.misp.engine = *opts.engine;
    req.backend = pt.machine.backend;
    req.target = {pt.workload.name, pt.workload.params};
    for (const WorkloadSpec &bg : pt.background)
        req.background.push_back({bg.name, bg.params});
    req.competitors = pt.competitors;
    req.competitor = pt.competitor;
    req.pinMinAms = pt.machine.pinMinAms;
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

/**
 * Where a sweep's points come from and where their records go: the one
 * interface between ScenarioRunner's sweep loop and what it fills. The
 * loop calls record() and finish() under one lock.
 */
class SweepSink
{
  public:
    virtual std::size_t size() const = 0;
    /** Point @p i's place in its grid. */
    virtual PointCoords coords(std::size_t i) const = 0;
    /** Point @p i, resolved. */
    virtual ScenarioPoint point(std::size_t i) const = 0;
    /** Finished point @p i's record, for a point that reuses it. */
    virtual harness::RunRecord record(std::size_t i) const = 0;
    /** Point @p i finished as @p run. */
    virtual void finish(std::size_t i, harness::RunRecord &&run) = 0;

  protected:
    ~SweepSink() = default;
};

namespace {

/** run()'s sink: the rows of a Sweep, whose points resolve from the
 *  grid when they run. */
class FrameSink final : public SweepSink
{
  public:
    FrameSink(const Scenario &sc, std::shared_ptr<const GridTable> grid,
              Sweep &out)
        : sc_(sc), grid_(std::move(grid)), out_(out)
    {}

    std::size_t size() const override { return out_.frame.numRows(); }
    PointCoords
    coords(std::size_t r) const override
    {
        return PointCoords(grid_, out_.frame.combo(out_.frame.groupOf(r)),
                           r % grid_->machines.size());
    }
    ScenarioPoint
    point(std::size_t r) const override
    {
        return sc_.resolve(coords(r));
    }
    harness::RunRecord
    record(std::size_t r) const override
    {
        return out_.frame.record(r);
    }
    void
    finish(std::size_t r, harness::RunRecord &&run) override
    {
        out_.store(r, std::move(run));
    }

  private:
    const Scenario &sc_;
    std::shared_ptr<const GridTable> grid_;
    Sweep &out_;
};

/** runAll()'s sink: the caller's points as given, and one PointResult
 *  each. */
class ResultSink final : public SweepSink
{
  public:
    ResultSink(const std::vector<ScenarioPoint> &pts,
               std::vector<PointResult> &out)
        : pts_(pts), out_(out)
    {}

    std::size_t size() const override { return pts_.size(); }
    PointCoords
    coords(std::size_t i) const override
    {
        return pts_[i].coords;
    }
    ScenarioPoint
    point(std::size_t i) const override
    {
        return pts_[i];
    }
    harness::RunRecord
    record(std::size_t i) const override
    {
        return out_[i].run;
    }
    void
    finish(std::size_t i, harness::RunRecord &&run) override
    {
        out_[i].run = std::move(run);
    }

  private:
    const std::vector<ScenarioPoint> &pts_;
    std::vector<PointResult> &out_;
};

} // namespace

void
Sweep::store(std::size_t r, harness::RunRecord &&run)
{
    frame.setRow(r, run);
    if (!records.empty())
        records[r] = snap::encodeRunRecord(run);
    if (!stats.empty())
        stats[r] = std::move(run.statsJson);
    if (!traces.empty())
        traces[r] = std::move(run.trace);
    if (!run.note.empty())
        notes[r] = std::move(run.note);
}

PointResult
unmeasuredResult(const ScenarioPoint &pt)
{
    PointResult out;
    out.coords = pt.coords;
    return out;
}

PointResult
ScenarioRunner::runPoint(const Scenario &sc, const ScenarioPoint &pt,
                         std::size_t pointIndex)
{
    PointResult out = unmeasuredResult(pt);
    out.run = harness::runOne(makeRunRequest(sc, pt, opts_, pointIndex));
    return out;
}

Sweep
ScenarioRunner::run(const Scenario &sc, std::shared_ptr<const GridTable> grid,
                    std::vector<std::uint32_t> combos, std::ostream *progress,
                    bool keepRecords)
{
    Sweep out;
    out.frame = harness::MetricFrame(grid, std::move(combos),
                                     sc.report.baselineMachine);
    const std::size_t rows = out.frame.numRows();
    if (opts_.fullStats)
        out.stats.resize(rows);
    if (opts_.traceEnabled)
        out.traces.resize(rows);
    if (keepRecords)
        out.records.resize(rows);
    FrameSink sink(sc, std::move(grid), out);
    sweep(sc, sink, progress);
    return out;
}

std::vector<PointResult>
ScenarioRunner::runAll(const Scenario &sc,
                       const std::vector<ScenarioPoint> &pts,
                       std::ostream *progress)
{
    std::vector<PointResult> results;
    results.reserve(pts.size());
    for (const ScenarioPoint &pt : pts)
        results.push_back(unmeasuredResult(pt));
    ResultSink sink(pts, results);
    sweep(sc, sink, progress);
    return results;
}

void
ScenarioRunner::sweep(const Scenario &sc, SweepSink &sink,
                      std::ostream *progress)
{
    profile_ = {};
    if (opts_.isolate)
        return sweepIsolated(sc, sink, progress);

    const std::size_t n = sink.size();
    const std::size_t jobs =
        std::min<std::size_t>(std::max(1u, opts_.jobs), n);
    auto request = [&](std::size_t i) {
        return makeRunRequest(sc, sink.point(i), opts_,
                              gridIndex(sink.coords(i)));
    };

    // Every point's workloads come from one store, which builds each
    // once, inside the first point that needs it, and frees it after
    // its last point.
    store_.clear();
    for (std::size_t i = 0; i < n; ++i)
        store_.expect(request(i));

    // Finished points a later point may reuse. A point whose twin is
    // still running simulates too: the memo holds finished runs only.
    RunMemo memo(request);
    std::mutex memoMutex;

    // Fan the grid out over a worker pool — or, for one job, run the
    // one worker on this thread. Each point is an independent
    // deterministic simulation; its record lands at its own index, so
    // emitter output is byte-identical whatever the job count. Only
    // the progress lines (stderr) reflect completion order.
    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    // Guards the sink, the profile, the progress count and the first
    // failure.
    std::mutex sinkMutex;
    std::size_t done = 0;
    std::size_t firstFailure = n;
    std::exception_ptr firstError;

    // Simulate point i, or take the record of a finished point that
    // read nothing point i sets differently.
    auto runOnePoint = [&](std::size_t i) {
        const PointCoords coords = sink.coords(i);
        logAttempt(opts_.runLog, "dispatched", coords, 1);
        const auto ta = std::chrono::steady_clock::now();
        try {
            harness::RunRequest req = request(i);
            req.workloads = &store_;
            const bool reusable =
                opts_.reuseRuns && harness::reusableRun(req);
            std::size_t src = harness::kSimulated;
            if (reusable) {
                std::lock_guard<std::mutex> lock(memoMutex);
                src = memo.find(req);
            }
            harness::RunRecord run;
            if (src == harness::kSimulated) {
                run = harness::runOne(req);
            } else {
                {
                    std::lock_guard<std::mutex> lock(sinkMutex);
                    run = reusedRecord(sink.record(src),
                                       gridIndex(sink.coords(src)));
                }
                store_.skip(req);
                if (req.hostLine) {
                    harness::reportHost(req.label, run.instsRetired, 0.0,
                                        req.config.misp.engine,
                                        " reused from point " +
                                            std::to_string(run.reusedFrom));
                }
            }
            logAttempt(opts_.runLog, "completed", coords, 1,
                       wallMsSince(ta), harness::runStatusName(run.status));
            // Host-caused failures are no result to share.
            const bool share = src == harness::kSimulated && reusable &&
                               !harness::runStatusIsInfraFailure(run.status);
            const ConfigMask reads = run.configReads;
            {
                std::lock_guard<std::mutex> lock(sinkMutex);
                profile_.add(profileOf(req.config.misp.engine, run));
                ++done;
                if (progress)
                    progressLine(*progress, done, n, coords, run);
                sink.finish(i, std::move(run));
            }
            if (share) {
                std::lock_guard<std::mutex> lock(memoMutex);
                memo.add(i, req, reads);
            }
        } catch (...) {
            failed.store(true, std::memory_order_relaxed);
            logAttempt(opts_.runLog, "failed", coords, 1, wallMsSince(ta));
            std::lock_guard<std::mutex> lock(sinkMutex);
            ++done;
            if (i < firstFailure) {
                firstFailure = i;
                firstError = std::current_exception();
            }
        }
    };
    auto worker = [&] {
        for (std::size_t i = next.fetch_add(1); i < n;
             i = next.fetch_add(1)) {
            // Stop starting points once any point has failed —
            // in-flight simulations finish, queued ones are abandoned
            // (a serial run would not have started them either).
            if (failed.load(std::memory_order_relaxed))
                return;
            runOnePoint(i);
        }
    };

    if (jobs <= 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(jobs);
        for (std::size_t t = 0; t < jobs; ++t)
            pool.emplace_back(worker);
        for (std::thread &t : pool)
            t.join();
    }
    // Points abandoned after a failure never released their keys.
    store_.clear();

    // Surface the first failure in submission order, as a serial run
    // would have.
    if (firstError)
        std::rethrow_exception(firstError);
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

void
ScenarioRunner::sweepIsolated(const Scenario &sc, SweepSink &sink,
                              std::ostream *progress)
{
    // Coordinates are parent-side facts; only the measured RunRecord
    // crosses the process boundary.
    const std::size_t n = sink.size();

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
        std::min<std::size_t>(std::max(1u, opts_.jobs), n);
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
            attempt <= sc.retries) {
            const auto delay = std::chrono::milliseconds(
                static_cast<std::uint64_t>(sc.retryBackoffMs)
                << (attempt - 1));
            if (opts_.runLog) {
                obs::RunLogEntry e;
                e.event = "retried";
                e.point = runLogPoint(sink.coords(index));
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
        logAttempt(opts_.runLog, "completed", sink.coords(index),
                   static_cast<int>(attempt), wallMs,
                   harness::runStatusName(rec.status));
        rec.attempts = attempt;
        if (harness::runStatusIsInfraFailure(rec.status) && attempt > 1)
            rec.note = "gave up after " + std::to_string(attempt) +
                       " attempts: " + rec.note;
        ++done;
        const cpu::Engine engine = opts_.engine.value_or(
            sink.point(index).machine.config.misp.engine);
        profile_.add(profileOf(engine, rec));
        if (progress)
            progressLine(*progress, done, n, sink.coords(index), rec);
        sink.finish(index, std::move(rec));
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
            e.point = runLogPoint(sink.coords(index));
            e.attempt = static_cast<int>(attempt);
            e.pid = pid;
            opts_.runLog->log(e);
        };
        // Fault decisions are made parent-side, pre-fork: the child
        // inherits `fault` through fork() memory, and parent-side
        // kinds (fork_fail) never spawn at all.
        const std::size_t global = gridIndex(sink.coords(index));
        FaultKind fault{};
        const bool faulted = sc.faults.faultFor(global, attempt, &fault);
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
                harness::RunRequest req =
                    makeRunRequest(sc, sink.point(index), opts_, global);
                if (faulted && fault == FaultKind::CorruptSnapshot) {
                    // Drive the run layer's real fail-closed restore
                    // path rather than faking a status.
                    req.snapshotIn = snapshotPointPath(
                        "/nonexistent-injected-fault", global);
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
        if (sc.pointDeadlineMs > 0) {
            w.hasDeadline = true;
            w.deadline =
                w.started + std::chrono::milliseconds(sc.pointDeadlineMs);
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
                                 std::to_string(sc.pointDeadlineMs) +
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

    while (done < n) {
        // Fill free worker slots: due retries first (they are older
        // work), then fresh points in submission order.
        auto now = SupervisorClock::now();
        while (live.size() < jobs) {
            if (!pending.empty() && pending.front().launchAt <= now) {
                PendingLaunch p = pending.front();
                pending.pop_front();
                launch(p.index, p.attempt);
            } else if (next < n) {
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
                    e.point = runLogPoint(sink.coords(w.index));
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
}

harness::MetricFrame
buildMetricFrame(const Scenario &sc,
                 const std::vector<PointResult> &results)
{
    if (results.empty())
        return {};
    // The frame addresses row g * machines + m as group g's machine m,
    // so the results must be whole coordinate groups of one grid, in
    // grid order: a sweep's, or a shard's.
    const std::shared_ptr<const GridTable> &grid = results.front().coords.grid();
    const std::size_t machines = grid->machines.size();
    MISP_ASSERT(results.size() % machines == 0);
    std::vector<std::uint32_t> combos;
    combos.reserve(results.size() / machines);
    for (std::size_t i = 0; i < results.size(); ++i) {
        const PointCoords &c = results[i].coords;
        if (i % machines == 0) {
            MISP_ASSERT(combos.empty() || c.combo() > combos.back());
            combos.push_back(static_cast<std::uint32_t>(c.combo()));
        }
        MISP_ASSERT(c.grid() == grid && c.machineIndex() == i % machines &&
                    c.combo() == combos.back());
    }
    harness::MetricFrame frame(grid, std::move(combos),
                               sc.report.baselineMachine);
    for (std::size_t i = 0; i < results.size(); ++i)
        frame.setRow(i, results[i].run);
    return frame;
}

void
writeJson(std::ostream &os, const Scenario &sc, bool quickMode,
          const harness::MetricFrame &frame,
          const std::vector<std::string> &stats)
{
    MISP_ASSERT(stats.empty() || stats.size() == frame.numRows());
    os << "{\n";
    os << "  \"scenario\": " << stats::jsonQuote(sc.name) << ",\n";
    os << "  \"title\": " << stats::jsonQuote(sc.title) << ",\n";
    os << "  \"quick\": " << (quickMode ? "true" : "false") << ",\n";
    os << "  \"points\": [";
    for (std::size_t i = 0; i < frame.numRows(); ++i) {
        os << (i ? ",\n" : "\n");
        os << "    {\n";
        os << "      \"machine\": " << stats::jsonQuote(frame.machine(i))
           << ",\n";
        os << "      \"workload\": " << stats::jsonQuote(frame.workload(i))
           << ",\n";
        os << "      \"competitors\": " << frame.competitors(i) << ",\n";
        os << "      \"coords\": {";
        for (std::size_t a = 0; a < frame.grid().axes.size(); ++a)
            os << (a ? ", " : "")
               << stats::jsonQuote(frame.grid().axes[a].key) << ": "
               << stats::jsonQuote(frame.coord(i, a));
        os << "},\n";
        os << "      \"status\": "
           << stats::jsonQuote(harness::runStatusName(frame.status(i)))
           << ",\n";
        os << "      \"ticks\": "
           << static_cast<std::uint64_t>(frame.at(i, "ticks")) << ",\n";
        os << "      \"valid\": "
           << (frame.at(i, "valid") != 0.0 ? "true" : "false") << ",\n";
        os << "      \"insts_retired\": "
           << static_cast<std::uint64_t>(frame.at(i, "insts")) << ",\n";
        os << "      \"events\": {\n";
        for (std::size_t f = 0; f < harness::kNumEventCounters; ++f) {
            const harness::EventCounterInfo &c = harness::kEventCounters[f];
            os << "        \"" << c.name << "\": ";
            double v = frame.at(i, std::string("events.") + c.name);
            if (c.kind == harness::EventKind::Cycles) {
                char buf[64];
                std::snprintf(buf, sizeof(buf), "%.0f", v);
                os << buf;
            } else {
                os << static_cast<std::uint64_t>(v);
            }
            os << (f + 1 < harness::kNumEventCounters ? ",\n" : "\n");
        }
        os << "      }";
        if (!stats.empty() && !stats[i].empty())
            os << ",\n      \"stats\": " << stats[i];
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
    using Frame = harness::MetricFrame;
    const std::vector<SweepAxis> &axes = frame.grid().axes;
    std::vector<std::size_t> coordAxes;
    for (std::size_t a = 0; a < axes.size(); ++a) {
        if (axes[a].key != "workload.name") // the workload column
            coordAxes.push_back(a);
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
    for (std::size_t a : coordAxes)
        header.push_back(axes[a].key);
    header.push_back("Mcycles");
    if (vsMachine)
        header.push_back("speedup_vs_" + sc.report.baselineMachine);
    if (vsAxis)
        header.push_back("vs_" + sc.report.baselineAxis + "0");
    if (anyInvalid)
        header.push_back("valid");
    if (anyFailed)
        header.push_back("status");

    // One row's cells at a time — writeGrid streams the table in two
    // passes (width scan, then emission) instead of materializing the
    // sweep.
    auto formatRow = [&](std::size_t i) {
        std::vector<std::string> row = {frame.machine(i), frame.workload(i)};
        for (std::size_t a : coordAxes)
            row.push_back(frame.coord(i, a));
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.3f", frame.at(i, "mcycles"));
        row.push_back(buf);
        if (vsMachine) {
            // The frame's derived speedup column is already relative
            // to the [report] baseline machine of this row's group.
            if (frame.at(i, "ticks") != 0.0)
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
            row.push_back(harness::runStatusName(frame.status(i)));
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
        // All swept coordinates ride along (';'-joined, '-' when there
        // are none) so lines stay unambiguous for axes beyond
        // workload.name/competitors (e.g. machine.signal_cycles).
        os << "machine=" << frame.machine(i)
           << " workload=" << frame.workload(i)
           << " competitors=" << frame.competitors(i)
           << " coords=" << frame.groupLabel(frame.groupOf(i), ';')
           << " ticks="
           << static_cast<std::uint64_t>(frame.at(i, "ticks"))
           << " valid=" << (frame.at(i, "valid") != 0.0 ? 1 : 0);
        // Surviving points keep the legacy line format byte-for-byte;
        // only infrastructure-failed points grow a status marker, so
        // `grep -v ' status='` recovers the clean-run-comparable set.
        if (frame.at(i, "failed") != 0.0)
            os << " status=" << harness::runStatusName(frame.status(i));
        os << "\n";
    }
}

std::string
describePoint(const harness::MetricFrame &frame, std::size_t r)
{
    const std::string coords =
        frame.grid().label(frame.combo(frame.groupOf(r)));
    return "machine=" + frame.machine(r) + " workload=" + frame.workload(r) +
           " competitors=" + std::to_string(frame.competitors(r)) +
           (coords.empty() ? "" : " " + coords);
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

} // namespace misp::driver
