/**
 * @file
 * Snapshot subsystem tests: bit-exact round-trip determinism of the
 * machine-state image (warmup -> save -> restore -> run == the
 * uninterrupted run), the coherence edges the image must carry
 * faithfully (in-flight SIGNAL deliveries, TLB shootdowns, squashed
 * event-queue entries), fail-closed behavior on corrupted images, and
 * the serialization container itself.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "driver/runner.hh"
#include "harness/bare_machine.hh"
#include "harness/run_record.hh"
#include "sim/logging.hh"
#include "snapshot/snapshot.hh"
#include "snapshot/state_io.hh"

using namespace misp;

namespace {

class QuietEnv : public ::testing::Environment
{
  public:
    void SetUp() override { setQuietLogging(true); }
};

const ::testing::Environment *const kQuietEnv =
    ::testing::AddGlobalTestEnvironment(new QuietEnv);

/** A small but fully featured request: multi-shred target on a MISP
 *  processor, so the image must carry shred gangs, proxy traffic, and
 *  pending signal deliveries. */
harness::RunRequest
smallRequest()
{
    harness::RunRequest req;
    req.label = "snapshot_test";
    req.config = arch::SystemConfig::uniprocessor(3);
    req.config.physFrames = 1 << 16;
    req.backend = rt::Backend::Shred;
    req.target.name = "dense_mvm";
    req.target.params.workers = 3;
    req.hostLine = false;
    return req;
}

/** Simulated fields only — host timing legitimately differs. */
void
expectSameRecord(const harness::RunRecord &a, const harness::RunRecord &b)
{
    EXPECT_EQ(a.status, b.status);
    EXPECT_EQ(a.ticks, b.ticks);
    EXPECT_EQ(a.valid, b.valid);
    EXPECT_EQ(a.instsRetired, b.instsRetired);
    for (std::size_t i = 0; i < harness::kNumEventCounters; ++i)
        EXPECT_EQ(a.events[i], b.events[i])
            << harness::kEventCounters[i].name;
}

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + name;
}

} // namespace

// ---------------------------------------------------------------------
// Container
// ---------------------------------------------------------------------

TEST(Serialize, RoundTripAndSectionIndex)
{
    snap::Serializer s;
    s.beginSection(7);
    s.u64(0xDEADBEEFCAFEF00Dull);
    s.str("hello");
    s.f64(3.25);
    s.endSection();
    s.beginSection(9);
    s.b(true);
    s.endSection();
    std::string image = s.done();

    snap::Deserializer d(image);
    EXPECT_TRUE(d.hasSection(9));
    EXPECT_FALSE(d.hasSection(8));
    d.openSection(7);
    EXPECT_EQ(d.u64(), 0xDEADBEEFCAFEF00Dull);
    EXPECT_EQ(d.str(), "hello");
    EXPECT_EQ(d.f64(), 3.25);
    EXPECT_EQ(d.remaining(), 0u);
    d.openSection(9);
    EXPECT_TRUE(d.b());
}

TEST(Serialize, BadMagicAndCorruptionFailClosed)
{
    EXPECT_THROW(snap::Deserializer("not an image"), snap::SnapError);

    snap::Serializer s;
    s.beginSection(1);
    for (int i = 0; i < 64; ++i)
        s.u64(i);
    s.endSection();
    std::string image = s.done();

    // Flip one payload byte: the section CRC must catch it.
    std::string corrupt = image;
    corrupt[corrupt.size() - 9] ^= 0x40;
    snap::Deserializer d(corrupt);
    EXPECT_THROW(d.openSection(1), snap::SnapError);

    // Truncation is caught at parse time.
    EXPECT_THROW(snap::Deserializer(image.substr(0, image.size() - 8)),
                 snap::SnapError);

    // A hostile section size near 2^64 must not wrap the index cursor
    // back into bounds (it once segfaulted the CRC pass). The size
    // field of entry 0 sits after magic(8)+version(4)+count(4)+
    // id(4)+crc(4).
    std::string hostile = image;
    for (std::size_t i = 0; i < 8; ++i)
        hostile[24 + i] = static_cast<char>(i == 0 ? 0xF8 : 0xFF);
    EXPECT_THROW(snap::Deserializer{hostile}, snap::SnapError);
}

TEST(Serialize, ReadPastSectionEndThrows)
{
    snap::Serializer s;
    s.beginSection(1);
    s.u32(5);
    s.endSection();
    std::string image = s.done();
    snap::Deserializer d(image);
    d.openSection(1);
    EXPECT_EQ(d.u32(), 5u);
    EXPECT_THROW(d.u32(), snap::SnapError);
}

// ---------------------------------------------------------------------
// Round-trip determinism
// ---------------------------------------------------------------------

TEST(Snapshot, WarmupSaveRestoreBitIdentical)
{
    harness::RunRequest cold = smallRequest();
    harness::RunRecord coldRec = harness::runOne(cold);
    ASSERT_TRUE(coldRec.ok());

    // Save leg: warm up ~1/3 of the run, archive, keep running — must
    // already be indistinguishable from the cold run.
    const std::string image = tempPath("snapshot_roundtrip.misnap");
    harness::RunRequest save = smallRequest();
    save.snapshotOut = image;
    save.warmupTicks = coldRec.ticks / 3;
    harness::RunRecord saveRec = harness::runOne(save);
    ASSERT_TRUE(saveRec.ok()) << saveRec.note;
    expectSameRecord(coldRec, saveRec);

    // Restore leg: fork from the image, run to completion.
    harness::RunRequest warm = smallRequest();
    warm.snapshotIn = image;
    harness::RunRecord warmRec = harness::runOne(warm);
    ASSERT_TRUE(warmRec.ok()) << warmRec.note;
    expectSameRecord(coldRec, warmRec);

    // Fork-many: a second restore from the same image is just as good.
    harness::RunRecord warmRec2 = harness::runOne(warm);
    expectSameRecord(coldRec, warmRec2);
    std::remove(image.c_str());
}

TEST(Snapshot, CrossEngineSaveRestoreBitIdentical)
{
    // The host execution engine is not architectural state, so it must
    // never leak into an image: a snapshot warmed under one engine is
    // the same bytes as one warmed under another, and restores under
    // any engine to the same run.
    harness::RunRequest cold = smallRequest();
    cold.config.misp.engine = cpu::Engine::Reference;
    harness::RunRecord coldRec = harness::runOne(cold);
    ASSERT_TRUE(coldRec.ok());

    auto saveUnder = [&](cpu::Engine engine, const std::string &path) {
        harness::RunRequest save = smallRequest();
        save.config.misp.engine = engine;
        save.snapshotOut = path;
        save.warmupTicks = coldRec.ticks / 3;
        harness::RunRecord rec = harness::runOne(save);
        EXPECT_TRUE(rec.ok()) << rec.note;
        expectSameRecord(coldRec, rec);
    };
    const std::string imgSb = tempPath("snapshot_engine_sb.misnap");
    const std::string imgRef = tempPath("snapshot_engine_ref.misnap");
    saveUnder(cpu::Engine::Superblock, imgSb);
    saveUnder(cpu::Engine::Reference, imgRef);

    std::string bytesSb, bytesRef, err;
    ASSERT_TRUE(snap::readFileBytes(imgSb, &bytesSb, &err)) << err;
    ASSERT_TRUE(snap::readFileBytes(imgRef, &bytesRef, &err)) << err;
    std::size_t diffAt = 0;
    while (diffAt < bytesSb.size() && diffAt < bytesRef.size() &&
           bytesSb[diffAt] == bytesRef[diffAt])
        ++diffAt;
    EXPECT_TRUE(bytesSb == bytesRef)
        << "images are engine-dependent: sizes " << bytesSb.size()
        << " vs " << bytesRef.size() << ", first diff at byte "
        << diffAt;

    auto restoreUnder = [&](cpu::Engine engine,
                            const std::string &path) {
        harness::RunRequest warm = smallRequest();
        warm.config.misp.engine = engine;
        warm.snapshotIn = path;
        harness::RunRecord rec = harness::runOne(warm);
        EXPECT_TRUE(rec.ok()) << rec.note;
        expectSameRecord(coldRec, rec);
    };
    // Warm-save under superblock, restore under ref — and vice versa.
    restoreUnder(cpu::Engine::Reference, imgSb);
    restoreUnder(cpu::Engine::Superblock, imgRef);

    std::remove(imgSb.c_str());
    std::remove(imgRef.c_str());
}

TEST(Snapshot, OsBackendRoundTrip)
{
    harness::RunRequest cold = smallRequest();
    cold.config = arch::SystemConfig::mp({0, 0, 0});
    cold.config.physFrames = 1 << 16;
    cold.backend = rt::Backend::OsThread;
    harness::RunRecord coldRec = harness::runOne(cold);
    ASSERT_TRUE(coldRec.ok());

    const std::string image = tempPath("snapshot_os.misnap");
    harness::RunRequest save = cold;
    save.snapshotOut = image;
    save.warmupTicks = coldRec.ticks / 2;
    harness::RunRecord saveRec = harness::runOne(save);
    ASSERT_TRUE(saveRec.ok()) << saveRec.note;
    expectSameRecord(coldRec, saveRec);

    harness::RunRequest warm = cold;
    warm.snapshotIn = image;
    harness::RunRecord warmRec = harness::runOne(warm);
    ASSERT_TRUE(warmRec.ok()) << warmRec.note;
    expectSameRecord(coldRec, warmRec);
    std::remove(image.c_str());
}

// ---------------------------------------------------------------------
// Fail-closed paths
// ---------------------------------------------------------------------

TEST(Snapshot, CorruptedImageYieldsSnapshotError)
{
    const std::string image = tempPath("snapshot_corrupt.misnap");
    harness::RunRequest save = smallRequest();
    save.snapshotOut = image;
    save.warmupTicks = 5'000'000;
    ASSERT_TRUE(harness::runOne(save).ok());

    std::string bytes, err;
    ASSERT_TRUE(snap::readFileBytes(image, &bytes, &err));
    bytes[bytes.size() / 2] ^= 0x1;
    ASSERT_TRUE(snap::writeFileBytes(image, bytes, &err));

    harness::RunRequest warm = smallRequest();
    warm.snapshotIn = image;
    harness::RunRecord rec = harness::runOne(warm);
    EXPECT_EQ(rec.status, harness::RunStatus::SnapshotError);
    EXPECT_FALSE(rec.valid);
    EXPECT_FALSE(rec.note.empty());
    std::remove(image.c_str());
}

TEST(Snapshot, ConfigMismatchFailsClosed)
{
    const std::string image = tempPath("snapshot_mismatch.misnap");
    harness::RunRequest save = smallRequest();
    save.snapshotOut = image;
    save.warmupTicks = 5'000'000;
    ASSERT_TRUE(harness::runOne(save).ok());

    // Same machine, different workload parameters: the image must be
    // rejected, not silently produce the wrong experiment's numbers.
    harness::RunRequest warm = smallRequest();
    warm.snapshotIn = image;
    warm.target.params.workers = 2;
    harness::RunRecord rec = harness::runOne(warm);
    EXPECT_EQ(rec.status, harness::RunStatus::SnapshotError);
    std::remove(image.c_str());
}

TEST(Snapshot, MissingImageFailsClosed)
{
    harness::RunRequest warm = smallRequest();
    warm.snapshotIn = tempPath("snapshot_missing.misnap");
    harness::RunRecord rec = harness::runOne(warm);
    EXPECT_EQ(rec.status, harness::RunStatus::SnapshotError);
}

TEST(Snapshot, SequencerRestoreRejectsCrcValidGarbage)
{
    // Sections built with the real Serializer carry valid CRCs, so only
    // the restore's own checks stand between a bogus field and the
    // machine: an out-of-range SeqState byte, or a payload count that
    // the section cannot hold (each payload is 3 x u64).
    harness::BareMachine m("main:\n    halt\n");
    auto restore = [&](auto &&write) {
        snap::Serializer s;
        s.beginSection(1);
        write(s);
        s.endSection();
        snap::Deserializer d(s.done());
        d.openSection(1);
        m.seq.snapRestore(d);
    };
    // Control: the sequencer's own image restores.
    EXPECT_NO_THROW(restore([&](snap::Serializer &s) { m.seq.snapSave(s); }));

    auto prefix = [&](snap::Serializer &s, std::uint8_t state,
                      std::uint8_t preSuspend) {
        snap::putContext(s, m.seq.context());
        s.u8(state);
        s.u8(preSuspend);
        s.b(false);
    };
    EXPECT_THROW(restore([&](snap::Serializer &s) { prefix(s, 6, 0); }),
                 snap::SnapError);
    EXPECT_THROW(restore([&](snap::Serializer &s) { prefix(s, 0, 0xff); }),
                 snap::SnapError);
    // A 2^60-entry signal queue must be refused before it is allocated.
    EXPECT_THROW(restore([&](snap::Serializer &s) {
                     prefix(s, 0, 0);
                     s.u64(1ull << 60);
                 }),
                 snap::SnapError);
    // One payload present, two claimed.
    EXPECT_THROW(restore([&](snap::Serializer &s) {
                     prefix(s, 0, 0);
                     s.u64(2);
                     snap::putPayload(s, cpu::SignalPayload{});
                 }),
                 snap::SnapError);
    // The proxy queue is bounded the same way.
    EXPECT_THROW(restore([&](snap::Serializer &s) {
                     prefix(s, 0, 0);
                     s.u64(0);
                     s.u64(~0ull);
                 }),
                 snap::SnapError);
}

TEST(Snapshot, ProcessorRestoreRejectsFaultsNeverProxied)
{
    // A CRC-valid processor section whose proxy queue holds a request
    // the machine could never have made: a fault kind byte past the
    // enum, or a kind an AMS is killed for rather than proxied. Only
    // syscalls and page faults may come back.
    harness::Experiment exp(arch::SystemConfig::uniprocessor(1),
                            rt::Backend::Shred);
    arch::MispProcessor &mp = exp.system().processor(0);
    auto restore = [&](std::uint8_t kind) {
        snap::Serializer s;
        s.beginSection(1);
        s.b(false);
        s.u64(1); // one pending proxy request, from AMS 1
        s.u64(1);
        s.u8(kind); // snap::putFault's layout
        s.u64(0x1000);
        s.b(false);
        s.u64(0);
        snap::putContext(s, mp.amsAt(0).context());
        s.u64(0);
        snap::putEventSchedule(s, mp.snapTimerEvent());
        snap::putEventSchedule(s, mp.snapDeviceEvent());
        mp.sequencer(0)->snapSave(s);
        mp.amsAt(0).snapSave(s);
        s.endSection();
        snap::Deserializer d(s.done());
        d.openSection(1);
        mp.snapRestore(d);
    };
    using K = mem::FaultKind;
    EXPECT_NO_THROW(restore(std::uint8_t(K::Syscall)));
    EXPECT_NO_THROW(restore(std::uint8_t(K::PageFault)));
    for (K kind : {K::None, K::GeneralProtection, K::InvalidOpcode,
                   K::DivideError, K::Breakpoint}) {
        EXPECT_THROW(restore(std::uint8_t(kind)), snap::SnapError)
            << mem::faultKindName(kind);
    }
    EXPECT_THROW(restore(std::uint8_t(K::Breakpoint) + 1),
                 snap::SnapError);
    EXPECT_THROW(restore(0xff), snap::SnapError);

    // getFault itself refuses a kind byte past the enum.
    snap::Serializer s;
    s.beginSection(1);
    s.u8(std::uint8_t(K::Breakpoint) + 1);
    s.u64(0);
    s.b(false);
    s.u64(0);
    s.endSection();
    snap::Deserializer d(s.done());
    d.openSection(1);
    EXPECT_THROW(snap::getFault(d), snap::SnapError);
}

TEST(Snapshot, WarmupPastCompletionFailsClosed)
{
    harness::RunRequest save = smallRequest();
    save.snapshotOut = tempPath("snapshot_late.misnap");
    save.warmupTicks = 2'000'000'000'000ull; // beyond any completion
    harness::RunRecord rec = harness::runOne(save);
    EXPECT_EQ(rec.status, harness::RunStatus::SnapshotError);
}

// ---------------------------------------------------------------------
// Coherence edges
// ---------------------------------------------------------------------

namespace {

/** Drive an experiment to @p warmupTicks + the next snapshot point,
 *  save, and hand back both the running experiment and the image. */
struct SplitRun {
    std::unique_ptr<harness::Experiment> exp;
    harness::LoadedProcess proc;
    std::string image;
};

SplitRun
warmUpAndSave(const harness::RunRequest &req, Tick warmupTicks,
              bool (*ready)(harness::Experiment &))
{
    SplitRun out;
    const wl::WorkloadInfo *info = wl::findWorkload(req.target.name);
    EXPECT_NE(info, nullptr);
    wl::Workload w = info->build(req.target.params);
    out.exp = std::make_unique<harness::Experiment>(req.config,
                                                    req.backend);
    out.proc = out.exp->load(w.app);
    out.exp->system().start();
    out.exp->system().run(warmupTicks);
    // Step to a snapshot point that also satisfies the edge the test
    // wants in flight.
    EventQueue &eq = out.exp->system().eventQueue();
    for (std::uint64_t guard = 0; guard < 2'000'000; ++guard) {
        if (snap::snapshotReady(*out.exp) && ready(*out.exp))
            break;
        if (!eq.step())
            break;
    }
    EXPECT_TRUE(snap::snapshotReady(*out.exp));
    std::string err;
    EXPECT_TRUE(snap::saveExperiment(*out.exp, out.proc.process, 0, "t",
                                     &out.image, &err))
        << err;
    return out;
}

bool
signalInFlight(harness::Experiment &exp)
{
    bool found = false;
    exp.system().eventQueue().forEachScheduled(
        [&](const EventQueue::ScheduledInfo &info) {
            found = found || (info.tag && info.tag->kind != 0 &&
                              info.ev->name() == "fabric.signal");
        });
    return found;
}

Tick
finishTo(harness::Experiment &exp, os::Process *target)
{
    harness::RunOutcome out = exp.resumeToCompletion(target);
    EXPECT_TRUE(out.completed());
    return out.ticks;
}

} // namespace

TEST(Snapshot, SaveAcrossInFlightSignalDelivery)
{
    // Save at a point where a wake SIGNAL is still traversing the
    // fabric (scheduled, undelivered): the image must carry it with
    // its exact delivery tick and queue ordering.
    harness::RunRequest req = smallRequest();
    SplitRun split = warmUpAndSave(req, 2'000'000, signalInFlight);
    ASSERT_TRUE(signalInFlight(*split.exp));

    snap::RestoredExperiment restored;
    std::string err;
    ASSERT_TRUE(snap::restoreExperiment(split.image, &restored, &err))
        << err;
    ASSERT_TRUE(signalInFlight(*restored.exp));

    Tick direct = finishTo(*split.exp, split.proc.process);
    Tick resumed = finishTo(*restored.exp, restored.target);
    EXPECT_EQ(direct, resumed);
}

TEST(Snapshot, SaveAcrossTlbShootdown)
{
    // Invalidate a hot page translation on every sequencer (the
    // shootdown a host poke to a mapped page would issue), snapshot,
    // and check the restored machine re-walks exactly as the original.
    harness::RunRequest req = smallRequest();
    SplitRun split =
        warmUpAndSave(req, 3'000'000, [](harness::Experiment &) {
            return true;
        });

    arch::MispProcessor &mp = split.exp->system().processor(0);
    os::OsThread *cur =
        split.exp->system().kernel().current(mp.cpuId());
    ASSERT_NE(cur, nullptr);
    VAddr code = cur->context().eip ? cur->context().eip : 0x40'0000;
    for (SequencerId sid = 0;; ++sid) {
        cpu::Sequencer *seq = mp.sequencer(sid);
        if (!seq)
            break;
        seq->mmu().invalidatePage(code);
    }
    std::string image, err;
    ASSERT_TRUE(snap::saveExperiment(*split.exp, split.proc.process, 0,
                                     "t", &image, &err))
        << err;

    snap::RestoredExperiment restored;
    ASSERT_TRUE(snap::restoreExperiment(image, &restored, &err)) << err;
    Tick direct = finishTo(*split.exp, split.proc.process);
    Tick resumed = finishTo(*restored.exp, restored.target);
    EXPECT_EQ(direct, resumed);
}

TEST(Snapshot, SquashedQueueEntriesStayOutOfTheImage)
{
    // A descheduled (squashed) occurrence leaves a stale heap entry;
    // the image must carry only the live schedule.
    EventQueue eq;
    LambdaEvent a("a", [] {});
    LambdaEvent b("b", [] {});
    eq.schedule(&a, 100);
    eq.schedule(&b, 200);
    eq.deschedule(&a); // squashed: stale entry remains in the heap
    eq.reschedule(&b, 300); // stale entry with the old seq remains

    std::size_t live = 0;
    eq.forEachScheduled([&](const EventQueue::ScheduledInfo &info) {
        ++live;
        EXPECT_EQ(info.ev, &b);
        EXPECT_EQ(info.when, Tick{300});
    });
    EXPECT_EQ(live, 1u);
    eq.deschedule(&b);
}

TEST(Snapshot, ProxyWaitRoundTrip)
{
    // Save while at least one AMS is mid-proxy (WaitingProxy or a
    // queued request): restore must reproduce the completion path.
    harness::RunRequest req = smallRequest();
    SplitRun split =
        warmUpAndSave(req, 1'000'000, [](harness::Experiment &exp) {
            arch::MispProcessor &mp = exp.system().processor(0);
            bool waiting = mp.proxyInFlight();
            for (unsigned i = 0; i < mp.numAms(); ++i) {
                waiting = waiting || mp.amsAt(i).state() ==
                                         cpu::SeqState::WaitingProxy;
            }
            return waiting;
        });

    snap::RestoredExperiment restored;
    std::string err;
    ASSERT_TRUE(snap::restoreExperiment(split.image, &restored, &err))
        << err;
    Tick direct = finishTo(*split.exp, split.proc.process);
    Tick resumed = finishTo(*restored.exp, restored.target);
    EXPECT_EQ(direct, resumed);
}

// ---------------------------------------------------------------------
// Crash-isolated worker backend
// ---------------------------------------------------------------------

namespace {

const char *kIsolateScn = R"(
[scenario]
name = isolate_test

[machine misp]
ams = 3
phys_frames = 65536

[workload]
name = dense_mvm

[sweep]
workload.workers = 1, 2, 3
)";

std::vector<driver::PointResult>
runIsolateScenario(const driver::RunnerOptions &opts)
{
    driver::SpecFile spec;
    driver::Scenario sc;
    std::vector<driver::ScenarioPoint> pts;
    std::string err;
    EXPECT_TRUE(
        driver::SpecFile::parse(kIsolateScn, "<test>", &spec, &err))
        << err;
    EXPECT_TRUE(driver::Scenario::fromSpec(spec, &sc, &err)) << err;
    EXPECT_TRUE(sc.expandPoints(false, &pts, &err)) << err;
    return driver::ScenarioRunner(opts).runAll(sc, pts);
}

} // namespace

TEST(Isolate, ForkedWorkersMatchInProcessRuns)
{
    driver::RunnerOptions serial;
    serial.hostLines = false;
    std::vector<driver::PointResult> inProc = runIsolateScenario(serial);

    driver::RunnerOptions iso = serial;
    iso.isolate = true;
    iso.jobs = 2;
    std::vector<driver::PointResult> forked = runIsolateScenario(iso);

    ASSERT_EQ(inProc.size(), forked.size());
    for (std::size_t i = 0; i < inProc.size(); ++i) {
        EXPECT_EQ(inProc[i].coords, forked[i].coords);
        expectSameRecord(inProc[i].run, forked[i].run);
    }
}

TEST(Isolate, CrashedWorkerFailsOnlyItsPoint)
{
    driver::RunnerOptions iso;
    iso.hostLines = false;
    iso.isolate = true;
    iso.jobs = 2;
    std::string err;
    ASSERT_TRUE(driver::FaultPlan::parse("crash@1", &iso.faults, &err))
        << err;
    std::vector<driver::PointResult> results = runIsolateScenario(iso);

    ASSERT_EQ(results.size(), 3u);
    EXPECT_TRUE(results[0].run.ok());
    EXPECT_EQ(results[1].run.status, harness::RunStatus::WorkerCrashed);
    EXPECT_FALSE(results[1].run.note.empty());
    EXPECT_TRUE(results[2].run.ok());
}

TEST(Isolate, SnapshotErrorTravelsBackFromWorker)
{
    driver::RunnerOptions iso;
    iso.hostLines = false;
    iso.isolate = true;
    iso.snapshotLoadDir = tempPath("isolate_no_such_dir");
    std::vector<driver::PointResult> results = runIsolateScenario(iso);
    ASSERT_EQ(results.size(), 3u);
    for (const driver::PointResult &r : results)
        EXPECT_EQ(r.run.status, harness::RunStatus::SnapshotError);
}

// ---------------------------------------------------------------------
// RunRecord wire codec (the --isolate pipe format)
// ---------------------------------------------------------------------

TEST(Snapshot, RunRecordCodecRoundTrip)
{
    harness::RunRecord rec;
    rec.status = harness::RunStatus::Completed;
    rec.ticks = 123456789;
    rec.valid = true;
    rec.instsRetired = 987654321;
    rec.events[harness::EventCounter::OmsSyscalls] = 11;
    rec.events[harness::EventCounter::AmsPageFaults] = 22;
    rec.events[harness::EventCounter::SerializeCycles] = 1.5e9;
    rec.events[harness::EventCounter::SuspendedCycles] = 3.25e8;
    rec.hostSeconds = 1.25;
    rec.hostMips = 790.1;
    rec.statsJson = "{\"x\": 1}";
    rec.note = "";
    rec.attempts = 3;

    harness::RunRecord back;
    std::string err;
    ASSERT_TRUE(
        snap::decodeRunRecord(snap::encodeRunRecord(rec), &back, &err))
        << err;
    expectSameRecord(rec, back);
    EXPECT_EQ(back.statsJson, rec.statsJson);
    EXPECT_EQ(back.hostSeconds, rec.hostSeconds);
    EXPECT_EQ(back.attempts, 3u);

    harness::RunRecord bad;
    EXPECT_FALSE(snap::decodeRunRecord("garbage", &bad, &err));

    // Truncated and trailing-garbage payloads fail closed.
    std::string wire = snap::encodeRunRecord(rec);
    EXPECT_FALSE(snap::decodeRunRecord(
        wire.substr(0, wire.size() / 2), &bad, &err));
    EXPECT_FALSE(snap::decodeRunRecord(wire + "x", &bad, &err));
}
