/**
 * @file
 * Snapshot subsystem tests: bit-exact round-trip determinism of the
 * machine-state image (warmup -> save -> restore -> run == the
 * uninterrupted run), the coherence edges the image must carry
 * faithfully (in-flight SIGNAL deliveries, TLB shootdowns, descheduled
 * event-queue entries, saves in the middle of a Ring-0 episode),
 * fail-closed behavior on corrupted and CRC-valid-but-bogus images,
 * and the serialization container itself.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cstdio>
#include <functional>
#include <string>
#include <tuple>

#include "driver/runner.hh"
#include "harness/bare_machine.hh"
#include "harness/run_record.hh"
#include "isa/assembler.hh"
#include "misp/signal_fabric.hh"
#include "os/kernel.hh"
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

/** Little-endian fields of an image, for tests that inspect or patch
 *  one. Image layout: header magic(8) version(4) count(4), an index
 *  entry id(4) crc(4) size(8) per section, then the payloads in index
 *  order. */
std::uint64_t
getLE(const std::string &b, std::size_t at, unsigned bytes)
{
    std::uint64_t v = 0;
    for (unsigned i = 0; i < bytes; ++i)
        v |= std::uint64_t(std::uint8_t(b[at + i])) << (8 * i);
    return v;
}

void
putLE(std::string &b, std::size_t at, unsigned bytes, std::uint64_t v)
{
    for (unsigned i = 0; i < bytes; ++i)
        b[at + i] = static_cast<char>(v >> (8 * i));
}

std::string
le64(std::uint64_t v)
{
    std::string b(8, '\0');
    putLE(b, 0, 8, v);
    return b;
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

TEST(Snapshot, IdealPlacementWithCompetitorsRoundTrip)
{
    // Figure 7's ideal machine with one competitor more than it has
    // AMS-less CPUs, so the placement policy decides where the extra
    // one runs: a restored machine must keep each competitor's
    // placement list and the policy, or the 5th competitor strays onto
    // the MISP CPU and the run moves.
    harness::RunRequest cold = smallRequest();
    cold.config = arch::SystemConfig::mp({3, 0, 0, 0, 0});
    cold.config.physFrames = 1 << 16;
    cold.config.kernel.idealPlacement = true;
    cold.target.name = "Raytracer";
    cold.target.params.extra = {{"rows", "16"}};
    cold.pinMinAms = 3;
    cold.competitors = 5;
    harness::RunRecord coldRec = harness::runOne(cold);
    ASSERT_TRUE(coldRec.ok());
    harness::RunRequest plain = cold;
    plain.config.kernel.idealPlacement = false;
    EXPECT_NE(harness::runOne(plain).ticks, coldRec.ticks);

    const std::string image = tempPath("snapshot_ideal.misnap");
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

TEST(Snapshot, ContextFlagsKeepTheirFourByteLayout)
{
    // FLAGS is one packed nibble in memory, but the image keeps one
    // byte per flag (zf, sf, cf, of) after the registers and EIP, so
    // images stay byte-identical to those of the four-bool layout.
    for (unsigned bits = 0; bits < isa::Flags::kStates; ++bits) {
        cpu::SequencerContext ctx;
        for (unsigned r = 0; r < isa::kNumRegs; ++r)
            ctx.regs[r] = 0x1000 + r;
        ctx.eip = 0x40'0010;
        ctx.flags = isa::Flags::fromBits(bits);
        ctx.setTrigger(isa::Scenario::ProxyRequest, 0x40'0100);
        ctx.savedEip = 0x40'0200;
        ctx.inHandler = true;
        ctx.bankedRegs = {1, 2, 3, 4};

        snap::Serializer got;
        got.beginSection(1);
        snap::archive(got, ctx);
        got.endSection();
        const std::string image = got.done();

        snap::Serializer want; // the four-bool codec, longhand
        want.beginSection(1);
        for (Word r : ctx.regs)
            want.u64(r);
        want.u64(ctx.eip);
        for (unsigned bit = 0; bit < 4; ++bit)
            want.u8((bits >> bit) & 1);
        for (VAddr t : ctx.triggers)
            want.u64(t);
        want.u64(ctx.savedEip);
        want.b(ctx.inHandler);
        for (Word r : ctx.bankedRegs)
            want.u64(r);
        want.endSection();
        EXPECT_EQ(image, want.done()) << "flags " << bits;

        snap::Deserializer d(image);
        d.openSection(1);
        cpu::SequencerContext back;
        snap::archive(d, back);
        EXPECT_EQ(back.flags, ctx.flags) << "flags " << bits;
    }
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
        m.seq.archive(d);
    };
    // Control: the sequencer's own image restores.
    EXPECT_NO_THROW(restore([&](snap::Serializer &s) { m.seq.archive(s); }));

    auto prefix = [&](snap::Serializer &s, std::uint8_t state,
                      std::uint8_t preSuspend) {
        snap::archive(s, m.seq.context());
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
                     cpu::SignalPayload payload;
                     snap::archive(s, payload);
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

namespace {

/** The rest of a processor section after its proxy queue, for a
 *  processor between episodes with nothing in flight: unscheduled
 *  timer and device events, an Idle Ring-0 phase, no held request, no
 *  fabric deliveries, then its sequencers' own images. */
void
writeProcTail(snap::Serializer &s, arch::MispProcessor &mp)
{
    s.b(false); // timer event
    s.b(false); // device-IRQ event
    s.u8(0);    // Ring-0 phase: Idle
    s.b(false); // Ring-0 phase event
    s.b(false); // no held request
    s.u64(0);   // no fabric deliveries
    for (SequencerId sid = 0; mp.sequencer(sid); ++sid)
        mp.sequencer(sid)->archive(s);
}

} // namespace

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
        s.u8(kind); // the fault archive's layout
        s.u64(0x1000);
        s.b(false);
        s.u64(0);
        snap::archive(s, mp.amsAt(0).context());
        writeProcTail(s, mp);
        s.endSection();
        snap::Deserializer d(s.done());
        d.openSection(1);
        mp.archive(d);
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

    // The fault archive itself refuses a kind byte past the enum.
    snap::Serializer s;
    s.beginSection(1);
    s.u8(std::uint8_t(K::Breakpoint) + 1);
    s.u64(0);
    s.b(false);
    s.u64(0);
    s.endSection();
    snap::Deserializer d(s.done());
    d.openSection(1);
    mem::Fault fault;
    EXPECT_THROW(snap::archive(d, fault), snap::SnapError);
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

/** A run split at an event boundary: the machine that keeps going,
 *  and the image saved there. */
struct SplitRun {
    std::unique_ptr<harness::Experiment> exp;
    harness::LoadedProcess proc;
    std::string image;
};

using Ready = std::function<bool(harness::Experiment &)>;

/** Run @p app on @p req's machine to @p warmupTicks, step event by
 *  event until @p ready holds (the edge the test wants in flight), and
 *  save exactly there. */
SplitRun
warmUpAndSave(const harness::RunRequest &req, const harness::GuestApp &app,
              Tick warmupTicks, const Ready &ready)
{
    SplitRun out;
    out.exp = std::make_unique<harness::Experiment>(req.config,
                                                    req.backend);
    out.proc = out.exp->load(app);
    out.exp->system().start();
    out.exp->system().run(warmupTicks);
    EventQueue &eq = out.exp->system().eventQueue();
    bool found = ready(*out.exp);
    for (std::uint64_t guard = 0; !found && guard < 2'000'000; ++guard) {
        if (!eq.step())
            break;
        found = ready(*out.exp);
    }
    EXPECT_TRUE(found) << "the state under test never arose";
    std::string err;
    EXPECT_TRUE(snap::saveExperiment(*out.exp, out.proc.process, 0, "t",
                                     &out.image, &err))
        << err;
    return out;
}

SplitRun
warmUpAndSave(const harness::RunRequest &req, Tick warmupTicks,
              const Ready &ready)
{
    const wl::WorkloadInfo *info = wl::findWorkload(req.target.name);
    EXPECT_NE(info, nullptr);
    return warmUpAndSave(req, info->build(req.target.params).app,
                         warmupTicks, ready);
}

std::size_t
inFlight(harness::Experiment &exp, arch::SignalFabric::Delivery kind)
{
    return exp.system().processor(0).fabric().inFlight(kind);
}

bool
signalInFlight(harness::Experiment &exp)
{
    return inFlight(exp, arch::SignalFabric::Delivery::Signal) > 0;
}

bool
sleepWakePending(harness::Experiment &exp)
{
    bool pending = false;
    exp.system().eventQueue().forEachScheduled(
        [&pending](const Event &ev) {
            pending = pending || ev.name() == "kernel.sleepWake";
        });
    return pending;
}

/** Every pending event as (name, when, seq, priority), in seq order. */
std::vector<std::tuple<std::string, Tick, std::uint64_t, int>>
pendingSchedule(harness::Experiment &exp)
{
    std::vector<std::tuple<std::string, Tick, std::uint64_t, int>> out;
    exp.system().eventQueue().forEachScheduled([&out](const Event &ev) {
        out.emplace_back(ev.name(), ev.when(), ev.seq(), ev.priority());
    });
    std::sort(out.begin(), out.end(), [](const auto &a, const auto &b) {
        return std::get<2>(a) < std::get<2>(b);
    });
    return out;
}

Tick
finishTo(harness::Experiment &exp, os::Process *target)
{
    harness::RunOutcome out = exp.resumeToCompletion(target);
    EXPECT_TRUE(out.completed());
    return out.ticks;
}

/** Where two images first differ: the section and the payload offset
 *  in it. */
std::string
firstDifference(const std::string &a, const std::string &b)
{
    if (a.size() < 16 || b.size() < 16 || getLE(a, 12, 4) != getLE(b, 12, 4))
        return "different headers";
    const std::uint64_t sections = getLE(a, 12, 4);
    std::size_t pa = 16 + 16 * sections, pb = pa;
    for (std::uint64_t i = 0; i < sections; ++i) {
        const std::size_t entry = 16 + 16 * i;
        const std::uint64_t sa = getLE(a, entry + 8, 8);
        const std::uint64_t sb = getLE(b, entry + 8, 8);
        std::size_t k = 0;
        while (k < sa && k < sb && a[pa + k] == b[pb + k])
            ++k;
        if (sa != sb || k < sa)
            return "section " + std::to_string(getLE(a, entry, 4)) +
                   " (sizes " + std::to_string(sa) + " vs " +
                   std::to_string(sb) + ") at payload byte " +
                   std::to_string(k);
        pa += sa;
        pb += sb;
    }
    return "no difference";
}

/** Restore @p split's image under @p engine and require it to be the
 *  saved machine: the same pending schedule at once, and at the end of
 *  both runs the same completion tick and the same machine — every
 *  archived byte, statistics included. */
void
expectRestoreFinishesIdentically(SplitRun &split, cpu::Engine engine)
{
    snap::RestoredExperiment restored;
    std::string err;
    ASSERT_TRUE(snap::restoreExperiment(split.image, &restored, &err))
        << err;
    EXPECT_EQ(pendingSchedule(*split.exp), pendingSchedule(*restored.exp));
    restored.exp->system().setEngine(engine);
    const Tick direct = finishTo(*split.exp, split.proc.process);
    const Tick resumed = finishTo(*restored.exp, restored.target);
    EXPECT_EQ(direct, resumed);

    std::string endDirect, endResumed;
    ASSERT_TRUE(snap::saveExperiment(*split.exp, split.proc.process, 0,
                                     "t", &endDirect, &err))
        << err;
    ASSERT_TRUE(snap::saveExperiment(*restored.exp, restored.target, 0,
                                     "t", &endResumed, &err))
        << err;
    EXPECT_TRUE(endDirect == endResumed)
        << "machines diverged after restore (engine "
        << cpu::engineName(engine) << "): "
        << firstDifference(endDirect, endResumed);
}

/** Save where @p ready first holds after @p warmupTicks, under each
 *  engine, and check the restored run against the direct one. */
void
roundTripAt(const harness::RunRequest &base, const harness::GuestApp &app,
            Tick warmupTicks, const Ready &ready)
{
    for (cpu::Engine engine :
         {cpu::Engine::Reference, cpu::Engine::Superblock}) {
        SCOPED_TRACE(cpu::engineName(engine));
        harness::RunRequest req = base;
        req.config.misp.engine = engine;
        SplitRun split = warmUpAndSave(req, app, warmupTicks, ready);
        expectRestoreFinishesIdentically(split, engine);
    }
}

void
roundTripAt(const harness::RunRequest &req, Tick warmupTicks,
            const Ready &ready)
{
    const wl::WorkloadInfo *info = wl::findWorkload(req.target.name);
    ASSERT_NE(info, nullptr);
    roundTripAt(req, info->build(req.target.params).app, warmupTicks,
                ready);
}

/** The naive Open Dynamics Engine port (examples/mixed_io.cpp), cut
 *  down: the shredded main thread blocks in Sys::Sleep between compute
 *  phases, so sleep wakeups, Ring-0 episodes and proxy traffic
 *  interleave. */
harness::GuestApp
sleepyShreds()
{
    harness::GuestApp app;
    app.name = "sleepy_shreds";
    app.program = isa::assemble(R"(
        main:
            call 0x600000       ; rt_init
            movi r8, 0
        phases:
            movi r0, 400000
            syscall 5           ; Sys::Sleep: the OS thread blocks
            movi r4, 0
        mkshreds:
            movi r0, crunch
            mov r1, r4
            call 0x600200       ; shred_create
            addi r4, r4, 1
            cmpi r4, 3
            jcc.lt mkshreds
            call 0x600280       ; join_all
            addi r8, r8, 1
            cmpi r8, 3
            jcc.lt phases
            movi r0, 0
            call 0x600A00       ; exit_process
        crunch:
            movi r5, 0
        crunchloop:
            compute 1900
            addi r5, r5, 1
            cmpi r5, 400
            jcc.lt crunchloop
            ret
    )", mem::kCodeBase);
    return app;
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
    expectRestoreFinishesIdentically(split, req.config.misp.engine);
}

// ---------------------------------------------------------------------
// Saves in the middle of a Ring-0 episode
// ---------------------------------------------------------------------

TEST(Snapshot, MidEpisodeWithSuspendsInFlight)
{
    // The handshake phase: the OMS is in Ring 0 and the suspend
    // signals to the AMSs have not arrived yet.
    roundTripAt(smallRequest(), 2'000'000, [](harness::Experiment &exp) {
        return exp.system().processor(0).inRing0() &&
               inFlight(exp, arch::SignalFabric::Delivery::Suspend) > 0;
    });
}

TEST(Snapshot, MidEpisodeAfterTheKernelWork)
{
    // The kernel phase: the suspends arrived, the kernel work ran and
    // its result is held until Ring 3 returns.
    roundTripAt(smallRequest(), 2'000'000, [](harness::Experiment &exp) {
        arch::MispProcessor &mp = exp.system().processor(0);
        return mp.inRing0() &&
               inFlight(exp, arch::SignalFabric::Delivery::Suspend) == 0 &&
               mp.amsAt(0).state() == cpu::SeqState::Suspended;
    });
}

TEST(Snapshot, ResumesInFlight)
{
    roundTripAt(smallRequest(), 2'000'000, [](harness::Experiment &exp) {
        return inFlight(exp, arch::SignalFabric::Delivery::Resume) > 0;
    });
}

TEST(Snapshot, ProxyDoneInFlight)
{
    // A proxied fault was serviced; the AMS's patched context is
    // still on its way back.
    roundTripAt(smallRequest(), 1'000'000, [](harness::Experiment &exp) {
        return inFlight(exp, arch::SignalFabric::Delivery::ProxyDone) > 0;
    });
}

TEST(Snapshot, MidEpisodeWithAHeldRequest)
{
    // Seed 2 of tests/regress/ring0_reentry.scn: exit_process is raised
    // on the OMS during a timer episode and held for Ring-0 exit.
    driver::SpecFile spec;
    driver::Scenario sc;
    std::vector<driver::ScenarioPoint> pts;
    std::string err;
    ASSERT_TRUE(driver::SpecFile::parse(
        "[machine misp3]\nprocessors = 3\nbackend = shred\n"
        "kernel_seed = 2\n[workload]\nname = ADAt\nworkers = 7\n"
        "scale = 1\n",
        "<test>", &spec, &err))
        << err;
    ASSERT_TRUE(driver::Scenario::fromSpec(spec, &sc, &err)) << err;
    ASSERT_TRUE(sc.expandPoints(false, &pts, &err)) << err;
    ASSERT_EQ(pts.size(), 1u);
    const harness::RunRequest req =
        driver::makeRunRequest(sc, pts[0], driver::RunnerOptions{});
    roundTripAt(req, 290'000'000, [](harness::Experiment &exp) {
        return exp.system().processor(0).requestHeld();
    });
    // An episode in flight while the previous one's resume signals are
    // still on their way to the AMSs (as when a held request starts).
    roundTripAt(req, 290'000'000, [](harness::Experiment &exp) {
        return exp.system().processor(0).inRing0() &&
               inFlight(exp, arch::SignalFabric::Delivery::Resume) > 0;
    });
}

TEST(Snapshot, MidEpisodeAcrossAThreadSwitch)
{
    // The kernel phase of an episode that switches threads: the
    // outgoing thread is saved and the OMS unloaded, and the incoming
    // thread (the kernel's current one already) loads at Ring-0 exit.
    harness::RunRequest req = smallRequest();
    req.config = arch::SystemConfig::mp({0});
    req.config.physFrames = 1 << 16;
    req.backend = rt::Backend::OsThread;
    roundTripAt(req, sleepyShreds(), 100'000, [](harness::Experiment &exp) {
        arch::MispProcessor &mp = exp.system().processor(0);
        return mp.inRing0() && mp.oms().idle() &&
               exp.system().kernel().current(mp.cpuId()) != nullptr;
    });
}

TEST(Snapshot, MidEpisodeWithASleepWakePending)
{
    // A sleeping OS thread's wakeup is pending while a Ring-0 episode
    // is in flight.
    harness::RunRequest req = smallRequest();
    roundTripAt(req, sleepyShreds(), 100'000,
                [](harness::Experiment &exp) {
                    return sleepWakePending(exp) &&
                           exp.system().processor(0).inRing0();
                });
}

TEST(Snapshot, SleepWakeRoundTripUnderTheOsBackend)
{
    harness::RunRequest req = smallRequest();
    req.config = arch::SystemConfig::mp({0, 0});
    req.config.physFrames = 1 << 16;
    req.backend = rt::Backend::OsThread;
    roundTripAt(req, sleepyShreds(), 100'000, sleepWakePending);
}

TEST(Snapshot, SaveLegArchivesTheExactWarmupTick)
{
    // No stepping to a "snapshot point": the image holds the machine
    // as run(warmup_ticks) left it, and nothing past that tick ran.
    const std::string image = tempPath("snapshot_exact.misnap");
    harness::RunRequest save = smallRequest();
    save.snapshotOut = image;
    save.warmupTicks = 3'000'000;
    ASSERT_TRUE(harness::runOne(save).ok());
    std::string bytes, err;
    ASSERT_TRUE(snap::readFileBytes(image, &bytes, &err)) << err;
    snap::SnapshotMeta meta;
    ASSERT_TRUE(snap::readSnapshotMeta(bytes, &meta, &err)) << err;
    EXPECT_LE(meta.savedTick, save.warmupTicks);
    EXPECT_GT(meta.savedTick, save.warmupTicks - 100'000);
    std::remove(image.c_str());
}

TEST(Snapshot, SaveRefusesAnEventNoComponentArchives)
{
    harness::RunRequest req = smallRequest();
    SplitRun split =
        warmUpAndSave(req, 1'000'000, [](harness::Experiment &) {
            return true;
        });
    split.exp->system().eventQueue().scheduleLambda(
        split.exp->system().eventQueue().curTick() + 10, "stray", [] {});
    std::string image, err;
    EXPECT_FALSE(snap::saveExperiment(*split.exp, split.proc.process, 0,
                                      "t", &image, &err));
    EXPECT_NE(err.find("'stray'"), std::string::npos) << err;
}

// ---------------------------------------------------------------------
// CRC-valid images with bogus records
// ---------------------------------------------------------------------

namespace {

/** A copy of @p image whose pending occurrence (when @p when, seq
 *  @p seq, archived priority @p live) in section @p section carries
 *  @p priority instead, with that section's CRC recomputed so only the
 *  restore's own checks can object. A pending occurrence's record ends
 *  with its (when u64, seq u64, priority i64). */
std::string
withPriority(std::string image, std::uint32_t section, Tick when,
             std::uint64_t seq, std::int64_t live, std::int64_t priority)
{
    const std::string needle =
        le64(when) + le64(seq) + le64(std::uint64_t(live));
    const std::uint64_t sections = getLE(image, 12, 4);
    std::size_t payload = 16 + 16 * sections;
    for (std::uint64_t i = 0; i < sections; ++i) {
        const std::size_t entry = 16 + 16 * i;
        const std::uint64_t size = getLE(image, entry + 8, 8);
        if (getLE(image, entry, 4) == section) {
            const std::size_t at = image.find(needle, payload);
            if (at == std::string::npos || at + 24 > payload + size) {
                ADD_FAILURE() << "occurrence not found in section "
                              << section;
                return image;
            }
            putLE(image, at + 16, 8, std::uint64_t(priority));
            putLE(image, entry + 4, 4,
                  snap::crc32(image.data() + payload, size));
            return image;
        }
        payload += size;
    }
    ADD_FAILURE() << "no section " << section;
    return image;
}

/** The oldest pending event named @p name. */
const Event *
oldestPending(harness::Experiment &exp, const std::string &name)
{
    const Event *found = nullptr;
    exp.system().eventQueue().forEachScheduled(
        [&](const Event &ev) {
            if (ev.name() == name && (!found || ev.seq() < found->seq()))
                found = &ev;
        });
    return found;
}

bool
restores(const std::string &image, std::string *err)
{
    snap::RestoredExperiment restored;
    err->clear();
    return snap::restoreExperiment(image, &restored, err);
}

constexpr std::uint32_t kSecKernel = 4;
constexpr std::uint32_t kSecProcs = 5;

} // namespace

TEST(Snapshot, RestoreRejectsDeliveryAndSleepWakePriority)
{
    // A real image with a signal delivery in flight. Each pending
    // occurrence is only ever scheduled at one priority; a CRC-valid
    // image carrying any other must fail closed, including one that
    // narrowing to int would have turned back into the live value.
    harness::RunRequest req = smallRequest();
    SplitRun split = warmUpAndSave(req, 2'000'000, signalInFlight);
    const Event *delivery = oldestPending(*split.exp, "fabric.delivery");
    ASSERT_NE(delivery, nullptr);
    auto deliveryAt = [&](std::int64_t prio) {
        return withPriority(split.image, kSecProcs, delivery->when(),
                            delivery->seq(),
                            arch::SignalFabric::kDeliveryPrio, prio);
    };
    std::string err;
    EXPECT_TRUE(restores(deliveryAt(arch::SignalFabric::kDeliveryPrio),
                         &err))
        << err;
    const std::int64_t bogus[] = {std::int64_t(Event::kPrioDefault),
                                  std::int64_t(Event::kPrioCpu),
                                  std::int64_t(-1), std::int64_t(1) << 32,
                                  INT64_MIN};
    for (std::int64_t prio : bogus) {
        EXPECT_FALSE(restores(deliveryAt(prio), &err)) << prio;
        EXPECT_NE(err.find("fabric delivery has priority"),
                  std::string::npos)
            << err;
    }

    // A sleep wakeup: accepted at the kernel's priority only.
    SplitRun sleepy =
        warmUpAndSave(req, sleepyShreds(), 100'000, sleepWakePending);
    const Event *wake = oldestPending(*sleepy.exp, "kernel.sleepWake");
    ASSERT_NE(wake, nullptr);
    auto wakeAt = [&](std::int64_t prio) {
        return withPriority(sleepy.image, kSecKernel, wake->when(),
                            wake->seq(), os::Kernel::kSleepWakePrio, prio);
    };
    EXPECT_TRUE(restores(wakeAt(os::Kernel::kSleepWakePrio), &err)) << err;
    EXPECT_FALSE(restores(wakeAt(arch::SignalFabric::kDeliveryPrio), &err));
    EXPECT_NE(err.find("kernel sleep wakeup has priority"),
              std::string::npos)
        << err;
    for (std::int64_t prio : bogus) {
        if (prio == os::Kernel::kSleepWakePrio)
            continue;
        EXPECT_FALSE(restores(wakeAt(prio), &err)) << prio;
        EXPECT_NE(err.find("kernel sleep wakeup has priority"),
                  std::string::npos)
            << err;
    }
}

namespace {

/** Record bytes, little-endian, laid out as snap::Serializer writes
 *  them. */
struct Bytes {
    std::string b;

    Bytes &
    u8(std::uint8_t v)
    {
        b.push_back(static_cast<char>(v));
        return *this;
    }
    Bytes &
    u32(std::uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            u8(static_cast<std::uint8_t>(v >> (8 * i)));
        return *this;
    }
    Bytes &
    u64(std::uint64_t v)
    {
        b += le64(v);
        return *this;
    }
};

/**
 * A real image saved with processor 0 between episodes and nothing in
 * flight, so its PROCS section holds, after the proxy queue and the
 * interrupt events, an Idle Ring-0 record (phase 0, no phase event, no
 * held request) and an empty fabric record. with() splices other
 * records in their place and re-seals the section (size and CRC), so
 * only the restore's own checks can object.
 */
struct ProcSplice {
    std::string image;
    Tick savedTick = 0;
    std::uint64_t nextSeq = 0;
    std::size_t entry = 0;   ///< PROCS index entry
    std::size_t payload = 0; ///< PROCS payload start
    std::size_t records = 0; ///< Ring-0 record, from payload start

    static constexpr std::size_t kIdleBytes = 3 + 8;

    std::string
    with(const std::string &episode, const std::string &fabric) const
    {
        std::string out = image;
        const std::size_t at = payload + records;
        out.replace(at, kIdleBytes, episode + fabric);
        const std::uint64_t size = getLE(out, entry + 8, 8) + episode.size() +
                                   fabric.size() - kIdleBytes;
        putLE(out, entry + 8, 8, size);
        putLE(out, entry + 4, 4, snap::crc32(out.data() + payload, size));
        return out;
    }
};

ProcSplice
idleProcessorImage()
{
    ProcSplice out;
    SplitRun split =
        warmUpAndSave(smallRequest(), 2'000'000,
                      [](harness::Experiment &exp) {
                          arch::MispProcessor &mp = exp.system().processor(0);
                          std::size_t deliveries = 0;
                          for (int k = 0; k < 5; ++k)
                              deliveries += inFlight(
                                  exp, arch::SignalFabric::Delivery(k));
                          return !mp.inRing0() && !mp.proxyInFlight() &&
                                 deliveries == 0;
                      });
    out.image = split.image;
    EventQueue &eq = split.exp->system().eventQueue();
    out.savedTick = eq.curTick();
    out.nextSeq = eq.nextSeq();
    const std::uint64_t sections = getLE(out.image, 12, 4);
    std::size_t payload = 16 + 16 * sections;
    for (std::uint64_t i = 0; i < sections; ++i) {
        const std::size_t entry = 16 + 16 * i;
        if (getLE(out.image, entry, 4) == kSecProcs) {
            out.entry = entry;
            out.payload = payload;
            break;
        }
        payload += getLE(out.image, entry + 8, 8);
    }
    // nprocs, interruptsOn, proxy count, timer and device schedules.
    bool timer = false, device = false;
    const std::string prefix = split.exp->system().processor(0).name();
    split.exp->system().eventQueue().forEachScheduled(
        [&](const Event &ev) {
            timer = timer || ev.name() == prefix + ".timer";
            device = device || ev.name() == prefix + ".deviceIrq";
        });
    out.records = 8 + 1 + 8 + (timer ? 17 : 1) + (device ? 17 : 1);
    EXPECT_EQ(out.with(Bytes().u8(0).u8(0).u8(0).b, Bytes().u64(0).b),
              out.image);
    return out;
}

/** A Ring-0 record: @p phase, a timer-tick work descriptor of cause
 *  @p cause, and a result naming threads @p prevTid / @p nextTid; the
 *  phase event pending at (@p when, @p seq). */
std::string
episodeRecord(std::uint8_t phase, std::uint8_t cause, std::uint64_t prevTid,
              std::uint64_t nextTid, Tick when, std::uint64_t seq)
{
    Bytes r;
    r.u8(phase).u8(0).u8(cause).u64(0).u64(0); // kind, cause, tid, number
    for (int i = 0; i < 4; ++i)
        r.u64(0);
    r.u64(0).u8(0).u32(arch::Ring0Work::kNoPatch); // addr, write, patch
    r.u64(100);                                    // signal
    r.u64(2200).u64(0).u8(1).u64(prevTid).u64(nextTid).u8(0);
    r.u8(1).u64(when).u64(seq); // phase event
    r.u8(0);                    // no held request
    return r.b;
}

/** A fabric record with one delivery. */
std::string
deliveryRecord(std::uint8_t kind, std::uint64_t sid, Tick when,
               std::uint64_t seq, std::int64_t priority)
{
    Bytes r;
    r.u64(1).u8(kind).u64(sid);
    r.u64(0).u64(0).u64(0); // payload
    r.u64(when).u64(seq).u64(std::uint64_t(priority));
    return r.b;
}

} // namespace

TEST(Snapshot, RestoreRejectsBogusEpisodeAndDeliveryRecords)
{
    // Each bogus field of the Ring-0 and fabric records must come back
    // as a SnapError naming it, never as a panic later.
    const ProcSplice img = idleProcessorImage();
    const Tick when = img.savedTick + 50;
    const std::uint64_t seq = img.nextSeq - 1;
    const std::string idle = Bytes().u8(0).u8(0).u8(0).b;
    const std::string none = Bytes().u64(0).b;
    const int prio = arch::SignalFabric::kDeliveryPrio;
    std::string err;

    // Controls: a Kernel-phase episode whose result names the target's
    // main thread, and a signal delivery to AMS 1.
    EXPECT_TRUE(restores(img.with(episodeRecord(2, 2, 1, 1, when, seq),
                                  none),
                         &err))
        << err;
    EXPECT_TRUE(
        restores(img.with(idle, deliveryRecord(0, 1, when, seq, prio)), &err))
        << err;

    const struct {
        const char *what;
        std::string episode, fabric;
        const char *expect;
    } cases[] = {
        {"unknown phase", Bytes().u8(3).b, none,
         "unknown Ring-0 phase byte 3"},
        {"unknown work kind", Bytes().u8(1).u8(6).b, none,
         "unknown Ring-0 work kind byte 6"},
        {"unknown cause", episodeRecord(1, 6, 0, 0, when, seq), none,
         "unknown Ring-0 cause byte 6"},
        {"prev tid", episodeRecord(2, 2, 99, 1, when, seq), none,
         "KernelResult prev tid 99 names no thread"},
        {"next tid", episodeRecord(2, 2, 1, 4242, when, seq), none,
         "KernelResult next tid 4242 names no thread"},
        {"phase event before the saved tick",
         episodeRecord(2, 2, 1, 1, img.savedTick - 1, seq), none,
         "is not past the saved clock"},
        {"Idle phase with a phase event",
         Bytes().u8(0).u8(1).u64(when).u64(seq).u8(0).b, none,
         "disagrees with its pending phase event"},
        {"unknown delivery kind", idle, deliveryRecord(5, 1, when, seq, prio),
         "unknown delivery kind byte 5"},
        {"absent sid", idle, deliveryRecord(0, 9, when, seq, prio),
         "sid 9 names no sequencer"},
        {"proxy request to an AMS", idle,
         deliveryRecord(1, 2, when, seq, prio), "cannot target sid 2"},
        {"priority", idle,
         deliveryRecord(0, 1, when, seq, Event::kPrioDefault),
         "fabric delivery has priority 50, not 0"},
        {"delivery before the saved tick", idle,
         deliveryRecord(0, 1, img.savedTick - 1, seq, prio),
         "fabric delivery at (when"},
        {"delivery seq past the clock", idle,
         deliveryRecord(0, 1, when, img.nextSeq, prio),
         "is not past the saved clock"},
    };
    for (const auto &c : cases) {
        EXPECT_FALSE(restores(img.with(c.episode, c.fabric), &err))
            << c.what;
        EXPECT_NE(err.find(c.expect), std::string::npos)
            << c.what << ": " << err;
    }
}

TEST(Snapshot, VersionTwoImageRejectedWithDiagnostic)
{
    harness::RunRequest req = smallRequest();
    SplitRun split =
        warmUpAndSave(req, 1'000'000, [](harness::Experiment &) {
            return true;
        });
    std::string old = split.image;
    ASSERT_EQ(getLE(old, 8, 4), snap::kVersion);
    putLE(old, 8, 4, 2);
    std::string err;
    EXPECT_FALSE(restores(old, &err));
    EXPECT_NE(err.find("unsupported snapshot image version 2"),
              std::string::npos)
        << err;
}

namespace {

/** Where section @p id of @p image sits: its index entry and payload. */
struct SectionAt {
    std::size_t entry = 0;
    std::size_t payload = 0;
    std::uint64_t size = 0;
};

SectionAt
sectionAt(const std::string &image, std::uint32_t id)
{
    const std::uint64_t sections = getLE(image, 12, 4);
    std::size_t payload = 16 + 16 * sections;
    for (std::uint64_t i = 0; i < sections; ++i) {
        const std::size_t entry = 16 + 16 * i;
        const std::uint64_t size = getLE(image, entry + 8, 8);
        if (getLE(image, entry, 4) == id)
            return {entry, payload, size};
        payload += size;
    }
    ADD_FAILURE() << "no section " << id;
    return {};
}

/** @p image with @p bytes bytes at payload offset @p at of section
 *  @p id set to @p value, and that section's CRC recomputed, so only
 *  the restore's own checks can object. */
std::string
doctored(std::string image, std::uint32_t id, std::size_t at,
         unsigned bytes, std::uint64_t value)
{
    const SectionAt sec = sectionAt(image, id);
    putLE(image, sec.payload + at, bytes, value);
    putLE(image, sec.entry + 4, 4,
          snap::crc32(image.data() + sec.payload, sec.size));
    return image;
}

constexpr std::uint32_t kSecConfig = 1;
constexpr std::uint32_t kSecPmem = 3;

/** Payload offset, in section @p id, of the first clock hand of a
 *  default 64-entry TLB: its entry count (64), 64 entries of 23 bytes,
 *  then its set count (16) and one hand byte per set. */
std::size_t
firstTlbHand(const std::string &image, std::uint32_t id)
{
    const SectionAt sec = sectionAt(image, id);
    constexpr std::size_t kEntries = 8 + 64 * 23;
    for (std::size_t at = 0; at + kEntries + 8 < sec.size; ++at) {
        if (getLE(image, sec.payload + at, 8) == 64 &&
            getLE(image, sec.payload + at + kEntries, 8) == 16)
            return at + kEntries + 8;
    }
    ADD_FAILURE() << "no TLB in section " << id;
    return 0;
}

} // namespace

TEST(Snapshot, SaveRestoreSaveIsAFixedPoint)
{
    // Restoring an image and saving the result gives the image back
    // byte for byte: every archive body, run in both directions, reads
    // exactly what it wrote. Shred backend with a signal in flight, and
    // the OS-thread backend.
    harness::RunRequest os = smallRequest();
    os.config = arch::SystemConfig::mp({0, 0, 0});
    os.config.physFrames = 1 << 16;
    os.backend = rt::Backend::OsThread;
    const std::pair<harness::RunRequest, Ready> cases[] = {
        {smallRequest(), signalInFlight},
        {os, [](harness::Experiment &) { return true; }},
    };
    for (const auto &[req, ready] : cases) {
        SCOPED_TRACE(rt::backendName(req.backend));
        SplitRun split = warmUpAndSave(req, 2'000'000, ready);
        snap::RestoredExperiment restored;
        std::string again, err;
        ASSERT_TRUE(snap::restoreExperiment(split.image, &restored, &err))
            << err;
        ASSERT_TRUE(snap::saveExperiment(*restored.exp, restored.target, 0,
                                         "t", &again, &err))
            << err;
        EXPECT_TRUE(again == split.image)
            << firstDifference(split.image, again);
    }
}

TEST(Snapshot, DoctoredImagesFailClosedNamingTheField)
{
    // CRC-valid images with one field patched. Each must fail closed
    // with a diagnostic naming the field. The two counts are far beyond
    // what this process could allocate, so a diagnostic naming the
    // count (rather than an allocation failure) shows that the restore
    // refused them before allocating.
    SplitRun split =
        warmUpAndSave(smallRequest(), 2'000'000, [](harness::Experiment &) {
            return true;
        });
    std::string err;
    ASSERT_TRUE(restores(split.image, &err)) << err;
    const struct {
        const char *what;
        std::string image;
        const char *expect;
    } cases[] = {
        // CONFIG opens with the amsPerProcessor count.
        {"CONFIG count 2^40", doctored(split.image, kSecConfig, 0, 8, 1ull << 40),
         "amsPerProcessor count 1099511627776 exceeds"},
        // A well-formed CONFIG whose first processor has 2^32-1 AMSs:
        // refused by arch::SystemConfig::validate before any is built.
        {"CONFIG AMS count 2^32-1",
         doctored(split.image, kSecConfig, 8, 4, 0xffffffffu),
         "CONFIG amsPerProcessor[0] is 4294967295; a processor has at "
         "most 256"},
        // PMEM: capacity, used, next fresh frame, free-list count.
        {"free-list count 2^40",
         doctored(split.image, kSecPmem, 24, 8, 1ull << 40),
         "physmem free list count 1099511627776 exceeds"},
        {"next fresh frame 0", doctored(split.image, kSecPmem, 16, 8, 0),
         "physmem allocator state is inconsistent"},
        {"TLB clock hand 200",
         doctored(split.image, kSecProcs, firstTlbHand(split.image, kSecProcs),
                  1, 200),
         "tlb clock hand 200 out of range [0, 4)"},
    };
    for (const auto &c : cases) {
        EXPECT_FALSE(restores(c.image, &err)) << c.what;
        EXPECT_NE(err.find(c.expect), std::string::npos)
            << c.what << ": " << err;
    }
}

TEST(Snapshot, TlbRestoreRejectsAClockHandPastItsSet)
{
    // A one-set TLB's image with a clock hand patched to 200: the
    // restore must refuse it, not leave the next clock sweep to index
    // set[200].
    stats::StatGroup root("root");
    mem::Tlb tlb("tlb", mem::Tlb::kWays, &root);
    for (VAddr page = 0; page < 6; ++page)
        tlb.insert(page << mem::kPageShift, mem::Pte{});
    snap::Serializer s;
    s.section(1, [&] { tlb.archive(s); });
    const std::string image = s.done();
    // Entry count, four 23-byte entries, set count, then the hand.
    const std::size_t hand = 8 + mem::Tlb::kWays * 23 + 8;
    auto restore = [&](const std::string &img) {
        mem::Tlb fresh("tlb", mem::Tlb::kWays, &root);
        snap::Deserializer d(img);
        d.section(1, [&] { fresh.archive(d); });
    };
    EXPECT_NO_THROW(restore(image));
    try {
        restore(doctored(image, 1, hand, 1, 200));
        ADD_FAILURE() << "a clock hand of 200 restored";
    } catch (const snap::SnapError &e) {
        EXPECT_NE(std::string(e.what()).find("tlb clock hand 200"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Snapshot, PhysicalMemoryRestoreChecksTheAllocator)
{
    // allocFrame/freeFrame keep used + free == next fresh <= capacity,
    // with a duplicate-free free list of handed-out frames; a restore
    // accepts no image that breaks it.
    mem::PhysicalMemory pm(16);
    for (int i = 0; i < 5; ++i)
        pm.write(pm.allocFrame() << mem::kPageShift, 0x1234 + i, 8);
    pm.freeFrame(1);
    pm.freeFrame(3);
    snap::Serializer s;
    s.section(1, [&] { pm.archive(s); });
    const std::string image = s.done();
    // capacity, used, next fresh, free count, two free frames, stored
    // frame count, then the first stored frame's number.
    auto loads = [&](const std::string &img, std::string *err) {
        try {
            mem::PhysicalMemory fresh(16);
            snap::Deserializer d(img);
            d.section(1, [&] { fresh.archive(d); });
            return true;
        } catch (const snap::SnapError &e) {
            *err = e.what();
            return false;
        }
    };
    std::string err;
    ASSERT_TRUE(loads(image, &err)) << err;
    const struct {
        const char *what;
        std::size_t at;
        std::uint64_t value;
        const char *expect;
    } cases[] = {
        {"capacity", 0, 32, "physmem capacity is 32"},
        {"used", 8, 4, "allocator state is inconsistent"},
        {"next fresh past capacity", 16, 17, "past the capacity"},
        {"free frame never handed out", 32, 5, "holds frame 5, never"},
        {"free frame twice", 40, 1, "holds a frame twice"},
        {"stored frame past capacity", 56, 16,
         "physmem stored frame 16 out of range [0, 16)"},
    };
    for (const auto &c : cases) {
        EXPECT_FALSE(loads(doctored(image, 1, c.at, 8, c.value), &err))
            << c.what;
        EXPECT_NE(err.find(c.expect), std::string::npos)
            << c.what << ": " << err;
    }
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
    std::string err;
    ASSERT_TRUE(snap::saveExperiment(*split.exp, split.proc.process, 0,
                                     "t", &split.image, &err))
        << err;
    expectRestoreFinishesIdentically(split, req.config.misp.engine);
}

TEST(Snapshot, DescheduledEventsStayOutOfTheImage)
{
    // Descheduled and rescheduled occurrences: the image must carry
    // only the live schedule.
    struct Nop {
        void run() {}
    } nop;
    EventQueue eq;
    MemberEvent<Nop, &Nop::run> a(nop, "a");
    MemberEvent<Nop, &Nop::run> b(nop, "b");
    eq.schedule(&a, 100);
    eq.schedule(&b, 200);
    eq.deschedule(&a);
    eq.reschedule(&b, 300);

    std::size_t live = 0;
    eq.forEachScheduled([&](const Event &ev) {
        ++live;
        EXPECT_EQ(&ev, &b);
        EXPECT_EQ(ev.when(), Tick{300});
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
    expectRestoreFinishesIdentically(split, req.config.misp.engine);
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

/** Run kIsolateScn, with the spec sections @p extra appended, under
 *  @p opts. */
std::vector<driver::PointResult>
runIsolateScenario(const driver::RunnerOptions &opts,
                   const std::string &extra = "")
{
    driver::SpecFile spec;
    driver::Scenario sc;
    std::vector<driver::ScenarioPoint> pts;
    std::string err;
    EXPECT_TRUE(driver::SpecFile::parse(kIsolateScn + extra, "<test>",
                                        &spec, &err))
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
        EXPECT_EQ(inProc[i].coords.machine(), forked[i].coords.machine());
        EXPECT_EQ(inProc[i].coords.str(), forked[i].coords.str());
        expectSameRecord(inProc[i].run, forked[i].run);
    }
}

TEST(Isolate, CrashedWorkerFailsOnlyItsPoint)
{
    driver::RunnerOptions iso;
    iso.hostLines = false;
    iso.isolate = true;
    iso.jobs = 2;
    std::vector<driver::PointResult> results =
        runIsolateScenario(iso, "[faults]\ninject = crash@1\n");

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
