#include "builder_util.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace misp::wl {

using isa::Cond;
using isa::ProgramBuilder;

const StubCalls &
StubCalls::get()
{
    static StubCalls calls = [] {
        isa::Program stubs = rt::buildStubLibrary(rt::Backend::Shred);
        StubCalls c;
        c.init = stubs.symbol("rt_init");
        c.create = stubs.symbol("shred_create");
        c.joinAll = stubs.symbol("join_all");
        c.self = stubs.symbol("shred_self");
        c.yield = stubs.symbol("yield");
        c.mutexLock = stubs.symbol("mutex_lock");
        c.mutexUnlock = stubs.symbol("mutex_unlock");
        c.barrierWait = stubs.symbol("barrier_wait");
        c.semWait = stubs.symbol("sem_wait");
        c.semPost = stubs.symbol("sem_post");
        c.condWait = stubs.symbol("cond_wait");
        c.condSignal = stubs.symbol("cond_signal");
        c.condBroadcast = stubs.symbol("cond_broadcast");
        c.eventWait = stubs.symbol("event_wait");
        c.eventSet = stubs.symbol("event_set");
        c.malloc = stubs.symbol("malloc");
        c.prefault = stubs.symbol("prefault");
        c.exitProcess = stubs.symbol("exit_process");
        c.logWrite = stubs.symbol("log_write");
        return c;
    }();
    return calls;
}

void
emitMainProlog(ProgramBuilder &b,
               const std::vector<std::pair<VAddr, std::uint64_t>>
                   &prefaultRanges)
{
    const StubCalls &stubs = StubCalls::get();
    b.exportHere("main");
    b.callAbs(stubs.init);
    for (const auto &[addr, len] : prefaultRanges) {
        b.movi(reg::a0, addr);
        b.movi(reg::a1, len);
        b.callAbs(stubs.prefault);
    }
}

void
emitCreateAndJoin(ProgramBuilder &b, unsigned workers,
                  ProgramBuilder::Label workerFn)
{
    using namespace reg;
    const StubCalls &stubs = StubCalls::get();
    b.movi(t0, 0);
    auto loop = b.newLabel();
    auto done = b.newLabel();
    b.bind(loop);
    b.cmpi(t0, workers);
    b.jcc(Cond::Ge, done);
    b.leaLabel(a0, workerFn);
    b.mov(a1, t0);
    b.callAbs(stubs.create);
    b.addi(t0, t0, 1);
    b.jmp(loop);
    b.bind(done);
    b.callAbs(stubs.joinAll);
}

void
emitMainEpilog(ProgramBuilder &b)
{
    const StubCalls &stubs = StubCalls::get();
    b.movi(reg::a0, 0);
    b.callAbs(stubs.exitProcess);
}

void
emitComputeBurst(ProgramBuilder &b, std::uint64_t totalCycles,
                 unsigned scratch)
{
    constexpr std::uint64_t kChunk = 2000;
    if (totalCycles <= kChunk) {
        if (totalCycles > 0)
            b.compute(totalCycles);
        return;
    }
    std::uint64_t iters = totalCycles / kChunk;
    std::uint64_t rem = totalCycles % kChunk;
    b.movi(scratch, iters);
    auto loop = b.newLabel();
    b.bind(loop);
    b.compute(kChunk);
    b.subi(scratch, scratch, 1);
    b.cmpi(scratch, 0);
    b.jcc(Cond::Gt, loop);
    if (rem > 0)
        b.compute(rem);
}

void
emitSerialFill(ProgramBuilder &b, VAddr base, std::uint64_t count,
               std::uint64_t stride, std::uint64_t mult, std::uint64_t add,
               std::uint64_t mask)
{
    using namespace reg;
    // t0 = i, t1 = addr cursor, t2 = value scratch
    b.movi(t0, 0);
    b.movi(t1, base);
    auto loop = b.newLabel();
    auto done = b.newLabel();
    b.bind(loop);
    b.cmpi(t0, static_cast<std::int64_t>(count));
    b.jcc(Cond::Ge, done);
    b.muli(t2, t0, static_cast<std::int64_t>(mult));
    b.addi(t2, t2, static_cast<std::int64_t>(add));
    b.andi(t2, t2, mask);
    b.st(t1, 0, t2, 8);
    b.addi(t1, t1, static_cast<std::int64_t>(stride));
    b.addi(t0, t0, 1);
    b.jmp(loop);
    b.bind(done);
}

std::vector<std::int64_t>
hostFill(std::uint64_t count, std::uint64_t mult, std::uint64_t add,
         std::uint64_t mask)
{
    std::vector<std::int64_t> out(count);
    for (std::uint64_t i = 0; i < count; ++i) {
        out[i] = static_cast<std::int64_t>((i * mult + add) & mask);
    }
    return out;
}

void
emitChunkBounds(ProgramBuilder &b, std::uint64_t total, unsigned workers,
                unsigned regLo, unsigned regHi)
{
    std::uint64_t chunk = (total + workers - 1) / workers;
    // lo = min(idx*chunk, total); hi = min(lo+chunk, total)
    b.muli(regLo, reg::a0, static_cast<std::int64_t>(chunk));
    b.movi(reg::t5, total);
    b.cmp(regLo, reg::t5);
    auto loOk = b.newLabel();
    b.jcc(Cond::Le, loOk);
    b.mov(regLo, reg::t5);
    b.bind(loOk);
    b.addi(regHi, regLo, static_cast<std::int64_t>(chunk));
    b.cmp(regHi, reg::t5);
    auto hiOk = b.newLabel();
    b.jcc(Cond::Le, hiOk);
    b.mov(regHi, reg::t5);
    b.bind(hiOk);
}

std::function<bool(mem::AddressSpace &)>
makeIntArrayValidator(VAddr addr, std::vector<std::int64_t> expected,
                      std::string what)
{
    return [addr, expected = std::move(expected),
            what = std::move(what)](mem::AddressSpace &as) {
        // One peek per guest page, into a fixed buffer: one page-table
        // lookup per page, and no allocation however long the array.
        constexpr std::size_t kWords = mem::kPageSize / 8;
        std::int64_t buf[kWords];
        for (std::size_t i = 0; i < expected.size();) {
            const VAddr va = addr + i * 8;
            const std::size_t n = std::min(
                expected.size() - i,
                std::max<std::size_t>(
                    1, (mem::kPageSize - mem::pageOffset(va)) / 8));
            as.peek(va, buf, n * 8);
            for (std::size_t k = 0; k < n; ++k, ++i) {
                if (buf[k] != expected[i]) {
                    warn("%s: mismatch at [%zu]: got %lld, want %lld",
                         what.c_str(), i, (long long)buf[k],
                         (long long)expected[i]);
                    return false;
                }
            }
        }
        return true;
    };
}

} // namespace misp::wl
