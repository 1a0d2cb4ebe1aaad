/**
 * @file
 * Invariants of the fixed-slot stub-library ABI — the mechanism behind
 * the Table-2 porting story. If any of these break, "porting is a
 * relink" stops being true.
 */

#include <gtest/gtest.h>

#include "shredlib/stub_library.hh"

using namespace misp;
using namespace misp::rt;

namespace {

const std::vector<std::string> kRequiredSymbols = {
    "rt_init",      "proxy_stub",   "ams_entry",   "shred_done",
    "shred_create", "join_all",     "shred_self",  "yield",
    "mutex_lock",   "mutex_unlock", "barrier_wait", "sem_wait",
    "sem_post",     "cond_wait",    "cond_signal", "cond_broadcast",
    "event_wait",   "event_set",    "malloc",      "prefault",
    "exit_process", "log_write",
};

} // namespace

TEST(StubAbi, SharedLibraryIsBuiltOnceWithItsImage)
{
    for (Backend backend : {Backend::Shred, Backend::OsThread}) {
        const isa::Program &shared = stubLibrary(backend);
        EXPECT_EQ(&stubLibrary(backend), &shared) << backendName(backend);
        EXPECT_EQ(&stubImage(backend), &stubImage(backend));

        // The image every process maps is the program's own encoding;
        // the tests below pin the program's symbols and slots.
        EXPECT_EQ(shared.base, kStubBase);
        EXPECT_EQ(stubImage(backend), shared.bytes())
            << backendName(backend);
        EXPECT_EQ(stubImage(backend).size(), shared.byteSize());
    }
    EXPECT_NE(&stubLibrary(Backend::Shred),
              &stubLibrary(Backend::OsThread));
}

TEST(StubAbi, BothBackendsExportAllSymbols)
{
    for (Backend backend : {Backend::Shred, Backend::OsThread}) {
        const isa::Program &prog = stubLibrary(backend);
        for (const std::string &name : kRequiredSymbols) {
            EXPECT_NO_THROW((void)prog.symbol(name))
                << name << " missing from " << backendName(backend);
        }
    }
}

TEST(StubAbi, SymbolAddressesIdenticalAcrossBackends)
{
    const isa::Program &shred = stubLibrary(Backend::Shred);
    const isa::Program &osLib = stubLibrary(Backend::OsThread);
    EXPECT_EQ(shred.symbols, osLib.symbols);
}

TEST(StubAbi, SymbolsLieOnFixedSlots)
{
    const isa::Program &prog = stubLibrary(Backend::Shred);
    constexpr std::uint64_t kSlotBytes = 8 * isa::kInstBytes;
    for (const auto &[name, addr] : prog.symbols) {
        EXPECT_EQ((addr - kStubBase) % kSlotBytes, 0u)
            << name << " not slot-aligned";
    }
}

TEST(StubAbi, BaseAddressIsStable)
{
    const isa::Program &prog = stubLibrary(Backend::Shred);
    EXPECT_EQ(prog.base, kStubBase);
    EXPECT_EQ(prog.symbol("rt_init"), kStubBase);
}

TEST(StubAbi, ShredInitRegistersProxyHandler)
{
    const isa::Program &prog = stubLibrary(Backend::Shred);
    // First instruction of rt_init must be the architectural SEMONITOR
    // registering proxy_stub for the ProxyRequest scenario (§2.5).
    const isa::Instruction &first = prog.insts[0];
    EXPECT_EQ(first.op, isa::Opcode::Semonitor);
    EXPECT_EQ(first.sub, static_cast<std::uint8_t>(
                             isa::Scenario::ProxyRequest));
    EXPECT_EQ(first.imm, prog.symbol("proxy_stub"));
}

TEST(StubAbi, OsBackendUsesRealSyscalls)
{
    const isa::Program &prog = stubLibrary(Backend::OsThread);
    // The OS backend's yield and exit_process must trap into the kernel
    // (that asymmetry is what the SMP baseline pays for).
    auto instAt = [&](VAddr addr) {
        return prog.insts[(addr - prog.base) / isa::kInstBytes];
    };
    EXPECT_EQ(instAt(prog.symbol("yield")).op, isa::Opcode::Syscall);
    EXPECT_EQ(instAt(prog.symbol("exit_process")).op,
              isa::Opcode::Syscall);

    const isa::Program &shred = stubLibrary(Backend::Shred);
    auto shredInstAt = [&](VAddr addr) {
        return shred.insts[(addr - shred.base) / isa::kInstBytes];
    };
    EXPECT_EQ(shredInstAt(shred.symbol("yield")).op, isa::Opcode::RtCall);
    EXPECT_EQ(shredInstAt(shred.symbol("exit_process")).op,
              isa::Opcode::RtCall);
}

TEST(StubAbi, SyncWrappersTouchTheirWord)
{
    // Lock-class stubs must load the sync word before the service call,
    // so its page demand-faults through the architectural path.
    for (Backend backend : {Backend::Shred, Backend::OsThread}) {
        const isa::Program &prog = stubLibrary(backend);
        for (const char *sym : {"mutex_lock", "barrier_wait", "sem_wait",
                                "cond_wait", "event_wait"}) {
            VAddr addr = prog.symbol(sym);
            const isa::Instruction &first =
                prog.insts[(addr - prog.base) / isa::kInstBytes];
            EXPECT_EQ(first.op, isa::Opcode::Ld)
                << sym << " on " << backendName(backend);
            EXPECT_EQ(first.rs1, 0u) << "touch must read [r0]";
        }
    }
}

TEST(StubAbi, StubsFitWithinOnePage)
{
    for (Backend backend : {Backend::Shred, Backend::OsThread}) {
        const isa::Program &prog = stubLibrary(backend);
        EXPECT_LE(prog.byteSize(), 4096u)
            << backendName(backend)
            << " stub library must stay one page (one compulsory fault)";
    }
}
