#include "stub_library.hh"

#include <functional>
#include <vector>

#include "os/kernel.hh"
#include "sim/logging.hh"

namespace misp::rt {

using isa::Opcode;
using isa::ProgramBuilder;
using isa::Scenario;

const char *
backendName(Backend backend)
{
    switch (backend) {
      case Backend::Shred: return "shred";
      case Backend::OsThread: return "os-thread";
    }
    return "?";
}

namespace {

/** Each stub occupies a fixed 8-instruction slot so both backends export
 *  every symbol at the same address — the workload binary is therefore
 *  bit-identical across backends, which is the Table-2 porting story
 *  made mechanical. */
constexpr std::size_t kSlotInsts = 8;

void
emitRt(ProgramBuilder &b, Rt svc)
{
    b.rtcall(static_cast<Word>(svc));
    b.ret();
}

void
emitTouchRt(ProgramBuilder &b, Rt svc)
{
    b.ld(9, 0, 0, 8); // touch the sync word: demand-fault its page
    b.rtcall(static_cast<Word>(svc));
    b.ret();
}

void
emitSys(ProgramBuilder &b, os::Sys n)
{
    b.syscall(static_cast<Word>(n));
    b.ret();
}

/** The stub library for @p backend at kStubBase; stubLibrary() calls
 *  it once per backend. */
isa::Program
buildStubLibrary(Backend backend)
{
    ProgramBuilder b;
    bool shred = backend == Backend::Shred;

    struct Slot {
        const char *name;
        std::function<void()> emit;
    };

    // The proxy_stub label must be known before rt_init emits SEMONITOR;
    // compute it from the fixed slot layout (slot 1).
    const VAddr proxyStubAddr =
        kStubBase + 1 * kSlotInsts * isa::kInstBytes;

    std::vector<Slot> slots = {
        {"rt_init",
         [&] {
             if (shred) {
                 // Register the generic proxy handler (§2.5): a single
                 // handler on the OMS covers every proxy condition.
                 b.semonitorAbs(Scenario::ProxyRequest, proxyStubAddr);
                 b.rtcall(static_cast<Word>(Rt::Init));
                 b.ret();
             } else {
                 b.rtcall(static_cast<Word>(Rt::Init));
                 b.ret();
             }
         }},
        {"proxy_stub",
         [&] {
             if (shred) {
                 b.rtcall(static_cast<Word>(Rt::Proxy));
                 b.yret();
             } else {
                 b.halt();
             }
         }},
        {"ams_entry",
         [&] {
             if (shred) {
                 // Gang-scheduler pull loop (Figure 3): SIGNALed to idle
                 // sequencers as the shred continuation.
                 auto loop = b.newLabel();
                 b.bind(loop);
                 b.rtcall(static_cast<Word>(Rt::SchedNext));
                 b.jmp(loop);
             } else {
                 b.halt();
             }
         }},
        {"shred_done",
         [&] {
             if (shred) {
                 auto loop = b.newLabel();
                 b.bind(loop);
                 b.rtcall(static_cast<Word>(Rt::ShredExit));
                 b.jmp(loop);
             } else {
                 b.syscall(static_cast<Word>(os::Sys::ExitThread));
                 b.halt();
             }
         }},
        {"shred_create", [&] { emitRt(b, Rt::ShredCreate); }},
        {"join_all", [&] { emitRt(b, Rt::JoinAll); }},
        {"shred_self", [&] { emitRt(b, Rt::ShredSelf); }},
        {"yield",
         [&] {
             if (shred)
                 emitRt(b, Rt::ShredYield);
             else
                 emitSys(b, os::Sys::Yield);
         }},
        {"mutex_lock", [&] { emitTouchRt(b, Rt::MutexLock); }},
        {"mutex_unlock", [&] { emitRt(b, Rt::MutexUnlock); }},
        {"barrier_wait", [&] { emitTouchRt(b, Rt::BarrierWait); }},
        {"sem_wait", [&] { emitTouchRt(b, Rt::SemWait); }},
        {"sem_post", [&] { emitRt(b, Rt::SemPost); }},
        {"cond_wait", [&] { emitTouchRt(b, Rt::CondWait); }},
        {"cond_signal", [&] { emitRt(b, Rt::CondSignal); }},
        {"cond_broadcast", [&] { emitRt(b, Rt::CondBroadcast); }},
        {"event_wait", [&] { emitTouchRt(b, Rt::EventWait); }},
        {"event_set", [&] { emitRt(b, Rt::EventSet); }},
        {"malloc", [&] { emitRt(b, Rt::Malloc); }},
        {"prefault",
         [&] {
             // §5.3 page probe: touch one byte per page of [r0, r0+r1)
             // with real guest loads so every probe faults
             // architecturally on the probing (OMS) sequencer.
             auto loop = b.newLabel();
             auto done = b.newLabel();
             b.bind(loop);
             b.cmpi(1, 0);
             b.jcc(isa::Cond::Le, done);
             b.ld(9, 0, 0, 1);
             b.addi(0, 0, 4096);
             b.subi(1, 1, 4096);
             b.jmp(loop);
             b.bind(done);
             b.ret();
         }},
        {"exit_process",
         [&] {
             if (shred)
                 b.rtcall(static_cast<Word>(Rt::ExitProcess));
             else
                 b.syscall(static_cast<Word>(os::Sys::ExitProcess));
             b.halt(); // unreachable
         }},
        {"log_write",
         [&] {
             // write(fd=r0, buf=r1, len=r2): a real OS service both
             // backends route through the kernel.
             emitSys(b, os::Sys::Write);
         }},
    };

    for (std::size_t i = 0; i < slots.size(); ++i) {
        std::size_t slotStart = i * kSlotInsts;
        while (b.here() < slotStart)
            b.nop();
        if (b.here() != slotStart)
            panic("stub '%s' overflowed its predecessor's slot",
                  slots[i].name);
        b.exportHere(slots[i].name);
        slots[i].emit();
        if (b.here() > slotStart + kSlotInsts)
            panic("stub '%s' exceeds %zu instructions", slots[i].name,
                  kSlotInsts);
    }

    return b.finish(kStubBase);
}

struct BuiltStubs {
    isa::Program program;
    std::vector<std::uint8_t> image;

    explicit BuiltStubs(Backend backend)
        : program(buildStubLibrary(backend)), image(program.bytes())
    {}
};

const BuiltStubs &
builtStubs(Backend backend)
{
    // Function-local statics: initialised once, thread-safely, on the
    // first call for each backend.
    if (backend == Backend::Shred) {
        static const BuiltStubs kShred(Backend::Shred);
        return kShred;
    }
    static const BuiltStubs kOsThread(Backend::OsThread);
    return kOsThread;
}

} // namespace

const isa::Program &
stubLibrary(Backend backend)
{
    return builtStubs(backend).program;
}

const std::vector<std::uint8_t> &
stubImage(Backend backend)
{
    return builtStubs(backend).image;
}

} // namespace misp::rt
