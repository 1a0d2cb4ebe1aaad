/**
 * @file
 * Minimal one-sequencer machine for interpreter-level benches and
 * tests: one Sequencer, one AddressSpace, and an environment that
 * demand-pages faults and kills on anything else. No kernel, runtime,
 * or signal fabric — the scaffold for measuring or probing the
 * execution engine itself.
 */

#ifndef MISP_HARNESS_BARE_MACHINE_HH
#define MISP_HARNESS_BARE_MACHINE_HH

#include <string>

#include "cpu/sequencer.hh"
#include "isa/assembler.hh"
#include "mem/address_space.hh"
#include "mem/physical_memory.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"

namespace misp::harness {

struct BareMachine {
    EventQueue eq;
    mem::PhysicalMemory pmem{1 << 14};
    stats::StatGroup root{""};
    mem::AddressSpace as{"p", pmem};
    cpu::Sequencer seq{"s", 0, true, eq, pmem, &root};

    struct NullEnv : cpu::SequencerEnv {
        mem::AddressSpace *as;
        /** The kind of the last fault the sequencer was killed on. */
        mem::FaultKind killedBy = mem::FaultKind::None;
        explicit NullEnv(mem::AddressSpace *a) : as(a) {}
        cpu::FaultAction
        handleFault(cpu::Sequencer &, const mem::Fault &f,
                    Cycles *c) override
        {
            *c = 0;
            if (f.kind == mem::FaultKind::PageFault &&
                as->handleFault(f.addr, f.write) ==
                    mem::FaultOutcome::Paged)
                return cpu::FaultAction::Retry;
            killedBy = f.kind;
            return cpu::FaultAction::Kill;
        }
        Cycles handleRtCall(cpu::Sequencer &, Word) override { return 0; }
        void signalInstruction(cpu::Sequencer &, SequencerId,
                               const cpu::SignalPayload &) override
        {}
        void sequencerHalted(cpu::Sequencer &) override {}
        unsigned numSequencers() const override { return 1; }
    } env{&as};

    isa::Program prog;

    explicit BareMachine(const std::string &src,
                         cpu::Engine engine = cpu::Engine::Superblock,
                         bool writableCode = false)
    {
        seq.setEnv(&env);
        seq.setEngine(engine);
        seq.mmu().setAddressSpace(&as);
        prog = isa::assemble(src, 0x40'0000);
        as.defineRegion(prog.base, prog.byteSize() + 64, writableCode,
                        "code", prog.bytes());
        as.defineRegion(0x10'0000, 8 * mem::kPageSize, true, "stack");
    }

    /** (Re)start at `main` — valid from Idle and from Halted. */
    void
    start()
    {
        seq.startAt(prog.symbol("main"),
                    0x10'0000 + 8 * mem::kPageSize - 64);
    }

    /** Start and run the event queue dry. */
    void
    run()
    {
        start();
        eq.run();
    }

    Word reg(unsigned r) const { return seq.context().regs[r]; }
};

} // namespace misp::harness

#endif // MISP_HARNESS_BARE_MACHINE_HH
