/**
 * @file
 * Quickstart: the MISP architecture from bare metal.
 *
 * Builds an 8-sequencer MISP uniprocessor (1 OMS + 7 AMS), assembles a
 * small guest program that uses the raw architectural mechanisms —
 * SIGNAL to start shreds on AMSs, shared memory to communicate, and a
 * proxy-serviced page fault — and runs it to completion, printing the
 * firmware-style event log.
 *
 *   $ ./build/examples/quickstart
 */

#include <cstdio>
#include <cstring>

#include "harness/experiment.hh"
#include "isa/assembler.hh"

using namespace misp;

int
main(int argc, char **argv)
{
    setQuietLogging(true);

    // Pick the host execution engine (--engine=ref: per-instruction
    // fetch+decode; --engine=superblock: chained superblocks, the
    // default). Output is bit-identical across both — diff the runs to
    // check an engine.
    cpu::Engine engine = cpu::Engine::Superblock;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--engine=", 9) == 0)
            cpu::parseEngineName(argv[i] + 9, &engine);
    }

    // A guest program: main starts one shred per AMS via SIGNAL; each
    // shred sums a slice of an array into a per-shred slot; main spins
    // until every slot is filled, then adds them up.
    //
    // Data page layout (0x08000000): [0..7] result slots, [64] = done
    // counter, array at 0x08001000 (pages demand-fault, AMS faults are
    // serviced by proxy execution).
    const char *src = R"(
        main:
            call 0x600000           ; rt_init: registers the proxy handler
            ; fill the array with 1..N so the expected sum is known
            movi r4, 0x8001000      ; array base
            movi r5, 1
        fill:
            st8 [r4], r5
            addi r4, r4, 8
            addi r5, r5, 1
            cmpi r5, 1024
            jcc.le fill

            ; start a shred on every AMS: SIGNAL(sid, eip, esp)
            numseq r6               ; sequencers in this MISP processor
            movi r1, 1              ; sid cursor (0 is the OMS)
        spawn:
            cmp r1, r6
            jcc.uge spawned
            movi r2, worker         ; shred continuation EIP
            movi r3, 0              ; worker is stackless
            signal r1, r2, r3       ; the user-level dual of an IPI
            addi r1, r1, 1
            jmp spawn
        spawned:

            ; wait until all (numseq-1) shreds bumped the done counter
            subi r6, r6, 1
        waitall:
            movi r4, 0x8000200
            ld8 r5, [r4]
            cmp r5, r6
            jcc.ne waitall

            ; sum the per-shred partial results
            movi r4, 0x8000000
            movi r7, 0              ; total
            movi r1, 0
        reduce:
            ld8 r5, [r4]
            add r7, r7, r5
            addi r4, r4, 8
            addi r1, r1, 1
            cmp r1, r6
            jcc.ne reduce

            ; write the answer where the host can read it, then exit
            movi r4, 0x8000208
            st8 [r4], r7
            movi r0, 0
            call 0x600A00           ; exit_process stub

        worker:
            seqid r8                ; my SID (1..7)
            subi r9, r8, 1          ; my slice index

            ; slice bounds: 1024 elements over (numseq-1) shreds
            numseq r6
            subi r6, r6, 1
            movi r4, 1024
            div r5, r4, r6          ; elements per shred
            mul r10, r9, r5         ; lo
            add r11, r10, r5        ; hi
            cmp r8, r6              ; last shred takes the remainder
            jcc.ne bounded
            movi r11, 1024
        bounded:

            movi r12, 0             ; partial sum
            movi r4, 0x8001000
            shli r13, r10, 3
            add r4, r4, r13
        sumloop:
            cmp r10, r11
            jcc.ge sumdone
            ld8 r13, [r4]           ; may page-fault -> proxy execution
            add r12, r12, r13
            compute 200             ; model some per-element FP work
            addi r4, r4, 8
            addi r10, r10, 1
            jmp sumloop
        sumdone:
            ; result[slice] = partial
            movi r4, 0x8000000
            shli r13, r9, 3
            add r4, r4, r13
            st8 [r4], r12
            ; done counter += 1 (atomic: other shreds do the same)
            movi r4, 0x8000200
            movi r5, 1
            fetchadd r13, [r4], r5
            halt                    ; AMS goes idle, awaiting more work
    )";

    harness::GuestApp app;
    app.name = "quickstart";
    app.program = isa::assemble(src, mem::kCodeBase);
    harness::DataRegion data;
    data.addr = 0x0800'0000;
    data.size = 16 * mem::kPageSize;
    app.data.push_back(data);

    arch::SystemConfig sys = arch::SystemConfig::uniprocessor(7);
    sys.misp.engine = engine;
    harness::Experiment exp(sys, rt::Backend::Shred);
    harness::LoadedProcess proc = exp.load(app);
    Tick ticks = exp.runToCompletion(proc.process).ticks;

    Word total = proc.process->addressSpace().peekWord(0x0800'0208, 8);
    std::printf("quickstart: sum(1..1024) computed by 7 shreds = %llu "
                "(expected %u)\n",
                (unsigned long long)total, 1024 * 1025 / 2);
    std::printf("completed in %llu simulated cycles\n",
                (unsigned long long)ticks);

    arch::MispProcessor &mp = exp.system().processor(0);
    std::printf("\nfirmware event log (Table-1 classes):\n");
    for (unsigned c = 0;
         c < static_cast<unsigned>(arch::Ring0Cause::NumCauses); ++c) {
        std::printf("  %-16s %llu\n",
                    arch::ring0CauseName(
                        static_cast<arch::Ring0Cause>(c)),
                    (unsigned long long)mp.eventCount(
                        static_cast<arch::Ring0Cause>(c)));
    }
    std::printf("serializations: %llu, inter-sequencer signals "
                "delivered: %llu\n",
                (unsigned long long)mp.serializations(),
                (unsigned long long)mp.fabric().deliveries());
    return total == 1024 * 1025 / 2 ? 0 : 1;
}
