/**
 * @file
 * Configuration of a MISP processor model.
 */

#ifndef MISP_MISP_MISP_CONFIG_HH
#define MISP_MISP_MISP_CONFIG_HH

#include "cpu/engine.hh"
#include "sim/types.hh"

namespace misp::arch {

/** Serialization policy for OMS Ring-0 episodes (§2.3). */
enum class SerializationPolicy {
    /** The paper's simple implementation: suspend every AMS whenever the
     *  OMS transitions to Ring 0; resume (with synchronized privileged
     *  state) when it returns to Ring 3. */
    SuspendAll,
    /** The paper's sketched aggressive alternative: AMSs keep executing
     *  speculatively while hardware monitors the control registers; they
     *  are only disturbed if CR3 actually changed (thread switch), in
     *  which case their TLBs are purged and state synchronized. */
    SpeculativeMonitor,
};

const char *serializationPolicyName(SerializationPolicy p);

/** Per-MISP-processor knobs. */
struct MispConfig {
    /** Number of application-managed sequencers. */
    unsigned numAms = 7;

    /** Inter-sequencer signaling cost, in cycles. The paper assumes
     *  5000 as "a conservative estimate of a microcode-based
     *  implementation" (§5.2); Figure 5 sweeps {0, 500, 1000, 5000}. */
    Cycles signalCycles = 5000;

    /** Cost of one sequencer-context save or restore to memory (proxy
     *  impersonation and thread switches). */
    Cycles contextXferCycles = 150;

    SerializationPolicy serialization = SerializationPolicy::SuspendAll;

    /** Instructions per sequencer scheduling slice (timing fidelity
     *  knob; see Sequencer::setSliceLimit). */
    unsigned sliceLimit = 32;

    /** Host-side execution engine: reference (per-instruction
     *  fetch+decode) or superblock (chained basic-block dispatch over
     *  predecoded pages). Simulated cycles and stats are bit-identical
     *  across both; this is a simulation-speed knob, never
     *  architectural state (snapshots neither record it nor key
     *  compatibility on it). */
    cpu::Engine engine = cpu::Engine::Superblock;
};

} // namespace misp::arch

#endif // MISP_MISP_MISP_CONFIG_HH
