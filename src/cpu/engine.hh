/**
 * @file
 * Execution-engine selection for the sequencer inner loop.
 *
 * Two host-side engines produce bit-identical simulated behavior
 * (cycles, ticks, TLB statistics, retired instructions, events) from
 * one copy of the instruction semantics:
 *
 *  - Reference: per-instruction fetch + byte-level decode. The ground
 *    truth the superblock engine is differentially tested against.
 *  - Superblock: executes from the per-address-space decode cache,
 *    running decoded slots by direct-threaded dispatch on the handler
 *    each slot recorded at decode (a block ends at a slot whose
 *    handler is the exit to the generic path — RTCALLs, serialization
 *    points, faulting ops — at a branch off the page, or at the page
 *    edge), following same-page branches without leaving the fast
 *    loop, and folding per-instruction stat updates into block-local
 *    accumulators.
 *
 * Only host speed differs; the engine is therefore not architectural
 * state (snapshots neither record it nor key compatibility on it).
 */

#ifndef MISP_CPU_ENGINE_HH
#define MISP_CPU_ENGINE_HH

#include <cstdint>
#include <string>

namespace misp::cpu {

enum class Engine : std::uint8_t {
    Reference,  ///< per-instruction fetch + decode (`--engine=ref`)
    Superblock, ///< chained superblock dispatch (`--engine=superblock`)
};

inline const char *
engineName(Engine e)
{
    return e == Engine::Reference ? "ref" : "superblock";
}

/** Parse an `--engine=` / `engine =` value: `ref` or `superblock`. */
inline bool
parseEngineName(const std::string &s, Engine *out)
{
    if (s == "ref") {
        *out = Engine::Reference;
        return true;
    }
    if (s == "superblock") {
        *out = Engine::Superblock;
        return true;
    }
    return false;
}

} // namespace misp::cpu

#endif // MISP_CPU_ENGINE_HH
