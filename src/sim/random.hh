/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All stochastic model behaviour (workload input generation, scheduler
 * tie-breaking, synthetic event injection) draws from Rng so that a given
 * seed reproduces a simulation bit-for-bit. The generator is SplitMix64
 * seeded xoshiro256**, which is fast and has no observable bias at the
 * scales we use.
 */

#ifndef MISP_SIM_RANDOM_HH
#define MISP_SIM_RANDOM_HH

#include <array>
#include <cstdint>

#include "logging.hh"

namespace misp {

/** Deterministic, seedable PRNG (xoshiro256**). */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull) { reseed(seed); }

    /** Re-initialize the state from a 64-bit seed via SplitMix64. */
    void
    reseed(std::uint64_t seed)
    {
        std::uint64_t x = seed;
        for (auto &word : state_) {
            // SplitMix64 step.
            x += 0x9E3779B97F4A7C15ull;
            std::uint64_t z = x;
            z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
            z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
            word = z ^ (z >> 31);
        }
    }

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        auto rotl = [](std::uint64_t v, int k) {
            return (v << k) | (v >> (64 - k));
        };
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound). @p bound must be nonzero. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        MISP_ASSERT(bound != 0);
        // Rejection sampling to avoid modulo bias.
        const std::uint64_t threshold = (~bound + 1) % bound;
        for (;;) {
            std::uint64_t r = next();
            if (r >= threshold)
                return r % bound;
        }
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t
    range(std::uint64_t lo, std::uint64_t hi)
    {
        MISP_ASSERT(lo <= hi);
        return lo + below(hi - lo + 1);
    }

    /** Uniform double in [0, 1). */
    double
    real()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Raw generator state, for machine-state snapshots. Restoring the
     *  four words reproduces the draw sequence exactly. */
    std::array<std::uint64_t, 4>
    state() const
    {
        return {state_[0], state_[1], state_[2], state_[3]};
    }

    void
    setState(const std::array<std::uint64_t, 4> &s)
    {
        for (int i = 0; i < 4; ++i)
            state_[i] = s[i];
    }

  private:
    std::uint64_t state_[4];
};

} // namespace misp

#endif // MISP_SIM_RANDOM_HH
