/**
 * @file
 * The ledger's host-speed probe: a fixed bytecode interpreter, 2048
 * pseudo-random opcodes dispatched through a switch over a 16 KiB array.
 * It has the shape of the simulator's hot loop (table dispatch,
 * data-dependent branches, cache-resident loads and stores) but none of
 * its code, and it is built from this file alone: code placement moves a
 * loop like this by several percent, so no change to the simulator may
 * move this one.
 *
 *   ledger_probe [N]    time N calls (default 3); print the fastest in s
 */

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

namespace {

/** Where the loop leaves its result, so it is not optimised away. */
volatile std::uint32_t sink = 0;

/** One call: the same work every time. Returns its wall time in s. */
double
probeOnce()
{
    constexpr std::size_t kOps = 2048, kWords = 4096;
    constexpr int kRounds = 900;
    static const std::array<std::uint8_t, kOps> ops = [] {
        std::array<std::uint8_t, kOps> out{};
        std::uint64_t x = 0x9e3779b97f4a7c15ull;
        for (std::uint8_t &op : out) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            op = static_cast<std::uint8_t>(x % 7);
        }
        return out;
    }();
    static std::array<std::uint32_t, kWords> mem;
    for (std::uint32_t i = 0; i < kWords; ++i)
        mem[i] = i * 2654435761u;

    const auto t0 = std::chrono::steady_clock::now();
    std::uint32_t r0 = 1, r1 = 2, r2 = 3, r3 = 4;
    for (int round = 0; round < kRounds; ++round) {
        for (std::uint32_t pc = 0; pc < kOps; ++pc) {
            switch (ops[pc]) {
            case 0: r0 += r1 ^ pc; break;
            case 1: r1 = r1 * 2654435761u + r2; break;
            case 2: r2 = mem[(r0 + r3) % kWords]; break;
            case 3: mem[r1 % kWords] = r2 + r3; break;
            case 4: r3 ^= mem[r2 % kWords] >> 3; break;
            case 5:
                if (r0 & 1)
                    r3 += r0;
                else
                    r0 ^= r3;
                break;
            default: r2 = (r2 << 5) | (r2 >> 27); break;
            }
        }
    }
    const std::chrono::duration<double> s =
        std::chrono::steady_clock::now() - t0;
    sink = r0 + r1 + r2 + r3;
    return s.count();
}

} // namespace

int
main(int argc, char **argv)
{
    const long n = argc > 1 ? std::strtol(argv[1], nullptr, 10) : 3;
    if (argc > 2 || n < 1 || n > 1000) {
        std::fprintf(stderr, "usage: %s [N], 1 <= N <= 1000\n", argv[0]);
        return 2;
    }
    double best = probeOnce();
    for (long i = 1; i < n; ++i) {
        const double s = probeOnce();
        best = s < best ? s : best;
    }
    std::printf("%.9f\n", best);
    return 0;
}
