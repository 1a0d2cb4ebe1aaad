/**
 * @file
 * Per-address-space predecoded instruction cache.
 *
 * The sequencer's reference fetch path pays a byte-level isa::decode for
 * every retired guest instruction. Real full-system simulators (gem5,
 * SimpleScalar) avoid that with predecoded instruction pages: each guest
 * code page is decoded once into an array of executable entries, and the
 * interpreter inner loop runs straight over decoded slots until it
 * leaves the page, faults, or exhausts its slice.
 *
 * One DecodeCache is owned by each mem::AddressSpace: every sequencer
 * of a MISP processor shares the thread's virtual address space (§2.3),
 * so they also share its predecoded pages, and a CR3 switch can never
 * observe another space's blocks by construction.
 *
 * Coherence. A DecodedPage is a pure derivative of guest memory, so any
 * writer of a code page must invalidate it:
 *
 *  - guest stores (Mmu::write -> noteWrite; a bitmap makes the common
 *    store-to-data-page case one load+mask),
 *  - host-side pokes (AddressSpace::poke and pokeWord),
 *  - mapping changes (AddressSpace::handleFault installing a PTE),
 *  - MISP serialization purges and CR3 writes (the sequencer drops its
 *    cached block; see Sequencer::invalidateDecodedBlock).
 *
 * Invalidation bumps the page's version counter in place — the page
 * allocation itself is stable, so a sequencer can hold a raw pointer and
 * re-validate with one compare per instruction.
 */

#ifndef MISP_CPU_DECODE_CACHE_HH
#define MISP_CPU_DECODE_CACHE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "isa/isa.hh"
#include "mem/paging.hh"
#include "mem/physical_memory.hh"
#include "sim/types.hh"

namespace misp::cpu {

using isa::OpClass;

/** The superblock fast loop's exit handler: the slot goes to the
 *  generic path. Every other handler id is the slot's opcode. */
inline constexpr std::uint8_t kExitHandler =
    static_cast<std::uint8_t>(isa::Opcode::NumOpcodes);

/** One predecoded instruction slot. */
struct DecodedSlot {
    isa::Instruction inst;
    Cycles lat = 0;     ///< the opcode table's base latency
    bool valid = false; ///< decode succeeded (else: InvalidOpcode fault)
    OpClass cls = OpClass::Invalid; ///< the opcode table's class
    /** The fast loop's handler, picked at decode: the opcode for an
     *  Inline or Branch op and for a ld/st of 1, 2, 4 or 8 bytes (the
     *  loop runs those itself), else kExitHandler. A block ends where
     *  its slot's handler says so. */
    std::uint8_t handler = kExitHandler;
};
static_assert(sizeof(DecodedSlot) == 32,
              "handler must fit the slot's padding");

/** One guest code page, decoded to directly executable form. */
struct DecodedPage {
    static constexpr std::size_t kSlots =
        mem::kPageSize / isa::kInstBytes;

    std::uint64_t vpn = 0;
    PAddr paBase = 0;     ///< frame the bytes were decoded from
    std::uint64_t version = 0; ///< bumped by every invalidation/redecode
    bool decoded = false;      ///< false between invalidation and redecode
    std::array<DecodedSlot, kSlots> slots{};
};

/** The per-address-space store of predecoded pages. */
class DecodeCache
{
  public:
    explicit DecodeCache(mem::PhysicalMemory &pmem);

    DecodeCache(const DecodeCache &) = delete;
    DecodeCache &operator=(const DecodeCache &) = delete;

    /** Resident decoded page for @p vpn, or nullptr when absent or
     *  invalidated since its last decode. */
    DecodedPage *find(std::uint64_t vpn);

    /** (Re)decode the page at @p vpn from physical frame @p paBase.
     *  Reuses the existing allocation when one exists (its version is
     *  bumped so stale references die). */
    DecodedPage *decodePage(std::uint64_t vpn, PAddr paBase);

    /** Store hook: called for every guest store. O(1) bitmap test; only
     *  stores that land on a currently-decoded page pay the
     *  invalidation. */
    void
    noteWrite(VAddr va)
    {
        const std::uint64_t vpn = mem::pageNumber(va);
        const std::uint64_t word = vpn >> 6;
        if (word < decodedBits_.size() &&
            (decodedBits_[word] >> (vpn & 63)) & 1)
            invalidateVpn(vpn);
    }

    /** Drop one page's decoded contents (unmap, remap, SMC store). */
    void invalidateVpn(std::uint64_t vpn);

    std::uint64_t pagesDecoded() const { return pagesDecoded_; }
    std::uint64_t invalidations() const { return invalidations_; }
    std::size_t residentPages() const { return resident_; }

  private:
    void setBit(std::uint64_t vpn);
    void clearBit(std::uint64_t vpn);

    mem::PhysicalMemory &pmem_;
    std::unordered_map<std::uint64_t, std::unique_ptr<DecodedPage>>
        pages_;
    /** One bit per VPN of the 32-bit guest space, up to the highest
     *  decoded one: page currently holds decoded contents. Keeps the
     *  per-store coherence probe O(1). Grown on decode, so an address
     *  space pays for the pages below its highest code page only, and
     *  one that never executes through the engine (or runs with it
     *  disabled) pays nothing. */
    std::vector<std::uint64_t> decodedBits_;

    std::uint64_t pagesDecoded_ = 0;
    std::uint64_t invalidations_ = 0;
    std::size_t resident_ = 0;
};

} // namespace misp::cpu

#endif // MISP_CPU_DECODE_CACHE_HH
