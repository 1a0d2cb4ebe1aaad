/**
 * @file
 * Per-sequencer translation lookaside buffer.
 *
 * Each sequencer — OMS or AMS — owns a private TLB with its own hardware
 * page walker, exactly as the paper requires: "each sequencer can
 * independently execute a shred in Ring 3 ... with any TLB miss handled
 * independently by the sequencer's hardware TLB page walker" (§2.3).
 * Any CR3 write purges the writing sequencer's TLB; the MISP
 * serialization engine purges AMS TLBs when synchronizing privileged
 * state after an OMS Ring-0 episode that changed the root.
 *
 * The TLB is a set-associative array with clock (one-bit pseudo-LRU)
 * replacement — the layout real DTLBs use — rather than the map-backed
 * true-LRU structure early versions of this model carried. The array
 * form has two properties the execution engine's fast path depends on:
 *
 *  - Entry storage never reallocates, so a pointer returned by lookup()
 *    or insert() stays dereferenceable for the TLB's lifetime. Whether
 *    the entry still *means* anything is captured by stamp(), which
 *    advances on every insert, invalidate, and flush; a caller holding
 *    an EntryRef may replay a hit cheaply while the stamp is unchanged
 *    (see Mmu's last-translation cache).
 *  - Lookup is a handful of tag compares instead of a hash probe, which
 *    matters when it runs once per simulated instruction.
 */

#ifndef MISP_MEM_TLB_HH
#define MISP_MEM_TLB_HH

#include <cstdint>
#include <vector>

#include "mem/paging.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace misp::mem {

/** Set-associative TLB with clock pseudo-LRU replacement. */
class Tlb
{
  public:
    struct Entry {
        std::uint64_t vpn = 0;
        Pte pte;
        bool valid = false;
        bool used = false; ///< clock reference bit
        /** Host bytes of pte.frame, or nullptr until the first data
         *  translation through this entry fills it. Derived state:
         *  cleared on insert and restore, never saved. */
        std::uint8_t *host = nullptr;
    };

    /** Opaque handle to a resident entry, valid while stamp() holds. */
    struct EntryRef {
        Entry *entry = nullptr;
        explicit operator bool() const { return entry != nullptr; }
    };

    /**
     * @param entries capacity; 64 matches a Pentium-4-era DTLB. Rounded
     *        up so each set holds kWays entries.
     */
    Tlb(std::string name, std::size_t entries, stats::StatGroup *parent);

    /** Look up a cached translation. @return nullptr on miss. On a hit
     *  the entry's reference bit is set and @p ref (if given) receives a
     *  handle usable with touchHit() while stamp() is unchanged. */
    const Pte *lookup(VAddr va, EntryRef *ref = nullptr);

    /** The valid entry mapping @p vpn, or nullptr — with no hit/miss
     *  accounting and no reference-bit touch (callers that act on a hit
     *  replay it with touchHit/touchHitN). */
    Entry *
    probe(std::uint64_t vpn)
    {
        Entry *set = &slots_[setIndex(vpn) * kWays];
        for (std::size_t w = 0; w < kWays; ++w) {
            if (set[w].valid && set[w].vpn == vpn)
                return &set[w];
        }
        return nullptr;
    }

    /** Install a translation (after a successful page walk).
     *  @return the installed entry's PTE; the pointer stays valid for
     *  the TLB's lifetime (re-validate against stamp() before reuse). */
    const Pte *insert(VAddr va, const Pte &pte, EntryRef *ref = nullptr);

    /** Replay a hit on an entry known to still be resident (the caller
     *  verified stamp() is unchanged since lookup/insert returned
     *  @p ref). Performs exactly the modeled effects of lookup():
     *  reference-bit touch and hit accounting. */
    void
    touchHit(EntryRef ref)
    {
        ref.entry->used = true;
        ++hits_;
    }

    /** Batched form of touchHit(): commit @p n deferred hit replays on
     *  one entry at once. Valid under the same stamp() contract, with
     *  one extra requirement the superblock engine upholds: nothing may
     *  have *read* the reference bits (an insert's clock eviction scan)
     *  between the replayed fetches and this commit — the reference-bit
     *  set is idempotent, so only an intervening eviction decision
     *  could observe the difference, and any insert bumps stamp() and
     *  forces a real lookup first. */
    void
    touchHitN(EntryRef ref, std::uint64_t n)
    {
        if (n == 0)
            return;
        ref.entry->used = true;
        hits_ += n;
    }

    /** Remove one page's entry if cached (e.g. TLB shootdown). */
    void invalidatePage(VAddr va);

    /** Purge everything (CR3 write semantics). */
    void flushAll();

    /** Monotonic content-change stamp: advances on insert,
     *  invalidatePage, and flushAll. Cached EntryRefs and derived
     *  translations are only replayable while this is unchanged. */
    std::uint64_t stamp() const { return stamp_; }

    std::size_t capacity() const { return slots_.size(); }
    std::size_t size() const;

    std::uint64_t hits() const
    {
        return static_cast<std::uint64_t>(hits_.value());
    }
    std::uint64_t misses() const
    {
        return static_cast<std::uint64_t>(misses_.value());
    }

    static constexpr std::size_t kWays = 4;

    /** Snapshot the full replacement state (entries, reference bits,
     *  clock hands, content stamp) — TLB residency decides future
     *  hit/miss cycles, so it is architectural for determinism. */
    template <class Ar>
    void archive(Ar &a);

  private:
    std::size_t setIndex(std::uint64_t vpn) const
    {
        return vpn & (numSets_ - 1);
    }

    std::size_t numSets_; ///< snap: config — fixed by the entry count
    std::vector<Entry> slots_;        ///< numSets_ * kWays, set-major
    std::vector<std::uint8_t> hand_;  ///< per-set clock hand
    std::uint64_t stamp_ = 1;

    stats::StatGroup statGroup_;
    stats::Scalar hits_;
    stats::Scalar misses_;
    stats::Scalar flushes_; ///< full TLB purges
};

} // namespace misp::mem

#endif // MISP_MEM_TLB_HH
