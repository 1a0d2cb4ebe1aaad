/**
 * @file
 * Per-sequencer memory management unit.
 *
 * Every sequencer owns one Mmu: a CR3-style root register, a private TLB,
 * and a hardware page walker. Translation enforces the Ring-3 user bit —
 * this is how an AMS (which only ever runs Ring 3) can never touch kernel
 * mappings — and raises page faults that, on an AMS, become proxy
 * execution triggers.
 *
 * Instruction fetch has two host-side paths with identical modeled
 * behavior:
 *
 *  - fetchTranslate(va, ring, /\*fastPath=*\/false): the reference path —
 *    a full TLB probe per fetch (walking on a miss).
 *  - fetchTranslate(va, ring, /\*fastPath=*\/true): the predecoded-block
 *    engine's path. A one-entry last-translation cache short-circuits
 *    sequential fetches to the same page: while the TLB's content stamp
 *    is unchanged, the hit is *replayed* (reference-bit touch + hit
 *    count + access cycles) without re-scanning the set, so simulated
 *    cycle counts and TLB statistics stay bit-identical to the
 *    reference path.
 */

#ifndef MISP_MEM_MMU_HH
#define MISP_MEM_MMU_HH

#include <cstdint>
#include <cstring>
#include <string>

#include "mem/address_space.hh"
#include "mem/page_table.hh"
#include "mem/paging.hh"
#include "mem/physical_memory.hh"
#include "mem/tlb.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace misp::mem {

/** Execution privilege level (IA-32 ring). MISA models only the two the
 *  paper uses: Ring 0 (kernel) and Ring 3 (user). */
enum class Ring : std::uint8_t { Kernel = 0, User = 3 };

/** True for the sizes MISA loads and stores take: 1, 2, 4 or 8 bytes. */
constexpr bool
accessSize(unsigned size)
{
    return size <= 8 && ((0x116u >> size) & 1u) != 0;
}

/** Little-endian load of a word of accessSize() @p size from host bytes
 *  @p p; each fixed-size copy compiles to one move. */
inline Word
loadLE(const std::uint8_t *p, unsigned size)
{
    switch (size) {
      case 1:
        return *p;
      case 2: {
        std::uint16_t v;
        std::memcpy(&v, p, 2);
        return v;
      }
      case 4: {
        std::uint32_t v;
        std::memcpy(&v, p, 4);
        return v;
      }
      default: {
        Word v;
        std::memcpy(&v, p, 8);
        return v;
      }
    }
}

/** Store counterpart of loadLE(). */
inline void
storeLE(std::uint8_t *p, Word value, unsigned size)
{
    switch (size) {
      case 1:
        *p = static_cast<std::uint8_t>(value);
        break;
      case 2: {
        const auto v = static_cast<std::uint16_t>(value);
        std::memcpy(p, &v, 2);
        break;
      }
      case 4: {
        const auto v = static_cast<std::uint32_t>(value);
        std::memcpy(p, &v, 4);
        break;
      }
      default:
        std::memcpy(p, &value, 8);
        break;
    }
}

/** Outcome of a translated, executed memory access. */
struct AccessResult {
    Fault fault = Fault::none();
    Cycles cycles = 0; ///< extra cycles beyond the base op latency
    Word value = 0;    ///< loaded value (reads)
};

/** Outcome of an instruction-fetch translation. */
struct FetchResult {
    Fault fault = Fault::none();
    Cycles cycles = 0;
    PAddr pa = 0; ///< physical address of the fetched bundle
};

/** Per-sequencer MMU. */
class Mmu : public snap::Saveable
{
  public:
    Mmu(std::string name, PhysicalMemory &pmem, stats::StatGroup *parent);

    /** Point at an address space; models a CR3 write, so the TLB purges
     *  (unless @p preserveTlb, used when re-synchronizing to the *same*
     *  root after an OMS Ring-0 episode that did not change CR3). */
    void setAddressSpace(AddressSpace *as, bool preserveTlb = false);

    AddressSpace *addressSpace() const { return as_; }
    PageTableRoot root() const { return as_ ? as_->root() : kNullRoot; }

    /** Advances whenever the MMU is pointed at a different address
     *  space (by never-reused space identity, not pointer); cached
     *  decoded-block references are only valid while this is
     *  unchanged. */
    std::uint64_t addressSpaceGen() const { return asGen_; }

    /** Translate-and-load. Alignment must be natural for @p size. */
    AccessResult read(VAddr va, unsigned size, Ring ring);

    /** Translate-and-store. Notifies the address space's decode cache so
     *  stores to predecoded code pages invalidate them (SMC). */
    AccessResult write(VAddr va, Word value, unsigned size, Ring ring);

    /** Instruction fetch (execute access). */
    AccessResult fetch(VAddr va, unsigned size, Ring ring);

    /** Fetch one 16-byte instruction bundle into @p buf. Instructions
     *  must be 16-byte aligned, so a bundle never crosses a page. */
    AccessResult fetchInst(VAddr va, std::uint8_t buf[16], Ring ring);

    /** Translate an instruction fetch without reading the bytes (the
     *  predecoded-block engine executes from decoded pages instead).
     *  @p fastPath enables the one-entry last-translation cache; both
     *  settings produce identical modeled cycles and TLB statistics. */
    FetchResult fetchTranslate(VAddr va, Ring ring, bool fastPath);

    /** True while a fetch of @p va can be *replayed* from the one-entry
     *  last-translation cache: the TLB's content stamp is unchanged
     *  since the cache was filled and @p va stays on the same page in
     *  the same ring. The superblock engine batches such replays —
     *  counting kAccessCycles per instruction locally — and commits the
     *  deferred reference-bit touches and hit counts in one
     *  commitFetchReplays() call, which is bit-identical to touching
     *  per fetch because nothing can have inspected the reference bits
     *  in between (any TLB insert advances stamp() and fails this
     *  check first). */
    bool
    fetchReplayable(VAddr va, Ring ring) const
    {
        return lastFetch_.tlbStamp == tlb_.stamp() &&
               lastFetch_.vpn == pageNumber(va) &&
               lastFetch_.ring == ring;
    }

    /** Commit @p n batched fetch replays (see fetchReplayable()). */
    void
    commitFetchReplays(std::uint64_t n)
    {
        tlb_.touchHitN(lastFetch_.way, n);
    }

    /** Data-side twin of fetchReplayable(): true while an aligned,
     *  permission-compatible data access to @p va can be replayed from
     *  the one-entry last-data-translation cache (primed by every
     *  translated read/write). Same stamp discipline: any TLB insert,
     *  invalidation, or flush advances stamp() and fails this check, so
     *  batched replay commits stay bit-identical to per-access TLB
     *  probes. The `writable` gate sends writes that might fault down
     *  the full translate path. */
    bool
    dataReplayable(VAddr va, bool isWrite, Ring ring) const
    {
        return lastData_.tlbStamp == tlb_.stamp() &&
               lastData_.vpn == pageNumber(va) &&
               lastData_.ring == ring &&
               (!isWrite || lastData_.writable);
    }

    /** Re-aim the data window at @p va's page when the TLB holds it
     *  with the permission the access needs and a known host frame
     *  (Tlb::Entry::host): the pending replays are committed to the old
     *  window first, and the access that follows — a replay on the new
     *  one — makes exactly the lookup's modeled effects (reference bit
     *  and hit). No walk, no miss and no insert can happen here, so the
     *  TLB stamp holds. @return false (nothing changed) otherwise; the
     *  access then takes the full translate path. */
    bool
    retargetData(VAddr va, bool isWrite, Ring ring)
    {
        Tlb::Entry *e = tlb_.probe(pageNumber(va));
        if (!e || !e->host || (ring == Ring::User && !e->pte.user) ||
            (isWrite && !e->pte.writable)) {
            return false;
        }
        commitDataReplays();
        lastData_.vpn = e->vpn;
        lastData_.tlbStamp = tlb_.stamp();
        lastData_.bytes = e->host;
        lastData_.ring = ring;
        lastData_.writable = e->pte.writable;
        lastData_.way.entry = e;
        return true;
    }

    /** Replayed load (caller checked dataReplayable, accessSize and
     *  alignment). Goes straight at the frame's stable byte pointer;
     *  the TLB hit and the bytes read are accounted at the next
     *  commitDataReplays(). */
    Word
    dataReplayRead(VAddr va, unsigned size)
    {
        ++replayHits_;
        replayBytesRead_ += size;
        return loadLE(lastData_.bytes + pageOffset(va), size);
    }

    /** Replayed store (caller checked dataReplayable, accessSize and
     *  alignment); keeps the SMC decode-cache probe on the replay
     *  path. */
    void
    dataReplayWrite(VAddr va, Word value, unsigned size)
    {
        storeLE(lastData_.bytes + pageOffset(va), value, size);
        ++replayHits_;
        replayBytesWritten_ += size;
        as_->decodeCache().noteWrite(va);
    }

    /** Commit the batched data replays (see dataReplayable()): the TLB
     *  hits on the window's entry and the bytes moved. */
    void
    commitDataReplays()
    {
        if (replayHits_ == 0)
            return;
        tlb_.touchHitN(lastData_.way, replayHits_);
        pmem_.accountBytes(replayBytesRead_, replayBytesWritten_);
        replayHits_ = 0;
        replayBytesRead_ = 0;
        replayBytesWritten_ = 0;
    }

    /** Atomic read-modify-write support: translate once with write
     *  intent, return the physical address for the caller to operate on.
     *  @p refOut (optional) receives a handle to the TLB entry that
     *  served the translation (hit or freshly walked), replayable with
     *  Tlb::touchHit while the TLB stamp is unchanged. */
    AccessResult translate(VAddr va, unsigned size, Access access,
                           Ring ring, PAddr *paOut,
                           Tlb::EntryRef *refOut = nullptr);

    Tlb &tlb() { return tlb_; }

    /** Invalidate one page's TLB entry (shootdown). */
    void invalidatePage(VAddr va) { tlb_.invalidatePage(va); }

    std::uint64_t pageWalks() const
    {
        return static_cast<std::uint64_t>(walks_.value());
    }

    /** Snapshot: the address-space generation and the TLB. The
     *  one-entry last-fetch cache is derived (revalidated against the
     *  TLB stamp) and resets cold on restore with identical modeled
     *  cycles and counters. */
    void snapSave(snap::Serializer &s) const override;
    void snapRestore(snap::Deserializer &d) override;

    /** Restore-path companion to snapRestore: point at the rebuilt
     *  address space WITHOUT the architectural CR3-purge of
     *  setAddressSpace() — the TLB content being restored belongs to
     *  exactly this space. */
    void snapAttach(AddressSpace *as);

  private:
    AddressSpace *as_ = nullptr; ///< snap: attach — see snapAttach()
    PhysicalMemory &pmem_;
    /** snap: derived — tags decoded-block references, and a restored
     *  machine's decode caches start empty, so any value is coherent. */
    std::uint64_t asGen_ = 1;
    /** id of as_ (0 = none); see setAddressSpace.
     *  snap: attach — re-established by snapAttach(). */
    std::uint64_t lastAsId_ = 0;

    /** One-entry last-translation cache for sequential fetches. */
    struct LastFetch {
        std::uint64_t vpn = 0;
        std::uint64_t tlbStamp = 0; ///< 0 = invalid
        PAddr paBase = 0;
        Ring ring = Ring::User;
        Tlb::EntryRef way;
    } lastFetch_; ///< snap: derived — replay window, rebuilt on demand

    /** One-entry last-translation cache for data accesses (superblock
     *  engine only; primed by translate() on reads and writes). */
    struct LastData {
        std::uint64_t vpn = 0;
        std::uint64_t tlbStamp = 0; ///< 0 = invalid
        std::uint8_t *bytes = nullptr; ///< the TLB entry's host frame
        Ring ring = Ring::User;
        bool writable = false;
        Tlb::EntryRef way;
    } lastData_; ///< snap: derived — replay window, rebuilt on demand

    /** Replayed accesses and the bytes they moved since the last
     *  commitDataReplays() (folded into the TLB and PhysicalMemory
     *  counters there). */
    std::uint64_t replayHits_ = 0;         ///< snap: quiesced
    std::uint64_t replayBytesRead_ = 0;    ///< snap: quiesced
    std::uint64_t replayBytesWritten_ = 0; ///< snap: quiesced

    stats::StatGroup statGroup_;
    Tlb tlb_;
    stats::Scalar walks_;
    stats::Scalar pageFaults_;

  public:
    /** Modeled cache/DRAM latency for a user access that hits the
     *  (unmodeled) cache hierarchy; folded into every access. */
    static constexpr Cycles kAccessCycles = 2;
};

} // namespace misp::mem

#endif // MISP_MEM_MMU_HH
