/**
 * @file
 * Two-level page table, the structure a CR3-style register points at.
 *
 * MISA virtual addresses are 32 bits wide: 10 bits of directory index,
 * 10 bits of table index, 12 bits of page offset — exactly the classic
 * IA-32 non-PAE layout. The table is stored host-side for speed; the
 * `root()` token models the CR3 value, and sequencers compare root tokens
 * to detect address-space switches (which purge their TLBs, per the
 * paper's Section 2.3).
 */

#ifndef MISP_MEM_PAGE_TABLE_HH
#define MISP_MEM_PAGE_TABLE_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>

#include "mem/paging.hh"
#include "sim/logging.hh"

namespace misp::mem {

/** Opaque address-space root token (the modeled CR3 value). */
using PageTableRoot = std::uint64_t;

constexpr PageTableRoot kNullRoot = 0;

/** Classic two-level page table. */
class PageTable
{
  public:
    PageTable();
    ~PageTable();

    PageTable(const PageTable &) = delete;
    PageTable &operator=(const PageTable &) = delete;

    /** The CR3 token for this table; unique per PageTable instance. */
    PageTableRoot root() const { return root_; }

    /** Look up the PTE mapping @p va; nullptr when no table entry exists.
     *  A present check is still required on the returned PTE. */
    const Pte *lookup(VAddr va) const;

    /** Install (or replace) the mapping for the page containing @p va. */
    void map(VAddr va, std::uint64_t frame, bool writable, bool user);

    /** Remove the mapping for the page containing @p va.
     *  @return the PTE that was removed (present=false if none). */
    Pte unmap(VAddr va);

    /** Mutable access for accessed/dirty bit updates by the walker. */
    Pte *lookupMut(VAddr va);

    /** Number of present mappings. */
    std::uint64_t mappedPages() const { return mapped_; }

    /** Simulated cost of one hardware page walk, in cycles. Two levels
     *  at DRAM-ish latency each. */
    static constexpr Cycles kWalkCycles = 40;

    /** Snapshot: present mappings with their accessed/dirty bits. The
     *  root token is NOT archived — a restored table gets a fresh
     *  unique token, which preserves every equality relation the model
     *  compares (injective both before and after). */
    template <class Ar>
    void archive(Ar &a);

  private:
    static constexpr unsigned kDirBits = 10;
    static constexpr unsigned kTblBits = 10;
    static constexpr std::size_t kDirEntries = 1u << kDirBits;
    static constexpr std::size_t kTblEntries = 1u << kTblBits;

    static unsigned
    dirIndex(VAddr va)
    {
        return (va >> (kPageShift + kTblBits)) & (kDirEntries - 1);
    }

    static unsigned
    tblIndex(VAddr va)
    {
        return (va >> kPageShift) & (kTblEntries - 1);
    }

    using Leaf = std::array<Pte, kTblEntries>;

    std::array<std::unique_ptr<Leaf>, kDirEntries> dir_;
    /** snap: config — the root is a process-lifetime-unique handle,
     *  only ever compared for equality between live tables (CR3
     *  semantics); it never travels in an image, and a machine
     *  rebuilt from config gets fresh-but-equivalent roots. */
    PageTableRoot root_;
    std::uint64_t mapped_ = 0;

    /** Atomic: --jobs N constructs machines on concurrent workers. */
    static std::atomic<std::uint64_t> nextRoot_;
};

} // namespace misp::mem

#endif // MISP_MEM_PAGE_TABLE_HH
