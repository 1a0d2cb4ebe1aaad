/**
 * @file
 * A process virtual address space: VMA list, backing images, and the
 * demand-paging policy the kernel model invokes on page faults.
 *
 * All pages — code, data, heap, stacks — are demand-paged: nothing is
 * mapped until first touch. This is what produces the "compulsory page
 * faults [that] cause the majority of proxy execution events" in the
 * paper's Table 1 analysis (§5.3), and what the page-probe pre-faulting
 * optimization (scenarios/ablation_pageprobe.scn) eliminates.
 */

#ifndef MISP_MEM_ADDRESS_SPACE_HH
#define MISP_MEM_ADDRESS_SPACE_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cpu/decode_cache.hh"
#include "mem/page_table.hh"
#include "mem/paging.hh"
#include "mem/physical_memory.hh"
#include "sim/types.hh"
#include "snapshot/serialize.hh"

namespace misp::mem {

/** Canonical MISA user-space layout. */
constexpr VAddr kCodeBase = 0x0040'0000;  ///< 4 MiB
constexpr VAddr kDataBase = 0x0800'0000;  ///< 128 MiB
constexpr VAddr kHeapBase = 0x1000'0000;  ///< 256 MiB
constexpr VAddr kStackTop = 0xBFFF'F000;  ///< below the 3 GiB kernel split
constexpr VAddr kUserLimit = 0xC000'0000;

/** One virtual memory area. */
struct Vma {
    VAddr start = 0;  ///< inclusive, page aligned
    VAddr end = 0;    ///< exclusive, page aligned
    bool writable = false;
    std::string label; ///< "code", "heap", "stack:3", ...

    bool
    contains(VAddr va) const
    {
        return va >= start && va < end;
    }
};

/** Result of asking the address space to service a fault. */
enum class FaultOutcome {
    Paged,     ///< a frame was allocated and mapped; retry the access
    BadAccess, ///< address not in any VMA, or write to read-only VMA
};

/**
 * A virtual address space shared by all sequencers running one process.
 *
 * The MISP architecture's central memory property — every sequencer in a
 * MISP processor sees the same virtual address space — is modeled by all
 * sequencers of a processor pointing their MMUs at this object's page
 * table root while the owning thread is scheduled.
 */
class AddressSpace : public snap::Saveable
{
  public:
    AddressSpace(std::string name, PhysicalMemory &pmem);
    ~AddressSpace();

    AddressSpace(const AddressSpace &) = delete;
    AddressSpace &operator=(const AddressSpace &) = delete;

    const std::string &name() const { return name_; }
    PageTable &pageTable() { return table_; }
    const PageTable &pageTable() const { return table_; }
    PageTableRoot root() const { return table_.root(); }

    /** Process-lifetime-unique identity (never reused, unlike the heap
     *  address); lets an MMU detect "same space reloaded" without the
     *  ABA hazard of comparing pointers across destruction. */
    std::uint64_t id() const { return id_; }

    /** Predecoded instruction pages derived from this space's memory.
     *  Shared by every sequencer currently pointing its MMU here, and
     *  invalidated by all writers (stores, pokes, mapping changes). */
    cpu::DecodeCache &decodeCache() { return decodeCache_; }
    const cpu::DecodeCache &decodeCache() const { return decodeCache_; }

    /**
     * Declare a VMA. If @p image is non-empty its bytes back the start of
     * the region (zero-fill beyond). Addresses are page-rounded outward.
     * @return the page-aligned start address.
     */
    VAddr defineRegion(VAddr start, std::uint64_t len, bool writable,
                       std::string label,
                       std::vector<std::uint8_t> image = {});

    /** Allocate a fresh page-aligned anonymous region above the heap.
     *  Used by the guest malloc and by stack carving. */
    VAddr allocRegion(std::uint64_t len, bool writable, std::string label);

    /** Demand-page the fault at @p va (called by the kernel model).
     *  On success installs the PTE and copies backing image bytes. */
    FaultOutcome handleFault(VAddr va, bool write);

    /** Pre-fault every page of [start,start+len): the §5.3 "page probe"
     *  optimization. @return pages actually faulted in. */
    std::uint64_t prefault(VAddr start, std::uint64_t len);

    /** True if the page holding @p va is currently mapped. */
    bool mapped(VAddr va) const;

    /** VMA lookup (nullptr if unmapped address). */
    const Vma *findVma(VAddr va) const;

    /**
     * Host-side debug/loader access that bypasses timing but honors the
     * paging state: reads of unmapped pages return zeroes; writes fault
     * pages in first. Used by loaders, checkers, and tests — never by
     * modeled instruction execution.
     */
    void poke(VAddr va, const void *src, std::uint64_t len);
    void peek(VAddr va, void *dst, std::uint64_t len) const;

    Word peekWord(VAddr va, unsigned size) const;
    void pokeWord(VAddr va, Word value, unsigned size);

    std::uint64_t residentPages() const { return resident_; }
    std::uint64_t faultsServiced() const { return faultsServiced_; }

    /** Snapshot: VMAs with their backing images, the allocation
     *  cursor, paging counters, and the page table. The decode cache
     *  is derived state (predecoded guest memory) and stays out of the
     *  image; it repopulates lazily and identically after restore. */
    void snapSave(snap::Serializer &s) const override;
    void snapRestore(snap::Deserializer &d) override;

  private:
    struct Region {
        Vma vma;
        std::vector<std::uint8_t> image; ///< backing bytes from vma.start
    };

    const Region *findRegion(VAddr va) const;

    std::string name_;    ///< snap: config
    PhysicalMemory &pmem_;
    /** snap: config — a process-lifetime-unique handle, only ever
     *  compared for equality between live spaces (Mmu ABA check); it
     *  never travels in an image. */
    std::uint64_t id_;
    cpu::DecodeCache decodeCache_; ///< snap: derived — rebuilds lazily
    PageTable table_;
    std::map<VAddr, Region> regions_; ///< keyed by start
    VAddr allocCursor_ = kHeapBase;
    std::uint64_t resident_ = 0;
    std::uint64_t faultsServiced_ = 0;
};

} // namespace misp::mem

#endif // MISP_MEM_ADDRESS_SPACE_HH
