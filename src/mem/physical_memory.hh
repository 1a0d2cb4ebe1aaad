/**
 * @file
 * Sparse physical memory with a frame allocator.
 *
 * Frames are materialized lazily so a simulated machine can expose a large
 * physical address space without committing host memory. The kernel model
 * allocates frames on demand-paging faults; freeing returns frames to a
 * free list so long multiprogramming runs do not leak.
 */

#ifndef MISP_MEM_PHYSICAL_MEMORY_HH
#define MISP_MEM_PHYSICAL_MEMORY_HH

#include <cstdint>
#include <cstring>
#include <unordered_map>
#include <vector>

#include "mem/paging.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace misp::mem {

/** Byte-addressable sparse physical memory. */
class PhysicalMemory
{
  public:
    /**
     * @param frames total number of physical frames (capacity).
     */
    explicit PhysicalMemory(std::uint64_t frames,
                            stats::StatGroup *parent = nullptr);

    /** Allocate a zeroed frame. @return frame number.
     *  fatal()s when physical memory is exhausted. */
    std::uint64_t allocFrame();

    /** Return a frame to the allocator. */
    void freeFrame(std::uint64_t frame);

    std::uint64_t framesUsed() const { return used_; }

    std::uint64_t
    bytesRead() const
    {
        return static_cast<std::uint64_t>(bytesRead_.value());
    }
    std::uint64_t
    bytesWritten() const
    {
        return static_cast<std::uint64_t>(bytesWritten_.value());
    }

    /** Typed little-endian accessors. @p size in {1,2,4,8}.
     *  Accesses must not cross a frame boundary (callers split at page
     *  granularity, and guest accesses are size-aligned). */
    Word read(PAddr addr, unsigned size) const;
    void write(PAddr addr, Word value, unsigned size);

    /** Bulk copy helpers for loaders and the proxy save/restore paths. */
    void readBytes(PAddr addr, void *dst, std::uint64_t len) const;
    void writeBytes(PAddr addr, const void *src, std::uint64_t len);

    /** Stable pointer to @p frame's backing bytes (lazily
     *  materialized). The store is node-based and frames are never
     *  resized, so the pointer stays valid — and observes recycles in
     *  place — until the store is restored from a snapshot. Used by
     *  the Mmu's data paths, which account their bytes through
     *  accountBytes() instead of read()/write(). */
    std::uint8_t *frameData(std::uint64_t frame)
    {
        return framePtrMut(frame);
    }

    /** Fold @p rd read / @p wr written bytes moved through frameData()
     *  into the access counters (bit-identical totals: addition
     *  commutes, and batched replay runs flush at every boundary where
     *  the counters could be observed). */
    void
    accountBytes(std::uint64_t rd, std::uint64_t wr)
    {
        bytesRead_ += rd;
        bytesWritten_ += wr;
    }

    /** Snapshot the allocator state and every materialized frame
     *  (frames are emitted in ascending order, so images of identical
     *  machine states are byte-identical). Load checks the allocator
     *  invariant allocFrame/freeFrame keep:
     *  used + free-list size == next fresh frame <= capacity, with a
     *  duplicate-free free list of handed-out frames. */
    template <class Ar>
    void archive(Ar &a);

  private:
    const std::uint8_t *framePtr(std::uint64_t frame) const;
    std::uint8_t *framePtrMut(std::uint64_t frame);

    std::uint64_t frames_;
    std::uint64_t used_ = 0;
    std::uint64_t nextFresh_ = 0;
    std::vector<std::uint64_t> freeList_;
    mutable std::unordered_map<std::uint64_t, std::vector<std::uint8_t>>
        store_;

    stats::StatGroup statGroup_;
    stats::Scalar framesAllocated_;
    stats::Scalar framesFreed_;
    stats::Scalar bytesRead_;
    stats::Scalar bytesWritten_;
};

} // namespace misp::mem

#endif // MISP_MEM_PHYSICAL_MEMORY_HH
