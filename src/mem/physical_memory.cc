#include "physical_memory.hh"

#include <algorithm>

#include "snapshot/serialize.hh"

namespace misp::mem {

PhysicalMemory::PhysicalMemory(std::uint64_t frames,
                               stats::StatGroup *parent)
    : frames_(frames),
      statGroup_("physmem", parent),
      framesAllocated_(&statGroup_, "framesAllocated"),
      framesFreed_(&statGroup_, "framesFreed"),
      bytesRead_(&statGroup_, "bytesRead"),
      bytesWritten_(&statGroup_, "bytesWritten")
{
    MISP_ASSERT(frames_ > 0);
}

std::uint64_t
PhysicalMemory::allocFrame()
{
    std::uint64_t frame;
    if (!freeList_.empty()) {
        frame = freeList_.back();
        freeList_.pop_back();
        // Recycled frames must come back zeroed: the kernel model relies
        // on zero-fill-on-demand semantics.
        auto it = store_.find(frame);
        if (it != store_.end())
            std::memset(it->second.data(), 0, kPageSize);
    } else {
        if (nextFresh_ >= frames_)
            fatal("physical memory exhausted (%llu frames)",
                  (unsigned long long)frames_);
        frame = nextFresh_++;
    }
    ++used_;
    ++framesAllocated_;
    return frame;
}

void
PhysicalMemory::freeFrame(std::uint64_t frame)
{
    MISP_ASSERT(frame < frames_);
    MISP_ASSERT(used_ > 0);
    --used_;
    ++framesFreed_;
    freeList_.push_back(frame);
}

const std::uint8_t *
PhysicalMemory::framePtr(std::uint64_t frame) const
{
    auto it = store_.find(frame);
    if (it == store_.end()) {
        // Lazily materialize zeroed backing store.
        it = store_.emplace(frame, std::vector<std::uint8_t>(kPageSize, 0))
                 .first;
    }
    return it->second.data();
}

std::uint8_t *
PhysicalMemory::framePtrMut(std::uint64_t frame)
{
    return const_cast<std::uint8_t *>(framePtr(frame));
}

Word
PhysicalMemory::read(PAddr addr, unsigned size) const
{
    MISP_ASSERT(size == 1 || size == 2 || size == 4 || size == 8);
    MISP_ASSERT(pageOffset(addr) + size <= kPageSize);
    const std::uint8_t *p = framePtr(addr >> kPageShift) + pageOffset(addr);
    Word v = 0;
    std::memcpy(&v, p, size); // little-endian host assumed (x86/arm64)
    const_cast<stats::Scalar &>(bytesRead_) += size;
    return v;
}

void
PhysicalMemory::write(PAddr addr, Word value, unsigned size)
{
    MISP_ASSERT(size == 1 || size == 2 || size == 4 || size == 8);
    MISP_ASSERT(pageOffset(addr) + size <= kPageSize);
    std::uint8_t *p = framePtrMut(addr >> kPageShift) + pageOffset(addr);
    std::memcpy(p, &value, size);
    bytesWritten_ += size;
}

void
PhysicalMemory::readBytes(PAddr addr, void *dst, std::uint64_t len) const
{
    auto *out = static_cast<std::uint8_t *>(dst);
    while (len > 0) {
        std::uint64_t chunk = std::min<std::uint64_t>(
            len, kPageSize - pageOffset(addr));
        const std::uint8_t *p =
            framePtr(addr >> kPageShift) + pageOffset(addr);
        std::memcpy(out, p, chunk);
        addr += chunk;
        out += chunk;
        len -= chunk;
    }
}

void
PhysicalMemory::writeBytes(PAddr addr, const void *src, std::uint64_t len)
{
    const auto *in = static_cast<const std::uint8_t *>(src);
    while (len > 0) {
        std::uint64_t chunk = std::min<std::uint64_t>(
            len, kPageSize - pageOffset(addr));
        std::uint8_t *p = framePtrMut(addr >> kPageShift) + pageOffset(addr);
        std::memcpy(p, in, chunk);
        addr += chunk;
        in += chunk;
        len -= chunk;
    }
}

template <class Ar>
void
PhysicalMemory::archive(Ar &a)
{
    a.match(frames_, "physmem capacity");
    a.u64(used_);
    a.u64(nextFresh_);
    snap::sequence(a, freeList_, 8, "physmem free list",
                   [&](std::uint64_t &f) { a.u64(f); });
    if constexpr (Ar::kLoading) {
        if (nextFresh_ > frames_)
            throw snap::SnapError("image: physmem next fresh frame " +
                                  std::to_string(nextFresh_) +
                                  " is past the capacity");
        if (used_ > nextFresh_ || nextFresh_ - used_ != freeList_.size())
            throw snap::SnapError(
                "image: physmem allocator state is inconsistent (" +
                std::to_string(used_) + " used + " +
                std::to_string(freeList_.size()) + " free != " +
                std::to_string(nextFresh_) + " handed out)");
        std::vector<std::uint64_t> sorted = freeList_;
        std::sort(sorted.begin(), sorted.end());
        if (!sorted.empty() && sorted.back() >= nextFresh_)
            throw snap::SnapError("image: physmem free list holds frame " +
                                  std::to_string(sorted.back()) +
                                  ", never handed out");
        if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end())
            throw snap::SnapError("image: physmem free list holds a frame "
                                  "twice");
    }

    std::vector<std::uint64_t> frames;
    if constexpr (!Ar::kLoading) {
        frames.reserve(store_.size());
        // misplint: allow(det-unordered-iter) — frame ids sorted below
        for (const auto &[frame, bytes] : store_) {
            (void)bytes;
            frames.push_back(frame);
        }
        std::sort(frames.begin(), frames.end());
    } else {
        store_.clear();
    }
    std::uint64_t n = frames.size();
    a.count(n, 8 + kPageSize, "physmem frame");
    for (std::uint64_t i = 0; i < n; ++i) {
        std::uint64_t frame = Ar::kLoading ? 0 : frames[i];
        a.index(frame, frames_, "physmem stored frame");
        auto [it, fresh] = store_.try_emplace(frame, kPageSize);
        if (Ar::kLoading && !fresh)
            throw snap::SnapError("image: physmem frame " +
                                  std::to_string(frame) + " is stored twice");
        a.bytes(it->second.data(), kPageSize);
    }
}

MISP_SNAP_ARCHIVE(PhysicalMemory);

const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::None: return "none";
      case FaultKind::PageFault: return "page-fault";
      case FaultKind::GeneralProtection: return "general-protection";
      case FaultKind::InvalidOpcode: return "invalid-opcode";
      case FaultKind::DivideError: return "divide-error";
      case FaultKind::Syscall: return "syscall";
      case FaultKind::Breakpoint: return "breakpoint";
    }
    return "unknown";
}

} // namespace misp::mem
