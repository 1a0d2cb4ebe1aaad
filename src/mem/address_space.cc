#include "address_space.hh"

#include <algorithm>
#include <atomic>
#include <cstring>

#include "sim/logging.hh"
#include "snapshot/serialize.hh"

namespace misp::mem {

namespace {
// The id's one job is process-lifetime uniqueness (ABA detection in
// Mmu::setAddressSpace); it never reaches simulated state or output.
// Atomic because --jobs N constructs machines on concurrent workers.
std::atomic<std::uint64_t> nextAddressSpaceId{1};
} // namespace

AddressSpace::AddressSpace(std::string name, PhysicalMemory &pmem)
    : name_(std::move(name)),
      pmem_(pmem),
      id_(nextAddressSpaceId.fetch_add(1, std::memory_order_relaxed)),
      decodeCache_(pmem)
{}

AddressSpace::~AddressSpace()
{
    // Return every resident frame so multiprogramming runs with process
    // churn do not exhaust physical memory.
    for (auto &[start, region] : regions_) {
        for (VAddr va = region.vma.start; va < region.vma.end;
             va += kPageSize) {
            Pte pte = table_.unmap(va);
            if (pte.present)
                pmem_.freeFrame(pte.frame);
        }
    }
}

VAddr
AddressSpace::defineRegion(VAddr start, std::uint64_t len, bool writable,
                           std::string label,
                           std::vector<std::uint8_t> image)
{
    MISP_ASSERT(len > 0);
    VAddr alignedStart = pageBase(start);
    VAddr alignedEnd = pageBase(start + len + kPageSize - 1);
    MISP_ASSERT(alignedEnd <= kUserLimit);

    // Overlap with an existing region is a setup error.
    for (const auto &[s, region] : regions_) {
        if (alignedStart < region.vma.end && region.vma.start < alignedEnd)
            fatal("address space '%s': region '%s' overlaps '%s'",
                  name_.c_str(), label.c_str(), region.vma.label.c_str());
    }

    Region region;
    region.vma = Vma{alignedStart, alignedEnd, writable, std::move(label)};
    if (!image.empty()) {
        // Backing image is indexed from the *aligned* start. The
        // parameter is the region's own copy: take it, rather than copy
        // it a second time while both are alive.
        image.insert(image.begin(), start - alignedStart, 0);
        region.image = std::move(image);
    }
    regions_.emplace(alignedStart, std::move(region));
    return alignedStart;
}

VAddr
AddressSpace::allocRegion(std::uint64_t len, bool writable,
                          std::string label)
{
    VAddr start = allocCursor_;
    std::uint64_t rounded = (len + kPageSize - 1) & ~kPageMask;
    // One guard page between regions catches stray overruns in guest code.
    allocCursor_ += rounded + kPageSize;
    MISP_ASSERT(allocCursor_ < kStackTop);
    defineRegion(start, rounded, writable, std::move(label));
    return start;
}

const AddressSpace::Region *
AddressSpace::findRegion(VAddr va) const
{
    auto it = regions_.upper_bound(va);
    if (it == regions_.begin())
        return nullptr;
    --it;
    return it->second.vma.contains(va) ? &it->second : nullptr;
}

FaultOutcome
AddressSpace::handleFault(VAddr va, bool write)
{
    const Region *region = findRegion(va);
    if (!region)
        return FaultOutcome::BadAccess;
    if (write && !region->vma.writable)
        return FaultOutcome::BadAccess;

    const Pte *existing = table_.lookup(va);
    if (existing && existing->present) {
        // Racing fault (two sequencers touched the same fresh page); the
        // second fault finds the mapping installed — benign, just retry.
        return FaultOutcome::Paged;
    }

    std::uint64_t frame = pmem_.allocFrame();
    // All user pages are mapped user-accessible; write permission follows
    // the VMA.
    table_.map(va, frame, region->vma.writable, /*user=*/true);
    // A (re)mapped page can never serve stale predecoded contents.
    decodeCache_.invalidateVpn(pageNumber(va));
    ++resident_;
    ++faultsServiced_;

    // Copy in backing image content for this page, if any.
    if (!region->image.empty()) {
        VAddr pageStart = pageBase(va);
        std::uint64_t imgOff = pageStart - region->vma.start;
        if (imgOff < region->image.size()) {
            std::uint64_t n = std::min<std::uint64_t>(
                kPageSize, region->image.size() - imgOff);
            pmem_.writeBytes(frame << kPageShift,
                             region->image.data() + imgOff, n);
        }
    }
    return FaultOutcome::Paged;
}

std::uint64_t
AddressSpace::prefault(VAddr start, std::uint64_t len)
{
    std::uint64_t touched = 0;
    for (VAddr va = pageBase(start); va < start + len; va += kPageSize) {
        if (!mapped(va)) {
            if (handleFault(va, /*write=*/false) == FaultOutcome::Paged)
                ++touched;
        }
    }
    return touched;
}

bool
AddressSpace::mapped(VAddr va) const
{
    const Pte *pte = table_.lookup(va);
    return pte && pte->present;
}

void
AddressSpace::poke(VAddr va, const void *src, std::uint64_t len)
{
    const auto *in = static_cast<const std::uint8_t *>(src);
    while (len > 0) {
        if (!mapped(va)) {
            FaultOutcome out = handleFault(va, /*write=*/true);
            if (out == FaultOutcome::BadAccess)
                panic("poke to unmapped address %#llx in '%s'",
                      (unsigned long long)va, name_.c_str());
        }
        const Pte *pte = table_.lookup(va);
        std::uint64_t chunk =
            std::min<std::uint64_t>(len, kPageSize - pageOffset(va));
        pmem_.writeBytes(pte->frameBase() + pageOffset(va), in, chunk);
        // Host-side writers (loaders, runtimes) obey the same decode
        // coherence rule as guest stores.
        decodeCache_.noteWrite(va);
        va += chunk;
        in += chunk;
        len -= chunk;
    }
}

void
AddressSpace::peek(VAddr va, void *dst, std::uint64_t len) const
{
    auto *out = static_cast<std::uint8_t *>(dst);
    while (len > 0) {
        std::uint64_t chunk =
            std::min<std::uint64_t>(len, kPageSize - pageOffset(va));
        const Pte *pte = table_.lookup(va);
        if (pte && pte->present) {
            pmem_.readBytes(pte->frameBase() + pageOffset(va), out, chunk);
        } else {
            std::memset(out, 0, chunk);
        }
        va += chunk;
        out += chunk;
        len -= chunk;
    }
}

Word
AddressSpace::peekWord(VAddr va, unsigned size) const
{
    Word v = 0;
    peek(va, &v, size);
    return v;
}

void
AddressSpace::pokeWord(VAddr va, Word value, unsigned size)
{
    poke(va, &value, size);
}

template <class Ar>
void
AddressSpace::archive(Ar &a)
{
    snap::entries(
        a, regions_, 8 + 8 + 1 + 8 + 8, "address-space region",
        [&](VAddr &start, Region &region) {
            a.u64(region.vma.start);
            a.u64(region.vma.end);
            a.b(region.vma.writable);
            a.str(region.vma.label);
            std::uint64_t n = region.image.size();
            a.count(n, 1, "region image byte");
            if constexpr (Ar::kLoading) {
                start = region.vma.start;
                if (region.vma.end < start)
                    throw snap::SnapError("image: region '" +
                                          region.vma.label +
                                          "' ends before it starts");
                region.image.resize(n);
            }
            a.bytes(region.image.data(), n);
        });
    a.u64(allocCursor_);
    a.u64(resident_);
    a.u64(faultsServiced_);
    table_.archive(a);
}

MISP_SNAP_ARCHIVE(AddressSpace);

} // namespace misp::mem
