#include "decode_cache.hh"

#include "obs/trace.hh"

namespace misp::cpu {

namespace {

/** VPNs of the 32-bit guest space: 2^32 / 2^12 pages, 64 per word. */
constexpr std::size_t kBitmapWords = (1ull << 20) / 64;

} // namespace

DecodeCache::DecodeCache(mem::PhysicalMemory &pmem) : pmem_(pmem) {}

DecodedPage *
DecodeCache::find(std::uint64_t vpn)
{
    auto it = pages_.find(vpn);
    if (it == pages_.end() || !it->second->decoded)
        return nullptr;
    return it->second.get();
}

DecodedPage *
DecodeCache::decodePage(std::uint64_t vpn, PAddr paBase)
{
    // The coherence bitmap spans the 32-bit guest space; a VPN outside
    // it could not be write-tracked, so it must never be cached. Guest
    // translations cannot produce one (AddressSpace caps regions at
    // kUserLimit).
    MISP_ASSERT(vpn < kBitmapWords * 64);
    std::unique_ptr<DecodedPage> &slot = pages_[vpn];
    if (!slot) {
        slot = std::make_unique<DecodedPage>();
        slot->vpn = vpn;
    }
    DecodedPage *page = slot.get();

    std::uint8_t bytes[mem::kPageSize];
    pmem_.readBytes(paBase, bytes, mem::kPageSize);
    for (std::size_t i = 0; i < DecodedPage::kSlots; ++i) {
        DecodedSlot &s = page->slots[i];
        if (!isa::decode(&bytes[i * isa::kInstBytes], &s))
            s = kUndecodable;
    }
    page->paBase = paBase;
    ++page->version;
    if (!page->decoded) {
        page->decoded = true;
        ++resident_;
    }
    setBit(vpn);
    ++pagesDecoded_;
    // [engine] category: decode timing depends on the engine choice.
    obs::trace(obs::TraceKind::DecodePage, 0, 0, vpn, page->version);
    return page;
}

void
DecodeCache::invalidateVpn(std::uint64_t vpn)
{
    auto it = pages_.find(vpn);
    if (it == pages_.end() || !it->second->decoded)
        return;
    it->second->decoded = false;
    ++it->second->version;
    --resident_;
    clearBit(vpn);
    ++invalidations_;
    obs::trace(obs::TraceKind::DecodeInvalidate, 0, 0, vpn,
               it->second->version);
}

void
DecodeCache::setBit(std::uint64_t vpn)
{
    const std::uint64_t word = vpn >> 6;
    if (word >= kBitmapWords)
        return; // beyond the 32-bit guest space: never cached
    // Grown only to the highest decoded page: noteWrite's bound check
    // answers "not decoded" for every store above it.
    if (word >= decodedBits_.size())
        decodedBits_.resize(word + 1, 0);
    decodedBits_[word] |= 1ull << (vpn & 63);
}

void
DecodeCache::clearBit(std::uint64_t vpn)
{
    const std::uint64_t word = vpn >> 6;
    if (word < decodedBits_.size())
        decodedBits_[word] &= ~(1ull << (vpn & 63));
}

} // namespace misp::cpu
