#include "tlb.hh"

#include "obs/trace.hh"
#include "snapshot/serialize.hh"

namespace misp::mem {

namespace {

std::size_t
roundSets(std::size_t entries)
{
    // Round up: capacity is never below the requested entry count.
    // Power-of-two set count for mask indexing.
    std::size_t sets = (entries + Tlb::kWays - 1) / Tlb::kWays;
    std::size_t pow2 = 1;
    while (pow2 < sets)
        pow2 <<= 1;
    return pow2;
}

} // namespace

Tlb::Tlb(std::string name, std::size_t entries, stats::StatGroup *parent)
    : numSets_(roundSets(entries)),
      slots_(numSets_ * kWays),
      hand_(numSets_, 0),
      statGroup_(std::move(name), parent),
      hits_(&statGroup_, "hits"),
      misses_(&statGroup_, "misses"),
      flushes_(&statGroup_, "flushes")
{
    MISP_ASSERT(entries > 0);
}

const Pte *
Tlb::lookup(VAddr va, EntryRef *ref)
{
    Entry *e = probe(pageNumber(va));
    if (ref)
        ref->entry = e;
    if (!e) {
        ++misses_;
        return nullptr;
    }
    e->used = true;
    ++hits_;
    return &e->pte;
}

const Pte *
Tlb::insert(VAddr va, const Pte &pte, EntryRef *ref)
{
    const std::uint64_t vpn = pageNumber(va);
    Entry *set = &slots_[setIndex(vpn) * kWays];
    Entry *victim = nullptr;

    // Re-insert over an existing mapping of the same page, else fill an
    // invalid way, else run the clock over the set.
    for (std::size_t w = 0; w < kWays && !victim; ++w) {
        if (set[w].valid && set[w].vpn == vpn)
            victim = &set[w];
    }
    for (std::size_t w = 0; w < kWays && !victim; ++w) {
        if (!set[w].valid)
            victim = &set[w];
    }
    if (!victim) {
        std::uint8_t &hand = hand_[setIndex(vpn)];
        // Clock: sweep past referenced ways (clearing the bit) until an
        // unreferenced one is found; bounded by 2 full revolutions.
        for (std::size_t step = 0; step < 2 * kWays; ++step) {
            Entry &cand = set[hand];
            hand = static_cast<std::uint8_t>((hand + 1) % kWays);
            if (!cand.used) {
                victim = &cand;
                break;
            }
            cand.used = false;
        }
        if (!victim)
            victim = &set[0]; // unreachable; defensive
    }

    victim->vpn = vpn;
    victim->pte = pte;
    victim->valid = true;
    victim->used = true;
    victim->host = nullptr;
    ++stamp_;
    if (ref)
        ref->entry = victim;
    return &victim->pte;
}

void
Tlb::invalidatePage(VAddr va)
{
    const std::uint64_t vpn = pageNumber(va);
    obs::trace(obs::TraceKind::TlbShootdown, 0, 0, vpn);
    Entry *set = &slots_[setIndex(vpn) * kWays];
    for (std::size_t w = 0; w < kWays; ++w) {
        if (set[w].valid && set[w].vpn == vpn) {
            set[w].valid = false;
            set[w].used = false;
            ++stamp_;
            return;
        }
    }
}

void
Tlb::flushAll()
{
    obs::trace(obs::TraceKind::TlbFlush);
    for (Entry &e : slots_) {
        e.valid = false;
        e.used = false;
    }
    std::fill(hand_.begin(), hand_.end(), 0);
    ++stamp_;
    ++flushes_;
}

std::size_t
Tlb::size() const
{
    std::size_t n = 0;
    for (const Entry &e : slots_) {
        if (e.valid)
            ++n;
    }
    return n;
}

template <class Ar>
void
Tlb::archive(Ar &a)
{
    a.match(slots_.size(), "tlb entry count");
    for (Entry &e : slots_) {
        a.u64(e.vpn);
        a.b(e.pte.present);
        a.b(e.pte.writable);
        a.b(e.pte.user);
        a.b(e.pte.accessed);
        a.b(e.pte.dirty);
        a.u64(e.pte.frame);
        a.b(e.valid);
        a.b(e.used);
        if constexpr (Ar::kLoading)
            e.host = nullptr;
    }
    a.match(hand_.size(), "tlb set count");
    for (std::uint8_t &h : hand_)
        a.index(h, kWays, "tlb clock hand");
    a.u64(stamp_);
}

MISP_SNAP_ARCHIVE(Tlb);

} // namespace misp::mem
