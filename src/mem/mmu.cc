#include "mmu.hh"

#include "cpu/decode_cache.hh"
#include "obs/trace.hh"

namespace misp::mem {

Mmu::Mmu(std::string name, PhysicalMemory &pmem, stats::StatGroup *parent)
    : pmem_(pmem),
      statGroup_(std::move(name), parent),
      tlb_("tlb", 64, &statGroup_),
      walks_(&statGroup_, "pageWalks", "hardware page walks performed"),
      pageFaults_(&statGroup_, "pageFaults", "translation page faults")
{}

void
Mmu::setAddressSpace(AddressSpace *as, bool preserveTlb)
{
    bool sameRoot = as_ && as && as_->root() == as->root();
    // Bump the generation (dropping every cached decoded-block
    // reference) only when the space actually changes. Identity is the
    // space's never-reused id, not its pointer, so a freed-and-
    // reallocated AddressSpace at the same heap address still
    // invalidates; reloading the same live space (common in the
    // multiprogramming runs) keeps coherent blocks.
    std::uint64_t newId = as ? as->id() : 0;
    if (newId != lastAsId_) {
        ++asGen_;
        lastAsId_ = newId;
    }
    as_ = as;
    lastFetch_.tlbStamp = 0;
    lastData_.tlbStamp = 0;
    // Architecturally a CR3 write always purges the TLB; preserveTlb
    // models the synchronization fast-path where the root is verified
    // unchanged, so no write is performed at all.
    if (!(preserveTlb && sameRoot))
        tlb_.flushAll();
}

void
Mmu::snapSave(snap::Serializer &s) const
{
    s.u64(asGen_);
    tlb_.snapSave(s);
}

void
Mmu::snapRestore(snap::Deserializer &d)
{
    asGen_ = d.u64();
    tlb_.snapRestore(d);
    lastFetch_ = LastFetch{};
    lastData_ = LastData{};
}

void
Mmu::snapAttach(AddressSpace *as)
{
    as_ = as;
    lastAsId_ = as ? as->id() : 0;
    lastFetch_.tlbStamp = 0;
    lastData_.tlbStamp = 0;
}

AccessResult
Mmu::translate(VAddr va, unsigned size, Access access, Ring ring,
               PAddr *paOut, Tlb::EntryRef *refOut)
{
    // Pending data replays belong to the current window and must reach
    // the TLB before a lookup or an eviction scan can see it.
    if (replayHits_ != 0)
        commitDataReplays();
    Tlb::EntryRef localRef;
    if (!refOut)
        refOut = &localRef;
    AccessResult res;
    if (!as_) {
        res.fault = Fault::pageFault(va, access == Access::Write);
        return res;
    }
    // Natural alignment is an architectural requirement of MISA.
    if (size > 1 && (va & (size - 1)) != 0) {
        res.fault = Fault::of(FaultKind::GeneralProtection, va);
        return res;
    }

    bool isWrite = access == Access::Write;
    const Pte *pte = tlb_.lookup(va, refOut);
    if (!pte) {
        // Hardware page walk.
        res.cycles += PageTable::kWalkCycles;
        ++walks_;
        Pte *walked = as_->pageTable().lookupMut(va);
        if (!walked || !walked->present) {
            ++pageFaults_;
            res.fault = Fault::pageFault(va, isWrite);
            return res;
        }
        walked->accessed = true;
        if (isWrite)
            walked->dirty = true;
        // insert() hands back the installed entry: no second probe, and
        // no pointer into a structure the insert may just have reshaped.
        pte = tlb_.insert(va, *walked, refOut);
        // The fill (miss + walk) path is engine-independent — hit
        // accounting is not (the superblock engine batches hit
        // replays), so only fills/shootdowns/flushes are traced.
        obs::trace(obs::TraceKind::TlbFill, 0,
                   static_cast<std::uint32_t>(access), pageNumber(va));
    }

    // Permission checks: user bit for Ring 3, write bit for stores.
    if (ring == Ring::User && !pte->user) {
        ++pageFaults_;
        res.fault = Fault::pageFault(va, isWrite);
        return res;
    }
    if (isWrite && !pte->writable) {
        ++pageFaults_;
        res.fault = Fault::pageFault(va, isWrite);
        return res;
    }

    if (paOut)
        *paOut = pte->frameBase() + pageOffset(va);
    res.cycles += kAccessCycles;
    // Prime the data-side last-translation cache (the superblock
    // engine's replay source, and where read()/write() find the bytes).
    // The entry keeps the frame's host pointer, so only its first data
    // translation pays the frame lookup. Execute translations go
    // through the fetch-side cache instead.
    if (access != Access::Execute) {
        Tlb::Entry &e = *refOut->entry;
        if (!e.host)
            e.host = pmem_.frameData(pte->frame);
        lastData_.vpn = pageNumber(va);
        lastData_.tlbStamp = tlb_.stamp();
        lastData_.bytes = e.host;
        lastData_.ring = ring;
        lastData_.writable = pte->writable;
        lastData_.way = *refOut;
    }
    return res;
}

AccessResult
Mmu::read(VAddr va, unsigned size, Ring ring)
{
    MISP_ASSERT(accessSize(size));
    AccessResult res = translate(va, size, Access::Read, ring, nullptr);
    if (res.fault)
        return res;
    // translate() just aimed the data window at this page's frame.
    res.value = loadLE(lastData_.bytes + pageOffset(va), size);
    pmem_.accountBytes(size, 0);
    return res;
}

AccessResult
Mmu::write(VAddr va, Word value, unsigned size, Ring ring)
{
    MISP_ASSERT(accessSize(size));
    AccessResult res = translate(va, size, Access::Write, ring, nullptr);
    if (res.fault)
        return res;
    storeLE(lastData_.bytes + pageOffset(va), value, size);
    pmem_.accountBytes(0, size);
    // Self-modifying-code coherence: a store that lands on a predecoded
    // page drops that page (O(1) probe for ordinary data stores).
    as_->decodeCache().noteWrite(va);
    return res;
}

FetchResult
Mmu::fetchTranslate(VAddr va, Ring ring, bool fastPath)
{
    FetchResult res;
    if ((va & 15) != 0) { // 16-byte instruction bundle alignment
        res.fault = Fault::of(FaultKind::GeneralProtection, va);
        return res;
    }

    const std::uint64_t vpn = pageNumber(va);
    if (fastPath && lastFetch_.tlbStamp == tlb_.stamp() &&
        lastFetch_.vpn == vpn && lastFetch_.ring == ring) {
        // Replay the guaranteed hit: identical modeled effects to a full
        // lookup (reference-bit touch, hit count, access latency).
        tlb_.touchHit(lastFetch_.way);
        res.cycles = kAccessCycles;
        res.pa = lastFetch_.paBase + pageOffset(va);
        return res;
    }

    // Slow path: the same probe-or-walk as every data access (so fetch
    // behavior can never diverge from data-access behavior), plus the
    // last-translation cache refill.
    Tlb::EntryRef way;
    PAddr pa = 0;
    AccessResult ar = translate(va, 8, Access::Execute, ring, &pa, &way);
    res.fault = ar.fault;
    res.cycles = ar.cycles;
    if (res.fault)
        return res;
    res.pa = pa;

    lastFetch_.vpn = vpn;
    lastFetch_.tlbStamp = tlb_.stamp();
    lastFetch_.paBase = pa & ~static_cast<PAddr>(kPageMask);
    lastFetch_.ring = ring;
    lastFetch_.way = way;
    return res;
}

AccessResult
Mmu::fetchInst(VAddr va, std::uint8_t buf[16], Ring ring)
{
    // Reference fetch path: full TLB probe, then read the bundle bytes.
    FetchResult ft = fetchTranslate(va, ring, /*fastPath=*/false);
    AccessResult res;
    res.fault = ft.fault;
    res.cycles = ft.cycles;
    if (res.fault)
        return res;
    pmem_.readBytes(ft.pa, buf, 16);
    return res;
}

AccessResult
Mmu::fetch(VAddr va, unsigned size, Ring ring)
{
    PAddr pa = 0;
    AccessResult res = translate(va, size, Access::Execute, ring, &pa);
    if (res.fault)
        return res;
    res.value = pmem_.read(pa, size);
    return res;
}

} // namespace misp::mem
