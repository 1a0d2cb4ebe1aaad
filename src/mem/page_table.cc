#include "page_table.hh"

#include "snapshot/serialize.hh"

namespace misp::mem {

std::atomic<std::uint64_t> PageTable::nextRoot_{1};

PageTable::PageTable()
    : root_(nextRoot_.fetch_add(1, std::memory_order_relaxed))
{}

PageTable::~PageTable() = default;

const Pte *
PageTable::lookup(VAddr va) const
{
    const auto &leaf = dir_[dirIndex(va)];
    if (!leaf)
        return nullptr;
    const Pte &pte = (*leaf)[tblIndex(va)];
    return &pte;
}

Pte *
PageTable::lookupMut(VAddr va)
{
    auto &leaf = dir_[dirIndex(va)];
    if (!leaf)
        return nullptr;
    return &(*leaf)[tblIndex(va)];
}

void
PageTable::map(VAddr va, std::uint64_t frame, bool writable, bool user)
{
    auto &leaf = dir_[dirIndex(va)];
    if (!leaf)
        leaf = std::make_unique<Leaf>();
    Pte &pte = (*leaf)[tblIndex(va)];
    if (!pte.present)
        ++mapped_;
    pte.present = true;
    pte.writable = writable;
    pte.user = user;
    pte.accessed = false;
    pte.dirty = false;
    pte.frame = frame;
}

template <class Ar>
void
PageTable::archive(Ar &a)
{
    // Each present mapping: its page address, then the PTE's bits.
    auto bits = [&](Pte &pte) {
        a.b(pte.writable);
        a.b(pte.user);
        a.b(pte.accessed);
        a.b(pte.dirty);
        a.u64(pte.frame);
    };
    std::uint64_t n = mapped_;
    a.count(n, 8 + 4 + 8, "page table mapping");
    if constexpr (Ar::kLoading) {
        for (std::uint64_t i = 0; i < n; ++i) {
            VAddr va = 0;
            a.u64(va);
            if ((va >> (kPageShift + kTblBits + kDirBits)) != 0 ||
                pageOffset(va) != 0)
                throw snap::SnapError("image: page table mapping address " +
                                      std::to_string(va) +
                                      " is not a page of the 32-bit space");
            auto &leaf = dir_[dirIndex(va)];
            if (!leaf)
                leaf = std::make_unique<Leaf>();
            Pte &pte = (*leaf)[tblIndex(va)];
            if (pte.present)
                throw snap::SnapError("image: page table maps page " +
                                      std::to_string(va) + " twice");
            pte.present = true;
            ++mapped_;
            bits(pte);
        }
    } else {
        for (std::size_t dir = 0; dir < kDirEntries; ++dir) {
            if (!dir_[dir])
                continue;
            for (std::size_t tbl = 0; tbl < kTblEntries; ++tbl) {
                Pte &pte = (*dir_[dir])[tbl];
                if (!pte.present)
                    continue;
                VAddr va =
                    (static_cast<VAddr>(dir) << (kPageShift + kTblBits)) |
                    (static_cast<VAddr>(tbl) << kPageShift);
                a.u64(va);
                bits(pte);
            }
        }
    }
}

MISP_SNAP_ARCHIVE(PageTable);

Pte
PageTable::unmap(VAddr va)
{
    auto &leaf = dir_[dirIndex(va)];
    if (!leaf)
        return Pte{};
    Pte &pte = (*leaf)[tblIndex(va)];
    Pte old = pte;
    if (pte.present)
        --mapped_;
    pte = Pte{};
    return old;
}

} // namespace misp::mem
