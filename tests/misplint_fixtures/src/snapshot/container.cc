// Fixture: the snapshot layer itself owns the raw reader — clean.
#include "snapshot/serialize.hh"

std::uint64_t
firstWord(const std::string &image)
{
    misp::snap::Deserializer d(image);
    d.openSection(1);
    return d.u64();
}
