// Fixture: snap-raw-read. Outside src/snapshot/ an image is read only
// through archive bodies (snap::load); a raw reader is flagged.
// Expected finding: line 9 (Deserializer).
#include "snapshot/serialize.hh"

std::uint64_t
headerCount(const std::string &image)
{
    misp::snap::Deserializer d(image);
    d.openSection(64);
    return d.u64();
}
