#include "serialize.hh"

#include <algorithm>
#include <array>
#include <cstring>
#include <type_traits>

namespace misp::snap {

namespace {

std::array<std::uint32_t, 256>
makeCrcTable()
{
    std::array<std::uint32_t, 256> table{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        table[i] = c;
    }
    return table;
}

} // namespace

std::uint64_t
fnv1a(const std::string &data)
{
    std::uint64_t h = 0xCBF29CE484222325ull;
    for (unsigned char c : data) {
        h ^= c;
        h *= 0x100000001B3ull;
    }
    return h;
}

std::uint32_t
crc32(const void *data, std::size_t len)
{
    static const std::array<std::uint32_t, 256> table = makeCrcTable();
    const auto *p = static_cast<const std::uint8_t *>(data);
    std::uint32_t c = 0xFFFFFFFFu;
    for (std::size_t i = 0; i < len; ++i)
        c = table[(c ^ p[i]) & 0xFF] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

// ---------------------------------------------------------------------
// Serializer
// ---------------------------------------------------------------------

template <class T>
void
Serializer::put(T v)
{
    static_assert(std::is_unsigned_v<T>);
    for (std::size_t i = 0; i < sizeof(T); ++i)
        u8(static_cast<std::uint8_t>(std::uint64_t{v} >> (8 * i)));
}

template void Serializer::put(std::uint8_t);
template void Serializer::put(std::uint32_t);
template void Serializer::put(std::uint64_t);

void
Serializer::f64(double v)
{
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
}

void
Serializer::str(const std::string &s)
{
    u64(s.size());
    buf_.append(s);
}

void
Serializer::bytes(const void *data, std::uint64_t len)
{
    buf_.append(static_cast<const char *>(data),
                static_cast<std::size_t>(len));
}

void
Serializer::beginSection(std::uint32_t id)
{
    if (open_)
        throw SnapError("serializer: nested section");
    open_ = true;
    sections_.push_back(Section{id, buf_.size(), 0});
}

void
Serializer::endSection()
{
    if (!open_)
        throw SnapError("serializer: endSection without beginSection");
    open_ = false;
    sections_.back().size = buf_.size() - sections_.back().offset;
}

std::string
Serializer::done()
{
    if (open_)
        throw SnapError("serializer: unterminated section");
    // Header: magic, version, section count; then the index (id, crc,
    // size per section, in payload order); then the payloads.
    std::string out;
    Serializer hdr;
    hdr.u64(kMagic);
    hdr.u32(kVersion);
    hdr.u32(static_cast<std::uint32_t>(sections_.size()));
    for (const Section &sec : sections_) {
        hdr.u32(sec.id);
        hdr.u32(crc32(buf_.data() + sec.offset,
                      static_cast<std::size_t>(sec.size)));
        hdr.u64(sec.size);
    }
    out = std::move(hdr.buf_);
    out += buf_;
    return out;
}

// ---------------------------------------------------------------------
// Deserializer
// ---------------------------------------------------------------------

Deserializer::Deserializer(std::string image) : image_(std::move(image))
{
    pos_ = 0;
    end_ = image_.size();
    if (u64() != kMagic)
        throw SnapError("not a MISP snapshot image (bad magic)");
    version_ = u32();
    if (version_ != kVersion)
        throw SnapError("unsupported snapshot image version " +
                        std::to_string(version_) + " (expected " +
                        std::to_string(kVersion) + ")");
    std::uint32_t count = u32();
    std::uint64_t payload = pos_ + std::uint64_t{count} * 16;
    std::uint64_t cursor = payload;
    for (std::uint32_t i = 0; i < count; ++i) {
        Section sec;
        sec.id = u32();
        sec.crc = u32();
        sec.size = u64();
        sec.offset = cursor;
        // Overflow-safe: a hostile size near 2^64 must not wrap the
        // cursor back into bounds.
        if (cursor > image_.size() ||
            sec.size > image_.size() - cursor)
            throw SnapError("snapshot image truncated (section " +
                            std::to_string(sec.id) + ")");
        cursor += sec.size;
        sections_.push_back(sec);
    }
    // The section index must account for the whole image: trailing
    // bytes mean a spliced or padded payload — fail closed.
    if (cursor != image_.size())
        throw SnapError("snapshot image has trailing bytes after the "
                        "last section");
    pos_ = end_ = 0; // no section open yet
}

bool
Deserializer::hasSection(std::uint32_t id) const
{
    for (const Section &sec : sections_) {
        if (sec.id == id)
            return true;
    }
    return false;
}

void
Deserializer::openSection(std::uint32_t id)
{
    for (const Section &sec : sections_) {
        if (sec.id != id)
            continue;
        std::uint32_t crc = crc32(image_.data() + sec.offset,
                                  static_cast<std::size_t>(sec.size));
        if (crc != sec.crc)
            throw SnapError("snapshot section " + std::to_string(id) +
                            " failed its CRC check (corrupt image)");
        pos_ = sec.offset;
        end_ = sec.offset + sec.size;
        return;
    }
    throw SnapError("snapshot image has no section " + std::to_string(id));
}

void
Deserializer::need(std::uint64_t n) const
{
    // Overflow-safe form: `pos_ + n` can wrap for hostile lengths.
    if (n > end_ - pos_)
        throw SnapError("snapshot read past end of section");
}

void
Deserializer::closeSection(std::uint32_t id) const
{
    if (remaining() != 0)
        throw SnapError("image: section " + std::to_string(id) + " has " +
                        std::to_string(remaining()) + " trailing bytes");
}

template <class T>
T
Deserializer::get()
{
    static_assert(std::is_unsigned_v<T>);
    need(sizeof(T));
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i)
        v |= static_cast<T>(
            static_cast<T>(static_cast<std::uint8_t>(image_[pos_++]))
            << (8 * i));
    return v;
}

template std::uint8_t Deserializer::get<std::uint8_t>();
template std::uint32_t Deserializer::get<std::uint32_t>();
template std::uint64_t Deserializer::get<std::uint64_t>();

void
Deserializer::badEnum(const char *field, unsigned v)
{
    throw SnapError(std::string("image: unknown ") + field + " byte " +
                    std::to_string(v));
}

void
Deserializer::badIndex(const char *field, std::uint64_t v,
                       std::uint64_t size)
{
    throw SnapError(std::string("image: ") + field + " " +
                    std::to_string(v) + " out of range [0, " +
                    std::to_string(size) + ")");
}

template <class W>
void
Deserializer::badFit(W v, unsigned bits)
{
    throw SnapError("image: value " + std::to_string(v) +
                    " does not fit its " + std::to_string(bits) +
                    "-bit field");
}

template void Deserializer::badFit(std::uint64_t, unsigned);
template void Deserializer::badFit(std::int64_t, unsigned);

void
Deserializer::badRef(const char *field, const char *id, std::uint64_t v,
                     const char *target)
{
    throw SnapError(std::string("image: ") + field + " " + id + " " +
                    std::to_string(v) + " names no " + target);
}

bool
Deserializer::b()
{
    const std::uint8_t v = u8();
    if (v > 1)
        throw SnapError("image: bool byte " + std::to_string(v) +
                        " is neither 0 nor 1");
    return v != 0;
}

double
Deserializer::f64()
{
    std::uint64_t bits = u64();
    double v = 0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

std::string
Deserializer::str()
{
    std::uint64_t len = u64();
    need(len);
    std::string out = image_.substr(static_cast<std::size_t>(pos_),
                                    static_cast<std::size_t>(len));
    pos_ += len;
    return out;
}

void
Deserializer::bytes(void *dst, std::uint64_t len)
{
    need(len);
    if (len == 0)
        return; // dst may be an empty vector's nullptr data()
    std::memcpy(dst, image_.data() + pos_, static_cast<std::size_t>(len));
    pos_ += len;
}

void
Deserializer::count(std::uint64_t &n, std::uint64_t minBytesEach,
                    const char *field)
{
    n = u64();
    if (n > remaining() / std::max<std::uint64_t>(minBytesEach, 1))
        throw SnapError(std::string("image: ") + field + " count " +
                        std::to_string(n) + " exceeds the " +
                        std::to_string(remaining()) +
                        " bytes left in its section");
}

void
Deserializer::match(std::uint64_t expect, const char *field)
{
    const std::uint64_t v = u64();
    if (v != expect)
        throw SnapError(std::string("image: ") + field + " is " +
                        std::to_string(v) + ", the machine has " +
                        std::to_string(expect));
}

void
Deserializer::match(const std::string &expect, const char *field)
{
    const std::string v = str();
    if (v != expect)
        throw SnapError(std::string("image: ") + field + " is '" + v +
                        "', the machine has '" + expect + "'");
}

} // namespace misp::snap
