/**
 * @file
 * Binary serialization primitives for the snapshot subsystem.
 *
 * A snapshot image is a magic-tagged, versioned container of typed
 * sections. Each section is length-prefixed and carries a CRC32 of its
 * payload, so truncation and corruption are detected before any state
 * is reconstructed (fail-closed: a bad image never yields a half-built
 * machine). The value encoding is deliberately dumb — little-endian
 * fixed-width integers, doubles as bit patterns, length-prefixed
 * strings — because images are consumed by the same build that wrote
 * them within one sweep; cross-version compatibility is handled by the
 * header version check, not by schema evolution.
 *
 * Components participate with one archive body per type,
 * `template <class Ar> void archive(Ar &a)`, instantiated for both
 * Serializer and Deserializer (MISP_SNAP_ARCHIVE). The two share their
 * call syntax: `a.u64(field)` writes the field on save and reads it on
 * load, so a body states its layout once and the two directions cannot
 * drift. Construct-on-load code and restore-time checks sit under
 * `if constexpr (Ar::kLoading)`. Restore targets are freshly built
 * from the same configuration, so only mutable state travels; derived
 * state (decode caches, last-translation caches) is deliberately NOT
 * part of any image — it rebuilds lazily and identically.
 *
 * A CRC only catches accidental corruption, so the Deserializer bounds
 * every value by construction and names the field it rejects: a count
 * is checked against the bytes left in its section before anything is
 * allocated (count), an enum byte against its enumerator count
 * (enumByte), an index against its table (index), a narrow field
 * against its width, and a pointer field's id against the lookup table
 * it resolves through (ref, optRef).
 */

#ifndef MISP_SNAPSHOT_SERIALIZE_HH
#define MISP_SNAPSHOT_SERIALIZE_HH

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

namespace misp::snap {

/** Raised (and caught inside the snapshot layer) on a malformed or
 *  corrupted image; callers of the snapshot entry points see a bool +
 *  diagnostic, never an exception. */
class SnapError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** FNV-1a 64-bit hash of @p data: the identity hash of a serialized
 *  configuration (snap::configHash, the shard grid hash). */
std::uint64_t fnv1a(const std::string &data);

/** CRC32 (IEEE 802.3 polynomial) of @p data. */
std::uint32_t crc32(const void *data, std::size_t len);

/**
 * How a pointer field travels: as the id of its target (a tid, pid,
 * SID or CPU), resolved back through the owning component's table on
 * load. @p IdOf maps a target to its id (a member function such as
 * &OsThread::tid will do); @p Find maps an id to its target, or
 * nullptr when it names none.
 */
template <class IdOf, class Find>
struct Lookup {
    const char *id;     ///< what the id is called ("tid")
    const char *target; ///< what it names ("thread")
    IdOf idOf;
    Find find;
    std::uint64_t none = 0; ///< the id a null pointer travels as (optRef)
};

/** Image writer: values accumulate into the current section; done()
 *  produces header + section table + payloads. */
class Serializer
{
  public:
    static constexpr bool kLoading = false;

    void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
    void u32(std::uint32_t v) { put(v); }
    void u64(std::uint64_t v) { put(v); }
    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
    void b(bool v) { u8(v ? 1 : 0); }
    /** Doubles travel as bit patterns: restore is bit-exact. */
    void f64(double v);
    void str(const std::string &s);
    void bytes(const void *data, std::uint64_t len);

    // The bounded primitives write their value; the Deserializer
    // checks it (see there).
    void count(std::uint64_t n, std::uint64_t, const char *) { u64(n); }
    void match(std::uint64_t v, const char *) { u64(v); }
    void match(const std::string &v, const char *) { str(v); }
    template <class E>
    void enumByte(E e, std::size_t, const char *)
    {
        u8(static_cast<std::uint8_t>(e));
    }
    template <class T>
    void index(T i, std::uint64_t, const char *)
    {
        put(i);
    }
    template <class T, class L>
    void ref(T *p, const L &lookup, const char *)
    {
        u64(std::invoke(lookup.idOf, *p));
    }
    template <class T, class L>
    void optRef(T *p, const L &lookup, const char *)
    {
        u64(p ? std::invoke(lookup.idOf, *p) : lookup.none);
    }

    /** Section @p id holding what @p body archives. */
    template <class Body>
    void section(std::uint32_t id, Body &&body)
    {
        beginSection(id);
        body();
        endSection();
    }

    /** Open a section; nesting is not allowed. */
    void beginSection(std::uint32_t id);
    void endSection();

    /** Finish the image: header, section index, payloads. */
    std::string done();

    /** Note that pending event @p ev is in the image; saveExperiment
     *  refuses a machine with a pending event no component archived. */
    void archiveEvent(const void *ev) { archivedEvents_.insert(ev); }
    bool archived(const void *ev) const { return archivedEvents_.count(ev); }

  private:
    struct Section {
        std::uint32_t id = 0;
        std::uint64_t offset = 0; ///< into buf_
        std::uint64_t size = 0;
    };

    /** @p v little-endian, in sizeof(T) bytes (T: std::uint8_t,
     *  std::uint32_t or std::uint64_t). */
    template <class T>
    void put(T v);

    std::string buf_;
    std::vector<Section> sections_;
    bool open_ = false;
    std::unordered_set<const void *> archivedEvents_;
};

/** Image reader: verifies magic/version up front and each section's
 *  CRC when it is opened. Every read throws SnapError on truncation or
 *  on a value its field cannot hold, so a corrupt image can never be
 *  silently read past. */
class Deserializer
{
  public:
    static constexpr bool kLoading = true;

    /** Parse the container structure of @p image (header + section
     *  index). Throws SnapError on a bad magic, version, or layout. */
    explicit Deserializer(std::string image);

    /** Position the read cursor at section @p id (verifying its CRC).
     *  Throws SnapError when the section is absent or corrupt. */
    void openSection(std::uint32_t id);

    bool hasSection(std::uint32_t id) const;

    /** Open section @p id, read it through @p body, and require that
     *  @p body consumed it exactly. */
    template <class Body>
    void
    section(std::uint32_t id, Body &&body)
    {
        openSection(id);
        body();
        closeSection(id);
    }

    std::uint8_t u8() { return get<std::uint8_t>(); }
    std::uint32_t u32() { return get<std::uint32_t>(); }
    std::uint64_t u64() { return get<std::uint64_t>(); }
    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
    /** A bool byte is 0 or 1; anything else is corruption. */
    bool b();
    double f64();
    std::string str();
    void bytes(void *dst, std::uint64_t len);

    // Archive-body forms: read into the field. A field narrower than
    // its wire width rejects a value it cannot hold.
    void u8(std::uint8_t &v) { v = u8(); }
    template <class T>
    void u32(T &v)
    {
        v = fit<T>(std::uint64_t{u32()});
    }
    template <class T>
    void u64(T &v)
    {
        v = fit<T>(u64());
    }
    template <class T>
    void i64(T &v)
    {
        v = fit<T>(i64());
    }
    void b(bool &v) { v = b(); }
    void f64(double &v) { v = f64(); }
    void str(std::string &s) { s = str(); }

    /** An element count, refused unless the section still holds
     *  @p minBytesEach bytes per element — before the caller allocates
     *  anything for them. */
    void count(std::uint64_t &n, std::uint64_t minBytesEach,
               const char *field);
    /** A value that must equal the live machine's @p expect (a
     *  geometry or shape the restore target was built with). */
    void match(std::uint64_t expect, const char *field);
    void match(const std::string &expect, const char *field);

    /** An enum stored as one byte, below @p count. */
    template <class E>
    void
    enumByte(E &e, std::size_t count, const char *field)
    {
        const std::uint8_t v = u8();
        if (v >= count)
            badEnum(field, v);
        e = static_cast<E>(v);
    }

    /** An index into a table of @p size entries, in sizeof(T) bytes. */
    template <class T>
    void
    index(T &i, std::uint64_t size, const char *field)
    {
        const T v = get<T>();
        if (v >= size)
            badIndex(field, v, size);
        i = v;
    }

    /** A pointer field that must name a target of @p lookup. */
    template <class T, class L>
    void
    ref(T *&p, const L &lookup, const char *field)
    {
        p = resolve(u64(), lookup, field);
    }
    /** Same, but lookup.none travels as nullptr. */
    template <class T, class L>
    void
    optRef(T *&p, const L &lookup, const char *field)
    {
        const std::uint64_t id = u64();
        p = id == lookup.none ? nullptr : resolve(id, lookup, field);
    }

    /** Bytes left in the currently open section. */
    std::uint64_t remaining() const { return end_ - pos_; }

    /** Image format version (header field). */
    std::uint32_t version() const { return version_; }

  private:
    struct Section {
        std::uint32_t id = 0;
        std::uint32_t crc = 0;
        std::uint64_t offset = 0;
        std::uint64_t size = 0;
    };

    void need(std::uint64_t n) const;
    /** Require that the body of section @p id consumed it exactly. */
    void closeSection(std::uint32_t id) const;

    /** sizeof(T) bytes, little-endian (T: std::uint8_t, std::uint32_t
     *  or std::uint64_t). */
    template <class T>
    T get();

    template <class T, class W>
    static T
    fit(W w)
    {
        if (!std::in_range<T>(w))
            badFit(w, 8 * sizeof(T));
        return static_cast<T>(w);
    }

    template <class L>
    static auto
    resolve(std::uint64_t id, const L &lookup, const char *field)
    {
        auto *p = lookup.find(id);
        if (!p)
            badRef(field, lookup.id, id, lookup.target);
        return p;
    }

    // The diagnostics, out of line: archive bodies inline the checks.
    [[noreturn]] static void badEnum(const char *field, unsigned v);
    [[noreturn]] static void badIndex(const char *field, std::uint64_t v,
                                      std::uint64_t size);
    template <class W>
    [[noreturn]] static void badFit(W v, unsigned bits);
    [[noreturn]] static void badRef(const char *field, const char *id,
                                    std::uint64_t v, const char *target);

    std::string image_;
    std::vector<Section> sections_;
    std::uint64_t pos_ = 0;
    std::uint64_t end_ = 0;
    std::uint32_t version_ = 0;
};

/** A sequence container: its element count (bounded on load as by
 *  count()), then each element through @p each. Load replaces the
 *  contents. */
template <class Ar, class Seq, class Each>
void
sequence(Ar &a, Seq &seq, std::uint64_t minBytesEach, const char *field,
         Each &&each)
{
    std::uint64_t n = seq.size();
    a.count(n, minBytesEach, field);
    if constexpr (Ar::kLoading) {
        seq.clear();
        seq.resize(n);
    }
    for (auto &x : seq)
        each(x);
}

/** An ordered map: its entry count (bounded as by sequence()), then
 *  each (key, value) through @p each, in key order. Load replaces the
 *  contents and rejects a repeated key. */
template <class Ar, class Map, class Each>
void
entries(Ar &a, Map &map, std::uint64_t minBytesEach, const char *field,
        Each &&each)
{
    std::uint64_t n = map.size();
    a.count(n, minBytesEach, field);
    if constexpr (Ar::kLoading) {
        map.clear();
        for (std::uint64_t i = 0; i < n; ++i) {
            typename Map::key_type key{};
            typename Map::mapped_type value{};
            each(key, value);
            if (!map.emplace(std::move(key), std::move(value)).second)
                throw SnapError(std::string("image: repeated ") + field +
                                " key");
        }
    } else {
        for (auto &[key, value] : map) {
            typename Map::key_type k = key;
            each(k, value);
        }
    }
}

/** Read @p image through @p body(reader): how code outside the
 *  snapshot layer reads an image, always through archive bodies.
 *  Throws SnapError on a malformed image. */
template <class Body>
void
load(std::string image, Body &&body)
{
    Deserializer d(std::move(image));
    body(d);
}

/** Explicitly instantiate `Class::archive`, defined in Class's .cc, for
 *  both directions; extra parameter types (a lookup table the load
 *  needs) follow the class name. */
#define MISP_SNAP_ARCHIVE(Class, ...)                                    \
    template void Class::archive(                                        \
        ::misp::snap::Serializer & __VA_OPT__(, ) __VA_ARGS__);          \
    template void Class::archive(                                        \
        ::misp::snap::Deserializer & __VA_OPT__(, ) __VA_ARGS__)

/** Image format identity. Bump kVersion whenever any archive body's
 *  layout changes. */
constexpr std::uint64_t kMagic = 0x4d49'5350'534e'4150ull; // "MISPSNAP"
constexpr std::uint32_t kVersion = 4;

} // namespace misp::snap

#endif // MISP_SNAPSHOT_SERIALIZE_HH
