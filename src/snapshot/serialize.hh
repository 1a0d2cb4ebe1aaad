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
 * Components participate through the Saveable interface: snapSave()
 * writes the component's mutable state, snapRestore() reconstitutes it
 * onto a freshly constructed object of the same configuration. Derived
 * state (decode caches, last-translation caches) is deliberately NOT
 * part of any image — it rebuilds lazily and identically after restore.
 */

#ifndef MISP_SNAPSHOT_SERIALIZE_HH
#define MISP_SNAPSHOT_SERIALIZE_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <unordered_set>
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

/** CRC32 (IEEE 802.3 polynomial) of @p data. */
std::uint32_t crc32(const void *data, std::size_t len);

/** Image writer: values accumulate into the current section; done()
 *  produces header + section table + payloads. */
class Serializer
{
  public:
    void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
    void u32(std::uint32_t v);
    void u64(std::uint64_t v);
    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
    void b(bool v) { u8(v ? 1 : 0); }
    /** Doubles travel as bit patterns: restore is bit-exact. */
    void f64(double v);
    void str(const std::string &s);
    void bytes(const void *data, std::uint64_t len);

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

    std::string buf_;
    std::vector<Section> sections_;
    bool open_ = false;
    std::unordered_set<const void *> archivedEvents_;
};

/** Image reader: verifies magic/version up front and each section's
 *  CRC when it is opened. Every accessor throws SnapError on
 *  truncation, so a corrupt image can never be silently read past. */
class Deserializer
{
  public:
    /** Parse the container structure of @p image (header + section
     *  index). Throws SnapError on a bad magic, version, or layout. */
    explicit Deserializer(std::string image);

    /** Position the read cursor at section @p id (verifying its CRC).
     *  Throws SnapError when the section is absent or corrupt. */
    void openSection(std::uint32_t id);

    bool hasSection(std::uint32_t id) const;

    std::uint8_t u8();
    std::uint32_t u32();
    std::uint64_t u64();
    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
    bool b() { return u8() != 0; }
    double f64();
    std::string str();
    void bytes(void *dst, std::uint64_t len);

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

    std::string image_;
    std::vector<Section> sections_;
    std::uint64_t pos_ = 0;
    std::uint64_t end_ = 0;
    std::uint32_t version_ = 0;
};

/** Interface a snapshottable component implements. Components are
 *  restored onto objects freshly constructed from the same
 *  configuration, so only mutable simulation state travels. */
class Saveable
{
  public:
    virtual ~Saveable() = default;

    virtual void snapSave(Serializer &s) const = 0;
    virtual void snapRestore(Deserializer &d) = 0;
};

/** Image format identity. Bump kVersion whenever any component's
 *  snapSave layout changes. */
constexpr std::uint64_t kMagic = 0x4d49'5350'534e'4150ull; // "MISPSNAP"
constexpr std::uint32_t kVersion = 3;

} // namespace misp::snap

#endif // MISP_SNAPSHOT_SERIALIZE_HH
