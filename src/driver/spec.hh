/**
 * @file
 * The `.scn` scenario-spec file format: a small, dependency-free
 * section + key/value parser with line-accurate diagnostics.
 *
 * Grammar (one construct per line):
 *
 *   # comment          ; comment (both strip to end of line)
 *   [type]             section of TYPE with an empty instance name
 *   [type name]        section of TYPE named NAME (e.g. [machine 2x4])
 *   key = value        entry in the current section
 *
 * Values are free text up to the comment/end of line; list-valued keys
 * use commas, and integer spans may be written `lo..hi` (inclusive) —
 * expandValues() turns `0..2, 5` into {"0","1","2","5"}.
 *
 * This layer is purely syntactic: what sections and keys *mean* is the
 * scenario model's job (scenario.hh), which is also where unknown-key
 * diagnostics are raised with the line numbers recorded here.
 */

#ifndef MISP_DRIVER_SPEC_HH
#define MISP_DRIVER_SPEC_HH

#include <cstdint>
#include <string>
#include <vector>

namespace misp::driver {

/** One `key = value` line. */
struct SpecEntry {
    std::string key;
    std::string value;
    int line = 0; ///< 1-based source line, for diagnostics
};

/** One `[type name]` section and its entries, in file order. */
struct SpecSection {
    std::string type;
    std::string name;
    int line = 0;
    std::vector<SpecEntry> entries;

    const SpecEntry *find(const std::string &key) const;
    bool has(const std::string &key) const { return find(key) != nullptr; }
    /** Value of @p key, or @p fallback when absent. */
    std::string get(const std::string &key,
                    const std::string &fallback = "") const;
};

/** A parsed spec file. */
struct SpecFile {
    std::string path; ///< origin, used as the diagnostic prefix
    std::vector<SpecSection> sections;

    /** First section of @p type; nullptr if none. */
    const SpecSection *first(const std::string &type) const;

    /** Serialize back to `.scn` text. parse(serialize()) reproduces the
     *  same sections/entries (comments and blank lines are not kept). */
    std::string serialize() const;

    /**
     * Parse @p text. On failure returns false and sets @p err to a
     * "path:line: message" diagnostic. Duplicate keys within one
     * section are rejected (every key names one axis or knob), with
     * four exceptions: `assert`, `inject`, `column` and `footer` lines
     * are repeatable statements.
     */
    static bool parse(const std::string &text, const std::string &path,
                      SpecFile *out, std::string *err);

    /** Read and parse a file; diagnoses unreadable paths too. */
    static bool parseFile(const std::string &path, SpecFile *out,
                          std::string *err);
};

/** Format a "path:line: message" diagnostic. */
std::string specError(const std::string &path, int line,
                      const std::string &message);

/** @p s without leading and trailing blanks (space, tab, CR). */
std::string trim(const std::string &s);

/** Split a comma-separated value into trimmed, non-empty tokens. */
std::vector<std::string> splitList(const std::string &value);

/** Most values one `lo..hi` span may expand to. */
constexpr std::uint64_t kMaxSpanValues = 65536;

/**
 * splitList plus `lo..hi` integer-span expansion. Returns false (with
 * a message in @p err when non-null) on a malformed or inverted span,
 * or one longer than kMaxSpanValues (checked before expanding).
 */
bool expandValues(const std::string &value, std::vector<std::string> *out,
                  std::string *err = nullptr);

// Typed value parsers shared by the scenario model. Accept decimal,
// hex (0x...), and octal integers; booleans are true/false/on/off/1/0.
bool parseU64(const std::string &value, std::uint64_t *out);
bool parseUnsigned(const std::string &value, unsigned *out);
bool parseBool(const std::string &value, bool *out);

} // namespace misp::driver

#endif // MISP_DRIVER_SPEC_HH
