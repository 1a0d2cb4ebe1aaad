/**
 * @file
 * Shared typed-value parsers for user-facing text inputs (scenario
 * specs, workload parameters). One implementation so the layers that
 * accept the same value syntax can never diverge.
 *
 * Integers accept decimal, hex (0x...) and octal; a leading '-' is
 * rejected (strtoull would silently wrap it to a huge positive), and
 * so is a value past 2^64-1 (strtoull would clamp it).
 * Booleans accept true/false, on/off, 1/0.
 */

#ifndef MISP_SIM_PARSE_HH
#define MISP_SIM_PARSE_HH

#include <cstdint>
#include <string>

namespace misp::parse {

bool u64(const std::string &value, std::uint64_t *out);
bool u32(const std::string &value, unsigned *out);
bool boolean(const std::string &value, bool *out);

} // namespace misp::parse

#endif // MISP_SIM_PARSE_HH
