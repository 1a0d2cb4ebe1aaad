#include "parse.hh"

#include <cerrno>
#include <cstdlib>

namespace misp::parse {

bool
u64(const std::string &value, std::uint64_t *out)
{
    if (value.empty() || value.front() == '-')
        return false;
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(value.c_str(), &end, 0);
    if (end == value.c_str() || *end != '\0' || errno == ERANGE)
        return false;
    *out = v;
    return true;
}

bool
u32(const std::string &value, unsigned *out)
{
    std::uint64_t v = 0;
    if (!u64(value, &v) || v > 0xffffffffull)
        return false;
    *out = static_cast<unsigned>(v);
    return true;
}

bool
boolean(const std::string &value, bool *out)
{
    if (value == "true" || value == "on" || value == "1") {
        *out = true;
        return true;
    }
    if (value == "false" || value == "off" || value == "0") {
        *out = false;
        return true;
    }
    return false;
}

} // namespace misp::parse
