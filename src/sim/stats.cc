#include "stats.hh"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <ostream>

namespace misp::stats {

StatBase::StatBase(StatGroup *parent, std::string name)
    : name_(std::move(name))
{
    MISP_ASSERT(parent != nullptr);
    parent->stats_.append(this);
}

StatGroup::StatGroup(std::string name, StatGroup *parent)
    : name_(std::move(name)), parent_(parent)
{
    if (parent_)
        parent_->children_.append(this);
}

StatGroup::~StatGroup()
{
    if (parent_)
        parent_->children_.remove(this);
}

std::string
StatGroup::path() const
{
    if (!parent_)
        return name_;
    std::string p = parent_->path();
    if (p.empty())
        return name_;
    return p + "." + name_;
}

const StatBase *
StatGroup::find(std::string_view relPath) const
{
    auto dot = relPath.find('.');
    if (dot == std::string_view::npos) {
        for (const StatBase *s : stats_) {
            if (s->name() == relPath)
                return s;
        }
        return nullptr;
    }
    const std::string_view head = relPath.substr(0, dot);
    for (const StatGroup *g : children_) {
        if (g->groupName() == head)
            return g->find(relPath.substr(dot + 1));
    }
    return nullptr;
}

double
StatGroup::lookupValue(std::string_view relPath) const
{
    const auto *s = dynamic_cast<const Scalar *>(find(relPath));
    return s ? s->value() : 0.0;
}

namespace {

/** Hand @p s to @p put(const char *, std::size_t) JSON-escaped: each
 *  run of bytes that need no escape in one call, each escape in one. */
template <class Put>
void
escapeJson(const std::string &s, Put put)
{
    static constexpr char kHex[] = "0123456789abcdef";
    std::size_t plain = 0;
    for (std::size_t i = 0; i < s.size(); ++i) {
        const auto c = static_cast<unsigned char>(s[i]);
        char u[6] = {'\\', 'u', '0', '0'};
        const char *esc = u;
        std::size_t len = 2;
        switch (c) {
          case '"': esc = "\\\""; break;
          case '\\': esc = "\\\\"; break;
          case '\n': esc = "\\n"; break;
          case '\r': esc = "\\r"; break;
          case '\t': esc = "\\t"; break;
          case '\b': esc = "\\b"; break;
          case '\f': esc = "\\f"; break;
          default:
            // Bytes >= 0x20 pass through untouched, so UTF-8
            // multi-byte sequences survive verbatim.
            if (c >= 0x20)
                continue;
            u[4] = kHex[c >> 4];
            u[5] = kHex[c & 15];
            len = sizeof(u);
        }
        put(s.data() + plain, i - plain);
        put(esc, len);
        plain = i + 1;
    }
    put(s.data() + plain, s.size() - plain);
}

/** @p v as `%.<precision>g`. Doubles keep snprintf: to_chars's
 *  floating-point path maps more of libstdc++ and raised peak RSS by
 *  about 0.1 MB with no measurable gain in wall time. */
void
writeGeneral(std::ostream &os, double v, int precision)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    os << buf;
}

} // namespace

std::string
jsonQuote(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    out += '"';
    escapeJson(s, [&](const char *p, std::size_t n) { out.append(p, n); });
    out += '"';
    return out;
}

void
writeJsonQuoted(std::ostream &os, const std::string &s)
{
    os.put('"');
    escapeJson(s, [&](const char *p, std::size_t n) {
        os.write(p, static_cast<std::streamsize>(n));
    });
    os.put('"');
}

void
writeJsonNumber(std::ostream &os, double v)
{
    if (v == std::floor(v) && std::abs(v) < 9.007199254740992e15) {
        char buf[24];
        auto r = std::to_chars(buf, buf + sizeof(buf),
                               static_cast<long long>(v));
        MISP_ASSERT(r.ec == std::errc());
        os.write(buf, r.ptr - buf);
    } else {
        writeGeneral(os, v, 9);
    }
}

namespace {

void
jsonKey(std::ostream &os, const std::string &indent, const std::string &key)
{
    os << indent;
    writeJsonQuoted(os, key);
    os << ": ";
}

void
jsonNumber(std::ostream &os, double v)
{
    // NaN/inf are not valid JSON.
    if (v != v || v > 1.7e308 || v < -1.7e308) {
        os << "null";
        return;
    }
    writeGeneral(os, v, 17);
}

} // namespace

void
StatGroup::dumpJson(std::ostream &os, int indent) const
{
    const std::string in(static_cast<std::size_t>(indent) * 2, ' ');
    const std::string in1(static_cast<std::size_t>(indent + 1) * 2, ' ');
    os << "{";
    bool first = true;
    for (const StatBase *s : stats_) {
        auto rows = s->rows();
        os << (first ? "\n" : ",\n");
        first = false;
        jsonKey(os, in1, s->name());
        if (rows.size() == 1 && rows.front().first.empty()) {
            jsonNumber(os, rows.front().second);
            continue;
        }
        os << "{";
        bool firstRow = true;
        for (const auto &[suffix, value] : rows) {
            os << (firstRow ? "\n" : ",\n");
            firstRow = false;
            jsonKey(os, in1 + "  ", suffix);
            jsonNumber(os, value);
        }
        os << "\n" << in1 << "}";
    }
    for (const StatGroup *g : children_) {
        os << (first ? "\n" : ",\n");
        first = false;
        jsonKey(os, in1, g->groupName());
        g->dumpJson(os, indent + 1);
    }
    os << "\n" << in << "}";
}

} // namespace misp::stats
