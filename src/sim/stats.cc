#include "stats.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>

namespace misp::stats {

StatBase::StatBase(StatGroup *parent, std::string name)
    : name_(std::move(name))
{
    MISP_ASSERT(parent != nullptr);
    parent->addStat(this);
}

StatGroup::StatGroup(std::string name, StatGroup *parent)
    : name_(std::move(name)), parent_(parent)
{
    if (parent_)
        parent_->children_.push_back(this);
}

StatGroup::~StatGroup()
{
    if (parent_) {
        auto &sibs = parent_->children_;
        sibs.erase(std::remove(sibs.begin(), sibs.end(), this), sibs.end());
    }
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
StatGroup::find(const std::string &relPath) const
{
    auto dot = relPath.find('.');
    if (dot == std::string::npos) {
        for (const StatBase *s : stats_) {
            if (s->name() == relPath)
                return s;
        }
        return nullptr;
    }
    std::string head = relPath.substr(0, dot);
    std::string tail = relPath.substr(dot + 1);
    for (const StatGroup *g : children_) {
        if (g->groupName() == head)
            return g->find(tail);
    }
    return nullptr;
}

double
StatGroup::lookupValue(const std::string &relPath) const
{
    const StatBase *s = find(relPath);
    if (!s)
        return 0.0;
    auto rows = s->rows();
    return rows.empty() ? 0.0 : rows.front().second;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned char>(c));
                out += buf;
            } else {
                // Bytes >= 0x20 pass through untouched, so UTF-8
                // multi-byte sequences survive verbatim.
                out += c;
            }
        }
    }
    return out;
}

std::string
jsonQuote(const std::string &s)
{
    // Built up in steps: GCC 12's -Wrestrict false-positives on the
    // `"\"" + escape + "\""` temporary chain once inlined.
    std::string out = "\"";
    out += jsonEscape(s);
    out += "\"";
    return out;
}

void
writeJsonQuoted(std::ostream &os, const std::string &s)
{
    os << '"' << jsonEscape(s) << '"';
}

void
writeJsonNumber(std::ostream &os, double v)
{
    char buf[48];
    if (v == std::floor(v) && std::abs(v) < 9.007199254740992e15) {
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(v));
    } else {
        std::snprintf(buf, sizeof(buf), "%.9g", v);
    }
    os << buf;
}

namespace {

void
jsonKey(std::ostream &os, const std::string &indent, const std::string &key)
{
    os << indent << "\"" << jsonEscape(key) << "\": ";
}

void
jsonNumber(std::ostream &os, double v)
{
    // NaN/inf are not valid JSON.
    if (v != v || v > 1.7e308 || v < -1.7e308) {
        os << "null";
        return;
    }
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    os << buf;
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
