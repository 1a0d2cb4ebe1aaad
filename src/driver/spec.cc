#include "spec.hh"

#include <fstream>
#include <sstream>

#include "sim/parse.hh"

namespace misp::driver {

namespace {

std::string
trim(const std::string &s)
{
    std::size_t b = s.find_first_not_of(" \t\r");
    if (b == std::string::npos)
        return "";
    std::size_t e = s.find_last_not_of(" \t\r");
    return s.substr(b, e - b + 1);
}

/** Strip `#` / `;` comments. Values never contain either character
 *  (documented in spec.hh), so no quoting rules are needed. */
std::string
stripComment(const std::string &line)
{
    std::size_t pos = line.find_first_of("#;");
    return pos == std::string::npos ? line : line.substr(0, pos);
}

} // namespace

std::string
specError(const std::string &path, int line, const std::string &message)
{
    return path + ":" + std::to_string(line) + ": " + message;
}

const SpecEntry *
SpecSection::find(const std::string &key) const
{
    for (const SpecEntry &e : entries) {
        if (e.key == key)
            return &e;
    }
    return nullptr;
}

std::string
SpecSection::get(const std::string &key, const std::string &fallback) const
{
    const SpecEntry *e = find(key);
    return e ? e->value : fallback;
}

const SpecSection *
SpecFile::first(const std::string &type) const
{
    for (const SpecSection &s : sections) {
        if (s.type == type)
            return &s;
    }
    return nullptr;
}

std::string
SpecFile::serialize() const
{
    std::ostringstream os;
    bool firstSection = true;
    for (const SpecSection &s : sections) {
        if (!firstSection)
            os << "\n";
        firstSection = false;
        os << "[" << s.type;
        if (!s.name.empty())
            os << " " << s.name;
        os << "]\n";
        for (const SpecEntry &e : s.entries)
            os << e.key << " = " << e.value << "\n";
    }
    return os.str();
}

bool
SpecFile::parse(const std::string &text, const std::string &path,
                SpecFile *out, std::string *err)
{
    out->path = path;
    out->sections.clear();

    std::istringstream is(text);
    std::string raw;
    int lineNo = 0;
    while (std::getline(is, raw)) {
        ++lineNo;
        std::string line = trim(stripComment(raw));
        if (line.empty())
            continue;

        if (line.front() == '[') {
            if (line.back() != ']') {
                if (err)
                    *err = specError(path, lineNo,
                                     "section header missing ']'");
                return false;
            }
            std::string inner = trim(line.substr(1, line.size() - 2));
            if (inner.empty()) {
                if (err)
                    *err = specError(path, lineNo, "empty section header");
                return false;
            }
            SpecSection sec;
            sec.line = lineNo;
            std::size_t sp = inner.find_first_of(" \t");
            if (sp == std::string::npos) {
                sec.type = inner;
            } else {
                sec.type = inner.substr(0, sp);
                sec.name = trim(inner.substr(sp + 1));
            }
            out->sections.push_back(std::move(sec));
            continue;
        }

        std::size_t eq = line.find('=');
        if (eq == std::string::npos) {
            if (err)
                *err = specError(path, lineNo,
                                 "expected 'key = value' or '[section]', "
                                 "got '" + line + "'");
            return false;
        }
        if (out->sections.empty()) {
            if (err)
                *err = specError(path, lineNo,
                                 "'key = value' before any [section]");
            return false;
        }
        SpecEntry entry;
        entry.key = trim(line.substr(0, eq));
        entry.value = trim(line.substr(eq + 1));
        entry.line = lineNo;
        if (entry.key.empty()) {
            if (err)
                *err = specError(path, lineNo, "empty key");
            return false;
        }
        SpecSection &sec = out->sections.back();
        // Keys name one axis or knob each, so duplicates are rejected —
        // except `assert`, `inject`, `column` and `footer`, which are
        // repeatable statements, not knobs.
        if (entry.key != "assert" && entry.key != "inject" &&
            entry.key != "column" && entry.key != "footer" &&
            sec.find(entry.key)) {
            if (err)
                *err = specError(path, lineNo,
                                 "duplicate key '" + entry.key +
                                 "' in section [" + sec.type + "]");
            return false;
        }
        sec.entries.push_back(std::move(entry));
    }
    return true;
}

bool
SpecFile::parseFile(const std::string &path, SpecFile *out, std::string *err)
{
    std::ifstream is(path);
    if (!is) {
        if (err)
            *err = "cannot open scenario file '" + path + "'";
        return false;
    }
    std::ostringstream buf;
    buf << is.rdbuf();
    return parse(buf.str(), path, out, err);
}

std::vector<std::string>
splitList(const std::string &value)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= value.size()) {
        std::size_t comma = value.find(',', start);
        std::string tok =
            trim(comma == std::string::npos
                     ? value.substr(start)
                     : value.substr(start, comma - start));
        if (!tok.empty())
            out.push_back(std::move(tok));
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    return out;
}

bool
expandValues(const std::string &value, std::vector<std::string> *out,
             std::string *err)
{
    out->clear();
    for (const std::string &tok : splitList(value)) {
        std::size_t dots = tok.find("..");
        if (dots == std::string::npos) {
            out->push_back(tok);
            continue;
        }
        std::uint64_t lo = 0, hi = 0;
        if (!parseU64(tok.substr(0, dots), &lo) ||
            !parseU64(tok.substr(dots + 2), &hi)) {
            if (err)
                *err = "malformed span '" + tok +
                       "' (expected <int>..<int>)";
            return false;
        }
        if (lo > hi) {
            if (err)
                *err = "inverted span '" + tok + "'";
            return false;
        }
        for (std::uint64_t v = lo; v <= hi; ++v)
            out->push_back(std::to_string(v));
    }
    return true;
}

bool
parseU64(const std::string &value, std::uint64_t *out)
{
    return misp::parse::u64(value, out);
}

bool
parseUnsigned(const std::string &value, unsigned *out)
{
    return misp::parse::u32(value, out);
}

bool
parseBool(const std::string &value, bool *out)
{
    return misp::parse::boolean(value, out);
}

} // namespace misp::driver
