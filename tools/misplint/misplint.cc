#include "misplint.hh"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

namespace fs = std::filesystem;

namespace misplint {

namespace {

// ---------------------------------------------------------------------
// Policy: which parts of the tree each rule family governs.
// ---------------------------------------------------------------------

/** Simulated code: everything whose behaviour is part of the model and
 *  therefore must be bit-reproducible from (config, seed). src/obs/ is
 *  simulated too — the trace recorder observes model events — except
 *  its quarantined host plane (see hostPlane below). */
constexpr const char *kSimulatedDirs[] = {
    "src/cpu/",  "src/mem/",      "src/misp/",     "src/os/",
    "src/isa/",  "src/sim/",      "src/shredlib/", "src/snapshot/",
    "src/workloads/", "src/obs/",
};

/** The machine-config structs whose fields the model must read through
 *  the tracked accessor (src/sim/config_reads.hh). */
constexpr const char *kConfigStructs[] = {"SystemConfig", "MispConfig",
                                          "KernelConfig"};

/** Layers that must not see the host-side run layer. */
constexpr const char *kModelOnlyDirs[] = {"src/sim/", "src/mem/",
                                          "src/cpu/"};

/** The only files in src/ allowed to touch std::chrono: host-side wall
 *  clocks (bench timing, supervisor deadlines). Everything else in
 *  src/ emits deterministic artifacts and has no business with time.
 *  (src/obs/host_* is a prefix allowlist; see hostPlane.) */
constexpr const char *kChronoAllowlist[] = {"src/harness/run_record.cc",
                                            "src/driver/runner.cc"};

/** The event queue defines the closure events snap-closure-event bans
 *  everywhere else in the simulated dirs. */
constexpr const char *kClosureEventHome[] = {"src/sim/event_queue.hh",
                                             "src/sim/event_queue.cc"};

bool
startsWithAny(const std::string &rel, const char *const *dirs,
              std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        if (rel.rfind(dirs[i], 0) == 0)
            return true;
    return false;
}

/** The quarantined host plane inside src/obs/: files prefixed `host_`
 *  hold wall-clock telemetry (run logs, phase profiles). They are
 *  exempt from the simulated-code rules — and, symmetrically, no
 *  simulated file may include them (obs-host-plane). */
bool
hostPlane(const std::string &rel)
{
    return rel.rfind("src/obs/host_", 0) == 0;
}

bool
isSimulated(const std::string &rel)
{
    return !hostPlane(rel) &&
           startsWithAny(rel, kSimulatedDirs, std::size(kSimulatedDirs));
}

bool
isModelOnly(const std::string &rel)
{
    return startsWithAny(rel, kModelOnlyDirs, std::size(kModelOnlyDirs));
}

bool
chronoAllowed(const std::string &rel)
{
    for (const char *f : kChronoAllowlist)
        if (rel == f)
            return true;
    if (hostPlane(rel))
        return true;
    // Only src/ is restricted; bench/tools/tests time things freely.
    return rel.rfind("src/", 0) != 0;
}

// ---------------------------------------------------------------------
// Source text: load, split comments from code (annotations live in the
// comments; every rule token-matches against the code).
// ---------------------------------------------------------------------

struct FileText {
    std::string rel;
    std::vector<std::string> code;    ///< comments/string bodies blanked
    std::vector<std::string> comment; ///< comment text per line
};

bool identChar(char c);

/** Strip comments and string/char literal bodies, preserving line
 *  structure. Comment text is kept per line so annotation lookups can
 *  see it. Raw strings are not handled (none in this tree). */
FileText
splitSource(std::string rel, const std::string &text)
{
    FileText out;
    out.rel = std::move(rel);
    std::string code, comment;
    enum { Code, Line, Block, Str, Chr } st = Code;
    bool keepStr = false; // include paths stay visible to the rules
    for (std::size_t i = 0; i < text.size(); ++i) {
        char c = text[i];
        char n = i + 1 < text.size() ? text[i + 1] : '\0';
        if (c == '\n') {
            out.code.push_back(code);
            out.comment.push_back(comment);
            code.clear();
            comment.clear();
            if (st == Line)
                st = Code;
            continue;
        }
        switch (st) {
          case Code:
            if (c == '/' && n == '/') {
                st = Line;
                ++i;
            } else if (c == '/' && n == '*') {
                st = Block;
                ++i;
            } else if (c == '"') {
                st = Str;
                // The layer-include rule needs the quoted path; other
                // string bodies are blanked so their contents can't
                // fake a code token.
                keepStr = code.find("#include") != std::string::npos;
                code += c;
            } else if (c == '\'' && i > 0 && identChar(text[i - 1])) {
                // Digit separator (0x0040'0000), not a char literal.
                code += c;
            } else if (c == '\'') {
                st = Chr;
                code += c;
            } else {
                code += c;
            }
            break;
          case Line:
            comment += c;
            break;
          case Block:
            if (c == '*' && n == '/') {
                st = Code;
                ++i;
            } else {
                comment += c;
            }
            break;
          case Str:
            if (c == '\\') {
                ++i;
            } else if (c == '"') {
                st = Code;
                code += c;
            } else if (keepStr) {
                code += c;
            }
            break;
          case Chr:
            if (c == '\\') {
                ++i;
            } else if (c == '\'') {
                st = Code;
                code += c;
            }
            break;
        }
    }
    if (!code.empty() || !comment.empty()) {
        out.code.push_back(code);
        out.comment.push_back(comment);
    }
    return out;
}

struct Tok {
    std::string text;
    int line = 0; ///< 1-based
};

bool
identChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

std::vector<Tok>
tokenize(const FileText &f)
{
    std::vector<Tok> toks;
    for (std::size_t ln = 0; ln < f.code.size(); ++ln) {
        const std::string &s = f.code[ln];
        std::size_t i = 0;
        while (i < s.size()) {
            char c = s[i];
            if (std::isspace(static_cast<unsigned char>(c))) {
                ++i;
                continue;
            }
            int line = static_cast<int>(ln) + 1;
            if (identChar(c)) {
                std::size_t j = i;
                while (j < s.size() && identChar(s[j]))
                    ++j;
                toks.push_back({s.substr(i, j - i), line});
                i = j;
            } else if (c == ':' && i + 1 < s.size() && s[i + 1] == ':') {
                toks.push_back({"::", line});
                i += 2;
            } else if (c == '-' && i + 1 < s.size() && s[i + 1] == '>') {
                toks.push_back({"->", line});
                i += 2;
            } else {
                toks.push_back({std::string(1, c), line});
                ++i;
            }
        }
    }
    return toks;
}

// ---------------------------------------------------------------------
// Annotations.
// ---------------------------------------------------------------------

/** True when line @p ln (0-based) carries no code tokens — i.e. it is
 *  blank or comment-only, so an annotation on it belongs to the *next*
 *  code line, not a previous declaration's trailing comment. */
bool
codeFree(const FileText &f, int ln)
{
    if (ln < 0 || ln >= static_cast<int>(f.code.size()))
        return false;
    for (char c : f.code[ln])
        if (!std::isspace(static_cast<unsigned char>(c)))
            return false;
    return true;
}

/** Extract the value of `marker: <word>` from @p text, or "". */
std::string
annotationValue(const std::string &text, const std::string &marker)
{
    auto pos = text.find(marker + ":");
    if (pos == std::string::npos)
        return "";
    pos += marker.size() + 1;
    while (pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[pos])))
        ++pos;
    std::size_t end = pos;
    while (end < text.size() &&
           (identChar(text[end]) || text[end] == '-' ||
            text[end] == '(' || text[end] == ')'))
        ++end;
    return text.substr(pos, end - pos);
}

/** Look for `marker: <value>` in the comment on the declaration line
 *  or anywhere in the contiguous code-free (comment/blank) block
 *  directly above it — so multi-line doc comments can carry the
 *  annotation on any of their lines. */
std::string
annotationFor(const FileText &f, int line, const std::string &marker)
{
    int ln = line - 1; // 0-based declaration line
    if (ln >= 0 && ln < static_cast<int>(f.comment.size())) {
        std::string v = annotationValue(f.comment[ln], marker);
        if (!v.empty())
            return v;
    }
    for (int up = ln - 1; up >= 0 && codeFree(f, up); --up) {
        std::string v = annotationValue(f.comment[up], marker);
        if (!v.empty())
            return v;
    }
    return "";
}

/** `// snap: <kind>` on or above the declaration. */
std::string
snapAnnotation(const FileText &f, int line)
{
    return annotationFor(f, line, "snap");
}

/** `// misplint: allow(rule-id)` on or above the flagged line. */
bool
allowed(const FileText &f, int line, const std::string &rule)
{
    return annotationFor(f, line, "misplint") == "allow(" + rule + ")";
}

// ---------------------------------------------------------------------
// Class model: archive classes, their members, their archive bodies.
// ---------------------------------------------------------------------

struct Member {
    std::string name;
    std::string type; ///< joined declarator tokens before the name
    std::string file;
    int line = 0;
    std::string annotation; ///< snap: value, "" if none
};

struct ClassInfo {
    std::string name;
    std::string file;
    int line = 0;
    bool hasArchive = false; ///< declares a member template `archive`
    std::vector<Member> members;
    /** Identifier tokens of an inline-defined archive body. */
    std::set<std::string> archiveBody;
    bool inlineArchive = false;
};

struct UnorderedDecl {
    std::string file;
    int line = 0;
};

/** Everything the cross-file passes need, gathered per file. */
struct Corpus {
    std::vector<FileText> files;
    std::vector<ClassInfo> classes;
    /** variable/member name -> where a std::unordered_* with that name
     *  was declared (any file; names are distinctive enough). */
    std::map<std::string, UnorderedDecl> unorderedNames;
    /** class name -> identifier tokens of out-of-class archive bodies. */
    std::map<std::string, std::set<std::string>> archiveBodies;
    /** Tracked data members of the kConfigStructs (config-raw-read). */
    std::set<std::string> configFields;
};

bool
isKeyword(const std::string &t)
{
    static const std::set<std::string> kw = {
        "const",    "constexpr", "static",   "mutable",  "volatile",
        "virtual",  "inline",    "explicit", "unsigned", "signed",
        "long",     "short",     "int",      "char",     "bool",
        "double",   "float",     "void",     "auto",     "struct",
        "class",    "enum",      "union",    "typename", "template",
        "operator", "override",  "final",    "noexcept", "using",
        "typedef",  "friend",    "public",   "private",  "protected",
    };
    return kw.count(t) != 0;
}

/** Split a member-declaration statement into per-declarator segments
 *  (comma at angle/paren/bracket depth 0) and extract names. */
void
extractMembers(const std::vector<Tok> &stmt, const FileText &f,
               ClassInfo *cls)
{
    // Truncate at the first '=' at depth 0 (default member init).
    std::vector<Tok> decl;
    int angle = 0, paren = 0, bracket = 0;
    for (const Tok &t : stmt) {
        if (t.text == "<")
            ++angle;
        else if (t.text == ">")
            angle = std::max(0, angle - 1);
        else if (t.text == "(")
            ++paren;
        else if (t.text == ")")
            --paren;
        else if (t.text == "[")
            ++bracket;
        else if (t.text == "]")
            --bracket;
        if (t.text == "=" && angle == 0 && paren == 0 && bracket == 0)
            break;
        decl.push_back(t);
    }
    if (decl.empty())
        return;
    const std::string &lead = decl.front().text;
    if (lead == "static" || lead == "using" || lead == "typedef" ||
        lead == "friend" || lead == "constexpr" || lead == "template" ||
        lead == "enum" || lead == "class" || lead == "struct" ||
        lead == "union" || lead == "operator")
        return;
    // Function declaration/definition: a '(' outside template args.
    angle = 0;
    for (const Tok &t : decl) {
        if (t.text == "<")
            ++angle;
        else if (t.text == ">")
            angle = std::max(0, angle - 1);
        else if (t.text == "(" && angle == 0)
            return;
    }
    // Split declarators on depth-0 commas: "int a, b;".
    std::vector<std::vector<Tok>> parts(1);
    angle = 0;
    for (const Tok &t : decl) {
        if (t.text == "<")
            ++angle;
        else if (t.text == ">")
            angle = std::max(0, angle - 1);
        if (t.text == "," && angle == 0) {
            parts.emplace_back();
            continue;
        }
        parts.back().push_back(t);
    }
    for (const auto &part : parts) {
        // Drop trailing array dims: "buf [ 16 ]".
        std::size_t end = part.size();
        while (end >= 3 && part[end - 1].text == "]") {
            std::size_t open = end - 1;
            int d = 0;
            while (open > 0) {
                if (part[open].text == "]")
                    ++d;
                if (part[open].text == "[" && --d == 0)
                    break;
                --open;
            }
            end = open;
        }
        // Name: last identifier; type: everything before it.
        int nameIdx = -1;
        for (int i = static_cast<int>(end) - 1; i >= 0; --i) {
            const std::string &t = part[i].text;
            if (identChar(t[0]) && !isKeyword(t) &&
                !std::isdigit(static_cast<unsigned char>(t[0]))) {
                nameIdx = i;
                break;
            }
        }
        if (nameIdx <= 0)
            continue; // no type tokens before the name -> not a member
        Member m;
        m.name = part[nameIdx].text;
        for (int i = 0; i < nameIdx; ++i)
            m.type += part[i].text + " ";
        m.file = f.rel;
        m.line = part[nameIdx].line;
        m.annotation = snapAnnotation(f, part[nameIdx].line);
        cls->members.push_back(std::move(m));
    }
}

std::size_t skipBalanced(const std::vector<Tok> &toks, std::size_t i,
                         const char *open, const char *close,
                         std::set<std::string> *idents = nullptr);

/** Parse one class body starting at the '{' token; returns the index
 *  one past the closing '}'. Nested class definitions recurse. */
std::size_t
parseClassBody(const std::vector<Tok> &toks, std::size_t i,
               const std::string &name, const FileText &f,
               Corpus *corpus)
{
    ClassInfo cls;
    cls.name = name;
    cls.file = f.rel;
    cls.line = toks[i].line;
    ++i; // past '{'
    std::vector<Tok> stmt;
    // `template <...> ... archive (` declares the archive body.
    auto isArchive = [&] {
        if (stmt.empty() || stmt.front().text != "template")
            return false;
        for (std::size_t k = 0; k + 1 < stmt.size(); ++k)
            if (stmt[k].text == "archive" && stmt[k + 1].text == "(")
                return true;
        return false;
    };
    while (i < toks.size()) {
        const std::string &t = toks[i].text;
        if (t == "}") {
            ++i;
            break;
        }
        if (t == ":" && stmt.size() == 1 &&
            (stmt[0].text == "public" || stmt[0].text == "private" ||
             stmt[0].text == "protected")) {
            stmt.clear();
            ++i;
            continue;
        }
        if (t == ";") {
            if (isArchive())
                cls.hasArchive = true;
            else
                extractMembers(stmt, f, &cls);
            stmt.clear();
            ++i;
            continue;
        }
        if (t == "{") {
            // Inside an unclosed paren this brace is a default
            // argument (RtCosts{} etc.), not a body: consume it and
            // keep accumulating the statement.
            int parens = 0;
            for (const Tok &s : stmt) {
                if (s.text == "(")
                    ++parens;
                else if (s.text == ")")
                    --parens;
            }
            if (parens > 0) {
                i = skipBalanced(toks, i, "{", "}");
                continue;
            }
            // Nested type definition? (A `class` inside template
            // angle brackets is a parameter, not a definition.)
            bool nested = false;
            int depth = 0;
            for (const Tok &s : stmt) {
                if (s.text == "<")
                    ++depth;
                else if (s.text == ">")
                    depth = std::max(0, depth - 1);
                else if (depth == 0 &&
                         (s.text == "class" || s.text == "struct" ||
                          s.text == "enum" || s.text == "union")) {
                    nested = true;
                    break;
                }
            }
            if (nested) {
                std::string nestedName;
                for (std::size_t k = 0; k + 1 < stmt.size(); ++k)
                    if (stmt[k].text == "class" ||
                        stmt[k].text == "struct" ||
                        stmt[k].text == "union")
                        nestedName = stmt[k + 1].text;
                int nestedLine = toks[i].line;
                if (!nestedName.empty() &&
                    stmt.front().text != "enum")
                    i = parseClassBody(toks, i, nestedName, f, corpus);
                else
                    i = skipBalanced(toks, i, "{", "}");
                // "struct Foo {...} foo_;" declares a member after the
                // '}': restart the statement as "Foo foo_" so the tail
                // declarator is picked up (a bare "Foo ;" extracts
                // nothing).
                stmt.clear();
                stmt.push_back({nestedName.empty() ? "anon" : nestedName,
                                nestedLine});
                continue;
            }
            bool fn = false;
            int angle = 0;
            for (const Tok &s : stmt) {
                if (s.text == "<")
                    ++angle;
                else if (s.text == ">")
                    angle = std::max(0, angle - 1);
                else if (s.text == "(" && angle == 0)
                    fn = true;
            }
            if (fn) {
                // Inline member function; capture an archive body for
                // the completeness check.
                std::set<std::string> body;
                i = skipBalanced(toks, i, "{", "}", &body);
                if (isArchive()) {
                    cls.hasArchive = true;
                    cls.archiveBody = body;
                    cls.inlineArchive = true;
                }
                stmt.clear();
                continue;
            }
            // Brace initializer of a member: consume, keep statement.
            i = skipBalanced(toks, i, "{", "}");
            continue;
        }
        stmt.push_back(toks[i]);
        ++i;
    }
    corpus->classes.push_back(std::move(cls));
    return i;
}

/** Skip a balanced region starting at the opener token at @p i;
 *  returns one past the closer. Optionally collects identifiers. */
std::size_t
skipBalanced(const std::vector<Tok> &toks, std::size_t i,
             const char *open, const char *close,
             std::set<std::string> *idents)
{
    int depth = 0;
    for (; i < toks.size(); ++i) {
        const std::string &t = toks[i].text;
        if (t == open)
            ++depth;
        else if (t == close) {
            if (--depth == 0)
                return i + 1;
        } else if (idents && identChar(t[0])) {
            idents->insert(t);
        }
    }
    return i;
}

/** Walk a token stream: collect class definitions, out-of-class
 *  archive bodies, and unordered-container declarations. */
void
walkFile(const FileText &f, const std::vector<Tok> &toks,
         Corpus *corpus)
{
    for (std::size_t i = 0; i < toks.size();) {
        const std::string &t = toks[i].text;
        // Out-of-class method body: Name :: archive ( ... ) ... { }
        if (t == "archive" && i >= 2 &&
            toks[i - 1].text == "::" && i + 1 < toks.size() &&
            toks[i + 1].text == "(") {
            const std::string cls = toks[i - 2].text;
            std::size_t j = skipBalanced(toks, i + 1, "(", ")");
            while (j < toks.size() && toks[j].text != "{" &&
                   toks[j].text != ";")
                ++j;
            if (j < toks.size() && toks[j].text == "{") {
                std::set<std::string> body;
                j = skipBalanced(toks, j, "{", "}", &body);
                corpus->archiveBodies[cls].insert(body.begin(),
                                                  body.end());
                i = j;
                continue;
            }
        }
        // Class/struct definition at any level (not a template
        // parameter: `template <class Ar>`).
        if ((t == "class" || t == "struct") &&
            (i == 0 || (toks[i - 1].text != "enum" &&
                        toks[i - 1].text != "<" &&
                        toks[i - 1].text != ","))) {
            std::size_t j = i + 1;
            std::string name;
            int angle = 0;
            for (; j < toks.size(); ++j) {
                const std::string &u = toks[j].text;
                if (u == "<")
                    ++angle;
                else if (u == ">")
                    angle = std::max(0, angle - 1);
                else if (angle == 0 &&
                         (u == ";" || u == "{" || u == "(" ||
                          u == ":" || u == ","))
                    break;
                else if (identChar(u[0]) && u != "final" &&
                         u != "alignas")
                    name = u;
            }
            if (j < toks.size() && toks[j].text == ":") {
                // Base clause: scan forward to the body brace.
                angle = 0;
                for (++j; j < toks.size(); ++j) {
                    const std::string &u = toks[j].text;
                    if (u == "<")
                        ++angle;
                    else if (u == ">")
                        angle = std::max(0, angle - 1);
                    else if (angle == 0 && (u == "{" || u == ";"))
                        break;
                }
            }
            if (j < toks.size() && toks[j].text == "{" &&
                !name.empty()) {
                i = parseClassBody(toks, j, name, f, corpus);
                continue;
            }
            i = j + 1;
            continue;
        }
        ++i;
    }
}

/** Linear pass (independent of class structure): remember the name of
 *  every variable or member declared as a std::unordered_* container,
 *  so iteration sites can be flagged wherever they appear. */
void
collectUnordered(const FileText &f, const std::vector<Tok> &toks,
                 Corpus *corpus)
{
    for (std::size_t i = 0; i < toks.size();) {
        const std::string &t = toks[i].text;
        if (t != "unordered_map" && t != "unordered_set") {
            ++i;
            continue;
        }
        std::size_t j = i + 1;
        if (j < toks.size() && toks[j].text == "<") {
            j = skipBalanced(toks, j, "<", ">");
            if (j < toks.size() && identChar(toks[j].text[0]) &&
                !isKeyword(toks[j].text))
                corpus->unorderedNames.emplace(
                    toks[j].text, UnorderedDecl{f.rel, toks[j].line});
        }
        i = j;
    }
}

// ---------------------------------------------------------------------
// Hygiene rules (token-level, per file).
// ---------------------------------------------------------------------

void
addFinding(std::vector<Finding> *out, const FileText &f, int line,
           std::string rule, std::string symbol, std::string message,
           int *suppressed)
{
    if (allowed(f, line, rule)) {
        ++*suppressed;
        return;
    }
    out->push_back({f.rel, line, std::move(rule), std::move(symbol),
                    std::move(message)});
}

/** The data members of the kConfigStructs the model must read through
 *  the tracker: not a nested config struct (a path, not a field), not
 *  one annotated `misplint: allow(config-raw-read)` on its
 *  declaration. */
void
collectConfigFields(Corpus *corpus)
{
    auto isConfigStruct = [](const std::string &name) {
        return std::find_if(std::begin(kConfigStructs),
                            std::end(kConfigStructs),
                            [&](const char *c) { return name == c; }) !=
               std::end(kConfigStructs);
    };
    for (const ClassInfo &cls : corpus->classes) {
        if (!isConfigStruct(cls.name))
            continue;
        for (const Member &m : cls.members) {
            bool nested = false;
            for (const char *c : kConfigStructs)
                nested = nested || m.type.find(c) != std::string::npos;
            const auto file = std::find_if(
                corpus->files.begin(), corpus->files.end(),
                [&](const FileText &f) { return f.rel == m.file; });
            if (nested || (file != corpus->files.end() &&
                           allowed(*file, m.line, "config-raw-read")))
                continue;
            corpus->configFields.insert(m.name);
        }
    }
}

void
hygieneScan(const FileText &f, const std::vector<Tok> &toks,
            const Corpus &corpus, std::vector<Finding> *out,
            int *suppressed)
{
    const bool sim = isSimulated(f.rel);
    // The snapshot archive reads every config field (and records them
    // all); everywhere else in the model a read goes through the
    // tracked accessor.
    const bool configReadTracked =
        sim && f.rel.rfind("src/snapshot/", 0) != 0;
    // Outside the snapshot layer an image is only read through archive
    // bodies, whose bounded primitives check every value.
    const bool rawReadBanned = f.rel.rfind("src/", 0) == 0 &&
                               f.rel.rfind("src/snapshot/", 0) != 0;
    // Host-clock tokens are banned everywhere in src/ except the
    // quarantined host plane — the simulated dirs are the core of the
    // determinism contract, but src/driver/ and src/harness/ emit
    // deterministic artifacts too and must not sprout timing outside
    // the allowlisted wall-clock sites.
    const bool detTime =
        f.rel.rfind("src/", 0) == 0 && !chronoAllowed(f.rel);

    // layer-include + chrono include gating live on include lines.
    for (std::size_t ln = 0; ln < f.code.size(); ++ln) {
        const std::string &s = f.code[ln];
        auto inc = s.find("#include");
        if (inc == std::string::npos)
            continue;
        int line = static_cast<int>(ln) + 1;
        if (isModelOnly(f.rel)) {
            for (const char *layer : {"\"driver/", "\"harness/"}) {
                auto p = s.find(layer, inc);
                if (p == std::string::npos)
                    continue;
                auto q = s.find('"', p + 1);
                std::string hdr = s.substr(p + 1, q - p - 1);
                addFinding(out, f, line, "layer-include", hdr,
                           "model layer must not include the host-side "
                           "run layer (" + hdr + ")",
                           suppressed);
            }
        }
        // Simulated code must not reach into the obs host plane: the
        // deterministic trace API (obs/trace.hh) is the only
        // observability surface the model may see.
        if (sim) {
            auto p = s.find("\"obs/host_", inc);
            if (p != std::string::npos) {
                auto q = s.find('"', p + 1);
                std::string hdr = s.substr(p + 1, q - p - 1);
                addFinding(out, f, line, "obs-host-plane", hdr,
                           "simulated code must not include the obs "
                           "host plane (" + hdr + "); record through "
                           "obs/trace.hh instead",
                           suppressed);
            }
        }
        if (s.find("<chrono>", inc) != std::string::npos &&
            !chronoAllowed(f.rel))
            addFinding(out, f, line, "det-time", "chrono",
                       "std::chrono is host-side only (allowlist: "
                       "harness/run_record.cc, driver/runner.cc, "
                       "src/obs/host_*)",
                       suppressed);
    }

    for (std::size_t i = 0; i < toks.size(); ++i) {
        const std::string &t = toks[i].text;
        const std::string prev = i > 0 ? toks[i - 1].text : "";
        const std::string next =
            i + 1 < toks.size() ? toks[i + 1].text : "";
        const bool memberCall = prev == "." || prev == "->";
        // A qualified call counts only when the qualifier is std.
        const bool stdQualified =
            prev == "::" && i >= 2 && toks[i - 2].text == "std";
        const bool qualified = prev == "::" && !stdQualified;
        int line = toks[i].line;

        if (detTime) {
            if ((t == "time" || t == "clock") && next == "(" &&
                !memberCall && !qualified)
                addFinding(out, f, line, "det-time", t,
                           t + "() reads the host clock; deterministic "
                           "code must be a function of (config, seed)",
                           suppressed);
            if ((t == "gettimeofday" || t == "clock_gettime" ||
                 t == "localtime" || t == "gmtime" ||
                 t == "getrusage" || t == "rdtsc" || t == "__rdtsc" ||
                 t == "__rdtscp") &&
                !memberCall && !qualified)
                addFinding(out, f, line, "det-time", t,
                           t + " reads the host clock; deterministic "
                           "code must be a function of (config, seed)",
                           suppressed);
            if (t == "chrono" && prev != "." && prev != "->")
                addFinding(out, f, line, "det-time", "chrono",
                           "std::chrono is host-side only (allowlist: "
                           "harness/run_record.cc, driver/runner.cc, "
                           "src/obs/host_*)",
                           suppressed);
        }

        if (configReadTracked && memberCall && next != "(" &&
            corpus.configFields.count(t)) {
            const bool write = next == "=" && i + 2 < toks.size() &&
                               toks[i + 2].text != "=";
            if (!write)
                addFinding(out, f, line, "config-raw-read", t,
                           "raw read of config field '" + t +
                               "'; read it through its tracked accessor "
                               "(readConfig, deferConfig, knob<>) so the "
                               "run's read mask records it "
                               "(sim/config_reads.hh)",
                           suppressed);
        }

        if (rawReadBanned && t == "Deserializer")
            addFinding(out, f, line, "snap-raw-read", t,
                       "snap::Deserializer is the snapshot layer's own; "
                       "read an image through an archive body "
                       "(snap::load) instead",
                       suppressed);

        if (sim) {
            if ((t == "scheduleLambda" || t == "LambdaEvent") &&
                !startsWithAny(f.rel, kClosureEventHome,
                               std::size(kClosureEventHome)))
                addFinding(out, f, line, "snap-closure-event", t,
                           t + " schedules a closure, which no snapshot "
                           "can archive; use a typed event (MemberEvent, "
                           "EventPool) whose owner saves its fields",
                           suppressed);
            if ((t == "rand" || t == "srand") && next == "(" &&
                !memberCall && !qualified)
                addFinding(out, f, line, "det-rand", t,
                           t + "() is banned in simulated code; draw "
                           "from a seeded sim::Rng",
                           suppressed);
            if (t == "random_device" && !memberCall)
                addFinding(out, f, line, "det-rand", t,
                           "std::random_device is nondeterministic by "
                           "design; seed a sim::Rng instead",
                           suppressed);
            // det-ptr-key: std :: map|set < T * ...
            if ((t == "map" || t == "set") && stdQualified &&
                next == "<") {
                int angle = 0;
                bool ptr = false;
                for (std::size_t j = i + 1; j < toks.size(); ++j) {
                    const std::string &u = toks[j].text;
                    if (u == "<") {
                        ++angle;
                    } else if (u == ">") {
                        if (--angle == 0)
                            break;
                    } else if (angle == 1 && u == ",") {
                        break;
                    } else if (angle == 1 && u == "*") {
                        ptr = true;
                    }
                }
                if (ptr)
                    addFinding(out, f, line, "det-ptr-key",
                               "std::" + t,
                               "pointer-keyed std::" + t +
                                   " iterates in allocator order, not "
                                   "model order; key by a stable id",
                               suppressed);
            }

            // det-unordered-iter: range-for over, or .begin() on, a
            // name declared as an unordered container anywhere.
            if (corpus.unorderedNames.count(t)) {
                bool rangeFor = prev == ":" && next == ")";
                bool beginCall =
                    next == "." && i + 3 < toks.size() &&
                    (toks[i + 2].text == "begin" ||
                     toks[i + 2].text == "cbegin") &&
                    toks[i + 3].text == "(";
                if (rangeFor || beginCall) {
                    const auto &decl = corpus.unorderedNames.at(t);
                    addFinding(
                        out, f, line, "det-unordered-iter", t,
                        "iteration over unordered container '" + t +
                            "' (declared " + decl.file + ":" +
                            std::to_string(decl.line) +
                            ") leaks hash order; sort into a stable "
                            "order first and annotate the site",
                        suppressed);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Snapshot completeness.
// ---------------------------------------------------------------------

const std::set<std::string> kSnapKinds = {"derived",  "host-only",
                                          "config",   "stats",
                                          "quiesced", "attach"};

void
completenessCheck(const Corpus &corpus, std::vector<Finding> *out,
                  Report *report)
{
    for (const ClassInfo &cls : corpus.classes) {
        if (!cls.hasArchive)
            continue;
        ++report->archiveClasses;
        report->archiveNames.push_back(cls.name);

        std::set<std::string> body = cls.archiveBody;
        if (!cls.inlineArchive) {
            auto it = corpus.archiveBodies.find(cls.name);
            if (it != corpus.archiveBodies.end())
                body.insert(it->second.begin(), it->second.end());
        }

        for (const Member &m : cls.members) {
            ++report->membersChecked;
            if (!m.annotation.empty()) {
                if (!kSnapKinds.count(m.annotation))
                    out->push_back(
                        {m.file, m.line, "snap-bad-annotation", m.name,
                         "unknown snapshot annotation 'snap: " +
                             m.annotation +
                             "' (expected derived|host-only|config|"
                             "stats|quiesced|attach)"});
                ++report->suppressed;
                continue;
            }
            // References are construction wiring; stats:: members
            // travel via the stats tree (snapValues).
            if (m.type.find("&") != std::string::npos)
                continue;
            if (m.type.find("stats ::") != std::string::npos)
                continue;
            if (!body.count(m.name))
                out->push_back(
                    {m.file, m.line, "snap-archive-missing", m.name,
                     cls.name + "::" + m.name +
                         " is not referenced in " + cls.name +
                         "::archive and carries no 'snap:' "
                         "annotation"});
        }
    }
}

// ---------------------------------------------------------------------
// File discovery.
// ---------------------------------------------------------------------

bool
sourceLike(const fs::path &p)
{
    auto e = p.extension().string();
    return e == ".hh" || e == ".cc" || e == ".h" || e == ".cpp";
}

std::vector<std::string>
discover(const Options &opts)
{
    std::vector<std::string> rels;
    for (const std::string &p : opts.paths) {
        fs::path abs = fs::path(opts.root) / p;
        std::error_code ec;
        if (fs::is_regular_file(abs, ec)) {
            rels.push_back(p);
            continue;
        }
        if (!fs::is_directory(abs, ec))
            continue;
        for (auto it = fs::recursive_directory_iterator(abs, ec);
             it != fs::recursive_directory_iterator(); ++it) {
            if (!it->is_regular_file() || !sourceLike(it->path()))
                continue;
            std::string rel =
                fs::relative(it->path(), opts.root, ec).generic_string();
            // The fixture corpus carries deliberate violations.
            if (rel.find("misplint_fixtures") != std::string::npos)
                continue;
            rels.push_back(rel);
        }
    }
    std::sort(rels.begin(), rels.end());
    rels.erase(std::unique(rels.begin(), rels.end()), rels.end());
    return rels;
}

} // namespace

// ---------------------------------------------------------------------
// Entry points.
// ---------------------------------------------------------------------

Report
run(const Options &opts)
{
    Report report;
    Corpus corpus;

    for (const std::string &rel : discover(opts)) {
        std::ifstream in(fs::path(opts.root) / rel,
                         std::ios::binary);
        if (!in)
            continue;
        std::ostringstream ss;
        ss << in.rdbuf();
        corpus.files.push_back(splitSource(rel, ss.str()));
        ++report.filesScanned;
    }

    std::vector<std::vector<Tok>> tokens;
    tokens.reserve(corpus.files.size());
    for (const FileText &f : corpus.files) {
        tokens.push_back(tokenize(f));
        walkFile(f, tokens.back(), &corpus);
        collectUnordered(f, tokens.back(), &corpus);
    }

    collectConfigFields(&corpus);
    report.configFields.assign(corpus.configFields.begin(),
                               corpus.configFields.end());

    for (std::size_t i = 0; i < corpus.files.size(); ++i)
        hygieneScan(corpus.files[i], tokens[i], corpus,
                    &report.findings, &report.suppressed);

    completenessCheck(corpus, &report.findings, &report);

    std::sort(report.findings.begin(), report.findings.end(),
              [](const Finding &a, const Finding &b) {
                  return std::tie(a.file, a.line, a.rule, a.symbol) <
                         std::tie(b.file, b.line, b.rule, b.symbol);
              });
    // Two rules can hit the same construct (an `#include <chrono>`
    // line trips both the include gate and the token scan); one
    // finding per (file, line, rule, symbol) is enough.
    report.findings.erase(
        std::unique(report.findings.begin(), report.findings.end(),
                    [](const Finding &a, const Finding &b) {
                        return std::tie(a.file, a.line, a.rule,
                                        a.symbol) ==
                               std::tie(b.file, b.line, b.rule,
                                        b.symbol);
                    }),
        report.findings.end());
    return report;
}

std::string
format(const Finding &f)
{
    return f.file + ":" + std::to_string(f.line) + ": " + f.rule +
           " " + f.message;
}

std::string
baselineKey(const Finding &f)
{
    return f.file + ":" + f.rule + ":" + f.symbol;
}

} // namespace misplint
