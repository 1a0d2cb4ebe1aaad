#include "obs/trace.hh"

#include <ostream>
#include <sstream>

namespace misp::obs {

thread_local constinit TraceRecorder *tlsTrace = nullptr;

namespace {

struct KindInfo {
    const char *name;
    TraceCat cat;
};

/** Indexed by TraceKind; order must match the enum exactly. */
const KindInfo kKinds[] = {
    {"signal.send", kCatSignal},
    {"signal.deliver", kCatSignal},
    {"signal.drop", kCatSignal},
    {"proxy.send", kCatSignal},
    {"proxy.deliver", kCatSignal},

    {"shred.start", kCatShred},
    {"shred.suspend", kCatShred},
    {"shred.resume", kCatShred},
    {"shred.park", kCatShred},
    {"shred.halt", kCatShred},
    {"shred.proxywait", kCatShred},

    {"kernel.schedule", kCatSched},
    {"kernel.ctxswitch", kCatSched},
    {"kernel.quantum", kCatSched},
    {"ring0.enter", kCatSched},
    {"ring0.exit", kCatSched},

    {"tlb.fill", kCatMem},
    {"tlb.shootdown", kCatMem},
    {"tlb.flush", kCatMem},

    {"rtcall.enter", kCatRtcall},
    {"rtcall.exit", kCatRtcall},

    {"decode.page", kCatEngine},
    {"decode.invalidate", kCatEngine},

    {"snapshot.save", kCatSnapshot},
    {"snapshot.restore", kCatSnapshot},
};

static_assert(sizeof(kKinds) / sizeof(kKinds[0]) ==
                  static_cast<std::size_t>(TraceKind::NumKinds),
              "kKinds table out of sync with TraceKind");

struct CatInfo {
    const char *name;
    TraceCat cat;
};

const CatInfo kCats[] = {
    {"signal", kCatSignal}, {"shred", kCatShred},
    {"sched", kCatSched},   {"mem", kCatMem},
    {"rtcall", kCatRtcall}, {"engine", kCatEngine},
    {"snapshot", kCatSnapshot},
};

} // namespace

const char *
traceKindName(TraceKind kind)
{
    auto idx = static_cast<std::size_t>(kind);
    MISP_ASSERT(idx < static_cast<std::size_t>(TraceKind::NumKinds));
    return kKinds[idx].name;
}

TraceCat
traceKindCat(TraceKind kind)
{
    auto idx = static_cast<std::size_t>(kind);
    MISP_ASSERT(idx < static_cast<std::size_t>(TraceKind::NumKinds));
    return kKinds[idx].cat;
}

const char *
traceCatName(TraceCat cat)
{
    for (const CatInfo &c : kCats) {
        if (c.cat == cat)
            return c.name;
    }
    return "?";
}

bool
parseTraceCats(const std::string &spec, std::uint32_t *mask,
               std::string *err)
{
    if (spec == "all") {
        *mask = kAllCats;
        return true;
    }
    if (spec == "none") {
        *mask = 0;
        return true;
    }
    if (spec == "default") {
        *mask = kDefaultCats;
        return true;
    }
    std::uint32_t out = 0;
    std::string tok;
    std::istringstream in(spec);
    // Accept comma or whitespace separators.
    while (std::getline(in, tok, ',')) {
        std::istringstream inner(tok);
        std::string name;
        while (inner >> name) {
            bool found = false;
            for (const CatInfo &c : kCats) {
                if (name == c.name) {
                    out |= c.cat;
                    found = true;
                    break;
                }
            }
            if (!found) {
                if (err) {
                    *err = "unknown trace category '" + name +
                           "' (signal shred sched mem rtcall engine "
                           "snapshot | all | none | default)";
                }
                return false;
            }
        }
    }
    *mask = out;
    return true;
}

void
writeChromeTrace(std::ostream &os, std::size_t points,
                 const std::function<TracePoint(std::size_t)> &point)
{
    os << "{\"traceEvents\":[";
    bool first = true;
    auto sep = [&] {
        if (!first)
            os << ",\n";
        else
            os << "\n";
        first = false;
    };
    for (std::size_t pid = 0; pid < points; ++pid) {
        const TracePoint pt = point(pid);
        sep();
        // Escaping: point labels are driver-built from spec identifiers
        // (no quotes/backslashes), but stay safe anyway.
        std::string label;
        for (char c : pt.label) {
            if (c == '"' || c == '\\')
                label += '\\';
            label += c;
        }
        os << "{\"ph\":\"M\",\"pid\":" << pid
           << ",\"name\":\"process_name\",\"args\":{\"name\":\"" << label
           << "\",\"base\":" << pt.buf->base
           << ",\"dropped\":" << pt.buf->dropped
           << ",\"cat_mask\":" << pt.buf->catMask
           << ",\"max_events\":" << pt.buf->maxEvents << "}}";
        for (const TraceEvent &ev : pt.buf->events) {
            auto kind = static_cast<TraceKind>(ev.kind);
            sep();
            os << "{\"ph\":\"i\",\"s\":\"t\",\"pid\":" << pid
               << ",\"tid\":" << ev.sid << ",\"ts\":" << ev.tick
               << ",\"cat\":\"" << traceCatName(traceKindCat(kind))
               << "\",\"name\":\"" << traceKindName(kind)
               << "\",\"args\":{\"seq\":" << ev.seq
               << ",\"aux\":" << ev.aux << ",\"arg0\":" << ev.arg0
               << ",\"arg1\":" << ev.arg1 << "}}";
        }
    }
    os << "\n],\"displayTimeUnit\":\"ns\"}\n";
}

} // namespace misp::obs
