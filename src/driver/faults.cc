#include "driver/faults.hh"

#include <cctype>
#include <cstdio>
#include <cstdlib>

#include "driver/spec.hh"

namespace misp::driver {

namespace {

/**
 * splitmix64 finalizer. The supervised backend must pick the same
 * faulted points on every run of the same plan, on every platform, so
 * probability rules use this fixed mix instead of std::hash (whose
 * output is implementation-defined).
 */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

bool
parseKind(const std::string &name, FaultKind *out)
{
    if (name == "crash")
        *out = FaultKind::Crash;
    else if (name == "hang")
        *out = FaultKind::Hang;
    else if (name == "corrupt_pipe")
        *out = FaultKind::CorruptPipe;
    else if (name == "corrupt_snapshot")
        *out = FaultKind::CorruptSnapshot;
    else if (name == "fork_fail")
        *out = FaultKind::ForkFail;
    else
        return false;
    return true;
}

bool
parseProbability(const std::string &text, double *out, std::string *err)
{
    // "p0.5" — everything after the 'p' must parse as a float in
    // [0, 1].
    const std::string body = text.substr(1);
    char *end = nullptr;
    double p = std::strtod(body.c_str(), &end);
    if (body.empty() || end == nullptr || *end != '\0' || p < 0.0 ||
        p > 1.0) {
        *err = "bad probability '" + text + "' (want p<float in [0,1]>)";
        return false;
    }
    *out = p;
    return true;
}

bool
parseIndexList(const std::string &text, std::vector<std::size_t> *out,
               std::string *err)
{
    std::vector<std::string> values;
    std::string verr;
    if (!expandValues(text, &values, &verr) || values.empty()) {
        *err = "bad point list '" + text + "'" +
               (verr.empty() ? "" : " (" + verr + ")");
        return false;
    }
    for (const std::string &v : values) {
        std::uint64_t idx = 0;
        // Indices are decimal grid positions — reject hex/octal spellings
        // so `crash@0x3` can't silently mean point 3.
        for (char c : v) {
            if (!std::isdigit(static_cast<unsigned char>(c))) {
                *err = "bad point index '" + v + "' (want a decimal "
                       "grid-point index)";
                return false;
            }
        }
        if (!parseU64(v, &idx)) {
            *err = "bad point index '" + v + "'";
            return false;
        }
        out->push_back(static_cast<std::size_t>(idx));
    }
    return true;
}

} // namespace

const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::Crash: return "crash";
      case FaultKind::Hang: return "hang";
      case FaultKind::CorruptPipe: return "corrupt_pipe";
      case FaultKind::CorruptSnapshot: return "corrupt_snapshot";
      case FaultKind::ForkFail: return "fork_fail";
    }
    return "?";
}

bool
FaultPlan::parseItem(const std::string &rawItem, FaultPlan *out,
                     std::string *err)
{
    const std::string item = trim(rawItem);
    if (item.empty()) {
        *err = "empty fault item";
        return false;
    }

    if (item.rfind("seed=", 0) == 0) {
        std::uint64_t seed = 0;
        if (!parseU64(trim(item.substr(5)), &seed)) {
            *err = "bad fault seed '" + item.substr(5) + "'";
            return false;
        }
        out->seed = seed;
        out->seedSet = true;
        return true;
    }

    const std::size_t at = item.find('@');
    if (at == std::string::npos) {
        *err = "bad fault item '" + item +
               "' (want kind@points, kind@p<prob>, or seed=N)";
        return false;
    }

    FaultRule rule;
    const std::string kindName = trim(item.substr(0, at));
    if (!parseKind(kindName, &rule.kind)) {
        *err = "unknown fault kind '" + kindName +
               "' (want crash, hang, corrupt_pipe, corrupt_snapshot, "
               "or fork_fail)";
        return false;
    }

    std::string target = trim(item.substr(at + 1));

    // Optional attempt bound: `...x2` or `...x*`. Split at the last
    // 'x' only when what follows is all digits or '*' — point lists
    // never contain 'x', so this can't eat part of a valid target.
    const std::size_t x = target.find_last_of('x');
    if (x != std::string::npos) {
        const std::string suffix = target.substr(x + 1);
        bool bound = !suffix.empty();
        for (char c : suffix)
            if (!std::isdigit(static_cast<unsigned char>(c)))
                bound = false;
        if (suffix == "*")
            bound = true;
        if (bound) {
            if (suffix == "*") {
                rule.times = FaultRule::kAlways;
            } else {
                unsigned n = 0;
                if (!parseUnsigned(suffix, &n) || n == 0) {
                    *err = "bad attempt bound 'x" + suffix +
                           "' (want xN with N >= 1, or x*)";
                    return false;
                }
                rule.times = n;
            }
            target = trim(target.substr(0, x));
        }
    }

    if (target.empty()) {
        *err = "fault item '" + item + "' has no target";
        return false;
    }

    if (target[0] == 'p' && target.size() > 1 &&
        !std::isalpha(static_cast<unsigned char>(target[1]))) {
        if (!parseProbability(target, &rule.probability, err))
            return false;
    } else if (!parseIndexList(target, &rule.points, err)) {
        return false;
    }

    out->rules.push_back(std::move(rule));
    return true;
}

bool
FaultPlan::parse(const std::string &spec, FaultPlan *out, std::string *err)
{
    std::size_t pos = 0;
    bool any = false;
    while (pos <= spec.size()) {
        std::size_t sep = spec.find(';', pos);
        if (sep == std::string::npos)
            sep = spec.size();
        const std::string item = trim(spec.substr(pos, sep - pos));
        pos = sep + 1;
        if (item.empty())
            continue;
        if (!parseItem(item, out, err))
            return false;
        any = true;
    }
    if (!any) {
        *err = "empty --inject spec";
        return false;
    }
    return true;
}

void
FaultPlan::merge(const FaultPlan &other)
{
    if (other.seedSet) {
        seed = other.seed;
        seedSet = true;
    }
    rules.insert(rules.end(), other.rules.begin(), other.rules.end());
}

bool
FaultPlan::faultFor(std::size_t point, unsigned attempt,
                    FaultKind *kind) const
{
    for (std::size_t i = 0; i < rules.size(); ++i) {
        const FaultRule &rule = rules[i];
        if (rule.times != FaultRule::kAlways && attempt > rule.times)
            continue;
        bool hit = false;
        if (!rule.points.empty()) {
            for (std::size_t p : rule.points)
                if (p == point)
                    hit = true;
        } else {
            // Deterministic coin flip: hash (seed, rule, point) into
            // [0, 1). The attempt number is deliberately excluded so a
            // probabilistic fault is stable across retries of a point.
            const std::uint64_t h =
                mix64(seed ^ mix64(i + 1) ^ mix64(point * 2 + 1));
            const double u =
                static_cast<double>(h >> 11) / 9007199254740992.0;
            hit = u < rule.probability;
        }
        if (hit) {
            *kind = rule.kind;
            return true;
        }
    }
    return false;
}

std::string
FaultPlan::toString() const
{
    std::string out;
    if (seedSet)
        out += "seed=" + std::to_string(seed);
    for (const FaultRule &rule : rules) {
        if (!out.empty())
            out += ";";
        out += faultKindName(rule.kind);
        out += "@";
        if (rule.points.empty()) {
            char buf[32];
            std::snprintf(buf, sizeof buf, "p%g", rule.probability);
            out += buf;
        } else {
            for (std::size_t i = 0; i < rule.points.size(); ++i) {
                if (i)
                    out += ",";
                out += std::to_string(rule.points[i]);
            }
        }
        if (rule.times != FaultRule::kAlways)
            out += "x" + std::to_string(rule.times);
    }
    return out;
}

} // namespace misp::driver
