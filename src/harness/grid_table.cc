#include "grid_table.hh"

#include "sim/parse.hh"

namespace misp::harness {

namespace {

template <class T, class Key>
std::size_t
indexOf(const std::vector<T> &items, const Key &key)
{
    for (std::size_t i = 0; i < items.size(); ++i) {
        if (items[i] == key)
            return i;
    }
    return GridTable::npos;
}

} // namespace

std::size_t
GridTable::combos() const
{
    std::size_t n = 1;
    for (const SweepAxis &a : axes)
        n *= a.values.size();
    return n;
}

std::size_t
GridTable::axisOf(std::string_view key) const
{
    for (std::size_t a = 0; a < axes.size(); ++a) {
        if (axes[a].key == key)
            return a;
    }
    return npos;
}

std::size_t
GridTable::machineOf(std::string_view name) const
{
    return indexOf(machines, name);
}

std::size_t
GridTable::valueOf(std::size_t a, std::string_view value) const
{
    return indexOf(axes[a].values, value);
}

std::size_t
GridTable::stride(std::size_t a) const
{
    std::size_t s = 1;
    for (std::size_t b = a + 1; b < axes.size(); ++b)
        s *= axes[b].values.size();
    return s;
}

std::size_t
GridTable::digit(std::size_t combo, std::size_t a) const
{
    return (combo / stride(a)) % axes[a].values.size();
}

std::size_t
GridTable::withDigit(std::size_t combo, std::size_t a, std::size_t v) const
{
    const std::size_t s = stride(a);
    const std::size_t old = (combo / s) % axes[a].values.size();
    return combo - old * s + v * s;
}

const std::string &
GridTable::workloadAt(std::size_t combo) const
{
    const std::size_t a = axisOf("workload.name");
    return a == npos ? workload : value(combo, a);
}

unsigned
GridTable::competitorsAt(std::size_t combo) const
{
    const std::size_t a = axisOf("competitors");
    unsigned n = competitors;
    if (a != npos)
        parse::u32(value(combo, a), &n); // checked by expandPoints
    return n;
}

std::string
GridTable::label(std::size_t combo, char sep) const
{
    std::string out;
    for (std::size_t a = 0; a < axes.size(); ++a) {
        if (a)
            out += sep;
        out += axes[a].key + "=" + value(combo, a);
    }
    return out;
}

} // namespace misp::harness
