#include "driver/shard.hh"

#include <algorithm>
#include <utility>

#include "sim/parse.hh"
#include "snapshot/snapshot.hh"

namespace misp::driver {

namespace {

// Section ids of a shard image; disjoint from a snapshot's, so one
// image can never pass for the other.
constexpr std::uint32_t kSecShardHeader = 64;
constexpr std::uint32_t kSecShardRecords = 65;

/** A shard image: the header section, then the records section (each
 *  owned point's snap::encodeRunRecord bytes, one per header index). */
template <class Ar>
void
archive(Ar &a, ShardHeader &h, std::vector<std::string> &records)
{
    a.section(kSecShardHeader, [&] {
        a.str(h.scenario);
        a.b(h.quick);
        a.u64(h.shard.index);
        a.u64(h.shard.count);
        a.u64(h.points);
        a.u64(h.configHash);
        snap::sequence(a, h.indices, 8, "shard point index",
                       [&](std::size_t &g) { a.u64(g); });
    });
    if constexpr (Ar::kLoading)
        records.resize(h.indices.size());
    a.section(kSecShardRecords, [&] {
        for (std::string &r : records)
            a.str(r);
    });
}

/** "path: message" — every shard diagnostic names its file. */
bool fail(std::string *err, const std::string &path,
          const std::string &message)
{
    if (err)
        *err = path + ": " + message;
    return false;
}

} // namespace

bool
parseShardSpec(const std::string &text, ShardSpec *out,
               std::string *err)
{
    std::size_t slash = text.find('/');
    auto bad = [&](const char *why) {
        if (err)
            *err = std::string("--shard ") + text + ": " + why +
                   " (expected k/N with 0 <= k < N)";
        return false;
    };
    if (slash == std::string::npos)
        return bad("missing '/'");
    std::uint64_t index = 0, count = 0;
    if (!parse::u64(text.substr(0, slash), &index) ||
        !parse::u64(text.substr(slash + 1), &count))
        return bad("malformed or out-of-range field");
    if (count == 0)
        return bad("shard count must be >= 1");
    if (index >= count)
        return bad("shard index out of range");
    out->index = static_cast<std::size_t>(index);
    out->count = static_cast<std::size_t>(count);
    return true;
}

std::uint64_t
gridConfigHash(const Scenario &sc, const GridTable &grid)
{
    snap::Serializer s;
    s.beginSection(0);
    s.str(sc.name);
    s.u64(sc.maxTicks);
    s.u64(grid.combos() * grid.machines.size());
    for (std::size_t combo = 0; combo < grid.combos(); ++combo) {
        for (const std::string &machine : grid.machines) {
            s.str(machine);
            s.str(grid.workloadAt(combo));
            s.u32(grid.competitorsAt(combo));
            s.u64(grid.axes.size());
            for (std::size_t a = 0; a < grid.axes.size(); ++a) {
                s.str(grid.axes[a].key);
                s.str(grid.value(combo, a));
            }
        }
    }
    s.endSection();
    return snap::fnv1a(s.done());
}

std::vector<std::uint32_t>
shardCombos(const ShardSpec &shard, std::size_t combos)
{
    std::vector<std::uint32_t> owned;
    for (std::size_t j = shard.index; j < combos; j += shard.count)
        owned.push_back(static_cast<std::uint32_t>(j));
    return owned;
}

std::vector<std::size_t>
shardPointIndices(const ShardSpec &shard, std::size_t totalPoints,
                  std::size_t machinesPerCombo)
{
    std::vector<std::size_t> owned;
    if (machinesPerCombo == 0)
        return owned;
    for (std::size_t p = 0; p < totalPoints; ++p) {
        if ((p / machinesPerCombo) % shard.count == shard.index)
            owned.push_back(p);
    }
    return owned;
}

ShardHeader
makeShardHeader(const Scenario &sc, bool quick, const ShardSpec &shard,
                const GridTable &grid)
{
    ShardHeader h;
    h.scenario = sc.name;
    h.quick = quick;
    h.shard = shard;
    h.points = grid.combos() * grid.machines.size();
    h.configHash = gridConfigHash(sc, grid);
    h.indices = shardPointIndices(shard, h.points, grid.machines.size());
    return h;
}

std::string
encodeShardImage(const ShardHeader &header,
                 const std::vector<std::string> &records)
{
    ShardHeader h = header;
    snap::Serializer s;
    // Saving only reads the records, so the cast never writes to them.
    archive(s, h, const_cast<std::vector<std::string> &>(records));
    return s.done();
}

bool
readShardImage(const std::string &path, ShardDump *out,
               std::string *err)
{
    std::string image, ioErr;
    if (!snap::readFileBytes(path, &image, &ioErr))
        return fail(err, path, ioErr);
    out->path = path;
    bool shard = false;
    std::vector<std::string> records;
    try {
        snap::load(std::move(image), [&](auto &a) {
            shard = a.hasSection(kSecShardHeader);
            if (shard)
                archive(a, out->header, records);
        });
    } catch (const std::exception &e) {
        // SnapError, plus hostile-size allocation failures: all fail
        // closed.
        return fail(err, path, std::string("corrupt shard image: ") +
                                   e.what());
    }
    if (!shard)
        return fail(err, path, "not a shard image (no shard header)");
    out->records.clear();
    for (std::size_t i = 0; i < records.size(); ++i) {
        std::string recErr;
        if (!snap::decodeRunRecord(records[i], &out->records.emplace_back(),
                                   &recErr))
            return fail(err, path,
                        "record " + std::to_string(i) + ": " + recErr);
    }
    return true;
}

bool
mergeShardDumps(const Scenario &sc, bool quick,
                const std::shared_ptr<const GridTable> &grid,
                std::vector<ShardDump> dumps, Sweep *out, std::string *err)
{
    if (dumps.empty()) {
        if (err)
            *err = "--merge-frames: no input dumps";
        return false;
    }
    const std::uint64_t expectHash = gridConfigHash(sc, *grid);
    const std::size_t points = grid->combos() * grid->machines.size();
    const std::size_t count = dumps[0].header.shard.count;

    for (const ShardDump &dump : dumps) {
        const ShardHeader &h = dump.header;
        if (h.scenario != sc.name)
            return fail(err, dump.path,
                        "scenario \"" + h.scenario +
                            "\" does not match \"" + sc.name + "\"");
        if (h.quick != quick)
            return fail(err, dump.path,
                        std::string("quick mode mismatch (dump is ") +
                            (h.quick ? "quick" : "full") + ")");
        if (h.shard.count != count)
            return fail(err, dump.path,
                        "shard count " + std::to_string(h.shard.count) +
                            " disagrees with " + std::to_string(count));
        if (h.shard.index >= count)
            return fail(err, dump.path, "shard index out of range");
        if (h.points != points)
            return fail(err, dump.path,
                        "grid has " + std::to_string(h.points) +
                            " points, scenario expands to " +
                            std::to_string(points));
        if (h.configHash != expectHash)
            return fail(err, dump.path,
                        "config hash " + std::to_string(h.configHash) +
                            " does not match scenario hash " +
                            std::to_string(expectHash));
    }

    // Shards in index order: a repeated index is an overlap, a skipped
    // one a gap. Nothing is sized by the images' declared count.
    std::vector<const ShardDump *> byShard;
    for (const ShardDump &dump : dumps)
        byShard.push_back(&dump);
    std::stable_sort(byShard.begin(), byShard.end(),
                     [](const ShardDump *a, const ShardDump *b) {
                         return a->header.shard.index <
                                b->header.shard.index;
                     });
    for (std::size_t k = 0; k < count || k < byShard.size(); ++k) {
        if (k < byShard.size() && byShard[k]->header.shard.index < k)
            return fail(err, byShard[k]->path,
                        "overlaps " + byShard[k - 1]->path +
                            " (both claim shard " +
                            std::to_string(k - 1) + "/" +
                            std::to_string(count) + ")");
        if (k == byShard.size() || byShard[k]->header.shard.index > k)
            return fail(err, dumps[0].path,
                        "declares " + std::to_string(count) +
                            " shards: shard " + std::to_string(k) +
                            "/" + std::to_string(count) +
                            " is missing from the inputs (gap)");
    }

    // Per-image index sets must be exactly the deterministic partition
    // — anything else is a gap or overlap inside a shard.
    for (const ShardDump *dump : byShard) {
        if (dump->header.indices !=
            shardPointIndices(dump->header.shard, points,
                              grid->machines.size()))
            return fail(err, dump->path,
                        "shard index set does not match the "
                        "deterministic partition (gap or overlap)");
        if (dump->records.size() != dump->header.indices.size())
            return fail(err, dump->path,
                        std::to_string(dump->records.size()) +
                            " records for " +
                            std::to_string(dump->header.indices.size()) +
                            " indices");
    }

    // The merged frame is the whole grid's, and a record lands in the
    // row of its global index, as it would have in the serial sweep.
    *out = Sweep();
    out->frame = harness::MetricFrame(grid, shardCombos({0, 1}, grid->combos()),
                                      sc.report.baselineMachine);
    for (const ShardDump &dump : dumps) {
        for (const harness::RunRecord &r : dump.records) {
            if (!r.statsJson.empty())
                out->stats.resize(points);
        }
    }
    for (ShardDump &dump : dumps) {
        for (std::size_t i = 0; i < dump.records.size(); ++i)
            out->store(dump.header.indices[i], std::move(dump.records[i]));
    }
    return true;
}

} // namespace misp::driver
