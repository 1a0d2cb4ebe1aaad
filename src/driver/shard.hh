/**
 * @file
 * Sharded sweeps with deterministic merge: `mispsim --shard k/N` runs
 * an Nth of a scenario grid and writes its points' RunRecords as a
 * shard image; `mispsim --merge-frames OUT IN...` reassembles the
 * images into the full grid's results and finishes them exactly like
 * a serial run, so OUT is byte-identical to the serial `--metrics`.
 *
 * The partition is by *coordinate-combination* index, not raw point
 * index: combination j (one value per sweep axis) goes to shard
 * j % N, and a combination's points — one per machine, the grid's
 * innermost loop — travel together. Shard points keep their *global*
 * grid indices (a shard's frame holds its own combinations, and a
 * row's grid index is its combination x machines + machine), so
 * snapshot image names and fault-plan targets compose with a shard
 * exactly as with the full run.
 *
 * A shard image is a snap::Serializer container (magic, version,
 * per-section CRCs) with two sections: a header (scenario name, quick
 * flag, k, N, full-grid point count, grid config hash, the owned
 * global indices) and the owned points' snap::encodeRunRecord bytes,
 * in index order. Only measured records travel: the merge takes every
 * point's coordinates from the grid it expands itself.
 *
 * Merging is fail-closed: every image's scenario name, quick flag,
 * shard arity, grid size, and config hash must match the scenario
 * the merger expanded, the shard index sets must be disjoint and
 * cover the grid (overlaps and gaps are detected and named), and
 * each index set must be the deterministic partition. Every
 * diagnostic names the offending file.
 */

#ifndef MISP_DRIVER_SHARD_HH
#define MISP_DRIVER_SHARD_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "driver/runner.hh"
#include "driver/scenario.hh"

namespace misp::driver {

/** `--shard k/N`: this process owns coordinate combinations
 *  j % count == index. */
struct ShardSpec {
    std::size_t index = 0;
    std::size_t count = 1;
};

/** Parse "k/N" (0 <= k < N, N >= 1). False + diagnostic on junk. */
bool parseShardSpec(const std::string &text, ShardSpec *out,
                    std::string *err);

/**
 * FNV-1a 64-bit hash over the expanded grid's identity: scenario
 * name, tick budget, and every point's machine, workload, competitor
 * count, and coordinates in grid order. Two shard runs merge only if
 * they hashed the same grid, so images from a different scenario
 * revision fail closed instead of interleaving silently.
 */
std::uint64_t gridConfigHash(const Scenario &sc, const GridTable &grid);

/** The coordinate combinations shard @p shard owns of a grid with
 *  @p combos of them, ascending: j % count == index. ShardSpec{0, 1}
 *  owns them all. */
std::vector<std::uint32_t> shardCombos(const ShardSpec &shard,
                                       std::size_t combos);

/**
 * Global grid indices shard @p shard owns, ascending: the points of
 * every coordinate combination j with j % count == index. The grid
 * is combinations x machines with machines innermost
 * (scenario.cc expandPoints), so point p belongs to combination
 * p / @p machinesPerCombo.
 */
std::vector<std::size_t> shardPointIndices(const ShardSpec &shard,
                                           std::size_t totalPoints,
                                           std::size_t machinesPerCombo);

/** A shard run's identity: the header section of its image. */
struct ShardHeader {
    std::string scenario;
    bool quick = false;
    ShardSpec shard;
    std::size_t points = 0; ///< full-grid point count
    std::uint64_t configHash = 0;
    std::vector<std::size_t> indices; ///< owned global grid indices
};

/** The header of shard @p shard of @p grid (the grid of @p sc under
 *  @p quick). */
ShardHeader makeShardHeader(const Scenario &sc, bool quick,
                            const ShardSpec &shard, const GridTable &grid);

/** The `--shard` `--metrics` artifact: @p header plus the encoded
 *  RunRecord of each owned point (@p records, parallel to
 *  header.indices: a shard sweep's Sweep::records). */
std::string encodeShardImage(const ShardHeader &header,
                             const std::vector<std::string> &records);

/** One decoded shard image. */
struct ShardDump {
    std::string path; ///< where it was read from (diagnostics)
    ShardHeader header;
    std::vector<harness::RunRecord> records; ///< parallel to indices
};

/** Read and decode one shard image. Fail-closed: a truncated,
 *  corrupt, or foreign image (a snapshot, say) is an error naming
 *  @p path, never a partial dump. */
bool readShardImage(const std::string &path, ShardDump *out,
                    std::string *err);

/**
 * Validate @p dumps against @p grid (the grid of @p sc under @p quick)
 * and store their records into @p out, whose frame is the whole grid's:
 * each record lands in the row of its global index through
 * Sweep::store, as in a serial sweep, with a stats side table when
 * any record carries a dump. Every dump must agree on @p quick. False + a
 * diagnostic naming the offending file on any mismatch: wrong
 * scenario/quick/hash/grid size, inconsistent or duplicate shard
 * specs (overlap), missing shards (gap), or an index set other than
 * the deterministic partition.
 */
bool mergeShardDumps(const Scenario &sc, bool quick,
                     const std::shared_ptr<const GridTable> &grid,
                     std::vector<ShardDump> dumps, Sweep *out,
                     std::string *err);

} // namespace misp::driver

#endif // MISP_DRIVER_SHARD_HH
