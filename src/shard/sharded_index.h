// Sharded DL+ serving: partition the relation into S independent
// shards, build one DualLayerIndex per shard (genuinely in parallel --
// shard builds share nothing, so S cores give ~S-way build speedup,
// and the superlinear per-shard build cost means even a single core
// wins), and answer top-k by scatter-gather.
//
// Each shard is a DualLayerPartition (core/partition_merge.h): its
// index, its ascending global member ids and its bound points. Query
// processing is the partitions' one open rule, MergeDualLayerPartitions,
// bounded by each shard's exact top-1 score (the minimum over its
// SkylineCorners points). The engine makes its PartitionSet -- every
// shard's bound points in one block -- once, at Build and at the end of
// LoadShardedIndex; a query scores that block in one fused pass and
// builds nothing per shard. A shard is opened -- its DL+ index queried
// for min(k, |shard|) items -- only when its bound reaches the merge
// frontier, so with selective partitions (hyperplane split) most
// queries touch a small fraction of S; stats.shards_touched counts the
// shards that ran. Budgets compose across shards by remainder.

#ifndef DRLI_SHARD_SHARDED_INDEX_H_
#define DRLI_SHARD_SHARDED_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/point.h"
#include "common/status.h"
#include "core/dual_layer.h"
#include "core/partition_merge.h"
#include "topk/query.h"

namespace drli {

// How tuples are assigned to shards. Both are deterministic functions
// of (points, num_shards, partition_seed).
enum class ShardPartitioner : std::uint8_t {
  // Uniform random assignment (seeded). Shards are statistically
  // identical, so every query touches most shards -- the baseline that
  // isolates build parallelism from pruning.
  kRandom = 0,
  // Sort by the all-ones projection sum_i x_i and cut into S equal
  // slabs. The diagonal correlates with every positive weight vector
  // (w · x >= min_i(w_i)/1 * sum x_i bounds hold per-coordinate), so
  // low slabs hold the strong tuples for all queries and high slabs
  // are pruned by their corner bounds.
  kHyperplane = 1,
};

const char* ShardPartitionerName(ShardPartitioner partitioner);
// Parses "random" / "hyperplane" (case-sensitive, lowercase).
StatusOr<ShardPartitioner> ParseShardPartitioner(const std::string& name);

struct ShardedBuildOptions {
  std::size_t num_shards = 4;
  ShardPartitioner partitioner = ShardPartitioner::kHyperplane;
  std::uint64_t partition_seed = 42;

  // Per-shard DL/DL+ options. build_threads is ignored inside a shard:
  // shard builds always run serially and the *outer* loop over shards
  // parallelizes, which keeps the sharded build bit-identical across
  // thread counts (and is also the faster schedule -- shards are the
  // coarsest independent tasks available).
  DualLayerOptions shard_options;

  // Worker threads for the outer loop: 0 = DRLI_THREADS env /
  // hardware concurrency, 1 = serial.
  std::size_t build_threads = 0;

  // Display name; empty = "SDL+xS" / "SDLxS" (+ "h" for hyperplane).
  std::string name;
};

struct ShardedBuildStats {
  double partition_seconds = 0.0;
  // Wall clock of the parallel shard-build loop, and the sum of the
  // individual shard builds' build_seconds (the serial-equivalent
  // cost). cpu / wall ≈ the achieved build parallelism.
  double build_wall_seconds = 0.0;
  double build_cpu_seconds = 0.0;
  double total_seconds = 0.0;
  std::size_t min_shard_points = 0;
  std::size_t max_shard_points = 0;
};

// The deterministic shard assignment: members[s] lists the global
// tuple ids of shard s in ascending order. Ascending membership makes
// each shard's local (score, local-id) order agree with the global
// (score, global-id) order, which is what keeps the scatter-gather
// merge bit-identical to the unsharded answer under the canonical
// tie-break. Exposed for tests.
std::vector<std::vector<TupleId>> PartitionPoints(
    const PointSet& points, std::size_t num_shards,
    ShardPartitioner partitioner, std::uint64_t partition_seed);

class ShardedDualLayerIndex final : public TopKIndex {
 public:
  static ShardedDualLayerIndex Build(PointSet points,
                                     const ShardedBuildOptions& options = {});

  ShardedDualLayerIndex(ShardedDualLayerIndex&&) = default;
  ShardedDualLayerIndex& operator=(ShardedDualLayerIndex&&) = default;

  std::string name() const override { return name_; }
  std::size_t size() const override { return total_points_; }

  // Scatter-gather merge; bit-identical to the unsharded index's answer
  // (items, canonical order) for any shard count and partitioner.
  // stats.shards_touched reports how many shards actually ran;
  // stats.tuples_evaluated sums the per-shard traversal costs.
  TopKResult Query(const TopKQuery& query) const override;

  // --- introspection (tests, serialization, bench) ---
  std::size_t num_shards() const { return shards_.size(); }
  std::size_t dim() const override { return dim_; }
  const DualLayerIndex& shard(std::size_t s) const { return shards_[s].index; }
  // Ascending global ids of shard s: the inverse of its local id space.
  const std::vector<TupleId>& shard_members(std::size_t s) const {
    return shards_[s].ids;
  }
  // The shards as the plain merge and the constrained forest walk see
  // them; made once per engine.
  const PartitionSet& partitions() const { return partitions_; }
  ShardPartitioner partitioner() const { return partitioner_; }
  std::uint64_t partition_seed() const { return partition_seed_; }
  const ShardedBuildStats& build_stats() const { return build_stats_; }
  // The merge's lower bound on every score in shard s for weight
  // vector w: the shard's exact top-1 score, the minimum Score over
  // its SkylineCorners points.
  double ShardLowerBound(std::size_t s, PointView weights) const;

 private:
  friend StatusOr<ShardedDualLayerIndex> LoadShardedIndex(
      const std::string& path, const struct ShardedLoadOptions& options);

  ShardedDualLayerIndex() = default;

  // Makes partitions_ over shards_; the build and the loader call it
  // last.
  void MakePartitions();

  std::string name_;
  std::size_t dim_ = 0;
  std::size_t total_points_ = 0;
  ShardPartitioner partitioner_ = ShardPartitioner::kHyperplane;
  std::uint64_t partition_seed_ = 0;
  ShardedBuildStats build_stats_;

  std::vector<DualLayerPartition> shards_;
  PartitionSet partitions_;  // points into shards_' heap buffer
};

}  // namespace drli

#endif  // DRLI_SHARD_SHARDED_INDEX_H_
