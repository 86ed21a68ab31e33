#include "shard/sharded_index.h"

#include <algorithm>
#include <numeric>
#include <optional>
#include <utility>

#include "common/parallel_for.h"
#include "common/random.h"
#include "common/stopwatch.h"

namespace drli {

const char* ShardPartitionerName(ShardPartitioner partitioner) {
  switch (partitioner) {
    case ShardPartitioner::kRandom:
      return "random";
    case ShardPartitioner::kHyperplane:
      return "hyperplane";
  }
  return "unknown";
}

StatusOr<ShardPartitioner> ParseShardPartitioner(const std::string& name) {
  if (name == "random") return ShardPartitioner::kRandom;
  if (name == "hyperplane") return ShardPartitioner::kHyperplane;
  return Status::InvalidArgument("unknown shard partitioner: " + name +
                                 " (expected random|hyperplane)");
}

std::vector<std::vector<TupleId>> PartitionPoints(
    const PointSet& points, std::size_t num_shards,
    ShardPartitioner partitioner, std::uint64_t partition_seed) {
  const std::size_t shards = std::max<std::size_t>(1, num_shards);
  std::vector<std::vector<TupleId>> members(shards);
  const std::size_t n = points.size();
  if (n == 0) return members;

  if (partitioner == ShardPartitioner::kRandom) {
    // Appending in id order keeps every member list ascending.
    Rng rng(partition_seed);
    for (TupleId id = 0; id < n; ++id) {
      members[rng.Index(shards)].push_back(id);
    }
    return members;
  }

  // Hyperplane: order by the all-ones projection and cut into equal
  // slabs, ties broken by id (stable sort) so the split is a pure
  // function of the data.
  std::vector<TupleId> order(n);
  std::iota(order.begin(), order.end(), TupleId{0});
  std::vector<double> keys(n);
  for (std::size_t i = 0; i < n; ++i) {
    const PointView p = points[i];
    double sum = 0.0;
    for (std::size_t d = 0; d < p.size(); ++d) sum += p[d];
    keys[i] = sum;
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](TupleId a, TupleId b) { return keys[a] < keys[b]; });
  const std::size_t base = n / shards;
  const std::size_t extra = n % shards;
  std::size_t cursor = 0;
  for (std::size_t s = 0; s < shards; ++s) {
    const std::size_t take = base + (s < extra ? 1 : 0);
    members[s].assign(order.begin() + cursor, order.begin() + cursor + take);
    std::sort(members[s].begin(), members[s].end());
    cursor += take;
  }
  return members;
}

ShardedDualLayerIndex ShardedDualLayerIndex::Build(
    PointSet points, const ShardedBuildOptions& options) {
  Stopwatch total;
  ShardedDualLayerIndex index;
  index.dim_ = points.dim();
  index.total_points_ = points.size();
  index.partitioner_ = options.partitioner;
  index.partition_seed_ = options.partition_seed;

  const std::size_t shards = std::max<std::size_t>(1, options.num_shards);
  Stopwatch phase;
  std::vector<std::vector<TupleId>> members = PartitionPoints(
      points, shards, options.partitioner, options.partition_seed);
  index.build_stats_.partition_seconds = phase.ElapsedSeconds();

  // The outer loop over shards owns all parallelism; each shard build
  // runs serially. Shard builds are fully independent (each works on
  // its own PointSet subset), so this converts cores into build speedup
  // directly -- and because a serial DL+ build equals a parallel one
  // bit for bit, the sharded build is identical at every thread count.
  DualLayerOptions shard_options = options.shard_options;
  shard_options.build_threads = 1;
  phase.Restart();
  std::vector<std::optional<DualLayerIndex>> built(shards);
  ParallelFor(
      shards,
      [&](std::size_t s, std::size_t) {
        built[s].emplace(
            DualLayerIndex::Build(points.Subset(members[s]), shard_options));
      },
      options.build_threads);
  index.build_stats_.build_wall_seconds = phase.ElapsedSeconds();

  index.shards_.reserve(shards);
  index.build_stats_.min_shard_points = index.total_points_;
  for (std::size_t s = 0; s < shards; ++s) {
    index.build_stats_.build_cpu_seconds +=
        built[s]->build_stats().build_seconds;
    index.build_stats_.min_shard_points =
        std::min(index.build_stats_.min_shard_points, members[s].size());
    index.build_stats_.max_shard_points =
        std::max(index.build_stats_.max_shard_points, members[s].size());
    index.shards_.push_back(
        {std::move(*built[s]), std::move(members[s]), {}});
  }
  // The bound points cost an LP per LP-gated skyline member: a second
  // pass over the same workers, once every shard is built.
  ParallelFor(
      shards,
      [&](std::size_t s, std::size_t) {
        DualLayerPartition& shard = index.shards_[s];
        shard = MakeDualLayerPartition(std::move(shard.index),
                                       std::move(shard.ids));
      },
      options.build_threads);

  index.MakePartitions();

  if (!options.name.empty()) {
    index.name_ = options.name;
  } else {
    index.name_ = shard_options.build_zero_layer ? "SDL+" : "SDL";
    index.name_ += 'x';  // "x" + to_string trips GCC 12's -Wrestrict
    index.name_ += std::to_string(shards);
    index.name_ +=
        options.partitioner == ShardPartitioner::kHyperplane ? "h" : "r";
  }
  index.build_stats_.total_seconds = total.ElapsedSeconds();
  return index;
}

double ShardedDualLayerIndex::ShardLowerBound(std::size_t s,
                                              PointView weights) const {
  return CornerLowerBound(shards_[s].bound_values, weights);
}

void ShardedDualLayerIndex::MakePartitions() {
  std::vector<const DualLayerPartition*> parts;
  std::vector<std::uint32_t> numbers;
  for (const DualLayerPartition& shard : shards_) {
    numbers.push_back(static_cast<std::uint32_t>(parts.size()));
    parts.push_back(&shard);
  }
  partitions_ = MakePartitionSet(dim_, std::move(parts),
                                 &QueryStats::shards_touched, "shard",
                                 std::move(numbers));
}

TopKResult ShardedDualLayerIndex::Query(const TopKQuery& query) const {
  Stopwatch timer;
  if (const Status status = ValidateQuery(query, dim_); !status.ok()) {
    return InvalidQueryResult(status);
  }
  return MergeDualLayerPartitions(partitions_, query.weights, query.k,
                                  query.budget, timer, {});
}

}  // namespace drli
