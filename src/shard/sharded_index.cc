#include "shard/sharded_index.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <optional>
#include <utility>

#include "common/parallel_for.h"
#include "common/random.h"
#include "common/stopwatch.h"

namespace drli {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// One entry of the scatter-gather merge heap. Bound entries (kind 0)
// stand in for a whole unopened shard at its corner lower bound; item
// entries (kind 1) are the cursor over one opened shard's result list.
struct MergeEntry {
  double score;
  std::uint32_t kind;  // 0 = shard bound, 1 = item cursor
  std::uint32_t tie;   // bound: shard id; item: global tuple id
  std::uint32_t shard;
  std::uint32_t pos;  // item: position in the opened shard's list
};

// Heap comparator ("a orders after b") for a min-heap via
// std::push_heap/pop_heap. Bounds order before items of equal score --
// a shard must be opened before any tuple at its bound may be emitted,
// otherwise an equal-scoring, smaller-id tuple hiding in that shard
// would break the canonical tie order. Items of equal score order by
// global id, which is exactly ResultOrderLess.
struct MergeEntryAfter {
  bool operator()(const MergeEntry& a, const MergeEntry& b) const {
    if (a.score != b.score) return a.score > b.score;
    if (a.kind != b.kind) return a.kind > b.kind;
    return a.tie > b.tie;
  }
};

}  // namespace

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
  index.members_ = PartitionPoints(points, shards, options.partitioner,
                                   options.partition_seed);
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
            DualLayerIndex::Build(points.Subset(index.members_[s]),
                                  shard_options));
      },
      options.build_threads);
  index.build_stats_.build_wall_seconds = phase.ElapsedSeconds();

  index.shards_.reserve(shards);
  index.build_stats_.min_shard_points = index.total_points_;
  for (std::size_t s = 0; s < shards; ++s) {
    index.build_stats_.build_cpu_seconds +=
        built[s]->build_stats().build_seconds;
    index.build_stats_.min_shard_points =
        std::min(index.build_stats_.min_shard_points, index.members_[s].size());
    index.build_stats_.max_shard_points =
        std::max(index.build_stats_.max_shard_points, index.members_[s].size());
    index.shards_.push_back(std::move(*built[s]));
  }
  index.ComputeShardBounds();

  if (!options.name.empty()) {
    index.name_ = options.name;
  } else {
    index.name_ = shard_options.build_zero_layer ? "SDL+" : "SDL";
    index.name_ += "x" + std::to_string(shards);
    index.name_ +=
        options.partitioner == ShardPartitioner::kHyperplane ? "h" : "r";
  }
  index.build_stats_.total_seconds = total.ElapsedSeconds();
  return index;
}

void ShardedDualLayerIndex::ComputeShardBounds() {
  // Per shard, a set of corner points that collectively dominate every
  // tuple: the shard's skyline (coarse layer 1 -- every deeper tuple is
  // dominated by a skyline member through the iterated-skyline chain),
  // chunked along the first coordinate into at most
  // kMaxBoundPointsPerShard groups, one componentwise-min corner per
  // group. Small skylines keep one corner per member, making the bound
  // the shard's exact minimum score; the chunking only kicks in to cap
  // the per-query bound cost.
  bound_values_.clear();
  bound_offsets_.assign(1, 0);
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const PointSet& pts = shards_[s].points();
    if (pts.size() > 0) {
      std::vector<TupleId> sky = shards_[s].coarse_layers().front();
      std::stable_sort(sky.begin(), sky.end(), [&](TupleId a, TupleId b) {
        return pts[a][0] < pts[b][0] || (pts[a][0] == pts[b][0] && a < b);
      });
      const std::size_t groups =
          std::min(kMaxBoundPointsPerShard, sky.size());
      const std::size_t base = sky.size() / groups;
      const std::size_t extra = sky.size() % groups;
      std::size_t cursor = 0;
      for (std::size_t g = 0; g < groups; ++g) {
        const std::size_t take = base + (g < extra ? 1 : 0);
        const std::size_t begin = bound_values_.size();
        bound_values_.insert(bound_values_.end(), dim_, kInf);
        for (std::size_t i = 0; i < take; ++i) {
          const PointView p = pts[sky[cursor + i]];
          for (std::size_t d = 0; d < dim_; ++d) {
            bound_values_[begin + d] = std::min(bound_values_[begin + d], p[d]);
          }
        }
        cursor += take;
      }
    }
    bound_offsets_.push_back(bound_values_.size());
  }
}

double ShardedDualLayerIndex::ShardLowerBound(std::size_t s,
                                              PointView weights) const {
  // Minimum corner score. Sound in floating point, not just over the
  // reals: Score accumulates left-to-right with the same association
  // everywhere and rounding is monotone, so lowering any coordinate
  // can never raise the computed score -- a corner therefore scores no
  // higher than any tuple its group dominates.
  double bound = kInf;
  for (std::size_t at = bound_offsets_[s]; at < bound_offsets_[s + 1];
       at += dim_) {
    bound =
        std::min(bound, Score(weights, PointView(&bound_values_[at], dim_)));
  }
  return bound;
}

TopKResult ShardedDualLayerIndex::Query(const TopKQuery& query) const {
  Stopwatch timer;
  {
    const Status status = ValidateQuery(query, dim_);
    if (!status.ok()) return InvalidQueryResult(status);
  }
  TopKResult result;
  if (query.k == 0 || total_points_ == 0) {
    FinalizeComplete(result);
    result.stats.elapsed_seconds = timer.ElapsedSeconds();
    return result;
  }

  const PointView w(query.weights);
  std::vector<MergeEntry> heap;
  heap.reserve(shards_.size() + 2);
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (members_[s].empty()) continue;
    heap.push_back(MergeEntry{ShardLowerBound(s, w), 0,
                              static_cast<std::uint32_t>(s),
                              static_cast<std::uint32_t>(s), 0});
  }
  std::make_heap(heap.begin(), heap.end(), MergeEntryAfter{});

  // Result lists of opened shards, ids already mapped to global.
  std::vector<std::vector<ScoredTuple>> open(shards_.size());
  Termination reason = Termination::kComplete;
  double stop_floor = kInf;
  bool stopped = false;

  while (result.items.size() < query.k && !heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), MergeEntryAfter{});
    const MergeEntry entry = heap.back();
    heap.pop_back();

    if (entry.kind == 1) {
      const std::vector<ScoredTuple>& items = open[entry.shard];
      result.items.push_back(items[entry.pos]);
      if (entry.pos + 1 < items.size()) {
        const ScoredTuple& next = items[entry.pos + 1];
        heap.push_back(
            MergeEntry{next.score, 1, next.id, entry.shard, entry.pos + 1});
        std::push_heap(heap.begin(), heap.end(), MergeEntryAfter{});
      }
      continue;
    }

    // The merge frontier reached this shard's corner bound: open it.
    ExecBudget sub;
    reason = RemainingBudget(query.budget, result.stats.tuples_evaluated,
                             timer, &sub);
    if (reason != Termination::kComplete) {
      stop_floor = entry.score;  // the shard we could not afford to open
      stopped = true;
      break;
    }
    const std::vector<TupleId>& members = members_[entry.shard];
    TopKQuery shard_query;
    shard_query.weights = query.weights;
    shard_query.k = std::min(query.k, members.size());
    shard_query.budget = sub;
    TopKResult shard_result = shards_[entry.shard].Query(shard_query);

    ++result.stats.shards_touched;
    result.stats.tuples_evaluated += shard_result.stats.tuples_evaluated;
    result.stats.virtual_evaluated += shard_result.stats.virtual_evaluated;
    result.stats.scratch_seeds += shard_result.stats.scratch_seeds;
    for (const TupleId local : shard_result.accessed) {
      result.accessed.push_back(members[local]);
    }
    if (shard_result.termination == Termination::kError ||
        shard_result.termination == Termination::kInvalidQuery) {
      result.items.clear();
      result.termination = Termination::kError;
      result.error = "shard " + std::to_string(entry.shard) + ": " +
                     (shard_result.error.empty()
                          ? std::string(TerminationName(shard_result.termination))
                          : shard_result.error);
      result.certified_prefix = 0;
      result.frontier_bound = -kInf;
      result.stats.elapsed_seconds = timer.ElapsedSeconds();
      return result;
    }
    for (ScoredTuple& item : shard_result.items) item.id = members[item.id];

    if (!shard_result.complete()) {
      // The shard's budget tripped mid-traversal. None of its items are
      // merged; instead the whole shard is bounded by the smaller of
      // its frontier and its best returned score, and the merge stops.
      double floor = shard_result.frontier_bound;
      if (!shard_result.items.empty()) {
        floor = std::min(floor, shard_result.items.front().score);
      }
      stop_floor = floor;
      reason = shard_result.termination;
      stopped = true;
      break;
    }

    open[entry.shard] = std::move(shard_result.items);
    const ScoredTuple& first = open[entry.shard].front();
    heap.push_back(MergeEntry{first.score, 1, first.id, entry.shard, 0});
    std::push_heap(heap.begin(), heap.end(), MergeEntryAfter{});
  }

  if (!stopped) {
    FinalizeComplete(result);
  } else {
    // Every unreturned tuple lives (a) in the shard that stopped or was
    // unaffordable -- bounded by stop_floor, (b) in a shard still
    // represented by a bound entry, (c) after the cursor of an opened
    // shard's list, or (d) past the end of an opened shard's k_s items,
    // in which case k_s = k and the k_s-th score >= the live cursor
    // entry. Cases (b)-(d) are all covered by the surviving heap keys.
    double bound = stop_floor;
    for (const MergeEntry& e : heap) bound = std::min(bound, e.score);
    FinalizePartial(result, reason, bound);
  }
  result.stats.elapsed_seconds = timer.ElapsedSeconds();
  return result;
}

std::vector<TopKResult> ShardedDualLayerIndex::QueryBatch(
    const std::vector<TopKQuery>& queries) const {
  std::vector<TopKResult> results(queries.size());
  ParallelFor(queries.size(), [&](std::size_t i, std::size_t) {
    results[i] = GuardedQuery([&] { return Query(queries[i]); });
  });
  return results;
}

}  // namespace drli
