#include "scenarios/constrained.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/stopwatch.h"
#include "core/best_first.h"
#include "core/dual_layer.h"
#include "core/partition_merge.h"
#include "core/tiered_index.h"
#include "shard/sharded_index.h"
#include "topk/threshold_algorithm.h"

namespace drli {
namespace {

Status ValidateConstrained(const ConstrainedQuery& query, std::size_t dim) {
  TopKQuery base;
  base.weights = query.weights;
  base.k = query.k;
  if (Status status = ValidateQuery(base, dim); !status.ok()) return status;
  return ValidateBox(query.box, dim);
}

// One tree of the forest: a DL+ index and the global id of each of its
// local tuples; `ids` is null when the local ids are global (one index).
struct ForestMember {
  const DualLayerIndex* index;
  const std::vector<TupleId>* ids;
};

// One box-tree node of the forest, keyed by its corner score. The tie
// (member << 32) | node pops a forest of one in node order.
struct NodeUnit {
  double key;
  std::uint64_t tie;
};

// The best-first walk over every member's box tree (header comment):
// a node pops, and the walk ends once its bound exceeds the current
// k-th in-box score (ties stay open: an equal-score member with a
// smaller id would displace the current worst; KthScore is +inf while
// the heap fills and -inf at k = 0, which opens nothing), or stops at
// the popped bound when the budget trips before it is expanded.
// `tiered`, when set, has its memtable's in-box rows scored first;
// `opened`, when set, counts the members whose root was expanded. The
// query is validated by the caller; `k` replaces its k.
TopKResult ForestTopK(std::span<const ForestMember> forest,
                      std::size_t QueryStats::*opened,
                      const TieredDualLayerIndex* tiered,
                      const ConstrainedQuery& query, std::size_t k) {
  Stopwatch timer;
  TopKResult result;
  const PointView weights(query.weights);
  const AttributeBox& box = query.box;
  TopKHeap heap(k);
  // Definition-9 accounting: only live tuples the predicate admits are
  // scored; a retired member or a containment miss costs comparisons,
  // not a score.
  const auto score = [&](TupleId id, PointView p) {
    ++result.stats.tuples_evaluated;
    result.accessed.push_back(id);
    heap.Push(ScoredTuple{id, Score(weights, p)});
  };
  for (std::size_t i = 0; tiered != nullptr && i < tiered->memtable_size();
       ++i) {
    const PointView row = tiered->memtable()[i];
    if (box.Contains(row)) score(tiered->memtable_ids()[i], row);
  }

  // Tree nodes, best first by the score of the corner max(lo, box.lo)
  // (header comment). A node whose box misses the query box is never
  // enqueued.
  const std::size_t d = weights.size();
  Point corner(d);
  BestFirst<NodeUnit> walk;
  const auto enqueue = [&](std::uint64_t member, std::size_t node) {
    const BoxTree& tree = forest[member].index->box_tree();
    const PointView lo = tree.lo(node);
    if (!box.Intersects(lo, tree.hi(node))) {
      ++result.stats.boxes_pruned;
      return;
    }
    for (std::size_t a = 0; a < d; ++a) corner[a] = std::max(lo[a], box.lo[a]);
    walk.Push({Score(weights, corner), member << 32 | node});
  };
  for (std::size_t m = 0; m < forest.size(); ++m) {
    if (!forest[m].index->box_tree().empty()) enqueue(m, 0);
  }

  BudgetGate gate(query.budget);
  const BestFirstEnd end = walk.Run([&](const NodeUnit& unit) {
    if (unit.key > heap.KthScore()) return BestFirstStep::End();
    if (const Termination stop = gate.Step(result.stats.tuples_evaluated);
        stop != Termination::kComplete) {
      return BestFirstStep::Stop(stop, unit.key);
    }
    const std::uint64_t m = unit.tie >> 32;
    const std::size_t node = unit.tie & 0xffffffffu;
    const DualLayerIndex& index = *forest[m].index;
    const BoxTree& tree = index.box_tree();
    if (node == 0 && opened != nullptr) ++(result.stats.*opened);
    if (!tree.is_leaf(node)) {
      enqueue(m, tree.left(node));
      enqueue(m, tree.left(node) + 1);
      return BestFirstStep::Continue();
    }
    for (const TupleId id : tree.members(node)) {
      const PointView p = index.points()[id];
      if (index.retired(id) || !box.Contains(p)) continue;
      score(forest[m].ids == nullptr ? id : (*forest[m].ids)[id], p);
    }
    return BestFirstStep::Continue();
  });

  result.items = heap.SortedAscending();
  result.stats.elapsed_seconds = timer.ElapsedSeconds();
  end.Finalize(result);
  return result;
}

// The forest of a sharded or tiered engine: one member per partition.
std::vector<ForestMember> Members(const PartitionSet& set) {
  std::vector<ForestMember> forest;
  forest.reserve(set.parts.size());
  for (const DualLayerPartition* part : set.parts) {
    forest.push_back({&part->index, &part->ids});
  }
  return forest;
}

}  // namespace

TopKResult ConstrainedTopK(const TopKIndex& engine,
                           const ConstrainedQuery& query) {
  if (Status status = ValidateConstrained(query, engine.dim()); !status.ok()) {
    return InvalidQueryResult(status);
  }
  // Only live rows enter the heap, so a huge k reserves no more.
  const std::size_t k = std::min(query.k, engine.size());
  // The one place that tells the DL+ engines apart.
  if (const auto* dl = dynamic_cast<const DualLayerIndex*>(&engine)) {
    const ForestMember one{dl, nullptr};
    return ForestTopK({&one, 1}, nullptr, nullptr, query, k);
  }
  if (const auto* sharded =
          dynamic_cast<const ShardedDualLayerIndex*>(&engine)) {
    const PartitionSet& set = sharded->partitions();
    return ForestTopK(Members(set), set.opened, nullptr, query, k);
  }
  if (const auto* tiered = dynamic_cast<const TieredDualLayerIndex*>(&engine)) {
    const PartitionSet& set = tiered->partitions();
    return ForestTopK(Members(set), set.opened, tiered, query, k);
  }
  return InvalidQueryResult(Status::InvalidArgument(
      "constrained top-k needs a dl+, sdl+ or tdl+ engine (engine is " +
      engine.name() + ")"));
}

TopKResult ConstrainedScanRows(const PointSet& points,
                               const std::vector<TupleId>& ids,
                               const ConstrainedQuery& query) {
  Stopwatch timer;
  TopKResult result;
  if (Status status = ValidateConstrained(query, points.dim()); !status.ok()) {
    return InvalidQueryResult(status);
  }

  BudgetGate gate(query.budget);
  TopKHeap heap(query.k);
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (const Termination stop = gate.Step(result.stats.tuples_evaluated);
        stop != Termination::kComplete) {
      result.items = heap.SortedAscending();
      result.stats.elapsed_seconds = timer.ElapsedSeconds();
      // Mid-scan there is no bound on the unscanned remainder (same
      // contract as the unconstrained FullScan): certify nothing.
      FinalizePartial(result, stop,
                      -std::numeric_limits<double>::infinity());
      return result;
    }
    const PointView p = points[i];
    if (!query.box.Contains(p)) continue;
    ++result.stats.tuples_evaluated;
    result.accessed.push_back(ids[i]);
    heap.Push(ScoredTuple{ids[i], Score(query.weights, p)});
  }

  result.items = heap.SortedAscending();
  result.stats.elapsed_seconds = timer.ElapsedSeconds();
  FinalizeComplete(result);
  return result;
}

TopKResult ConstrainedTopKScan(const PointSet& points,
                               const ConstrainedQuery& query) {
  std::vector<TupleId> identity(points.size());
  for (std::size_t i = 0; i < identity.size(); ++i) {
    identity[i] = static_cast<TupleId>(i);
  }
  return ConstrainedScanRows(points, identity, query);
}

}  // namespace drli
