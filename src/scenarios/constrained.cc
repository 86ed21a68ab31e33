#include "scenarios/constrained.h"

#include <algorithm>
#include <cstddef>
#include <functional>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "common/stopwatch.h"
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

// Can a unit with bound `bound` still change the heap's answer? Ties
// must stay open: an equal-score member with a smaller id would
// displace the current worst. KthScore is +inf while the heap fills
// and -inf at k = 0, which opens nothing.
bool FrontierOpen(const TopKHeap& heap, double bound) {
  return bound <= heap.KthScore();
}

// The best-first box-tree traversal over one DL+ index (header
// comment).
TopKResult BoxTreeTopK(const DualLayerIndex& index,
                       const ConstrainedQuery& query) {
  Stopwatch timer;
  TopKResult result;
  if (Status status = ValidateConstrained(query, index.points().dim());
      !status.ok()) {
    return InvalidQueryResult(status);
  }

  // Tree nodes, best first by the score of the corner max(lo, box.lo)
  // (header comment). A node whose box misses the query box is never
  // enqueued.
  const BoxTree& tree = index.box_tree();
  const std::size_t d = index.points().dim();
  Point corner(d);
  using Entry = std::pair<double, std::size_t>;  // (key, node)
  std::vector<Entry> frontier;
  const auto enqueue = [&](std::size_t node) {
    const PointView lo = tree.lo(node);
    if (!query.box.Intersects(lo, tree.hi(node))) {
      ++result.stats.boxes_pruned;
      return;
    }
    for (std::size_t a = 0; a < d; ++a) {
      corner[a] = std::max(lo[a], query.box.lo[a]);
    }
    frontier.emplace_back(Score(query.weights, corner), node);
    std::push_heap(frontier.begin(), frontier.end(), std::greater<>());
  };
  if (!tree.empty()) enqueue(0);

  BudgetGate gate(query.budget);
  TopKHeap heap(query.k);
  while (!frontier.empty()) {
    const auto [bound, node] = frontier.front();
    if (!FrontierOpen(heap, bound)) break;
    if (const Termination stop = gate.Step(result.stats.tuples_evaluated);
        stop != Termination::kComplete) {
      result.items = heap.SortedAscending();
      result.stats.elapsed_seconds = timer.ElapsedSeconds();
      FinalizePartial(result, stop, bound);
      return result;
    }
    std::pop_heap(frontier.begin(), frontier.end(), std::greater<>());
    frontier.pop_back();
    if (!tree.is_leaf(node)) {
      enqueue(tree.left(node));
      enqueue(tree.left(node) + 1);
      continue;
    }
    for (const TupleId id : tree.members(node)) {
      const PointView p = index.points()[id];
      if (index.retired(id) || !query.box.Contains(p)) continue;
      // Definition-9 accounting: only live tuples the predicate admits
      // are scored; a retired member or a containment miss costs
      // comparisons, not a score.
      ++result.stats.tuples_evaluated;
      result.accessed.push_back(id);
      heap.Push(ScoredTuple{id, Score(query.weights, p)});
    }
  }

  result.items = heap.SortedAscending();
  result.stats.elapsed_seconds = timer.ElapsedSeconds();
  FinalizeComplete(result);
  return result;
}

// A constrained merge's per-partition traversal: BoxTreeTopK, or
// nullopt when the tree's root box misses the box.
PartitionTraversal ConstrainedTraversal(const ConstrainedQuery& query) {
  return [&query](const DualLayerIndex& part, std::size_t k,
                  const ExecBudget& budget) -> std::optional<TopKResult> {
    const BoxTree& tree = part.box_tree();
    if (tree.empty() || !query.box.Intersects(tree.lo(0), tree.hi(0))) {
      return std::nullopt;
    }
    ConstrainedQuery sub = query;
    sub.k = k;
    sub.budget = budget;
    return BoxTreeTopK(part, sub);
  };
}

}  // namespace

TopKResult ConstrainedTopK(const TopKIndex& engine,
                           const ConstrainedQuery& query) {
  // The one place that tells the DL+ engines apart.
  if (const auto* dl = dynamic_cast<const DualLayerIndex*>(&engine)) {
    return BoxTreeTopK(*dl, query);
  }
  Stopwatch timer;
  if (Status status = ValidateConstrained(query, engine.dim()); !status.ok()) {
    return InvalidQueryResult(status);
  }
  if (const auto* sharded =
          dynamic_cast<const ShardedDualLayerIndex*>(&engine)) {
    return MergeDualLayerPartitions(sharded->partitions(), query.weights,
                                    query.k, query.budget, timer, {},
                                    ConstrainedTraversal(query));
  }
  const auto* tiered = dynamic_cast<const TieredDualLayerIndex*>(&engine);
  if (tiered == nullptr) {
    return InvalidQueryResult(Status::InvalidArgument(
        "constrained top-k needs a dl+, sdl+ or tdl+ engine (engine is " +
        engine.name() + ")"));
  }
  // The memtable is always fully scanned (it is small by construction:
  // at most memtable_capacity rows), so a later partial stop only has
  // to certify against run bounds.
  return MergeDualLayerPartitions(
      tiered->partitions(), query.weights, query.k, query.budget, timer,
      OpenRows(tiered->memtable(), tiered->memtable_ids(), query.weights,
               query.k,
               [&query](PointView row) { return query.box.Contains(row); }),
      ConstrainedTraversal(query));
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
