#include "scenarios/constrained.h"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "common/stopwatch.h"
#include "core/partition_merge.h"
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

// A constrained merge's per-partition traversal: the sublayer-pruning
// traversal below, or nullopt when every sublayer box misses the box.
PartitionTraversal ConstrainedTraversal(const ConstrainedQuery& query) {
  return [&query](const DualLayerIndex& part, std::size_t k,
                  const ExecBudget& budget) -> std::optional<TopKResult> {
    const std::vector<SublayerSummary>& catalog = part.sublayer_catalog();
    const bool overlaps =
        std::any_of(catalog.begin(), catalog.end(), [&](const auto& group) {
          return query.box.Intersects(group.bbox_lo, group.bbox_hi);
        });
    if (!overlaps) return std::nullopt;
    ConstrainedQuery sub = query;
    sub.k = k;
    sub.budget = budget;
    return ConstrainedTopK(part, sub);
  };
}

// Can a unit with bound `bound` still change the heap's answer? Ties
// must stay open: an equal-score member with a smaller id would
// displace the current worst. KthScore is +inf while the heap fills
// and -inf at k = 0, which opens nothing.
bool FrontierOpen(const TopKHeap& heap, double bound) {
  return bound <= heap.KthScore();
}

}  // namespace

TopKResult ConstrainedTopK(const DualLayerIndex& index,
                           const ConstrainedQuery& query) {
  Stopwatch timer;
  TopKResult result;
  if (Status status = ValidateConstrained(query, index.points().dim());
      !status.ok()) {
    return InvalidQueryResult(status);
  }

  // Sublayer groups in ascending corner-bound order. The corner is the
  // group's componentwise-min box corner, so its score lower-bounds
  // every member under the non-negative weights ValidateQuery admits.
  const std::vector<SublayerSummary>& catalog = index.sublayer_catalog();
  using Entry = std::pair<double, std::size_t>;  // (bound, catalog slot)
  std::vector<Entry> entries;
  entries.reserve(catalog.size());
  for (std::size_t g = 0; g < catalog.size(); ++g) {
    entries.emplace_back(Score(query.weights, catalog[g].bbox_lo), g);
  }
  std::sort(entries.begin(), entries.end());

  BudgetGate gate(query.budget);
  TopKHeap heap(query.k);
  for (std::size_t next = 0; next < entries.size(); ++next) {
    const double bound = entries[next].first;
    if (!FrontierOpen(heap, bound)) break;
    if (const Termination stop = gate.Step(result.stats.tuples_evaluated);
        stop != Termination::kComplete) {
      result.items = heap.SortedAscending();
      result.stats.elapsed_seconds = timer.ElapsedSeconds();
      FinalizePartial(result, stop, bound);
      return result;
    }
    const SublayerSummary& group = catalog[entries[next].second];
    if (!query.box.Intersects(group.bbox_lo, group.bbox_hi)) {
      ++result.stats.boxes_pruned;
      continue;
    }
    for (const TupleId id : group.members) {
      const PointView p = index.points()[id];
      if (!query.box.Contains(p)) continue;
      // Definition-9 accounting: only tuples the predicate admits are
      // scored; a containment miss costs comparisons, not a score.
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

TopKResult ConstrainedTopK(const ShardedDualLayerIndex& index,
                           const ConstrainedQuery& query) {
  Stopwatch timer;
  if (Status status = ValidateConstrained(query, index.dim()); !status.ok()) {
    return InvalidQueryResult(status);
  }
  return MergeDualLayerPartitions(index.partitions(), query.weights, query.k,
                                  query.budget, timer, {},
                                  ConstrainedTraversal(query));
}

TopKResult ConstrainedTopK(const TieredDualLayerIndex& index,
                           const ConstrainedQuery& query) {
  Stopwatch timer;
  if (Status status = ValidateConstrained(query, index.dim()); !status.ok()) {
    return InvalidQueryResult(status);
  }

  // The memtable is always fully scanned (it is small by construction:
  // at most memtable_capacity rows), so a later partial stop only has
  // to certify against run bounds.
  TopKResult memtable;
  const PointSet& rows = index.memtable();
  const std::vector<TupleId>& ids = index.memtable_ids();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const PointView p = rows[i];
    if (!query.box.Contains(p)) continue;
    ++memtable.stats.tuples_evaluated;
    memtable.accessed.push_back(ids[i]);
    memtable.items.push_back(ScoredTuple{ids[i], Score(query.weights, p)});
  }
  std::sort(memtable.items.begin(), memtable.items.end(), ResultOrderLess);
  return MergeDualLayerPartitions(index.partitions(), query.weights, query.k,
                                  query.budget, timer, std::move(memtable),
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
