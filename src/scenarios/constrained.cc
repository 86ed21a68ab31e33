#include "scenarios/constrained.h"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/stopwatch.h"
#include "core/partition_merge.h"

namespace drli {
namespace {

// Running top-k under the canonical order: a max-heap whose head is
// the worst kept candidate, so an offer either displaces the head or
// is rejected as canonically later than everything kept.
class TopKKeeper {
 public:
  explicit TopKKeeper(std::size_t k) : k_(k) {}

  void Offer(const ScoredTuple& t) {
    if (k_ == 0) return;
    if (heap_.size() < k_) {
      heap_.push_back(t);
      std::push_heap(heap_.begin(), heap_.end(), ResultOrderLess);
      return;
    }
    if (ResultOrderLess(t, heap_.front())) {
      std::pop_heap(heap_.begin(), heap_.end(), ResultOrderLess);
      heap_.back() = t;
      std::push_heap(heap_.begin(), heap_.end(), ResultOrderLess);
    }
  }

  bool full() const { return heap_.size() == k_; }
  // Worst kept candidate; only meaningful when full().
  const ScoredTuple& worst() const { return heap_.front(); }

  std::vector<ScoredTuple> TakeSorted() {
    std::sort(heap_.begin(), heap_.end(), ResultOrderLess);
    return std::move(heap_);
  }

 private:
  std::size_t k_;
  std::vector<ScoredTuple> heap_;
};

Status ValidateConstrained(const ConstrainedQuery& query, std::size_t dim) {
  TopKQuery base;
  base.weights = query.weights;
  base.k = query.k;
  if (Status status = ValidateQuery(base, dim); !status.ok()) return status;
  return ValidateBox(query.box, dim);
}

// Opens one shard or run of a constrained merge: a partition whose
// sublayer boxes all miss the constraint box is pruned unscored
// (boxes_pruned); otherwise its DL+ traversal runs for `k` items under
// `budget` and counts itself in `opened`. Ids come back global, `dead`
// members dropped.
TopKResult OpenConstrained(const DualLayerIndex& part,
                           const std::vector<TupleId>& ids,
                           const std::unordered_set<TupleId>* dead,
                           std::size_t QueryStats::*opened,
                           const ConstrainedQuery& query, std::size_t k,
                           const ExecBudget& budget) {
  const std::vector<SublayerSummary>& catalog = part.sublayer_catalog();
  const bool overlaps =
      std::any_of(catalog.begin(), catalog.end(), [&](const auto& group) {
        return query.box.Intersects(group.bbox_lo, group.bbox_hi);
      });
  if (!overlaps) {
    TopKResult pruned;
    pruned.stats.boxes_pruned = 1;
    FinalizeComplete(pruned);
    return pruned;
  }
  ConstrainedQuery sub = query;
  sub.k = k;
  sub.budget = budget;
  TopKResult local = ConstrainedTopK(part, sub);
  ++(local.stats.*opened);
  MapToGlobal(ids, dead, &local);
  return local;
}

// Can a unit with bound `bound` still change a full keeper's answer?
// Ties must stay open: an equal-score member with a smaller id would
// displace the current worst.
bool FrontierOpen(const TopKKeeper& keeper, double bound) {
  return !keeper.full() || bound <= keeper.worst().score;
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
  TopKKeeper keeper(query.k);
  for (std::size_t next = 0; next < entries.size(); ++next) {
    const double bound = entries[next].first;
    if (!FrontierOpen(keeper, bound)) break;
    if (const Termination stop = gate.Step(result.stats.tuples_evaluated);
        stop != Termination::kComplete) {
      result.items = keeper.TakeSorted();
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
      keeper.Offer(ScoredTuple{id, Score(query.weights, p)});
    }
  }

  result.items = keeper.TakeSorted();
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
  std::vector<PartitionBound> partitions;
  for (std::size_t s = 0; s < index.num_shards(); ++s) {
    if (index.shard_members(s).empty()) continue;
    partitions.push_back({index.ShardLowerBound(s, query.weights), s});
  }
  return MergePartitions(
      query.k, query.budget, timer, {}, partitions,
      [&](std::size_t s, const ExecBudget& budget) {
        return OpenConstrained(index.shard(s), index.shard_members(s),
                               nullptr, &QueryStats::shards_touched, query,
                               query.k, budget);
      },
      [](std::size_t s) { return "shard " + std::to_string(s); });
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

  std::vector<PartitionBound> partitions;
  for (std::size_t r = 0; r < index.num_runs(); ++r) {
    const TieredRun& run = index.run(r);
    if (run.ids.size() <= run.dead) continue;  // no live member
    partitions.push_back(
        {CornerLowerBound(run.bound_values, query.weights), r});
  }
  return MergePartitions(
      query.k, query.budget, timer, std::move(memtable), partitions,
      [&](std::size_t r, const ExecBudget& budget) {
        // k + dead(run) local items guarantee k live ones when the run
        // has them: any further member follows k live predecessors.
        const TieredRun& run = index.run(r);
        return OpenConstrained(run.index, run.ids, &index.tombstones(),
                               &QueryStats::runs_opened, query,
                               query.k + run.dead, budget);
      },
      [&](std::size_t r) { return "run " + std::to_string(index.run(r).uid); });
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
  TopKKeeper keeper(query.k);
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (const Termination stop = gate.Step(result.stats.tuples_evaluated);
        stop != Termination::kComplete) {
      result.items = keeper.TakeSorted();
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
    keeper.Offer(ScoredTuple{ids[i], Score(query.weights, p)});
  }

  result.items = keeper.TakeSorted();
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
