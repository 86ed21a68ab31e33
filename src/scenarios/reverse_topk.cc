#include "scenarios/reverse_topk.h"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/stopwatch.h"
#include "core/rank_sweep_2d.h"
#include "core/zero_layer.h"

namespace drli {
namespace {

Status ValidateReverse(const ReverseTopKQuery& query, std::size_t dim,
                       std::size_t n) {
  if (dim != 2) {
    return Status::InvalidArgument(
        "reverse top-k requires a 2-d relation (the weight space must "
        "be one-dimensional)");
  }
  if (query.target >= n) {
    return Status::InvalidArgument("reverse top-k target id out of range");
  }
  return Status::Ok();
}

std::vector<WeightInterval> FromPairs(
    const std::vector<std::pair<double, double>>& pairs) {
  std::vector<WeightInterval> intervals;
  intervals.reserve(pairs.size());
  for (const auto& [lo, hi] : pairs) intervals.push_back({lo, hi});
  return intervals;
}

// Charges the candidate pool against the budget. The sweep has no
// incremental stop point that certifies anything useful (the set
// partition is global), so metering is all-or-nothing: either the
// pool fits the remaining allowance or the query returns empty and
// uncertified.
Termination MeterPool(const ExecBudget& budget, std::size_t pool) {
  BudgetGate gate(budget);
  return gate.Step(pool);
}

}  // namespace

ReverseTopKResult ReverseTopK2D(const DualLayerIndex& index,
                                const ReverseTopKQuery& query) {
  Stopwatch timer;
  ReverseTopKResult result;
  const PointSet& points = index.points();
  Status status = ValidateReverse(query, points.dim(), points.size());
  if (status.ok() && index.num_retired() != 0) {
    // The layer sweep ranks the target against every row of points(),
    // retired ones included.
    status = Status::InvalidArgument(
        "reverse top-k needs an index without retired tuples (" +
        std::to_string(index.num_retired()) + " retired)");
  }
  if (!status.ok()) {
    result.termination = Termination::kInvalidQuery;
    result.error = status.ToString();
    return result;
  }
  if (query.k == 0) {
    result.stats.elapsed_seconds = timer.ElapsedSeconds();
    return result;  // nobody is in the top-0
  }

  const std::vector<std::vector<TupleId>>& layers = index.coarse_layers();
  const auto target_node = static_cast<DualLayerIndex::NodeId>(query.target);
  if (index.coarse_layer_of(target_node) >= query.k) {
    // The target has >= k strict dominators (one per shallower layer),
    // each strictly better at every interior weight: the answer is
    // empty at zero cost -- the layer structure alone certifies it.
    result.stats.elapsed_seconds = timer.ElapsedSeconds();
    return result;
  }

  // k == 1 via the zero layer: the weight-range table stores exactly
  // the top-1 partition of (0,1). A duplicate of the target's point
  // takes the canonical answer when its id is smaller, and a target
  // whose point is not on the chain (and duplicates no chain point) is
  // never a canonical top-1.
  if (query.k == 1 && index.uses_weight_table() &&
      !index.weight_table().empty()) {
    const WeightRangeTable& table = index.weight_table();
    const std::vector<TupleId>& first_layer = layers.front();
    if (const Termination stop =
            MeterPool(query.budget, first_layer.size());
        stop != Termination::kComplete) {
      result.termination = stop;
      result.stats.elapsed_seconds = timer.ElapsedSeconds();
      return result;
    }
    result.stats.tuples_evaluated = first_layer.size();
    result.used_weight_table = true;
    const PointView tp = points[query.target];
    // Canonical owner of the target's point: the smallest first-layer
    // id carrying identical attributes (duplicates share a layer).
    TupleId owner = query.target;
    for (const TupleId id : first_layer) {
      if (id < owner && Compare(points[id], tp) == DomRel::kEqual) owner = id;
    }
    if (owner == query.target) {
      const std::vector<TupleId>& chain = table.chain();
      const std::vector<double>& breakpoints = table.breakpoints();
      for (std::size_t pos = 0; pos < chain.size(); ++pos) {
        if (Compare(points[chain[pos]], tp) != DomRel::kEqual) continue;
        // chain[pos] is optimal on [breakpoints[pos],
        // breakpoints[pos - 1]] (breakpoints descend; ends clamp to
        // the full segment).
        const double lo =
            pos + 1 < chain.size() ? breakpoints[pos] : 0.0;
        const double hi = pos > 0 ? breakpoints[pos - 1] : 1.0;
        result.intervals.push_back({lo, hi});
        break;  // strict convexity: one chain position per point
      }
    }
    std::sort(result.intervals.begin(), result.intervals.end(),
              [](const WeightInterval& a, const WeightInterval& b) {
                return a.lo < b.lo;
              });
    result.stats.elapsed_seconds = timer.ElapsedSeconds();
    return result;
  }

  // General case: sweep the union of the first min(k, L) coarse
  // layers. Candidate ids stay ascending, so the restricted sweep's
  // initial order (and every crossing) matches the full sweep's
  // restriction -- breakpoints come out identical.
  std::vector<TupleId> candidates;
  const std::size_t depth = std::min<std::size_t>(query.k, layers.size());
  for (std::size_t j = 0; j < depth; ++j) {
    candidates.insert(candidates.end(), layers[j].begin(), layers[j].end());
  }
  std::sort(candidates.begin(), candidates.end());
  if (const Termination stop = MeterPool(query.budget, candidates.size());
      stop != Termination::kComplete) {
    result.termination = stop;
    result.stats.elapsed_seconds = timer.ElapsedSeconds();
    return result;
  }
  result.stats.tuples_evaluated = candidates.size();

  const PointSet pool = points.Subset(candidates);
  const auto it =
      std::lower_bound(candidates.begin(), candidates.end(), query.target);
  const auto local_target =
      static_cast<TupleId>(it - candidates.begin());
  const RankSweepResult sweep = SweepTopKSets2D(pool, query.k);
  result.intervals = FromPairs(ReverseTopKIntervals2D(sweep, local_target));
  result.stats.elapsed_seconds = timer.ElapsedSeconds();
  return result;
}

ReverseTopKResult ReverseTopK2DScan(const PointSet& points,
                                    const ReverseTopKQuery& query) {
  Stopwatch timer;
  ReverseTopKResult result;
  if (Status status = ValidateReverse(query, points.dim(), points.size());
      !status.ok()) {
    result.termination = Termination::kInvalidQuery;
    result.error = status.ToString();
    return result;
  }
  if (query.k == 0) {
    result.stats.elapsed_seconds = timer.ElapsedSeconds();
    return result;
  }
  if (const Termination stop = MeterPool(query.budget, points.size());
      stop != Termination::kComplete) {
    result.termination = stop;
    result.stats.elapsed_seconds = timer.ElapsedSeconds();
    return result;
  }
  result.stats.tuples_evaluated = points.size();
  const RankSweepResult sweep = SweepTopKSets2D(points, query.k);
  result.intervals = FromPairs(ReverseTopKIntervals2D(sweep, query.target));
  result.stats.elapsed_seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace drli
