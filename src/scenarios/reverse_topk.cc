#include "scenarios/reverse_topk.h"

#include <algorithm>
#include <cstddef>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "common/stopwatch.h"
#include "core/rank_sweep_2d.h"

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

// Meters the candidate pool against the budget, then counts the
// target's crossings with it. The count has no incremental stop point
// that certifies anything (one crossing can reopen any interval), so
// metering is all-or-nothing: either the pool fits the remaining
// allowance or the query returns empty and uncertified.
void CountCrossings(const PointSet& points,
                    std::span<const TupleId> candidates,
                    const ReverseTopKQuery& query,
                    ReverseTopKResult* result) {
  BudgetGate gate(query.budget);
  result->termination = gate.Step(candidates.size());
  if (!result->complete()) return;
  result->stats.tuples_evaluated = candidates.size();
  result->intervals =
      ReverseIntervals2D(points, candidates, query.target, query.k);
}

}  // namespace

ReverseTopKResult ReverseTopK2D(const DualLayerIndex& index,
                                const ReverseTopKQuery& query) {
  Stopwatch timer;
  ReverseTopKResult result;
  const PointSet& points = index.points();
  Status status = ValidateReverse(query, points.dim(), points.size());
  if (status.ok() && index.num_retired() != 0) {
    // The count ranks the target against every row of points(),
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

  const std::vector<std::vector<TupleId>>& layers = index.coarse_layers();
  const auto target_node = static_cast<DualLayerIndex::NodeId>(query.target);
  if (index.coarse_layer_of(target_node) >= query.k) {
    // The target has >= k strict dominators (one per shallower layer),
    // each strictly better at every interior weight: the answer is
    // empty at zero cost -- the layer structure alone certifies it
    // (and nobody is in the top-0).
    result.stats.elapsed_seconds = timer.ElapsedSeconds();
    return result;
  }

  std::vector<TupleId> candidates;
  const std::size_t depth = std::min<std::size_t>(query.k, layers.size());
  for (std::size_t j = 0; j < depth; ++j) {
    candidates.insert(candidates.end(), layers[j].begin(), layers[j].end());
  }
  CountCrossings(points, candidates, query, &result);
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
  if (query.k != 0) {
    std::vector<TupleId> candidates(points.size());
    std::iota(candidates.begin(), candidates.end(), TupleId{0});
    CountCrossings(points, candidates, query, &result);
  }
  result.stats.elapsed_seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace drli
