#include "topk/query.h"

#include <cmath>
#include <cstddef>
#include <string>

#include "common/parallel_for.h"

namespace drli {

const char* TerminationName(Termination termination) {
  switch (termination) {
    case Termination::kComplete:
      return "complete";
    case Termination::kDeadline:
      return "deadline";
    case Termination::kStepBudget:
      return "step-budget";
    case Termination::kCancelled:
      return "cancelled";
    case Termination::kInvalidQuery:
      return "invalid-query";
    case Termination::kError:
      return "error";
    case Termination::kShed:
      return "shed";
  }
  return "unknown";
}

void FinalizePartial(TopKResult& result, Termination reason,
                     double frontier_bound) {
  result.termination = reason;
  result.frontier_bound = frontier_bound;
  std::size_t certified = 0;
  while (certified < result.items.size() &&
         result.items[certified].score < frontier_bound) {
    ++certified;
  }
  result.certified_prefix = certified;
}

TopKResult InvalidQueryResult(const Status& status) {
  TopKResult result;
  result.termination = Termination::kInvalidQuery;
  result.certified_prefix = 0;
  result.frontier_bound = -std::numeric_limits<double>::infinity();
  result.error = status.ToString();
  return result;
}

std::vector<TopKResult> TopKIndex::QueryBatch(
    const std::vector<TopKQuery>& queries) const {
  std::vector<TopKResult> results(queries.size());
  ParallelFor(queries.size(), [&](std::size_t i, std::size_t) {
    results[i] = GuardedQuery([&] { return Query(queries[i]); });
  });
  return results;
}

std::vector<TopKResult> TopKIndex::QueryBatch(
    const std::vector<TopKQuery>& queries, BatchStats* stats) const {
  Stopwatch wall;
  std::vector<TopKResult> results = QueryBatch(queries);
  if (stats != nullptr) {
    *stats = BatchStats{};
    for (const TopKResult& result : results) stats->merged.Merge(result.stats);
    stats->wall_seconds = wall.ElapsedSeconds();
  }
  return results;
}

Termination RemainingBudget(const ExecBudget& budget, std::size_t evaluated,
                            const Stopwatch& timer, ExecBudget* sub) {
  *sub = ExecBudget{};
  sub->cancel = budget.cancel;
  if (budget.max_evals != 0) {
    if (evaluated >= budget.max_evals) return Termination::kStepBudget;
    sub->max_evals = budget.max_evals - evaluated;
  }
  if (budget.deadline_seconds > 0.0) {
    const double left = budget.deadline_seconds - timer.ElapsedSeconds();
    if (left <= 0.0) return Termination::kDeadline;
    sub->deadline_seconds = left;
  }
  if (budget.cancel != nullptr && budget.cancel->cancelled()) {
    return Termination::kCancelled;
  }
  return Termination::kComplete;
}

Status ValidateQuery(const TopKQuery& query, std::size_t dim) {
  if (query.weights.size() != dim) {
    return Status::InvalidArgument(
        "weight vector dimensionality mismatch: got " +
        std::to_string(query.weights.size()) + ", index has " +
        std::to_string(dim));
  }
  bool any_positive = false;
  for (double w : query.weights) {
    if (!(w >= 0.0) || !std::isfinite(w)) {
      return Status::InvalidArgument(
          "weights must be non-negative and finite");
    }
    if (w > 0.0) any_positive = true;
  }
  if (!any_positive) {
    return Status::InvalidArgument(
        "weights must include at least one positive entry");
  }
  return Status::Ok();
}

}  // namespace drli
