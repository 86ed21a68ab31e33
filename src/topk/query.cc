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
    const std::vector<TopKQuery>& queries, const BatchOptions& options) const {
  // Validation runs BEFORE the shed decision: a malformed query comes
  // back kInvalidQuery without consuming an in-flight slot, so it can
  // never crowd out a well-formed one. Families that cannot report
  // their dimensionality (dim() == 0) skip the pre-check and rely on
  // Query's own rejection, which still costs them the slot.
  const std::size_t d = dim();
  std::vector<TopKResult> results(queries.size());
  std::vector<std::size_t> runnable;
  runnable.reserve(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    if (d != 0) {
      Status status = ValidateQuery(queries[i], d);
      if (!status.ok()) {
        results[i] = InvalidQueryResult(status);
        continue;
      }
    }
    runnable.push_back(i);
  }
  const std::size_t admitted_count =
      (options.max_in_flight == 0 || runnable.size() <= options.max_in_flight)
          ? runnable.size()
          : options.max_in_flight;
  std::vector<TopKQuery> admitted;
  admitted.reserve(admitted_count);
  for (std::size_t j = 0; j < admitted_count; ++j) {
    admitted.push_back(queries[runnable[j]]);
    if (!options.default_budget.unlimited() &&
        admitted.back().budget.unlimited()) {
      admitted.back().budget = options.default_budget;
    }
  }
  std::vector<TopKResult> ran = QueryBatch(admitted);
  for (std::size_t j = 0; j < ran.size(); ++j) {
    results[runnable[j]] = std::move(ran[j]);
  }
  for (std::size_t j = admitted_count; j < runnable.size(); ++j) {
    TopKResult& slot = results[runnable[j]];
    slot.termination = Termination::kShed;
    slot.error = "shed: batch in-flight limit (" +
                 std::to_string(options.max_in_flight) + ") exceeded";
  }
  return results;
}

std::vector<TopKResult> TopKIndex::QueryBatch(
    const std::vector<TopKQuery>& queries, const BatchOptions& options,
    BatchStats* stats) const {
  Stopwatch wall;
  std::vector<TopKResult> results = QueryBatch(queries, options);
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
