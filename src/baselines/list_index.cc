#include "baselines/list_index.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/check.h"
#include "common/kernels_batch.h"
#include "common/stopwatch.h"
#include "topk/threshold_algorithm.h"

namespace drli {

namespace {

std::vector<TupleId> AllIds(std::size_t n) {
  std::vector<TupleId> ids(n);
  std::iota(ids.begin(), ids.end(), 0);
  return ids;
}

}  // namespace

ListIndex::ListIndex(PointSet points, ListAlgorithm algorithm)
    : points_(std::move(points)),
      algorithm_(algorithm),
      lists_(points_, AllIds(points_.size())),
      soa_(SoaPointSet::FromPointSet(points_)) {}

ListIndex ListIndex::Build(PointSet points, ListAlgorithm algorithm) {
  return ListIndex(std::move(points), algorithm);
}

std::string ListIndex::name() const {
  switch (algorithm_) {
    case ListAlgorithm::kFa:
      return "FA";
    case ListAlgorithm::kTa:
      return "TA";
    case ListAlgorithm::kNra:
      return "NRA";
  }
  return "LIST";
}

TopKResult ListIndex::Query(const TopKQuery& query) const {
  Stopwatch timer;
  if (const Status status = ValidateQuery(query, points_.dim());
      !status.ok()) {
    return InvalidQueryResult(status);
  }
  TopKResult result;
  if (query.k == 0) {
    FinalizeComplete(result);
    result.stats.elapsed_seconds = timer.ElapsedSeconds();
    return result;
  }
  switch (algorithm_) {
    case ListAlgorithm::kFa:
      result = QueryFa(query);
      break;
    case ListAlgorithm::kTa:
      result = QueryTa(query);
      break;
    case ListAlgorithm::kNra:
      result = QueryNra(query);
      break;
  }
  result.stats.elapsed_seconds = timer.ElapsedSeconds();
  return result;
}

TopKResult ListIndex::QueryFa(const TopKQuery& query) const {
  const std::size_t d = points_.dim();
  const std::size_t n = points_.size();
  TopKResult result;
  if (n == 0) {
    FinalizeComplete(result);
    return result;
  }
  BudgetGate gate(query.budget);
  Termination stop = Termination::kComplete;

  // Phase 1: sorted access until k tuples were seen in every list.
  // Nothing is scored yet, so the step budget cannot trip here; the
  // gate still honours deadlines and cancellation.
  std::unordered_map<TupleId, std::size_t> seen_count;
  seen_count.reserve(std::min(4 * std::min(query.k, n) * d, n));
  std::size_t fully_seen = 0;
  for (std::size_t pos = 0; pos < n && fully_seen < query.k; ++pos) {
    if (stop = gate.Step(result.stats.tuples_evaluated);
        stop != Termination::kComplete) {
      // No tuple has been scored: nothing to return or certify.
      FinalizePartial(result, stop,
                      -std::numeric_limits<double>::infinity());
      return result;
    }
    for (std::size_t attr = 0; attr < d; ++attr) {
      if (++seen_count[lists_.At(attr, pos).id] == d) ++fully_seen;
    }
  }

  // Phase 2: random access to complete every tuple seen anywhere. With
  // no armed budget the whole candidate set goes through one batched
  // kernel call; a gated query keeps the per-tuple loop so it can stop
  // at any tuple boundary.
  TopKHeap heap(query.k);
  if (!gate.active()) {
    std::vector<TupleId> ids;
    ids.reserve(seen_count.size());
    for (const auto& [id, count] : seen_count) ids.push_back(id);
    std::vector<double> scores(ids.size());
    ScoreBatch(query.weights, soa_, ids.data(), ids.size(), scores.data());
    for (std::size_t i = 0; i < ids.size(); ++i) {
      heap.Push(ScoredTuple{ids[i], scores[i]});
      ++result.stats.tuples_evaluated;
      result.accessed.push_back(ids[i]);
    }
  } else {
    for (const auto& [id, count] : seen_count) {
      if (stop = gate.Step(result.stats.tuples_evaluated);
          stop != Termination::kComplete) {
        break;
      }
      heap.Push(ScoredTuple{id, Score(query.weights, points_[id])});
      ++result.stats.tuples_evaluated;
      result.accessed.push_back(id);
    }
  }
  result.items = heap.SortedAscending();
  if (stop == Termination::kComplete) {
    FinalizeComplete(result);
  } else {
    // The unscored remainder of the candidate set is unbounded, so a
    // mid-phase-2 stop certifies nothing.
    FinalizePartial(result, stop, -std::numeric_limits<double>::infinity());
  }
  return result;
}

TopKResult ListIndex::QueryTa(const TopKQuery& query) const {
  TopKResult result;
  if (points_.empty()) {
    FinalizeComplete(result);
    return result;
  }
  BudgetGate gate(query.budget);
  TaScanControl control;
  control.gate = &gate;
  TopKHeap heap(query.k);
  TaScanLayer(soa_, lists_, query.weights, &heap,
              &result.stats.tuples_evaluated, /*layer_min_bound=*/nullptr,
              &result.accessed, &control);
  result.items = heap.SortedAscending();
  if (control.stop == Termination::kComplete) {
    FinalizeComplete(result);
  } else {
    FinalizePartial(result, control.stop,
                    HeapFrontier(heap, control.frontier));
  }
  return result;
}

TopKResult ListIndex::QueryNra(const TopKQuery& query) const {
  const std::size_t d = points_.dim();
  const std::size_t n = points_.size();
  TopKResult result;
  if (n == 0) {
    FinalizeComplete(result);
    return result;
  }
  const std::size_t k = std::min(query.k, n);
  const PointView w(query.weights);
  BudgetGate gate(query.budget);
  Termination stop = Termination::kComplete;
  double partial_frontier = -std::numeric_limits<double>::infinity();

  // Per-attribute domain maxima tighten the upper bounds.
  std::vector<double> attr_max(d);
  for (std::size_t attr = 0; attr < d; ++attr) {
    attr_max[attr] = lists_.At(attr, n - 1).value;
  }

  struct Partial {
    std::uint32_t known_mask = 0;
    Point values;  // revealed attribute values, canonical slots
  };
  std::unordered_map<TupleId, Partial> seen;
  seen.reserve(16 * k);
  std::vector<double> frontier(d, 0.0);

  // Both bounds sum in canonical attribute order (never in list-reveal
  // order): exact duplicates with equal known masks then carry
  // bitwise-equal bounds, and a fully known tuple's bound is exactly
  // Score(w, tuple). A running sum in reveal order drifts by an ulp
  // and splits exact ties at the stop decision.
  auto bounds_of = [&](const Partial& p) {
    double lower = 0.0, upper = 0.0;
    for (std::size_t attr = 0; attr < d; ++attr) {
      if (p.known_mask & (1u << attr)) {
        lower += w[attr] * p.values[attr];
        upper += w[attr] * p.values[attr];
      } else {
        // An attribute not yet seen in list `attr` is at or beyond the
        // frontier, and at most the list maximum.
        lower += w[attr] * frontier[attr];
        upper += w[attr] * attr_max[attr];
      }
    }
    return std::make_pair(lower, upper);
  };

  // One bound pass over the seen tuples: the kk smallest upper bounds
  // (uppers[0, kk) after nth_element) and a lower bound on every other
  // tuple -- the smallest lower bound outside that candidate set and,
  // while some tuple is still unseen, the frontier sum.
  struct BoundPass {
    std::vector<std::pair<double, TupleId>> uppers;  // (upper, id)
    double other_lower = std::numeric_limits<double>::infinity();
  };
  auto bound_pass = [&](std::size_t kk) {
    BoundPass pass;
    if (kk > 0) {
      pass.uppers.reserve(seen.size());
      for (const auto& [id, partial] : seen) {
        pass.uppers.push_back({bounds_of(partial).second, id});
      }
      std::nth_element(pass.uppers.begin(), pass.uppers.begin() + (kk - 1),
                       pass.uppers.end());
      std::unordered_set<TupleId> candidate_ids;
      candidate_ids.reserve(kk);
      for (std::size_t i = 0; i < kk; ++i) {
        candidate_ids.insert(pass.uppers[i].second);
      }
      for (const auto& [id, partial] : seen) {
        if (candidate_ids.count(id)) continue;
        pass.other_lower =
            std::min(pass.other_lower, bounds_of(partial).first);
      }
    }
    if (seen.size() < n) {
      double unseen_lower = 0.0;
      for (std::size_t attr = 0; attr < d; ++attr) {
        unseen_lower += w[attr] * frontier[attr];
      }
      pass.other_lower = std::min(pass.other_lower, unseen_lower);
    }
    return pass;
  };

  std::vector<std::pair<double, TupleId>> winners;  // (upper, id)
  for (std::size_t pos = 0; pos < n; ++pos) {
    // Budget check per sorted-access round; NRA's cost metric is the
    // number of tuples with materialized partial information.
    if (stop = gate.Step(seen.size()); stop != Termination::kComplete) {
      // Return the best-upper-bound candidates seen so far (rescored
      // exactly below -- they are already charged to the cost metric);
      // every other tuple is certified by the pass's lower bound.
      const std::size_t kk = std::min(k, seen.size());
      const BoundPass pass = bound_pass(kk);
      winners.assign(pass.uppers.begin(), pass.uppers.begin() + kk);
      partial_frontier = pass.other_lower;
      break;
    }
    for (std::size_t attr = 0; attr < d; ++attr) {
      const SortedLists::Entry& e = lists_.At(attr, pos);
      frontier[attr] = e.value;
      Partial& p = seen[e.id];
      if (p.values.empty()) p.values.assign(d, 0.0);
      if (!(p.known_mask & (1u << attr))) {
        p.known_mask |= (1u << attr);
        p.values[attr] = e.value;
      }
    }

    // Periodic stop check (the bound scan is linear in |seen|, so the
    // check runs every 64 sorted-access rounds to keep the whole query
    // near-linear).
    if ((pos & 63) != 63 && pos + 1 != n) continue;
    if (seen.size() < k) continue;
    const BoundPass pass = bound_pass(k);
    // STRICT separation: at kth_upper == other_lower a tuple outside
    // the candidate set could still realize an exact tie with a smaller
    // id; keep scanning. Exhaustion resolves ties exactly: after the
    // last round every tuple is fully known, so the upper bounds are
    // the exact scores.
    if (pass.uppers[k - 1].first < pass.other_lower || pos + 1 == n) {
      winners.assign(pass.uppers.begin(), pass.uppers.begin() + k);
      break;
    }
  }

  // NRA's cost: tuples whose partial information was materialized.
  result.stats.tuples_evaluated = seen.size();
  result.accessed.reserve(seen.size());
  for (const auto& [id, partial] : seen) result.accessed.push_back(id);
  // Report exact scores for the winning set (the set itself is already
  // exact: its upper bounds beat every other lower bound).
  result.items.reserve(winners.size());
  for (const auto& [upper, id] : winners) {
    result.items.push_back(ScoredTuple{id, Score(w, points_[id])});
  }
  std::sort(result.items.begin(), result.items.end(), ResultOrderLess);
  if (stop == Termination::kComplete) {
    FinalizeComplete(result);
  } else {
    FinalizePartial(result, stop, partial_frontier);
  }
  return result;
}

}  // namespace drli
