#include "topk/threshold_algorithm.h"

#include <algorithm>
#include <limits>
#include <unordered_set>

#include "common/check.h"
#include "common/kernels_batch.h"

namespace drli {

// k may be anything up to SIZE_MAX; past 4096 the heap grows on demand.
TopKHeap::TopKHeap(std::size_t k) : k_(k) {
  heap_.reserve(std::min<std::size_t>(k, 4096));
}

void TopKHeap::Push(ScoredTuple t) {
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

double TopKHeap::KthScore() const {
  // k = 0 holds nothing: every tuple already "exceeds" the k-th best,
  // so callers' stop conditions fire immediately.
  if (k_ == 0) return -std::numeric_limits<double>::infinity();
  if (heap_.size() < k_) return std::numeric_limits<double>::infinity();
  return heap_.front().score;
}

std::vector<ScoredTuple> TopKHeap::SortedAscending() const {
  std::vector<ScoredTuple> out = heap_;
  std::sort(out.begin(), out.end(), ResultOrderLess);
  return out;
}

void TaScanLayer(const SoaPointSet& soa, const SortedLists& lists,
                 PointView weights, TopKHeap* heap, std::size_t* evaluated,
                 double* layer_min_bound, std::vector<TupleId>* accessed,
                 TaScanControl* control) {
  const std::size_t d = lists.dim();
  const std::size_t n = lists.size();
  DRLI_CHECK_EQ(weights.size(), d);
  std::unordered_set<TupleId> seen;
  seen.reserve(2 * d);
  // Tuples first seen this round, completed in one batched kernel call
  // after the round's sorted accesses (at most d of them). Scoring at
  // the round boundary instead of per list entry changes nothing: the
  // stop condition only consults the heap after the round.
  std::vector<TupleId> round_ids;
  round_ids.reserve(d);
  std::vector<double> round_scores(d);
  // Reads one entry from each list at depth pos into round_ids (the
  // tuples first seen there) and round_scores, and returns the weighted
  // sum of the entries' values: the threshold at that depth.
  const auto sorted_access = [&](std::size_t pos) {
    double sum = 0.0;
    round_ids.clear();
    for (std::size_t attr = 0; attr < d; ++attr) {
      const SortedLists::Entry& e = lists.At(attr, pos);
      sum += weights[attr] * e.value;
      if (seen.insert(e.id).second) round_ids.push_back(e.id);
    }
    if (!round_ids.empty()) {
      ScoreBatch(weights, soa, round_ids.data(), round_ids.size(),
                 round_scores.data());
    }
    return sum;
  };
  double best_seen = std::numeric_limits<double>::infinity();
  double threshold = 0.0;
  // Threshold of the last COMPLETED round: a lower bound on every tuple
  // not yet seen. Before any round it is the weighted sum of the list
  // minima, which bounds the whole layer.
  double last_threshold =
      n > 0 ? LayerScoreLowerBound(lists, weights)
            : std::numeric_limits<double>::infinity();
  bool exhausted = true;
  std::size_t pos = 0;
  for (; pos < n; ++pos) {
    if (control != nullptr && control->gate != nullptr) {
      if (const Termination stop = control->gate->Step(*evaluated);
          stop != Termination::kComplete) {
        control->stop = stop;
        control->frontier = last_threshold;
        if (layer_min_bound != nullptr) {
          *layer_min_bound = std::min(best_seen, last_threshold);
        }
        return;
      }
    }
    // Sorted access: one entry from each list (round-robin depth pos).
    threshold = sorted_access(pos);
    for (std::size_t i = 0; i < round_ids.size(); ++i) {
      // Random access completes the tuple; this is one evaluation.
      const double score = round_scores[i];
      ++*evaluated;
      if (accessed != nullptr) accessed->push_back(round_ids[i]);
      best_seen = std::min(best_seen, score);
      heap->Push(ScoredTuple{round_ids[i], score});
    }
    // Every unseen tuple ranks at or beyond the frontier in all lists,
    // so its score is >= threshold (classic TA stop).
    if (threshold >= heap->KthScore()) {
      exhausted = false;
      ++pos;
      break;
    }
    last_threshold = threshold;
  }
  if (layer_min_bound != nullptr) {
    // Unseen tuples score >= the final threshold; when the lists were
    // exhausted everything was seen.
    *layer_min_bound = exhausted ? best_seen : std::min(best_seen, threshold);
  }
  // Tie-probe: at threshold == KthScore an unseen tuple can still tie
  // the k-th answer exactly, and the canonical (score, id) order must
  // surface the smaller id. Keep scanning, but charge only genuine
  // ties: a tuple first seen past the classic stop has every attribute
  // at or beyond the stop frontier, so it scores >= the stop threshold
  // = KthScore; anything strictly above is discarded without being
  // counted (the tie-agnostic reference never materializes it).
  if (!exhausted && threshold == heap->KthScore()) {
    const double kth = heap->KthScore();
    for (; pos < n; ++pos) {
      if (control != nullptr && control->gate != nullptr) {
        if (const Termination stop = control->gate->Step(*evaluated);
            stop != Termination::kComplete) {
          // Past the classic stop every unoffered tuple scores >= the
          // stop threshold == kth (ties at kth may still be missing,
          // which the strict-< certification rule already excludes).
          control->stop = stop;
          control->frontier = kth;
          return;
        }
      }
      const double probe_threshold = sorted_access(pos);
      for (std::size_t i = 0; i < round_ids.size(); ++i) {
        if (round_scores[i] == kth) {
          ++*evaluated;
          if (accessed != nullptr) accessed->push_back(round_ids[i]);
          heap->Push(ScoredTuple{round_ids[i], kth});
        }
      }
      if (probe_threshold > kth) break;
    }
  }
}

double LayerScoreLowerBound(const SortedLists& lists, PointView weights) {
  double bound = 0.0;
  for (std::size_t attr = 0; attr < lists.dim(); ++attr) {
    bound += weights[attr] * lists.At(attr, 0).value;
  }
  return bound;
}

}  // namespace drli
