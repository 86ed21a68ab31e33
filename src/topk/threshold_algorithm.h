// The Threshold Algorithm (Fagin et al.) over per-attribute sorted
// lists, in the form the Hybrid-Layer index uses it: sorted access in
// round-robin order, random access to complete each newly seen tuple,
// and the classic stop condition threshold >= current k-th best score.
// A trailing tie-probe resolves exact score ties under the canonical
// (score, id) order of ResultOrderLess without charging the cost
// metric for non-tied probes.

#ifndef DRLI_TOPK_THRESHOLD_ALGORITHM_H_
#define DRLI_TOPK_THRESHOLD_ALGORITHM_H_

#include <vector>

#include "common/point.h"
#include "common/soa_points.h"
#include "topk/query.h"
#include "topk/sorted_lists.h"

namespace drli {

// Bounded max-heap keeping the k lowest tuples seen so far in the
// canonical (score, id) order. k = 0 is legal: Push is a no-op and
// KthScore reports -infinity so scan loops terminate immediately.
class TopKHeap {
 public:
  explicit TopKHeap(std::size_t k);

  std::size_t k() const { return k_; }
  std::size_t size() const { return heap_.size(); }

  void Push(ScoredTuple t);

  // Score of the current k-th best, +infinity while fewer than k held.
  double KthScore() const;

  // The held tuples in ascending score order.
  std::vector<ScoredTuple> SortedAscending() const;

 private:
  std::size_t k_;
  std::vector<ScoredTuple> heap_;  // max-heap by score
};

// Optional execution-budget hookup for TaScanLayer. The gate is polled
// once per sorted-access round; when it trips the scan returns early
// and reports why, plus a lower bound on the score of every tuple in
// the layer that was never offered to the heap (the last completed
// round's threshold -- the list minima before any round -- or the k-th
// score when the trip happens inside the tie-probe). Callers derive the
// certified prefix of their partial result from it.
struct TaScanControl {
  BudgetGate* gate = nullptr;
  Termination stop = Termination::kComplete;
  double frontier = std::numeric_limits<double>::infinity();
};

// One TA pass over a layer's sorted lists. Every tuple seen through
// sorted access is scored once (counted in *evaluated) and offered to
// *heap. Scanning stops when the TA threshold (the weighted sum of the
// current list frontier) reaches heap->KthScore(), or the lists are
// exhausted. When the stop is an exact tie (threshold == KthScore) an
// uncharged probe continues until strict separation, counting and
// keeping only tuples that tie the k-th score, so the result is exact
// under ResultOrderLess while the cost metric matches the classic
// tie-agnostic algorithm.
//
// When `layer_min_bound` is non-null it receives a lower bound on the
// minimum score of ANY tuple in the layer: min(best seen score, final
// threshold). Convex-layer minima increase strictly layer over layer,
// so HL+ uses this to cut the layer loop (its "tight threshold").
//
// When `control` is non-null its gate is polled every round and the
// scan stops early once it trips (see TaScanControl).
//
// `soa` is the dimension-major view of the relation the lists' ids
// index; each round's random accesses are completed through one
// batched kernel call (ScoreBatch).
void TaScanLayer(const SoaPointSet& soa, const SortedLists& lists,
                 PointView weights, TopKHeap* heap, std::size_t* evaluated,
                 double* layer_min_bound = nullptr,
                 std::vector<TupleId>* accessed = nullptr,
                 TaScanControl* control = nullptr);

// Weighted sum of the per-attribute list minima: a lower bound on the
// score of every tuple in the layer. Used by HL+ to skip whole layers.
double LayerScoreLowerBound(const SortedLists& lists, PointView weights);

// Certification frontier for partial results collected through a
// TopKHeap: a tuple evicted from (or rejected by) a full heap is
// canonically at or above its k-th entry, so `unoffered_bound` (the
// bound on tuples never offered to the heap) is tightened by KthScore()
// whenever the heap is full. With a non-full heap nothing was ever
// evicted and the unoffered bound stands alone.
inline double HeapFrontier(const TopKHeap& heap, double unoffered_bound) {
  if (heap.k() > 0 && heap.size() == heap.k() &&
      heap.KthScore() < unoffered_bound) {
    return heap.KthScore();
  }
  return unoffered_bound;
}

}  // namespace drli

#endif  // DRLI_TOPK_THRESHOLD_ALGORITHM_H_
