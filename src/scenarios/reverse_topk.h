// Monochromatic reverse top-k for d = 2 (Vlachou et al., ICDE'10 --
// the paper's reference [32]): for which weight vectors (w1, 1 - w1)
// does tuple t belong to the top-k answer set? In 2-d every score is a
// line over w1, so the answer is a union of w1-intervals whose
// endpoints are rank-swap weights -- exactly the slope-interval
// machinery of the zero layer's weight-range partition (Section V-A),
// pushed from top-1 to top-k by the kinetic sweep in
// core/rank_sweep_2d.h.
//
// Index acceleration restricts the sweep to the first min(k, L)
// coarse layers of a DL+ index: a tuple of coarse layer j has a chain
// of j strict dominators (one per shallower layer), each strictly
// better at every interior weight, so tuples of layer >= k are never
// in any interior top-k set and cannot affect a k-boundary swap --
// the restricted sweep reproduces the full partition. A target deeper
// than layer k - 1 short-circuits to the empty answer without any
// sweep. For k == 1 on an index carrying the 2-d zero layer, the
// weight-range table IS the answer: the target's chain interval
// (guarded against duplicate points, where the canonical answer
// belongs to the smallest id).
//
// Budget semantics: the candidate pool (the swept tuples) is the
// metered cost -- stats.tuples_evaluated counts it, and a budget too
// small for the pool returns an empty, uncertified partial. Interval
// endpoints are exact sweep crossings; the differential oracle
// compares engines against the full-relation sweep with a 1e-9
// endpoint tolerance plus sampled membership probes.

#ifndef DRLI_SCENARIOS_REVERSE_TOPK_H_
#define DRLI_SCENARIOS_REVERSE_TOPK_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/point.h"
#include "core/dual_layer.h"
#include "topk/query.h"

namespace drli {

struct ReverseTopKQuery {
  TupleId target = 0;
  std::size_t k = 1;
  ExecBudget budget{};
};

// One maximal w1-range [lo, hi] (within [0, 1]) on which the target is
// in the top-k set; endpoints are sweep breakpoints or 0/1. At an
// exact-tie breakpoint either neighbouring set is a valid answer, so
// interval ends are reported closed.
struct WeightInterval {
  double lo = 0.0;
  double hi = 0.0;
};

struct ReverseTopKResult {
  std::vector<WeightInterval> intervals;  // disjoint, ascending
  QueryStats stats;
  Termination termination = Termination::kComplete;
  // True when the k == 1 zero-layer weight-range table answered
  // directly (no sweep ran).
  bool used_weight_table = false;
  std::string error;

  bool complete() const { return termination == Termination::kComplete; }
};

// Layer-restricted sweep over a DL+ index (d == 2 only; other
// dimensionalities, and an index with retired tuples, are rejected as
// invalid queries).
ReverseTopKResult ReverseTopK2D(const DualLayerIndex& index,
                                const ReverseTopKQuery& query);

// Brute-force reference: the kinetic sweep over the whole relation.
ReverseTopKResult ReverseTopK2DScan(const PointSet& points,
                                    const ReverseTopKQuery& query);

}  // namespace drli

#endif  // DRLI_SCENARIOS_REVERSE_TOPK_H_
