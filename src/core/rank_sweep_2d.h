// Exact 2-d weight-space analysis: the Section V-A construction pushed
// from top-1 to top-k.
//
// For d = 2 the weight space is the segment w1 in (0,1) and every
// tuple's score f_t(w1) = t_2 + w1 (t_1 - t_2) is a line, so two
// tuples change order at most once, where their score lines cross.
// Two applications:
//
//  * the exact partition of the weight space by top-k answer set (the
//    top-1 case is the paper's weight-range table): a kinetic sweep
//    maintains the full order from w1 -> 0+ to w1 -> 1- and records
//    every weight where the top-k SET changes;
//  * monochromatic reverse top-k queries (Vlachou et al., ICDE'10 --
//    the paper's reference [32]): for which weights is a given tuple
//    among the top-k? Answered from the target's own crossings alone:
//    its rank is the number of tuples that beat it, and each tuple
//    beats it on one side of their single crossing weight.

#ifndef DRLI_CORE_RANK_SWEEP_2D_H_
#define DRLI_CORE_RANK_SWEEP_2D_H_

#include <cstddef>
#include <span>
#include <vector>

#include "common/point.h"

namespace drli {

struct RankSweepResult {
  // Strictly increasing interior breakpoints 0 < b_1 < ... < b_m < 1
  // at which the top-k set changes.
  std::vector<double> breakpoints;
  // topk_sets[i] = the top-k set (sorted ids) on the i-th interval
  // (b_{i-1}, b_i); size = breakpoints.size() + 1. Exact score ties at
  // interval boundaries make either neighbouring set a valid answer.
  std::vector<std::vector<TupleId>> topk_sets;

  // The set valid at a specific weight (binary search).
  const std::vector<TupleId>& SetAt(double w1) const;
};

// Sweeps all weights for a 2-d relation. O((n + S) log n) where S is
// the number of adjacent rank swaps.
RankSweepResult SweepTopKSets2D(const PointSet& points, std::size_t k);

// One maximal w1-range [lo, hi] (within [0, 1]) on which a tuple is in
// the top-k set; endpoints are crossing weights or 0/1. At an exact-tie
// crossing either neighbouring set is a valid answer, so interval ends
// are reported closed.
struct WeightInterval {
  double lo = 0.0;
  double hi = 0.0;
};

// The w1-intervals (disjoint, ascending) on which `target` is in the
// top-k of `candidates` (ids into `points`, `target` among them) in
// (score, id) order. Counts the candidates that beat the target just
// right of w1 = 0, then walks their crossings with it in weight order;
// crossings within the sweep's tolerance of one another apply together
// before the count is tested, as the sweep's cascades do. O(m log m)
// for m candidates, no stored sets.
std::vector<WeightInterval> ReverseIntervals2D(
    const PointSet& points, std::span<const TupleId> candidates,
    TupleId target, std::size_t k);

}  // namespace drli

#endif  // DRLI_CORE_RANK_SWEEP_2D_H_
