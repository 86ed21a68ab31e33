// Monochromatic reverse top-k for d = 2 (Vlachou et al., ICDE'10 --
// the paper's reference [32]): for which weight vectors (w1, 1 - w1)
// does tuple t belong to the top-k answer set? Every score is a line
// over w1 and another tuple beats t on one side of its single crossing
// with t, so the answer is read off t's own crossings
// (ReverseIntervals2D in core/rank_sweep_2d.h).
//
// Index acceleration counts over the first min(k, L) coarse layers of
// a DL+ index only. A tuple of coarse layer j has j strict dominators,
// one per shallower layer, each strictly better at every interior
// weight: a non-candidate (layer >= k) that beats t brings at least k
// candidates that beat t too, so the candidate count decides
// membership exactly. A target deeper than layer k - 1 short-circuits
// to the empty answer without counting anything.
//
// Budget semantics: the candidate pool is the metered cost --
// stats.tuples_evaluated counts it, and a budget too small for the
// pool returns an empty, uncertified partial. The differential oracle
// compares both entry points against the kinetic sweep's partition
// (testing/scenario_oracle.h) with a 1e-9 endpoint tolerance plus
// sampled membership probes.

#ifndef DRLI_SCENARIOS_REVERSE_TOPK_H_
#define DRLI_SCENARIOS_REVERSE_TOPK_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/point.h"
#include "core/dual_layer.h"
#include "core/rank_sweep_2d.h"
#include "topk/query.h"

namespace drli {

struct ReverseTopKQuery {
  TupleId target = 0;
  std::size_t k = 1;
  ExecBudget budget{};
};

struct ReverseTopKResult {
  std::vector<WeightInterval> intervals;  // disjoint, ascending
  QueryStats stats;
  Termination termination = Termination::kComplete;
  std::string error;

  bool complete() const { return termination == Termination::kComplete; }
};

// Crossings with the first min(k, L) coarse layers of a DL+ index
// (d == 2 only; other dimensionalities, and an index with retired
// tuples, are rejected as invalid queries).
ReverseTopKResult ReverseTopK2D(const DualLayerIndex& index,
                                const ReverseTopKQuery& query);

// The same count over the whole relation.
ReverseTopKResult ReverseTopK2DScan(const PointSet& points,
                                    const ReverseTopKQuery& query);

}  // namespace drli

#endif  // DRLI_SCENARIOS_REVERSE_TOPK_H_
