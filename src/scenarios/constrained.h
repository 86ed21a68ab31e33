// Constrained top-k (DESIGN.md "Query scenarios"): the plain linear
// top-k query restricted to tuples inside an axis-aligned attribute
// box. The answer is the canonical top-k (ascending (score, id)) of
// the tuples the box contains -- the same contract as every other
// family, over a smaller universe.
//
// Index acceleration pushes the predicate into the index's kd box tree
// (DualLayerIndex::box_tree, geometry/box_tree.h). Over one DL+ index the
// tree's nodes are opened best-first by a sound score lower bound --
// the score of max(node lo, box lo), a corner that weakly dominates
// every in-box member --
//   * a node whose member box misses the constraint box is dropped
//     unopened (stats.boxes_pruned counts these), and
//   * the traversal stops once the next node's bound exceeds the
//     current k-th in-box score (ties stay open; exact in FP because
//     the score is monotone under non-negative weights).
// A popped leaf scores only its in-box members.
// Over shards (sdl+) and runs (tdl+), the partitions' open rule
// (core/partition_merge.h) runs with the predicate pushed in: a shard
// or run whose root box misses the box counts as one box pruned, any
// other runs the traversal above.
//
// Certified partials: with an ExecBudget, a tripped traversal returns
// a certified prefix. Over one index the frontier is the next node's
// lower bound: unopened nodes cannot hold an in-box tuple scoring
// below it, box-pruned nodes hold no eligible tuple at all, and a
// tuple rejected by the running top-k heap canonically follows every
// returned item. Over shards and runs the merge certifies.

#ifndef DRLI_SCENARIOS_CONSTRAINED_H_
#define DRLI_SCENARIOS_CONSTRAINED_H_

#include <cstddef>
#include <vector>

#include "common/point.h"
#include "core/dual_layer.h"
#include "core/tiered_index.h"
#include "scenarios/scenario_box.h"
#include "shard/sharded_index.h"
#include "topk/query.h"

namespace drli {

// A linear top-k query plus the attribute constraint box. Weight
// semantics follow ValidateQuery (non-negative, finite, not all
// zero); the box follows ValidateBox.
struct ConstrainedQuery {
  Point weights;
  std::size_t k = 1;
  AttributeBox box;
  ExecBudget budget{};
};

// Best-first box-tree traversal over one DL+ index.
TopKResult ConstrainedTopK(const DualLayerIndex& index,
                           const ConstrainedQuery& query);

// Scatter-gather over shards: a shard is opened only when its frontier
// bound reaches the merge frontier AND its bounding box intersects the
// constraint; opened shards run the DL+ traversal above with the
// remaining budget (RemainingBudget composition).
TopKResult ConstrainedTopK(const ShardedDualLayerIndex& index,
                           const ConstrainedQuery& query);

// Tiered engine: the memtable is always fully scanned (so partials
// certify against run bounds alone, like the unconstrained merge);
// runs open in bound order, each queried for min(|run|, k + dead(run))
// items so tombstoned members can never starve the live answer.
TopKResult ConstrainedTopK(const TieredDualLayerIndex& index,
                           const ConstrainedQuery& query);

// Brute-force reference: one pass over `points` in id order, scoring
// exactly the tuples the box contains (they are the scenario's cost
// universe). Enrolled in the differential oracle and fuzzer as the
// ground truth for every engine above. Budget semantics match
// FullScan: a mid-scan stop cannot bound the remainder, so partials
// certify nothing (frontier -inf).
TopKResult ConstrainedTopKScan(const PointSet& points,
                               const ConstrainedQuery& query);

// The scan over an explicit id mapping: row i of `points` carries
// external id `ids[i]` (ascending). Lets the oracle compute expected
// answers for dynamic engines whose live rows are a subset of the
// original id space. `ConstrainedTopKScan` is the identity-id special
// case.
TopKResult ConstrainedScanRows(const PointSet& points,
                               const std::vector<TupleId>& ids,
                               const ConstrainedQuery& query);

}  // namespace drli

#endif  // DRLI_SCENARIOS_CONSTRAINED_H_
