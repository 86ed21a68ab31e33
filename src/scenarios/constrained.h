// Constrained top-k (DESIGN.md "Query scenarios"): the plain linear
// top-k query restricted to tuples inside an axis-aligned attribute
// box. The answer is the canonical top-k (ascending (score, id)) of
// the tuples the box contains -- the same contract as every other
// family, over a smaller universe.
//
// Index acceleration pushes the predicate into the kd box trees
// (DualLayerIndex::box_tree, geometry/box_tree.h) of a forest: one DL+
// index is a forest of one, a sharded or tiered engine one tree per
// shard or run, each with its local-to-global id map. Every tree's
// nodes are opened on one best-first loop (core/best_first.h, shared
// with the partition merge) by a sound score lower bound -- the score
// of max(node lo, box lo), a corner that weakly dominates every in-box
// member --
//   * a node whose member box misses the constraint box is dropped
//     unopened (stats.boxes_pruned counts these; a shard or run whose
//     root misses the box is one such node), and
//   * the walk stops once the next node's bound exceeds the current
//     k-th in-box score over the whole forest (ties stay open; exact in
//     FP because the score is monotone under non-negative weights).
// A popped leaf scores only its live in-box members into the one
// global top-k heap: a retired member (DualLayerIndex::Retire) is
// skipped unscored, like a containment miss. The tdl+ memtable's
// in-box rows are scored into that heap before the first pop.
// ConstrainedTopK takes the engine as a TopKIndex and is the one place
// that tells the three apart.
//
// The query is validated once, at ConstrainedTopK's entry.
//
// Certified partials: with an ExecBudget, a tripped walk returns a
// certified prefix. The frontier is the bound of the node the budget
// stopped: unopened nodes cannot hold an in-box tuple scoring below it,
// box-pruned nodes hold no eligible tuple at all, the memtable rows
// were all scored, and a tuple rejected by the running top-k heap
// canonically follows every returned item.

#ifndef DRLI_SCENARIOS_CONSTRAINED_H_
#define DRLI_SCENARIOS_CONSTRAINED_H_

#include <cstddef>
#include <vector>

#include "common/point.h"
#include "scenarios/scenario_box.h"
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

// Constrained top-k on any DL+ engine: one best-first walk over the
// box trees of a DualLayerIndex, of a ShardedDualLayerIndex's shards,
// or of a TieredDualLayerIndex's runs after its memtable's in-box rows
// (header comment). Any other family has no box tree: kInvalidQuery,
// naming the engine.
TopKResult ConstrainedTopK(const TopKIndex& engine,
                           const ConstrainedQuery& query);

// Brute-force reference: one pass over `points` in id order, scoring
// exactly the tuples the box contains (they are the scenario's cost
// universe). Enrolled in the differential oracle and fuzzer as the
// ground truth for every engine. Budget semantics match
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
