// Structural invariant checker for DualLayerIndex (the "drli check"
// oracle). CheckIndex revalidates a built or deserialized index against
// the paper's definitions using only public accessors, so it works on
// indexes that went through a save/load round trip. It reads the graph
// through DualLayerIndex::NodeGraph, the node-space export of the slot
// layout queries run on:
//
//  * array shapes and CSR edge targets are in range;
//  * every ∀-edge steps one coarse layer down under strict dominance
//    (weak dominance for pseudo-tuple sources, Lemma 1), every ∃-edge
//    steps one fine sublayer down inside one coarse layer;
//  * the layout's coarse in-degrees, ∃ flags and start set match a
//    recount from its edges;
//  * coarse layers are exactly the iterated skyline (dominance-depth
//    recomputation, capped at 4M point pairs with a sampled
//    fallback), and adjacent-layer ∀-edges are complete;
//  * fine sublayers are convex: per sampled weight, sublayer minima are
//    non-decreasing in the fine index (so the first sublayer always
//    holds a group minimizer);
//  * each node's ∃-in-neighbour set is an existential dominance set of
//    the node (FacetIsEds), in real and in virtual space;
//  * the zero layer covers the first coarse layer, pseudo-tuple edges
//    weakly dominate their targets, and the 2-d weight-range table
//    agrees with brute force on sampled weights;
//  * LayerGroups() partitions the real tuples, the box tree passes
//    CheckBoxTree, and the stats fields a deserialized index restores
//    match the structure.

#ifndef DRLI_TESTING_CHECK_INDEX_H_
#define DRLI_TESTING_CHECK_INDEX_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/dual_layer.h"

namespace drli {

struct CheckOptions {
  // Weight vectors sampled for the convexity / zero-layer checks.
  std::size_t weight_samples = 16;
  std::uint64_t seed = 12345;
};

struct CheckReport {
  std::vector<std::string> failures;
  std::size_t invariants_checked = 0;

  bool ok() const { return failures.empty(); }
  // "OK (N invariants)" or the failure list, newline separated.
  std::string ToString() const;
};

CheckReport CheckIndex(const DualLayerIndex& index,
                       const CheckOptions& options = {});

// The box tree's structure (geometry/box_tree.h) over the relation it was
// built from: its leaves partition the ids, no leaf holds more than
// BoxTree::kLeafSize members, every node's box is its members' exact
// min/max, and every child's box lies inside its parent's.
CheckReport CheckBoxTree(const BoxTree& tree, const PointSet& points);

}  // namespace drli

#endif  // DRLI_TESTING_CHECK_INDEX_H_
