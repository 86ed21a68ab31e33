// Layer decompositions used by every index in the library:
//
//  * skyline layers (iterated skylines) -- the coarse level of the
//    dual-resolution index and the layers of the Dominant Graph;
//  * convex layers (iterated convex skylines) -- the layers of Onion
//    and the Hybrid-Layer index.
//
// Both run on a BoxTree (geometry/box_tree.h). Convex-layer peeling
// exploits CSKY(S) = CSKY(SKY(S)): the hull machinery runs only on the
// skyline of the remaining set, which the peel keeps up to date across
// layers rather than recomputing.

#ifndef DRLI_SKYLINE_SKYLINE_LAYERS_H_
#define DRLI_SKYLINE_SKYLINE_LAYERS_H_

#include <cstddef>
#include <limits>
#include <vector>

#include "common/point.h"
#include "geometry/box_tree.h"

namespace drli {

struct LayerDecomposition {
  // layers[i] = ids (into the input PointSet) of layer i+1, ascending.
  std::vector<std::vector<TupleId>> layers;
  // layer_of[id] = 0-based layer index of the tuple; every tuple is
  // assigned (one-to-one mapping, Section II).
  std::vector<std::size_t> layer_of;
};

// Iterated skylines: layer 1 = SKY(R), layer i = SKY(R - earlier).
//
// Computed in a single pass rather than by repeated skyline peels: a
// point's layer is 1 + the deepest layer holding one of its
// dominators. Points are swept in sum order (common/point.h: attribute
// sum, then coordinates lexicographically), ties by id; every
// dominator of a point comes first. `tree` must be
// BoxTree::Build(points): the sweep annotates each node with its
// deepest swept layer and finds a point's deepest dominator by branch
// and bound over the tree.
//
// With threads > 1 (0 = ParallelThreadCount()) the sweep runs in
// chunks: the workers query the tree, frozen for the chunk, and list
// each point's dominators among the chunk's earlier points; then one
// thread resolves and inserts the chunk in order. The decomposition is
// unique, so every thread count gives the peeling's result.
LayerDecomposition BuildSkylineLayers(const PointSet& points,
                                      const BoxTree& tree,
                                      std::size_t threads = 1);
// The same over a tree built here.
LayerDecomposition BuildSkylineLayers(const PointSet& points,
                                      std::size_t threads = 1);

// Reference implementation: repeated NaiveSkyline peels, O(n^2) per
// layer. Same output as BuildSkylineLayers on every input (the
// decomposition is unique); kept for equivalence tests.
LayerDecomposition BuildSkylineLayersByPeeling(const PointSet& points);

// Iterated convex skylines (Onion layers): layer 1 = CSKY(R), layer i =
// CSKY(R - earlier). When `max_layers` peels have been produced and
// tuples remain, the remainder becomes one final complete-access layer
// and `truncated` is set; queries with k <= max_layers never reach it.
//
// The skyline of the remainder is kept across peels on a BoxTree over
// `points`: every dominated tuple holds a witness, a remaining tuple
// strictly dominating it. A convex layer lies within the skyline, so
// when it leaves only the tuples whose witness it held search again,
// and those that find no dominator join the skyline. The hull gets the
// skyline's ids in ascending order, as a fresh skyline would give them.
struct ConvexLayerDecomposition {
  std::vector<std::vector<TupleId>> layers;
  std::vector<std::size_t> layer_of;
  bool truncated = false;
};

ConvexLayerDecomposition BuildConvexLayers(
    const PointSet& points,
    std::size_t max_layers = std::numeric_limits<std::size_t>::max());

// Pruning effectiveness counters for ForEachDominancePair. Every
// candidate (source, target) pair lands in exactly one bucket, so
// pairs_pruned + pairs_tested == |upper| * |lower|.
struct DominancePairStats {
  // Pairs skipped wholesale because a subtree bound ruled them out.
  std::size_t pairs_pruned = 0;
  // Pairs resolved individually or by a whole-subtree accept.
  std::size_t pairs_tested = 0;
};

// Invokes edge(t, t') for every pair t in `upper`, t' in `lower` with
// t ≺ t'. Used to wire ∀-dominance edges between adjacent layers.
//
// A BoxTree over `upper` answers each target's strict dominators
// (BoxTree::ForEachDominator): a node whose lo corner fails to weakly
// dominate the target is skipped in O(d), and one whose hi corner
// dominates it is taken whole. Targets are visited in the given `lower`
// order; the per-target source order is the tree's preorder (callers
// must not rely on a particular source order). `stats` (optional)
// accumulates pruning counters.
template <typename Edge>
void ForEachDominancePair(const PointSet& points,
                          const std::vector<TupleId>& upper,
                          const std::vector<TupleId>& lower, Edge&& edge,
                          DominancePairStats* stats = nullptr) {
  if (upper.empty() || lower.empty()) return;
  const PointSet sources = points.Subset(upper);
  const BoxTree tree = BoxTree::Build(sources);
  for (const TupleId target : lower) {
    const DominatorWalkCounts counts =
        tree.ForEachDominator<Dominance::kStrict>(
            sources, points[target],
            [&](TupleId local) { edge(upper[local], target); });
    if (stats != nullptr) {
      stats->pairs_pruned += counts.pruned;
      stats->pairs_tested += counts.tested;
    }
  }
}

}  // namespace drli

#endif  // DRLI_SKYLINE_SKYLINE_LAYERS_H_
