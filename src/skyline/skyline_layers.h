// Layer decompositions used by every index in the library:
//
//  * skyline layers (iterated skylines) -- the coarse level of the
//    dual-resolution index and the layers of the Dominant Graph;
//  * convex layers (iterated convex skylines) -- the layers of Onion
//    and the Hybrid-Layer index.
//
// Convex-layer peeling exploits CSKY(S) = CSKY(SKY(S)): each iteration
// first reduces the remaining set to its skyline (cheap, SkyTree) and
// only runs the hull machinery on that reduced set.

#ifndef DRLI_SKYLINE_SKYLINE_LAYERS_H_
#define DRLI_SKYLINE_SKYLINE_LAYERS_H_

#include <cstddef>
#include <functional>
#include <limits>
#include <vector>

#include "common/point.h"

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
// Computed in a single pass rather than by repeated skyline peels:
// points are processed in ascending attribute-sum order (every
// dominator of a point strictly precedes it), and each point's layer
// is 1 + the deepest layer holding one of its dominators. Because
// dominance is transitive, "some member of layer ℓ dominates p" is
// downward closed in ℓ, so that layer is found by binary search over
// the layers built so far. The decomposition is unique, so the result
// is identical to peeling.
LayerDecomposition BuildSkylineLayers(const PointSet& points);

// Reference implementation: repeated ComputeSkylineOfSubset peels.
// Same output as BuildSkylineLayers on every input (the decomposition
// is unique); kept for equivalence tests.
LayerDecomposition BuildSkylineLayersByPeeling(const PointSet& points);

// Iterated convex skylines (Onion layers): layer 1 = CSKY(R), layer i =
// CSKY(R - earlier). When `max_layers` peels have been produced and
// tuples remain, the remainder becomes one final complete-access layer
// and `truncated` is set; queries with k <= max_layers never reach it.
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
// Bounds-tree scan: `upper` is indexed by a kd-style tree whose nodes
// carry componentwise min/max corners (DominanceTree); per target, a
// subtree whose min corner fails to weakly dominate the target is
// skipped in O(d) and a subtree whose max corner weakly dominates it
// is accepted wholesale. Targets are visited in the given `lower`
// order; the per-target source order is the tree's deterministic
// preorder (callers must not rely on a particular source order).
// `stats` (optional) accumulates pruning counters.
void ForEachDominancePair(
    const PointSet& points, const std::vector<TupleId>& upper,
    const std::vector<TupleId>& lower,
    const std::function<void(TupleId source, TupleId target)>& edge,
    DominancePairStats* stats = nullptr);

}  // namespace drli

#endif  // DRLI_SKYLINE_SKYLINE_LAYERS_H_
