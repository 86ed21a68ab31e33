// The Dominant Graph index DG (Zou & Chen, ICDE'08) and its zero-layer
// variant DG+ -- the strongest layer-based competitor in the paper's
// evaluation (Section VI).
//
// Structure: skyline layers with ∀-dominance edges between adjacent
// layers. A tuple is accessed once every dominator in the previous
// layer has entered the running top-(k-1) answer set; the first layer
// receives complete access (DG) or is guarded by k-means pseudo-tuples
// (DG+, following Section V-B of [5] without the fine split).
//
// That is exactly the dual-resolution index with its fine level turned
// off (Section III: DL is DG plus fine sublayers, hence Theorem 5), so
// DG and DG+ are DualLayerIndex builds under DominantGraphConfig: one
// ∀-graph construction and one best-first traversal serve both families.

#ifndef DRLI_BASELINES_DOMINANT_GRAPH_H_
#define DRLI_BASELINES_DOMINANT_GRAPH_H_

#include "core/dual_layer.h"

namespace drli {

// The DG (zero_layer = false) or DG+ (zero_layer = true) configuration
// of the dual-layer index: no fine sublayers and no ∃-edges, a flat
// clustered zero layer in every dimensionality, named "DG" / "DG+".
DualLayerOptions DominantGraphConfig(bool zero_layer);

}  // namespace drli

#endif  // DRLI_BASELINES_DOMINANT_GRAPH_H_
