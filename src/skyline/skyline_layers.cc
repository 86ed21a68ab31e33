#include "skyline/skyline_layers.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/check.h"
#include "geometry/convex_skyline.h"
#include "skyline/dominance_tree.h"
#include "skyline/skyline.h"

namespace drli {

LayerDecomposition BuildSkylineLayers(const PointSet& points) {
  LayerDecomposition out;
  const std::size_t n = points.size();
  out.layer_of.assign(n, 0);
  if (n == 0) return out;
  const std::size_t d = points.dim();

  // Ascending (attribute sum, id): every dominator of a point strictly
  // precedes it (strict dominance implies a strictly smaller sum).
  std::vector<std::pair<double, TupleId>> order;
  order.reserve(n);
  for (TupleId id = 0; id < n; ++id) {
    const PointView p = points[id];
    double s = 0.0;
    for (std::size_t j = 0; j < d; ++j) s += p[j];
    order.emplace_back(s, id);
  }
  std::sort(order.begin(), order.end());

  // layer_of[p] = 1 + max layer among p's dominators, all of which are
  // already placed. "Layer ℓ contains a dominator of p" is downward
  // closed in ℓ (a layer-ℓ dominator is itself dominated by a chain
  // through every earlier layer), so the target layer is the binary-
  // searched least ℓ whose member set holds no dominator of p.
  std::vector<IncrementalDominatorSet> windows;
  for (const auto& [sum, id] : order) {
    const PointView p = points[id];
    std::size_t lo = 0;
    std::size_t hi = windows.size();
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (windows[mid].AnyDominates(p)) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (lo == windows.size()) {
      windows.emplace_back(points);
      out.layers.emplace_back();
    }
    windows[lo].Add(id);
    out.layers[lo].push_back(id);
    out.layer_of[id] = lo;
  }
  // Insertion was in sum order; the contract is ascending ids.
  for (std::vector<TupleId>& layer : out.layers) {
    std::sort(layer.begin(), layer.end());
  }
  return out;
}

LayerDecomposition BuildSkylineLayersByPeeling(const PointSet& points) {
  LayerDecomposition out;
  out.layer_of.assign(points.size(), 0);
  std::vector<TupleId> remaining(points.size());
  std::iota(remaining.begin(), remaining.end(), 0);
  while (!remaining.empty()) {
    std::vector<TupleId> layer = ComputeSkylineOfSubset(points, remaining);
    DRLI_CHECK(!layer.empty()) << "skyline of a non-empty set is non-empty";
    const std::size_t layer_index = out.layers.size();
    for (TupleId id : layer) out.layer_of[id] = layer_index;
    // Remove the layer (both lists are ascending).
    std::vector<TupleId> next;
    next.reserve(remaining.size() - layer.size());
    std::set_difference(remaining.begin(), remaining.end(), layer.begin(),
                        layer.end(), std::back_inserter(next));
    remaining = std::move(next);
    out.layers.push_back(std::move(layer));
  }
  return out;
}

ConvexLayerDecomposition BuildConvexLayers(const PointSet& points,
                                           std::size_t max_layers) {
  ConvexLayerDecomposition out;
  out.layer_of.assign(points.size(), 0);
  std::vector<TupleId> remaining(points.size());
  std::iota(remaining.begin(), remaining.end(), 0);
  while (!remaining.empty()) {
    if (out.layers.size() == max_layers) {
      // Budget exhausted: the remainder becomes one final
      // complete-access layer.
      for (TupleId id : remaining) out.layer_of[id] = out.layers.size();
      out.layers.push_back(std::move(remaining));
      out.truncated = true;
      break;
    }
    // CSKY(S) = CSKY(SKY(S)): reduce to the skyline before the hull.
    std::vector<TupleId> sky = ComputeSkylineOfSubset(points, remaining);
    const PointSet sky_points = points.Subset(sky);
    const ConvexSkylineResult csky = ComputeConvexSkyline(sky_points);
    std::vector<TupleId> layer;
    layer.reserve(csky.members.size());
    for (TupleId local : csky.members) layer.push_back(sky[local]);
    std::sort(layer.begin(), layer.end());
    DRLI_CHECK(!layer.empty());
    const std::size_t layer_index = out.layers.size();
    for (TupleId id : layer) out.layer_of[id] = layer_index;
    std::vector<TupleId> next;
    next.reserve(remaining.size() - layer.size());
    std::set_difference(remaining.begin(), remaining.end(), layer.begin(),
                        layer.end(), std::back_inserter(next));
    remaining = std::move(next);
    out.layers.push_back(std::move(layer));
  }
  return out;
}

void ForEachDominancePair(
    const PointSet& points, const std::vector<TupleId>& upper,
    const std::vector<TupleId>& lower,
    const std::function<void(TupleId source, TupleId target)>& edge,
    DominancePairStats* stats) {
  if (upper.empty() || lower.empty()) return;
  DominanceTree tree;
  tree.Build(points, upper);
  DominanceTreeStats tree_stats;
  for (TupleId target : lower) {
    tree.ForEachDominator(
        points[target], [&](TupleId source) { edge(source, target); },
        &tree_stats);
  }
  if (stats != nullptr) {
    stats->pairs_pruned += tree_stats.pruned;
    stats->pairs_tested += tree_stats.tested;
  }
}

}  // namespace drli
