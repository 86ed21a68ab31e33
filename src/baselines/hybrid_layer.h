// The Hybrid-Layer index HL/HL+ (Heo, Cho & Whang, ICDE'10): convex
// layers whose tuples are stored as d sorted attribute lists, queried
// with the Threshold Algorithm inside each layer.
//
//  * HL  -- scans min(k, #layers) layers; inside a layer, TA stops at
//           threshold >= current global k-th best.
//  * HL+ -- additionally maintains a tight cross-layer bound: a layer
//           whose attribute-minima lower bound cannot beat the current
//           k-th best ends the scan entirely (layer minima increase
//           monotonically over convex layers).

#ifndef DRLI_BASELINES_HYBRID_LAYER_H_
#define DRLI_BASELINES_HYBRID_LAYER_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/point.h"
#include "common/soa_points.h"
#include "topk/query.h"
#include "topk/sorted_lists.h"

namespace drli {

struct HybridLayerOptions {
  // Cap on peeled layers, as in OnionOptions.
  std::size_t max_layers = static_cast<std::size_t>(-1);
  bool tight_threshold = true;  // HL+ when true
  std::string name;             // empty = "HL" / "HL+"
};

struct HybridLayerBuildStats {
  std::size_t num_layers = 0;
  bool truncated = false;
  double build_seconds = 0.0;
};

class HybridLayerIndex final : public TopKIndex {
 public:
  static HybridLayerIndex Build(PointSet points,
                                const HybridLayerOptions& options = {});

  HybridLayerIndex(HybridLayerIndex&&) = default;
  HybridLayerIndex& operator=(HybridLayerIndex&&) = default;

  std::string name() const override { return name_; }
  std::size_t size() const override { return points_.size(); }
  std::size_t dim() const override { return points_.dim(); }
  TopKResult Query(const TopKQuery& query) const override;

  const PointSet& points() const { return points_; }
  const std::vector<std::vector<TupleId>>& layers() const { return layers_; }
  const HybridLayerBuildStats& build_stats() const { return stats_; }

 private:
  HybridLayerIndex() : points_(1) {}

  std::string name_;
  bool tight_threshold_ = true;
  HybridLayerBuildStats stats_;
  PointSet points_;
  // Dimension-major view of points_ for batched random-access
  // completion; derived at construction, never persisted.
  SoaPointSet soa_;
  std::vector<std::vector<TupleId>> layers_;
  std::vector<SortedLists> lists_;  // one per layer
};

}  // namespace drli

#endif  // DRLI_BASELINES_HYBRID_LAYER_H_
