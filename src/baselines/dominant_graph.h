// The Dominant Graph index DG (Zou & Chen, ICDE'08) and its zero-layer
// variant DG+ -- the strongest layer-based competitor in the paper's
// evaluation (Section VI).
//
// Structure: skyline layers with ∀-dominance edges between adjacent
// layers. A tuple is accessed once every dominator in the previous
// layer has entered the running top-(k-1) answer set; the first layer
// receives complete access (DG) or is guarded by k-means pseudo-tuples
// (DG+, following Section V-B of [5] without the fine split).

#ifndef DRLI_BASELINES_DOMINANT_GRAPH_H_
#define DRLI_BASELINES_DOMINANT_GRAPH_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/point.h"
#include "common/soa_points.h"
#include "topk/query.h"

namespace drli {

struct DominantGraphOptions {
  bool build_zero_layer = false;  // DG+ when true
  std::size_t zero_layer_clusters = 0;  // 0 = ceil(sqrt(|L1|))
  std::string name;  // empty = "DG" / "DG+"
};

struct DominantGraphBuildStats {
  std::size_t num_layers = 0;
  std::size_t num_edges = 0;
  std::size_t num_virtual = 0;
  double build_seconds = 0.0;
};

class DominantGraphIndex final : public TopKIndex {
 public:
  using NodeId = std::uint32_t;

  static DominantGraphIndex Build(PointSet points,
                                  const DominantGraphOptions& options = {});

  DominantGraphIndex(DominantGraphIndex&&) = default;
  DominantGraphIndex& operator=(DominantGraphIndex&&) = default;

  std::string name() const override { return name_; }
  std::size_t size() const override { return points_.size(); }
  std::size_t dim() const override { return points_.dim(); }
  TopKResult Query(const TopKQuery& query) const override;

  // Extension beyond the paper's linear model: skyline layers and
  // ∀-dominance only need monotonicity, so DG answers top-k for ANY
  // monotone scoring function (if t_i <= t'_i for all i then
  // scorer(t) <= scorer(t')), e.g. weighted L_p norms. The zero layer
  // remains sound because pseudo-tuples weakly dominate their cluster
  // members. (The dual-resolution index cannot offer this: ∃-dominance
  // is a convexity argument and requires linear scoring.)
  using MonotoneScorer = std::function<double(PointView)>;
  TopKResult QueryMonotone(const MonotoneScorer& scorer, std::size_t k,
                           const ExecBudget& budget = {}) const;

  const PointSet& points() const { return points_; }
  const PointSet& virtual_points() const { return virtual_points_; }
  const DominantGraphBuildStats& build_stats() const { return stats_; }
  const std::vector<std::vector<TupleId>>& layers() const { return layers_; }

 private:
  DominantGraphIndex() : points_(1), virtual_points_(1) {}

  bool is_virtual(NodeId node) const { return node >= points_.size(); }
  PointView node_point(NodeId node) const {
    return is_virtual(node) ? virtual_points_[node - points_.size()]
                            : points_[node];
  }
  std::size_t num_nodes() const {
    return points_.size() + virtual_points_.size();
  }

  // The linear-scorer fast path for Query(): batched scoring over the
  // dimension-major view with deferred enqueues, semantically identical
  // to QueryMonotone with a linear scorer.
  TopKResult QueryLinear(const TopKQuery& query) const;

  std::string name_;
  DominantGraphBuildStats stats_;
  PointSet points_;
  PointSet virtual_points_;
  // Dimension-major view over points_ then virtual_points_ (node-id
  // order); derived at build time, never persisted.
  SoaPointSet soa_;
  std::vector<std::vector<TupleId>> layers_;
  // ∀-dominance out-edges in CSR form: the targets of node v are
  // out_targets_[out_offsets_[v] .. out_offsets_[v+1]).
  std::vector<std::uint32_t> out_offsets_;
  std::vector<NodeId> out_targets_;
  std::vector<std::uint32_t> in_degree_;
  std::vector<NodeId> initial_;
};

}  // namespace drli

#endif  // DRLI_BASELINES_DOMINANT_GRAPH_H_
