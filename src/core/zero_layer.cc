#include "core/zero_layer.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "cluster/kmeans.h"

namespace drli {

WeightRangeTable WeightRangeTable::Build(const PointSet& points,
                                         std::vector<TupleId> chain) {
  DRLI_CHECK_EQ(points.dim(), 2u);
  WeightRangeTable table;
  table.chain_ = std::move(chain);
  for (std::size_t i = 0; i + 1 < table.chain_.size(); ++i) {
    const PointView a = points[table.chain_[i]];
    const PointView b = points[table.chain_[i + 1]];
    DRLI_CHECK(a[0] < b[0] && a[1] > b[1])
        << "chain must descend left to right";
    // Scores tie at w1 (a1 - b1) + (1 - w1)(a2 - b2) = 0, i.e.
    // w1* = B / (B - A) with A = a1 - b1 < 0, B = a2 - b2 > 0 --
    // equivalently lambda/(lambda - 1) for the facet slope lambda.
    const double big_a = a[0] - b[0];
    const double big_b = a[1] - b[1];
    table.breakpoints_.push_back(big_b / (big_b - big_a));
  }
  // Convexity of the chain makes the breakpoints strictly decreasing.
  for (std::size_t i = 0; i + 1 < table.breakpoints_.size(); ++i) {
    DRLI_CHECK(table.breakpoints_[i] > table.breakpoints_[i + 1])
        << "chain is not strictly convex";
  }
  return table;
}

bool WeightRangeTable::ValidateChain(const PointSet& points,
                                     const std::vector<TupleId>& chain) {
  if (points.dim() != 2) return false;
  for (TupleId id : chain) {
    if (id >= points.size()) return false;
  }
  double prev_breakpoint = 0.0;
  for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
    const PointView a = points[chain[i]];
    const PointView b = points[chain[i + 1]];
    if (!(a[0] < b[0] && a[1] > b[1])) return false;
    // Same arithmetic as Build, so the convexity check here accepts
    // exactly the chains whose breakpoints Build finds decreasing.
    const double big_a = a[0] - b[0];
    const double big_b = a[1] - b[1];
    const double breakpoint = big_b / (big_b - big_a);
    if (i > 0 && !(prev_breakpoint > breakpoint)) return false;
    prev_breakpoint = breakpoint;
  }
  return true;
}

std::size_t WeightRangeTable::Lookup(double w1) const {
  DRLI_CHECK(!chain_.empty());
  // First position whose breakpoint is <= w1 (breakpoints descend):
  // chain_[i] is optimal on [breakpoints_[i], breakpoints_[i-1]].
  const auto it =
      std::lower_bound(breakpoints_.begin(), breakpoints_.end(), w1,
                       [](double bp, double value) { return bp > value; });
  return static_cast<std::size_t>(it - breakpoints_.begin());
}

ClusteredZeroLayer BuildClusteredZeroLayer(const PointSet& points,
                                           const std::vector<TupleId>& layer1,
                                           std::size_t num_clusters) {
  ClusteredZeroLayer out(points.dim());
  if (layer1.empty()) return out;
  if (num_clusters == 0) {
    num_clusters = static_cast<std::size_t>(
        std::ceil(std::sqrt(static_cast<double>(layer1.size()))));
  }
  const PointSet members = points.Subset(layer1);
  KMeansOptions options;
  options.num_clusters = num_clusters;
  options.seed = kZeroLayerSeed;
  const KMeansResult clusters = KMeans(members, options);
  out.cluster_of = clusters.assignment;
  for (const Point& corner : ClusterMinCorners(members, clusters)) {
    out.pseudo.Add(corner);
  }
  return out;
}

}  // namespace drli
