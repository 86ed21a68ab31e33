// The virtual zero layer L0 of Section V, in both forms:
//
//  * d == 2 (Section V-A): an exact weight-range partition over the
//    first fine sublayer L^{11}. Each chain tuple is optimal for one
//    interval of w1 bounded by the slopes of its adjacent facets
//    (w1 = lambda/(lambda-1)); a binary search identifies the unique
//    top-1 candidate, so only one tuple of L^{11} is accessed.
//
//  * d >= 3 (Section V-B): first-layer tuples are clustered (k-means)
//    and each cluster is represented by a pseudo-tuple at its
//    attribute-wise minimum corner, which weakly dominates every
//    member. DL+ additionally splits the pseudo-tuples into fine
//    sublayers with ∃-dominance edges; DG+ uses them flat.

#ifndef DRLI_CORE_ZERO_LAYER_H_
#define DRLI_CORE_ZERO_LAYER_H_

#include <cstdint>
#include <vector>

#include "common/point.h"

namespace drli {

// Section V-A structure. Valid for d == 2 only.
class WeightRangeTable {
 public:
  WeightRangeTable() = default;

  // `chain` = the L^{11} tuples in increasing-x (decreasing-y) order;
  // must be a strictly convex lower-left chain.
  static WeightRangeTable Build(const PointSet& points,
                                std::vector<TupleId> chain);

  // True iff `chain` satisfies Build's preconditions on `points`: dim
  // 2, every id in range, strictly descending left to right, and
  // strictly convex (decreasing breakpoints). The snapshot loader runs
  // this on untrusted chains so a corrupt file is rejected with a
  // Status instead of tripping the CHECKs inside Build.
  static bool ValidateChain(const PointSet& points,
                            const std::vector<TupleId>& chain);

  bool empty() const { return chain_.empty(); }
  std::size_t size() const { return chain_.size(); }
  const std::vector<TupleId>& chain() const { return chain_; }
  const std::vector<double>& breakpoints() const { return breakpoints_; }

  // Chain position of the top-1 candidate for weights (w1, 1 - w1).
  // O(log |L^{11}|).
  std::size_t Lookup(double w1) const;

 private:
  std::vector<TupleId> chain_;       // x-ascending
  std::vector<double> breakpoints_;  // strictly decreasing, size-1 entries
};

// Section V-B structure: pseudo-tuples for the clusters of `layer1`.
struct ClusteredZeroLayer {
  // One pseudo-tuple (min corner) per non-empty cluster.
  PointSet pseudo;
  // cluster_of[i] = cluster of layer1[i].
  std::vector<std::size_t> cluster_of;

  explicit ClusteredZeroLayer(std::size_t dim) : pseudo(dim) {}
};

// K-means seed of every clustered zero layer (DL+ and DG+), fixed so
// that a build is a pure function of its input.
inline constexpr std::uint64_t kZeroLayerSeed = 7;

// Clusters the tuples `layer1` of `points`. `num_clusters` 0 means the
// default ceil(sqrt(|layer1|)).
ClusteredZeroLayer BuildClusteredZeroLayer(const PointSet& points,
                                           const std::vector<TupleId>& layer1,
                                           std::size_t num_clusters);

}  // namespace drli

#endif  // DRLI_CORE_ZERO_LAYER_H_
