// A static kd tree of member boxes over one PointSet: the repository's
// one kd tree. Its users are the coarse layering's sweep and the
// convex layers' live-witness skyline (skyline/skyline_layers.h,
// DESIGN.md "Build pipeline"), the ∀-edge wiring between adjacent
// coarse layers (ForEachDominancePair) and the EDS facet-corner
// prefilter of the fine peel (core/dual_layer.cc), the last two through
// ForEachDominator, and the pruning unit of the constrained scenario and
// of the diversified certificate (DESIGN.md "Constrained top-k",
// "Diversified top-k").
//
// Each node splits its members at the median of the widest axis of the
// box it inherits (the relation's bounding box at the root); splitting
// stops at leaves of at most kLeafSize members. Node boxes are then the
// exact min/max of their members, computed bottom-up, so
// lo(node) <= t <= hi(node) for every member t, bit for bit. Median
// ties break by id, so equal point sets give equal trees.
// DualLayerIndex builds one before its coarse layering and keeps it;
// a snapshot load derives it again. It is never persisted.

#ifndef DRLI_GEOMETRY_BOX_TREE_H_
#define DRLI_GEOMETRY_BOX_TREE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/point.h"

namespace drli {

// Which members BoxTree::ForEachDominator reports: those strictly
// dominating the target (Dominates) or those weakly dominating it
// (WeaklyDominates: <= in every coordinate, so a copy of it counts).
enum class Dominance { kStrict, kWeak };

// How one ForEachDominator call resolved the tree's members. Every
// member lands in exactly one bucket, so pruned + tested is the member
// count.
struct DominatorWalkCounts {
  // Members of nodes whose lo corner does not weakly dominate the target.
  std::size_t pruned = 0;
  // Members taken whole with their node or compared one by one in a leaf.
  std::size_t tested = 0;
};

class BoxTree {
 public:
  // Largest leaf. A constant, not an option: 8 certifies and prunes
  // better than 16 or 32 for the constrained walk and the certificate.
  static constexpr std::size_t kLeafSize = 8;

  BoxTree() = default;
  static BoxTree Build(const PointSet& points);

  std::size_t dim() const { return dim_; }
  // 0 for an empty relation; node 0 is the root otherwise.
  std::size_t num_nodes() const { return child_.size(); }
  bool empty() const { return child_.empty(); }

  PointView lo(std::size_t node) const {
    return PointView(lo_.data() + node * dim_, dim_);
  }
  PointView hi(std::size_t node) const {
    return PointView(hi_.data() + node * dim_, dim_);
  }
  bool is_leaf(std::size_t node) const { return child_[node] == 0; }
  // An internal node's children are left(node) and left(node) + 1.
  std::size_t left(std::size_t node) const { return child_[node]; }
  // A contiguous range of the one id permutation.
  std::span<const TupleId> members(std::size_t node) const {
    return std::span<const TupleId>(ids_.data() + begin_[node],
                                    end_[node] - begin_[node]);
  }

  // Calls visit(id) once for every member dominating t in the kKind
  // sense; `points` is the set the tree was built over. A node whose lo
  // corner does not weakly dominate t holds no dominator and is pruned.
  // A node whose hi corner weakly dominates t holds only weak
  // dominators and is taken whole; under kStrict that needs hi != t,
  // which puts some coordinate of every member strictly below t's.
  // Members are reported in the tree's preorder, not id order.
  template <Dominance kKind, typename Visit>
  DominatorWalkCounts ForEachDominator(const PointSet& points, PointView t,
                                       Visit&& visit) const {
    DominatorWalkCounts counts;
    if (empty()) return counts;
    DRLI_DCHECK(t.size() == dim_ && points.dim() == dim_);
    // At most one pending sibling per level plus one: median splits
    // keep the depth under 32.
    std::uint32_t stack[64];
    std::size_t size = 0;
    stack[size++] = 0;
    while (size > 0) {
      const std::uint32_t node = stack[--size];
      const std::span<const TupleId> ids = members(node);
      if (!WeaklyDominates(lo(node), t)) {
        counts.pruned += ids.size();
        continue;
      }
      if (WeaklyDominates(hi(node), t) &&
          (kKind == Dominance::kWeak || !std::ranges::equal(hi(node), t))) {
        for (const TupleId id : ids) visit(id);
        counts.tested += ids.size();
        continue;
      }
      if (is_leaf(node)) {
        for (const TupleId id : ids) {
          if (kKind == Dominance::kStrict ? Dominates(points[id], t)
                                          : WeaklyDominates(points[id], t)) {
            visit(id);
          }
        }
        counts.tested += ids.size();
        continue;
      }
      stack[size++] = child_[node] + 1;
      stack[size++] = child_[node];
    }
    return counts;
  }

 private:
  std::size_t dim_ = 0;
  std::vector<double> lo_;  // node-major, dim_ per node
  std::vector<double> hi_;
  std::vector<std::uint32_t> child_;  // left child, 0 for a leaf
  std::vector<std::uint32_t> begin_;  // member range in ids_
  std::vector<std::uint32_t> end_;
  std::vector<TupleId> ids_;
};

}  // namespace drli

#endif  // DRLI_GEOMETRY_BOX_TREE_H_
