// A static kd tree of member boxes over one PointSet. It has three
// users: the coarse layering's sweep (skyline/skyline_layers.h, DESIGN.md
// "Build pipeline"), and the pruning unit of the constrained scenario
// and of the diversified certificate (DESIGN.md "Constrained top-k",
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

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/point.h"

namespace drli {

class BoxTree {
 public:
  // Largest leaf. A constant, not an option: 8 certifies and prunes
  // better than 16 or 32 for both users.
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
