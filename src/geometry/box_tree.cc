#include "geometry/box_tree.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/check.h"

namespace drli {

BoxTree BoxTree::Build(const PointSet& points) {
  BoxTree tree;
  const std::size_t n = points.size();
  const std::size_t d = points.dim();
  tree.dim_ = d;
  if (n == 0) return tree;
  tree.ids_.resize(n);
  std::iota(tree.ids_.begin(), tree.ids_.end(), TupleId{0});
  tree.child_.push_back(0);
  tree.begin_.push_back(0);
  tree.end_.push_back(static_cast<std::uint32_t>(n));

  // The boxes nodes inherit from their parents' splits, node-major like
  // lo_ and hi_; the root inherits the relation's bounding box.
  std::vector<double> in_lo(points[0].begin(), points[0].end());
  std::vector<double> in_hi = in_lo;
  for (std::size_t t = 1; t < n; ++t) {
    for (std::size_t a = 0; a < d; ++a) {
      in_lo[a] = std::min(in_lo[a], points.At(t, a));
      in_hi[a] = std::max(in_hi[a], points.At(t, a));
    }
  }
  // Children are appended after their parent, so one pass in node order
  // splits every node.
  std::vector<std::pair<double, TupleId>> keys;
  for (std::size_t node = 0; node < tree.child_.size(); ++node) {
    const std::uint32_t begin = tree.begin_[node];
    const std::uint32_t end = tree.end_[node];
    if (end - begin <= kLeafSize) continue;
    std::size_t axis = 0;
    for (std::size_t a = 1; a < d; ++a) {
      if (in_hi[node * d + a] - in_lo[node * d + a] >
          in_hi[node * d + axis] - in_lo[node * d + axis]) {
        axis = a;
      }
    }
    // Median by (coordinate, id): a strict order, so the halves do not
    // depend on how nth_element orders ties.
    keys.clear();
    for (std::uint32_t i = begin; i < end; ++i) {
      keys.emplace_back(points.At(tree.ids_[i], axis), tree.ids_[i]);
    }
    const std::uint32_t mid = begin + (end - begin) / 2;
    std::nth_element(keys.begin(), keys.begin() + (mid - begin), keys.end());
    for (std::uint32_t i = begin; i < end; ++i) {
      tree.ids_[i] = keys[i - begin].second;
    }
    const auto left = static_cast<std::uint32_t>(tree.child_.size());
    tree.child_[node] = left;
    tree.child_.insert(tree.child_.end(), {0, 0});
    tree.begin_.insert(tree.begin_.end(), {begin, mid});
    tree.end_.insert(tree.end_.end(), {mid, end});
    for (std::size_t i = 0; i < 2 * d; ++i) {
      in_lo.push_back(in_lo[node * d + i % d]);
      in_hi.push_back(in_hi[node * d + i % d]);
    }
    in_hi[left * d + axis] = keys[mid - begin].first;
    in_lo[(left + 1) * d + axis] = keys[mid - begin].first;
  }

  // Exact boxes, bottom-up: a leaf's from its members, an internal
  // node's from its two children.
  const std::size_t nodes = tree.child_.size();
  tree.lo_.resize(nodes * d);
  tree.hi_.resize(nodes * d);
  for (std::size_t node = nodes; node-- > 0;) {
    double* lo = tree.lo_.data() + node * d;
    double* hi = tree.hi_.data() + node * d;
    const auto cover = [&](PointView box_lo, PointView box_hi) {
      for (std::size_t a = 0; a < d; ++a) {
        lo[a] = std::min(lo[a], box_lo[a]);
        hi[a] = std::max(hi[a], box_hi[a]);
      }
    };
    if (tree.is_leaf(node)) {
      const std::span<const TupleId> members = tree.members(node);
      std::copy_n(points[members[0]].data(), d, lo);
      std::copy_n(lo, d, hi);
      for (const TupleId id : members) cover(points[id], points[id]);
    } else {
      const std::size_t l = tree.left(node);
      std::copy_n(tree.lo(l).data(), d, lo);
      std::copy_n(tree.hi(l).data(), d, hi);
      cover(tree.lo(l + 1), tree.hi(l + 1));
    }
    // Child inside parent: the median split keeps each node's exact box
    // inside the part of its parent's box that the split handed it.
    for (std::size_t a = 0; a < d; ++a) {
      DRLI_DCHECK(in_lo[node * d + a] <= lo[a] &&
                  hi[a] <= in_hi[node * d + a]);
    }
  }
  return tree;
}

}  // namespace drli
