// Static kd-style bounds tree over a point subset, answering dominance
// queries against it:
//
//  * AnyDominates(t)         -- does some member strictly dominate t?
//  * ForEachDominator(t)     -- report every member strictly dominating t.
//  * ForEachWeakDominator(t) -- report every member <= t componentwise.
//
// Nodes store the componentwise min and max corner of their subtree. A
// subtree whose min corner fails to weakly dominate the target cannot
// contain a dominator and is skipped in O(d); a subtree whose max
// corner weakly dominates the target (and differs from it) consists
// entirely of dominators and is accepted wholesale. Splits are median
// by (coordinate, id) on the widest axis, so the tree shape -- and
// with it every count reported through DominanceTreeStats -- is a
// deterministic function of the input set.
//
// The tree copies the member coordinates into a contiguous buffer; it
// does not keep a reference to the PointSet it was built from.

#ifndef DRLI_SKYLINE_DOMINANCE_TREE_H_
#define DRLI_SKYLINE_DOMINANCE_TREE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/point.h"

namespace drli {

// Pruning counters for ForEachDominator. Every (member, target) pair
// of a query lands in exactly one bucket, so over a query
// pruned + tested == size().
struct DominanceTreeStats {
  // Pairs skipped wholesale because a subtree bound ruled them out.
  std::size_t pruned = 0;
  // Pairs resolved individually or by a whole-subtree accept.
  std::size_t tested = 0;
};

class DominanceTree {
 public:
  DominanceTree() = default;

  // Rebuilds the tree over points[ids[i]]. The ids must be distinct.
  void Build(const PointSet& points, const std::vector<TupleId>& ids);

  std::size_t size() const { return ids_.size(); }
  bool empty() const { return ids_.empty(); }

  // True when some member strictly dominates t.
  bool AnyDominates(PointView t) const;

  // Invokes visit(id) for every member strictly dominating t. The
  // reporting order is the tree's deterministic preorder, not id
  // order. `stats` (optional) accumulates pruning counters.
  template <typename Visit>
  void ForEachDominator(PointView t, Visit&& visit,
                        DominanceTreeStats* stats = nullptr) const {
    if (empty()) return;
    DRLI_DCHECK(t.size() == dim_);
    DominanceTreeStats local;
    ForEachDominatorAt</*kStrict=*/true>(0, t, visit, &local);
    if (stats != nullptr) {
      stats->pruned += local.pruned;
      stats->tested += local.tested;
    }
  }

  // Invokes visit(id) for every member weakly dominating t (<= in every
  // coordinate, so a member equal to t counts), in the same preorder.
  template <typename Visit>
  void ForEachWeakDominator(PointView t, Visit&& visit) const {
    if (empty()) return;
    DRLI_DCHECK(t.size() == dim_);
    DominanceTreeStats unused;
    ForEachDominatorAt</*kStrict=*/false>(0, t, visit, &unused);
  }

 private:
  struct Node {
    std::uint32_t begin = 0;  // member range [begin, end) in ids_/coords_
    std::uint32_t end = 0;
    std::int32_t right = -1;  // -1: leaf; left child is always self + 1
  };

  std::uint32_t BuildNode(std::uint32_t begin, std::uint32_t end,
                          const std::vector<double>& raw,
                          const std::vector<TupleId>& ids,
                          std::vector<std::uint32_t>* perm);
  bool AnyDominatesAt(std::uint32_t idx, PointView t) const;
  // Strict or weak dominators (see the public queries).
  template <bool kStrict, typename Visit>
  void ForEachDominatorAt(std::uint32_t idx, PointView t, Visit& visit,
                          DominanceTreeStats* stats) const {
    const Node& node = nodes_[idx];
    const double* bmin =
        bounds_.data() + static_cast<std::size_t>(idx) * 2 * dim_;
    const double* bmax = bmin + dim_;
    if (!WeaklyDominates(PointView(bmin, dim_), t)) {
      stats->pruned += node.end - node.begin;
      return;
    }
    if (WeaklyDominates(PointView(bmax, dim_), t) &&
        !(kStrict && CornerEquals(bmax, t))) {
      for (std::uint32_t i = node.begin; i < node.end; ++i) visit(ids_[i]);
      stats->tested += node.end - node.begin;
      return;
    }
    if (node.right < 0) {
      for (std::uint32_t i = node.begin; i < node.end; ++i) {
        ++stats->tested;
        const PointView p(coords_.data() + i * dim_, dim_);
        if (kStrict ? Dominates(p, t) : WeaklyDominates(p, t)) visit(ids_[i]);
      }
      return;
    }
    ForEachDominatorAt<kStrict>(idx + 1, t, visit, stats);
    ForEachDominatorAt<kStrict>(static_cast<std::uint32_t>(node.right), t,
                                visit, stats);
  }
  // True when the dim_ coordinates at `corner` equal t's.
  bool CornerEquals(const double* corner, PointView t) const {
    for (std::size_t j = 0; j < dim_; ++j) {
      if (corner[j] != t[j]) return false;
    }
    return true;
  }

  std::size_t dim_ = 0;
  std::vector<Node> nodes_;      // preorder
  std::vector<double> bounds_;   // per node: min corner then max corner
  std::vector<TupleId> ids_;     // members, grouped so leaves are contiguous
  std::vector<double> coords_;   // ids_.size() * dim_, aligned with ids_
};

}  // namespace drli

#endif  // DRLI_SKYLINE_DOMINANCE_TREE_H_
