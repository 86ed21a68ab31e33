#include "skyline/dominance_tree.h"

#include <algorithm>
#include <numeric>

#include "common/check.h"

namespace drli {

namespace {

constexpr std::uint32_t kLeafSize = 8;

}  // namespace

void DominanceTree::Build(const PointSet& points,
                          const std::vector<TupleId>& ids) {
  dim_ = points.dim();
  const std::size_t m = ids.size();
  nodes_.clear();
  bounds_.clear();
  ids_.assign(ids.begin(), ids.end());
  coords_.resize(m * dim_);
  if (m == 0) return;

  // Gather once in input order; BuildNode permutes an index array and
  // the gathered data is rearranged to match afterwards, so leaf
  // member ranges end up contiguous.
  std::vector<double> raw(m * dim_);
  for (std::size_t i = 0; i < m; ++i) {
    const PointView p = points[ids[i]];
    std::copy(p.begin(), p.end(), raw.begin() + i * dim_);
  }
  std::vector<std::uint32_t> perm(m);
  std::iota(perm.begin(), perm.end(), 0);
  nodes_.reserve(2 * (m / kLeafSize + 2));
  BuildNode(0, static_cast<std::uint32_t>(m), raw, ids, &perm);
  for (std::size_t i = 0; i < m; ++i) {
    ids_[i] = ids[perm[i]];
    std::copy(raw.begin() + perm[i] * dim_, raw.begin() + (perm[i] + 1) * dim_,
              coords_.begin() + i * dim_);
  }
}

std::uint32_t DominanceTree::BuildNode(std::uint32_t begin, std::uint32_t end,
                                       const std::vector<double>& raw,
                                       const std::vector<TupleId>& ids,
                                       std::vector<std::uint32_t>* perm) {
  const auto idx = static_cast<std::uint32_t>(nodes_.size());
  nodes_.push_back(Node{begin, end, -1});
  const std::size_t bounds_at = bounds_.size();
  bounds_.resize(bounds_at + 2 * dim_);

  // Subtree bounds over the current range.
  {
    double* bmin = bounds_.data() + bounds_at;
    double* bmax = bmin + dim_;
    const double* first = raw.data() + (*perm)[begin] * dim_;
    std::copy(first, first + dim_, bmin);
    std::copy(first, first + dim_, bmax);
    for (std::uint32_t i = begin + 1; i < end; ++i) {
      const double* p = raw.data() + (*perm)[i] * dim_;
      for (std::size_t j = 0; j < dim_; ++j) {
        bmin[j] = std::min(bmin[j], p[j]);
        bmax[j] = std::max(bmax[j], p[j]);
      }
    }
  }
  if (end - begin <= kLeafSize) return idx;

  // Median split on the widest axis; (coordinate, id) is a total order,
  // so the partition is a deterministic function of the member set.
  std::size_t axis = 0;
  {
    const double* bmin = bounds_.data() + bounds_at;
    const double* bmax = bmin + dim_;
    double widest = bmax[0] - bmin[0];
    for (std::size_t j = 1; j < dim_; ++j) {
      const double extent = bmax[j] - bmin[j];
      if (extent > widest) {
        widest = extent;
        axis = j;
      }
    }
  }
  const std::uint32_t mid = begin + (end - begin) / 2;
  std::nth_element(perm->begin() + begin, perm->begin() + mid,
                   perm->begin() + end,
                   [&](std::uint32_t a, std::uint32_t b) {
                     const double ca = raw[a * dim_ + axis];
                     const double cb = raw[b * dim_ + axis];
                     if (ca != cb) return ca < cb;
                     return ids[a] < ids[b];
                   });
  BuildNode(begin, mid, raw, ids, perm);
  const std::uint32_t right = BuildNode(mid, end, raw, ids, perm);
  nodes_[idx].right = static_cast<std::int32_t>(right);
  return idx;
}

bool DominanceTree::AnyDominates(PointView t) const {
  if (empty()) return false;
  DRLI_DCHECK(t.size() == dim_);
  return AnyDominatesAt(0, t);
}

bool DominanceTree::AnyDominatesAt(std::uint32_t idx, PointView t) const {
  const Node& node = nodes_[idx];
  const double* bmin = bounds_.data() + static_cast<std::size_t>(idx) * 2 * dim_;
  const double* bmax = bmin + dim_;
  if (!WeaklyDominates(PointView(bmin, dim_), t)) return false;
  // Max corner weakly dominating t (and != t) means every member does,
  // strictly: some coordinate of the max is strictly below t's, hence
  // strictly below in every member.
  if (WeaklyDominates(PointView(bmax, dim_), t) && !CornerEquals(bmax, t)) {
    return true;
  }
  if (node.right < 0) {
    for (std::uint32_t i = node.begin; i < node.end; ++i) {
      if (Dominates(PointView(coords_.data() + i * dim_, dim_), t)) return true;
    }
    return false;
  }
  return AnyDominatesAt(idx + 1, t) ||
         AnyDominatesAt(static_cast<std::uint32_t>(node.right), t);
}

}  // namespace drli
