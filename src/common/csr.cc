#include "common/csr.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "common/check.h"

namespace drli {

CsrGraph CsrGraph::FromEdges(
    std::size_t num_nodes, std::span<const std::pair<NodeId, NodeId>> edges) {
  DRLI_CHECK(edges.size() <= std::numeric_limits<std::uint32_t>::max())
      << "edge count overflows 32-bit CSR offsets";
  CsrGraph graph;
  std::vector<std::uint32_t>& offsets = graph.offsets_vec_;
  offsets.assign(num_nodes + 1, 0);
  for (const auto& edge : edges) {
    DRLI_DCHECK(edge.first < num_nodes && edge.second < num_nodes);
    ++offsets[edge.first + 1];
  }
  std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());
  // offsets[s] is the start of row s; each placement advances it, so
  // afterwards it holds the end of row s, the start of row s + 1.
  graph.targets_vec_.resize(edges.size());
  for (const auto& edge : edges) {
    graph.targets_vec_[offsets[edge.first]++] = edge.second;
  }
  std::shift_right(offsets.begin(), offsets.end(), 1);
  offsets[0] = 0;
  return graph;
}

CsrGraph CsrGraph::FromVectors(std::vector<std::uint32_t> offsets,
                               std::vector<NodeId> targets) {
  DRLI_CHECK(offsets.empty() ||
             (offsets.front() == 0 && offsets.back() == targets.size()));
  CsrGraph graph;
  graph.offsets_vec_ = std::move(offsets);
  graph.targets_vec_ = std::move(targets);
  return graph;
}

CsrGraph CsrGraph::FromViews(std::span<const std::uint32_t> offsets,
                             std::span<const NodeId> targets,
                             std::shared_ptr<const void> keepalive) {
  DRLI_CHECK(offsets.empty()
                 ? targets.empty()
                 : offsets.front() == 0 && offsets.back() == targets.size());
  CsrGraph graph;
  graph.view_offsets_ = offsets.empty() ? nullptr : offsets.data();
  graph.view_targets_ = targets.data();
  graph.view_num_offsets_ = offsets.size();
  graph.view_num_targets_ = targets.size();
  graph.keepalive_ = std::move(keepalive);
  // An empty view degenerates to an (empty) owning graph, which keeps
  // the owns_data() discriminator (view_offsets_ != nullptr) honest.
  return graph;
}

bool CsrGraph::operator==(const CsrGraph& other) const {
  return std::ranges::equal(offsets(), other.offsets()) &&
         std::ranges::equal(targets(), other.targets());
}

}  // namespace drli
