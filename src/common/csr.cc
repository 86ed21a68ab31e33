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
  std::vector<std::uint32_t>& offsets = graph.offsets;
  offsets.assign(num_nodes + 1, 0);
  for (const auto& edge : edges) {
    DRLI_DCHECK(edge.first < num_nodes && edge.second < num_nodes);
    ++offsets[edge.first + 1];
  }
  std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());
  // offsets[s] is the start of row s; each placement advances it, so
  // afterwards it holds the end of row s, the start of row s + 1.
  graph.targets.resize(edges.size());
  for (const auto& edge : edges) {
    graph.targets[offsets[edge.first]++] = edge.second;
  }
  std::shift_right(offsets.begin(), offsets.end(), 1);
  offsets[0] = 0;
  return graph;
}

}  // namespace drli
