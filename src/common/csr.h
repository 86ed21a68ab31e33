// Compressed-sparse-row adjacency: one offsets array plus one flat
// target array, replacing vector<vector<NodeId>> in the query engine's
// hot loops. A node's successor list is a contiguous span, so the
// best-first traversal touches two cache lines per expansion instead of
// chasing a pointer per node, and the whole graph is two allocations.
//
// Row i is targets[offsets[i], offsets[i + 1]); offsets holds
// num_nodes + 1 entries, or none for a graph without nodes. CsrGraph
// owns its arrays. CsrView borrows them -- from a CsrGraph, or straight
// from a snapshot's sections while the loader derives the query layout
// from them -- and must not outlive them.

#ifndef DRLI_COMMON_CSR_H_
#define DRLI_COMMON_CSR_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace drli {

struct CsrGraph {
  using NodeId = std::uint32_t;

  // Graph over nodes [0, num_nodes) from (source, target) edges: a
  // stable counting sort on source, so each row keeps the edges' order.
  static CsrGraph FromEdges(
      std::size_t num_nodes,
      std::span<const std::pair<NodeId, NodeId>> edges);

  std::size_t num_nodes() const {
    return offsets.empty() ? 0 : offsets.size() - 1;
  }
  // Vector-compatible alias so callers can iterate [0, size()).
  std::size_t size() const { return num_nodes(); }
  std::size_t num_edges() const { return targets.size(); }
  std::span<const NodeId> operator[](std::size_t node) const {
    return std::span<const NodeId>(targets).subspan(
        offsets[node], offsets[node + 1] - offsets[node]);
  }
  bool operator==(const CsrGraph&) const = default;

  std::vector<std::uint32_t> offsets;
  std::vector<NodeId> targets;
};

struct CsrView {
  using NodeId = CsrGraph::NodeId;

  CsrView(std::span<const std::uint32_t> offsets,
          std::span<const NodeId> targets)
      : offsets(offsets), targets(targets) {}
  CsrView(const CsrGraph& graph)  // NOLINT: borrows, as string_view
      : offsets(graph.offsets), targets(graph.targets) {}

  std::size_t num_nodes() const {
    return offsets.empty() ? 0 : offsets.size() - 1;
  }
  std::size_t num_edges() const { return targets.size(); }
  std::span<const NodeId> operator[](std::size_t node) const {
    return targets.subspan(offsets[node], offsets[node + 1] - offsets[node]);
  }

  std::span<const std::uint32_t> offsets;
  std::span<const NodeId> targets;
};

}  // namespace drli

#endif  // DRLI_COMMON_CSR_H_
