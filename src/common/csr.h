// Compressed-sparse-row adjacency: one offsets array plus one flat
// target array, replacing vector<vector<NodeId>> in the query engine's
// hot loops. A node's successor list is a contiguous span, so the
// best-first traversal touches two cache lines per expansion instead of
// chasing a pointer per node, and the whole graph is two allocations.
//
// Like PointSet, a CsrGraph is either owning (built from an edge
// list) or view-backed (borrowed spans over an mmap-ed snapshot
// section, guarded by a shared keepalive). Readers see one interface.

#ifndef DRLI_COMMON_CSR_H_
#define DRLI_COMMON_CSR_H_

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

namespace drli {

class CsrGraph {
 public:
  using NodeId = std::uint32_t;

  CsrGraph() = default;

  // Graph over nodes [0, num_nodes) from (source, target) edges: a
  // stable counting sort on source, so each row keeps the edges' order.
  static CsrGraph FromEdges(
      std::size_t num_nodes,
      std::span<const std::pair<NodeId, NodeId>> edges);

  // Owning graph adopting pre-built CSR arrays. Requires a well-formed
  // shape: offsets empty (zero nodes) or offsets.front() == 0 and
  // offsets.back() == targets.size() with non-decreasing entries.
  static CsrGraph FromVectors(std::vector<std::uint32_t> offsets,
                              std::vector<NodeId> targets);

  // View-backed graph over external CSR arrays, which must stay valid
  // for as long as `keepalive` is held (typically the mmap of a
  // snapshot file). The caller is responsible for having validated the
  // same shape requirements as FromVectors.
  static CsrGraph FromViews(std::span<const std::uint32_t> offsets,
                            std::span<const NodeId> targets,
                            std::shared_ptr<const void> keepalive);

  std::size_t num_nodes() const {
    const std::size_t n = num_offsets();
    return n == 0 ? 0 : n - 1;
  }
  // Vector-compatible alias so callers can iterate [0, size()).
  std::size_t size() const { return num_nodes(); }
  std::size_t num_edges() const { return num_targets(); }
  bool owns_data() const { return view_offsets_ == nullptr; }

  std::span<const NodeId> operator[](std::size_t node) const {
    const std::uint32_t* off = offsets_base();
    return std::span<const NodeId>(targets_base() + off[node],
                                   off[node + 1] - off[node]);
  }

  // Element-wise equality (independent of storage mode).
  bool operator==(const CsrGraph& other) const;

  // Raw arrays, for serialization and tests.
  std::span<const std::uint32_t> offsets() const {
    return std::span<const std::uint32_t>(offsets_base(), num_offsets());
  }
  std::span<const NodeId> targets() const {
    return std::span<const NodeId>(targets_base(), num_targets());
  }

 private:
  const std::uint32_t* offsets_base() const {
    return view_offsets_ != nullptr ? view_offsets_ : offsets_vec_.data();
  }
  const NodeId* targets_base() const {
    return view_offsets_ != nullptr ? view_targets_ : targets_vec_.data();
  }
  std::size_t num_offsets() const {
    return view_offsets_ != nullptr ? view_num_offsets_ : offsets_vec_.size();
  }
  std::size_t num_targets() const {
    return view_offsets_ != nullptr ? view_num_targets_ : targets_vec_.size();
  }

  // Owning mode: offsets_vec_[i]..offsets_vec_[i+1] index into
  // targets_vec_; size num_nodes+1 (empty when the graph has no nodes).
  std::vector<std::uint32_t> offsets_vec_;
  std::vector<NodeId> targets_vec_;
  // View mode; view_offsets_ null in owning mode.
  const std::uint32_t* view_offsets_ = nullptr;
  const NodeId* view_targets_ = nullptr;
  std::size_t view_num_offsets_ = 0;
  std::size_t view_num_targets_ = 0;
  std::shared_ptr<const void> keepalive_;
};

}  // namespace drli

#endif  // DRLI_COMMON_CSR_H_
