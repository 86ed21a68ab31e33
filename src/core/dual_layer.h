// The dual-resolution layer index (Sections III-V): the paper's
// contribution.
//
// Structure
//   * Coarse layers: iterated skylines; adjacent layers are connected
//     by ∀-dominance edges (classic dominance, Lemma 1).
//   * Fine sublayers: iterated convex skylines inside each coarse
//     layer; adjacent sublayers are connected by ∃-dominance edges
//     derived from hull facets (Lemma 2): each tuple of sublayer j+1
//     receives the members of one facet of sublayer j whose simplex
//     intersects its dominance box.
//   * Optional zero layer L0 (Section V): an exact weight-range table
//     in 2-d, clustered pseudo-tuples (with their own dual-resolution
//     split) in higher dimensions.
//
// Query processing (Algorithm 2) is best-first graph traversal: a tuple
// is scored only once it is ∀-dominance-free (all coarse in-neighbours
// popped) and ∃-dominance-free (some fine in-neighbour popped). The
// number of scored relation tuples is the paper's cost metric
// (Definition 9) and is reported in TopKResult::stats.
//
// Performance architecture (see DESIGN.md): both edge sets are stored
// as CSR (CsrGraph), per-query node state lives in reusable
// epoch-stamped QueryScratch objects pooled per index, and the build
// parallelizes the coarse layering's sum-order sweep in chunks, the
// fine peel across coarse layers and the ∀-edge wiring across
// adjacent layer pairs, each with a deterministic merge, so the
// parallel build is bit-identical to the serial one.

#ifndef DRLI_CORE_DUAL_LAYER_H_
#define DRLI_CORE_DUAL_LAYER_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/csr.h"
#include "common/point.h"
#include "common/soa_points.h"
#include "core/eds.h"
#include "core/zero_layer.h"
#include "geometry/box_tree.h"
#include "topk/query.h"

namespace drli {

// How many qualifying EDS facets feed edges into each tuple.
// kSingleFacet is the minimal (and cheapest-to-query) choice: one facet
// guarantees Lemma 2, and extra in-edges can only unlock tuples earlier.
// kAllFacets exists for the ablation benchmark.
enum class EdsPolicy {
  kSingleFacet,
  kAllFacets,
};

struct DualLayerOptions {
  EdsPolicy eds_policy = EdsPolicy::kSingleFacet;

  // With fine layers disabled each coarse layer is one sublayer with no
  // ∃-edges: the index is then a Dominant Graph. This is how DG and DG+
  // are built (DominantGraphConfig in baselines/dominant_graph.h), and
  // the ablation benchmarks' "no ∃-edges" row.
  bool enable_fine_layers = true;

  // DL+ when true (Section V).
  bool build_zero_layer = false;
  // 0 = ceil(sqrt(|L1|)). Ignored for the 2-d weight-range table.
  std::size_t zero_layer_clusters = 0;
  // DL+ splits L0 into fine sublayers; a flat layer, as in DG+, when
  // false.
  bool zero_layer_fine_split = true;

  // Build-side worker threads: 0 = DRLI_THREADS env / hardware
  // concurrency, 1 = serial. Any value yields the identical index.
  std::size_t build_threads = 0;

  // Display name; empty = "DL" / "DL+".
  std::string name;
};

struct DualLayerBuildStats {
  std::size_t num_coarse_layers = 0;
  std::size_t num_fine_layers = 0;
  std::size_t num_coarse_edges = 0;
  std::size_t num_fine_edges = 0;
  // Tuples in sublayer j+1 for which no facet of sublayer j passed the
  // EDS test; they are left ∃-dominance-free (correct, less pruning).
  std::size_t eds_uncovered = 0;
  // Fine peels that used the conservative all-remaining fallback.
  std::size_t csky_fallbacks = 0;
  // ConvexHull::facets_created summed over every fine-peel hull: the
  // peel's hull work, independent of the host's speed.
  std::size_t hull_facets_created = 0;
  std::size_t num_virtual = 0;
  double build_seconds = 0.0;

  // --- per-phase wall clock. In a serial build (build_threads = 1) the
  // five phase timers sum to ≈ build_seconds; with worker threads each
  // phase is still wall clock of that phase.
  double skyline_seconds = 0.0;      // box tree + coarse layer sweep
  double fine_peel_seconds = 0.0;    // fine sublayers + ∃-edge detection
  double coarse_edge_seconds = 0.0;  // ∀-edge wiring
  double zero_layer_seconds = 0.0;   // L0 (weight table / pseudo-tuples)
  double finalize_seconds = 0.0;     // CSR flatten + query layout

  // --- EDS detection (Section III-B) instrumentation. Facet/target
  // pairs are resolved by, in order: a facet member weakly dominating
  // the target (member_hits), the facet's componentwise-min corner
  // failing to dominate it (bbox_rejects), or the simplex LP
  // (lp_calls). eds_seconds is CPU time summed across fine-peel tasks,
  // so it can exceed fine_peel_seconds when build_threads > 1.
  double eds_seconds = 0.0;
  std::size_t eds_member_hits = 0;
  std::size_t eds_bbox_rejects = 0;
  std::size_t eds_lp_calls = 0;

  // --- coarse ∀-edge detection instrumentation: candidate pairs
  // skipped by the sort/bound pruning vs. pairs actually compared.
  std::size_t coarse_pairs_pruned = 0;
  std::size_t coarse_pairs_tested = 0;
};

// Derived, traversal-ordered layout the query path runs on. Built by
// FinalizeLayout (once per Build and once per snapshot load -- never
// persisted; a snapshot stores only the node-space index).
//
// Nodes are renumbered into *slots* ordered by (pseudo-tuples first,
// coarse layer, fine sublayer, node id). Best-first traversal touches
// low layers almost exclusively, so in slot order a query's working
// set -- node states, CSR rows, point data -- collapses into a small
// contiguous prefix of each array and stays cache-resident. Edge rows
// are remapped to slot targets and keep their original edge order,
// except the coarse rows of pseudo-tuples, which the lazy ∀-gate below
// partitions. Points are held dimension-major (SoaPointSet) for the
// batched kernels in common/kernels_batch.h.
//
// Lazy ∀-gate (zero layer, d >= 3). A pseudo-tuple ∀-dominates nearly
// every L1 tuple it covers, but an L1 tuple outside L^{11} cannot be
// freed before its ∃ bit arrives, so counting it down early buys
// nothing. Each pseudo slot's coarse row is stably partitioned into the
// targets that are fine-free at init (the L^{11} members and any tuple
// without an ∃ in-edge), ending at pseudo_free_end[slot], followed by
// the fine-blocked rest. A pseudo pop walks only that prefix plus its
// per-query pending list (QueryScratch). When a fine-blocked slot
// receives its ∃ bit it walks its pseudo parents (parent_offsets /
// parent_slots): a parent that already popped counts it down at once,
// any other parent gets it appended to its pending list. Every slot is
// freed at the same pop as under the eager walk, so items, evaluation
// counts and the heap are unchanged; only the order of `accessed`
// within one pop can differ (same multiset, still dominance-ordered).
struct QueryLayout {
  // Packed per-slot traversal state, one uint32 (see QueryScratch):
  //   bits  0-23  remaining coarse in-degree countdown
  //   bits 24-25  lifecycle (0 blocked, 1 queued, 2 popped)
  //   bit  26     ∃-dominance-free
  //   bit  27     weight-table chain lock
  // A slot is enqueueable exactly when its word equals kFreeable:
  // blocked, countdown exhausted, fine-free, not chain-locked -- one
  // compare replaces the original four-array test.
  static constexpr std::uint32_t kRemainingMask = (1u << 24) - 1;
  static constexpr std::uint32_t kQueuedBit = 1u << 24;
  static constexpr std::uint32_t kPoppedBit = 2u << 24;
  static constexpr std::uint32_t kStateMask = 3u << 24;
  static constexpr std::uint32_t kFineFreeBit = 1u << 26;
  static constexpr std::uint32_t kChainLockedBit = 1u << 27;
  static constexpr std::uint32_t kFreeable = kFineFreeBit;

  // Distinguishes layouts across indexes (and rebuilds), so a
  // QueryScratch can tell when its cached per-slot init words belong to
  // a different index and must be re-seeded.
  std::uint64_t generation = 0;

  std::vector<std::uint32_t> node_of;  // slot -> node id
  std::vector<std::uint32_t> slot_of;  // node id -> slot
  // Coarse (∀) and fine (∃) out-edges in slot space, CSR.
  std::vector<std::uint32_t> coarse_offsets;
  std::vector<std::uint32_t> coarse_targets;
  std::vector<std::uint32_t> fine_offsets;
  std::vector<std::uint32_t> fine_targets;
  // Lazy ∀-gate (see above); all three are empty without pseudo-tuples.
  // pseudo_free_end[p], p < first_real_slot: end of p's fine-free
  // coarse prefix, an index into coarse_targets.
  std::vector<std::uint32_t> pseudo_free_end;
  // Reverse CSR over all slots: the pseudo slots with a coarse edge
  // into a slot that is fine-blocked at init (empty rows elsewhere).
  std::vector<std::uint32_t> parent_offsets;
  std::vector<std::uint32_t> parent_slots;
  // Per-slot initial state word: in-degree | (fine-free if no ∃-edge).
  std::vector<std::uint32_t> init_packed;
  std::vector<std::uint32_t> initial_slots;
  // Slot-ordered points, dimension-major.
  SoaPointSet points;
  // Slots in [0, first_real_slot) are pseudo-tuples.
  std::uint32_t first_real_slot = 0;
  // Rounding slack of the ∃-edges, per dimension: under weights w no
  // tuple scores more than sum_j w_j * stop_slack[j] below the best of
  // the ancestors that block it (DESIGN.md §7). An ∃-edge's certificate
  // holds up to rounding (EdsMargin::kRounding), so one ∃ step can
  // undercut by a few hundred ulps of the coordinates' magnitude; the
  // slack multiplies that by the longest chain of ∃ steps. All zero
  // without fine edges.
  std::vector<double> stop_slack;
};

// Reusable per-query workspace for DualLayerIndex::Query. Holds the
// traversal's per-node state (one packed word per slot, see
// QueryLayout) plus the priority-queue backing store and the lazy
// ∀-gate's per-pseudo pending lists. Resetting between queries is
// O(nodes touched + pseudo-tuples) amortized: states are epoch-stamped,
// and a node's state is lazily re-initialized the first time a query
// touches it. One scratch serves any number of sequential queries
// against indexes of any size, but switching it to another index
// re-seeds all O(nodes) init words; DualLayerIndex::Query avoids that
// by drawing from a pool of scratches owned by the index itself. Not
// thread-safe: one scratch per concurrent query.
class QueryScratch {
 public:
  QueryScratch() = default;

  struct HeapEntry {
    double score;
    std::uint32_t node;  // original node id -- the tie-break key
    std::uint32_t slot;  // layout slot -- the memory key
  };
  // Per-slot traversal state. The layout's init word rides in the same
  // record so a first touch costs one cache line, not a second random
  // load from a separate init array; stamp == the scratch epoch iff
  // packed is valid for this query.
  struct NodeState {
    std::uint32_t init;
    std::uint32_t stamp;
    std::uint32_t packed;
  };

 private:
  friend class DualLayerIndex;

  // Binds the scratch to `layout` (seeding the per-slot init words if
  // the scratch last served a different index) and opens a fresh epoch.
  // Returns true when it had to seed.
  bool Prepare(const QueryLayout& layout);

  std::uint64_t generation_ = 0;
  std::uint32_t epoch_ = 0;
  std::vector<NodeState> nodes_;
  // Min-heap storage (std::push_heap/pop_heap); capacity persists.
  std::vector<HeapEntry> heap_;
  // Slots freed during one pop's expansion, scored in one batched
  // kernel call before being enqueued.
  std::vector<std::uint32_t> freed_;
  std::vector<double> freed_scores_;
  // pending_[p]: fine-blocked slots whose ∃ bit arrived before pseudo
  // slot p popped; p counts them down when it pops (lazy ∀-gate).
  std::vector<std::vector<std::uint32_t>> pending_;
  // Real candidate scores below the push bound, cut back to the k
  // smallest whenever it reaches 2k; its k-th smallest bounds the final
  // k-th answer and prunes doomed heap pushes.
  std::vector<double> push_scores_;
};

class DualLayerIndex final : public TopKIndex {
 public:
  // Node ids: [0, n) real tuples, [n, n + num_virtual) pseudo-tuples.
  using NodeId = std::uint32_t;
  static constexpr std::uint32_t kNoFineLayer =
      std::numeric_limits<std::uint32_t>::max();

  static DualLayerIndex Build(PointSet points,
                              const DualLayerOptions& options = {});

  DualLayerIndex(DualLayerIndex&&) = default;
  DualLayerIndex& operator=(DualLayerIndex&&) = default;

  std::string name() const override { return name_; }
  std::size_t size() const override { return points_.size(); }
  std::size_t dim() const override { return points_.dim(); }
  // Thread-safe. Borrows a scratch from this index's pool (creating
  // one when every pooled scratch is in use), runs the scratch
  // overload, and returns it. Pooled scratches only ever serve this
  // index, so after its first use a scratch never re-seeds; the pool
  // holds at most as many scratches as the peak number of concurrent
  // queries on this index, and frees them with the index.
  TopKResult Query(const TopKQuery& query) const override;
  // Explicit-scratch variant for callers that manage workspaces
  // themselves (benchmarks, tests). A scratch last used on another
  // index re-seeds here.
  TopKResult Query(const TopKQuery& query, QueryScratch* scratch) const;

  // --- introspection (tests, serialization, examples) ---
  const PointSet& points() const { return points_; }
  const PointSet& virtual_points() const { return virtual_points_; }
  const DualLayerOptions& options() const { return options_; }
  const DualLayerBuildStats& build_stats() const { return stats_; }

  std::size_t num_nodes() const {
    return points_.size() + virtual_points_.size();
  }
  bool is_virtual(NodeId node) const { return node >= points_.size(); }
  PointView node_point(NodeId node) const {
    return is_virtual(node) ? virtual_points_[node - points_.size()]
                            : points_[node];
  }

  // 0-based coarse / fine layer of a node. Virtual nodes report coarse
  // layer 0 of the virtual space.
  std::uint32_t coarse_layer_of(NodeId node) const {
    return coarse_of_[node];
  }
  std::uint32_t fine_layer_of(NodeId node) const { return fine_of_[node]; }

  const CsrGraph& coarse_out() const { return coarse_out_; }
  const CsrGraph& fine_out() const { return fine_out_; }
  const std::vector<std::uint32_t>& coarse_in_degree() const {
    return coarse_in_degree_;
  }
  const std::vector<std::uint8_t>& has_fine_in() const {
    return has_fine_in_;
  }
  const std::vector<NodeId>& initial_nodes() const { return initial_; }
  // Real tuples grouped by coarse layer, in layer order (the iterated
  // skylines). Exposed for the invariant checker and serialization;
  // a deserialized index restores this from the snapshot, where the
  // loader range-validates every member id against coarse_layer_of.
  const std::vector<std::vector<TupleId>>& coarse_layers() const {
    return coarse_layers_;
  }
  // Real tuples grouped by (coarse layer, fine sublayer), in layer
  // order -- the disk clustering unit for storage/page_layout.
  std::vector<std::vector<TupleId>> LayerGroups() const;
  // The kd box tree over the real tuples (geometry/box_tree.h): the
  // coarse layering sweeps over it, and it is the pruning unit of the
  // constrained scenario and the diversified certificate. Built first
  // by Build, derived by FinalizeInitialNodes on a snapshot load; never
  // persisted.
  const BoxTree& box_tree() const { return box_tree_; }
  bool uses_weight_table() const { return use_weight_table_; }
  const WeightRangeTable& weight_table() const { return weight_table_; }
  // The derived slot-space layout queries run on (tests, benchmarks).
  const QueryLayout& query_layout() const { return layout_; }

  // --- retirement: an in-place delete mask over the real tuples ---
  // A retired tuple stays in the graph: Query still scores, pops and
  // expands it, so every ∀ count, ∃ bit and pending list opens as
  // before, and its score counts in tuples_evaluated (and `accessed`).
  // It is never returned, never counts toward k or the tie cutoff, and
  // never tightens the push bound. An index whose every tuple is
  // retired answers empty at zero cost. The mask is not persisted (a
  // snapshot saves every tuple) and the box-tree traversal of the
  // constrained scenario skips retired members unscored. Paths that
  // read points() wholesale -- DiversifiedTopK, ReverseTopK2D -- refuse
  // an index with retired tuples. Not thread-safe against concurrent
  // queries. Returns false when `id` was already retired.
  bool Retire(TupleId id);
  bool retired(TupleId id) const {
    return num_retired_ != 0 && retired_[layout_.slot_of[id]] != 0;
  }
  std::size_t num_retired() const { return num_retired_; }
  // sum_j weights[j] * query_layout().stop_slack[j]: how far below the
  // ancestors blocking it a tuple can score under `weights`.
  double StopSlack(PointView weights) const;

 private:
  friend class DualLayerSerializer;

  // Build-time adjacency accumulator, flattened to CSR once complete.
  using AdjacencyBuilder = std::vector<std::vector<NodeId>>;

  // One node subset's fine decomposition, computed independently
  // (possibly on a worker thread) and merged serially in layer order --
  // this keeps the parallel build bit-identical to the serial one.
  struct FinePeelResult {
    // (node, 0-based fine sublayer), in assignment order.
    std::vector<std::pair<NodeId, std::uint32_t>> fine_of;
    // ∃-edges in creation order.
    std::vector<std::pair<NodeId, NodeId>> edges;
    std::size_t num_fine_layers = 0;
    std::size_t eds_uncovered = 0;
    std::size_t csky_fallbacks = 0;
    std::size_t hull_facets_created = 0;
    EdsCounters eds;
    double eds_seconds = 0.0;
  };

  DualLayerIndex() : points_(1), virtual_points_(1) {}

  void BuildCoarseLayers();
  void BuildFineLayers(AdjacencyBuilder* fine_adj);
  void BuildCoarseEdges(AdjacencyBuilder* coarse_adj);
  void BuildZeroLayer(AdjacencyBuilder* coarse_adj,
                      AdjacencyBuilder* fine_adj);
  // Derives what queries run on from the node-space graph: the initial
  // nodes, the slot-space QueryLayout (including the lazy ∀-gate's
  // partitioned pseudo rows and parent CSR) and the box tree.
  // Runs after every snapshot load; none of it is persisted.
  void FinalizeInitialNodes();
  // FinalizeInitialNodes without the box tree: the end of Build, which
  // built the tree before its coarse layering.
  void FinalizeLayout();
  // QueryLayout::stop_slack for the current graph.
  std::vector<double> ComputeStopSlack() const;

  // Splits one node subset (real coarse layer or the virtual layer)
  // into fine sublayers with ∃-edges. `node_ids` are node-space ids;
  // `pool` is the PointSet they live in with `pool_ids` the matching
  // in-pool indices. Pure w.r.t. the index (thread-safe); the caller
  // merges the result via ApplyFinePeel.
  FinePeelResult PeelFineLayers(const std::vector<NodeId>& node_ids,
                                const PointSet& pool,
                                const std::vector<TupleId>& pool_ids) const;
  void ApplyFinePeel(const FinePeelResult& peel, AdjacencyBuilder* fine_adj);

  // Idle scratches bound to this index's layout (see Query), each with
  // the thread that last used it. A thread gets its own scratch back
  // when that one is idle, so the node states its last query touched
  // are still in its core's cache rather than another worker's.
  struct ScratchPool {
    std::mutex mu;
    std::vector<std::pair<std::thread::id, std::unique_ptr<QueryScratch>>>
        idle;  // guarded by mu
  };
  std::unique_ptr<QueryScratch> AcquireScratch() const;
  void ReleaseScratch(std::unique_ptr<QueryScratch> scratch) const;

  std::string name_;
  DualLayerOptions options_;
  DualLayerBuildStats stats_;

  PointSet points_;
  PointSet virtual_points_;

  std::vector<std::uint32_t> coarse_of_;
  std::vector<std::uint32_t> fine_of_;
  CsrGraph coarse_out_;
  std::vector<std::uint32_t> coarse_in_degree_;
  CsrGraph fine_out_;
  std::vector<std::uint8_t> has_fine_in_;
  std::vector<NodeId> initial_;
  std::vector<std::vector<TupleId>> coarse_layers_;
  // Derived from the members above (the box tree from points_ alone);
  // never serialized (rebuilt after every build and snapshot load).
  QueryLayout layout_;
  BoxTree box_tree_;
  // Retire mask, per layout slot; empty until the first Retire.
  std::vector<std::uint8_t> retired_;
  std::size_t num_retired_ = 0;
  // Behind a pointer so the index stays movable.
  std::unique_ptr<ScratchPool> scratch_pool_ =
      std::make_unique<ScratchPool>();

  // 2-d zero layer (Section V-A).
  bool use_weight_table_ = false;
  WeightRangeTable weight_table_;
  // Position of a node in the weight-table chain, kNoFineLayer if none.
  std::vector<std::uint32_t> chain_pos_;
};

// Observability: how a query's accesses distribute over the
// dual-resolution structure. One row per (coarse, fine) sublayer that
// holds at least one tuple, in layer order.
struct LayerAccessRow {
  std::uint32_t coarse = 0;
  std::uint32_t fine = 0;
  std::size_t layer_size = 0;  // tuples in the sublayer
  std::size_t accessed = 0;    // of which this query evaluated
};

// Breaks down `result.accessed` (from index.Query) by sublayer.
std::vector<LayerAccessRow> ExplainAccess(const DualLayerIndex& index,
                                          const TopKResult& result);

}  // namespace drli

#endif  // DRLI_CORE_DUAL_LAYER_H_
