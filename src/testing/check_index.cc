#include "testing/check_index.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <sstream>
#include <string>
#include <unordered_set>

#include "common/point.h"
#include "common/random.h"
#include "core/eds.h"

namespace drli {

namespace {

using NodeId = DualLayerIndex::NodeId;

// Budget (in point-pair comparisons) for the exact layer recomputation
// and the ∀-edge completeness check; above it the checker falls back to
// randomized pair sampling.
constexpr std::size_t kMaxPairWork = 4'000'000;
// Stop collecting failure messages past this count.
constexpr std::size_t kMaxFailures = 32;

// Collects failures with a cap so a systemically broken index does not
// produce megabytes of output; invariants_checked counts every named
// invariant the checker evaluated (pass or fail).
class Checker {
 public:
  Checker(const DualLayerIndex& index, const CheckOptions& options)
      : index_(index), graph_(index.NodeGraph()), options_(options) {}

  CheckReport Run();

 private:
  template <typename... Parts>
  void Fail(const Parts&... parts) {
    if (report_.failures.size() >= kMaxFailures) return;
    std::ostringstream out;
    (out << ... << parts);
    report_.failures.push_back(out.str());
  }
  void Checked() { ++report_.invariants_checked; }

  std::size_t n() const { return index_.points().size(); }
  std::size_t total() const { return index_.num_nodes(); }

  void CheckShapes();
  void CheckEdgeSoundness();
  void CheckDegreeRecounts();
  void CheckLayerMembership();
  void CheckCoarseLayers();
  void CheckCoarseEdgeCompleteness();
  void CheckFineConvexity();
  void CheckEdsInSets();
  void CheckZeroLayer();
  void CheckWeightTable();
  void CheckLayerGroups();
  void CheckBoxTree();
  void CheckStats();

  // Real tuple ids bucketed by coarse layer (empty layers = failure,
  // reported by CheckCoarseLayers).
  std::vector<std::vector<TupleId>> RealLayers() const;

  const DualLayerIndex& index_;
  // The index's graph exported to node space: the edges, and the
  // in-degrees, ∃ flags and start set its slot layout holds.
  const NodeSpaceGraph graph_;
  const CheckOptions& options_;
  CheckReport report_;
  bool shapes_ok_ = false;
};

std::vector<std::vector<TupleId>> Checker::RealLayers() const {
  std::uint32_t max_layer = 0;
  for (std::size_t id = 0; id < n(); ++id) {
    max_layer = std::max(max_layer, index_.coarse_layer_of(
                                        static_cast<NodeId>(id)));
  }
  std::vector<std::vector<TupleId>> layers(n() == 0 ? 0 : max_layer + 1);
  for (std::size_t id = 0; id < n(); ++id) {
    layers[index_.coarse_layer_of(static_cast<NodeId>(id))].push_back(
        static_cast<TupleId>(id));
  }
  return layers;
}

void Checker::CheckShapes() {
  Checked();
  shapes_ok_ = true;
  auto require_size = [&](const char* what, std::size_t got) {
    if (got != total()) {
      Fail(what, " has ", got, " entries, want num_nodes() = ", total());
      shapes_ok_ = false;
    }
  };
  require_size("coarse_out", graph_.coarse_out.num_nodes());
  require_size("fine_out", graph_.fine_out.num_nodes());
  require_size("coarse_in_degree", graph_.coarse_in_degree.size());
  require_size("has_fine_in", graph_.has_fine_in.size());
  for (std::size_t node = 0; shapes_ok_ && node < total(); ++node) {
    if (index_.fine_layer_of(static_cast<NodeId>(node)) ==
        DualLayerIndex::kNoFineLayer) {
      Fail("node ", node, " has no fine sublayer assignment");
      shapes_ok_ = false;
    }
  }

  Checked();
  auto check_targets = [&](const char* what, const CsrGraph& graph) {
    for (NodeId target : graph.targets) {
      if (target >= total()) {
        Fail(what, " edge target ", target, " out of range [0, ", total(),
             ")");
        shapes_ok_ = false;
        return;
      }
    }
  };
  check_targets("coarse", graph_.coarse_out);
  check_targets("fine", graph_.fine_out);
}

void Checker::CheckEdgeSoundness() {
  Checked();
  for (std::size_t u = 0; u < total(); ++u) {
    const NodeId source = static_cast<NodeId>(u);
    const PointView sp = index_.node_point(source);
    for (NodeId v : graph_.coarse_out[source]) {
      if (index_.is_virtual(v)) {
        Fail("coarse edge ", u, " -> ", v, " targets a pseudo-tuple");
        continue;
      }
      const PointView tp = index_.node_point(v);
      if (index_.is_virtual(source)) {
        // Zero-layer ∀-edge: pseudo-tuple weakly dominates a tuple of
        // the first coarse layer.
        if (!WeaklyDominates(sp, tp)) {
          Fail("zero-layer edge ", u, " -> ", v,
               " source does not weakly dominate target");
        }
        if (index_.coarse_layer_of(v) != 0) {
          Fail("zero-layer edge ", u, " -> ", v, " target in coarse layer ",
               index_.coarse_layer_of(v), ", want 0");
        }
      } else {
        // Lemma 1 ∀-edge: strict dominance, one coarse layer down.
        if (!Dominates(sp, tp)) {
          Fail("coarse edge ", u, " -> ", v,
               " source does not dominate target");
        }
        if (index_.coarse_layer_of(v) != index_.coarse_layer_of(source) + 1) {
          Fail("coarse edge ", u, " -> ", v, " steps from layer ",
               index_.coarse_layer_of(source), " to ",
               index_.coarse_layer_of(v), ", want one layer down");
        }
      }
    }
  }

  Checked();
  for (std::size_t u = 0; u < total(); ++u) {
    const NodeId source = static_cast<NodeId>(u);
    for (NodeId v : graph_.fine_out[source]) {
      if (index_.is_virtual(source) != index_.is_virtual(v)) {
        Fail("fine edge ", u, " -> ", v, " crosses real/virtual spaces");
        continue;
      }
      if (index_.coarse_layer_of(source) != index_.coarse_layer_of(v)) {
        Fail("fine edge ", u, " -> ", v, " crosses coarse layers ",
             index_.coarse_layer_of(source), " -> ",
             index_.coarse_layer_of(v));
      }
      if (index_.fine_layer_of(v) != index_.fine_layer_of(source) + 1) {
        Fail("fine edge ", u, " -> ", v, " steps from fine sublayer ",
             index_.fine_layer_of(source), " to ", index_.fine_layer_of(v),
             ", want one sublayer down");
      }
    }
  }
}

void Checker::CheckDegreeRecounts() {
  Checked();
  std::vector<std::uint32_t> in_degree(total(), 0);
  std::vector<std::uint8_t> fine_in(total(), 0);
  for (NodeId target : graph_.coarse_out.targets) ++in_degree[target];
  for (NodeId target : graph_.fine_out.targets) fine_in[target] = 1;
  for (std::size_t node = 0; node < total(); ++node) {
    if (in_degree[node] != graph_.coarse_in_degree[node]) {
      Fail("coarse_in_degree[", node, "] = ",
           graph_.coarse_in_degree[node], ", recount says ",
           in_degree[node]);
    }
    if (fine_in[node] != graph_.has_fine_in[node]) {
      Fail("has_fine_in[", node, "] = ",
           static_cast<int>(graph_.has_fine_in[node]), ", recount says ",
           static_cast<int>(fine_in[node]));
    }
  }

  Checked();
  std::vector<NodeId> initial;
  for (std::size_t node = 0; node < total(); ++node) {
    if (in_degree[node] == 0 && fine_in[node] == 0) {
      initial.push_back(static_cast<NodeId>(node));
    }
  }
  if (initial != graph_.initial) {
    Fail("the start set has ", graph_.initial.size(),
         " entries, recount (in-degree 0, no fine in-edge) finds ",
         initial.size(), " or differs in membership/order");
  }
}

void Checker::CheckLayerMembership() {
  Checked();
  // The stored coarse layer lists must partition the real tuples and
  // agree with coarse_layer_of -- the audit the snapshot loader applies
  // to untrusted files, repeated here so live indexes are covered too.
  const std::vector<std::vector<TupleId>>& layers = index_.coarse_layers();
  std::vector<std::uint8_t> seen(n(), 0);
  std::size_t members = 0;
  for (std::size_t l = 0; l < layers.size(); ++l) {
    for (TupleId id : layers[l]) {
      if (id >= n()) {
        Fail("coarse_layers[", l, "] lists out-of-range id ", id);
        return;
      }
      if (seen[id]) {
        Fail("tuple ", id, " is listed in two coarse layers");
        return;
      }
      seen[id] = 1;
      ++members;
      if (index_.coarse_layer_of(static_cast<NodeId>(id)) != l) {
        Fail("coarse_layers[", l, "] lists tuple ", id,
             " but coarse_layer_of says ",
             index_.coarse_layer_of(static_cast<NodeId>(id)));
      }
    }
  }
  if (members != n()) {
    Fail("coarse_layers list ", members, " of ", n(), " tuples");
  }
}

void Checker::CheckCoarseLayers() {
  Checked();
  const std::vector<std::vector<TupleId>> layers = RealLayers();
  for (std::size_t l = 0; l < layers.size(); ++l) {
    if (layers[l].empty()) {
      Fail("coarse layer ", l, " is empty but deeper layers exist");
    }
  }

  Checked();
  const std::size_t pair_work = n() < 2 ? 0 : n() * (n() - 1) / 2;
  Rng rng(options_.seed);
  if (pair_work <= kMaxPairWork) {
    // Exact dominance-depth recomputation: a tuple's iterated-skyline
    // layer equals the length of the longest strict-dominance chain
    // ending at it. A single pass in sum order (common/point.h) sees
    // every dominator first; the sum alone would not, since a
    // dominator can round to the same sum.
    std::vector<TupleId> order(n());
    std::iota(order.begin(), order.end(), 0);
    std::vector<double> sum(n(), 0.0);
    for (std::size_t id = 0; id < n(); ++id) {
      sum[id] = AttributeSum(index_.points()[id]);
    }
    std::sort(order.begin(), order.end(), [&](TupleId a, TupleId b) {
      const PointView pa = index_.points()[a];
      const PointView pb = index_.points()[b];
      if (PrecedesInSumOrder(sum[a], pa, sum[b], pb)) return true;
      if (PrecedesInSumOrder(sum[b], pb, sum[a], pa)) return false;
      return a < b;
    });
    std::vector<std::uint32_t> depth(n(), 0);
    for (std::size_t i = 0; i < order.size(); ++i) {
      const PointView pi = index_.points()[order[i]];
      for (std::size_t j = 0; j < i; ++j) {
        if (depth[order[j]] + 1 > depth[order[i]] &&
            Dominates(index_.points()[order[j]], pi)) {
          depth[order[i]] = depth[order[j]] + 1;
        }
      }
    }
    for (std::size_t id = 0; id < n(); ++id) {
      if (depth[id] != index_.coarse_layer_of(static_cast<NodeId>(id))) {
        Fail("tuple ", id, " in coarse layer ",
             index_.coarse_layer_of(static_cast<NodeId>(id)),
             ", dominance depth says ", depth[id]);
      }
    }
  } else {
    // Sampled fallback: dominance implies a strictly deeper layer, and
    // tuples sharing a layer are mutually non-dominating.
    for (std::size_t s = 0; s < kMaxPairWork / 8; ++s) {
      const TupleId a = static_cast<TupleId>(rng.Index(n()));
      const TupleId b = static_cast<TupleId>(rng.Index(n()));
      if (a == b) continue;
      const std::uint32_t la = index_.coarse_layer_of(a);
      const std::uint32_t lb = index_.coarse_layer_of(b);
      if (Dominates(index_.points()[a], index_.points()[b]) && la >= lb) {
        Fail("tuple ", a, " (layer ", la, ") dominates tuple ", b,
             " (layer ", lb, ") without being in a shallower layer");
      }
      if (la == lb && Dominates(index_.points()[b], index_.points()[a])) {
        Fail("coarse layer ", la, " holds dominating pair ", b, " -> ", a);
      }
    }
  }
}

void Checker::CheckCoarseEdgeCompleteness() {
  Checked();
  // Every real tuple below layer 0 needs at least one ∀-in-edge (its
  // skyline-layer witness); traversal order depends on it.
  for (std::size_t id = 0; id < n(); ++id) {
    const NodeId node = static_cast<NodeId>(id);
    if (index_.coarse_layer_of(node) > 0 &&
        graph_.coarse_in_degree[node] == 0) {
      Fail("tuple ", id, " in coarse layer ", index_.coarse_layer_of(node),
           " has no coarse in-edge");
    }
  }

  Checked();
  const std::vector<std::vector<TupleId>> layers = RealLayers();
  std::size_t pair_work = 0;
  for (std::size_t l = 0; l + 1 < layers.size(); ++l) {
    pair_work += layers[l].size() * layers[l + 1].size();
  }
  if (pair_work > kMaxPairWork) return;  // covered by sampling above
  std::unordered_set<std::uint64_t> edges;
  for (std::size_t u = 0; u < n(); ++u) {
    for (NodeId v : graph_.coarse_out[static_cast<NodeId>(u)]) {
      edges.insert((static_cast<std::uint64_t>(u) << 32) | v);
    }
  }
  for (std::size_t l = 0; l + 1 < layers.size(); ++l) {
    for (TupleId u : layers[l]) {
      for (TupleId v : layers[l + 1]) {
        if (!Dominates(index_.points()[u], index_.points()[v])) continue;
        if (!edges.count((static_cast<std::uint64_t>(u) << 32) | v)) {
          Fail("missing Lemma-1 edge ", u, " -> ", v,
               " between adjacent coarse layers ", l, " and ", l + 1);
        }
      }
    }
  }
}

void Checker::CheckFineConvexity() {
  Checked();
  // Group nodes by (space, coarse layer); inside a group, fine
  // sublayers are iterated convex skylines, so for every weight vector
  // the per-sublayer minimum is non-decreasing in the fine index (the
  // first sublayer always holds a group minimizer).
  struct Group {
    std::vector<NodeId> members;
    std::uint32_t max_fine = 0;
  };
  std::vector<Group> real_groups(RealLayers().size());
  Group virtual_group;
  for (std::size_t node = 0; node < total(); ++node) {
    const NodeId id = static_cast<NodeId>(node);
    Group& group = index_.is_virtual(id)
                       ? virtual_group
                       : real_groups[index_.coarse_layer_of(id)];
    group.members.push_back(id);
    group.max_fine = std::max(group.max_fine, index_.fine_layer_of(id));
  }

  auto check_group = [&](const Group& group, const char* what,
                         std::size_t coarse) {
    std::vector<std::uint8_t> populated(group.max_fine + 1, 0);
    for (NodeId id : group.members) populated[index_.fine_layer_of(id)] = 1;
    for (std::size_t f = 0; f <= group.max_fine; ++f) {
      if (!populated[f]) {
        Fail(what, " coarse layer ", coarse, " skips fine sublayer ", f);
        return;
      }
    }
    Rng rng(options_.seed);
    const std::size_t dim = index_.points().dim();
    for (std::size_t s = 0; s < options_.weight_samples; ++s) {
      const std::vector<double> w = rng.SimplexWeight(dim);
      const PointView wv(w);
      std::vector<double> sub_min(group.max_fine + 1,
                                  std::numeric_limits<double>::infinity());
      for (NodeId id : group.members) {
        const double score = Score(wv, index_.node_point(id));
        double& slot = sub_min[index_.fine_layer_of(id)];
        slot = std::min(slot, score);
      }
      for (std::size_t f = 0; f + 1 <= group.max_fine; ++f) {
        if (sub_min[f] > sub_min[f + 1] + 1e-9) {
          Fail(what, " coarse layer ", coarse, " fine sublayer ", f + 1,
               " beats sublayer ", f, " under a sampled weight (",
               sub_min[f + 1], " < ", sub_min[f],
               "): sublayers are not convex");
          return;
        }
      }
    }
  };
  for (std::size_t l = 0; l < real_groups.size(); ++l) {
    check_group(real_groups[l], "real", l);
  }
  if (!virtual_group.members.empty()) {
    check_group(virtual_group, "virtual", 0);
  }
}

void Checker::CheckEdsInSets() {
  Checked();
  // A node's ∃-in-neighbour set must be an existential dominance set of
  // the node (Lemma 2 then guarantees a cheaper in-neighbour under
  // every weight). Edges are validated in the space they live in;
  // virtual nodes index into virtual_points() locally.
  std::vector<std::vector<NodeId>> fine_in(total());
  for (std::size_t u = 0; u < total(); ++u) {
    for (NodeId v : graph_.fine_out[static_cast<NodeId>(u)]) {
      fine_in[v].push_back(static_cast<NodeId>(u));
    }
  }
  for (std::size_t v = 0; v < total(); ++v) {
    if (fine_in[v].empty()) continue;
    const NodeId node = static_cast<NodeId>(v);
    std::vector<TupleId> facet;
    facet.reserve(fine_in[v].size());
    if (index_.is_virtual(node)) {
      for (NodeId u : fine_in[v]) {
        facet.push_back(static_cast<TupleId>(u - n()));
      }
      if (!FacetIsEds(index_.virtual_points(), facet,
                      index_.virtual_points()[v - n()])) {
        Fail("virtual node ", v,
             " fine in-neighbours are not an EDS of the node");
      }
    } else {
      facet.assign(fine_in[v].begin(), fine_in[v].end());
      if (!FacetIsEds(index_.points(), facet, index_.points()[v])) {
        Fail("tuple ", v, " fine in-neighbours are not an EDS of the tuple");
      }
    }
  }
}

void Checker::CheckZeroLayer() {
  const std::size_t v = index_.virtual_points().size();
  if (index_.uses_weight_table() && v > 0) {
    Fail("index carries both zero-layer forms (weight table and ", v,
         " pseudo-tuples)");
  }
  if (v == 0) return;

  Checked();
  // Every pseudo-tuple must precede something (it exists to cover its
  // cluster), and the whole first coarse layer must be covered so no
  // first-layer tuple is an initial node when L0 is present.
  for (std::size_t i = 0; i < v; ++i) {
    const NodeId node = static_cast<NodeId>(n() + i);
    if (graph_.coarse_out[node].empty()) {
      Fail("pseudo-tuple ", i, " has no outgoing zero-layer edge");
    }
  }
  for (std::size_t id = 0; id < n(); ++id) {
    const NodeId node = static_cast<NodeId>(id);
    if (index_.coarse_layer_of(node) == 0 &&
        graph_.coarse_in_degree[node] == 0) {
      Fail("first-layer tuple ", id, " is not covered by the zero layer");
    }
  }
}

void Checker::CheckWeightTable() {
  if (!index_.uses_weight_table()) return;
  Checked();
  const WeightRangeTable& table = index_.weight_table();
  if (index_.points().dim() != 2) {
    Fail("weight-range table on a ", index_.points().dim(), "-d index");
    return;
  }
  std::unordered_set<TupleId> seen;
  for (TupleId id : table.chain()) {
    if (id >= n()) {
      Fail("weight-table chain id ", id, " out of range");
      return;
    }
    if (!seen.insert(id).second) {
      Fail("weight-table chain repeats tuple ", id);
    }
    const NodeId node = static_cast<NodeId>(id);
    if (index_.coarse_layer_of(node) != 0 || index_.fine_layer_of(node) != 0) {
      Fail("weight-table chain tuple ", id, " is in sublayer (",
           index_.coarse_layer_of(node), ", ", index_.fine_layer_of(node),
           "), want (0, 0)");
    }
  }
  for (std::size_t i = 0; i + 1 < table.chain().size(); ++i) {
    const PointView a = index_.points()[table.chain()[i]];
    const PointView b = index_.points()[table.chain()[i + 1]];
    if (!(a[0] < b[0] && a[1] > b[1])) {
      Fail("weight-table chain positions ", i, " and ", i + 1,
           " do not descend left to right");
    }
  }
  if (!table.chain().empty() &&
      table.breakpoints().size() + 1 != table.chain().size()) {
    Fail("weight table has ", table.breakpoints().size(),
         " breakpoints for a chain of ", table.chain().size());
  }
  for (std::size_t i = 0; i + 1 < table.breakpoints().size(); ++i) {
    if (!(table.breakpoints()[i] > table.breakpoints()[i + 1])) {
      Fail("weight-table breakpoints not strictly decreasing at ", i);
    }
  }

  Checked();
  if (table.empty()) return;
  Rng rng(options_.seed);
  for (std::size_t s = 0; s < options_.weight_samples; ++s) {
    const double w1 = rng.Uniform(1e-6, 1.0 - 1e-6);
    const double w[2] = {w1, 1.0 - w1};
    const PointView wv(w, 2);
    const std::size_t pos = table.Lookup(w1);
    if (pos >= table.chain().size()) {
      Fail("Lookup(", w1, ") returned position ", pos, " past the chain");
      return;
    }
    const double got = Score(wv, index_.points()[table.chain()[pos]]);
    double want = std::numeric_limits<double>::infinity();
    for (TupleId id : table.chain()) {
      want = std::min(want, Score(wv, index_.points()[id]));
    }
    if (got > want + 1e-9) {
      Fail("Lookup(", w1, ") picks a chain tuple scoring ", got,
           ", brute force over the chain finds ", want);
    }
  }
}

void Checker::CheckLayerGroups() {
  Checked();
  const std::vector<std::vector<TupleId>> groups = index_.LayerGroups();
  std::vector<std::uint8_t> covered(n(), 0);
  for (const std::vector<TupleId>& group : groups) {
    if (group.empty()) {
      Fail("LayerGroups returned an empty group");
      continue;
    }
    const NodeId first = static_cast<NodeId>(group.front());
    for (TupleId id : group) {
      if (id >= n()) {
        Fail("LayerGroups lists pseudo-tuple id ", id);
        continue;
      }
      if (covered[id]) {
        Fail("tuple ", id, " appears in two layer groups");
      }
      covered[id] = 1;
      const NodeId node = static_cast<NodeId>(id);
      if (index_.coarse_layer_of(node) != index_.coarse_layer_of(first) ||
          index_.fine_layer_of(node) != index_.fine_layer_of(first)) {
        Fail("layer group mixes sublayers: tuples ", group.front(), " and ",
             id);
      }
    }
  }
  for (std::size_t id = 0; id < n(); ++id) {
    if (!covered[id]) {
      Fail("tuple ", id, " is missing from LayerGroups");
      break;
    }
  }
}

void Checker::CheckBoxTree() {
  Checked();
  const CheckReport tree = drli::CheckBoxTree(index_.box_tree(),
                                              index_.points());
  for (const std::string& failure : tree.failures) Fail(failure);
}

void Checker::CheckStats() {
  Checked();
  // Only the fields a deserialized index restores are structural; the
  // rest are build-time observability and legitimately zero after a
  // load round trip.
  const std::vector<std::vector<TupleId>> layers = RealLayers();
  if (index_.build_stats().num_coarse_layers != layers.size()) {
    Fail("stats.num_coarse_layers = ", index_.build_stats().num_coarse_layers,
         ", structure has ", layers.size());
  }
  if (index_.build_stats().num_virtual != index_.virtual_points().size()) {
    Fail("stats.num_virtual = ", index_.build_stats().num_virtual,
         ", structure has ", index_.virtual_points().size());
  }
}

CheckReport Checker::Run() {
  if (index_.points().dim() != index_.virtual_points().dim()) {
    Fail("real and virtual point sets disagree on dimension");
    return std::move(report_);
  }
  CheckShapes();
  if (!shapes_ok_) return std::move(report_);  // later checks would index OOB
  CheckEdgeSoundness();
  CheckDegreeRecounts();
  CheckLayerMembership();
  CheckCoarseLayers();
  CheckCoarseEdgeCompleteness();
  CheckFineConvexity();
  CheckEdsInSets();
  CheckZeroLayer();
  CheckWeightTable();
  CheckLayerGroups();
  CheckBoxTree();
  CheckStats();
  return std::move(report_);
}

}  // namespace

std::string CheckReport::ToString() const {
  if (ok()) {
    std::ostringstream out;
    out << "OK (" << invariants_checked << " invariants)";
    return out.str();
  }
  std::ostringstream out;
  out << failures.size() << " invariant violation(s):";
  for (const std::string& failure : failures) out << "\n  " << failure;
  return out.str();
}

CheckReport CheckBoxTree(const BoxTree& tree, const PointSet& points) {
  CheckReport report;
  report.invariants_checked = 1;
  const auto fail = [&](std::size_t node, const char* what) {
    if (report.failures.size() < kMaxFailures) {
      report.failures.push_back("box tree node " + std::to_string(node) +
                                ": " + what);
    }
  };
  const std::size_t n = points.size();
  const std::size_t d = points.dim();
  if (tree.dim() != d || tree.empty() != (n == 0)) {
    fail(0, "shape disagrees with the relation");
    return report;
  }
  std::vector<std::uint8_t> covered(n, 0);
  for (std::size_t node = 0; node < tree.num_nodes(); ++node) {
    const std::span<const TupleId> members = tree.members(node);
    if (tree.is_leaf(node)) {
      if (members.empty() || members.size() > BoxTree::kLeafSize) {
        fail(node, "leaf size out of range");
      }
      for (const TupleId id : members) {
        if (id >= n || covered[id]++ != 0) {
          fail(node, "lists a row twice or out of range");
          return report;
        }
      }
    } else if (tree.left(node) <= node ||
               tree.left(node) + 1 >= tree.num_nodes()) {
      fail(node, "bad child index");
      return report;
    }
    for (std::size_t a = 0; a < d; ++a) {
      double lo = std::numeric_limits<double>::infinity();
      double hi = -lo;
      for (const TupleId id : members) {
        lo = std::min(lo, points.At(id, a));
        hi = std::max(hi, points.At(id, a));
      }
      if (tree.lo(node)[a] != lo || tree.hi(node)[a] != hi) {
        fail(node, "box is not its members' min/max");
      }
      if (tree.is_leaf(node)) continue;
      for (const std::size_t c : {tree.left(node), tree.left(node) + 1}) {
        if (tree.lo(c)[a] < tree.lo(node)[a] ||
            tree.hi(c)[a] > tree.hi(node)[a]) {
          fail(c, "box leaves its parent's");
        }
      }
    }
  }
  if (std::count(covered.begin(), covered.end(), 0) != 0) {
    fail(0, "the leaves miss some rows");
  }
  return report;
}

CheckReport CheckIndex(const DualLayerIndex& index,
                       const CheckOptions& options) {
  return Checker(index, options).Run();
}

}  // namespace drli
