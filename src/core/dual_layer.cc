#include "core/dual_layer.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <map>
#include <numeric>
#include <utility>

#include "common/check.h"
#include "common/parallel_for.h"
#include "common/stopwatch.h"
#include "core/eds.h"
#include "geometry/convex_skyline.h"
#include "skyline/skyline_layers.h"

namespace drli {

namespace {

// Below this many points a whole build phase finishes in well under a
// millisecond -- less than the cost of waking the task pool -- so the
// parallel build phases early-out to the inline serial path. Parallel
// and serial builds are bit-identical either way; this is purely a
// scheduling decision.
constexpr std::size_t kMinPointsForParallelBuild = 4096;

}  // namespace

DualLayerIndex DualLayerIndex::Build(PointSet points,
                                     const DualLayerOptions& options) {
  Stopwatch timer;
  DualLayerIndex index;
  index.options_ = options;
  index.points_ = std::move(points);
  index.virtual_points_ = PointSet(index.points_.dim());
  index.name_ = options.name.empty()
                    ? (options.build_zero_layer ? "DL+" : "DL")
                    : options.name;

  const std::size_t n = index.points_.size();
  index.coarse_of_.assign(n, 0);
  index.fine_of_.assign(n, kNoFineLayer);
  index.chain_pos_.assign(n, kNoFineLayer);

  EdgeList coarse_edges;
  EdgeList fine_edges;
  Stopwatch phase;
  // The box tree reads only points_: built first, it drives the coarse
  // layering and is then kept for queries.
  index.box_tree_ = BoxTree::Build(index.points_);
  if (n > 0) {
    index.BuildCoarseLayers();
    index.stats_.skyline_seconds = phase.ElapsedSeconds();
    phase.Restart();
    index.BuildFineLayers(&fine_edges);
    index.stats_.fine_peel_seconds = phase.ElapsedSeconds();
    phase.Restart();
    index.BuildCoarseEdges(&coarse_edges);
    index.stats_.coarse_edge_seconds = phase.ElapsedSeconds();
    if (options.build_zero_layer) {
      phase.Restart();
      index.BuildZeroLayer(&coarse_edges, &fine_edges);
      index.stats_.zero_layer_seconds = phase.ElapsedSeconds();
    }
  }
  phase.Restart();
  index.FinalizeLayout(CsrGraph::FromEdges(index.num_nodes(), coarse_edges),
                       CsrGraph::FromEdges(index.num_nodes(), fine_edges));
  index.stats_.finalize_seconds = phase.ElapsedSeconds();
  index.stats_.build_seconds = timer.ElapsedSeconds();
  return index;
}

void DualLayerIndex::BuildCoarseLayers() {
  const std::size_t threads =
      points_.size() < kMinPointsForParallelBuild ? 1 : options_.build_threads;
  LayerDecomposition decomposition =
      BuildSkylineLayers(points_, box_tree_, threads);
  coarse_layers_ = std::move(decomposition.layers);
  for (std::size_t i = 0; i < points_.size(); ++i) {
    coarse_of_[i] = static_cast<std::uint32_t>(decomposition.layer_of[i]);
  }
  stats_.num_coarse_layers = coarse_layers_.size();
}

DualLayerIndex::FinePeelResult DualLayerIndex::PeelFineLayers(
    const std::vector<NodeId>& node_ids, const PointSet& pool,
    const std::vector<TupleId>& pool_ids) const {
  DRLI_CHECK_EQ(node_ids.size(), pool_ids.size());
  FinePeelResult out;
  // remaining[i] indexes into node_ids/pool_ids.
  std::vector<std::size_t> remaining(node_ids.size());
  std::iota(remaining.begin(), remaining.end(), 0);

  std::uint32_t fine = 0;
  const std::size_t d = pool.dim();
  // Facets of the previous sublayer, flat with stride prev_facet_size
  // (ConvexSkylineResult::facet_size), as node ids and, since the EDS
  // LP needs pool-local coordinates, as pool ids.
  std::vector<NodeId> prev_facet_nodes;
  std::vector<TupleId> prev_facet_pool;
  std::size_t prev_facet_size = 0;
  // Componentwise-min corner per facet (FacetMinCorner), computed once
  // per facet, and a box tree over the corners: a facet whose corner
  // fails to weakly dominate a target cannot be its EDS, so the tree
  // hands each target only the facets worth testing.
  PointSet prev_corners(d);
  BoxTree prev_corner_tree;
  std::vector<TupleId> candidates;
  // Per-sublayer buffers, refilled every round.
  Point corner;
  std::vector<TupleId> local_pool_ids;
  PointSet subset(d);
  std::vector<NodeId> member_nodes;
  std::vector<bool> is_member;
  std::vector<std::size_t> next;

  while (!remaining.empty()) {
    local_pool_ids.clear();
    subset.Clear();
    subset.Reserve(remaining.size());
    for (std::size_t r : remaining) {
      local_pool_ids.push_back(pool_ids[r]);
      subset.Add(pool[pool_ids[r]]);
    }
    Stopwatch hull_timer;
    const ConvexSkylineResult csky = ComputeConvexSkyline(subset);
    out.hull_seconds += hull_timer.ElapsedSeconds();
    if (!csky.exact) ++out.csky_fallbacks;
    out.hull_facets_created += csky.hull_facets_created;
    DRLI_CHECK(!csky.members.empty());

    // Map sublayer members and facets back to node / pool ids.
    member_nodes.clear();
    is_member.assign(remaining.size(), false);
    for (TupleId local : csky.members) {
      is_member[local] = true;
      const NodeId node = node_ids[remaining[local]];
      member_nodes.push_back(node);
      out.fine_of.emplace_back(node, fine);
    }

    // ∃-edges from sublayer fine-1 into this sublayer (Section III-B):
    // each target takes the first facet, in the canonical order of
    // ConvexSkylineResult's facets, that passes the EDS test.
    if (fine > 0) {
      Stopwatch eds_timer;
      for (std::size_t m = 0; m < member_nodes.size(); ++m) {
        const NodeId target_node = member_nodes[m];
        const PointView target = pool[local_pool_ids[csky.members[m]]];
        candidates.clear();
        prev_corner_tree.ForEachDominator<Dominance::kWeak>(
            prev_corners, target,
            [&](TupleId f) { candidates.push_back(f); });
        std::sort(candidates.begin(), candidates.end());
        // A facet the tree leaves out is the bbox reject a scan in
        // canonical order would have counted, up to where that scan
        // stops.
        std::size_t scan_end = prev_corners.size();
        std::size_t tested = 0;
        bool covered = false;
        for (const TupleId f : candidates) {
          ++tested;
          const std::size_t at = f * prev_facet_size;
          if (!FacetIsVerifiedEds(
                  pool,
                  std::span<const TupleId>(prev_facet_pool.data() + at,
                                           prev_facet_size),
                  prev_corners[f], target, EdsMargin::kRounding, &out.eds)) {
            continue;
          }
          for (std::size_t v = 0; v < prev_facet_size; ++v) {
            out.edges.emplace_back(prev_facet_nodes[at + v], target_node);
          }
          covered = true;
          if (options_.eds_policy == EdsPolicy::kSingleFacet) {
            scan_end = f + 1;
            break;
          }
        }
        out.eds.bbox_rejects += scan_end - tested;
        if (!covered) ++out.eds_uncovered;
      }
      out.eds_seconds += eds_timer.ElapsedSeconds();
    }

    prev_facet_size = csky.facet_size;
    prev_facet_nodes.clear();
    prev_facet_pool.clear();
    for (const TupleId local : csky.facet_ids) {
      prev_facet_nodes.push_back(node_ids[remaining[local]]);
      prev_facet_pool.push_back(pool_ids[remaining[local]]);
    }
    prev_corners.Clear();
    for (std::size_t f = 0; f < csky.num_facets(); ++f) {
      FacetMinCorner(pool,
                     std::span<const TupleId>(
                         prev_facet_pool.data() + f * prev_facet_size,
                         prev_facet_size),
                     &corner);
      prev_corners.Add(corner);
    }
    prev_corner_tree = BoxTree::Build(prev_corners);

    // Remove the sublayer from the remaining pool.
    next.clear();
    for (std::size_t local = 0; local < remaining.size(); ++local) {
      if (!is_member[local]) next.push_back(remaining[local]);
    }
    remaining.swap(next);
    ++fine;
    ++out.num_fine_layers;
  }
  return out;
}

void DualLayerIndex::ApplyFinePeel(const FinePeelResult& peel,
                                   EdgeList* fine_edges) {
  for (const auto& [node, fine] : peel.fine_of) fine_of_[node] = fine;
  fine_edges->insert(fine_edges->end(), peel.edges.begin(), peel.edges.end());
  stats_.num_fine_edges += peel.edges.size();
  stats_.num_fine_layers += peel.num_fine_layers;
  stats_.eds_uncovered += peel.eds_uncovered;
  stats_.csky_fallbacks += peel.csky_fallbacks;
  stats_.eds_member_hits += peel.eds.member_hits;
  stats_.eds_bbox_rejects += peel.eds.bbox_rejects;
  stats_.eds_lp_calls += peel.eds.lp_calls;
  stats_.eds_seconds += peel.eds_seconds;
  stats_.hull_seconds += peel.hull_seconds;
  stats_.hull_facets_created += peel.hull_facets_created;
}

void DualLayerIndex::BuildFineLayers(EdgeList* fine_edges) {
  if (!options_.enable_fine_layers) {
    for (const std::vector<TupleId>& layer : coarse_layers_) {
      for (TupleId id : layer) fine_of_[id] = 0;
      ++stats_.num_fine_layers;
    }
    return;
  }
  // The peel of each coarse layer is independent; run them on the task
  // pool and merge in layer order. All ∃-edges stay inside one coarse
  // layer, so the per-source edge lists -- and hence the CSR -- come
  // out identical to a serial build. Below kMinPointsForParallelBuild
  // the whole peel is cheaper than spawning workers, so run inline;
  // above it, hand out the largest layers first so one fat layer does
  // not become the tail of the schedule.
  std::vector<FinePeelResult> results(coarse_layers_.size());
  const std::size_t threads =
      points_.size() < kMinPointsForParallelBuild ? 1 : options_.build_threads;
  std::vector<std::size_t> order(coarse_layers_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a,
                                                   std::size_t b) {
    return coarse_layers_[a].size() > coarse_layers_[b].size();
  });
  ParallelFor(
      order.size(),
      [&](std::size_t task, std::size_t) {
        const std::size_t i = order[task];
        const std::vector<TupleId>& layer = coarse_layers_[i];
        std::vector<NodeId> node_ids(layer.begin(), layer.end());
        results[i] = PeelFineLayers(node_ids, points_, layer);
      },
      threads);
  for (const FinePeelResult& peel : results) ApplyFinePeel(peel, fine_edges);
}

void DualLayerIndex::BuildCoarseEdges(EdgeList* coarse_edges) {
  // ∀-edges between adjacent coarse layers (Lemma 1): t -> t' iff t ≺ t'.
  // Each adjacent pair is scanned independently on the task pool; edges
  // are buffered per pair and merged in pair order (a source node only
  // ever appears in one pair, so per-source order matches the serial
  // build).
  if (coarse_layers_.size() < 2) return;
  const std::size_t pairs = coarse_layers_.size() - 1;
  std::vector<EdgeList> pair_edges(pairs);
  std::vector<DominancePairStats> pair_stats(pairs);
  const std::size_t threads =
      points_.size() < kMinPointsForParallelBuild ? 1 : options_.build_threads;
  // Largest cross products first; same tail-latency argument as the
  // fine peel above.
  std::vector<std::size_t> order(pairs);
  for (std::size_t i = 0; i < pairs; ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a,
                                                   std::size_t b) {
    return coarse_layers_[a].size() * coarse_layers_[a + 1].size() >
           coarse_layers_[b].size() * coarse_layers_[b + 1].size();
  });
  ParallelFor(
      order.size(),
      [&](std::size_t task, std::size_t) {
        const std::size_t i = order[task];
        ForEachDominancePair(points_, coarse_layers_[i],
                             coarse_layers_[i + 1],
                             [&](TupleId source, TupleId target) {
                               pair_edges[i].emplace_back(source, target);
                             },
                             &pair_stats[i]);
      },
      threads);
  std::vector<std::uint8_t> dominated(points_.size(), 0);
  for (std::size_t i = 0; i < pairs; ++i) {
    stats_.coarse_pairs_pruned += pair_stats[i].pairs_pruned;
    stats_.coarse_pairs_tested += pair_stats[i].pairs_tested;
    for (const auto& edge : pair_edges[i]) dominated[edge.second] = 1;
    coarse_edges->insert(coarse_edges->end(), pair_edges[i].begin(),
                         pair_edges[i].end());
    stats_.num_coarse_edges += pair_edges[i].size();
    for (TupleId target : coarse_layers_[i + 1]) {
      DRLI_DCHECK(dominated[target] != 0)
          << "every tuple below layer 1 has a dominator one layer up";
    }
  }
}

void DualLayerIndex::BuildZeroLayer(EdgeList* coarse_edges,
                                    EdgeList* fine_edges) {
  const std::vector<TupleId>& layer1 = coarse_layers_[0];

  if (points_.dim() == 2 && options_.enable_fine_layers) {
    // Section V-A: exact weight-range table over L^{11}. The chain is
    // the first fine sublayer of coarse layer 1, ordered by x.
    std::vector<TupleId> chain;
    for (TupleId id : layer1) {
      if (fine_of_[id] == 0) chain.push_back(id);
    }
    std::sort(chain.begin(), chain.end(), [&](TupleId a, TupleId b) {
      return points_.At(a, 0) < points_.At(b, 0);
    });
    weight_table_ = WeightRangeTable::Build(points_, chain);
    use_weight_table_ = true;
    for (std::size_t pos = 0; pos < chain.size(); ++pos) {
      chain_pos_[chain[pos]] = static_cast<std::uint32_t>(pos);
    }
    return;
  }

  // Section V-B: clustered pseudo-tuples with their own fine split.
  ClusteredZeroLayer zero =
      BuildClusteredZeroLayer(points_, layer1, options_.zero_layer_clusters);
  if (zero.pseudo.empty()) return;
  virtual_points_ = std::move(zero.pseudo);
  const std::size_t n = points_.size();
  const std::size_t v = virtual_points_.size();
  stats_.num_virtual = v;

  coarse_of_.resize(n + v, 0);
  fine_of_.resize(n + v, kNoFineLayer);
  chain_pos_.resize(n + v, kNoFineLayer);

  std::vector<NodeId> virtual_nodes(v);
  std::vector<TupleId> virtual_ids(v);
  for (std::size_t i = 0; i < v; ++i) {
    virtual_nodes[i] = static_cast<NodeId>(n + i);
    virtual_ids[i] = static_cast<TupleId>(i);
  }
  if (options_.zero_layer_fine_split) {
    ApplyFinePeel(PeelFineLayers(virtual_nodes, virtual_points_, virtual_ids),
                  fine_edges);
  } else {
    for (NodeId node : virtual_nodes) fine_of_[node] = 0;
  }

  // ∀-edges L0 -> L1: a pseudo-tuple precedes every first-layer tuple
  // it weakly dominates (its own cluster members at minimum).
  for (TupleId target : layer1) {
    const PointView tp = points_[target];
    bool covered = false;
    for (std::size_t i = 0; i < v; ++i) {
      if (WeaklyDominates(virtual_points_[i], tp)) {
        coarse_edges->emplace_back(static_cast<NodeId>(n + i), target);
        ++stats_.num_coarse_edges;
        covered = true;
      }
    }
    DRLI_CHECK(covered) << "zero layer must cover every first-layer tuple";
  }
}

std::vector<std::vector<TupleId>> DualLayerIndex::LayerGroups() const {
  std::vector<std::vector<TupleId>> groups;
  for (const std::vector<TupleId>& layer : coarse_layers_) {
    // Bucket the coarse layer by fine sublayer, preserving fine order.
    std::uint32_t max_fine = 0;
    for (TupleId id : layer) max_fine = std::max(max_fine, fine_of_[id]);
    const std::size_t base = groups.size();
    groups.resize(base + max_fine + 1);
    for (TupleId id : layer) {
      groups[base + fine_of_[id]].push_back(id);
    }
  }
  return groups;
}

void DualLayerIndex::FinalizeInitialNodes(CsrView coarse_out,
                                          CsrView fine_out) {
  // The box tree reads only points_, so on the task pool it builds
  // beside the layout (below kMinPointsForParallelBuild, inline).
  const std::size_t threads =
      points_.size() < kMinPointsForParallelBuild ? 1 : options_.build_threads;
  ParallelFor(
      2,
      [&](std::size_t task, std::size_t) {
        if (task == 0) {
          box_tree_ = BoxTree::Build(points_);
        } else {
          FinalizeLayout(coarse_out, fine_out);
        }
      },
      threads);
}

void DualLayerIndex::FinalizeLayout(CsrView coarse_out, CsrView fine_out) {
  const std::size_t total = num_nodes();
  DRLI_CHECK(coarse_out.num_nodes() == total && fine_out.num_nodes() == total);

  // Build the slot-space query layout (see QueryLayout in dual_layer.h)
  // from the node-space graph; after this the index holds no other copy.
  QueryLayout& layout = layout_;
  layout.node_of.resize(total);
  std::iota(layout.node_of.begin(), layout.node_of.end(), 0u);
  std::stable_sort(layout.node_of.begin(), layout.node_of.end(),
                   [&](NodeId a, NodeId b) {
                     const bool va = is_virtual(a);
                     const bool vb = is_virtual(b);
                     if (va != vb) return va;  // pseudo-tuples first
                     if (coarse_of_[a] != coarse_of_[b]) {
                       return coarse_of_[a] < coarse_of_[b];
                     }
                     if (fine_of_[a] != fine_of_[b]) {
                       return fine_of_[a] < fine_of_[b];
                     }
                     return a < b;
                   });
  layout.slot_of.resize(total);
  for (std::size_t slot = 0; slot < total; ++slot) {
    layout.slot_of[layout.node_of[slot]] = static_cast<std::uint32_t>(slot);
  }
  layout.first_real_slot = static_cast<std::uint32_t>(virtual_points_.size());

  // Remap both edge sets to slot space, keeping each row's edge order;
  // only the lazy ∀-gate below reorders the pseudo-tuples' coarse rows.
  const auto remap = [&](CsrView graph,
                         std::vector<std::uint32_t>& offsets,
                         std::vector<std::uint32_t>& targets) {
    offsets.resize(total + 1);
    targets.clear();
    targets.reserve(graph.num_edges());
    for (std::size_t slot = 0; slot < total; ++slot) {
      offsets[slot] = static_cast<std::uint32_t>(targets.size());
      for (const NodeId succ : graph[layout.node_of[slot]]) {
        targets.push_back(layout.slot_of[succ]);
      }
    }
    offsets[total] = static_cast<std::uint32_t>(targets.size());
  };
  remap(coarse_out, layout.coarse_offsets, layout.coarse_targets);
  remap(fine_out, layout.fine_offsets, layout.fine_targets);

  // Each init word counts its slot's ∀ in-edges and is fine-free
  // unless an ∃-edge enters it.
  layout.init_packed.assign(total, 0);
  for (const std::uint32_t target : layout.coarse_targets) {
    ++layout.init_packed[target];
  }
  for (std::uint32_t& word : layout.init_packed) {
    // The in-degree countdown lives in the low 24 bits of the packed
    // state word; an overflow would corrupt the lifecycle bits.
    DRLI_CHECK(word <= QueryLayout::kRemainingMask);
    word |= QueryLayout::kFineFreeBit;
  }
  for (const std::uint32_t target : layout.fine_targets) {
    layout.init_packed[target] &= ~QueryLayout::kFineFreeBit;
  }

  // Lazy ∀-gate (see QueryLayout): split each pseudo slot's coarse row
  // into the targets fine-free at init, then the fine-blocked rest, and
  // index every fine-blocked target's pseudo parents. One O(edges) pass.
  const std::uint32_t num_pseudo = layout.first_real_slot;
  layout.pseudo_free_end.clear();
  layout.parent_offsets.clear();
  layout.parent_slots.clear();
  if (num_pseudo > 0) {
    const auto fine_free = [&](std::uint32_t slot) {
      return (layout.init_packed[slot] & QueryLayout::kFineFreeBit) != 0;
    };
    std::vector<std::uint32_t>& targets = layout.coarse_targets;
    layout.pseudo_free_end.resize(num_pseudo);
    layout.parent_offsets.assign(total + 1, 0);
    for (std::uint32_t p = 0; p < num_pseudo; ++p) {
      const auto row_end = targets.begin() + layout.coarse_offsets[p + 1];
      const auto free_end = std::stable_partition(
          targets.begin() + layout.coarse_offsets[p], row_end, fine_free);
      layout.pseudo_free_end[p] =
          static_cast<std::uint32_t>(free_end - targets.begin());
      for (auto it = free_end; it != row_end; ++it) {
        ++layout.parent_offsets[*it + 1];
      }
    }
    std::partial_sum(layout.parent_offsets.begin(),
                     layout.parent_offsets.end(),
                     layout.parent_offsets.begin());
    layout.parent_slots.resize(layout.parent_offsets[total]);
    std::vector<std::uint32_t> next(layout.parent_offsets.begin(),
                                    layout.parent_offsets.end() - 1);
    for (std::uint32_t p = 0; p < num_pseudo; ++p) {
      for (std::uint32_t i = layout.pseudo_free_end[p];
           i < layout.coarse_offsets[p + 1]; ++i) {
        layout.parent_slots[next[targets[i]]++] = p;
      }
    }
  }
  // The start set, in node order: every slot free at init.
  layout.initial_slots.clear();
  for (std::size_t node = 0; node < total; ++node) {
    const std::uint32_t slot = layout.slot_of[node];
    if (layout.init_packed[slot] == QueryLayout::kFreeable) {
      layout.initial_slots.push_back(slot);
    }
  }
  layout.points =
      SoaPointSet::FromPermutation(points_, virtual_points_, layout.node_of);

  layout.stop_slack = ComputeStopSlack();

  // A fresh id per rebuild lets QueryScratch detect that its cached
  // per-slot init words belong to another layout and must be re-seeded.
  static std::atomic<std::uint64_t> layout_generation{0};
  layout.generation = ++layout_generation;
}

NodeSpaceGraph DualLayerIndex::NodeGraph() const {
  const QueryLayout& layout = layout_;
  const std::size_t total = num_nodes();
  // Row `node` is slot_of[node]'s row mapped back through node_of; a
  // pseudo slot's coarse row is sorted back to ascending (see header).
  const auto export_rows = [&](const std::vector<std::uint32_t>& offsets,
                               const std::vector<std::uint32_t>& targets,
                               bool sort_pseudo_rows) {
    CsrGraph graph{{0}, {}};
    graph.offsets.reserve(total + 1);
    graph.targets.reserve(targets.size());
    for (std::size_t node = 0; node < total; ++node) {
      const std::uint32_t slot = layout.slot_of[node];
      for (std::uint32_t i = offsets[slot]; i < offsets[slot + 1]; ++i) {
        graph.targets.push_back(layout.node_of[targets[i]]);
      }
      if (sort_pseudo_rows && slot < layout.first_real_slot) {
        std::sort(graph.targets.begin() + graph.offsets.back(),
                  graph.targets.end());
      }
      graph.offsets.push_back(
          static_cast<std::uint32_t>(graph.targets.size()));
    }
    return graph;
  };
  NodeSpaceGraph graph{
      export_rows(layout.coarse_offsets, layout.coarse_targets, true),
      export_rows(layout.fine_offsets, layout.fine_targets, false),
      {}, {}, {}};
  graph.coarse_in_degree.reserve(total);
  graph.has_fine_in.reserve(total);
  graph.initial.reserve(layout.initial_slots.size());
  for (std::size_t node = 0; node < total; ++node) {
    const std::uint32_t word = layout.init_packed[layout.slot_of[node]];
    graph.coarse_in_degree.push_back(word & QueryLayout::kRemainingMask);
    graph.has_fine_in.push_back((word & QueryLayout::kFineFreeBit) == 0);
  }
  for (const std::uint32_t slot : layout.initial_slots) {
    graph.initial.push_back(layout.node_of[slot]);
  }
  return graph;
}

double DualLayerIndex::StopSlack(PointView weights) const {
  double slack = 0.0;
  for (std::size_t j = 0; j < layout_.stop_slack.size(); ++j) {
    slack += weights[j] * layout_.stop_slack[j];
  }
  return slack;
}

std::vector<double> DualLayerIndex::ComputeStopSlack() const {
  const std::size_t d = points_.dim();
  const std::size_t n = points_.size();
  const std::size_t total = num_nodes();
  // The longest chain of ∃ steps: within one coarse layer (or the
  // pseudo-tuples' layer) a chain climbs at most its deepest sublayer
  // index; ∀ steps between layers are exact.
  // deepest[coarse_layers_.size()] is the pseudo-tuples' layer.
  std::vector<std::uint32_t> deepest(coarse_layers_.size() + 1, 0);
  for (std::size_t node = 0; node < total; ++node) {
    if (fine_of_[node] == kNoFineLayer) continue;
    std::uint32_t& depth =
        deepest[node < n ? coarse_of_[node] : coarse_layers_.size()];
    depth = std::max(depth, fine_of_[node]);
  }
  double chain = 0.0;
  for (const std::uint32_t depth : deepest) chain += depth;
  std::vector<double> slack(d, 0.0);
  if (layout_.fine_targets.empty() || chain == 0.0) return slack;
  std::vector<std::uint32_t> fine_in(total, 0);
  for (const std::uint32_t slot : layout_.fine_targets) ++fine_in[slot];
  // One ∃ step (eds.h, kRounding): the virtual tuple passes the target
  // by at most ~3 * (ulps + facet) ulps of the coordinate's magnitude,
  // and two Score evaluations round by d ulps each; 8 * ulps + 2d + 8
  // covers both, and the factor 2 covers rounding cutoff + slack.
  const std::size_t facet = *std::max_element(fine_in.begin(), fine_in.end());
  const double ulps = 8.0 * EdsRoundingUlps(facet, d) +
                      2.0 * static_cast<double>(d) + 8.0;
  const double per_unit =
      2.0 * chain * ulps * std::numeric_limits<double>::epsilon();
  for (const PointSet* set : {&points_, &virtual_points_}) {
    for (std::size_t i = 0; i < set->size(); ++i) {
      const PointView p = (*set)[i];
      for (std::size_t j = 0; j < d; ++j) {
        slack[j] = std::max(slack[j], per_unit * std::fabs(p[j]));
      }
    }
  }
  return slack;
}

std::vector<LayerAccessRow> ExplainAccess(const DualLayerIndex& index,
                                          const TopKResult& result) {
  // (coarse, fine) -> row index, in layer order.
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::size_t> row_of;
  std::vector<LayerAccessRow> rows;
  for (std::size_t i = 0; i < index.points().size(); ++i) {
    const auto node = static_cast<DualLayerIndex::NodeId>(i);
    const auto key = std::make_pair(index.coarse_layer_of(node),
                                    index.fine_layer_of(node));
    auto it = row_of.find(key);
    if (it == row_of.end()) {
      it = row_of.emplace(key, rows.size()).first;
      rows.push_back(LayerAccessRow{key.first, key.second, 0, 0});
    }
    ++rows[it->second].layer_size;
  }
  for (TupleId id : result.accessed) {
    if (id >= index.points().size()) continue;  // pseudo-tuple
    const auto node = static_cast<DualLayerIndex::NodeId>(id);
    const auto key = std::make_pair(index.coarse_layer_of(node),
                                    index.fine_layer_of(node));
    ++rows[row_of.at(key)].accessed;
  }
  std::sort(rows.begin(), rows.end(),
            [](const LayerAccessRow& a, const LayerAccessRow& b) {
              if (a.coarse != b.coarse) return a.coarse < b.coarse;
              return a.fine < b.fine;
            });
  return rows;
}

}  // namespace drli
