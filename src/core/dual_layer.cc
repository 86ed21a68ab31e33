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
  index.coarse_in_degree_.assign(n, 0);
  index.has_fine_in_.assign(n, 0);
  index.chain_pos_.assign(n, kNoFineLayer);

  AdjacencyBuilder coarse_adj(n);
  AdjacencyBuilder fine_adj(n);
  Stopwatch phase;
  if (n > 0) {
    index.BuildCoarseLayers();
    index.stats_.skyline_seconds = phase.ElapsedSeconds();
    phase.Restart();
    index.BuildFineLayers(&fine_adj);
    index.stats_.fine_peel_seconds = phase.ElapsedSeconds();
    phase.Restart();
    index.BuildCoarseEdges(&coarse_adj);
    index.stats_.coarse_edge_seconds = phase.ElapsedSeconds();
    if (options.build_zero_layer) {
      phase.Restart();
      index.BuildZeroLayer(&coarse_adj, &fine_adj);
      index.stats_.zero_layer_seconds = phase.ElapsedSeconds();
    }
  }
  phase.Restart();
  index.coarse_out_ = CsrGraph::FromAdjacency(coarse_adj);
  index.fine_out_ = CsrGraph::FromAdjacency(fine_adj);
  index.FinalizeInitialNodes();
  index.stats_.finalize_seconds = phase.ElapsedSeconds();
  index.stats_.build_seconds = timer.ElapsedSeconds();
  return index;
}

void DualLayerIndex::BuildCoarseLayers() {
  LayerDecomposition decomposition = BuildSkylineLayers(points_);
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
  // Facets of the previous sublayer, as node ids.
  std::vector<std::vector<NodeId>> prev_facets;
  // The previous sublayer lives in `pool`; the EDS LP needs pool-local
  // coordinates, so keep a parallel pool-id version of the facets.
  std::vector<std::vector<TupleId>> prev_facets_pool;
  // Componentwise-min corner per facet, computed once per facet and
  // reused as the O(d) EDS reject test against every target. Stored
  // flat (facet-major) with the corner's attribute sum alongside: a
  // corner whose sum exceeds the target's cannot weakly dominate it,
  // which settles most rejections in one comparison.
  std::vector<double> prev_corner_coords;
  std::vector<double> prev_corner_sums;

  while (!remaining.empty()) {
    std::vector<TupleId> local_pool_ids;
    local_pool_ids.reserve(remaining.size());
    PointSet subset(pool.dim());
    subset.Reserve(remaining.size());
    for (std::size_t r : remaining) {
      local_pool_ids.push_back(pool_ids[r]);
      subset.Add(pool[pool_ids[r]]);
    }
    const ConvexSkylineResult csky = ComputeConvexSkyline(subset);
    if (!csky.exact) ++out.csky_fallbacks;
    DRLI_CHECK(!csky.members.empty());

    // Map sublayer members and facets back to node / pool ids.
    std::vector<NodeId> member_nodes;
    member_nodes.reserve(csky.members.size());
    std::vector<bool> is_member(remaining.size(), false);
    for (TupleId local : csky.members) {
      is_member[local] = true;
      const NodeId node = node_ids[remaining[local]];
      member_nodes.push_back(node);
      out.fine_of.emplace_back(node, fine);
    }
    const std::size_t d = pool.dim();
    std::vector<std::vector<NodeId>> facets;
    std::vector<std::vector<TupleId>> facets_pool;
    std::vector<double> corner_coords;
    std::vector<double> corner_sums;
    facets.reserve(csky.facets.size());
    facets_pool.reserve(csky.facets.size());
    corner_coords.reserve(csky.facets.size() * d);
    corner_sums.reserve(csky.facets.size());
    for (const auto& facet : csky.facets) {
      std::vector<NodeId> f_nodes;
      std::vector<TupleId> f_pool;
      f_nodes.reserve(facet.size());
      f_pool.reserve(facet.size());
      for (TupleId local : facet) {
        f_nodes.push_back(node_ids[remaining[local]]);
        f_pool.push_back(pool_ids[remaining[local]]);
      }
      const std::size_t at = corner_coords.size();
      corner_coords.resize(at + d);
      double* corner = corner_coords.data() + at;
      const PointView first = pool[f_pool[0]];
      std::copy(first.begin(), first.end(), corner);
      for (std::size_t v = 1; v < f_pool.size(); ++v) {
        const PointView p = pool[f_pool[v]];
        for (std::size_t j = 0; j < d; ++j) {
          corner[j] = std::min(corner[j], p[j]);
        }
      }
      double corner_sum = 0.0;
      for (std::size_t j = 0; j < d; ++j) corner_sum += corner[j];
      corner_sums.push_back(corner_sum);
      facets.push_back(std::move(f_nodes));
      facets_pool.push_back(std::move(f_pool));
    }

    // ∃-edges from sublayer fine-1 into this sublayer (Section III-B).
    if (fine > 0) {
      Stopwatch eds_timer;
      for (std::size_t m = 0; m < member_nodes.size(); ++m) {
        const NodeId target_node = member_nodes[m];
        const PointView target = pool[local_pool_ids[csky.members[m]]];
        double target_sum = 0.0;
        for (std::size_t j = 0; j < d; ++j) target_sum += target[j];
        bool covered = false;
        for (std::size_t f = 0; f < prev_facets.size(); ++f) {
          // Inline bbox reject on the flat corner array (identical
          // decision and counter to FacetIsEds' own corner test, minus
          // the call): the sum shortcut settles a reject in one compare
          // when it fires (componentwise <= implies, with monotone
          // rounding and the same association, sum <=), then the corner
          // itself must weakly dominate the target.
          if (prev_corner_sums[f] > target_sum) {
            ++out.eds.bbox_rejects;
            continue;
          }
          const double* corner = prev_corner_coords.data() + f * d;
          if (!WeaklyDominates(PointView(corner, d), target)) {
            ++out.eds.bbox_rejects;
            continue;
          }
          if (!FacetIsVerifiedEds(pool, prev_facets_pool[f],
                                  PointView(corner, d), target,
                                  EdsMargin::kRounding, &out.eds)) {
            continue;
          }
          for (const NodeId source : prev_facets[f]) {
            out.edges.emplace_back(source, target_node);
          }
          covered = true;
          if (options_.eds_policy == EdsPolicy::kSingleFacet) break;
        }
        if (!covered) ++out.eds_uncovered;
      }
      out.eds_seconds += eds_timer.ElapsedSeconds();
    }

    prev_facets = std::move(facets);
    prev_facets_pool = std::move(facets_pool);
    prev_corner_coords = std::move(corner_coords);
    prev_corner_sums = std::move(corner_sums);

    // Remove the sublayer from the remaining pool.
    std::vector<std::size_t> next;
    next.reserve(remaining.size() - csky.members.size());
    for (std::size_t local = 0; local < remaining.size(); ++local) {
      if (!is_member[local]) next.push_back(remaining[local]);
    }
    remaining = std::move(next);
    ++fine;
    ++out.num_fine_layers;
  }
  return out;
}

void DualLayerIndex::ApplyFinePeel(const FinePeelResult& peel,
                                   AdjacencyBuilder* fine_adj) {
  for (const auto& [node, fine] : peel.fine_of) fine_of_[node] = fine;
  for (const auto& [source, target] : peel.edges) {
    (*fine_adj)[source].push_back(target);
    has_fine_in_[target] = 1;
    ++stats_.num_fine_edges;
  }
  stats_.num_fine_layers += peel.num_fine_layers;
  stats_.eds_uncovered += peel.eds_uncovered;
  stats_.csky_fallbacks += peel.csky_fallbacks;
  stats_.eds_member_hits += peel.eds.member_hits;
  stats_.eds_bbox_rejects += peel.eds.bbox_rejects;
  stats_.eds_lp_calls += peel.eds.lp_calls;
  stats_.eds_seconds += peel.eds_seconds;
}

void DualLayerIndex::BuildFineLayers(AdjacencyBuilder* fine_adj) {
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
  for (const FinePeelResult& peel : results) ApplyFinePeel(peel, fine_adj);
}

void DualLayerIndex::BuildCoarseEdges(AdjacencyBuilder* coarse_adj) {
  // ∀-edges between adjacent coarse layers (Lemma 1): t -> t' iff t ≺ t'.
  // Each adjacent pair is scanned independently on the task pool; edges
  // are buffered per pair and merged in pair order (a source node only
  // ever appears in one pair, so per-source order matches the serial
  // build).
  if (coarse_layers_.size() < 2) return;
  const std::size_t pairs = coarse_layers_.size() - 1;
  std::vector<std::vector<std::pair<NodeId, NodeId>>> pair_edges(pairs);
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
  for (std::size_t i = 0; i < pairs; ++i) {
    stats_.coarse_pairs_pruned += pair_stats[i].pairs_pruned;
    stats_.coarse_pairs_tested += pair_stats[i].pairs_tested;
    for (const auto& [source, target] : pair_edges[i]) {
      (*coarse_adj)[source].push_back(target);
      ++coarse_in_degree_[target];
      ++stats_.num_coarse_edges;
    }
    for (TupleId target : coarse_layers_[i + 1]) {
      DRLI_DCHECK(coarse_in_degree_[target] > 0)
          << "every tuple below layer 1 has a dominator one layer up";
    }
  }
}

void DualLayerIndex::BuildZeroLayer(AdjacencyBuilder* coarse_adj,
                                    AdjacencyBuilder* fine_adj) {
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
  coarse_adj->resize(n + v);
  coarse_in_degree_.resize(n + v, 0);
  fine_adj->resize(n + v);
  has_fine_in_.resize(n + v, 0);
  chain_pos_.resize(n + v, kNoFineLayer);

  std::vector<NodeId> virtual_nodes(v);
  std::vector<TupleId> virtual_ids(v);
  for (std::size_t i = 0; i < v; ++i) {
    virtual_nodes[i] = static_cast<NodeId>(n + i);
    virtual_ids[i] = static_cast<TupleId>(i);
  }
  if (options_.zero_layer_fine_split) {
    ApplyFinePeel(PeelFineLayers(virtual_nodes, virtual_points_, virtual_ids),
                  fine_adj);
  } else {
    for (NodeId node : virtual_nodes) fine_of_[node] = 0;
  }

  // ∀-edges L0 -> L1: a pseudo-tuple precedes every first-layer tuple
  // it weakly dominates (its own cluster members at minimum).
  for (TupleId target : layer1) {
    const PointView tp = points_[target];
    for (std::size_t i = 0; i < v; ++i) {
      if (WeaklyDominates(virtual_points_[i], tp)) {
        (*coarse_adj)[n + i].push_back(target);
        ++coarse_in_degree_[target];
        ++stats_.num_coarse_edges;
      }
    }
    DRLI_CHECK(coarse_in_degree_[target] > 0)
        << "zero layer must cover every first-layer tuple";
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

void DualLayerIndex::FinalizeInitialNodes() {
  const std::size_t total = num_nodes();
  initial_.clear();
  for (std::size_t node = 0; node < total; ++node) {
    if (coarse_in_degree_[node] == 0 && !has_fine_in_[node]) {
      initial_.push_back(static_cast<NodeId>(node));
    }
  }

  // Rebuild the derived slot-space query layout (see QueryLayout in
  // dual_layer.h). This runs after every build and snapshot load, so
  // the layout can never go stale relative to the graph above.
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
  const auto remap = [&](const CsrGraph& graph,
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
  remap(coarse_out_, layout.coarse_offsets, layout.coarse_targets);
  remap(fine_out_, layout.fine_offsets, layout.fine_targets);

  layout.init_packed.resize(total);
  for (std::size_t slot = 0; slot < total; ++slot) {
    const NodeId node = layout.node_of[slot];
    // The in-degree countdown lives in the low 24 bits of the packed
    // state word; an overflow would corrupt the lifecycle bits.
    DRLI_CHECK(coarse_in_degree_[node] <= QueryLayout::kRemainingMask);
    layout.init_packed[slot] =
        coarse_in_degree_[node] |
        (has_fine_in_[node] ? 0u : QueryLayout::kFineFreeBit);
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
  layout.initial_slots.clear();
  layout.initial_slots.reserve(initial_.size());
  for (const NodeId node : initial_) {
    layout.initial_slots.push_back(layout.slot_of[node]);
  }
  layout.points =
      SoaPointSet::FromPermutation(points_, virtual_points_, layout.node_of);

  layout.stop_slack = ComputeStopSlack();

  // A fresh id per rebuild lets QueryScratch detect that its cached
  // per-slot init words belong to another layout and must be re-seeded.
  static std::atomic<std::uint64_t> layout_generation{0};
  layout.generation = ++layout_generation;

  // Sublayer catalog for the constrained scenario (see SublayerSummary
  // in dual_layer.h): the LayerGroups partition annotated with each
  // group's attribute bounding box. O(n*d), once per build/load.
  sublayer_catalog_.clear();
  const std::size_t d = points_.dim();
  for (const std::vector<TupleId>& layer : coarse_layers_) {
    std::uint32_t max_fine = 0;
    for (TupleId id : layer) max_fine = std::max(max_fine, fine_of_[id]);
    const std::size_t base = sublayer_catalog_.size();
    sublayer_catalog_.resize(base + max_fine + 1);
    for (TupleId id : layer) {
      SublayerSummary& group = sublayer_catalog_[base + fine_of_[id]];
      const PointView p = points_[id];
      if (group.members.empty()) {
        group.coarse = coarse_of_[id];
        group.fine = fine_of_[id];
        group.bbox_lo.assign(p.begin(), p.end());
        group.bbox_hi.assign(p.begin(), p.end());
      } else {
        for (std::size_t a = 0; a < d; ++a) {
          group.bbox_lo[a] = std::min(group.bbox_lo[a], p[a]);
          group.bbox_hi[a] = std::max(group.bbox_hi[a], p[a]);
        }
      }
      group.members.push_back(id);
    }
    // Fine sublayer numbering is contiguous per coarse layer, but keep
    // the catalog robust to gaps: a consumer iterating it must never
    // see a memberless group.
    sublayer_catalog_.erase(
        std::remove_if(sublayer_catalog_.begin() + base,
                       sublayer_catalog_.end(),
                       [](const SublayerSummary& g) {
                         return g.members.empty();
                       }),
        sublayer_catalog_.end());
  }
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
  std::vector<std::uint32_t> fine_in(total, 0);
  for (std::size_t node = 0; node < total; ++node) {
    for (const NodeId succ : fine_out_[static_cast<NodeId>(node)]) {
      ++fine_in[succ];
    }
    if (fine_of_[node] == kNoFineLayer) continue;
    std::uint32_t& depth =
        deepest[node < n ? coarse_of_[node] : coarse_layers_.size()];
    depth = std::max(depth, fine_of_[node]);
  }
  double chain = 0.0;
  for (const std::uint32_t depth : deepest) chain += depth;
  std::vector<double> slack(d, 0.0);
  if (fine_out_.num_edges() == 0 || chain == 0.0) return slack;
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
