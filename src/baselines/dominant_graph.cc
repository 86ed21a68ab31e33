#include "baselines/dominant_graph.h"

#include <algorithm>
#include <limits>
#include <queue>

#include "common/check.h"
#include "common/kernels_batch.h"
#include "common/stopwatch.h"
#include "core/zero_layer.h"
#include "skyline/skyline_layers.h"

namespace drli {

DominantGraphIndex DominantGraphIndex::Build(
    PointSet points, const DominantGraphOptions& options) {
  Stopwatch timer;
  DominantGraphIndex index;
  index.points_ = std::move(points);
  index.virtual_points_ = PointSet(index.points_.dim());
  index.name_ = options.name.empty()
                    ? (options.build_zero_layer ? "DG+" : "DG")
                    : options.name;

  const std::size_t n = index.points_.size();
  std::vector<std::vector<NodeId>> out(n);
  index.in_degree_.assign(n, 0);

  if (n > 0) {
    LayerDecomposition decomposition =
        BuildSkylineLayers(index.points_);
    index.layers_ = std::move(decomposition.layers);
    index.stats_.num_layers = index.layers_.size();

    for (std::size_t i = 0; i + 1 < index.layers_.size(); ++i) {
      ForEachDominancePair(index.points_, index.layers_[i],
                           index.layers_[i + 1],
                           [&](TupleId source, TupleId target) {
                             out[source].push_back(target);
                             ++index.in_degree_[target];
                             ++index.stats_.num_edges;
                           });
    }

    if (options.build_zero_layer) {
      const ClusteredZeroLayer zero = BuildClusteredZeroLayer(
          index.points_, index.layers_[0], options.zero_layer_clusters);
      if (!zero.pseudo.empty()) {
        index.virtual_points_ = zero.pseudo;
        const std::size_t v = index.virtual_points_.size();
        index.stats_.num_virtual = v;
        out.resize(n + v);
        index.in_degree_.resize(n + v, 0);
        for (TupleId target : index.layers_[0]) {
          const PointView tp = index.points_[target];
          for (std::size_t i = 0; i < v; ++i) {
            if (WeaklyDominates(index.virtual_points_[i], tp)) {
              out[n + i].push_back(target);
              ++index.in_degree_[target];
              ++index.stats_.num_edges;
            }
          }
          DRLI_CHECK(index.in_degree_[target] > 0);
        }
      }
    }
  }

  // CSR form of the out-edges (rows keep their build order) plus the
  // dimension-major score view -- both derived, neither persisted.
  const std::size_t total = index.num_nodes();
  index.out_offsets_.resize(total + 1);
  index.out_targets_.clear();
  index.out_targets_.reserve(index.stats_.num_edges);
  for (std::size_t node = 0; node < total; ++node) {
    index.out_offsets_[node] =
        static_cast<std::uint32_t>(index.out_targets_.size());
    index.out_targets_.insert(index.out_targets_.end(), out[node].begin(),
                              out[node].end());
  }
  index.out_offsets_[total] =
      static_cast<std::uint32_t>(index.out_targets_.size());
  index.soa_ = SoaPointSet::FromPointSets(index.points_, index.virtual_points_);

  for (std::size_t node = 0; node < total; ++node) {
    if (index.in_degree_[node] == 0) {
      index.initial_.push_back(static_cast<NodeId>(node));
    }
  }
  index.stats_.build_seconds = timer.ElapsedSeconds();
  return index;
}

TopKResult DominantGraphIndex::Query(const TopKQuery& query) const {
  Stopwatch timer;
  if (const Status status = ValidateQuery(query, points_.dim());
      !status.ok()) {
    return InvalidQueryResult(status);
  }
  TopKResult result = QueryLinear(query);
  result.stats.elapsed_seconds = timer.ElapsedSeconds();
  return result;
}

TopKResult DominantGraphIndex::QueryLinear(const TopKQuery& query) const {
  const std::size_t total = num_nodes();

  TopKResult result;
  if (total == 0 || query.k == 0) {
    FinalizeComplete(result);
    return result;
  }
  BudgetGate gate(query.budget);
  const PointView w(query.weights);
  const ScoreBatchFn score_batch = ResolveScoreBatch();

  enum : std::uint8_t { kBlocked = 0, kQueued = 1, kPopped = 2 };
  std::vector<std::uint32_t> remaining = in_degree_;
  std::vector<std::uint8_t> state(total, kBlocked);
  const std::uint32_t* const off = out_offsets_.data();
  const NodeId* const tgt = out_targets_.data();

  struct Entry {
    double score;
    NodeId node;
  };
  struct Greater {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.score != b.score) return a.score > b.score;
      return a.node > b.node;
    }
  };
  std::vector<Entry> heap;
  heap.reserve(initial_.size() + 64);

  // Same tie-cutoff discipline as QueryMonotone (see below).
  double tie_cutoff = std::numeric_limits<double>::infinity();

  // Nodes whose in-degree countdown hit zero during one pop's
  // expansion, scored in one batched kernel call over the
  // dimension-major view and enqueued in that same event order.
  // Deferring past the expansion changes nothing observable: the
  // cutoff only moves at pops and the heap order is a total order on
  // (score, node) independent of push order.
  std::vector<NodeId> freed;
  freed.reserve(256);
  std::vector<double> scores(256);
  const auto flush_freed = [&]() {
    const std::size_t count = freed.size();
    if (count == 0) return;
    if (scores.size() < count) scores.resize(count);
    score_batch(w, soa_, freed.data(), count, scores.data());
    for (std::size_t i = 0; i < count; ++i) {
      const NodeId node = freed[i];
      const double score = scores[i];
      if (score > tie_cutoff) continue;
      if (is_virtual(node)) {
        ++result.stats.virtual_evaluated;
      } else {
        ++result.stats.tuples_evaluated;
        result.accessed.push_back(node);
      }
      state[node] = kQueued;
      heap.push_back(Entry{score, node});
      std::push_heap(heap.begin(), heap.end(), Greater{});
    }
    freed.clear();
  };

  for (const NodeId node : initial_) freed.push_back(node);
  flush_freed();

  Termination stop = Termination::kComplete;
  double frontier = -std::numeric_limits<double>::infinity();

  while (!heap.empty()) {
    if (result.items.size() >= query.k &&
        heap.front().score > tie_cutoff) {
      break;
    }
    if (stop = gate.Step(result.stats.tuples_evaluated);
        stop != Termination::kComplete) {
      frontier = std::min(heap.front().score, tie_cutoff);
      break;
    }
    std::pop_heap(heap.begin(), heap.end(), Greater{});
    const Entry top = heap.back();
    heap.pop_back();
    state[top.node] = kPopped;
    if (!is_virtual(top.node)) {
      result.items.push_back(ScoredTuple{top.node, top.score});
      if (result.items.size() == query.k) tie_cutoff = top.score;
    }
    // Unlike the dual-layer index, DG keeps nodes in id order, so the
    // countdown words of a row's targets scatter across the array;
    // prefetching a few edges ahead overlaps those misses.
    const std::uint32_t row_begin = off[top.node];
    const std::uint32_t row_end = off[top.node + 1];
    for (std::uint32_t i = row_begin; i < row_end; ++i) {
      if (i + 8 < row_end) __builtin_prefetch(&remaining[tgt[i + 8]], 1, 1);
      const NodeId succ = tgt[i];
      DRLI_DCHECK(remaining[succ] > 0);
      if (--remaining[succ] == 0) freed.push_back(succ);
    }
    flush_freed();
  }
  std::sort(result.items.begin(), result.items.end(), ResultOrderLess);
  if (result.items.size() > query.k) result.items.resize(query.k);
  if (stop == Termination::kComplete) {
    FinalizeComplete(result);
  } else {
    FinalizePartial(result, stop, frontier);
  }
  return result;
}

TopKResult DominantGraphIndex::QueryMonotone(const MonotoneScorer& scorer,
                                             std::size_t k,
                                             const ExecBudget& budget) const {
  const std::size_t total = num_nodes();

  TopKResult result;
  if (total == 0 || k == 0) {
    FinalizeComplete(result);
    return result;
  }
  BudgetGate gate(budget);

  enum : std::uint8_t { kBlocked = 0, kQueued = 1, kPopped = 2 };
  std::vector<std::uint32_t> remaining = in_degree_;
  std::vector<std::uint8_t> state(total, kBlocked);

  struct Entry {
    double score;
    NodeId node;
  };
  struct Greater {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.score != b.score) return a.score > b.score;
      return a.node > b.node;
    }
  };
  std::priority_queue<Entry, std::vector<Entry>, Greater> queue;

  // Once the k-th answer is known, only exact ties at its score can
  // still enter the (score, id)-ordered result; probes above it are
  // discarded without being charged to the cost metric (the original
  // stop-at-k traversal would never have materialized them).
  double tie_cutoff = std::numeric_limits<double>::infinity();

  auto try_enqueue = [&](NodeId node) {
    if (state[node] != kBlocked || remaining[node] != 0) return;
    const double score = scorer(node_point(node));
    if (score > tie_cutoff) return;
    if (is_virtual(node)) {
      ++result.stats.virtual_evaluated;
    } else {
      ++result.stats.tuples_evaluated;
      result.accessed.push_back(node);
    }
    state[node] = kQueued;
    queue.push(Entry{score, node});
  };

  for (NodeId node : initial_) try_enqueue(node);

  Termination stop = Termination::kComplete;
  double frontier = -std::numeric_limits<double>::infinity();

  while (!queue.empty()) {
    // Pops are non-decreasing: every blocked node has an in-queue
    // ancestor scoring no higher than itself, so once the queue minimum
    // is strictly worse than the k-th answer no tie can be hidden
    // behind a blocked node.
    if (result.items.size() >= k && queue.top().score > tie_cutoff) break;
    // Budget check at the pop boundary: every unreturned tuple is in
    // the queue, behind an in-queue ancestor, or tie-filtered above
    // tie_cutoff, so min(queue minimum, tie_cutoff) bounds them all.
    if (stop = gate.Step(result.stats.tuples_evaluated);
        stop != Termination::kComplete) {
      frontier = std::min(queue.top().score, tie_cutoff);
      break;
    }
    const Entry top = queue.top();
    queue.pop();
    state[top.node] = kPopped;
    if (!is_virtual(top.node)) {
      result.items.push_back(ScoredTuple{top.node, top.score});
      if (result.items.size() == k) tie_cutoff = top.score;
    }
    for (std::uint32_t i = out_offsets_[top.node];
         i < out_offsets_[top.node + 1]; ++i) {
      const NodeId succ = out_targets_[i];
      DRLI_DCHECK(remaining[succ] > 0);
      if (--remaining[succ] == 0) try_enqueue(succ);
    }
  }
  // Ties freed late pop out of id order; restore the canonical order.
  std::sort(result.items.begin(), result.items.end(), ResultOrderLess);
  if (result.items.size() > k) result.items.resize(k);
  if (stop == Termination::kComplete) {
    FinalizeComplete(result);
  } else {
    FinalizePartial(result, stop, frontier);
  }
  return result;
}

}  // namespace drli
