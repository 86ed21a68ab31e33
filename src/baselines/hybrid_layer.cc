#include "baselines/hybrid_layer.h"

#include <algorithm>
#include <limits>

#include "common/check.h"
#include "common/kernels_batch.h"
#include "common/stopwatch.h"
#include "skyline/skyline_layers.h"
#include "topk/threshold_algorithm.h"

namespace drli {

HybridLayerIndex HybridLayerIndex::Build(PointSet points,
                                         const HybridLayerOptions& options) {
  Stopwatch timer;
  HybridLayerIndex index;
  index.points_ = std::move(points);
  index.tight_threshold_ = options.tight_threshold;
  index.name_ = options.name.empty()
                    ? (options.tight_threshold ? "HL+" : "HL")
                    : options.name;
  if (!index.points_.empty()) {
    ConvexLayerDecomposition decomposition =
        BuildConvexLayers(index.points_, options.max_layers);
    index.layers_ = std::move(decomposition.layers);
    index.stats_.truncated = decomposition.truncated;
    index.lists_.reserve(index.layers_.size());
    for (const std::vector<TupleId>& layer : index.layers_) {
      index.lists_.emplace_back(index.points_, layer);
    }
  }
  index.soa_ = SoaPointSet::FromPointSet(index.points_);
  index.stats_.num_layers = index.layers_.size();
  index.stats_.build_seconds = timer.ElapsedSeconds();
  return index;
}

TopKResult HybridLayerIndex::Query(const TopKQuery& query) const {
  Stopwatch timer;
  if (const Status status = ValidateQuery(query, points_.dim());
      !status.ok()) {
    return InvalidQueryResult(status);
  }

  TopKResult result;
  if (points_.empty() || query.k == 0) {
    FinalizeComplete(result);
    return result;
  }
  if (stats_.truncated && query.k >= layers_.size()) {
    // The tail layer breaks the k-layer guarantee beyond the cap; an
    // oversized k is a recoverable rejection, not a process abort.
    return InvalidQueryResult(Status::InvalidArgument(
        "k exceeds the peeled layer budget of this HL index"));
  }
  const PointView w(query.weights);

  BudgetGate gate(query.budget);
  TaScanControl control;
  control.gate = &gate;
  TopKHeap heap(query.k);
  std::size_t layers_scanned = 0;
  // Weakly increasing lower bound on the minimum score of every
  // still-unscanned layer: convex-layer minima increase layer over
  // layer, so the previous layer's minimum bounds them all.
  double chain_bound = -std::numeric_limits<double>::infinity();
  // Lower bound on every tuple in the unscanned suffix at loop exit;
  // ties with the k-th answer remain possible while it is <= KthScore.
  double separation = std::numeric_limits<double>::infinity();
  bool scanned_all = true;
  for (std::size_t layer = 0; layer < lists_.size(); ++layer) {
    const SortedLists& layer_lists = lists_[layer];
    if (layers_scanned == query.k) {  // k-layer guarantee
      separation = chain_bound;
      scanned_all = false;
      break;
    }
    if (tight_threshold_) {
      const double layer_floor =
          std::max(chain_bound, LayerScoreLowerBound(layer_lists, w));
      if (layer_floor >= heap.KthScore()) {
        // No tuple in this or any later layer can beat the top-k.
        separation = layer_floor;
        scanned_all = false;
        break;
      }
    }
    double layer_min_bound = 0.0;
    TaScanLayer(soa_, layer_lists, w, &heap, &result.stats.tuples_evaluated,
                &layer_min_bound, &result.accessed, &control);
    if (control.stop != Termination::kComplete) {
      // Budget tripped mid-layer. Unoffered tuples of this layer are
      // bounded by the TA frontier. Unscanned deeper layers: convex
      // minima weakly increase, so they are bounded by this layer's
      // (partial) minimum bound, the chain bound, and -- often tightest
      // -- the next layer's own attribute floor. Completed layers'
      // unoffered tuples and heap evictions are at or above the k-th
      // heap entry (HeapFrontier).
      double deeper = std::max(chain_bound, layer_min_bound);
      if (layer + 1 < lists_.size()) {
        deeper = std::max(deeper, LayerScoreLowerBound(lists_[layer + 1], w));
      } else {
        deeper = std::numeric_limits<double>::infinity();
      }
      result.items = heap.SortedAscending();
      if (result.items.size() > query.k) result.items.resize(query.k);
      FinalizePartial(
          result, control.stop,
          HeapFrontier(heap, std::min(control.frontier, deeper)));
      result.stats.elapsed_seconds = timer.ElapsedSeconds();
      return result;
    }
    chain_bound = std::max(chain_bound, layer_min_bound);
    ++layers_scanned;
  }
  // Cross-layer tie-probe: the k-layer guarantee puts every unscanned
  // tuple at or above the k-th answer, but an exact duplicate can still
  // tie it and the canonical (score, id) order must then surface the
  // smaller id. Walk the unscanned suffix charging only genuine ties
  // (the tie-agnostic reference never materializes the rest) until a
  // layer's true minimum strictly separates. Within-layer ties were
  // already resolved by TaScanLayer's own probe.
  if (!scanned_all && heap.size() == heap.k() &&
      separation <= heap.KthScore()) {
    const double kth = heap.KthScore();
    for (std::size_t i = layers_scanned; i < layers_.size(); ++i) {
      if (const Termination stop =
              gate.Step(result.stats.tuples_evaluated);
          stop != Termination::kComplete) {
        // Past the k-layer stop every unreturned tuple scores >= kth;
        // only exact ties at kth are still unresolved.
        result.items = heap.SortedAscending();
        FinalizePartial(result, stop, kth);
        result.stats.elapsed_seconds = timer.ElapsedSeconds();
        return result;
      }
      // Whole-layer sweep: one batched kernel call, then the per-tuple
      // tie bookkeeping in id order exactly as the scalar loop did.
      double layer_min = std::numeric_limits<double>::infinity();
      const std::vector<TupleId>& layer_ids = layers_[i];
      std::vector<double> layer_scores(layer_ids.size());
      ScoreBatch(w, soa_, layer_ids.data(), layer_ids.size(),
                 layer_scores.data());
      for (std::size_t j = 0; j < layer_ids.size(); ++j) {
        const double score = layer_scores[j];
        layer_min = std::min(layer_min, score);
        if (score == kth) {
          ++result.stats.tuples_evaluated;
          result.accessed.push_back(layer_ids[j]);
          heap.Push(ScoredTuple{layer_ids[j], score});
        }
      }
      if (layer_min > kth) break;
    }
  }
  result.items = heap.SortedAscending();
  FinalizeComplete(result);
  result.stats.elapsed_seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace drli
