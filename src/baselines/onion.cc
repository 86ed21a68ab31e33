#include "baselines/onion.h"

#include <algorithm>
#include <limits>

#include "common/check.h"
#include "common/stopwatch.h"
#include "skyline/skyline_layers.h"
#include "topk/threshold_algorithm.h"

namespace drli {

OnionIndex OnionIndex::Build(PointSet points, const OnionOptions& options) {
  Stopwatch timer;
  OnionIndex index;
  index.points_ = std::move(points);
  index.name_ = options.name;
  index.early_stop_ = options.early_stop;
  if (!index.points_.empty()) {
    ConvexLayerDecomposition decomposition =
        BuildConvexLayers(index.points_, options.max_layers);
    index.layers_ = std::move(decomposition.layers);
    index.stats_.truncated = decomposition.truncated;
  }
  index.stats_.num_layers = index.layers_.size();
  index.stats_.build_seconds = timer.ElapsedSeconds();
  return index;
}

TopKResult OnionIndex::Query(const TopKQuery& query) const {
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
        "k exceeds the peeled layer budget of this Onion index"));
  }
  const PointView w(query.weights);

  BudgetGate gate(query.budget);
  TopKHeap heap(query.k);
  std::size_t layers_scanned = 0;
  double prev_min = -std::numeric_limits<double>::infinity();
  for (const std::vector<TupleId>& layer : layers_) {
    if (layers_scanned == query.k) break;  // k-layer guarantee
    double layer_min = std::numeric_limits<double>::infinity();
    for (std::size_t pos = 0; pos < layer.size(); ++pos) {
      // Budget check at the scan position. Unscanned tuples of this
      // layer and every deeper layer score at or above the last fully
      // scanned layer's minimum (layer minima weakly increase), so
      // prev_min is the certification frontier.
      if (const Termination stop =
              gate.Step(result.stats.tuples_evaluated);
          stop != Termination::kComplete) {
        result.items = heap.SortedAscending();
        FinalizePartial(result, stop, HeapFrontier(heap, prev_min));
        result.stats.elapsed_seconds = timer.ElapsedSeconds();
        return result;
      }
      const TupleId id = layer[pos];
      const double score = Score(w, points_[id]);
      ++result.stats.tuples_evaluated;
      result.accessed.push_back(id);
      heap.Push(ScoredTuple{id, score});
      layer_min = std::min(layer_min, score);
    }
    ++layers_scanned;
    prev_min = layer_min;
    // Layer minima strictly increase, so once the k-th best is at or
    // below this layer's minimum no later layer can improve the result.
    if (early_stop_ && heap.KthScore() <= layer_min) break;
  }
  // Tie-probe phase: layer minima only WEAKLY increase under exact
  // duplicates, so at KthScore == prev_min an unscanned layer can still
  // hold an equal-score tuple that the canonical (score, id) order must
  // prefer. Probe forward until a layer's minimum strictly separates;
  // probes are charged to the cost metric only when they actually tie
  // (the classic tie-agnostic traversal never materializes the rest).
  if (heap.size() == heap.k() && heap.KthScore() >= prev_min) {
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
      double layer_min = std::numeric_limits<double>::infinity();
      for (TupleId id : layers_[i]) {
        const double score = Score(w, points_[id]);
        layer_min = std::min(layer_min, score);
        if (score == kth) {
          ++result.stats.tuples_evaluated;
          result.accessed.push_back(id);
          heap.Push(ScoredTuple{id, score});
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
