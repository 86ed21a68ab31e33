#include "baselines/partitioned_layer.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "common/check.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "skyline/skyline_layers.h"
#include "topk/threshold_algorithm.h"

namespace drli {

PartitionedLayerIndex PartitionedLayerIndex::Build(
    PointSet points, const PartitionedLayerOptions& options) {
  Stopwatch timer;
  PartitionedLayerIndex index;
  index.points_ = std::move(points);
  index.name_ = options.name;

  const std::size_t n = index.points_.size();
  if (n > 0) {
    std::size_t p = options.num_partitions;
    if (p == 0) {
      p = std::clamp<std::size_t>((n + 4095) / 4096, 1, 64);
    }
    p = std::min(p, n);

    // Random balanced partition (seeded shuffle + round-robin).
    std::vector<TupleId> shuffled(n);
    std::iota(shuffled.begin(), shuffled.end(), 0);
    Rng rng(options.seed);
    for (std::size_t i = n; i > 1; --i) {
      std::swap(shuffled[i - 1], shuffled[rng.Index(i)]);
    }
    std::vector<std::vector<TupleId>> partitions(p);
    for (std::size_t i = 0; i < n; ++i) {
      partitions[i % p].push_back(shuffled[i]);
    }

    index.layers_.reserve(p);
    for (const std::vector<TupleId>& partition : partitions) {
      const PointSet subset = index.points_.Subset(partition);
      const ConvexLayerDecomposition decomposition =
          BuildConvexLayers(subset, options.max_layers_per_partition);
      std::vector<std::vector<TupleId>> mapped;
      mapped.reserve(decomposition.layers.size());
      for (const std::vector<TupleId>& layer : decomposition.layers) {
        std::vector<TupleId> global;
        global.reserve(layer.size());
        for (TupleId local : layer) global.push_back(partition[local]);
        mapped.push_back(std::move(global));
      }
      index.stats_.total_layers += mapped.size();
      index.layers_.push_back(std::move(mapped));
    }
    index.stats_.num_partitions = p;
  }
  index.stats_.build_seconds = timer.ElapsedSeconds();
  return index;
}

TopKResult PartitionedLayerIndex::Query(const TopKQuery& query) const {
  Stopwatch timer;
  if (const Status status = ValidateQuery(query, points_.dim());
      !status.ok()) {
    return InvalidQueryResult(status);
  }
  const PointView w(query.weights);

  TopKResult result;
  if (points_.empty() || query.k == 0) {
    FinalizeComplete(result);
    return result;
  }
  const std::size_t p = layers_.size();

  BudgetGate gate(query.budget);
  TopKHeap heap(query.k);
  std::vector<std::size_t> cursor(p, 0);
  // Lower bound on the minimum score in every unscanned layer of each
  // partition: convex-layer minima increase strictly within a
  // partition, so the last scanned layer's minimum bounds the rest.
  std::vector<double> bound(p, -std::numeric_limits<double>::infinity());

  // Certification frontier while the merge is still running: every
  // tuple that can still enter the top-k sits in an unscanned layer of
  // a partition whose k-layer guarantee is not met yet, and scores at
  // least that partition's bound (tuples past a partition's k-th layer
  // cannot rank in the global top-k at all).
  auto unscanned_bound = [&]() {
    double b = std::numeric_limits<double>::infinity();
    for (std::size_t part = 0; part < p; ++part) {
      if (cursor[part] >= layers_[part].size()) continue;
      if (cursor[part] >= query.k) continue;
      b = std::min(b, bound[part]);
    }
    return b;
  };

  while (true) {
    // Most promising partition: smallest bound, still within its
    // k-layer guarantee and not exhausted.
    std::size_t best = p;
    for (std::size_t part = 0; part < p; ++part) {
      if (cursor[part] >= layers_[part].size()) continue;
      if (cursor[part] >= query.k) continue;  // k-layer guarantee met
      if (bound[part] >= heap.KthScore()) continue;
      if (best == p || bound[part] < bound[best]) best = part;
    }
    if (best == p) break;

    const std::vector<TupleId>& layer = layers_[best][cursor[best]];
    double layer_min = std::numeric_limits<double>::infinity();
    for (TupleId id : layer) {
      if (const Termination stop =
              gate.Step(result.stats.tuples_evaluated);
          stop != Termination::kComplete) {
        // The partially scanned layer is still covered by bound[best],
        // which unscanned_bound() includes (the cursor has not moved).
        result.items = heap.SortedAscending();
        FinalizePartial(result, stop,
                        HeapFrontier(heap, unscanned_bound()));
        result.stats.elapsed_seconds = timer.ElapsedSeconds();
        return result;
      }
      const double score = Score(w, points_[id]);
      ++result.stats.tuples_evaluated;
      result.accessed.push_back(id);
      heap.Push(ScoredTuple{id, score});
      layer_min = std::min(layer_min, score);
    }
    bound[best] = layer_min;
    ++cursor[best];
  }
  // Per-partition tie-probe: the bounds above put every unscanned tuple
  // at or above the k-th answer, but an exact duplicate can still tie
  // it and the canonical (score, id) order must then surface the
  // smaller id. Walk each partition's unscanned suffix charging only
  // genuine ties (the tie-agnostic reference never materializes the
  // rest) until its layer minimum strictly separates.
  if (heap.size() == heap.k()) {
    const double kth = heap.KthScore();
    for (std::size_t part = 0; part < p; ++part) {
      if (bound[part] > kth) continue;
      for (std::size_t i = cursor[part]; i < layers_[part].size(); ++i) {
        if (const Termination stop =
                gate.Step(result.stats.tuples_evaluated);
            stop != Termination::kComplete) {
          // Past the merge loop every unreturned tuple scores >= kth;
          // only exact ties at kth are still unresolved.
          result.items = heap.SortedAscending();
          FinalizePartial(result, stop, kth);
          result.stats.elapsed_seconds = timer.ElapsedSeconds();
          return result;
        }
        double layer_min = std::numeric_limits<double>::infinity();
        for (TupleId id : layers_[part][i]) {
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
  }
  result.items = heap.SortedAscending();
  FinalizeComplete(result);
  result.stats.elapsed_seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace drli
