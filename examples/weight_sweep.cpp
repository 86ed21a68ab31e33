// Weight-sensitivity analysis with the Section V-A weight-range table:
// as the price/distance trade-off w1 sweeps from 0 to 1, which tuples
// can ever be the top-1 answer, and on which weight ranges?
//
// The weight-range table materializes exactly this partition of the
// weight space: each first-sublayer tuple owns one interval of w1
// bounded by the slopes of its adjacent hull facets
// (w1 = lambda / (lambda - 1), Section V-A).
//
//   $ build/examples/weight_sweep

#include <cstdio>
#include <set>

#include "core/dual_layer.h"
#include "core/rank_sweep_2d.h"
#include "data/generator.h"
#include "scenarios/reverse_topk.h"
#include "topk/scan.h"

int main() {
  using namespace drli;

  const std::size_t n = 20000;
  PointSet points = GenerateAnticorrelated(n, 2, /*seed=*/7);

  DualLayerOptions options;
  options.build_zero_layer = true;
  const DualLayerIndex index = DualLayerIndex::Build(points, options);
  const WeightRangeTable& table = index.weight_table();

  std::printf("n = %zu tuples; only %zu can ever be a top-1 answer\n",
              n, table.size());
  std::printf("\n%-10s %-22s %-12s\n", "tuple", "optimal w1 range",
              "(x, y)");
  const auto& chain = table.chain();
  const auto& bp = table.breakpoints();
  for (std::size_t i = 0; i < chain.size(); ++i) {
    const double hi = i == 0 ? 1.0 : bp[i - 1];
    const double lo = i < bp.size() ? bp[i] : 0.0;
    std::printf("#%-9u [%.4f, %.4f]      (%.3f, %.3f)\n", chain[i], lo, hi,
                points.At(chain[i], 0), points.At(chain[i], 1));
    if (i == 14 && chain.size() > 16) {
      std::printf("  ... (%zu more)\n", chain.size() - 15);
      break;
    }
  }

  // Cross-check the table against a full scan on a dense sweep.
  std::printf("\nsweeping w1 in [0.01, 0.99]:\n");
  std::size_t checked = 0, agreed = 0;
  for (double w1 = 0.01; w1 < 0.995; w1 += 0.01) {
    TopKQuery query;
    query.weights = {w1, 1.0 - w1};
    query.k = 1;
    const TopKResult via_index = index.Query(query);
    const TopKResult via_scan = Scan(points, query);
    ++checked;
    if (via_index.items[0].score == via_scan.items[0].score) ++agreed;
  }
  std::printf("  %zu/%zu sweep points: index top-1 matches full scan\n",
              agreed, checked);
  std::printf("  every top-1 lookup evaluated exactly 1 tuple "
              "(vs %zu for the scan)\n", n);

  // Beyond the paper: the exact top-k partition of the weight space
  // (kinetic sweep) and a reverse top-k query (reference [32]).
  const std::size_t k = 5;
  const RankSweepResult sweep = SweepTopKSets2D(points, k);
  std::set<TupleId> ever_in_topk;
  for (const auto& s : sweep.topk_sets) {
    ever_in_topk.insert(s.begin(), s.end());
  }
  std::printf("\nexact top-%zu weight-space partition: %zu intervals, "
              "%zu distinct tuples ever in the top-%zu\n",
              k, sweep.topk_sets.size(), ever_in_topk.size(), k);

  ReverseTopKQuery reverse;
  reverse.target = *ever_in_topk.begin();
  reverse.k = k;
  const ReverseTopKResult answer = ReverseTopK2D(index, reverse);
  std::printf("reverse top-%zu of tuple #%u (%zu tuples compared): in the "
              "answer for w1 in",
              k, reverse.target, answer.stats.tuples_evaluated);
  for (const WeightInterval& iv : answer.intervals) {
    std::printf(" [%.4f, %.4f]", iv.lo, iv.hi);
  }
  std::printf("\n");
  return 0;
}
