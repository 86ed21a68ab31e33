// Microbenchmarks for the substrates underneath the indexes: skyline
// and convex hull construction, convex-skyline extraction, the EDS
// feasibility LP, k-means, the Section V-A weight-table lookup, and the
// 2-d kinetic rank sweep. These are timing benchmarks proper
// (google-benchmark loops), unlike bench/paper, whose headline is the
// access counter.

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "benchmark/benchmark.h"

#include "bench/bench_util.h"
#include "cluster/kmeans.h"
#include "common/kernels_batch.h"
#include "common/point.h"
#include "common/random.h"
#include "common/simd.h"
#include "common/soa_points.h"
#include "core/eds.h"
#include "core/rank_sweep_2d.h"
#include "core/zero_layer.h"
#include "data/generator.h"
#include "geometry/convex_hull.h"
#include "geometry/convex_hull_2d.h"
#include "geometry/convex_skyline.h"
#include "skyline/skyline.h"

namespace {

using drli::Distribution;
using drli::PointSet;

std::vector<drli::TupleId> NaiveOfAll(const PointSet& points) {
  std::vector<drli::TupleId> all(points.size());
  std::iota(all.begin(), all.end(), 0);
  return drli::NaiveSkyline(points, all);
}

// The skyline algorithm behind the layers (the paper uses BSkyTree):
// the naive O(n^2) reference sweep against SkyTree-style pivot
// partitioning (ComputeSkyline). Args: n, distribution (0 = IND,
// 1 = ANT), at d = 4. Expected shape: SkyTree << naive, the gap largest
// on anti-correlated data (big skylines).
void BM_Skyline(benchmark::State& state,
                std::vector<drli::TupleId> (*skyline)(const PointSet&)) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const Distribution dist = state.range(1) == 0
                                ? Distribution::kIndependent
                                : Distribution::kAnticorrelated;
  const PointSet& pts = drli::bench_util::GetDataset(dist, n, 4);
  std::size_t members = 0;
  for (auto _ : state) {
    const auto sky = skyline(pts);
    benchmark::DoNotOptimize(sky.data());
    members = sky.size();
  }
  state.counters["skyline"] = static_cast<double>(members);
}
BENCHMARK_CAPTURE(BM_Skyline, naive, &NaiveOfAll)
    ->ArgsProduct({{2500, 5000, 10000}, {0, 1}})
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Skyline, skytree, &drli::ComputeSkyline)
    ->ArgsProduct({{2500, 5000, 10000}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

void BM_ConvexHull(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t d = static_cast<std::size_t>(state.range(1));
  const PointSet& pts =
      drli::bench_util::GetDataset(Distribution::kIndependent, n, d);
  std::size_t facets = 0;
  for (auto _ : state) {
    drli::ConvexHull hull;
    drli::ConvexHullOptions options;
    const auto status = drli::ComputeConvexHull(pts, options, &hull);
    benchmark::DoNotOptimize(status);
    facets = hull.facets.size();
  }
  state.counters["facets"] = static_cast<double>(facets);
}
BENCHMARK(BM_ConvexHull)
    ->Args({1000, 2})
    ->Args({1000, 3})
    ->Args({1000, 4})
    ->Args({1000, 5})
    ->Args({5000, 4})
    ->Unit(benchmark::kMillisecond);

void BM_ConvexSkyline(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t d = static_cast<std::size_t>(state.range(1));
  const PointSet& pts =
      drli::bench_util::GetDataset(Distribution::kAnticorrelated, n, d);
  std::size_t members = 0;
  for (auto _ : state) {
    const drli::ConvexSkylineResult csky = drli::ComputeConvexSkyline(pts);
    benchmark::DoNotOptimize(csky.members.data());
    members = csky.members.size();
  }
  state.counters["members"] = static_cast<double>(members);
}
BENCHMARK(BM_ConvexSkyline)
    ->Args({2000, 2})
    ->Args({2000, 3})
    ->Args({2000, 4})
    ->Args({2000, 5})
    ->Unit(benchmark::kMillisecond);

void BM_LowerLeftChain2D(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const PointSet& pts =
      drli::bench_util::GetDataset(Distribution::kAnticorrelated, n, 2);
  for (auto _ : state) {
    const auto chain = drli::LowerLeftChain2D(pts);
    benchmark::DoNotOptimize(chain.data());
  }
}
BENCHMARK(BM_LowerLeftChain2D)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

void BM_EdsFacetTest(benchmark::State& state) {
  const std::size_t d = static_cast<std::size_t>(state.range(0));
  const PointSet pts = drli::GenerateIndependent(256, d, 3);
  drli::Rng rng(4);
  // Pre-draw facet/target pairs.
  std::vector<std::vector<drli::TupleId>> facets;
  std::vector<drli::TupleId> targets;
  for (int i = 0; i < 64; ++i) {
    std::vector<drli::TupleId> facet;
    while (facet.size() < d) {
      const auto id = static_cast<drli::TupleId>(rng.Index(pts.size()));
      if (std::find(facet.begin(), facet.end(), id) == facet.end()) {
        facet.push_back(id);
      }
    }
    facets.push_back(facet);
    targets.push_back(static_cast<drli::TupleId>(rng.Index(pts.size())));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const bool eds =
        drli::FacetIsEds(pts, facets[i & 63], pts[targets[i & 63]]);
    benchmark::DoNotOptimize(eds);
    ++i;
  }
}
BENCHMARK(BM_EdsFacetTest)->Arg(2)->Arg(3)->Arg(4)->Arg(5);

// Dimension-specialized point kernels (common/point.h): d = 2/3/4 hit
// the unrolled fast paths, d = 5 exercises the generic fallback.
void BM_DominatesKernel(benchmark::State& state) {
  const std::size_t d = static_cast<std::size_t>(state.range(0));
  const PointSet pts = drli::GenerateAnticorrelated(1024, d, 7);
  std::size_t i = 0;
  for (auto _ : state) {
    const bool dom = drli::Dominates(pts[i & 1023], pts[(i * 7 + 13) & 1023]);
    benchmark::DoNotOptimize(dom);
    ++i;
  }
}
BENCHMARK(BM_DominatesKernel)->Arg(2)->Arg(3)->Arg(4)->Arg(5);

void BM_WeaklyDominatesKernel(benchmark::State& state) {
  const std::size_t d = static_cast<std::size_t>(state.range(0));
  const PointSet pts = drli::GenerateAnticorrelated(1024, d, 8);
  std::size_t i = 0;
  for (auto _ : state) {
    const bool dom =
        drli::WeaklyDominates(pts[i & 1023], pts[(i * 5 + 11) & 1023]);
    benchmark::DoNotOptimize(dom);
    ++i;
  }
}
BENCHMARK(BM_WeaklyDominatesKernel)->Arg(2)->Arg(3)->Arg(4)->Arg(5);

void BM_CompareKernel(benchmark::State& state) {
  const std::size_t d = static_cast<std::size_t>(state.range(0));
  const PointSet pts = drli::GenerateAnticorrelated(1024, d, 9);
  std::size_t i = 0;
  for (auto _ : state) {
    const drli::DomRel rel =
        drli::Compare(pts[i & 1023], pts[(i * 3 + 17) & 1023]);
    benchmark::DoNotOptimize(rel);
    ++i;
  }
}
BENCHMARK(BM_CompareKernel)->Arg(2)->Arg(3)->Arg(4)->Arg(5);

void BM_ScoreKernel(benchmark::State& state) {
  const std::size_t d = static_cast<std::size_t>(state.range(0));
  const PointSet pts = drli::GenerateAnticorrelated(1024, d, 10);
  drli::Rng rng(11);
  const std::vector<double> w = rng.SimplexWeight(d);
  std::size_t i = 0;
  for (auto _ : state) {
    const double score = drli::Score(drli::PointView(w), pts[i & 1023]);
    benchmark::DoNotOptimize(score);
    ++i;
  }
}
BENCHMARK(BM_ScoreKernel)->Arg(2)->Arg(3)->Arg(4)->Arg(5);

// Batched SoA kernels (common/kernels_batch.h). The label reports the
// dispatch target the run actually used; set DRLI_NO_SIMD=1 to measure
// the scalar fallback on the same machine.
void BM_ScoreBatchKernel(benchmark::State& state) {
  const std::size_t d = static_cast<std::size_t>(state.range(0));
  const std::size_t count = static_cast<std::size_t>(state.range(1));
  const PointSet pts = drli::GenerateAnticorrelated(4096, d, 21);
  const drli::SoaPointSet soa = drli::SoaPointSet::FromPointSet(pts);
  drli::Rng rng(22);
  const std::vector<double> w = rng.SimplexWeight(d);
  std::vector<std::uint32_t> ids(count);
  for (std::uint32_t& id : ids) {
    id = static_cast<std::uint32_t>(rng.Index(pts.size()));
  }
  std::vector<double> out(count);
  for (auto _ : state) {
    drli::ScoreBatch(drli::PointView(w), soa, ids.data(), ids.size(),
                     out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * count));
  state.SetLabel(drli::SimdTargetName(drli::ActiveSimdTarget()));
}
BENCHMARK(BM_ScoreBatchKernel)
    ->Args({4, 8})
    ->Args({4, 64})
    ->Args({4, 1024})
    ->Args({2, 1024})
    ->Args({5, 1024});

void BM_ScoreRangeKernel(benchmark::State& state) {
  const std::size_t d = static_cast<std::size_t>(state.range(0));
  const std::size_t n = static_cast<std::size_t>(state.range(1));
  const PointSet pts = drli::GenerateAnticorrelated(n, d, 23);
  const drli::SoaPointSet soa = drli::SoaPointSet::FromPointSet(pts);
  drli::Rng rng(24);
  const std::vector<double> w = rng.SimplexWeight(d);
  std::vector<double> out(n);
  for (auto _ : state) {
    drli::ScoreRange(drli::PointView(w), soa, 0, n, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * n));
  state.SetLabel(drli::SimdTargetName(drli::ActiveSimdTarget()));
}
BENCHMARK(BM_ScoreRangeKernel)->Args({4, 4096})->Args({2, 4096});

void BM_DominatesAnyBatchKernel(benchmark::State& state) {
  const std::size_t d = static_cast<std::size_t>(state.range(0));
  const std::size_t count = static_cast<std::size_t>(state.range(1));
  const PointSet pts = drli::GenerateAnticorrelated(4096, d, 25);
  const drli::SoaPointSet soa = drli::SoaPointSet::FromPointSet(pts);
  drli::Rng rng(26);
  std::vector<std::uint32_t> ids(count);
  for (std::uint32_t& id : ids) {
    id = static_cast<std::uint32_t>(rng.Index(pts.size()));
  }
  // The origin is dominated by nothing, so every probe sweeps the whole
  // batch: worst-case cost, no data-dependent short-circuit.
  const drli::Point q(d, 0.0);
  for (auto _ : state) {
    const bool any =
        drli::DominatesAnyBatch(soa, ids.data(), ids.size(), drli::PointView(q));
    benchmark::DoNotOptimize(any);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * count));
  state.SetLabel(drli::SimdTargetName(drli::ActiveSimdTarget()));
}
BENCHMARK(BM_DominatesAnyBatchKernel)->Args({4, 256})->Args({3, 256});

void BM_KMeans(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const PointSet& pts =
      drli::bench_util::GetDataset(Distribution::kIndependent, n, 4);
  for (auto _ : state) {
    drli::KMeansOptions options;
    options.num_clusters = 64;
    const drli::KMeansResult result = drli::KMeans(pts, options);
    benchmark::DoNotOptimize(result.centroids.data());
  }
}
BENCHMARK(BM_KMeans)->Arg(2000)->Arg(10000)->Unit(benchmark::kMillisecond);

void BM_WeightTableLookup(benchmark::State& state) {
  const PointSet& pts =
      drli::bench_util::GetDataset(Distribution::kAnticorrelated, 100000, 2);
  const auto chain32 = drli::LowerLeftChain2D(pts);
  std::vector<drli::TupleId> chain(chain32.begin(), chain32.end());
  const drli::WeightRangeTable table =
      drli::WeightRangeTable::Build(pts, chain);
  drli::Rng rng(5);
  std::vector<double> w1s(1024);
  for (double& w : w1s) w = rng.Uniform(0.001, 0.999);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.Lookup(w1s[i & 1023]));
    ++i;
  }
  state.counters["chain"] = static_cast<double>(table.size());
}
BENCHMARK(BM_WeightTableLookup);

void BM_RankSweep2D(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t k = static_cast<std::size_t>(state.range(1));
  const PointSet& pts =
      drli::bench_util::GetDataset(Distribution::kAnticorrelated, n, 2);
  std::size_t intervals = 0;
  for (auto _ : state) {
    const drli::RankSweepResult sweep = drli::SweepTopKSets2D(pts, k);
    benchmark::DoNotOptimize(sweep.topk_sets.data());
    intervals = sweep.topk_sets.size();
  }
  state.counters["intervals"] = static_cast<double>(intervals);
}
BENCHMARK(BM_RankSweep2D)
    ->Args({500, 10})
    ->Args({2000, 10})
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
