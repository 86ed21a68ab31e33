// Microbenchmarks for the substrates underneath the indexes: skyline
// and convex hull construction, convex-skyline extraction, the EDS
// feasibility LP, the point and batched SoA kernels, the coordinators'
// bound pass, k-means, the Section V-A weight-table lookup, and the 2-d
// kinetic rank sweep.
// These are timing benchmarks proper, unlike bench/paper, whose
// headline is the access counter: each row is bench_util::BestSeconds
// of its body, in seconds per call.
//
// Output: BENCH_micro.json (or argv[1] / DRLI_BENCH_OUT), one row per
// benchmark with the run's provenance; the batched kernels run on the
// row's "kernel" (set DRLI_NO_SIMD=1 for the scalar fallback).

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <map>
#include <numeric>
#include <string>
#include <type_traits>
#include <vector>

#include "bench/bench_util.h"
#include "cluster/kmeans.h"
#include "common/check.h"
#include "common/kernels_batch.h"
#include "common/point.h"
#include "common/random.h"
#include "common/soa_points.h"
#include "core/eds.h"
#include "core/partition_merge.h"
#include "core/rank_sweep_2d.h"
#include "core/zero_layer.h"
#include "data/generator.h"
#include "geometry/convex_hull.h"
#include "geometry/convex_hull_2d.h"
#include "geometry/convex_skyline.h"
#include "shard/sharded_index.h"
#include "skyline/skyline.h"
#include "skyline/skyline_layers.h"

namespace {

using namespace drli;

using bench_util::BestSeconds;
using bench_util::GetDataset;

// Keeps the compiler from discarding the computation of `value`.
template <typename T>
void DoNotOptimize(const T& value) {
  if constexpr (std::is_trivially_copyable_v<T> && sizeof(T) <= sizeof(T*)) {
    asm volatile("" : : "r,m"(value) : "memory");
  } else {
    asm volatile("" : : "m"(value) : "memory");
  }
}

struct Row {
  std::string name;
  double seconds = 0.0;  // per call
  // An optional size the body produced (skyline members, hull facets).
  const char* counter = nullptr;
  std::size_t count = 0;
};

std::vector<Row> rows;

void Record(std::string name, double seconds, const char* counter = nullptr,
            std::size_t count = 0) {
  std::printf("%-40s %12.1f ns", name.c_str(), seconds * 1e9);
  if (counter != nullptr) std::printf("  %s=%zu", counter, count);
  std::printf("\n");
  std::fflush(stdout);
  rows.push_back({std::move(name), seconds, counter, count});
}

std::string Label(const char* bench, std::initializer_list<std::size_t> args) {
  std::string label = bench;
  for (std::size_t arg : args) {
    label += '/';
    label += std::to_string(arg);
  }
  return label;
}

std::vector<TupleId> NaiveOfAll(const PointSet& points) {
  std::vector<TupleId> all(points.size());
  std::iota(all.begin(), all.end(), 0);
  return NaiveSkyline(points, all);
}

// The sweep's first layer is SKY(points).
std::vector<TupleId> SweepOfAll(const PointSet& points) {
  return BuildSkylineLayers(points).layers[0];
}

// The library's skyline against the naive O(n^2) reference sweep, at
// d = 4. The library computes skylines on the box tree: a sweep row
// times the whole BuildSkylineLayers (every layer, box tree included),
// whose first layer is the skyline, so its `skyline` count must equal
// its naive twin's. Expected shape: sweep << naive, the gap largest on
// anti-correlated data (big skylines).
void Skylines() {
  const struct {
    const char* name;
    std::vector<TupleId> (*skyline)(const PointSet&);
  } algorithms[] = {{"skyline/naive", &NaiveOfAll},
                    {"skyline/sweep", &SweepOfAll}};
  std::map<std::string, std::size_t> naive_members;
  for (const auto& algorithm : algorithms) {
    for (Distribution dist :
         {Distribution::kIndependent, Distribution::kAnticorrelated}) {
      for (std::size_t n : {2500, 5000, 10000}) {
        const PointSet& points = GetDataset(dist, n, 4);
        std::size_t members = 0;
        const double seconds = BestSeconds([&](std::size_t) {
          const std::vector<TupleId> sky = algorithm.skyline(points);
          DoNotOptimize(sky.data());
          members = sky.size();
        });
        const std::string cell =
            std::to_string(n) + "/" + DistributionName(dist);
        Record(std::string(algorithm.name) + "/" + cell, seconds, "skyline",
               members);
        if (algorithm.skyline == &NaiveOfAll) {
          naive_members[cell] = members;
        } else {
          DRLI_CHECK_EQ(members, naive_members.at(cell))
              << algorithm.name << "/" << cell;
        }
      }
    }
  }
}

void Hulls() {
  for (const auto& [n, d] : {std::pair<std::size_t, std::size_t>{1000, 2},
                            {1000, 3},
                            {1000, 4},
                            {1000, 5},
                            {5000, 4}}) {
    const PointSet& points = GetDataset(Distribution::kIndependent, n, d);
    std::size_t facets = 0;
    const double seconds = BestSeconds([&](std::size_t) {
      ConvexHull hull;
      const auto status = ComputeConvexHull(points, {}, &hull);
      DoNotOptimize(status);
      facets = hull.num_facets();
    });
    Record(Label("convex_hull", {n, d}), seconds, "facets", facets);
  }
  for (std::size_t d : {2, 3, 4, 5}) {
    const PointSet& points = GetDataset(Distribution::kAnticorrelated, 2000, d);
    std::size_t members = 0;
    const double seconds = BestSeconds([&](std::size_t) {
      const ConvexSkylineResult csky = ComputeConvexSkyline(points);
      DoNotOptimize(csky.members.data());
      members = csky.members.size();
    });
    Record(Label("convex_skyline", {2000, d}), seconds, "members", members);
  }
  for (std::size_t n : {10000, 100000}) {
    const PointSet& points = GetDataset(Distribution::kAnticorrelated, n, 2);
    const double seconds = BestSeconds([&](std::size_t) {
      const auto chain = LowerLeftChain2D(points);
      DoNotOptimize(chain.data());
    });
    Record(Label("lower_left_chain_2d", {n}), seconds);
  }
}

void EdsFacetTests() {
  for (std::size_t d : {2, 3, 4, 5}) {
    const PointSet points = GenerateIndependent(256, d, 3);
    Rng rng(4);
    // Pre-drawn facet/target pairs.
    std::vector<std::vector<TupleId>> facets;
    std::vector<TupleId> targets;
    for (int i = 0; i < 64; ++i) {
      std::vector<TupleId> facet;
      while (facet.size() < d) {
        const auto id = static_cast<TupleId>(rng.Index(points.size()));
        if (std::find(facet.begin(), facet.end(), id) == facet.end()) {
          facet.push_back(id);
        }
      }
      facets.push_back(facet);
      targets.push_back(static_cast<TupleId>(rng.Index(points.size())));
    }
    const double seconds = BestSeconds([&](std::size_t i) {
      DoNotOptimize(
          FacetIsEds(points, facets[i & 63], points[targets[i & 63]]));
    });
    Record(Label("eds_facet_test", {d}), seconds);
  }
}

// Dimension-specialized point kernels (common/point.h): d = 2/3/4 hit
// the unrolled fast paths, d = 5 exercises the generic fallback. Each
// pairs point i with a fixed stride of it, as (i * mul + add) & 1023.
template <typename Kernel>
void PointKernel(const char* name, std::uint64_t seed, std::size_t mul,
                 std::size_t add, Kernel kernel) {
  for (std::size_t d : {2, 3, 4, 5}) {
    const PointSet points = GenerateAnticorrelated(1024, d, seed);
    const double seconds = BestSeconds([&](std::size_t i) {
      DoNotOptimize(kernel(points[i & 1023], points[(i * mul + add) & 1023]));
    });
    Record(Label(name, {d}), seconds);
  }
}

void PointKernels() {
  PointKernel("dominates", 7, 7, 13, [](PointView a, PointView b) {
    return Dominates(a, b);
  });
  PointKernel("weakly_dominates", 8, 5, 11, [](PointView a, PointView b) {
    return WeaklyDominates(a, b);
  });
  PointKernel("compare", 9, 3, 17,
              [](PointView a, PointView b) { return Compare(a, b); });
  for (std::size_t d : {2, 3, 4, 5}) {
    const PointSet points = GenerateAnticorrelated(1024, d, 10);
    Rng rng(11);
    const std::vector<double> w = rng.SimplexWeight(d);
    const double seconds = BestSeconds([&](std::size_t i) {
      DoNotOptimize(Score(PointView(w), points[i & 1023]));
    });
    Record(Label("score", {d}), seconds);
  }
}

std::vector<std::uint32_t> RandomIds(Rng& rng, std::size_t count,
                                     std::size_t n) {
  std::vector<std::uint32_t> ids(count);
  for (std::uint32_t& id : ids) id = static_cast<std::uint32_t>(rng.Index(n));
  return ids;
}

// Batched SoA kernels (common/kernels_batch.h), per batch call.
void BatchKernels() {
  for (const auto& [d, count] : {std::pair<std::size_t, std::size_t>{4, 8},
                                {4, 64},
                                {4, 1024},
                                {2, 1024},
                                {5, 1024}}) {
    const SoaPointSet soa =
        SoaPointSet::FromPointSet(GenerateAnticorrelated(4096, d, 21));
    Rng rng(22);
    const std::vector<double> w = rng.SimplexWeight(d);
    const std::vector<std::uint32_t> ids = RandomIds(rng, count, 4096);
    std::vector<double> out(count);
    const double seconds = BestSeconds([&](std::size_t) {
      ScoreBatch(PointView(w), soa, ids.data(), ids.size(), out.data());
      DoNotOptimize(out.data());
    });
    Record(Label("score_batch", {d, count}), seconds);
  }
  for (std::size_t d : {4, 2}) {
    const SoaPointSet soa =
        SoaPointSet::FromPointSet(GenerateAnticorrelated(4096, d, 23));
    Rng rng(24);
    const std::vector<double> w = rng.SimplexWeight(d);
    std::vector<double> out(4096);
    const double seconds = BestSeconds([&](std::size_t) {
      ScoreRange(PointView(w), soa, 0, 4096, out.data());
      DoNotOptimize(out.data());
    });
    Record(Label("score_range", {d, 4096}), seconds);
  }
  for (std::size_t d : {4, 3}) {
    const SoaPointSet soa =
        SoaPointSet::FromPointSet(GenerateAnticorrelated(4096, d, 25));
    Rng rng(26);
    const std::vector<std::uint32_t> ids = RandomIds(rng, 256, 4096);
    // The origin is dominated by nothing, so every probe sweeps the
    // whole batch: worst-case cost, no data-dependent short-circuit.
    const Point origin(d, 0.0);
    const double seconds = BestSeconds([&](std::size_t) {
      DoNotOptimize(DominatesAnyBatch(soa, ids.data(), ids.size(),
                                      PointView(origin)));
    });
    Record(Label("dominates_any_batch", {d, 256}), seconds);
  }
}

// The coordinator's bound pass over every shard of a sharded engine
// (100k anti-correlated tuples, hyperplane shards): one CornerLowerBound
// per shard over its own row-major bound points, against the fused pass
// over the engine's dimension-major block (PartitionSet::Bound, the
// ScoreMinRange kernel). Per query, over all S shards.
void BoundPasses() {
  for (const auto& [shards, d] : {std::pair<std::size_t, std::size_t>{8, 4},
                                  {16, 4},
                                  {8, 5},
                                  {16, 5}}) {
    ShardedBuildOptions options;
    options.num_shards = shards;
    options.shard_options.build_zero_layer = true;
    const ShardedDualLayerIndex index = ShardedDualLayerIndex::Build(
        GetDataset(Distribution::kAnticorrelated, 100000, d), options);
    const PartitionSet& set = index.partitions();
    std::size_t points = 0;
    for (const DualLayerPartition* part : set.parts) {
      points += part->bound_values.size() / d;
    }
    Rng rng(27);
    std::vector<Point> weights;
    for (int i = 0; i < 1024; ++i) weights.push_back(rng.SimplexWeight(d));
    std::vector<double> bounds(shards);
    const double per_partition = BestSeconds([&](std::size_t i) {
      const PointView w(weights[i & 1023]);
      for (std::size_t s = 0; s < shards; ++s) {
        bounds[s] = index.ShardLowerBound(s, w);
      }
      DoNotOptimize(bounds.data());
    });
    Record(Label("bound_pass/per_partition", {shards, d}), per_partition,
           "points", points);
    const double fused = BestSeconds([&](std::size_t i) {
      const PointView w(weights[i & 1023]);
      for (std::size_t s = 0; s < shards; ++s) bounds[s] = set.Bound(s, w);
      DoNotOptimize(bounds.data());
    });
    Record(Label("bound_pass/fused", {shards, d}), fused, "points", points);
  }
}

void ZeroLayerSubstrates() {
  for (std::size_t n : {2000, 10000}) {
    const PointSet& points = GetDataset(Distribution::kIndependent, n, 4);
    const double seconds = BestSeconds([&](std::size_t) {
      KMeansOptions options;
      options.num_clusters = 64;
      DoNotOptimize(KMeans(points, options).centroids.data());
    });
    Record(Label("kmeans", {n}), seconds);
  }
  {
    const PointSet& points =
        GetDataset(Distribution::kAnticorrelated, 100000, 2);
    const auto chain32 = LowerLeftChain2D(points);
    const std::vector<TupleId> chain(chain32.begin(), chain32.end());
    const WeightRangeTable table = WeightRangeTable::Build(points, chain);
    Rng rng(5);
    std::vector<double> w1s(1024);
    for (double& w : w1s) w = rng.Uniform(0.001, 0.999);
    const double seconds = BestSeconds([&](std::size_t i) {
      DoNotOptimize(table.Lookup(w1s[i & 1023]));
    });
    Record("weight_table_lookup", seconds, "chain", table.size());
  }
  for (std::size_t n : {500, 2000}) {
    const PointSet& points = GetDataset(Distribution::kAnticorrelated, n, 2);
    std::size_t intervals = 0;
    const double seconds = BestSeconds([&](std::size_t) {
      const RankSweepResult sweep = SweepTopKSets2D(points, 10);
      DoNotOptimize(sweep.topk_sets.data());
      intervals = sweep.topk_sets.size();
    });
    Record(Label("rank_sweep_2d", {n, 10}), seconds, "intervals", intervals);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path =
      bench_util::OutputPath(argc, argv, "BENCH_micro.json");
  Skylines();
  Hulls();
  EdsFacetTests();
  PointKernels();
  BatchKernels();
  BoundPasses();
  ZeroLayerSubstrates();

  const bench_util::Provenance& p = bench_util::RunProvenance();
  std::ofstream out(out_path);
  out << "[\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::string counter;
    if (r.counter != nullptr) {
      counter = std::string("\"") + r.counter +
                "\": " + std::to_string(r.count) + ", ";
    }
    char buffer[512];
    std::snprintf(buffer, sizeof(buffer),
                  "  {\"name\": \"%s\", \"seconds\": %.12f, %s"
                  "\"hardware_threads\": %u, \"kernel\": \"%s\", "
                  "\"commit\": \"%s\"}%s\n",
                  r.name.c_str(), r.seconds, counter.c_str(),
                  p.hardware_threads, p.kernel.c_str(), p.commit.c_str(),
                  i + 1 < rows.size() ? "," : "");
    out << buffer;
  }
  out << "]\n";
  DRLI_CHECK(bool(out)) << "failed to write " << out_path;
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
