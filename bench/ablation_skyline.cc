// Ablation: skyline algorithm choice for layer construction. The paper
// builds its layers with BSkyTree; this bench shows why, comparing the
// naive O(n^2) reference sweep against the SkyTree-style partitioning
// (ComputeSkyline) on both distributions.
//
// Expected shape: SkyTree << naive, with the gap largest on
// anti-correlated data (big skylines).

#include <numeric>
#include <string>
#include <vector>

#include "benchmark/benchmark.h"

#include "bench/bench_util.h"
#include "skyline/skyline.h"

namespace {

using drli::Distribution;

std::vector<drli::TupleId> NaiveOfAll(const drli::PointSet& points) {
  std::vector<drli::TupleId> all(points.size());
  std::iota(all.begin(), all.end(), 0);
  return drli::NaiveSkyline(points, all);
}

void Register(const char* algorithm,
              std::vector<drli::TupleId> (*skyline)(const drli::PointSet&),
              Distribution dist, std::size_t n, std::size_t d) {
  const std::string name = std::string("ablation_skyline/") +
                           drli::DistributionName(dist) + "/" + algorithm +
                           "/n:" + std::to_string(n);
  benchmark::RegisterBenchmark(
      name.c_str(),
      [skyline, dist, n, d](benchmark::State& state) {
        const drli::PointSet& points =
            drli::bench_util::GetDataset(dist, n, d);
        std::size_t skyline_size = 0;
        for (auto _ : state) {
          const auto sky = skyline(points);
          benchmark::DoNotOptimize(sky);
          skyline_size = sky.size();
        }
        state.counters["skyline"] = static_cast<double>(skyline_size);
      })
      ->Unit(benchmark::kMillisecond);
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t base = drli::bench_util::DefaultN();
  for (Distribution dist :
       {Distribution::kIndependent, Distribution::kAnticorrelated}) {
    for (std::size_t n : {base / 4, base / 2, base}) {
      Register("naive", &NaiveOfAll, dist, n, /*d=*/4);
      Register("skytree", &drli::ComputeSkyline, dist, n, /*d=*/4);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
