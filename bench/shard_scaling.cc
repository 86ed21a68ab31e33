// Sharded serving scaling: build time and query throughput for
// ShardedDualLayerIndex at S in {1, 4, 16} and d in {2, 4, 5}, the
// wall-clock evidence for DESIGN.md §7. Three effects are measured per
// (n, d, S):
//
//   * build: partition seconds + the parallel shard-build loop's wall
//     and cpu seconds. Shard builds are the coarsest independent tasks
//     in the system, so on an m-core box wall ~ cpu / min(S, m); on a
//     single core the speedup comes only from the superlinear
//     per-shard build cost (S shards of n/S tuples cost ~S^(1-a) of
//     one n-tuple build for cost ~ n^a, a > 1).
//   * serving: single-thread QPS over a fixed simplex-weight batch at
//     k = 10 and k = 100, identical workload across S. The batch is
//     replayed until at least 0.5 s has been timed.
//   * pruning: mean shards touched per query -- the fraction of S the
//     hyperplane partition lets the coordinator skip via corner
//     bounds. Random partitions touch ~S; hyperplane stays near the
//     few slabs that hold every query's frontier.
//
// Every S > 1 answer is checked bit-identical to the S = 1 answer for
// the same query before it is counted -- the benchmark doubles as a
// full-scale differential test.
//
// DRLI_BENCH_N overrides the cardinality (default 1000000; the CI
// smoke uses a few thousand; d = 5 runs at a fifth of it),
// DRLI_BENCH_QUERIES the distinct queries per batch (default 2000).
// Output: BENCH_shard.json (or argv[1] / DRLI_BENCH_OUT).

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/check.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "data/generator.h"
#include "shard/sharded_index.h"

namespace {

using namespace drli;

// Minimum timed window per (S, k) cell.
constexpr double kMinTimedSeconds = 0.5;

using bench_util::EnvSize;

struct KRow {
  std::size_t k = 0;
  double qps = 0;
  double mean_shards_touched = 0;
  double avg_tuples = 0;
};

struct Row {
  std::size_t n = 0;
  std::size_t d = 0;
  std::size_t shards = 0;
  double partition_seconds = 0;
  double build_wall_seconds = 0;
  double build_cpu_seconds = 0;
  double build_total_seconds = 0;
  KRow at_k[2];
};

Row Measure(const PointSet& points, std::size_t num_shards,
            std::size_t num_queries,
            std::vector<std::vector<TopKResult>>* reference) {
  Row row;
  row.n = points.size();
  row.d = points.dim();
  row.shards = num_shards;

  ShardedBuildOptions options;
  options.num_shards = num_shards;
  options.partitioner = ShardPartitioner::kHyperplane;
  options.shard_options.build_zero_layer = true;
  const ShardedDualLayerIndex index =
      ShardedDualLayerIndex::Build(points, options);
  const ShardedBuildStats& bs = index.build_stats();
  row.partition_seconds = bs.partition_seconds;
  row.build_wall_seconds = bs.build_wall_seconds;
  row.build_cpu_seconds = bs.build_cpu_seconds;
  row.build_total_seconds = bs.total_seconds;

  const std::size_t ks[2] = {10, 100};
  for (std::size_t ki = 0; ki < 2; ++ki) {
    Rng rng(42);
    std::vector<TopKQuery> queries;
    queries.reserve(num_queries);
    for (std::size_t i = 0; i < num_queries; ++i) {
      queries.push_back(TopKQuery{rng.SimplexWeight(points.dim()), ks[ki]});
    }

    // Warmup pass faults in every shard the batch will touch.
    for (std::size_t i = 0; i < num_queries && i < 64; ++i) {
      (void)index.Query(queries[i]);
    }

    // The batch repeats until the timed window reaches kMinTimedSeconds
    // (a single pass at d = 2 lasts a few ms, too short to resolve);
    // only the first pass is kept for counting and the differential
    // check.
    std::size_t touched = 0;
    std::size_t tuples = 0;
    std::vector<TopKResult> results;
    results.reserve(num_queries);
    std::size_t passes = 0;
    Stopwatch timer;
    do {
      for (const TopKQuery& query : queries) {
        TopKResult result = index.Query(query);
        if (passes == 0) results.push_back(std::move(result));
      }
      ++passes;
    } while (timer.ElapsedSeconds() < kMinTimedSeconds);
    const double seconds = timer.ElapsedSeconds();
    for (const TopKResult& result : results) {
      DRLI_CHECK(result.complete()) << "unbudgeted query stopped early";
      touched += result.stats.shards_touched;
      tuples += result.stats.tuples_evaluated;
    }

    // Differential check against the S = 1 run of the same (d, k).
    std::vector<TopKResult>& baseline = (*reference)[ki];
    if (num_shards == 1) {
      baseline = std::move(results);
    } else {
      for (std::size_t i = 0; i < num_queries; ++i) {
        const TopKResult& got = results[i];
        const TopKResult& want = baseline[i];
        DRLI_CHECK(got.items.size() == want.items.size())
            << "S=" << num_shards << " answer size diverged on query " << i;
        for (std::size_t r = 0; r < got.items.size(); ++r) {
          DRLI_CHECK(got.items[r].id == want.items[r].id &&
                     got.items[r].score == want.items[r].score)
              << "S=" << num_shards << " answer diverged on query " << i
              << " rank " << r;
        }
      }
    }

    row.at_k[ki].k = ks[ki];
    row.at_k[ki].qps =
        static_cast<double>(passes * num_queries) / seconds;
    row.at_k[ki].mean_shards_touched =
        static_cast<double>(touched) / static_cast<double>(num_queries);
    row.at_k[ki].avg_tuples =
        static_cast<double>(tuples) / static_cast<double>(num_queries);
  }
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t n = EnvSize("DRLI_BENCH_N", 1000000);
  const std::size_t num_queries = EnvSize("DRLI_BENCH_QUERIES", 2000);

  std::vector<Row> rows;
  // d = 5 runs at n / 5 (200k by default): its partition bound is the
  // largest (most bound points per shard), and a 1M-tuple d = 5 build is
  // too slow for a routine run.
  for (const auto& [d, dn] : {std::pair<std::size_t, std::size_t>{2, n},
                              {4, n},
                              {5, std::max<std::size_t>(1, n / 5)}}) {
    const PointSet points = GenerateAnticorrelated(dn, d, /*seed=*/20120401);
    std::vector<std::vector<TopKResult>> reference(2);
    double s1_build = 0.0;
    for (std::size_t shards : {std::size_t{1}, std::size_t{4},
                               std::size_t{16}}) {
      Row row = Measure(points, shards, num_queries, &reference);
      if (shards == 1) s1_build = row.build_total_seconds;
      std::printf(
          "n=%-8zu d=%zu S=%-3zu build=%.2fs (partition=%.3fs wall=%.2fs "
          "cpu=%.2fs, %.2fx vs S=1) qps_k10=%.0f touched_k10=%.2f "
          "qps_k100=%.0f touched_k100=%.2f kernel=%s\n",
          row.n, row.d, row.shards, row.build_total_seconds,
          row.partition_seconds, row.build_wall_seconds,
          row.build_cpu_seconds, s1_build / row.build_total_seconds,
          row.at_k[0].qps, row.at_k[0].mean_shards_touched, row.at_k[1].qps,
          row.at_k[1].mean_shards_touched,
          bench_util::RunProvenance().kernel.c_str());
      std::fflush(stdout);
      rows.push_back(row);
    }
  }

  const std::string out_path =
      bench_util::OutputPath(argc, argv, "BENCH_shard.json");
  const bench_util::Provenance& p = bench_util::RunProvenance();
  std::ofstream out(out_path);
  out << "[\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    char buffer[640];
    std::snprintf(
        buffer, sizeof(buffer),
        "  {\"n\": %zu, \"d\": %zu, \"shards\": %zu, "
        "\"hardware_threads\": %u, \"kernel\": \"%s\", \"commit\": \"%s\", "
        "\"partition_seconds\": %.6f, \"build_wall_seconds\": %.6f, "
        "\"build_cpu_seconds\": %.6f, \"build_total_seconds\": %.6f, "
        "\"qps_k10\": %.1f, \"mean_shards_touched_k10\": %.3f, "
        "\"avg_tuples_k10\": %.2f, "
        "\"qps_k100\": %.1f, \"mean_shards_touched_k100\": %.3f, "
        "\"avg_tuples_k100\": %.2f}%s\n",
        r.n, r.d, r.shards, p.hardware_threads, p.kernel.c_str(),
        p.commit.c_str(),
        r.partition_seconds, r.build_wall_seconds, r.build_cpu_seconds,
        r.build_total_seconds, r.at_k[0].qps,
        r.at_k[0].mean_shards_touched, r.at_k[0].avg_tuples, r.at_k[1].qps,
        r.at_k[1].mean_shards_touched, r.at_k[1].avg_tuples,
        i + 1 < rows.size() ? "," : "");
    out << buffer;
  }
  out << "]\n";
  DRLI_CHECK(bool(out)) << "failed to write " << out_path;
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
