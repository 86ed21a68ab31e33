// Query-engine throughput: build seconds (serial vs. parallel) and
// batch QPS (1 worker vs. DRLI_THREADS workers) for DL+ across n x d,
// d = 2..5 -- the wall-clock companion to the tuples-evaluated
// figures -- plus the same single-query loop on DL (no zero layer), so
// every row is a same-binary DL+ vs DL comparison.
//
// Each single-query loop (DL+, DL, budgeted DL+) is a whole pass over
// the query set, timed best of bench_util::BestSeconds. It times
// explicit batches so the 1-thread and N-thread numbers come from the
// identical workload, and it emits machine-readable JSON
// (BENCH_throughput.json in the working directory, or the path given
// as argv[1] / DRLI_BENCH_OUT) with the run's provenance on every row.
//
// DRLI_BENCH_N overrides the n sweep with a single cardinality (the CI
// smoke uses 5000); DRLI_BENCH_QUERIES scales the batch (default 4000).

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/check.h"
#include "common/parallel_for.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "core/dual_layer.h"
#include "data/generator.h"

namespace {

using namespace drli;

using bench_util::EnvSize;

struct Row {
  std::size_t n = 0;
  std::size_t d = 0;
  std::size_t batch = 0;
  std::size_t threads = 0;          // workers used for the parallel runs
  double build_seconds_serial = 0;  // build_threads = 1
  double build_seconds_parallel = 0;
  double single_query_seconds = 0;  // serial loop, reused scratch
  // The same loop and queries on DL (zero layer off, same data).
  double dl_single_query_seconds = 0;
  // Same loop with an armed-but-never-firing ExecBudget (generous
  // max_evals + deadline + live cancel token): the serving-path cost of
  // metering every traversal step through BudgetGate.
  double single_query_budgeted_seconds = 0;
  double batch_qps_1t = 0;
  double batch_qps_nt = 0;
  // The two clocks of the parallel batch, straight from BatchStats:
  // wall is the single clock around the batch (the QPS denominator),
  // query_seconds is the SUM of per-query clocks -- over parallel
  // workers it exceeds wall by roughly the worker count, which is why
  // QPS must never be computed from it.
  double batch_wall_seconds_nt = 0;
  double batch_query_seconds_nt = 0;
  double avg_tuples = 0;  // Definition 9, for cross-checking
  double avg_edges = 0;   // QueryStats::edges_walked per DL+ query
};

Row Measure(std::size_t n, std::size_t d, std::size_t num_queries,
            std::size_t threads) {
  Row row;
  row.n = n;
  row.d = d;
  row.batch = num_queries;
  row.threads = threads;

  const PointSet points = GenerateAnticorrelated(n, d, /*seed=*/20120401);
  DualLayerOptions options;
  options.build_zero_layer = true;

  options.build_threads = 1;
  Stopwatch timer;
  const DualLayerIndex index = DualLayerIndex::Build(points, options);
  row.build_seconds_serial = timer.ElapsedSeconds();

  options.build_threads = threads;
  timer.Restart();
  const DualLayerIndex parallel_index = DualLayerIndex::Build(points, options);
  row.build_seconds_parallel = timer.ElapsedSeconds();
  DRLI_CHECK(parallel_index.NodeGraph() == index.NodeGraph())
      << "parallel build diverged from serial build";

  Rng rng(42);
  std::vector<TopKQuery> queries;
  queries.reserve(num_queries);
  for (std::size_t i = 0; i < num_queries; ++i) {
    queries.push_back(TopKQuery{rng.SimplexWeight(d), /*k=*/10});
  }

  // Seconds per query of the best pass of `body` over the whole set.
  const auto per_query = [&](auto body) {
    return bench_util::BestSeconds([&](std::size_t) { body(); }) /
           static_cast<double>(num_queries);
  };

  // Warmup pass, which also counts the work: faults in the index
  // arrays, seeds the scratch, and lets the frequency governor settle
  // before anything is timed.
  QueryScratch scratch;
  std::size_t tuples = 0;
  std::size_t edges = 0;
  for (const TopKQuery& query : queries) {
    const QueryStats stats = index.Query(query, &scratch).stats;
    tuples += stats.tuples_evaluated;
    edges += stats.edges_walked;
  }

  // Single-thread per-query latency with an explicitly reused scratch.
  row.single_query_seconds = per_query([&] {
    for (const TopKQuery& query : queries) {
      (void)index.Query(query, &scratch);
    }
  });
  row.avg_tuples =
      static_cast<double>(tuples) / static_cast<double>(num_queries);
  row.avg_edges =
      static_cast<double>(edges) / static_cast<double>(num_queries);

  // DL baseline: same data, queries and loop, its own warmed scratch.
  DualLayerOptions dl_options;
  dl_options.build_threads = threads;
  const DualLayerIndex dl_index = DualLayerIndex::Build(points, dl_options);
  QueryScratch dl_scratch;
  for (const TopKQuery& query : queries) {
    (void)dl_index.Query(query, &dl_scratch);
  }
  row.dl_single_query_seconds = per_query([&] {
    for (const TopKQuery& query : queries) {
      (void)dl_index.Query(query, &dl_scratch);
    }
  });

  // Budget-gate overhead: identical queries, budgets armed wide enough
  // that no query ever trips (every result must stay complete).
  CancelToken cancel;
  std::vector<TopKQuery> budgeted = queries;
  for (TopKQuery& query : budgeted) {
    query.budget.deadline_seconds = 3600.0;
    query.budget.max_evals = n + 1;
    query.budget.cancel = &cancel;
  }
  row.single_query_budgeted_seconds = per_query([&] {
    std::size_t budgeted_tuples = 0;
    for (const TopKQuery& query : budgeted) {
      const TopKResult result = index.Query(query, &scratch);
      DRLI_CHECK(result.complete()) << "armed budget tripped unexpectedly";
      budgeted_tuples += result.stats.tuples_evaluated;
    }
    DRLI_CHECK(budgeted_tuples == tuples)
        << "budgeted traversal changed the evaluation count";
  });

  // Batch throughput: identical workload, 1 worker vs. `threads`. QPS
  // divides by BatchStats::wall_seconds -- the batch's single wall
  // clock -- never by the sum of per-query clocks, which over parallel
  // workers overstates elapsed time by ~the worker count.
  setenv("DRLI_THREADS", "1", 1);
  BatchStats serial_stats;
  const std::vector<TopKResult> serial_results =
      index.QueryBatch(queries, &serial_stats);
  row.batch_qps_1t =
      static_cast<double>(num_queries) / serial_stats.wall_seconds;

  setenv("DRLI_THREADS", std::to_string(threads).c_str(), 1);
  BatchStats parallel_stats;
  const std::vector<TopKResult> parallel_results =
      index.QueryBatch(queries, &parallel_stats);
  row.batch_qps_nt =
      static_cast<double>(num_queries) / parallel_stats.wall_seconds;
  row.batch_wall_seconds_nt = parallel_stats.wall_seconds;
  row.batch_query_seconds_nt = parallel_stats.merged.elapsed_seconds;

  for (std::size_t i = 0; i < num_queries; ++i) {
    DRLI_CHECK(serial_results[i].items.size() ==
               parallel_results[i].items.size());
  }
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t num_queries = EnvSize("DRLI_BENCH_QUERIES", 4000);
  const std::size_t threads = EnvSize("DRLI_BENCH_THREADS", 4);

  std::vector<std::size_t> ns;
  if (std::getenv("DRLI_BENCH_N") != nullptr) {
    ns.push_back(EnvSize("DRLI_BENCH_N", 10000));
  } else {
    ns = {10000, 100000};
  }

  std::vector<Row> rows;
  for (std::size_t n : ns) {
    for (std::size_t d : {2, 3, 4, 5}) {
      Row row = Measure(n, d, num_queries, threads);
      std::printf(
          "n=%-7zu d=%zu build_serial=%.3fs build_parallel=%.3fs "
          "query=%.2fus dl_query=%.2fus budgeted=%.2fus overhead=%+.1f%% "
          "qps_1t=%.0f qps_%zut=%.0f speedup=%.2fx tuples=%.1f "
          "edges=%.1f\n",
          row.n, row.d, row.build_seconds_serial,
          row.build_seconds_parallel, row.single_query_seconds * 1e6,
          row.dl_single_query_seconds * 1e6,
          row.single_query_budgeted_seconds * 1e6,
          100.0 * (row.single_query_budgeted_seconds /
                       row.single_query_seconds -
                   1.0),
          row.batch_qps_1t, row.threads, row.batch_qps_nt,
          row.batch_qps_nt / row.batch_qps_1t, row.avg_tuples,
          row.avg_edges);
      std::fflush(stdout);
      rows.push_back(row);
    }
  }

  const std::string out_path =
      bench_util::OutputPath(argc, argv, "BENCH_throughput.json");
  const bench_util::Provenance& p = bench_util::RunProvenance();
  std::ofstream out(out_path);
  out << "[\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    char buffer[768];
    std::snprintf(
        buffer, sizeof(buffer),
        "  {\"n\": %zu, \"d\": %zu, \"batch\": %zu, \"threads\": %zu, "
        "\"hardware_threads\": %u, \"kernel\": \"%s\", "
        "\"commit\": \"%s\", "
        "\"build_seconds_serial\": %.6f, \"build_seconds_parallel\": %.6f, "
        "\"single_query_seconds\": %.9f, \"dl_single_query_seconds\": %.9f, "
        "\"single_query_budgeted_seconds\": %.9f, \"batch_qps_1t\": %.1f, "
        "\"batch_qps_nt\": %.1f, \"batch_wall_seconds_nt\": %.6f, "
        "\"batch_query_seconds_nt\": %.6f, \"avg_tuples\": %.2f, "
        "\"avg_edges\": %.2f}%s\n",
        r.n, r.d, r.batch, r.threads, p.hardware_threads, p.kernel.c_str(),
        p.commit.c_str(), r.build_seconds_serial,
        r.build_seconds_parallel, r.single_query_seconds,
        r.dl_single_query_seconds,
        r.single_query_budgeted_seconds, r.batch_qps_1t, r.batch_qps_nt,
        r.batch_wall_seconds_nt, r.batch_query_seconds_nt, r.avg_tuples,
        r.avg_edges, i + 1 < rows.size() ? "," : "");
    out << buffer;
  }
  out << "]\n";
  DRLI_CHECK(bool(out)) << "failed to write " << out_path;
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
