// Query-scenario bench: constrained, diversified, and reverse top-k
// over the DL+ engines versus their brute-force references, with the
// pruning counters that justify the pushdown (DESIGN.md "Query
// scenarios"). Times explicit loops and emits machine-readable JSON
// (BENCH_scenarios.json in the working directory, or the path given as
// argv[1] / DRLI_BENCH_OUT), each row stamped with the kernel, hardware
// threads and commit. Exits non-zero when a constrained query costs
// more than the in-box scan or a DL+ diversified pick differs from the
// whole-relation greedy's.
//
// DRLI_BENCH_N scales the relation (default 20000); DRLI_BENCH_QUERIES
// scales each probe loop (default 200).

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/check.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "core/dual_layer.h"
#include "core/tiered_index.h"
#include "data/generator.h"
#include "scenarios/constrained.h"
#include "scenarios/diversified.h"
#include "scenarios/reverse_topk.h"
#include "shard/sharded_index.h"

namespace {

using namespace drli;

using bench_util::EnvSize;

struct Row {
  std::string family;   // constrained | diversified | reverse
  std::string engine;   // DL+ | SDL+ | TDL+ | scan
  std::string detail;   // lambda / k knob, empty when not applicable
  std::size_t queries = 0;
  double avg_ms = 0;
  double avg_tuples = 0;
  double boxes_pruned = 0;   // constrained: avg pruned units per query
  double avg_pool = 0;       // diversified: avg certified pool size
  std::vector<std::size_t> evals;  // constrained: per query, not emitted
};

// Boxes spanned by two random data rows: roughly quartile selectivity,
// enough misses for box-tree / shard / run pruning to show.
std::vector<ConstrainedQuery> MakeConstrainedQueries(const PointSet& points,
                                                     std::size_t count) {
  Rng rng(7);
  const std::size_t d = points.dim();
  std::vector<ConstrainedQuery> queries(count);
  for (ConstrainedQuery& query : queries) {
    query.weights = rng.SimplexWeight(d);
    query.k = 10;
    const std::size_t a = rng.Index(points.size());
    const std::size_t b = rng.Index(points.size());
    query.box.lo.resize(d);
    query.box.hi.resize(d);
    for (std::size_t attr = 0; attr < d; ++attr) {
      query.box.lo[attr] = std::min(points.At(a, attr), points.At(b, attr));
      query.box.hi[attr] = std::max(points.At(a, attr), points.At(b, attr));
    }
  }
  return queries;
}

template <typename Run>
Row MeasureConstrained(const char* engine,
                       const std::vector<ConstrainedQuery>& queries,
                       Run&& run) {
  Row row;
  row.family = "constrained";
  row.engine = engine;
  row.queries = queries.size();
  std::size_t tuples = 0, pruned = 0;
  Stopwatch timer;
  for (const ConstrainedQuery& query : queries) {
    const TopKResult result = run(query);
    DRLI_CHECK(result.complete()) << engine << " returned a partial";
    row.evals.push_back(result.stats.tuples_evaluated);
    tuples += result.stats.tuples_evaluated;
    pruned += result.stats.boxes_pruned;
  }
  const double count = static_cast<double>(queries.size());
  row.avg_ms = timer.ElapsedSeconds() * 1000.0 / count;
  row.avg_tuples = static_cast<double>(tuples) / count;
  row.boxes_pruned = static_cast<double>(pruned) / count;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t n = EnvSize("DRLI_BENCH_N", 20000);
  const std::size_t num_queries = EnvSize("DRLI_BENCH_QUERIES", 200);
  const std::size_t d = 3;

  const PointSet points = GenerateAnticorrelated(n, d, /*seed=*/20120401);
  DualLayerOptions dl_options;
  dl_options.build_zero_layer = true;
  const DualLayerIndex dl = DualLayerIndex::Build(points, dl_options);
  ShardedBuildOptions sh_options;
  sh_options.num_shards = 8;
  sh_options.shard_options = dl_options;
  const ShardedDualLayerIndex sdl =
      ShardedDualLayerIndex::Build(points, sh_options);
  TieredIndexOptions t_options;
  t_options.memtable_capacity = 1024;
  TieredDualLayerIndex tdl(d, t_options);
  for (std::size_t i = 0; i < points.size(); ++i) tdl.Insert(points[i]);

  std::vector<Row> rows;

  // --- constrained: engines vs. the in-box scan ---
  const std::vector<ConstrainedQuery> constrained =
      MakeConstrainedQueries(points, num_queries);
  rows.push_back(MeasureConstrained("DL+", constrained, [&](const auto& q) {
    return ConstrainedTopK(dl, q);
  }));
  rows.push_back(MeasureConstrained("SDL+", constrained, [&](const auto& q) {
    return ConstrainedTopK(sdl, q);
  }));
  rows.push_back(MeasureConstrained("TDL+", constrained, [&](const auto& q) {
    return ConstrainedTopK(tdl, q);
  }));
  rows.push_back(MeasureConstrained("scan", constrained, [&](const auto& q) {
    return ConstrainedTopKScan(points, q);
  }));
  DRLI_CHECK(rows[0].boxes_pruned > 0.0)
      << "DL+ constrained traversal pruned nothing";
  // Each engine scores only in-box tuples, each at most once, so no
  // query may cost more than the in-box scan.
  for (std::size_t e = 0; e < 3; ++e) {
    for (std::size_t q = 0; q < constrained.size(); ++q) {
      DRLI_CHECK(rows[e].evals[q] <= rows[3].evals[q])
          << rows[e].engine << " evaluates " << rows[e].evals[q]
          << " tuples on constrained query " << q << ", the scan "
          << rows[3].evals[q];
    }
  }

  // --- diversified: pool-certified greedy vs. whole-relation greedy ---
  Rng rng(11);
  for (const double lambda : {0.0, 0.5, 2.0}) {
    std::vector<DiversifiedQuery> queries(num_queries);
    Rng weights_rng(13);
    for (DiversifiedQuery& query : queries) {
      query.weights = weights_rng.SimplexWeight(d);
      query.k = 10;
      query.lambda = lambda;
    }
    Row engine_row;
    engine_row.family = "diversified";
    engine_row.engine = "DL+";
    engine_row.detail = "lambda=" + std::to_string(lambda);
    engine_row.queries = num_queries;
    std::size_t tuples = 0, pool = 0;
    std::vector<std::vector<DiversifiedPick>> answers;
    answers.reserve(num_queries);
    Stopwatch timer;
    for (const DiversifiedQuery& query : queries) {
      DiversifiedResult result = DiversifiedTopK(dl, dl.points(), query);
      DRLI_CHECK(result.complete()) << "diversified returned a partial";
      tuples += result.stats.tuples_evaluated;
      pool += result.pool_size;
      answers.push_back(std::move(result.picks));
    }
    engine_row.avg_ms =
        timer.ElapsedSeconds() * 1000.0 / static_cast<double>(num_queries);
    engine_row.avg_tuples =
        static_cast<double>(tuples) / static_cast<double>(num_queries);
    engine_row.avg_pool =
        static_cast<double>(pool) / static_cast<double>(num_queries);
    rows.push_back(engine_row);

    Row scan_row = engine_row;
    scan_row.engine = "scan";
    scan_row.avg_pool = static_cast<double>(n);
    tuples = 0;
    std::vector<std::vector<DiversifiedPick>> wanted;
    wanted.reserve(num_queries);
    timer.Restart();
    for (const DiversifiedQuery& query : queries) {
      DiversifiedResult result = DiversifiedTopKScan(points, query);
      tuples += result.stats.tuples_evaluated;
      wanted.push_back(std::move(result.picks));
    }
    scan_row.avg_ms =
        timer.ElapsedSeconds() * 1000.0 / static_cast<double>(num_queries);
    scan_row.avg_tuples =
        static_cast<double>(tuples) / static_cast<double>(num_queries);
    rows.push_back(scan_row);
    // The engine's picks are the whole-relation greedy's, bit for bit.
    for (std::size_t q = 0; q < num_queries; ++q) {
      DRLI_CHECK(answers[q].size() == wanted[q].size())
          << engine_row.detail << " query " << q << ": "
          << answers[q].size() << " picks, the scan "
          << wanted[q].size();
      for (std::size_t i = 0; i < wanted[q].size(); ++i) {
        DRLI_CHECK(answers[q][i].id == wanted[q][i].id &&
                   answers[q][i].score == wanted[q][i].score &&
                   answers[q][i].utility == wanted[q][i].utility)
            << engine_row.detail << " query " << q << " pick " << i
            << ": id " << answers[q][i].id << ", the scan "
            << wanted[q][i].id;
      }
    }
  }

  // --- reverse (d = 2): layer-restricted sweep vs. full sweep ---
  const PointSet points2 = GenerateAnticorrelated(n, 2, /*seed=*/20120402);
  const DualLayerIndex dl2 = DualLayerIndex::Build(points2, dl_options);
  for (const std::size_t k : {std::size_t{1}, std::size_t{5}}) {
    std::vector<ReverseTopKQuery> queries(num_queries);
    for (ReverseTopKQuery& query : queries) {
      query.target = static_cast<TupleId>(rng.Index(points2.size()));
      query.k = k;
    }
    Row engine_row;
    engine_row.family = "reverse";
    engine_row.engine = "DL+";
    engine_row.detail = "k=" + std::to_string(k);
    engine_row.queries = num_queries;
    std::size_t tuples = 0;
    Stopwatch timer;
    for (const ReverseTopKQuery& query : queries) {
      const ReverseTopKResult result = ReverseTopK2D(dl2, query);
      DRLI_CHECK(result.complete()) << "reverse returned a partial";
      tuples += result.stats.tuples_evaluated;
    }
    engine_row.avg_ms =
        timer.ElapsedSeconds() * 1000.0 / static_cast<double>(num_queries);
    engine_row.avg_tuples =
        static_cast<double>(tuples) / static_cast<double>(num_queries);
    rows.push_back(engine_row);

    // The full sweep's cost is target-independent (it builds the whole
    // weight-space partition, ~quadratically many crossings in n), so
    // two timed queries characterize it; more would only slow the
    // bench at paper-scale n.
    Row scan_row = engine_row;
    scan_row.engine = "scan";
    const std::size_t slice = std::min<std::size_t>(num_queries, 2);
    scan_row.queries = slice;
    timer.Restart();
    for (std::size_t i = 0; i < slice; ++i) {
      (void)ReverseTopK2DScan(points2, queries[i]);
    }
    scan_row.avg_ms =
        timer.ElapsedSeconds() * 1000.0 / static_cast<double>(slice);
    scan_row.avg_tuples = static_cast<double>(n);
    rows.push_back(scan_row);
  }

  const std::string out_path =
      bench_util::OutputPath(argc, argv, "BENCH_scenarios.json");
  const bench_util::Provenance& p = bench_util::RunProvenance();
  std::ofstream out(out_path);
  out << "[\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    char buffer[640];
    std::snprintf(
        buffer, sizeof(buffer),
        "  {\"family\": \"%s\", \"engine\": \"%s\", \"detail\": \"%s\", "
        "\"n\": %zu, \"queries\": %zu, \"hardware_threads\": %u, "
        "\"kernel\": \"%s\", \"commit\": \"%s\", \"avg_ms\": %.4f, "
        "\"avg_tuples\": %.1f, \"boxes_pruned\": %.2f, \"avg_pool\": %.1f}%s\n",
        r.family.c_str(), r.engine.c_str(), r.detail.c_str(), n, r.queries,
        p.hardware_threads, p.kernel.c_str(), p.commit.c_str(), r.avg_ms,
        r.avg_tuples, r.boxes_pruned, r.avg_pool,
        i + 1 < rows.size() ? "," : "");
    out << buffer;
    std::printf("%-12s %-5s %-12s avg_ms=%.4f tuples=%.1f pruned=%.2f "
                "pool=%.1f\n",
                r.family.c_str(), r.engine.c_str(), r.detail.c_str(),
                r.avg_ms, r.avg_tuples, r.boxes_pruned, r.avg_pool);
  }
  out << "]\n";
  DRLI_CHECK(bool(out)) << "failed to write " << out_path;
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
