// Sustained mixed read/write serving against the dynamic index:
// ~95% top-k queries / ~5% writes (inserts and deletes) over a stream
// of operations, comparing the tiered engine (plain DL runs, a
// 1024-row memtable, fanout 4)
//   * with incremental auto-compaction (default),
//   * with compaction disabled (runs accumulate).
//
// Reports query QPS, latency percentiles and tuples evaluated per read
// for each configuration and writes machine-readable JSON
// (BENCH_dynamic.json, or argv[1] / DRLI_BENCH_OUT) stamped with the
// run's provenance (kernel, hardware threads, commit). The p99 ratio
// between compaction-on and compaction-off is the headline number:
// incremental compaction must not stall the read stream (target <= 2x).
//
// Every 64th read is checked, outside the timed region, against a scan
// of the live rows: ids and scores bit for bit, or the bench aborts.
//
// DRLI_BENCH_N scales the preloaded relation (default 10000);
// DRLI_BENCH_OPS the operation stream (default 30000).

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/check.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "core/tiered_index.h"
#include "data/generator.h"
#include "topk/query.h"

namespace {

using namespace drli;

using bench_util::EnvSize;

struct Row {
  const char* label = "";
  std::size_t n = 0;
  std::size_t ops = 0;
  std::size_t queries = 0;
  std::size_t writes = 0;
  double query_qps = 0;
  double p50_us = 0;
  double p99_us = 0;
  double max_us = 0;
  double write_p99_us = 0;
  double evals_per_query = 0;  // tuples evaluated per read
  std::size_t checked = 0;     // reads checked against the scan
  std::size_t seals = 0;
  std::size_t compactions = 0;
  std::size_t final_runs = 0;
};

// Reads checked against the scan: one in kCheckEvery.
constexpr std::size_t kCheckEvery = 64;

// The canonical top-k over the live rows (rows[id] for alive[id]).
std::vector<ScoredTuple> ScanLive(const std::vector<Point>& rows,
                                  const std::vector<char>& alive,
                                  const TopKQuery& query) {
  std::vector<ScoredTuple> all;
  for (std::size_t id = 0; id < rows.size(); ++id) {
    if (alive[id] == 0) continue;
    all.push_back(ScoredTuple{static_cast<TupleId>(id),
                              Score(query.weights, rows[id])});
  }
  std::sort(all.begin(), all.end(), ResultOrderLess);
  if (all.size() > query.k) all.resize(query.k);
  return all;
}

double Percentile(std::vector<double>& sorted_us, double p) {
  if (sorted_us.empty()) return 0.0;
  const std::size_t i = static_cast<std::size_t>(
      p * static_cast<double>(sorted_us.size() - 1));
  return sorted_us[i];
}

Row RunStream(const char* label, const TieredIndexOptions& options,
              const PointSet& preload, std::size_t ops) {
  Row row;
  row.label = label;
  row.n = preload.size();
  row.ops = ops;

  TieredDualLayerIndex index(preload.dim(), options);
  std::vector<TupleId> live;
  live.reserve(preload.size() + ops / 10);
  // The scan's mirror of the relation: every row by id, and whether it
  // is still live.
  std::vector<Point> rows;
  std::vector<char> alive;
  const auto insert = [&](PointView tuple) {
    const TupleId id = index.Insert(tuple);
    DRLI_CHECK_EQ(id, rows.size()) << label << ": ids are not dense";
    rows.emplace_back(tuple.begin(), tuple.end());
    alive.push_back(1);
    live.push_back(id);
  };
  for (std::size_t i = 0; i < preload.size(); ++i) insert(preload[i]);

  // One rng drives the identical op schedule for every configuration.
  Rng rng(7);
  std::vector<double> query_us;
  std::vector<double> write_us;
  query_us.reserve(ops);
  Stopwatch op_timer;
  double query_seconds = 0.0;
  std::size_t evals = 0;
  for (std::size_t op = 0; op < ops; ++op) {
    const bool write = rng.Index(100) < 5;
    if (write) {
      op_timer.Restart();
      if (rng.Index(5) == 0 && !live.empty()) {
        const std::size_t victim = rng.Index(live.size());
        index.Erase(live[victim]);
        alive[live[victim]] = 0;
        live[victim] = live.back();
        live.pop_back();
      } else {
        Point tuple(preload.dim());
        for (double& x : tuple) x = rng.Uniform();
        insert(PointView(tuple.data(), tuple.size()));
      }
      write_us.push_back(op_timer.ElapsedSeconds() * 1e6);
      ++row.writes;
    } else {
      TopKQuery query;
      query.weights = rng.SimplexWeight(preload.dim());
      query.k = 10;
      op_timer.Restart();
      const TopKResult result = index.Query(query);
      const double seconds = op_timer.ElapsedSeconds();
      DRLI_CHECK(result.complete()) << label << ": " << result.error;
      query_us.push_back(seconds * 1e6);
      query_seconds += seconds;
      evals += result.stats.tuples_evaluated;
      if (row.queries % kCheckEvery == 0) {
        const std::vector<ScoredTuple> want = ScanLive(rows, alive, query);
        DRLI_CHECK_EQ(result.items.size(), want.size())
            << label << " read " << row.queries;
        for (std::size_t r = 0; r < want.size(); ++r) {
          DRLI_CHECK(result.items[r].id == want[r].id &&
                     result.items[r].score == want[r].score)
              << label << " read " << row.queries << " rank " << r
              << ": got id " << result.items[r].id << ", scan has id "
              << want[r].id;
        }
        ++row.checked;
      }
      ++row.queries;
    }
  }

  std::sort(query_us.begin(), query_us.end());
  std::sort(write_us.begin(), write_us.end());
  row.query_qps = static_cast<double>(row.queries) / query_seconds;
  row.p50_us = Percentile(query_us, 0.50);
  row.p99_us = Percentile(query_us, 0.99);
  row.max_us = query_us.empty() ? 0.0 : query_us.back();
  row.write_p99_us = Percentile(write_us, 0.99);
  row.evals_per_query =
      row.queries == 0 ? 0.0
                       : static_cast<double>(evals) /
                             static_cast<double>(row.queries);
  row.seals = index.seal_count();
  row.compactions = index.compaction_count();
  row.final_runs = index.num_runs();
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t n = EnvSize("DRLI_BENCH_N", 10000);
  const std::size_t ops = EnvSize("DRLI_BENCH_OPS", 30000);
  const PointSet preload =
      Generate(Distribution::kAnticorrelated, n, 4, /*seed=*/20120401);

  TieredIndexOptions tiered_on;
  tiered_on.run.build_zero_layer = false;
  tiered_on.memtable_capacity = 1024;
  tiered_on.fanout = 4;
  tiered_on.auto_compact = true;

  TieredIndexOptions tiered_off = tiered_on;
  tiered_off.auto_compact = false;

  std::vector<Row> rows;
  rows.push_back(RunStream("tiered_compact_on", tiered_on, preload, ops));
  rows.push_back(RunStream("tiered_compact_off", tiered_off, preload, ops));

  for (const Row& row : rows) {
    std::printf(
        "%-18s n=%-7zu ops=%zu (%zuq/%zuw) qps=%.0f p50=%.1fus "
        "p99=%.1fus max=%.1fus write_p99=%.1fus evals/q=%.1f "
        "checked=%zu seals=%zu compactions=%zu runs=%zu\n",
        row.label, row.n, row.ops, row.queries, row.writes, row.query_qps,
        row.p50_us, row.p99_us, row.max_us, row.write_p99_us,
        row.evals_per_query, row.checked, row.seals, row.compactions,
        row.final_runs);
  }
  const double p99_ratio = rows[1].p99_us > 0.0
                               ? rows[0].p99_us / rows[1].p99_us
                               : 0.0;
  std::printf("p99 compaction-on / compaction-off = %.2fx (target <= 2x)\n",
              p99_ratio);
  if (p99_ratio > 2.0) {
    std::printf("WARNING: incremental compaction is stalling the read "
                "stream beyond the 2x budget\n");
  }

  const std::string out_path =
      bench_util::OutputPath(argc, argv, "BENCH_dynamic.json");
  const bench_util::Provenance& p = bench_util::RunProvenance();
  std::ofstream out(out_path);
  out << "[\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    char buffer[768];
    std::snprintf(
        buffer, sizeof(buffer),
        "  {\"config\": \"%s\", \"n\": %zu, \"ops\": %zu, "
        "\"hardware_threads\": %u, \"kernel\": \"%s\", \"commit\": \"%s\", "
        "\"queries\": %zu, \"writes\": %zu, \"query_qps\": %.1f, "
        "\"p50_us\": %.2f, \"p99_us\": %.2f, \"max_us\": %.2f, "
        "\"write_p99_us\": %.2f, \"evals_per_query\": %.1f, "
        "\"checked\": %zu, \"seals\": %zu, \"compactions\": %zu, "
        "\"final_runs\": %zu}%s\n",
        r.label, r.n, r.ops, p.hardware_threads, p.kernel.c_str(),
        p.commit.c_str(), r.queries, r.writes, r.query_qps, r.p50_us,
        r.p99_us, r.max_us, r.write_p99_us, r.evals_per_query, r.checked,
        r.seals, r.compactions, r.final_runs, i + 1 < rows.size() ? "," : "");
    out << buffer;
  }
  out << "]\n";
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
