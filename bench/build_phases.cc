// Per-phase build wall-clock for DL+: the observability companion to
// the build-pipeline fast paths. Times two builds per n x d cell -- a
// serial one (build_threads = 1, so the five phase timers sum to ≈ the
// total) and one with a worker per hardware thread -- and emits
// machine-readable JSON (BENCH_build.json in the working
// directory, or the path given as argv[1] / DRLI_BENCH_OUT), including
// the hull, EDS and coarse-edge pruning counters, the active score
// kernel, the host's hardware thread count and the commit.
//
// DRLI_BENCH_N overrides the n sweep with a single cardinality (the CI
// smoke uses 5000).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/check.h"
#include "common/stopwatch.h"
#include "core/dual_layer.h"
#include "data/generator.h"

namespace {

using namespace drli;

using bench_util::EnvSize;

struct Row {
  std::size_t n = 0;
  std::size_t d = 0;
  std::size_t build_threads = 0;
  DualLayerBuildStats stats;
};

Row Measure(const PointSet& points, std::size_t build_threads) {
  Row row;
  row.n = points.size();
  row.d = points.dim();
  row.build_threads = build_threads;
  DualLayerOptions options;
  options.build_zero_layer = true;
  options.build_threads = build_threads;
  const DualLayerIndex index = DualLayerIndex::Build(points, options);
  row.stats = index.build_stats();
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::size_t> ns;
  if (std::getenv("DRLI_BENCH_N") != nullptr) {
    ns.push_back(EnvSize("DRLI_BENCH_N", 10000));
  } else {
    ns = {10000, 100000};
  }

  std::vector<Row> rows;
  for (std::size_t n : ns) {
    for (std::size_t d : {std::size_t{2}, std::size_t{4}}) {
      const PointSet points = GenerateAnticorrelated(n, d, /*seed=*/20120401);
      const std::size_t threads =
          std::max<std::size_t>(1, std::thread::hardware_concurrency());
      for (const std::size_t build_threads : {std::size_t{1}, threads}) {
        Row row = Measure(points, build_threads);
        const DualLayerBuildStats& s = row.stats;
        std::printf(
            "n=%-7zu d=%zu threads=%zu build=%.3fs skyline=%.3fs "
            "fine_peel=%.3fs (eds=%.3fs) coarse_edge=%.3fs zero=%.3fs "
            "finalize=%.3fs\n",
            row.n, row.d, row.build_threads, s.build_seconds,
            s.skyline_seconds, s.fine_peel_seconds, s.eds_seconds,
            s.coarse_edge_seconds, s.zero_layer_seconds, s.finalize_seconds);
        std::printf(
            "          hull_facets_created=%zu; eds: lp_calls=%zu "
            "bbox_rejects=%zu member_hits=%zu; coarse: pruned=%zu tested=%zu "
            "edges=%zu fine_edges=%zu\n",
            s.hull_facets_created, s.eds_lp_calls, s.eds_bbox_rejects,
            s.eds_member_hits, s.coarse_pairs_pruned, s.coarse_pairs_tested,
            s.num_coarse_edges, s.num_fine_edges);
        std::fflush(stdout);
        rows.push_back(row);
      }
    }
  }

  const std::string out_path =
      bench_util::OutputPath(argc, argv, "BENCH_build.json");
  const bench_util::Provenance& p = bench_util::RunProvenance();
  std::ofstream out(out_path);
  out << "[\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    const DualLayerBuildStats& s = r.stats;
    char buffer[1024];
    std::snprintf(
        buffer, sizeof(buffer),
        "  {\"n\": %zu, \"d\": %zu, \"build_threads\": %zu, "
        "\"hardware_threads\": %u, \"kernel\": \"%s\", \"commit\": \"%s\", "
        "\"build_seconds\": %.6f, "
        "\"skyline_seconds\": %.6f, \"fine_peel_seconds\": %.6f, "
        "\"coarse_edge_seconds\": %.6f, \"zero_layer_seconds\": %.6f, "
        "\"finalize_seconds\": %.6f, \"eds_seconds\": %.6f, "
        "\"hull_facets_created\": %zu, "
        "\"eds_lp_calls\": %zu, \"eds_bbox_rejects\": %zu, "
        "\"eds_member_hits\": %zu, \"coarse_pairs_pruned\": %zu, "
        "\"coarse_pairs_tested\": %zu, \"num_coarse_edges\": %zu, "
        "\"num_fine_edges\": %zu}%s\n",
        r.n, r.d, r.build_threads, p.hardware_threads, p.kernel.c_str(),
        p.commit.c_str(),
        s.build_seconds,
        s.skyline_seconds, s.fine_peel_seconds, s.coarse_edge_seconds,
        s.zero_layer_seconds, s.finalize_seconds, s.eds_seconds,
        s.hull_facets_created, s.eds_lp_calls, s.eds_bbox_rejects,
        s.eds_member_hits, s.coarse_pairs_pruned, s.coarse_pairs_tested,
        s.num_coarse_edges, s.num_fine_edges,
        i + 1 < rows.size() ? "," : "");
    out << buffer;
  }
  out << "]\n";
  DRLI_CHECK(bool(out)) << "failed to write " << out_path;
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
