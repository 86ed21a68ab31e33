// Per-phase build wall-clock for DL+: the observability companion to
// the build-pipeline fast paths. Times two builds per n x d cell -- a
// serial one (build_threads = 1, so the five phase timers sum to ≈ the
// total) and one with a worker per hardware thread -- and emits
// machine-readable JSON (BENCH_build.json in the working
// directory, or the path given as argv[1] / DRLI_BENCH_OUT), including
// the hull, EDS and coarse-edge pruning counters, the active score
// kernel, the host's hardware thread count and the commit.
//
// build_seconds is the best of three timed Build calls
// (bench_util::BestSeconds, best_of = 3); the phase timers, the summed
// hull and EDS seconds and the counters are those of the fastest of
// the timed builds (the counters are the same for every build).
//
// Each serial row also records the index's footprint: its bytes per
// tuple by component (row-major points, the slot-ordered SoA copy and
// the slot-space graph, the only graph the index holds), the
// snapshot's size, and the snapshot's load time through the copying
// reader and the mmap-backed zero-copy path (bench_util::BestSeconds
// each).
//
// DRLI_BENCH_N replaces the cells with n = DRLI_BENCH_N at d = 2 and 4
// (the CI smoke uses 2000).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <unistd.h>

#include "bench/bench_util.h"
#include "common/check.h"
#include "core/dual_layer.h"
#include "core/serialization.h"
#include "data/generator.h"

namespace {

using namespace drli;

using bench_util::EnvSize;

struct Footprint {
  // Bytes per tuple.
  double points = 0.0;      // row-major, pseudo-tuples included
  double soa_points = 0.0;  // QueryLayout::points
  double slot_graph = 0.0;  // the QueryLayout's uint32 arrays
  std::uintmax_t snapshot_bytes = 0;
  double load_copy_seconds = 0.0;
  double load_mmap_seconds = 0.0;
  bool zero_copy = false;  // the mmap load borrows the points
};

struct Row {
  std::size_t n = 0;
  std::size_t d = 0;
  std::size_t build_threads = 0;
  DualLayerBuildStats stats;
  std::optional<Footprint> footprint;  // serial rows
};

template <typename... Vectors>
std::size_t Bytes(const Vectors&... vectors) {
  return (... + (vectors.size() * sizeof(vectors[0])));
}

Footprint MeasureFootprint(const DualLayerIndex& index) {
  Footprint f;
  const double n = static_cast<double>(index.points().size());
  const std::size_t nodes = index.num_nodes();
  f.points = static_cast<double>(nodes * index.points().dim() *
                                 sizeof(double)) / n;
  const QueryLayout& layout = index.query_layout();
  f.soa_points = static_cast<double>(layout.points.size() *
                                     layout.points.dim() * sizeof(double)) /
                 n;
  f.slot_graph =
      static_cast<double>(Bytes(
          layout.node_of, layout.slot_of, layout.coarse_offsets,
          layout.coarse_targets, layout.fine_offsets, layout.fine_targets,
          layout.pseudo_free_end, layout.parent_offsets, layout.parent_slots,
          layout.init_packed, layout.initial_slots)) /
      n;

  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("drli_build_phases_" + std::to_string(::getpid()) + ".v2"))
          .string();
  DRLI_CHECK(SaveDualLayerIndex(index, path).ok());
  f.snapshot_bytes = std::filesystem::file_size(path);
  for (const bool mmap : {false, true}) {
    SnapshotLoadOptions load;
    load.prefer_mmap = mmap;
    const double seconds = bench_util::BestSeconds([&](std::size_t) {
      auto loaded = LoadDualLayerIndex(path, load);
      DRLI_CHECK(loaded.ok()) << loaded.status().ToString();
      if (mmap) {
        f.zero_copy = !loaded.value().points().owns_data();
      }
    });
    (mmap ? f.load_mmap_seconds : f.load_copy_seconds) = seconds;
  }
  std::filesystem::remove(path);
  return f;
}

Row Measure(const PointSet& points, std::size_t build_threads) {
  Row row;
  row.n = points.size();
  row.d = points.dim();
  row.build_threads = build_threads;
  DualLayerOptions options;
  options.build_zero_layer = true;
  options.build_threads = build_threads;
  std::optional<DualLayerIndex> index;
  bool first = true;
  const double best = bench_util::BestSeconds(
      [&](std::size_t) {
        index.reset();  // never two indexes alive at once
        index.emplace(DualLayerIndex::Build(points, options));
        const DualLayerBuildStats& stats = index->build_stats();
        if (first || stats.build_seconds < row.stats.build_seconds) {
          row.stats = stats;
          first = false;
        }
      },
      /*best_of=*/3);
  row.stats.build_seconds = best;
  if (build_threads == 1) row.footprint = MeasureFootprint(*index);
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::pair<std::size_t, std::size_t>> cells;  // n, d
  if (std::getenv("DRLI_BENCH_N") != nullptr) {
    const std::size_t n = EnvSize("DRLI_BENCH_N", 10000);
    cells = {{n, 2}, {n, 4}};
  } else {
    cells = {{10000, 2}, {10000, 4}, {100000, 2}, {100000, 4}, {100000, 5}};
  }

  std::vector<Row> rows;
  for (const auto& [n, d] : cells) {
    const PointSet points = GenerateAnticorrelated(n, d, /*seed=*/20120401);
    const std::size_t threads =
        std::max<std::size_t>(1, std::thread::hardware_concurrency());
    for (const std::size_t build_threads : {std::size_t{1}, threads}) {
      Row row = Measure(points, build_threads);
      const DualLayerBuildStats& s = row.stats;
      std::printf(
          "n=%-7zu d=%zu threads=%zu build=%.3fs skyline=%.3fs "
          "fine_peel=%.3fs (hull=%.3fs eds=%.3fs) coarse_edge=%.3fs "
          "zero=%.3fs finalize=%.3fs\n",
          row.n, row.d, row.build_threads, s.build_seconds,
          s.skyline_seconds, s.fine_peel_seconds, s.hull_seconds,
          s.eds_seconds, s.coarse_edge_seconds, s.zero_layer_seconds,
          s.finalize_seconds);
      std::printf(
          "          hull_facets_created=%zu; eds: lp_calls=%zu "
          "bbox_rejects=%zu member_hits=%zu; coarse: pruned=%zu tested=%zu "
          "edges=%zu fine_edges=%zu\n",
          s.hull_facets_created, s.eds_lp_calls, s.eds_bbox_rejects,
          s.eds_member_hits, s.coarse_pairs_pruned, s.coarse_pairs_tested,
          s.num_coarse_edges, s.num_fine_edges);
      if (const auto& f = row.footprint) {
        std::printf(
            "          bytes/tuple: points=%.1f soa=%.1f slot_graph=%.1f; "
            "snapshot=%ju B load copy=%.2fms mmap=%.2fms zero_copy=%d\n",
            f->points, f->soa_points, f->slot_graph,
            f->snapshot_bytes, f->load_copy_seconds * 1e3,
            f->load_mmap_seconds * 1e3, f->zero_copy ? 1 : 0);
      }
      std::fflush(stdout);
      rows.push_back(row);
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
    std::string footprint;
    if (const auto& f = r.footprint) {
      char fields[512];
      std::snprintf(
          fields, sizeof(fields),
          ", \"points_bytes_per_tuple\": %.2f, "
          "\"soa_points_bytes_per_tuple\": %.2f, "
          "\"slot_graph_bytes_per_tuple\": %.2f, \"snapshot_bytes\": %ju, "
          "\"load_copy_seconds\": %.6f, \"load_mmap_seconds\": %.6f, "
          "\"zero_copy\": %s",
          f->points, f->soa_points, f->slot_graph,
          f->snapshot_bytes, f->load_copy_seconds, f->load_mmap_seconds,
          f->zero_copy ? "true" : "false");
      footprint = fields;
    }
    char buffer[2048];
    std::snprintf(
        buffer, sizeof(buffer),
        "  {\"n\": %zu, \"d\": %zu, \"build_threads\": %zu, "
        "\"hardware_threads\": %u, \"kernel\": \"%s\", \"commit\": \"%s\", "
        "\"build_seconds\": %.6f, "
        "\"skyline_seconds\": %.6f, \"fine_peel_seconds\": %.6f, "
        "\"coarse_edge_seconds\": %.6f, \"zero_layer_seconds\": %.6f, "
        "\"finalize_seconds\": %.6f, \"hull_seconds\": %.6f, "
        "\"eds_seconds\": %.6f, "
        "\"hull_facets_created\": %zu, "
        "\"eds_lp_calls\": %zu, \"eds_bbox_rejects\": %zu, "
        "\"eds_member_hits\": %zu, \"coarse_pairs_pruned\": %zu, "
        "\"coarse_pairs_tested\": %zu, \"num_coarse_edges\": %zu, "
        "\"num_fine_edges\": %zu%s}%s\n",
        r.n, r.d, r.build_threads, p.hardware_threads, p.kernel.c_str(),
        p.commit.c_str(),
        s.build_seconds,
        s.skyline_seconds, s.fine_peel_seconds, s.coarse_edge_seconds,
        s.zero_layer_seconds, s.finalize_seconds, s.hull_seconds,
        s.eds_seconds, s.hull_facets_created, s.eds_lp_calls,
        s.eds_bbox_rejects, s.eds_member_hits, s.coarse_pairs_pruned,
        s.coarse_pairs_tested, s.num_coarse_edges, s.num_fine_edges,
        footprint.c_str(),
        i + 1 < rows.size() ? "," : "");
    out << buffer;
  }
  out << "]\n";
  DRLI_CHECK(bool(out)) << "failed to write " << out_path;
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
