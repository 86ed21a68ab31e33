// Ablation: disk I/O under the paper's layer-clustered storage
// discussion ("tuples in the same layer are stored in the same disk
// block"). For each index the query access trace is replayed against a
// page layout that packs its own layers into fixed-size pages, and
// against a scattered (shuffled heap file) layout.
//
// Counters: "pages" = distinct pages touched (cold reads), "lru" =
// fetches under a small LRU buffer pool, "scattered" = distinct pages
// under the shuffled layout. Expected shape: clustered layouts touch
// far fewer pages than scattered ones, and DL/DL+ touch the fewest,
// tracking their lower tuple-access cost.
//
// A second section measures snapshot load latency: the v2 owning
// (copying) reader and the v2 mmap-backed zero-copy path, each loading
// the same DL+ index from disk. Results go to stdout and to
// BENCH_io.json (or the path left in argv[1] after Google Benchmark's
// flags, or DRLI_BENCH_OUT).

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <numeric>
#include <string>

#include "benchmark/benchmark.h"

#include "bench/bench_util.h"
#include "baselines/hybrid_layer.h"
#include "baselines/onion.h"
#include "common/check.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "core/dual_layer.h"
#include "core/serialization.h"
#include "storage/page_layout.h"

namespace {

using drli::Distribution;
using drli::PageLayout;
using drli::PointSet;
using drli::TupleId;

constexpr std::size_t kTuplesPerPage = 128;
constexpr std::size_t kBufferFrames = 8;

PageLayout ScatteredLayout(std::size_t n) {
  std::vector<TupleId> shuffled(n);
  std::iota(shuffled.begin(), shuffled.end(), 0);
  drli::Rng rng(5);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.Index(i)]);
  }
  return PageLayout({shuffled}, kTuplesPerPage);
}

struct Subject {
  const drli::TopKIndex* index;
  std::unique_ptr<PageLayout> clustered;
};

Subject MakeSubject(const std::string& kind, Distribution dist,
                    std::size_t n, std::size_t d) {
  Subject subject;
  subject.index = &drli::bench_util::GetIndex(kind, dist, n, d);
  // DG and DG+ are dual-layer indexes without fine sublayers, so their
  // groups are their skyline layers.
  if (const auto* dl =
          dynamic_cast<const drli::DualLayerIndex*>(subject.index)) {
    subject.clustered =
        std::make_unique<PageLayout>(dl->LayerGroups(), kTuplesPerPage);
  } else if (kind == "onion") {
    const auto* onion = dynamic_cast<const drli::OnionIndex*>(subject.index);
    subject.clustered =
        std::make_unique<PageLayout>(onion->layers(), kTuplesPerPage);
  } else {
    const auto* hl =
        dynamic_cast<const drli::HybridLayerIndex*>(subject.index);
    subject.clustered =
        std::make_unique<PageLayout>(hl->layers(), kTuplesPerPage);
  }
  return subject;
}

void Register(const std::string& kind, Distribution dist, std::size_t n,
              std::size_t d) {
  const std::string name = std::string("ablation_io/") +
                           drli::DistributionName(dist) + "/" + kind;
  benchmark::RegisterBenchmark(
      name.c_str(),
      [kind, dist, n, d](benchmark::State& state) {
        const Subject subject = MakeSubject(kind, dist, n, d);
        const PageLayout scattered = ScatteredLayout(n);
        double pages = 0, lru = 0, scattered_pages = 0, tuples = 0;
        drli::Rng rng(17);
        const std::size_t q = drli::bench_util::NumQueries();
        for (auto _ : state) {
          pages = lru = scattered_pages = tuples = 0;
          for (std::size_t i = 0; i < q; ++i) {
            drli::TopKQuery query;
            query.weights = rng.SimplexWeight(d);
            query.k = 10;
            const drli::TopKResult result = subject.index->Query(query);
            tuples += static_cast<double>(result.stats.tuples_evaluated);
            pages += static_cast<double>(
                subject.clustered->DistinctPages(result.accessed));
            lru += static_cast<double>(
                subject.clustered->LruFetches(result.accessed,
                                              kBufferFrames));
            scattered_pages += static_cast<double>(
                scattered.DistinctPages(result.accessed));
          }
        }
        const double dq = static_cast<double>(q);
        state.counters["tuples"] = tuples / dq;
        state.counters["pages"] = pages / dq;
        state.counters["lru"] = lru / dq;
        state.counters["scattered"] = scattered_pages / dq;
      })
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);
}

struct LoadRow {
  const char* label;
  bool prefer_mmap;
  double seconds = 0;
  std::uint64_t file_bytes = 0;
  bool zero_copy = false;
};

// Times LoadDualLayerIndex over `reps` repetitions and reports the
// best (the stable floor once the file is in page cache; relative
// ordering matches the cold case because the copy and parse work
// being measured is identical either way).
void MeasureSnapshotLoads(std::size_t n, std::size_t d,
                          const std::string& out_path) {
  const auto* index = dynamic_cast<const drli::DualLayerIndex*>(
      &drli::bench_util::GetIndex("dl+", Distribution::kAnticorrelated, n,
                                  d));
  DRLI_CHECK(index != nullptr);

  LoadRow rows[] = {
      {"v2_copy", false},
      {"v2_mmap", true},
  };
  const std::string path =
      std::filesystem::temp_directory_path().string() + "/drli_bench_io.bin";
  DRLI_CHECK(drli::SaveDualLayerIndex(*index, path).ok());
  constexpr int kReps = 7;
  for (LoadRow& row : rows) {
    row.file_bytes = std::filesystem::file_size(path);
    drli::SnapshotLoadOptions load;
    load.prefer_mmap = row.prefer_mmap;
    double best = 1e30;
    for (int rep = 0; rep < kReps; ++rep) {
      drli::Stopwatch timer;
      auto loaded = drli::LoadDualLayerIndex(path, load);
      const double elapsed = timer.ElapsedSeconds();
      DRLI_CHECK(loaded.ok()) << loaded.status().ToString();
      best = std::min(best, elapsed);
      row.zero_copy = !loaded.value().points().owns_data() &&
                      !loaded.value().coarse_out().owns_data();
    }
    row.seconds = best;
    std::printf("io_load/%-9s n=%zu d=%zu bytes=%llu load=%.3fms "
                "zero_copy=%d\n",
                row.label, n, d,
                static_cast<unsigned long long>(row.file_bytes),
                row.seconds * 1e3, row.zero_copy ? 1 : 0);
  }
  std::remove(path.c_str());

  std::ofstream out(out_path);
  out << "[\n";
  constexpr std::size_t kRows = std::size(rows);
  for (std::size_t i = 0; i < kRows; ++i) {
    const LoadRow& r = rows[i];
    char buffer[256];
    std::snprintf(buffer, sizeof(buffer),
                  "  {\"bench\": \"io_load\", \"variant\": \"%s\", "
                  "\"n\": %zu, \"d\": %zu, \"file_bytes\": %llu, "
                  "\"load_seconds\": %.9f, \"zero_copy\": %s}%s\n",
                  r.label, n, d,
                  static_cast<unsigned long long>(r.file_bytes), r.seconds,
                  r.zero_copy ? "true" : "false", i + 1 < kRows ? "," : "");
    out << buffer;
  }
  out << "]\n";
  DRLI_CHECK(bool(out)) << "failed to write " << out_path;
  std::printf("wrote %s\n", out_path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t n = drli::bench_util::DefaultN();
  for (Distribution dist :
       {Distribution::kIndependent, Distribution::kAnticorrelated}) {
    for (const char* kind : {"onion", "hl+", "dg", "dg+", "dl", "dl+"}) {
      Register(kind, dist, n, /*d=*/4);
    }
  }
  benchmark::Initialize(&argc, argv);
  const std::string out_path =
      drli::bench_util::OutputPath(argc, argv, "BENCH_io.json");
  if (argc > 2) {  // anything after the output path is an unknown flag
    argv[1] = argv[0];
    benchmark::ReportUnrecognizedArguments(argc - 1, argv + 1);
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  MeasureSnapshotLoads(n, /*d=*/4, out_path);
  return 0;
}
