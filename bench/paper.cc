// The paper's Section VI in one run: Table IV and Figs. 8-16, plus the
// list- and view-based baselines of Section VII and the extension
// ablations, at n = DRLI_BENCH_N (default 10000; the paper's n is
// 200000) with DRLI_BENCH_QUERIES random weight vectors per cell
// (default 30).
//
// The figures are one table, kFigures. It expands into distinct
// indexes, keyed (distribution, n, d, kind), and distinct cost cells,
// an index and a k; a cell that several figures plot is scored once
// and lists all of them. A kind is a registry kind or one of the
// ablations' variants (kVariants). Each index is built once from
// bench_util::GetDataset, and that build's wall time is its Table IV
// number; a cell's cost is the paper's Definition 9 averaged over
// queries drawn with seed k * 7919 + d. Indexes run grouped by
// (distribution, n, d), each freed once its cells are scored.
//
// Every DualLayerIndex (DG, DG+, DL, DL+ and the variants) also
// replays each cell's access traces against pages: its LayerGroups()
// packed 128 tuples to a page, read cold ("pages") and through an
// 8-frame LRU pool ("lru_fetches"), and a shuffled heap file
// ("scattered_pages") -- the paper's remark that the layers port to
// disk by storing each layer in the same blocks.
//
// Output: BENCH_paper.json (or argv[1] / DRLI_BENCH_OUT), one "build"
// row per index and one "cost" row per cell, each with the run's
// provenance and build thread count (DRLI_THREADS). Then the paper's
// orderings are checked on every matching pair of cells (kOrderings),
// and the program prints each violation and exits 1.

#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/check.h"
#include "common/parallel_for.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "core/dual_layer.h"
#include "storage/page_layout.h"

namespace {

using namespace drli;

// kBuild times the kinds' builds and scores nothing (Table IV); kHalfN
// sweeps n = value * N / 2. The axes not swept sit at Section VI-A's
// defaults: n = N, d = 4, k = 10.
enum class Axis { kBuild, kK, kD, kHalfN };

struct Figure {
  const char* name;
  std::vector<const char*> kinds;
  Axis axis;
  std::vector<std::size_t> values;
};

const std::vector<std::size_t> kKs = {10, 20, 30, 40, 50};
const std::vector<std::size_t> kDs = {2, 3, 4, 5};

// The ablations (not in the paper). A variant is a DualLayerOptions
// whose name is its kind. One whose options equal a registry kind's,
// apart from the name, is that kind: the no-∃-edge row is "dg", the
// single-EDS-facet row "dl" and the default cluster count with the
// fine split "dl+".
const std::vector<DualLayerOptions> kVariants = {
    // Section III-B: edges from every qualifying EDS facet, not one.
    {.eds_policy = EdsPolicy::kAllFacets, .name = "dl/all-facets"},
    // Section V-B leaves the zero layer's cluster count open.
    {.build_zero_layer = true, .zero_layer_clusters = 4,
     .name = "dl+/clusters:4"},
    {.build_zero_layer = true, .zero_layer_clusters = 16,
     .name = "dl+/clusters:16"},
    {.build_zero_layer = true, .zero_layer_clusters = 64,
     .name = "dl+/clusters:64"},
    {.build_zero_layer = true, .zero_layer_clusters = 256,
     .name = "dl+/clusters:256"},
    // A flat L0, as DG+ has, under DL's fine layers.
    {.build_zero_layer = true, .zero_layer_fine_split = false,
     .name = "dl+/flat"},
};

const std::vector<Figure> kFigures = {
    {"table4", {"hl", "hl+", "dg", "dg+", "dl", "dl+"}, Axis::kBuild, {}},
    {"fig08", {"dl", "dl+"}, Axis::kK, kKs},
    {"fig09", {"dl", "dl+"}, Axis::kD, kDs},
    {"fig10", {"dg", "dl"}, Axis::kK, kKs},
    {"fig11", {"dg+", "dl+"}, Axis::kK, kKs},
    {"fig12", {"hl+", "dl+"}, Axis::kK, kKs},
    {"fig13", {"dg", "dl"}, Axis::kD, kDs},
    {"fig14", {"dg+", "dl+"}, Axis::kD, kDs},
    {"fig15", {"hl+", "dl+"}, Axis::kD, kDs},
    {"fig16", {"dg+", "dl+"}, Axis::kHalfN, {1, 2, 3, 4, 5}},
    {"list_baselines",
     {"fa", "ta", "nra", "prefer", "lpta", "pli", "hl+", "dl+"},
     Axis::kK,
     {10, 50}},
    {"ablation_eds", {"dg", "dl", "dl/all-facets"}, Axis::kK, {10, 50}},
    {"ablation_zero_layer",
     {"dl+/clusters:4", "dl+/clusters:16", "dl+/clusters:64",
      "dl+/clusters:256", "dl+", "dl+/flat"},
     Axis::kK,
     {10}},
};

// The orderings the paper shows, in avg_tuples on every matching pair
// of cells: DL+ <= DL at d >= 3 (Figs. 8-9), DL+ <= DG+ and HL+
// (Figs. 11-12, 14-15), and DL <= DG (Theorem 5; Figs. 10, 13).
struct Ordering {
  const char* winner;
  const char* rival;
  std::size_t min_d;
};

const std::vector<Ordering> kOrderings = {
    {"dl+", "dl", 3}, {"dl+", "dg+", 0}, {"dl+", "hl+", 0}, {"dl", "dg", 0}};

// Disk pages of a DualLayerIndex: its layer groups packed, and a
// shuffled heap file of the same relation.
constexpr std::size_t kTuplesPerPage = 128;
constexpr std::size_t kBufferFrames = 8;

struct Pages {
  PageLayout clustered;
  PageLayout scattered;
};

Pages MakePages(const DualLayerIndex& index) {
  std::vector<TupleId> shuffled(index.points().size());
  std::iota(shuffled.begin(), shuffled.end(), 0);
  Rng rng(5);
  for (std::size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.Index(i)]);
  }
  return {PageLayout(index.LayerGroups(), kTuplesPerPage),
          PageLayout({shuffled}, kTuplesPerPage)};
}

// Per-query averages over a cell's queries; the page columns only for
// a DualLayerIndex.
struct Cost {
  double avg_tuples = 0.0;   // Definition 9
  double avg_virtual = 0.0;  // zero-layer pseudo-tuple evaluations
  double pages = 0.0;
  double lru_fetches = 0.0;
  double scattered_pages = 0.0;
};

Cost ScoreCell(const TopKIndex& index, const Pages* pages, std::size_t d,
               std::size_t k) {
  Rng rng(k * 7919 + d);
  Cost cost;
  const std::size_t queries = bench_util::NumQueries();
  for (std::size_t i = 0; i < queries; ++i) {
    TopKQuery query;
    query.weights = rng.SimplexWeight(d);
    query.k = k;
    const TopKResult result = index.Query(query);
    cost.avg_tuples += static_cast<double>(result.stats.tuples_evaluated);
    cost.avg_virtual +=
        static_cast<double>(result.stats.virtual_evaluated);
    if (pages == nullptr) continue;
    cost.pages += static_cast<double>(
        pages->clustered.DistinctPages(result.accessed));
    cost.lru_fetches += static_cast<double>(
        pages->clustered.LruFetches(result.accessed, kBufferFrames));
    cost.scattered_pages += static_cast<double>(
        pages->scattered.DistinctPages(result.accessed));
  }
  for (double* sum : {&cost.avg_tuples, &cost.avg_virtual, &cost.pages,
                      &cost.lru_fetches, &cost.scattered_pages}) {
    *sum /= static_cast<double>(queries);
  }
  return cost;
}

struct Cell {
  std::vector<const char*> figures;
  Cost cost;
};

struct Index {
  std::vector<const char*> figures;  // those plotting its build time
  double build_seconds = 0.0;
  // A DualLayerIndex's fine_edges and pseudo (num_virtual); such an
  // index's cost rows carry the page columns.
  std::optional<DualLayerBuildStats> dual_layer;
  std::map<std::size_t, Cell> cells;  // by k
};

using IndexKey = std::tuple<Distribution, std::size_t, std::size_t,
                            std::string>;  // dist, n, d, kind

const DualLayerOptions* FindVariant(const std::string& kind) {
  for (const DualLayerOptions& variant : kVariants) {
    if (kind == variant.name) return &variant;
  }
  return nullptr;
}

std::unique_ptr<TopKIndex> Build(const std::string& kind,
                                 const PointSet& points) {
  if (const DualLayerOptions* variant = FindVariant(kind)) {
    return std::make_unique<DualLayerIndex>(
        DualLayerIndex::Build(points, *variant));
  }
  IndexBuildConfig config;
  config.kind = kind;
  auto built = BuildIndex(config, points);
  DRLI_CHECK(built.ok()) << built.status().ToString();
  return std::move(built).value();
}

std::map<IndexKey, Index> Expand(std::size_t base_n) {
  std::map<IndexKey, Index> indexes;
  for (const Figure& figure : kFigures) {
    const std::vector<std::size_t> values =
        figure.axis == Axis::kBuild ? std::vector<std::size_t>{0}
                                    : figure.values;
    for (Distribution dist :
         {Distribution::kIndependent, Distribution::kAnticorrelated}) {
      for (std::size_t value : values) {
        const std::size_t n =
            figure.axis == Axis::kHalfN ? base_n * value / 2 : base_n;
        const std::size_t d = figure.axis == Axis::kD ? value : 4;
        const std::size_t k = figure.axis == Axis::kK ? value : 10;
        for (const char* kind : figure.kinds) {
          Index& index = indexes[{dist, n, d, kind}];
          if (figure.axis == Axis::kBuild) {
            index.figures.push_back(figure.name);
          } else {
            index.cells[k].figures.push_back(figure.name);
          }
        }
      }
    }
  }
  return indexes;
}

std::string Figures(const std::vector<const char*>& figures) {
  std::string list = "[";
  for (const char* figure : figures) {
    if (list.size() > 1) list += ", ";
    list += std::string("\"") + figure + "\"";
  }
  return list + "]";
}

// A variant's options field: the options that shape the index.
std::string OptionsJson(const DualLayerOptions& o) {
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer),
                "\"options\": {\"eds_policy\": \"%s\", "
                "\"enable_fine_layers\": %s, \"build_zero_layer\": %s, "
                "\"zero_layer_clusters\": %zu, "
                "\"zero_layer_fine_split\": %s}, ",
                o.eds_policy == EdsPolicy::kAllFacets ? "all-facets"
                                                      : "single-facet",
                o.enable_fine_layers ? "true" : "false",
                o.build_zero_layer ? "true" : "false", o.zero_layer_clusters,
                o.zero_layer_fine_split ? "true" : "false");
  return buffer;
}

std::string WriteJson(const std::map<IndexKey, Index>& indexes,
                      std::size_t queries, std::size_t build_threads,
                      const bench_util::Provenance& p) {
  char tail[256];
  std::snprintf(tail, sizeof(tail),
                "\"build_threads\": %zu, \"hardware_threads\": %u, "
                "\"kernel\": \"%s\", \"commit\": \"%s\"}",
                build_threads, p.hardware_threads, p.kernel.c_str(),
                p.commit.c_str());
  std::string json;
  char buffer[1024];
  for (const auto& [key, index] : indexes) {
    const auto& [dist, n, d, kind] = key;
    const DualLayerOptions* variant = FindVariant(kind);
    const std::string options =
        variant != nullptr ? OptionsJson(*variant) : "";
    std::snprintf(buffer, sizeof(buffer),
                  "  {\"row\": \"build\", \"figures\": %s, \"dist\": \"%s\", "
                  "\"kind\": \"%s\", %s\"n\": %zu, \"d\": %zu, "
                  "\"build_seconds\": %.6f, ",
                  Figures(index.figures).c_str(), DistributionName(dist),
                  kind.c_str(), options.c_str(), n, d, index.build_seconds);
    std::string row = buffer;
    if (index.dual_layer) {
      std::snprintf(buffer, sizeof(buffer),
                    "\"fine_edges\": %zu, \"pseudo\": %zu, ",
                    index.dual_layer->num_fine_edges,
                    index.dual_layer->num_virtual);
      row += buffer;
    }
    json += (json.empty() ? "" : ",\n") + row + tail;
    for (const auto& [k, cell] : index.cells) {
      std::snprintf(buffer, sizeof(buffer),
                    "  {\"row\": \"cost\", \"figures\": %s, \"dist\": \"%s\", "
                    "\"kind\": \"%s\", %s\"n\": %zu, \"d\": %zu, \"k\": %zu, "
                    "\"queries\": %zu, \"avg_tuples\": %.4f, "
                    "\"avg_virtual\": %.4f, ",
                    Figures(cell.figures).c_str(), DistributionName(dist),
                    kind.c_str(), options.c_str(), n, d, k, queries,
                    cell.cost.avg_tuples, cell.cost.avg_virtual);
      row = buffer;
      if (index.dual_layer) {
        std::snprintf(buffer, sizeof(buffer),
                      "\"pages\": %.4f, \"lru_fetches\": %.4f, "
                      "\"scattered_pages\": %.4f, ",
                      cell.cost.pages, cell.cost.lru_fetches,
                      cell.cost.scattered_pages);
        row += buffer;
      }
      json += ",\n" + row + tail;
    }
  }
  return "[\n" + json + "\n]\n";
}

// Prints every pair of matching cells that breaks one of kOrderings;
// returns how many there are.
std::size_t CheckOrderings(const std::map<IndexKey, Index>& indexes) {
  std::size_t violations = 0;
  for (const Ordering& ordering : kOrderings) {
    for (const auto& [key, winner] : indexes) {
      const auto& [dist, n, d, kind] = key;
      if (kind != ordering.winner || d < ordering.min_d) continue;
      const auto it = indexes.find({dist, n, d, ordering.rival});
      if (it == indexes.end()) continue;
      for (const auto& [k, cell] : winner.cells) {
        const auto other = it->second.cells.find(k);
        if (other == it->second.cells.end()) continue;
        const double mine = cell.cost.avg_tuples;
        const double theirs = other->second.cost.avg_tuples;
        if (mine <= theirs) continue;
        ++violations;
        std::printf("ordering violated: %s n=%zu d=%zu k=%zu: %s %.4f > "
                    "%s %.4f tuples\n",
                    DistributionName(dist), n, d, k, ordering.winner, mine,
                    ordering.rival, theirs);
      }
    }
  }
  return violations;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t base_n = bench_util::DefaultN();
  const std::size_t queries = bench_util::NumQueries();
  const std::size_t build_threads = ParallelThreadCount();
  const bench_util::Provenance& provenance = bench_util::RunProvenance();
  const std::string out_path =
      bench_util::OutputPath(argc, argv, "BENCH_paper.json");
  std::map<IndexKey, Index> indexes = Expand(base_n);

  Stopwatch total;
  for (auto& [key, index] : indexes) {
    const auto& [dist, n, d, kind] = key;
    const PointSet& points = bench_util::GetDataset(dist, n, d);
    Stopwatch timer;
    const std::unique_ptr<TopKIndex> built = Build(kind, points);
    index.build_seconds = timer.ElapsedSeconds();
    std::printf("%s/%s n=%zu d=%zu: build %.3fs\n", DistributionName(dist),
                kind.c_str(), n, d, index.build_seconds);
    std::optional<Pages> pages;
    if (const auto* dl = dynamic_cast<const DualLayerIndex*>(built.get())) {
      index.dual_layer = dl->build_stats();
      if (!index.cells.empty()) pages = MakePages(*dl);
    }
    for (auto& [k, cell] : index.cells) {
      cell.cost = ScoreCell(*built, pages ? &*pages : nullptr, d, k);
      std::printf("  k=%-3zu tuples=%.4f virtual=%.4f %s\n", k,
                  cell.cost.avg_tuples, cell.cost.avg_virtual,
                  Figures(cell.figures).c_str());
    }
    std::fflush(stdout);
  }

  std::ofstream out(out_path);
  out << WriteJson(indexes, queries, build_threads, provenance);
  DRLI_CHECK(bool(out)) << "failed to write " << out_path;
  std::printf("wrote %s (n=%zu, %zu indexes, %.1fs)\n", out_path.c_str(),
              base_n, indexes.size(), total.ElapsedSeconds());

  const std::size_t violations = CheckOrderings(indexes);
  if (violations > 0) {
    std::printf("%zu ordering violations\n", violations);
    return 1;
  }
  std::printf("orderings hold: dl+ <= dl (d >= 3), dg+, hl+; dl <= dg\n");
  return 0;
}
