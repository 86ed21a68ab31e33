// The paper's Section VI in one run: Table IV and Figs. 8-16, plus the
// list- and view-based baselines of Section VII, at n = DRLI_BENCH_N
// (default 10000; the paper's n is 200000) with DRLI_BENCH_QUERIES
// random weight vectors per cell (default 30).
//
// The figures are one table, kFigures. It expands into distinct
// indexes, keyed (distribution, n, d, kind), and distinct cost cells,
// an index and a k; a cell that several figures plot is scored once
// and lists all of them. Each index is built once from
// bench_util::GetDataset, and that build's wall time is its Table IV
// number; a cell's cost is the paper's Definition 9 averaged by
// bench_util::AverageCost with seed k * 7919 + d. Indexes run grouped
// by (distribution, n, d), each freed once its cells are scored.
//
// Output: BENCH_paper.json (or argv[1] / DRLI_BENCH_OUT), one "build"
// row per index and one "cost" row per cell, each with the run's
// provenance and build thread count (DRLI_THREADS). Then the paper's
// orderings are checked on every matching pair of cells -- in
// avg_tuples, DL+ <= DL at d >= 3, DL+ <= DG+ and DL+ <= HL+ -- and
// the program prints each violation and exits 1.

#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "bench/bench_util.h"
#include "common/check.h"
#include "common/parallel_for.h"
#include "common/stopwatch.h"

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
};

struct Cell {
  std::vector<const char*> figures;
  bench_util::CostSample cost;
};

struct Index {
  std::vector<const char*> figures;  // those plotting its build time
  double build_seconds = 0.0;
  std::map<std::size_t, Cell> cells;  // by k
};

using IndexKey = std::tuple<Distribution, std::size_t, std::size_t,
                            std::string>;  // dist, n, d, kind

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
  char buffer[512];
  for (const auto& [key, index] : indexes) {
    const auto& [dist, n, d, kind] = key;
    std::snprintf(buffer, sizeof(buffer),
                  "  {\"row\": \"build\", \"figures\": %s, \"dist\": \"%s\", "
                  "\"kind\": \"%s\", \"n\": %zu, \"d\": %zu, "
                  "\"build_seconds\": %.6f, ",
                  Figures(index.figures).c_str(), DistributionName(dist),
                  kind.c_str(), n, d, index.build_seconds);
    json += (json.empty() ? "" : ",\n") + std::string(buffer) + tail;
    for (const auto& [k, cell] : index.cells) {
      std::snprintf(buffer, sizeof(buffer),
                    "  {\"row\": \"cost\", \"figures\": %s, \"dist\": \"%s\", "
                    "\"kind\": \"%s\", \"n\": %zu, \"d\": %zu, \"k\": %zu, "
                    "\"queries\": %zu, \"avg_tuples\": %.4f, "
                    "\"avg_virtual\": %.4f, ",
                    Figures(cell.figures).c_str(), DistributionName(dist),
                    kind.c_str(), n, d, k, queries,
                    cell.cost.avg_tuples, cell.cost.avg_virtual);
      json += ",\n" + std::string(buffer) + tail;
    }
  }
  return "[\n" + json + "\n]\n";
}

// Prints every cell where DL+ evaluates more tuples than a kind the
// paper shows it beating; returns how many there are.
std::size_t CheckOrderings(const std::map<IndexKey, Index>& indexes) {
  std::size_t violations = 0;
  for (const auto& [key, dl_plus] : indexes) {
    const auto& [dist, n, d, kind] = key;
    if (kind != "dl+") continue;
    for (const char* rival : {"dl", "dg+", "hl+"}) {
      if (std::string(rival) == "dl" && d < 3) continue;
      const auto it = indexes.find({dist, n, d, rival});
      if (it == indexes.end()) continue;
      for (const auto& [k, cell] : dl_plus.cells) {
        const auto other = it->second.cells.find(k);
        if (other == it->second.cells.end()) continue;
        const double mine = cell.cost.avg_tuples;
        const double theirs = other->second.cost.avg_tuples;
        if (mine <= theirs) continue;
        ++violations;
        std::printf("ordering violated: %s n=%zu d=%zu k=%zu: dl+ %.4f > "
                    "%s %.4f tuples\n",
                    DistributionName(dist), n, d, k, mine, rival, theirs);
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
    IndexBuildConfig config;
    config.kind = kind;
    Stopwatch timer;
    auto built = BuildIndex(config, points);
    index.build_seconds = timer.ElapsedSeconds();
    DRLI_CHECK(built.ok()) << built.status().ToString();
    std::printf("%s/%s n=%zu d=%zu: build %.3fs\n", DistributionName(dist),
                kind.c_str(), n, d, index.build_seconds);
    for (auto& [k, cell] : index.cells) {
      cell.cost = bench_util::AverageCost(*built.value(), d, k,
                                          /*seed=*/k * 7919 + d);
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
  std::printf("orderings hold: dl+ <= dl (d >= 3), dg+, hl+\n");
  return 0;
}
