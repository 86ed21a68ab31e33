// The best-first loop (core/best_first.h): its own contract driven
// with a toy unit type -- pop order, the stop frontier, an empty heap
// and k = 0 -- and its three users pinned to recorded rows.
//
// Three goldens pin DL+'s traversal, the partition merge and the
// constrained forest walk bit for bit: termination, certified prefix,
// frontier bits, the cost counters and hashes of the items and of
// `accessed`, over the fixtures GoldenRows() and PlainGoldenRows()
// rebuild below.
// tests/golden/best_first_v1.txt was written by a stand-alone program
// linked against the library before the merge and the constrained walk
// moved onto the loop; it
// still pins the dl+ constrained rows and the plain sdl+4h and tdl+64
// rows. Its sdl+4h and tdl+64 constrained rows record the walk as it
// was when those engines merged whole shards and runs; the forest walk
// over every partition's box tree evaluates fewer tuples there, so
// those rows are pinned by tests/golden/best_first_v2.txt instead,
// written by the forest walk, and every complete one must also answer
// like the in-box scan over the engine's live rows.
// tests/golden/best_first_v3.txt was written the same way as v1,
// before DL+'s traversal left its own heap for the loop; it pins plain
// single-index dl, dl+ and dg+ queries, which v1 and v2 reach only
// through dl+'s constrained rows and the sdl+/tdl+ members. No file is
// regenerated; a change that alters these costs on purpose records a
// new version.

#include "core/best_first.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"

#include "common/random.h"
#include "core/dual_layer.h"
#include "core/index_registry.h"
#include "core/tiered_index.h"
#include "data/generator.h"
#include "scenarios/constrained.h"
#include "topk/scan.h"

#ifndef DRLI_TEST_GOLDEN_DIR
#error "DRLI_TEST_GOLDEN_DIR must point at tests/golden"
#endif

namespace drli {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct ToyUnit {
  double key;
  std::uint32_t tie;
};

TEST(BestFirstTest, EqualKeysPopInTieOrder) {
  BestFirst<ToyUnit> walk;
  for (const ToyUnit unit : std::vector<ToyUnit>{
           {2.0, 5}, {1.0, 9}, {2.0, 1}, {1.0, 3}, {2.0, 4}, {0.5, 7}}) {
    walk.Push(unit);
  }
  std::vector<std::uint32_t> popped;
  const BestFirstEnd end = walk.Run([&](const ToyUnit& unit) {
    popped.push_back(unit.tie);
    return BestFirstStep::Continue();
  });
  EXPECT_EQ(popped, (std::vector<std::uint32_t>{7, 3, 9, 1, 4, 5}));
  EXPECT_EQ(end.termination, Termination::kComplete);
  EXPECT_EQ(end.frontier, kInf);
}

TEST(BestFirstTest, ExpandPushesAreWalkedInOrder) {
  // Each unit below 3 pushes two children keyed one and two above it.
  BestFirst<ToyUnit> walk;
  walk.Push({0.0, 0});
  std::uint32_t next_tie = 1;
  std::vector<double> keys;
  walk.Run([&](const ToyUnit& unit) {
    keys.push_back(unit.key);
    if (unit.key < 3.0) {
      walk.Push({unit.key + 2.0, next_tie++});
      walk.Push({unit.key + 1.0, next_tie++});
    }
    return BestFirstStep::Continue();
  });
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  EXPECT_EQ(keys.size(), 9u);
}

TEST(BestFirstTest, StopReturnsMinOfFloorAndNextKey) {
  const auto stop_at = [](double floor) {
    BestFirst<ToyUnit> walk;
    walk.Push({1.0, 0});
    walk.Push({4.0, 1});
    walk.Push({6.0, 2});
    return walk.Run([&](const ToyUnit& unit) {
      if (unit.key < 4.0) return BestFirstStep::Continue();
      return BestFirstStep::Stop(Termination::kStepBudget, floor);
    });
  };
  // Stopped on the unit keyed 4; the next heap entry is keyed 6.
  for (const auto& [floor, frontier] :
       std::vector<std::pair<double, double>>{{4.0, 4.0},
                                              {5.0, 5.0},
                                              {9.0, 6.0},
                                              {kInf, 6.0},
                                              {-kInf, -kInf}}) {
    const BestFirstEnd end = stop_at(floor);
    EXPECT_EQ(end.termination, Termination::kStepBudget) << floor;
    EXPECT_EQ(end.frontier, frontier) << floor;
  }

  // With nothing left in the heap the floor alone bounds the rest.
  BestFirst<ToyUnit> last;
  last.Push({2.0, 0});
  const BestFirstEnd end = last.Run([](const ToyUnit&) {
    return BestFirstStep::Stop(Termination::kCancelled, 3.5);
  });
  EXPECT_EQ(end.termination, Termination::kCancelled);
  EXPECT_EQ(end.frontier, 3.5);

  TopKResult result;
  result.items = {{8, 1.0}, {2, 3.5}, {4, 3.6}};
  end.Finalize(result);
  EXPECT_EQ(result.termination, Termination::kCancelled);
  EXPECT_EQ(result.certified_prefix, 1u);
  EXPECT_EQ(result.frontier_bound, 3.5);
}

// A stopping step's own pushes are in the heap when the frontier is
// taken: the partition merge pushes an opened partition's items
// before a later pop trips, and those items bound the rest too.
TEST(BestFirstTest, StopFrontierCoversUnitsPushedByTheStoppingStep) {
  BestFirst<ToyUnit> walk;
  walk.Push({1.0, 0});
  walk.Push({8.0, 1});
  const BestFirstEnd end = walk.Run([&](const ToyUnit& unit) {
    walk.Push({unit.key + 2.0, 2});
    return BestFirstStep::Stop(Termination::kStepBudget, 5.0);
  });
  EXPECT_EQ(end.termination, Termination::kStepBudget);
  EXPECT_EQ(end.frontier, 3.0);
}

// End is complete however much the heap still holds: the caller has
// proved the rest cannot enter the answer, so nothing more is popped.
TEST(BestFirstTest, EndLeavesTheRestOfTheHeapUnpopped) {
  BestFirst<ToyUnit> walk;
  for (std::uint32_t i = 0; i < 6; ++i) walk.Push({0.5 * i, i});
  std::vector<std::uint32_t> popped;
  const BestFirstEnd end = walk.Run([&](const ToyUnit& unit) {
    popped.push_back(unit.tie);
    return unit.key >= 1.0 ? BestFirstStep::End() : BestFirstStep::Continue();
  });
  EXPECT_EQ(popped, (std::vector<std::uint32_t>{0, 1, 2}));
  EXPECT_EQ(end.termination, Termination::kComplete);
  EXPECT_EQ(end.frontier, kInf);

  // The units left behind are still there, in order, for a later walk.
  popped.clear();
  walk.Run([&](const ToyUnit& unit) {
    popped.push_back(unit.tie);
    return BestFirstStep::Continue();
  });
  EXPECT_EQ(popped, (std::vector<std::uint32_t>{3, 4, 5}));
}

TEST(BestFirstTest, EmptyHeapAndZeroKEndComplete) {
  BestFirst<ToyUnit> empty;
  std::size_t calls = 0;
  const BestFirstEnd none = empty.Run([&](const ToyUnit&) {
    ++calls;
    return BestFirstStep::Continue();
  });
  EXPECT_EQ(calls, 0u);
  EXPECT_EQ(none.termination, Termination::kComplete);
  EXPECT_EQ(none.frontier, kInf);

  // A toy top-k user: emits popped units until it holds k, checking
  // before it does anything else -- the shape of the partition merge.
  // At k = 0 the first pop ends the walk complete, emitting nothing.
  for (const std::size_t k : {0u, 2u}) {
    BestFirst<ToyUnit> walk;
    for (std::uint32_t i = 0; i < 5; ++i) walk.Push({1.0 * i, i});
    std::vector<std::uint32_t> emitted;
    const BestFirstEnd end = walk.Run([&](const ToyUnit& unit) {
      if (emitted.size() >= k) return BestFirstStep::End();
      emitted.push_back(unit.tie);
      return BestFirstStep::Continue();
    });
    EXPECT_EQ(emitted.size(), k);
    EXPECT_EQ(end.termination, Termination::kComplete);
    TopKResult result;
    end.Finalize(result);
    EXPECT_TRUE(result.complete());
    EXPECT_EQ(result.frontier_bound, kInf);
  }
}

// DL+'s use: a freed tuple may key up to the caller's slack below the
// tuple that freed it (the monotone-pop DCHECK allows exactly that),
// and Clear empties the heap between queries.
TEST(BestFirstTest, SlackAllowsPushesJustBelowThePop) {
  BestFirst<ToyUnit> walk;
  walk.Push({1.0, 0});
  walk.Push({2.0, 1});
  std::vector<std::uint32_t> popped;
  const BestFirstEnd end = walk.Run(
      [&](const ToyUnit& unit) {
        popped.push_back(unit.tie);
        if (unit.tie == 0) walk.Push({0.95, 2});
        return BestFirstStep::Continue();
      },
      /*slack=*/0.1);
  EXPECT_EQ(popped, (std::vector<std::uint32_t>{0, 2, 1}));
  EXPECT_EQ(end.termination, Termination::kComplete);

  walk.Push({3.0, 3});
  walk.Clear();
  std::size_t calls = 0;
  walk.Run([&](const ToyUnit&) {
    ++calls;
    return BestFirstStep::Continue();
  });
  EXPECT_EQ(calls, 0u);
}

// Fixtures of tests/golden/best_first_v1.txt and v2.txt: the
// constrained walk on dl+, sdl+4h and a tiered engine, and the plain
// merge on sdl+4h and the tiered engine, over IND and ANT at d = 3 and
// 4, k = 1, 10 and 37, under RunGoldenBudgets (below).
constexpr std::size_t kGoldenN = 1200;
constexpr std::size_t kGoldenWeights = 3;

std::uint64_t Fnv1a(std::uint64_t hash, std::uint64_t word) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (word >> (8 * byte)) & 0xffu;
    hash *= 1099511628211ull;
  }
  return hash;
}

std::uint64_t Bits(double value) {
  std::uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

std::uint64_t ItemsHash(const std::vector<ScoredTuple>& items) {
  std::uint64_t hash = 14695981039346656037ull;
  for (const ScoredTuple& item : items) {
    hash = Fnv1a(hash, item.id);
    hash = Fnv1a(hash, Bits(item.score));
  }
  return hash;
}

std::string GoldenRow(const std::string& label, const TopKResult& result) {
  std::uint64_t accessed = 14695981039346656037ull;
  for (const TupleId id : result.accessed) accessed = Fnv1a(accessed, id);
  char row[320];
  std::snprintf(row, sizeof(row),
                "%s %s %zu %016llx %zu %zu %zu %zu %016llx %016llx",
                label.c_str(), TerminationName(result.termination),
                result.certified_prefix,
                static_cast<unsigned long long>(Bits(result.frontier_bound)),
                result.stats.tuples_evaluated, result.stats.boxes_pruned,
                result.stats.shards_touched, result.stats.runs_opened,
                static_cast<unsigned long long>(ItemsHash(result.items)),
                static_cast<unsigned long long>(accessed));
  return row;
}

// One golden row, and what the file does not hold about it.
struct GoldenEntry {
  std::string text;
  bool v2 = false;  // an sdl+4h or tdl+64 constrained row
  // A complete row whose items differ from the (in-box) scan over its
  // engine's live rows.
  bool scan_mismatch = false;
};

struct NamedDistribution {
  const char* name;
  Distribution dist;
};
constexpr NamedDistribution kDistributions[] = {
    {"ind", Distribution::kIndependent},
    {"ant", Distribution::kAnticorrelated},
};

// Runs `run` (ExecBudget -> TopKResult) unbudgeted, at max_evals cuts
// of 1/3 and 2/3 of the unbudgeted cost and under two cancel fuses,
// handing each result to `add` with its budget label.
template <typename Run, typename Add>
void RunGoldenBudgets(const Run& run, const Add& add) {
  const TopKResult full = run(ExecBudget{});
  add("none", full);
  const std::size_t cost = full.stats.tuples_evaluated;
  for (std::size_t cut : {std::max<std::size_t>(1, cost / 3),
                          std::max<std::size_t>(1, 2 * cost / 3)}) {
    ExecBudget budget;
    budget.max_evals = cut;
    add("evals=" + std::to_string(cut), run(budget));
  }
  for (std::size_t fuse : {std::size_t{1}, cost / 4 + 2}) {
    CancelToken token;
    token.CancelAfterChecks(fuse);
    ExecBudget budget;
    budget.cancel = &token;
    add("cancel=" + std::to_string(fuse), run(budget));
  }
}

// tdl+64 over the first two thirds of `points`, every 5th id erased,
// compacted into one run; then the last third inserted (new runs and a
// memtable) and every 7th id erased, so retired members sit in every
// run and the memtable has holes.
std::unique_ptr<TopKIndex> BuildTiered(const PointSet& points) {
  const std::size_t head = 2 * points.size() / 3;
  std::vector<double> values;
  for (std::size_t i = 0; i < head; ++i) {
    values.insert(values.end(), points[i].begin(), points[i].end());
  }
  IndexBuildConfig config;
  config.kind = "tdl+64";
  auto built =
      BuildIndex(config, PointSet::FromVector(points.dim(), std::move(values)));
  if (!built.ok()) return nullptr;
  auto* tiered = dynamic_cast<TieredDualLayerIndex*>(built.value().get());
  if (tiered == nullptr) return nullptr;
  for (std::size_t id = 0; id < head; id += 5) tiered->Erase(id);
  tiered->Compact();
  for (std::size_t i = head; i < points.size(); ++i) {
    tiered->Insert(points[i]);
  }
  for (std::size_t id = 3; id < points.size(); id += 7) tiered->Erase(id);
  return std::move(built).value();
}

std::vector<GoldenEntry> GoldenRows() {
  std::vector<GoldenEntry> rows;
  for (const NamedDistribution& dist : kDistributions) {
    for (std::size_t d = 3; d <= 4; ++d) {
      const PointSet points = Generate(dist.dist, kGoldenN, d, 4200 + d);
      std::unique_ptr<TopKIndex> engines[3];
      const char* const names[3] = {"dl+", "sdl+4h", "tdl+64"};
      for (std::size_t e = 0; e < 2; ++e) {
        IndexBuildConfig config;
        config.kind = names[e];
        auto built = BuildIndex(config, points);
        if (!built.ok()) return {};
        engines[e] = std::move(built).value();
      }
      engines[2] = BuildTiered(points);
      if (engines[2] == nullptr) return {};
      // Each engine's live rows: every row, and the tiered engine's
      // unerased ones (its ids are the row numbers).
      const auto& tiered =
          dynamic_cast<const TieredDualLayerIndex&>(*engines[2]);
      if (tiered.next_id() != points.size()) return {};
      std::vector<TupleId> all_ids(points.size());
      for (std::size_t i = 0; i < all_ids.size(); ++i) {
        all_ids[i] = static_cast<TupleId>(i);
      }
      std::vector<TupleId> live_ids;
      PointSet live_rows(d);
      for (const TupleId id : all_ids) {
        if (!tiered.Contains(id)) continue;
        live_ids.push_back(id);
        live_rows.Add(points[id]);
      }

      Rng rng(420 + d);
      for (std::size_t weight = 0; weight < kGoldenWeights; ++weight) {
        ConstrainedQuery query;
        query.weights = rng.SimplexWeight(d);
        query.box = AttributeBox::All(d);
        for (std::size_t a = 0; a < d; ++a) {
          query.box.lo[a] = rng.Uniform(0.0, 0.2);
          query.box.hi[a] = rng.Uniform(0.6, 1.0);
        }
        // Calls 0-2: constrained on dl+, sdl+4h, tdl+64; 3-4: plain
        // Query on sdl+4h and tdl+64.
        for (std::size_t call = 0; call < 5; ++call) {
          const TopKIndex& engine = *engines[call < 3 ? call : call - 2];
          const auto run = [&](const ExecBudget& budget) {
            ConstrainedQuery q = query;
            q.budget = budget;
            return call < 3 ? ConstrainedTopK(engine, q)
                            : engine.Query(TopKQuery{q.weights, q.k, budget});
          };
          for (std::size_t k : {1, 10, 37}) {
            query.k = k;
            char prefix[96];
            std::snprintf(prefix, sizeof(prefix), "%s %zu %s %s %zu %zu",
                          dist.name, d, names[call < 3 ? call : call - 2],
                          call < 3 ? "box" : "plain", k, weight);
            const bool v2 = call == 1 || call == 2;
            const auto add = [&](const std::string& budget,
                                 const TopKResult& result) {
              GoldenEntry entry{GoldenRow(std::string(prefix) + " " + budget,
                                          result),
                                v2};
              if (call < 3 && result.complete()) {
                const TopKResult scan =
                    call == 2 ? ConstrainedScanRows(live_rows, live_ids, query)
                              : ConstrainedScanRows(points, all_ids, query);
                entry.scan_mismatch =
                    ItemsHash(scan.items) != ItemsHash(result.items);
              }
              rows.push_back(std::move(entry));
            };
            RunGoldenBudgets(run, add);
          }
        }
      }
    }
  }
  return rows;
}

const std::vector<GoldenEntry>& Rows() {
  static const std::vector<GoldenEntry> rows = GoldenRows();
  return rows;
}

std::vector<std::string> ReadGolden(const char* name) {
  std::ifstream in(std::string(DRLI_TEST_GOLDEN_DIR) + "/" + name);
  std::vector<std::string> golden;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty() && line[0] != '#') golden.push_back(line);
  }
  return golden;
}

// The dl+ constrained rows and the plain sdl+4h and tdl+64 rows match
// the parent's golden row for row; its other rows are the old merge's.
TEST(BestFirstTest, MatchesParentGolden) {
  const std::vector<std::string> golden = ReadGolden("best_first_v1.txt");
  const std::vector<GoldenEntry>& rows = Rows();
  ASSERT_EQ(rows.size(), golden.size());
  std::size_t pinned = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].v2) continue;
    ++pinned;
    EXPECT_EQ(rows[i].text, golden[i]) << "row " << i;
  }
  EXPECT_EQ(pinned, 540u);
}

// The sdl+4h and tdl+64 constrained rows match the forest walk's
// golden, in order, and every complete constrained row answers like the
// in-box scan over its engine's live rows.
TEST(BestFirstTest, ForestWalkMatchesItsGolden) {
  const std::vector<std::string> golden = ReadGolden("best_first_v2.txt");
  std::vector<const GoldenEntry*> moved;
  for (const GoldenEntry& row : Rows()) {
    EXPECT_FALSE(row.scan_mismatch) << row.text;
    if (row.v2) moved.push_back(&row);
  }
  ASSERT_EQ(moved.size(), 360u);
  ASSERT_EQ(moved.size(), golden.size());
  for (std::size_t i = 0; i < moved.size(); ++i) {
    EXPECT_EQ(moved[i]->text, golden[i]) << "v2 row " << i;
  }
}

// Fixtures of tests/golden/best_first_v3.txt: plain single-index
// queries on dl, dl+, dg+ and a dl+ with every 5th id retired
// ("dl+r"), over IND and ANT at d = 2 (where dl+ answers through the
// weight table), 3 and 4, k = 1, 10 and 37, under RunGoldenBudgets.
std::vector<GoldenEntry> PlainGoldenRows() {
  constexpr std::size_t kRetireEvery = 5;
  std::vector<GoldenEntry> rows;
  for (const NamedDistribution& dist : kDistributions) {
    for (std::size_t d = 2; d <= 4; ++d) {
      const PointSet points = Generate(dist.dist, kGoldenN, d, 4700 + d);
      const char* const names[4] = {"dl", "dl+", "dg+", "dl+r"};
      std::unique_ptr<TopKIndex> engines[4];
      for (std::size_t e = 0; e < 4; ++e) {
        IndexBuildConfig config;
        config.kind = e == 3 ? "dl+" : names[e];
        auto built = BuildIndex(config, points);
        if (!built.ok()) return {};
        engines[e] = std::move(built).value();
      }
      auto* retired = dynamic_cast<DualLayerIndex*>(engines[3].get());
      if (retired == nullptr) return {};
      PointSet live_rows(d);
      std::vector<TupleId> live_ids;
      for (std::size_t id = 0; id < points.size(); ++id) {
        if (id % kRetireEvery == 0) {
          retired->Retire(static_cast<TupleId>(id));
        } else {
          live_rows.Add(points[id]);
          live_ids.push_back(static_cast<TupleId>(id));
        }
      }

      Rng rng(470 + d);
      for (std::size_t weight = 0; weight < kGoldenWeights; ++weight) {
        const Point weights = rng.SimplexWeight(d);
        for (std::size_t e = 0; e < 4; ++e) {
          for (const std::size_t k : {1, 10, 37}) {
            char prefix[96];
            std::snprintf(prefix, sizeof(prefix), "%s %zu %s plain %zu %zu",
                          dist.name, d, names[e], k, weight);
            const auto run = [&](const ExecBudget& budget) {
              return engines[e]->Query(TopKQuery{weights, k, budget});
            };
            const auto add = [&](const std::string& budget,
                                 const TopKResult& result) {
              GoldenEntry entry{
                  GoldenRow(std::string(prefix) + " " + budget, result)};
              if (result.complete()) {
                TopKResult scan = Scan(e == 3 ? live_rows : points,
                                       TopKQuery{weights, k});
                if (e == 3) {
                  for (ScoredTuple& item : scan.items) {
                    item.id = live_ids[item.id];
                  }
                }
                entry.scan_mismatch =
                    ItemsHash(scan.items) != ItemsHash(result.items);
              }
              rows.push_back(std::move(entry));
            };
            RunGoldenBudgets(run, add);
          }
        }
      }
    }
  }
  return rows;
}

// Plain dl, dl+, dg+ and retired-member dl+ queries match the golden
// written before DL+'s traversal moved onto the loop, row for row, and
// every complete row answers like the scan over the index's live rows.
TEST(BestFirstTest, DualLayerQueryMatchesItsGolden) {
  const std::vector<std::string> golden = ReadGolden("best_first_v3.txt");
  const std::vector<GoldenEntry> rows = PlainGoldenRows();
  ASSERT_EQ(rows.size(), 1080u);
  ASSERT_EQ(rows.size(), golden.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].text, golden[i]) << "v3 row " << i;
    EXPECT_FALSE(rows[i].scan_mismatch) << rows[i].text;
  }
}

}  // namespace
}  // namespace drli
