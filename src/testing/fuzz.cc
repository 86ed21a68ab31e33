#include "testing/fuzz.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <sstream>
#include <vector>

#include "common/random.h"
#include "core/dual_layer.h"
#include "core/tiered_index.h"
#include "data/generator.h"
#include "scenarios/constrained.h"
#include "scenarios/diversified.h"
#include "storage/tiered_io.h"
#include "testing/check_index.h"
#include "testing/differential.h"
#include "testing/result_check.h"
#include "testing/scenario_oracle.h"
#include "topk/query.h"

namespace drli {

namespace {

// Randomized queries per case, on top of the fixed degenerate ones.
constexpr std::size_t kQueriesPerCase = 4;
// Randomized execution-budget cut points per case: each one re-runs a
// sampled query across every family with max_evals (and a cancel fuse)
// tripping mid-traversal.
constexpr std::size_t kBudgetCutPoints = 3;

void SnapToGrid(PointSet* points, std::size_t levels) {
  for (std::size_t i = 0; i < points->size(); ++i) {
    for (std::size_t a = 0; a < points->dim(); ++a) {
      const double snapped =
          std::round(points->At(i, a) * static_cast<double>(levels)) /
          static_cast<double>(levels);
      points->Set(i, a, snapped);
    }
  }
}

// Appends the checker's verdict on `got`, a tiered-engine answer held
// to the exact rule, tagged with the oracle and the trace step.
void CheckExact(const TopKReference& reference, const TopKResult& got,
                const ExecBudget& budget, const std::string& what,
                std::size_t step, std::vector<std::string>* failures) {
  const std::string failure =
      reference.Check(got, MatchRule::kExact, budget);
  if (failure.empty()) return;
  failures->push_back(what + " step " + std::to_string(step) + ": " +
                      failure);
}

// Scenario probes for the mixed-rw trace: the constrained traversal
// over the live tiered index (runs + memtable + tombstones), with and
// without a budget, and the reference scan over the live rows, against
// the checker's top-k over the live rows in the box; and the
// diversified greedy against the same greedy over the compacted live
// set. `universe` holds every row ever inserted at its stable id (ids
// are never reused), so global pick ids index it even after erases.
void RunMixedScenarioProbes(const TieredDualLayerIndex& tiered,
                            const PointSet& universe,
                            const CheckUniverse& live, Rng& rng,
                            std::size_t step,
                            std::vector<std::string>* failures) {
  if (live.ids.empty()) return;
  const std::size_t d = universe.dim();
  const std::vector<TupleId>& ids = live.ids;  // ascending

  {
    ConstrainedQuery query;
    query.weights = rng.SimplexWeight(d);
    query.k = 1 + rng.Index(ids.size() + 2);
    const TupleId a = ids[rng.Index(ids.size())];
    const TupleId b = ids[rng.Index(ids.size())];
    query.box.lo.resize(d);
    query.box.hi.resize(d);
    for (std::size_t attr = 0; attr < d; ++attr) {
      query.box.lo[attr] =
          std::min(universe.At(a, attr), universe.At(b, attr));
      query.box.hi[attr] =
          std::max(universe.At(a, attr), universe.At(b, attr));
    }
    const TopKReference reference(live.InBox(query.box), query.weights,
                                  query.k);
    const TopKResult got = ConstrainedTopK(tiered, query);
    CheckExact(reference, got, query.budget, "[mixed] constrained", step,
               failures);
    CheckExact(reference, ConstrainedScanRows(live.rows, ids, query),
               query.budget, "[mixed] constrained scan", step, failures);
    // A cut halfway through the unbudgeted cost, derived without a
    // draw so the trace's rng sequence stays put.
    ConstrainedQuery budgeted = query;
    budgeted.budget.max_evals =
        std::max<std::size_t>(1, got.stats.tuples_evaluated / 2);
    CheckExact(reference, ConstrainedTopK(tiered, budgeted), budgeted.budget,
               "[mixed] constrained budget", step, failures);
    if (!failures->empty()) return;
  }

  if (rng.Index(2) == 0) {
    DiversifiedQuery query;
    query.weights = rng.SimplexWeight(d);
    query.k = 1 + rng.Index(4);
    query.lambda = rng.Uniform(0.0, 1.5);
    query.pool_factor = 2;
    const DiversifiedResult got = DiversifiedTopK(tiered, universe, query);
    // The greedy over the compacted live set with order-preserving id
    // relabeling makes the same selections: scores, similarities, and
    // the ascending-id tie-break are all invariant under the mapping.
    DiversifiedResult want = DiversifiedTopKScan(live.rows, query);
    for (DiversifiedPick& pick : want.picks) pick.id = ids[pick.id];
    const std::string failure = CheckPicks(got, want, query.budget);
    if (!failure.empty()) {
      failures->push_back("[mixed] diversified step " + std::to_string(step) +
                          ": " + failure);
    }
  }
}

// Whether two members of one exact-score tie class in `answer` (live
// ids only) sit in different runs, or in a run and the memtable.
bool SplitsATieClass(const TieredDualLayerIndex& tiered,
                     const std::vector<ScoredTuple>& answer) {
  for (std::size_t i = 1; i < answer.size(); ++i) {
    if (answer[i].score == answer[i - 1].score &&
        tiered.run_uid_of(answer[i].id) !=
            tiered.run_uid_of(answer[i - 1].id)) {
      return true;
    }
  }
  return false;
}

// Drives the mirror and the tiered LSM engine through one interleaved
// insert / erase / query / maintenance-step trace. Ids are assigned
// monotonically after the initial prefix, so the mirror keys on them.
void RunDynamicOracle(std::uint64_t seed, const PointSet& dataset,
                      FuzzCaseResult* result) {
  std::vector<std::string>* failures = &result->failures;
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  const std::size_t d = dataset.dim();

  // Start from a prefix of the dataset; its rows get base ids 0..m-1.
  const std::size_t prefix = dataset.size() / 2;
  PointSet initial(d);
  for (std::size_t i = 0; i < prefix; ++i) initial.Add(dataset[i]);

  const std::size_t steps = 3 * std::min<std::size_t>(dataset.size(), 40) + 16;

  // Tiny rng-derived maintenance knobs so short traces still span many
  // runs and live compactions; auto-compaction is itself fuzzed. One
  // case in four never seals on its own (memtable larger than the
  // trace): one big run beside a memtable until a forced seal or Compact().
  TieredIndexOptions tiered_options;
  tiered_options.memtable_capacity =
      rng.Index(4) == 0 ? steps + 1 : 4 + rng.Index(29);  // 4..32
  tiered_options.fanout = 2 + rng.Index(3);              // 2..4
  tiered_options.auto_compact = rng.Index(2) == 0;
  tiered_options.compact_rows_per_step = 1 + rng.Index(24);
  TieredDualLayerIndex tiered(std::move(initial), tiered_options);

  std::map<TupleId, Point> live;
  std::vector<TupleId> live_ids;
  for (std::size_t i = 0; i < prefix; ++i) {
    live.emplace(static_cast<TupleId>(i), dataset.Materialize(i));
    live_ids.push_back(static_cast<TupleId>(i));
  }

  const auto note_state = [&] {
    result->max_runs = std::max(result->max_runs, tiered.num_runs());
    result->peak_tombstones =
        std::max(result->peak_tombstones, tiered.tombstone_count());
  };

  std::size_t next_row = prefix;  // dataset rows not yet inserted
  for (std::size_t step = 0; step < steps; ++step) {
    const std::size_t op = rng.Index(8);
    if (op <= 2) {
      // Insert: remaining dataset rows first (they carry the
      // adversarial structure), then fresh random points.
      Point point;
      if (next_row < dataset.size()) {
        point = dataset.Materialize(next_row++);
      } else {
        point.reserve(d);
        for (std::size_t a = 0; a < d; ++a) point.push_back(rng.Uniform());
      }
      const TupleId id = tiered.Insert(PointView(point));
      if (live.count(id)) {
        std::ostringstream out;
        out << "[dynamic] step " << step << ": Insert reused live id " << id;
        failures->push_back(out.str());
        return;
      }
      live.emplace(id, std::move(point));
      live_ids.push_back(id);
    } else if (op <= 4 && !live_ids.empty()) {
      const std::size_t pick = rng.Index(live_ids.size());
      const TupleId id = live_ids[pick];
      live_ids[pick] = live_ids.back();
      live_ids.pop_back();
      if (!tiered.Erase(id) || tiered.Contains(id)) {
        std::ostringstream out;
        out << "[dynamic] step " << step << ": Erase(" << id
            << ") failed or left the id live";
        failures->push_back(out.str());
        return;
      }
      live.erase(id);
      if (tiered.Erase(id)) {
        std::ostringstream out;
        out << "[dynamic] step " << step << ": double Erase(" << id
            << ") claimed success";
        failures->push_back(out.str());
        return;
      }
    } else if (op <= 6) {
      TopKQuery query;
      query.k = rng.Index(live.size() + 3);  // covers k = 0 and k > n
      query.weights = rng.SimplexWeight(d);
      const TopKReference reference(CheckUniverse::Of(live, d),
                                    query.weights, query.k);
      if (tiered.compaction_active()) ++result->mid_compaction_queries;
      if (SplitsATieClass(tiered, reference.answer())) {
        ++result->split_tie_queries;
      }
      CheckExact(reference, tiered.Query(query), query.budget,
                 "[dynamic] tiered query", step, failures);
      if (!failures->empty()) return;
      if (!live.empty()) {
        // Budgeted probe on every query step: a random cut point must
        // still certify correctly against the multi-run frontier.
        TopKQuery budgeted = query;
        budgeted.budget.max_evals = 1 + rng.Index(live.size());
        CheckExact(reference, tiered.Query(budgeted), budgeted.budget,
                   "[dynamic] budgeted query", step, failures);
        if (!failures->empty()) return;
      }
    } else {
      // Maintenance step: force a seal or advance compaction by one
      // increment; a query on the next iteration lands mid-job.
      if (rng.Index(2) == 0) {
        tiered.SealMemtable();
      } else {
        tiered.CompactStep();
      }
    }
    note_state();
    if (tiered.size() != live.size()) {
      std::ostringstream out;
      out << "[dynamic] step " << step << ": tiered size " << tiered.size()
          << ", mirror has " << live.size();
      failures->push_back(out.str());
      return;
    }
  }

  TopKQuery final_query;
  final_query.k = live.size() / 2 + 1;
  final_query.weights = rng.SimplexWeight(d);
  const TopKReference final_reference(CheckUniverse::Of(live, d),
                                      final_query.weights, final_query.k);

  {
    // Save / load roundtrip of the live tiered state (mid-memtable,
    // mid-tombstone, possibly mid-compaction-job -- the job is
    // transient and must not affect the persisted answer).
    const std::string path =
        (std::filesystem::temp_directory_path() /
         ("drli_fuzz_tiered_" + std::to_string(getpid()) + "_" +
          std::to_string(seed) + ".drlt"))
            .string();
    TieredSaveOptions save;
    std::vector<std::string> written;
    save.write_order = &written;
    const Status saved = SaveTieredIndex(tiered, path, save);
    if (!saved.ok()) {
      failures->push_back("[dynamic] tiered save failed: " +
                          saved.ToString());
      return;
    }
    StatusOr<TieredDualLayerIndex> loaded = LoadTieredIndex(path);
    if (!loaded.ok()) {
      failures->push_back("[dynamic] tiered load failed: " +
                          loaded.status().ToString());
    } else {
      if (loaded.value().size() != live.size() ||
          loaded.value().generation() != tiered.generation()) {
        failures->push_back(
            "[dynamic] tiered roundtrip changed size or generation");
      }
      CheckExact(final_reference, loaded.value().Query(final_query),
                 final_query.budget, "[dynamic] post-roundtrip", steps,
                 failures);
    }
    for (const std::string& file : written) std::remove(file.c_str());
    if (!failures->empty()) return;
  }

  // Full compaction must preserve ids, membership, and answers, and
  // leave the index in its canonical final shape.
  tiered.Compact();
  CheckExact(final_reference, tiered.Query(final_query), final_query.budget,
             "[dynamic] tiered post-compact", steps, failures);
  if (!failures->empty()) return;
  if (tiered.num_runs() > 1 || tiered.tombstone_count() != 0 ||
      tiered.memtable_size() != 0 || tiered.compaction_active()) {
    std::ostringstream out;
    out << "[dynamic] full compaction left " << tiered.num_runs()
        << " runs, " << tiered.tombstone_count() << " tombstones, memtable "
        << tiered.memtable_size();
    failures->push_back(out.str());
  }
}

}  // namespace

PointSet MakeFuzzDataset(std::uint64_t seed, const FuzzOptions& options,
                         std::string* desc) {
  Rng rng(seed);
  const std::size_t d = 2 + rng.Index(4);
  std::size_t n = 0;
  switch (rng.Index(8)) {
    case 0: n = 0; break;
    case 1: n = 1; break;
    case 2: n = 2 + rng.Index(7); break;  // around typical k values
    default: n = 10 + rng.Index(options.max_n > 10 ? options.max_n - 10 : 1);
  }
  const Distribution dist = static_cast<Distribution>(rng.Index(3));
  PointSet points =
      Generate(dist, n, d, static_cast<std::uint64_t>(rng.Index(1u << 30)));

  std::ostringstream shape;
  shape << "d=" << d << " n=" << n << " " << DistributionName(dist);

  if (n > 0 && rng.Index(2) == 0) {
    const std::size_t levels = std::size_t{2} << rng.Index(4);  // 2..16
    SnapToGrid(&points, levels);
    shape << " grid=" << levels;
  }
  if (n >= 3 && rng.Index(4) == 0) {
    // Coplanar rows: force a fraction onto the hyperplane sum(x) = c,
    // which ties their scores under uniform weights.
    const double c = 0.4 + rng.Uniform(0.0, 0.4) * static_cast<double>(d - 1);
    const std::size_t count = 2 + rng.Index(points.size() - 1);
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t row = rng.Index(points.size());
      double rest = 0.0;
      for (std::size_t a = 0; a + 1 < d; ++a) rest += points.At(row, a);
      points.Set(row, d - 1, std::clamp(c - rest, 0.0, 1.0));
    }
    shape << " coplanar=" << count;
  }
  if (rng.Index(4) == 0) {
    const std::size_t attr = rng.Index(d);
    const double value = rng.Uniform();
    for (std::size_t i = 0; i < points.size(); ++i) {
      points.Set(i, attr, value);
    }
    shape << " const-attr=" << attr;
  }
  if (n > 0 && rng.Index(2) == 0) {
    // Exact duplicates, appended so they share every coordinate.
    const std::size_t count = 1 + rng.Index(points.size() / 4 + 1);
    for (std::size_t i = 0; i < count; ++i) {
      const Point copy = points.Materialize(rng.Index(points.size()));
      points.Add(PointView(copy));
    }
    shape << " dup=" << count;
  }

  if (desc != nullptr) *desc = shape.str();
  return points;
}

FuzzCaseResult RunFuzzCase(std::uint64_t seed, const FuzzOptions& options) {
  FuzzCaseResult result;
  result.seed = seed;
  PointSet dataset = MakeFuzzDataset(seed, options, &result.dataset_desc);
  result.n = dataset.size();
  result.d = dataset.dim();
  Rng rng(seed + 0x6a09e667f3bcc909ULL);

  for (const bool zero_layer : {false, true}) {
    DualLayerOptions build;
    build.build_zero_layer = zero_layer;
    const DualLayerIndex index = DualLayerIndex::Build(dataset, build);
    CheckOptions check;
    check.seed = seed;
    const CheckReport report = CheckIndex(index, check);
    for (const std::string& failure : report.failures) {
      result.failures.push_back(std::string("[check ") +
                                (zero_layer ? "dl+" : "dl") + "] " + failure);
    }
  }

  StatusOr<DifferentialHarness> harness = DifferentialHarness::Build(dataset);
  if (!harness.ok()) {
    result.failures.push_back("[differential] harness build failed: " +
                              harness.status().ToString());
    return result;
  }
  std::vector<TopKQuery> queries;
  const std::size_t n = dataset.size();
  for (const std::size_t k : {std::size_t{0}, std::size_t{1}, n, n + 3}) {
    TopKQuery query;
    query.k = k;
    query.weights = rng.SimplexWeight(dataset.dim());
    queries.push_back(std::move(query));
  }
  {
    // Uniform weights maximize score collisions on grid-snapped and
    // coplanar data.
    TopKQuery query;
    query.k = std::min<std::size_t>(3, n + 1);
    query.weights.assign(dataset.dim(),
                         1.0 / static_cast<double>(dataset.dim()));
    queries.push_back(std::move(query));
  }
  for (std::size_t i = 0; i < kQueriesPerCase; ++i) {
    TopKQuery query;
    query.k = 1 + rng.Index(n + 2);
    query.weights = rng.SimplexWeight(dataset.dim());
    queries.push_back(std::move(query));
  }
  for (const TopKQuery& query : queries) {
    std::vector<std::string> failures = harness.value().CheckQuery(query);
    result.failures.insert(result.failures.end(), failures.begin(),
                           failures.end());
    if (!result.failures.empty()) return result;
  }

  if (n > 0) {
    // Budget faults: sample a query, find the most expensive family's
    // unbudgeted cost, and cut the traversal at random step indices
    // with both a step budget and a cancel fuse.
    TopKQuery base;
    base.k = 1 + rng.Index(n);
    base.weights = rng.SimplexWeight(dataset.dim());
    std::size_t max_cost = 0;
    for (const auto& [kind, cost] : harness.value().UnbudgetedCosts(base)) {
      max_cost = std::max(max_cost, cost);
    }
    for (std::size_t i = 0; max_cost > 0 && i < kBudgetCutPoints; ++i) {
      TopKQuery budgeted = base;
      budgeted.budget.max_evals = 1 + rng.Index(max_cost);
      std::vector<std::string> failures =
          harness.value().CheckQuery(budgeted);
      result.failures.insert(result.failures.end(), failures.begin(),
                             failures.end());
      if (!result.failures.empty()) return result;

      CancelToken token;
      token.CancelAfterChecks(
          static_cast<std::int64_t>(1 + rng.Index(max_cost)));
      TopKQuery cancelled = base;
      cancelled.budget.cancel = &token;
      failures = harness.value().CheckQuery(cancelled);
      result.failures.insert(result.failures.end(), failures.begin(),
                             failures.end());
      if (!result.failures.empty()) return result;
    }
  }

  for (const std::string& failure : CheckScenarioFamilies(dataset, seed)) {
    result.failures.push_back("[scenario] " + failure);
  }
  if (!result.failures.empty()) return result;

  if (options.dynamic) RunDynamicOracle(seed, dataset, &result);
  return result;
}

FuzzCaseResult RunMixedTraceCase(std::uint64_t seed,
                                 const FuzzOptions& options) {
  FuzzCaseResult result;
  result.seed = seed;
  PointSet dataset = MakeFuzzDataset(seed, options, &result.dataset_desc);
  result.n = dataset.size();
  result.d = dataset.dim();
  Rng rng(seed * 0xd1342543de82ef95ULL + 3);
  const std::size_t d = dataset.dim();

  TieredIndexOptions tiered_options;
  tiered_options.memtable_capacity = 8 + rng.Index(25);
  tiered_options.fanout = 2 + rng.Index(3);
  TieredDualLayerIndex tiered(dataset, tiered_options);
  // Every row ever inserted, at its stable id (ids are never reused);
  // the diversified probe reads penalties through global ids.
  PointSet universe = dataset;
  std::map<TupleId, Point> live;
  std::vector<TupleId> live_ids;
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    live.emplace(static_cast<TupleId>(i), dataset.Materialize(i));
    live_ids.push_back(static_cast<TupleId>(i));
  }

  // Serving-shaped trace: ~95% reads, ~5% writes, sustained long
  // enough for seals and compactions to happen under the read stream.
  const std::size_t steps = 12 * std::min<std::size_t>(dataset.size(), 50) + 60;
  for (std::size_t step = 0; step < steps; ++step) {
    if (rng.Index(100) < 5) {
      if (!live_ids.empty() && rng.Index(3) == 0) {
        const std::size_t pick = rng.Index(live_ids.size());
        const TupleId id = live_ids[pick];
        live_ids[pick] = live_ids.back();
        live_ids.pop_back();
        if (!tiered.Erase(id)) {
          result.failures.push_back("[mixed] erase of live id failed at step " +
                                    std::to_string(step));
          return result;
        }
        live.erase(id);
      } else {
        Point point;
        point.reserve(d);
        for (std::size_t a = 0; a < d; ++a) point.push_back(rng.Uniform());
        const TupleId id = tiered.Insert(PointView(point));
        universe.Add(PointView(point));
        live.emplace(id, std::move(point));
        live_ids.push_back(id);
      }
      continue;
    }
    TopKQuery query;
    query.k = 1 + rng.Index(live.size() + 2);
    query.weights = rng.SimplexWeight(d);
    const CheckUniverse live_universe = CheckUniverse::Of(live, d);
    const TopKReference reference(live_universe, query.weights, query.k);
    if (tiered.compaction_active()) ++result.mid_compaction_queries;
    if (query.k < tiered.memtable_size()) ++result.memtable_cut_queries;
    CheckExact(reference, tiered.Query(query), query.budget, "[mixed] query",
               step, &result.failures);
    if (!result.failures.empty()) return result;
    if (!live.empty() && rng.Index(4) == 0) {
      TopKQuery budgeted = query;
      budgeted.budget.max_evals = 1 + rng.Index(live.size());
      CheckExact(reference, tiered.Query(budgeted), budgeted.budget,
                 "[mixed] budgeted query", step, &result.failures);
      if (!result.failures.empty()) return result;
    }
    if (rng.Index(8) == 0) {
      RunMixedScenarioProbes(tiered, universe, live_universe, rng, step,
                             &result.failures);
      if (!result.failures.empty()) return result;
    }
    result.max_runs = std::max(result.max_runs, tiered.num_runs());
    result.peak_tombstones =
        std::max(result.peak_tombstones, tiered.tombstone_count());
  }
  return result;
}

}  // namespace drli
