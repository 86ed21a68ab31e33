// Serving-grade execution controls: per-query budgets, cooperative
// cancellation, certified partial results, recoverable rejection of
// malformed queries, and overload-safe batching (DESIGN.md §5).
//
// The exhaustive cut-point tests fire a step budget and a cancel fuse
// at EVERY step index of a small traversal for the graph families and
// NRA, and check every partial result against the brute-force
// reference through the differential oracle.

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

#include "common/parallel_for.h"
#include "core/dual_layer.h"
#include "core/index_registry.h"
#include "core/tiered_index.h"
#include "data/generator.h"
#include "test_util.h"
#include "testing/differential.h"
#include "testing/fault_inject.h"
#include "topk/query.h"

namespace drli {
namespace {

// Force a 4-worker pool so the parallel QueryBatch paths are exercised
// even on small CI machines.
class ForceThreadsEnv : public ::testing::Environment {
 public:
  void SetUp() override { setenv("DRLI_THREADS", "4", 1); }
};
const ::testing::Environment* const kForceThreads =
    ::testing::AddGlobalTestEnvironment(new ForceThreadsEnv);

// --- CancelToken / BudgetGate unit behaviour ---

TEST(CancelTokenTest, CancelIsSticky) {
  CancelToken token;
  EXPECT_FALSE(token.cancelled());
  token.Cancel();
  EXPECT_TRUE(token.cancelled());
  EXPECT_TRUE(token.cancelled());
}

TEST(CancelTokenTest, FuseFiresAfterExactPollCount) {
  CancelToken token;
  token.CancelAfterChecks(3);
  EXPECT_FALSE(token.cancelled());  // poll 1
  EXPECT_FALSE(token.cancelled());  // poll 2
  EXPECT_FALSE(token.cancelled());  // poll 3
  EXPECT_TRUE(token.cancelled());   // poll 4 fires
  EXPECT_TRUE(token.cancelled());   // and stays fired
}

TEST(BudgetGateTest, UnlimitedBudgetNeverTrips) {
  BudgetGate gate(ExecBudget{});
  EXPECT_FALSE(gate.active());
  for (std::size_t i = 0; i < 1000; ++i) {
    EXPECT_EQ(gate.Step(i), Termination::kComplete);
  }
}

TEST(BudgetGateTest, StepBudgetTripsAtBoundaryAndStaysTripped) {
  ExecBudget budget;
  budget.max_evals = 5;
  BudgetGate gate(budget);
  EXPECT_TRUE(gate.active());
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(gate.Step(i), Termination::kComplete) << i;
  }
  EXPECT_EQ(gate.Step(5), Termination::kStepBudget);
  // Sticky: a smaller counter cannot un-trip the gate.
  EXPECT_EQ(gate.Step(0), Termination::kStepBudget);
}

TEST(BudgetGateTest, TinyDeadlineTripsWithinTheFirstPollWindow) {
  ExecBudget budget;
  budget.deadline_seconds = 1e-12;
  BudgetGate gate(budget);
  Termination stop = Termination::kComplete;
  // The deadline is polled every 64 ticks; by tick 64 the elapsed time
  // exceeds a picosecond on any real clock.
  for (std::size_t i = 0; i < 128 && stop == Termination::kComplete; ++i) {
    stop = gate.Step(0);
  }
  EXPECT_EQ(stop, Termination::kDeadline);
}

// --- exhaustive cancellation / step-budget cut points ---

class ExhaustiveCutPointTest : public ::testing::TestWithParam<const char*> {
};

INSTANTIATE_TEST_SUITE_P(Kinds, ExhaustiveCutPointTest,
                         ::testing::Values("dl", "dl+", "dg", "dg+", "hl+",
                                           "nra"),
                         [](const auto& info) {
                           std::string name = info.param;
                           if (!name.empty() && name.back() == '+') {
                             name.back() = 'p';
                           }
                           return name;
                         });

TEST_P(ExhaustiveCutPointTest, EveryPopIndexCertifiesCorrectly) {
  const PointSet points = GenerateAnticorrelated(140, 3, 7);
  StatusOr<DifferentialHarness> harness = DifferentialHarness::Build(points);
  ASSERT_TRUE(harness.ok()) << harness.status().ToString();

  TopKQuery base;
  base.k = 9;
  base.weights = {0.2, 0.3, 0.5};
  std::size_t cost = 0;
  for (const auto& [kind, c] : harness.value().UnbudgetedCosts(base)) {
    if (kind == GetParam()) cost = c;
  }
  ASSERT_GT(cost, 0u);

  std::size_t partials = 0;
  for (std::size_t s = 1; s <= cost; ++s) {
    {
      TopKQuery query = base;
      query.budget.max_evals = s;
      const std::vector<std::string> failures =
          harness.value().CheckQuery(query, GetParam(), &partials);
      ASSERT_TRUE(failures.empty())
          << "max_evals=" << s << ": " << failures.front();
    }
    {
      CancelToken token;
      token.CancelAfterChecks(s);
      TopKQuery query = base;
      query.budget.cancel = &token;
      const std::vector<std::string> failures =
          harness.value().CheckQuery(query, GetParam(), &partials);
      ASSERT_TRUE(failures.empty())
          << "cancel after " << s << " checks: " << failures.front();
    }
  }
  EXPECT_GT(partials, 0u) << "no cut point ever produced a partial result";
}

TEST(BudgetFaultSweepTest, AllFamiliesCertifyUnderEveryStepBudget) {
  const PointSet points = GenerateAnticorrelated(90, 2, 3);
  std::vector<TopKQuery> queries;
  {
    TopKQuery query;
    query.k = 5;
    query.weights = {0.5, 0.5};  // uniform weights maximize ties
    queries.push_back(std::move(query));
  }
  {
    TopKQuery query;
    query.k = 12;
    query.weights = {0.8, 0.2};
    queries.push_back(std::move(query));
  }
  const testing::BudgetFaultReport report =
      testing::RunBudgetFaultSweep(points, queries);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_GT(report.partials, 0u);
  EXPECT_GT(report.completes, 0u);  // the s = cost boundary cases
}

// --- budgets on individual families ---

TEST(BudgetedQueryTest, ScanReturnsUncertifiedPartial) {
  const PointSet points = GenerateIndependent(500, 3, 11);
  IndexBuildConfig config;
  config.kind = "scan";
  auto built = BuildIndex(config, points);
  ASSERT_TRUE(built.ok());
  TopKQuery query;
  query.k = 10;
  query.weights = {0.3, 0.3, 0.4};
  query.budget.max_evals = 40;
  const TopKResult result = built.value()->Query(query);
  EXPECT_EQ(result.termination, Termination::kStepBudget);
  EXPECT_FALSE(result.complete());
  // An unordered scan cannot bound its unscanned suffix.
  EXPECT_EQ(result.certified_prefix, 0u);
  EXPECT_EQ(result.frontier_bound,
            -std::numeric_limits<double>::infinity());
  EXPECT_LE(result.stats.tuples_evaluated, 40u);
}

TEST(BudgetedQueryTest, DeadlineSurfacesOnLongScan) {
  const PointSet points = GenerateIndependent(20000, 3, 13);
  IndexBuildConfig config;
  config.kind = "scan";
  auto built = BuildIndex(config, points);
  ASSERT_TRUE(built.ok());
  TopKQuery query;
  query.k = 5;
  query.weights = {0.3, 0.3, 0.4};
  query.budget.deadline_seconds = 1e-12;
  const TopKResult result = built.value()->Query(query);
  EXPECT_EQ(result.termination, Termination::kDeadline);
  EXPECT_LT(result.stats.tuples_evaluated, points.size());
}

TEST(BudgetedQueryTest, DynamicIndexCertifiesAgainstExactAnswer) {
  const PointSet points = GenerateAnticorrelated(160, 3, 17);
  PointSet initial(3);
  for (std::size_t i = 0; i < 100; ++i) initial.Add(points[i]);
  TieredIndexOptions options;
  options.run.build_zero_layer = false;
  TieredDualLayerIndex dynamic(std::move(initial), options);
  for (std::size_t i = 100; i < points.size(); ++i) {
    dynamic.Insert(points[i]);
  }

  TopKQuery query;
  query.k = 12;
  query.weights = {0.4, 0.4, 0.2};
  const TopKResult exact = dynamic.Query(query);
  ASSERT_TRUE(exact.complete());
  ASSERT_EQ(exact.certified_prefix, exact.items.size());

  bool saw_partial = false;
  for (std::size_t s = 1; s <= exact.stats.tuples_evaluated; s += 3) {
    TopKQuery budgeted = query;
    budgeted.budget.max_evals = s;
    const TopKResult partial = dynamic.Query(budgeted);
    ASSERT_LE(partial.certified_prefix, partial.items.size());
    ASSERT_LE(partial.certified_prefix, exact.items.size());
    saw_partial = saw_partial || !partial.complete();
    for (std::size_t rank = 0; rank < partial.certified_prefix; ++rank) {
      EXPECT_EQ(partial.items[rank].id, exact.items[rank].id)
          << "s=" << s << " rank=" << rank;
      EXPECT_EQ(partial.items[rank].score, exact.items[rank].score);
    }
  }
  EXPECT_TRUE(saw_partial);
}

// --- recoverable rejection of malformed queries ---

TEST(InvalidQueryTest, EveryFamilyRejectsRecoverably) {
  const PointSet points = GenerateIndependent(60, 3, 9);
  for (const std::string& kind : KnownIndexKinds()) {
    IndexBuildConfig config;
    config.kind = kind;
    auto built = BuildIndex(config, points);
    ASSERT_TRUE(built.ok()) << kind;

    TopKQuery bad_dim;
    bad_dim.weights = {0.5, 0.5};  // index is 3-d
    bad_dim.k = 3;
    const TopKResult r1 = built.value()->Query(bad_dim);
    EXPECT_EQ(r1.termination, Termination::kInvalidQuery) << kind;
    EXPECT_NE(r1.error.find("dimensionality"), std::string::npos) << kind;
    EXPECT_TRUE(r1.items.empty()) << kind;
    EXPECT_EQ(r1.certified_prefix, 0u) << kind;

    TopKQuery bad_weight;
    bad_weight.weights = {0.5, -0.1, 0.6};
    bad_weight.k = 3;
    const TopKResult r2 = built.value()->Query(bad_weight);
    EXPECT_EQ(r2.termination, Termination::kInvalidQuery) << kind;
    EXPECT_NE(r2.error.find("non-negative"), std::string::npos) << kind;

    // A zero weight is the legal simplex boundary: every family must
    // accept it and agree on the answer with the brute-force scan.
    TopKQuery boundary;
    boundary.weights = {0.0, 0.4, 0.6};
    boundary.k = 3;
    const TopKResult r3 = built.value()->Query(boundary);
    EXPECT_EQ(r3.termination, Termination::kComplete) << kind;
    EXPECT_EQ(r3.items.size(), 3u) << kind;

    // The same rejection must flow through the batch path.
    const std::vector<TopKResult> batch =
        built.value()->QueryBatch({bad_dim, bad_weight});
    ASSERT_EQ(batch.size(), 2u) << kind;
    EXPECT_EQ(batch[0].termination, Termination::kInvalidQuery) << kind;
    EXPECT_EQ(batch[1].termination, Termination::kInvalidQuery) << kind;
  }
}

TEST(InvalidQueryTest, DynamicIndexRejectsRecoverably) {
  TieredIndexOptions options;
  options.run.build_zero_layer = false;
  TieredDualLayerIndex dynamic(3, options);
  const Point tuple{0.1, 0.2, 0.3};
  dynamic.Insert(PointView(tuple));
  TopKQuery bad;
  bad.weights = {1.0};
  bad.k = 1;
  const TopKResult result = dynamic.Query(bad);
  EXPECT_EQ(result.termination, Termination::kInvalidQuery);
  EXPECT_TRUE(result.items.empty());
}

// --- batch semantics: per-query budgets, shedding, worker errors ---

void ExpectSameOutcome(const TopKResult& expected, const TopKResult& actual) {
  ASSERT_EQ(expected.termination, actual.termination);
  ASSERT_EQ(expected.certified_prefix, actual.certified_prefix);
  ASSERT_EQ(expected.items.size(), actual.items.size());
  for (std::size_t i = 0; i < expected.items.size(); ++i) {
    EXPECT_EQ(expected.items[i].id, actual.items[i].id) << "rank " << i;
    EXPECT_EQ(expected.items[i].score, actual.items[i].score);
  }
  EXPECT_EQ(expected.stats.tuples_evaluated, actual.stats.tuples_evaluated);
}

TEST(BatchBudgetTest, SerialAndParallelBatchesHonourPerQueryBudgets) {
  ASSERT_EQ(ParallelThreadCount(), 4u);
  const PointSet points = GenerateAnticorrelated(600, 3, 31);
  // dl exercises the parallel fan-out, onion the serial base-class loop.
  for (const char* kind : {"dl", "onion"}) {
    IndexBuildConfig config;
    config.kind = kind;
    auto built = BuildIndex(config, points);
    ASSERT_TRUE(built.ok()) << kind;
    const TopKIndex& index = *built.value();

    std::vector<TopKQuery> queries =
        testing_util::RandomQueries(3, /*k=*/7, /*count=*/24, /*seed=*/5);
    for (std::size_t i = 0; i < queries.size(); ++i) {
      // A mix of unlimited, generous and tight step budgets.
      queries[i].budget.max_evals = (i % 3 == 0) ? 0 : 3 * i + 1;
    }
    const std::vector<TopKResult> batch = index.QueryBatch(queries);
    ASSERT_EQ(batch.size(), queries.size());
    bool saw_partial = false;
    for (std::size_t i = 0; i < queries.size(); ++i) {
      ExpectSameOutcome(index.Query(queries[i]), batch[i]);
      saw_partial = saw_partial || !batch[i].complete();
    }
    EXPECT_TRUE(saw_partial) << kind;
  }
}

// A deliberately poisoned index: proves one throwing worker cannot take
// down the batch or the process.
class ThrowingIndex : public TopKIndex {
 public:
  std::string name() const override { return "THROWING"; }
  std::size_t size() const override { return 0; }
  std::size_t dim() const override { return 1; }
  TopKResult Query(const TopKQuery& query) const override {
    if (query.k == 13) throw std::runtime_error("poisoned query k=13");
    TopKResult result;
    FinalizeComplete(result);
    return result;
  }
};

TEST(WorkerExceptionTest, ThrownExceptionSurfacesAsErrorResult) {
  ThrowingIndex index;
  std::vector<TopKQuery> queries(3);
  for (auto& query : queries) query.weights = {1.0};
  queries[0].k = 1;
  queries[1].k = 13;  // poisoned
  queries[2].k = 2;
  const std::vector<TopKResult> results = index.QueryBatch(queries);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].complete());
  EXPECT_EQ(results[1].termination, Termination::kError);
  EXPECT_NE(results[1].error.find("poisoned query"), std::string::npos);
  EXPECT_EQ(results[1].certified_prefix, 0u);
  EXPECT_TRUE(results[2].complete());
}

// --- cancellation racing a parallel batch (the TSan job runs this) ---

TEST(CancelRaceTest, CancellingASharedTokenMidBatchIsSafe) {
  ASSERT_EQ(ParallelThreadCount(), 4u);
  const PointSet points = GenerateAnticorrelated(4000, 3, 53);
  const DualLayerIndex index = DualLayerIndex::Build(points);

  CancelToken token;
  std::vector<TopKQuery> queries =
      testing_util::RandomQueries(3, /*k=*/32, /*count=*/64, /*seed=*/6);
  for (TopKQuery& query : queries) query.budget.cancel = &token;

  std::thread canceller([&token] {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    token.Cancel();
  });
  const std::vector<TopKResult> results = index.QueryBatch(queries);
  canceller.join();

  ASSERT_EQ(results.size(), queries.size());
  for (const TopKResult& result : results) {
    // Depending on timing a query either finished or was cancelled;
    // nothing else is acceptable, and partials stay well-formed.
    ASSERT_TRUE(result.termination == Termination::kComplete ||
                result.termination == Termination::kCancelled)
        << TerminationName(result.termination);
    EXPECT_LE(result.certified_prefix, result.items.size());
  }

  // After the token fired, new queries stop at their first check.
  TopKQuery cancelled = queries.front();
  const TopKResult late = index.Query(cancelled);
  EXPECT_EQ(late.termination, Termination::kCancelled);
}

}  // namespace
}  // namespace drli
