#include <cmath>
#include <vector>

#include "gtest/gtest.h"

#include "common/random.h"
#include "geometry/simplex_lp.h"

namespace drli {
namespace {

TEST(SimplexLpTest, SimpleMaximization) {
  // max x + y s.t. x + 2y <= 4, 3x + y <= 6 -> optimum at (1.6, 1.2).
  LinearProgram lp(2);
  lp.AddConstraint(std::vector<double>{1, 2}, LpRelation::kLessEq, 4);
  lp.AddConstraint(std::vector<double>{3, 1}, LpRelation::kLessEq, 6);
  lp.SetMaximize(std::vector<double>{1, 1});
  const LpResult r = lp.Solve();
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 2.8, 1e-9);
  EXPECT_NEAR(r.x[0], 1.6, 1e-9);
  EXPECT_NEAR(r.x[1], 1.2, 1e-9);
}

TEST(SimplexLpTest, SimpleMinimizationWithGreaterEq) {
  // min 2x + 3y s.t. x + y >= 4, x >= 1 -> optimum (4, 0) -> 8.
  LinearProgram lp(2);
  lp.AddConstraint(std::vector<double>{1, 1}, LpRelation::kGreaterEq, 4);
  lp.AddConstraint(std::vector<double>{1, 0}, LpRelation::kGreaterEq, 1);
  lp.SetMinimize(std::vector<double>{2, 3});
  const LpResult r = lp.Solve();
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 8.0, 1e-9);
}

TEST(SimplexLpTest, EqualityConstraint) {
  // min x s.t. x + y = 1, y <= 0.25 -> x = 0.75.
  LinearProgram lp(2);
  lp.AddConstraint(std::vector<double>{1, 1}, LpRelation::kEqual, 1);
  lp.AddConstraint(std::vector<double>{0, 1}, LpRelation::kLessEq, 0.25);
  lp.SetMinimize(std::vector<double>{1, 0});
  const LpResult r = lp.Solve();
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.x[0], 0.75, 1e-9);
  EXPECT_NEAR(r.x[1], 0.25, 1e-9);
}

TEST(SimplexLpTest, InfeasibleDetected) {
  LinearProgram lp(1);
  lp.AddConstraint(std::vector<double>{1}, LpRelation::kLessEq, 1);
  lp.AddConstraint(std::vector<double>{1}, LpRelation::kGreaterEq, 2);
  EXPECT_FALSE(lp.IsFeasible());
  EXPECT_EQ(lp.Solve().status, LpStatus::kInfeasible);
}

TEST(SimplexLpTest, UnboundedDetected) {
  LinearProgram lp(1);
  lp.AddConstraint(std::vector<double>{1}, LpRelation::kGreaterEq, 1);
  lp.SetMaximize(std::vector<double>{1});
  EXPECT_EQ(lp.Solve().status, LpStatus::kUnbounded);
}

TEST(SimplexLpTest, NegativeRhsNormalized) {
  // x - y <= -1 with x,y >= 0: feasible (e.g. y = 1, x = 0).
  LinearProgram lp(2);
  lp.AddConstraint(std::vector<double>{1, -1}, LpRelation::kLessEq, -1);
  EXPECT_TRUE(lp.IsFeasible());
}

TEST(SimplexLpTest, FeasibilityOfSimplexMembership) {
  // Is (0.5, 0.5) a convex combination of (0,1) and (1,0)? Yes.
  LinearProgram lp(2);
  lp.AddConstraint(std::vector<double>{1, 1}, LpRelation::kEqual, 1);
  lp.AddConstraint(std::vector<double>{0, 1}, LpRelation::kLessEq, 0.5);
  lp.AddConstraint(std::vector<double>{1, 0}, LpRelation::kLessEq, 0.5);
  EXPECT_TRUE(lp.IsFeasible());

  // Is (0.2, 0.2) reachable? No: lambda sums to 1 so coordinates sum
  // to 1 > 0.4.
  LinearProgram lp2(2);
  lp2.AddConstraint(std::vector<double>{1, 1}, LpRelation::kEqual, 1);
  lp2.AddConstraint(std::vector<double>{0, 1}, LpRelation::kLessEq, 0.2);
  lp2.AddConstraint(std::vector<double>{1, 0}, LpRelation::kLessEq, 0.2);
  EXPECT_FALSE(lp2.IsFeasible());
}

TEST(SimplexLpTest, DegenerateTiesTerminate) {
  // Degenerate vertex (multiple constraints meet): Bland's rule must
  // still terminate.
  LinearProgram lp(2);
  lp.AddConstraint(std::vector<double>{1, 1}, LpRelation::kLessEq, 1);
  lp.AddConstraint(std::vector<double>{1, 1}, LpRelation::kLessEq, 1);
  lp.AddConstraint(std::vector<double>{1, 0}, LpRelation::kLessEq, 1);
  lp.SetMaximize(std::vector<double>{1, 1});
  const LpResult r = lp.Solve();
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 1.0, 1e-9);
}

TEST(SimplexLpTest, ResetAndSolveIntoMatchAFreshProgram) {
  // A reused program and result (the EDS test's workspace) must solve
  // exactly as fresh ones: Reset drops the rows, the objective and its
  // sense, and Solve(LpResult*) refills x.
  LinearProgram reused(2);
  reused.AddConstraint(std::vector<double>{1, 1}, LpRelation::kGreaterEq, 9);
  reused.SetMaximize(std::vector<double>{1, 1});
  LpResult into;
  reused.Solve(&into);
  ASSERT_EQ(into.status, LpStatus::kUnbounded);

  reused.Reset(3);
  LinearProgram fresh(3);
  for (LinearProgram* lp : {&reused, &fresh}) {
    lp->AddConstraint(std::vector<double>{1, 1, 1}, LpRelation::kEqual, 1);
    lp->AddConstraint(std::vector<double>{0, 1, 2}, LpRelation::kLessEq, 0.5);
    lp->SetMinimize(std::vector<double>{3, 1, 2});
  }
  EXPECT_EQ(reused.num_vars(), 3u);
  EXPECT_EQ(reused.num_constraints(), 2u);
  reused.Solve(&into);
  const LpResult expected = fresh.Solve();
  ASSERT_EQ(into.status, LpStatus::kOptimal);
  ASSERT_EQ(expected.status, LpStatus::kOptimal);
  EXPECT_EQ(into.objective, expected.objective);
  EXPECT_EQ(into.x, expected.x);

  // Reset with no constraints and no objective: a feasible zero program.
  reused.Reset(1);
  reused.Solve(&into);
  ASSERT_EQ(into.status, LpStatus::kOptimal);
  EXPECT_EQ(into.objective, 0.0);
  EXPECT_EQ(into.x, std::vector<double>{0.0});
}

TEST(SimplexLpTest, RandomFeasibilityAgainstSampling) {
  // Random interval systems in 1-3 vars: LP feasibility must agree
  // with a dense grid sampling oracle.
  Rng rng(3);
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t nv = 1 + rng.Index(3);
    LinearProgram lp(nv);
    std::vector<std::vector<double>> rows;
    std::vector<double> rhs;
    std::vector<LpRelation> rels;
    const std::size_t nc = 1 + rng.Index(4);
    for (std::size_t c = 0; c < nc; ++c) {
      std::vector<double> row(nv);
      for (auto& v : row) v = rng.Uniform(-1.0, 1.0);
      const double b = rng.Uniform(-0.5, 1.0);
      const LpRelation rel =
          rng.Index(2) == 0 ? LpRelation::kLessEq : LpRelation::kGreaterEq;
      lp.AddConstraint(row, rel, b);
      rows.push_back(row);
      rhs.push_back(b);
      rels.push_back(rel);
    }
    // Grid-sample [0, 2]^nv.
    bool sampled_feasible = false;
    const int steps = nv == 1 ? 200 : (nv == 2 ? 60 : 25);
    std::vector<int> idx(nv, 0);
    while (true) {
      std::vector<double> x(nv);
      for (std::size_t j = 0; j < nv; ++j) x[j] = 2.0 * idx[j] / steps;
      bool ok = true;
      for (std::size_t c = 0; c < nc && ok; ++c) {
        double lhs = 0;
        for (std::size_t j = 0; j < nv; ++j) lhs += rows[c][j] * x[j];
        // Strict margin so a sampled witness is feasible exactly.
        ok = rels[c] == LpRelation::kLessEq ? lhs <= rhs[c] - 1e-9
                                            : lhs >= rhs[c] + 1e-9;
      }
      if (ok) {
        sampled_feasible = true;
        break;
      }
      std::size_t j = 0;
      while (j < nv && ++idx[j] > steps) idx[j++] = 0;
      if (j == nv) break;
    }
    // Sampling feasible implies LP feasible (grid point is a witness,
    // modulo boundary tolerance). The converse may fail when the
    // feasible region misses the grid, so only assert one direction.
    if (sampled_feasible) {
      EXPECT_TRUE(lp.IsFeasible()) << "trial " << trial;
    }
  }
}

}  // namespace
}  // namespace drli
