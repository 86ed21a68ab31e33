#include "geometry/simplex_lp.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/check.h"

namespace drli {

namespace {

constexpr double kTol = 1e-9;

// One simplex run over an explicit tableau.
//   tableau: m rows of `cols` coefficient entries plus the rhs in the
//            final slot, stored flat with stride cols + 1.
//   basis:   basis[i] = column basic in row i.
//   cost:    objective coefficients per column (minimization).
//   can_enter: columns allowed to enter the basis.
// Returns kOptimal/kUnbounded; on optimal, *objective holds the value.
LpStatus RunSimplex(double* tableau, std::size_t m,
                    std::vector<std::size_t>& basis,
                    const std::vector<double>& cost,
                    const std::vector<bool>& can_enter, std::size_t cols,
                    double* objective) {
  const std::size_t stride = cols + 1;
  while (true) {
    // Reduced costs: rc_j = c_j - sum_i c_B(i) * T[i][j]. Recomputed
    // from scratch every iteration; the LPs in this library are tiny.
    // Basic columns are summarized in a bitmask when they fit in one
    // word (the common case), avoiding an O(m) scan per column.
    std::uint64_t basic_mask = 0;
    const bool small = cols <= 64;
    if (small) {
      for (std::size_t i = 0; i < m; ++i) basic_mask |= 1ull << basis[i];
    }
    std::size_t entering = cols;
    for (std::size_t j = 0; j < cols; ++j) {
      if (!can_enter[j]) continue;
      bool is_basic;
      if (small) {
        is_basic = (basic_mask >> j) & 1;
      } else {
        is_basic = false;
        for (std::size_t i = 0; i < m; ++i) {
          if (basis[i] == j) {
            is_basic = true;
            break;
          }
        }
      }
      if (is_basic) continue;
      double rc = cost[j];
      for (std::size_t i = 0; i < m; ++i) {
        if (cost[basis[i]] != 0.0) {
          rc -= cost[basis[i]] * tableau[i * stride + j];
        }
      }
      if (rc < -kTol) {
        entering = j;  // Bland's rule: smallest improving index.
        break;
      }
    }
    if (entering == cols) {
      double obj = 0.0;
      for (std::size_t i = 0; i < m; ++i) {
        obj += cost[basis[i]] * tableau[i * stride + cols];
      }
      *objective = obj;
      return LpStatus::kOptimal;
    }

    // Ratio test; Bland tie-break on the smallest basis column.
    std::size_t leaving = m;
    double best_ratio = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < m; ++i) {
      const double a = tableau[i * stride + entering];
      if (a <= kTol) continue;
      const double ratio = tableau[i * stride + cols] / a;
      if (ratio < best_ratio - kTol ||
          (ratio < best_ratio + kTol &&
           (leaving == m || basis[i] < basis[leaving]))) {
        best_ratio = ratio;
        leaving = i;
      }
    }
    if (leaving == m) return LpStatus::kUnbounded;

    // Pivot on (leaving, entering).
    const double pivot = tableau[leaving * stride + entering];
    double* lrow = tableau + leaving * stride;
    for (std::size_t j = 0; j <= cols; ++j) lrow[j] /= pivot;
    for (std::size_t i = 0; i < m; ++i) {
      if (i == leaving) continue;
      const double factor = tableau[i * stride + entering];
      if (factor == 0.0) continue;
      double* row = tableau + i * stride;
      for (std::size_t j = 0; j <= cols; ++j) {
        row[j] -= factor * lrow[j];
      }
    }
    basis[leaving] = entering;
  }
}

// rhs-flipped relation of a row (rows with negative rhs are negated
// during tableau assembly).
LpRelation EffectiveRelation(LpRelation rel, double rhs) {
  if (rhs >= 0) return rel;
  if (rel == LpRelation::kLessEq) return LpRelation::kGreaterEq;
  if (rel == LpRelation::kGreaterEq) return LpRelation::kLessEq;
  return LpRelation::kEqual;
}

}  // namespace

LinearProgram::LinearProgram(std::size_t num_vars) { Reset(num_vars); }

void LinearProgram::Reset(std::size_t num_vars) {
  DRLI_CHECK(num_vars >= 1);
  num_vars_ = num_vars;
  rows_.clear();
  row_coeffs_.clear();
  objective_.assign(num_vars, 0.0);
  maximize_ = false;
}

void LinearProgram::AddConstraint(std::span<const double> coeffs,
                                  LpRelation rel, double rhs) {
  DRLI_CHECK_EQ(coeffs.size(), num_vars_);
  row_coeffs_.insert(row_coeffs_.end(), coeffs.begin(), coeffs.end());
  rows_.push_back(RowMeta{rel, rhs});
}

void LinearProgram::SetMinimize(std::span<const double> coeffs) {
  DRLI_CHECK_EQ(coeffs.size(), num_vars_);
  objective_.assign(coeffs.begin(), coeffs.end());
  maximize_ = false;
}

void LinearProgram::SetMaximize(std::span<const double> coeffs) {
  DRLI_CHECK_EQ(coeffs.size(), num_vars_);
  objective_.resize(num_vars_);
  for (std::size_t j = 0; j < num_vars_; ++j) objective_[j] = -coeffs[j];
  maximize_ = true;
}

LpResult LinearProgram::Solve() const {
  LpResult result;
  SolveImpl(false, &result);
  return result;
}

void LinearProgram::Solve(LpResult* result) const { SolveImpl(false, result); }

bool LinearProgram::IsFeasible() const {
  LpResult result;
  SolveImpl(true, &result);
  return result.status == LpStatus::kOptimal;
}

void LinearProgram::SolveImpl(bool feasibility_only, LpResult* result) const {
  const std::size_t m = rows_.size();

  // Column layout: [original vars][slack/surplus][artificials][rhs].
  // <= rows take a slack and need no artificial; >= and == rows take an
  // artificial (>= additionally takes a surplus column). Rows with a
  // negative rhs are negated (flipping the relation) as the tableau is
  // assembled, so no normalized copy of the rows is materialized.
  std::size_t num_slack = 0;
  std::size_t num_artificial = 0;
  for (const RowMeta& r : rows_) {
    const LpRelation rel = EffectiveRelation(r.rel, r.rhs);
    if (rel != LpRelation::kEqual) ++num_slack;
    if (rel != LpRelation::kLessEq) ++num_artificial;
  }
  const std::size_t slack_base = num_vars_;
  const std::size_t art_base = num_vars_ + num_slack;
  const std::size_t cols = art_base + num_artificial;
  const std::size_t stride = cols + 1;

  // Scratch reused across calls: the EDS facet test solves hundreds of
  // thousands of tiny LPs per build, and per-call heap churn was a
  // measurable fraction of build time. thread_local keeps the parallel
  // build race-free.
  thread_local std::vector<double> tableau;
  thread_local std::vector<std::size_t> basis;
  tableau.assign(m * stride, 0.0);
  basis.assign(m, 0);
  std::size_t next_slack = slack_base;
  std::size_t next_art = art_base;
  for (std::size_t i = 0; i < m; ++i) {
    const RowMeta& r = rows_[i];
    const double* coeffs = row_coeffs_.data() + i * num_vars_;
    const bool flip = r.rhs < 0;
    double* row = tableau.data() + i * stride;
    for (std::size_t j = 0; j < num_vars_; ++j) {
      row[j] = flip ? -coeffs[j] : coeffs[j];
    }
    row[cols] = flip ? -r.rhs : r.rhs;
    switch (EffectiveRelation(r.rel, r.rhs)) {
      case LpRelation::kLessEq:
        row[next_slack] = 1.0;
        basis[i] = next_slack++;
        break;
      case LpRelation::kGreaterEq:
        row[next_slack] = -1.0;
        ++next_slack;
        row[next_art] = 1.0;
        basis[i] = next_art++;
        break;
      case LpRelation::kEqual:
        row[next_art] = 1.0;
        basis[i] = next_art++;
        break;
    }
  }

  thread_local std::vector<double> cost;
  thread_local std::vector<bool> can_enter;

  // Phase 1: minimize the sum of artificials.
  if (num_artificial > 0) {
    cost.assign(cols, 0.0);
    for (std::size_t j = art_base; j < cols; ++j) cost[j] = 1.0;
    can_enter.assign(cols, true);
    double phase1_obj = 0.0;
    const LpStatus status = RunSimplex(tableau.data(), m, basis, cost,
                                       can_enter, cols, &phase1_obj);
    DRLI_CHECK(status == LpStatus::kOptimal)
        << "phase-1 LP cannot be unbounded";
    if (phase1_obj > 1e-7) {
      result->status = LpStatus::kInfeasible;
      return;
    }
    // Drive remaining artificials out of the basis where possible.
    for (std::size_t i = 0; i < m; ++i) {
      if (basis[i] < art_base) continue;
      std::size_t pivot_col = cols;
      for (std::size_t j = 0; j < art_base; ++j) {
        if (std::fabs(tableau[i * stride + j]) > kTol) {
          pivot_col = j;
          break;
        }
      }
      if (pivot_col == cols) continue;  // redundant row; artificial stays 0
      const double pivot = tableau[i * stride + pivot_col];
      double* prow = tableau.data() + i * stride;
      for (std::size_t j = 0; j <= cols; ++j) prow[j] /= pivot;
      for (std::size_t r2 = 0; r2 < m; ++r2) {
        if (r2 == i) continue;
        const double factor = tableau[r2 * stride + pivot_col];
        if (factor == 0.0) continue;
        double* row = tableau.data() + r2 * stride;
        for (std::size_t j = 0; j <= cols; ++j) {
          row[j] -= factor * prow[j];
        }
      }
      basis[i] = pivot_col;
    }
  }

  // Phase 2: the real objective; artificial columns may not re-enter.
  // A feasibility-only solve keeps the zero objective, which makes this
  // phase a no-op beyond the optimality check.
  cost.assign(cols, 0.0);
  if (!feasibility_only) {
    for (std::size_t j = 0; j < num_vars_; ++j) cost[j] = objective_[j];
  }
  can_enter.assign(cols, true);
  for (std::size_t j = art_base; j < cols; ++j) can_enter[j] = false;
  double obj = 0.0;
  const LpStatus status =
      RunSimplex(tableau.data(), m, basis, cost, can_enter, cols, &obj);
  if (status == LpStatus::kUnbounded) {
    result->status = LpStatus::kUnbounded;
    return;
  }

  result->status = LpStatus::kOptimal;
  if (feasibility_only) return;
  result->objective = maximize_ ? -obj : obj;
  result->x.assign(num_vars_, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    if (basis[i] < num_vars_) result->x[basis[i]] = tableau[i * stride + cols];
  }
}

}  // namespace drli
