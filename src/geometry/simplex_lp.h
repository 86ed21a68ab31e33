// A small dense two-phase simplex solver.
//
// DRLI solves only tiny linear programs: the ∃-dominance-set facet test
// (d variables, d+1 constraints), convex-skyline vertex membership
// (d variables, one constraint per hull neighbour), and the exact
// oracles used by the test suite. The solver is a textbook tableau
// simplex with Bland's rule, which is plenty at these sizes and cannot
// cycle.
//
// Canonical form: variables x >= 0; each constraint is
//   a . x (<=|>=|==) b;   objective: minimize c . x.

#ifndef DRLI_GEOMETRY_SIMPLEX_LP_H_
#define DRLI_GEOMETRY_SIMPLEX_LP_H_

#include <cstddef>
#include <span>
#include <vector>

namespace drli {

enum class LpRelation { kLessEq, kGreaterEq, kEqual };

enum class LpStatus { kOptimal, kInfeasible, kUnbounded };

struct LpResult {
  LpStatus status = LpStatus::kInfeasible;
  std::vector<double> x;    // primal solution when kOptimal
  double objective = 0.0;   // c . x when kOptimal
};

class LinearProgram {
 public:
  // A program over `num_vars` non-negative variables with zero
  // objective (pure feasibility) until SetMinimize is called.
  explicit LinearProgram(std::size_t num_vars);

  // Clears every constraint and the objective and sets `num_vars`, so
  // one program can be refilled without giving its storage back (the
  // hot path's thread-local workspaces).
  void Reset(std::size_t num_vars);

  std::size_t num_vars() const { return num_vars_; }
  std::size_t num_constraints() const { return rows_.size(); }

  // Reserves storage for `n` constraints (optional, a hot-path hint).
  void ReserveConstraints(std::size_t n) {
    rows_.reserve(n);
    row_coeffs_.reserve(n * num_vars_);
  }

  // Appends the constraint coeffs . x (rel) rhs.
  void AddConstraint(std::span<const double> coeffs, LpRelation rel,
                     double rhs);

  // Sets the objective to minimize coeffs . x.
  void SetMinimize(std::span<const double> coeffs);
  // Sets the objective to maximize coeffs . x.
  void SetMaximize(std::span<const double> coeffs);

  // Runs two-phase simplex. Deterministic; no randomness involved.
  LpResult Solve() const;
  // Solve into *result, reusing the capacity of result->x.
  void Solve(LpResult* result) const;

  // Convenience: true iff the constraint system admits any feasible
  // point (objective ignored).
  bool IsFeasible() const;

 private:
  struct RowMeta {
    LpRelation rel;
    double rhs;
  };

  // Shared two-phase body; feasibility_only runs phase 2 with a zero
  // objective (equivalent to, but cheaper than, solving a copy with
  // the objective cleared) and leaves result->x and the objective
  // untouched.
  void SolveImpl(bool feasibility_only, LpResult* result) const;

  std::size_t num_vars_;
  std::vector<RowMeta> rows_;
  // Constraint coefficients, flat with stride num_vars_; row i occupies
  // [i * num_vars_, (i + 1) * num_vars_).
  std::vector<double> row_coeffs_;
  std::vector<double> objective_;  // minimize form
  bool maximize_ = false;          // flips the reported objective sign
};

}  // namespace drli

#endif  // DRLI_GEOMETRY_SIMPLEX_LP_H_
