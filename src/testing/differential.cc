#include "testing/differential.h"

#include <map>
#include <sstream>

namespace drli {

namespace {

// Families compared by exact (id, score) sequence. The sdl+ entries are
// the sharded scatter-gather family at shard counts that cover the
// degenerate (S=1), even-split, both-partitioner, and
// n-not-divisible-by-S cases; all must merge to the bit-identical
// unsharded answer. The tdl+ entries are the tiered dynamic family
// (relation fed through Insert, so the run table is live): a tiny
// memtable forcing many runs and compactions, and a capacity that
// leaves a partially filled memtable plus runs straddling ties.
constexpr const char* kExactKinds[] = {
    "scan", "onion",  "pli",    "ta", "nra",  "prefer", "lpta",
    "dg",   "dg+",    "hl",     "hl+", "dl",  "dl+",    "sdl+1",
    "sdl+2r", "sdl+4h", "sdl+7r", "tdl+7", "tdl+32"};
// Families compared by score sequence only (tie ids may differ).
constexpr const char* kScoreOnlyKinds[] = {"fa"};

std::string DescribeQuery(const TopKQuery& query) {
  std::ostringstream out;
  out << "k=" << query.k << " w=(";
  for (std::size_t i = 0; i < query.weights.size(); ++i) {
    out << (i ? "," : "") << query.weights[i];
  }
  out << ")";
  return out.str();
}

}  // namespace

StatusOr<DifferentialHarness> DifferentialHarness::Build(
    const PointSet& points) {
  DifferentialHarness harness(points);
  auto add = [&](const std::string& kind, bool exact) -> Status {
    IndexBuildConfig config;
    config.kind = kind;
    StatusOr<std::unique_ptr<TopKIndex>> built = BuildIndex(config, points);
    if (!built.ok()) return built.status();
    harness.families_.push_back(Family{kind, exact, std::move(built).value()});
    return Status::Ok();
  };
  for (const char* kind : kExactKinds) {
    Status status = add(kind, /*exact=*/true);
    if (!status.ok()) return status;
  }
  for (const char* kind : kScoreOnlyKinds) {
    Status status = add(kind, /*exact=*/false);
    if (!status.ok()) return status;
  }
  return harness;
}

std::vector<std::string> DifferentialHarness::CheckQuery(
    const TopKQuery& query, const std::string& only_kind,
    std::size_t* partials) const {
  std::vector<std::string> failures;
  const TopKReference reference(universe_, query.weights, query.k);
  const bool budgeted = !query.budget.unlimited();

  std::map<std::string, std::size_t> costs;
  for (const Family& family : families_) {
    if (!only_kind.empty() && family.kind != only_kind) continue;
    const TopKResult result = family.index->Query(query);
    costs[family.kind] = result.stats.tuples_evaluated;
    if (partials != nullptr && !result.complete()) ++(*partials);
    // A query is FP-robust when every pair of dataset scores is either
    // bitwise identical (an exact tie the canonical order resolves by
    // id) or separated by more than the tolerance. Geometric families
    // cannot honor ulp-level splits -- coplanar or accumulation-order
    // effects legitimately reorder those -- so such queries fall back
    // to tie-class comparison.
    const MatchRule rule = !reference.robust() ? MatchRule::kTieClass
                           : family.exact      ? MatchRule::kExact
                                               : MatchRule::kScoreOnly;
    const std::string failure = reference.Check(result, rule, query.budget);
    if (!failure.empty()) {
      failures.push_back("[" + family.kind + (budgeted ? " budget] " : "] ") +
                         DescribeQuery(query) + ": " + failure);
    }
  }

  // Theorem 2's cost containment on shared data: the dual-resolution
  // traversal never evaluates more than the single-resolution one.
  // Tie-probe charges are bounded by the k-th answer's bitwise tie
  // class, and ulp-ambiguous queries can shift layer stops, so the
  // assertion carries that slack and only fires on robust, unbudgeted
  // queries.
  if (budgeted || !reference.robust()) return failures;
  std::size_t kth_ties = 0;  // tuples bitwise-tying the k-th answer
  if (!reference.answer().empty()) {
    for (double score : reference.scores()) {
      kth_ties += score == reference.answer().back().score;
    }
  }
  const std::size_t slack = kth_ties > 0 ? kth_ties - 1 : 0;
  const auto contain = [&](const char* dual, const char* single) {
    if (!costs.count(dual) || !costs.count(single) ||
        costs[dual] <= costs[single] + slack) {
      return;
    }
    std::ostringstream out;
    out << "[" << dual << "] " << DescribeQuery(query) << ": evaluated "
        << costs[dual] << " tuples, more than " << single << "'s "
        << costs[single] << " plus tie slack " << slack;
    failures.push_back(out.str());
  };
  contain("dl", "dg");
  // In 2-d DL+ answers through the exact weight-range table while DG+
  // uses clustered pseudo-tuples -- different zero layers, so pointwise
  // containment only holds where both build the same L0 (d >= 3,
  // identical clustering inputs).
  if (universe_.rows.dim() >= 3) contain("dl+", "dg+");
  return failures;
}

std::vector<std::pair<std::string, std::size_t>>
DifferentialHarness::UnbudgetedCosts(const TopKQuery& query) const {
  TopKQuery unlimited = query;
  unlimited.budget = ExecBudget{};
  std::vector<std::pair<std::string, std::size_t>> costs;
  costs.reserve(families_.size());
  for (const Family& family : families_) {
    costs.emplace_back(family.kind,
                       family.index->Query(unlimited).stats.tuples_evaluated);
  }
  return costs;
}

}  // namespace drli
