#include "testing/scenario_oracle.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <sstream>
#include <vector>

#include "common/random.h"
#include "core/dual_layer.h"
#include "core/tiered_index.h"
#include "scenarios/constrained.h"
#include "scenarios/diversified.h"
#include "scenarios/reverse_topk.h"
#include "shard/sharded_index.h"
#include "testing/result_check.h"

namespace drli {

namespace {

// Random constrained probes (each runs on DL+, sharded, tiered).
constexpr std::size_t kConstrainedProbes = 3;
// Budgeted re-runs per constrained probe.
constexpr std::size_t kBudgetProbes = 2;
// Diversified probes (greedy vs. brute-force greedy).
constexpr std::size_t kDiversifiedProbes = 2;
// Reverse top-k probes (d == 2 datasets only).
constexpr std::size_t kReverseProbes = 3;

// Reverse-interval endpoints: the table breakpoint B/(B-A) and the
// sweep crossing (ia-ib)/(sb-sa) are the same rational number computed
// through different FP expressions; they agree to ~1 ulp, far inside
// this tolerance, while genuinely distinct breakpoints on fuzz-scale
// datasets sit far outside it.
constexpr double kIntervalEps = 1e-9;

std::string DescribeBox(const AttributeBox& box) {
  std::ostringstream out;
  out << "box=";
  for (std::size_t a = 0; a < box.dim(); ++a) {
    out << (a ? "x" : "") << "[" << box.lo[a] << "," << box.hi[a] << "]";
  }
  return out.str();
}

std::string DescribeWeights(const Point& weights) {
  std::ostringstream out;
  out << "w=(";
  for (std::size_t i = 0; i < weights.size(); ++i) {
    out << (i ? "," : "") << weights[i];
  }
  out << ")";
  return out.str();
}

// An axis-aligned box spanned by two sampled tuples. Both span points
// sit exactly on box corners, so FP boundary ties on the inclusive
// edges are exercised by construction.
AttributeBox BoxFromTuples(const PointSet& points, TupleId a, TupleId b) {
  const std::size_t d = points.dim();
  AttributeBox box;
  box.lo.resize(d);
  box.hi.resize(d);
  for (std::size_t attr = 0; attr < d; ++attr) {
    box.lo[attr] = std::min(points.At(a, attr), points.At(b, attr));
    box.hi[attr] = std::max(points.At(a, attr), points.At(b, attr));
  }
  return box;
}

// Simplex weights with one coordinate forced to exactly zero
// (renormalized) -- the ValidateQuery boundary every family must
// accept. Requires d >= 2 so one positive entry survives.
Point BoundaryWeights(Rng& rng, std::size_t d) {
  Point w = rng.SimplexWeight(d);
  w[rng.Index(d)] = 0.0;
  double sum = 0.0;
  for (double v : w) sum += v;
  for (double& v : w) v /= sum;
  return w;
}

struct ScenarioEngines {
  DualLayerIndex dl;
  ShardedDualLayerIndex sdl;
  TieredDualLayerIndex tdl;
};

ScenarioEngines BuildEngines(const PointSet& points, Rng& rng) {
  DualLayerOptions dl_opts;
  dl_opts.build_zero_layer = true;
  dl_opts.build_threads = 1;

  ShardedBuildOptions sh_opts;
  sh_opts.num_shards = 2 + rng.Index(3);  // 2..4
  sh_opts.shard_options.build_zero_layer = true;
  sh_opts.build_threads = 1;

  // Small memtable so realistic datasets land in several runs; pure
  // inserts in id order keep tiered ids identical to row ids.
  TieredIndexOptions t_opts;
  t_opts.memtable_capacity = 8 + rng.Index(25);

  ScenarioEngines engines{
      DualLayerIndex::Build(points, dl_opts),
      ShardedDualLayerIndex::Build(points, sh_opts),
      TieredDualLayerIndex(points.dim(), t_opts),
  };
  for (std::size_t i = 0; i < points.size(); ++i) {
    engines.tdl.Insert(points[i]);
  }
  return engines;
}

// === constrained ============================================================

// Every engine (and the production scan) against the checker's top-k
// over the in-box rows, held to the exact rule: engines and reference
// share the scalar Score and the canonical order, so complete answers
// match bit-for-bit, and budgeted partials must certify a true prefix
// and report a frontier no unreturned in-box tuple scores below.
void RunConstrainedProbe(const ScenarioEngines& engines,
                         const CheckUniverse& universe,
                         const ConstrainedQuery& query,
                         std::size_t budget_probes, Rng& rng,
                         std::uint64_t seed,
                         std::vector<std::string>* failures) {
  const TopKReference reference(universe.InBox(query.box), query.weights,
                                query.k);
  const auto check = [&](const char* engine, const TopKResult& got,
                         const ExecBudget& budget) {
    const std::string failure =
        reference.Check(got, MatchRule::kExact, budget);
    if (failure.empty()) return;
    std::ostringstream out;
    out << "seed=" << seed << " constrained/" << engine << " k=" << query.k;
    if (budget.max_evals > 0) out << " max_evals=" << budget.max_evals;
    out << " " << DescribeWeights(query.weights) << " "
        << DescribeBox(query.box) << ": " << failure;
    failures->push_back(out.str());
  };
  check("scan", ConstrainedTopKScan(universe.rows, query), query.budget);
  const TopKResult dl = ConstrainedTopK(engines.dl, query);
  const TopKResult sdl = ConstrainedTopK(engines.sdl, query);
  const TopKResult tdl = ConstrainedTopK(engines.tdl, query);
  check("dl+", dl, query.budget);
  check("sdl+", sdl, query.budget);
  check("tdl+", tdl, query.budget);

  // Budget cuts across the full cost range, engine by engine.
  const std::size_t max_cost =
      std::max({dl.stats.tuples_evaluated, sdl.stats.tuples_evaluated,
                tdl.stats.tuples_evaluated, std::size_t{1}});
  for (std::size_t cut = 0; cut < budget_probes; ++cut) {
    ConstrainedQuery budgeted = query;
    budgeted.budget.max_evals = 1 + rng.Index(max_cost);
    check("dl+", ConstrainedTopK(engines.dl, budgeted), budgeted.budget);
    check("sdl+", ConstrainedTopK(engines.sdl, budgeted), budgeted.budget);
    check("tdl+", ConstrainedTopK(engines.tdl, budgeted), budgeted.budget);
  }
}

// === diversified ============================================================

// Every engine against the brute-force greedy, plus one budget cut on
// DL+ whose certified picks must be a true greedy prefix.
void RunDiversifiedProbe(const ScenarioEngines& engines,
                         const PointSet& points, const DiversifiedQuery& query,
                         std::uint64_t seed, Rng& rng,
                         std::vector<std::string>* failures) {
  const DiversifiedResult want = DiversifiedTopKScan(points, query);
  const auto check = [&](const char* engine, const DiversifiedResult& got,
                         const ExecBudget& budget) {
    const std::string failure = CheckPicks(got, want, budget);
    if (failure.empty()) return;
    std::ostringstream out;
    out << "seed=" << seed << " diversified/" << engine << " k=" << query.k;
    if (budget.max_evals > 0) out << " max_evals=" << budget.max_evals;
    out << " lambda=" << query.lambda << " " << DescribeWeights(query.weights)
        << ": " << failure;
    failures->push_back(out.str());
  };
  check("dl+", DiversifiedTopK(engines.dl, points, query), query.budget);
  check("sdl+", DiversifiedTopK(engines.sdl, points, query), query.budget);
  check("tdl+", DiversifiedTopK(engines.tdl, points, query), query.budget);

  DiversifiedQuery budgeted = query;
  budgeted.budget.max_evals = 1 + rng.Index(std::max<std::size_t>(
                                      1, points.size()));
  check("dl+", DiversifiedTopK(engines.dl, points, budgeted), budgeted.budget);
}

// === reverse ================================================================

// Brute membership: is `target` in the canonical top-k at weight
// (w1, 1 - w1)? Only called at weights > kIntervalEps away from every
// interval endpoint, where the answer is FP-unambiguous.
bool InTopK2D(const PointSet& points, TupleId target, std::size_t k,
              double w1) {
  const Point w{w1, 1.0 - w1};
  const double target_score = Score(w, points[target]);
  std::size_t better = 0;
  for (std::size_t id = 0; id < points.size(); ++id) {
    const double s = Score(w, points[id]);
    if (s < target_score || (s == target_score && id < target)) ++better;
  }
  return better < k;
}

void RunReverseProbe(const ScenarioEngines& engines, const PointSet& points,
                     const ReverseTopKQuery& query, std::uint64_t seed,
                     Rng& rng, std::vector<std::string>* failures) {
  const ReverseTopKResult want = ReverseTopK2DScan(points, query);
  const ReverseTopKResult got = ReverseTopK2D(engines.dl, query);
  std::ostringstream tag;
  tag << "seed=" << seed << " reverse target=" << query.target
      << " k=" << query.k
      << (got.used_weight_table ? " (weight-table)" : " (sweep)");
  if (!got.complete() || !want.complete()) {
    failures->push_back(tag.str() + ": unbudgeted reverse did not complete");
    return;
  }
  if (got.intervals.size() != want.intervals.size()) {
    std::ostringstream out;
    out << tag.str() << ": " << got.intervals.size() << " intervals, want "
        << want.intervals.size();
    failures->push_back(out.str());
    return;
  }
  for (std::size_t i = 0; i < want.intervals.size(); ++i) {
    if (std::abs(got.intervals[i].lo - want.intervals[i].lo) > kIntervalEps ||
        std::abs(got.intervals[i].hi - want.intervals[i].hi) > kIntervalEps) {
      std::ostringstream out;
      out << tag.str() << ": interval " << i << " = [" << got.intervals[i].lo
          << "," << got.intervals[i].hi << "] want [" << want.intervals[i].lo
          << "," << want.intervals[i].hi << "]";
      failures->push_back(out.str());
      return;
    }
  }
  // Membership probes at random interior points of each interval (wide
  // intervals only: the probe must sit clear of both FP-fuzzy
  // endpoints). Random rather than midpoint: degenerate datasets (many
  // collinear rows) put multi-way score crossings at round weights like
  // 1/2, where membership can hold at exactly one point via the id
  // tie-break -- a measure-zero event intervals legitimately ignore,
  // and one a symmetric midpoint hits with probability ~1.
  const auto interior = [&rng](double lo, double hi) {
    return lo + rng.Uniform(0.25, 0.75) * (hi - lo);
  };
  for (const WeightInterval& iv : want.intervals) {
    if (iv.hi - iv.lo <= 4 * kIntervalEps) continue;
    const double probe_w = interior(iv.lo, iv.hi);
    if (!InTopK2D(points, query.target, query.k, probe_w)) {
      std::ostringstream out;
      out << tag.str() << ": target not in top-k at reported w1=" << probe_w;
      failures->push_back(out.str());
      return;
    }
  }
  // And inside the complementary gaps: there the target must NOT be a
  // member.
  double prev = 0.0;
  for (std::size_t i = 0; i <= want.intervals.size(); ++i) {
    const double next =
        i < want.intervals.size() ? want.intervals[i].lo : 1.0;
    if (next - prev > 4 * kIntervalEps) {
      const double probe_w = interior(prev, next);
      if (InTopK2D(points, query.target, query.k, probe_w)) {
        std::ostringstream out;
        out << tag.str() << ": target unexpectedly in top-k at gap w1="
            << probe_w;
        failures->push_back(out.str());
        return;
      }
    }
    if (i < want.intervals.size()) prev = want.intervals[i].hi;
  }
}

}  // namespace

std::vector<std::string> CheckScenarioFamilies(const PointSet& points,
                                               std::uint64_t seed) {
  std::vector<std::string> failures;
  const std::size_t n = points.size();
  const std::size_t d = points.dim();
  if (n == 0 || d < 2) return failures;

  Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  ScenarioEngines engines = BuildEngines(points, rng);
  const CheckUniverse universe = CheckUniverse::Of(points);

  // --- constrained: data-spanned boxes + boundary weights ---
  for (std::size_t probe = 0; probe < kConstrainedProbes; ++probe) {
    ConstrainedQuery query;
    query.weights = probe % 3 == 2 ? BoundaryWeights(rng, d)
                                   : rng.SimplexWeight(d);
    query.k = 1 + rng.Index(n + 2);  // includes k > |matches|
    query.box = BoxFromTuples(points, static_cast<TupleId>(rng.Index(n)),
                              static_cast<TupleId>(rng.Index(n)));
    RunConstrainedProbe(engines, universe, query, kBudgetProbes, rng, seed,
                        &failures);
  }

  // --- constrained: the fixed degenerate-box battery ---
  {
    const TupleId anchor = static_cast<TupleId>(rng.Index(n));
    ConstrainedQuery query;
    query.weights = rng.SimplexWeight(d);
    query.k = 3;

    // Inverted (empty) box: matches nothing on any engine.
    query.box = AttributeBox::All(d);
    query.box.lo[0] = 1.0;
    query.box.hi[0] = 0.0;
    RunConstrainedProbe(engines, universe, query, 0, rng, seed, &failures);

    // All-space box: the constrained answer is the plain top-k.
    query.box = AttributeBox::All(d);
    RunConstrainedProbe(engines, universe, query, 0, rng, seed, &failures);

    // k = 0 over the all-space box: complete and empty everywhere.
    query.k = 0;
    RunConstrainedProbe(engines, universe, query, 0, rng, seed, &failures);

    // Point box (lo == hi == a data point): exactly the duplicates of
    // the anchor qualify; k far beyond the match count.
    query.box = BoxFromTuples(points, anchor, anchor);
    query.k = n + 3;
    RunConstrainedProbe(engines, universe, query, 0, rng, seed, &failures);
  }

  // --- diversified ---
  for (std::size_t probe = 0; probe < kDiversifiedProbes; ++probe) {
    DiversifiedQuery query;
    query.weights = rng.SimplexWeight(d);
    query.k = 1 + rng.Index(std::min<std::size_t>(n + 1, 6));
    query.lambda = probe == 0 ? 0.0 : rng.Uniform(0.05, 2.0);
    query.pool_factor = 2;  // small: forces pool growth to certify
    RunDiversifiedProbe(engines, points, query, seed, rng, &failures);
  }

  // --- reverse (2-d only) ---
  if (d == 2) {
    for (std::size_t probe = 0; probe < kReverseProbes; ++probe) {
      ReverseTopKQuery query;
      query.target = static_cast<TupleId>(rng.Index(n));
      query.k = 1 + rng.Index(5);
      RunReverseProbe(engines, points, query, seed, rng, &failures);
    }
  }
  return failures;
}

}  // namespace drli
