#include "testing/scenario_oracle.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <sstream>
#include <vector>

#include "common/random.h"
#include "core/dual_layer.h"
#include "core/tiered_index.h"
#include "scenarios/constrained.h"
#include "scenarios/diversified.h"
#include "scenarios/reverse_topk.h"
#include "shard/sharded_index.h"

namespace drli {

namespace {

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

// Exact comparison: engines and the scan share the scalar Score and
// the canonical order, so complete answers must match bit-for-bit.
void CompareConstrained(const char* engine, const TopKResult& got,
                        const TopKResult& want, const ConstrainedQuery& query,
                        std::uint64_t seed,
                        std::vector<std::string>* failures) {
  std::ostringstream tag;
  tag << "seed=" << seed << " constrained/" << engine << " k=" << query.k
      << " " << DescribeWeights(query.weights) << " " << DescribeBox(query.box);
  if (!got.complete()) {
    failures->push_back(tag.str() + ": unbudgeted query did not complete: " +
                        got.error);
    return;
  }
  if (got.certified_prefix != got.items.size()) {
    failures->push_back(tag.str() + ": complete result not fully certified");
  }
  if (got.items.size() != want.items.size()) {
    std::ostringstream out;
    out << tag.str() << ": size " << got.items.size() << " want "
        << want.items.size();
    failures->push_back(out.str());
    return;
  }
  for (std::size_t i = 0; i < want.items.size(); ++i) {
    if (got.items[i].id != want.items[i].id ||
        got.items[i].score != want.items[i].score) {
      std::ostringstream out;
      out << tag.str() << ": item " << i << " = (" << got.items[i].id << ","
          << got.items[i].score << ") want (" << want.items[i].id << ","
          << want.items[i].score << ")";
      failures->push_back(out.str());
      return;
    }
  }
}

// A budgeted partial must certify only a true prefix of the exact
// answer, and its frontier bound must not exclude any unreturned
// in-box tuple scoring strictly below it.
void CheckConstrainedPartial(const char* engine, const TopKResult& got,
                             const TopKResult& want,
                             const ConstrainedQuery& query, std::uint64_t seed,
                             std::vector<std::string>* failures) {
  std::ostringstream tag;
  tag << "seed=" << seed << " constrained-budget/" << engine << " k=" << query.k
      << " " << DescribeBox(query.box);
  if (got.certified_prefix > got.items.size()) {
    failures->push_back(tag.str() + ": certified_prefix exceeds items");
    return;
  }
  if (got.certified_prefix > want.items.size()) {
    failures->push_back(tag.str() + ": certified more than the answer holds");
    return;
  }
  for (std::size_t i = 0; i < got.certified_prefix; ++i) {
    if (got.items[i].id != want.items[i].id ||
        got.items[i].score != want.items[i].score) {
      std::ostringstream out;
      out << tag.str() << ": certified item " << i << " = ("
          << got.items[i].id << "," << got.items[i].score << ") want ("
          << want.items[i].id << "," << want.items[i].score << ")";
      failures->push_back(out.str());
      return;
    }
  }
  if (got.complete() && (got.certified_prefix != got.items.size() ||
                         got.items.size() != want.items.size())) {
    failures->push_back(tag.str() +
                        ": complete budgeted run disagrees with reference");
  }
}

void RunConstrainedProbe(const ScenarioEngines& engines,
                         const PointSet& points, const ConstrainedQuery& query,
                         std::size_t budget_probes, Rng& rng,
                         std::uint64_t seed,
                         std::vector<std::string>* failures) {
  const TopKResult want = ConstrainedTopKScan(points, query);
  const TopKResult dl = ConstrainedTopK(engines.dl, query);
  const TopKResult sdl = ConstrainedTopK(engines.sdl, query);
  const TopKResult tdl = ConstrainedTopK(engines.tdl, query);
  CompareConstrained("dl+", dl, want, query, seed, failures);
  CompareConstrained("sdl+", sdl, want, query, seed, failures);
  CompareConstrained("tdl+", tdl, want, query, seed, failures);

  // Budget cuts across the full cost range, engine by engine.
  const std::size_t max_cost =
      std::max({dl.stats.tuples_evaluated, sdl.stats.tuples_evaluated,
                tdl.stats.tuples_evaluated, std::size_t{1}});
  for (std::size_t cut = 0; cut < budget_probes; ++cut) {
    ConstrainedQuery budgeted = query;
    budgeted.budget.max_evals = 1 + rng.Index(max_cost);
    CheckConstrainedPartial("dl+", ConstrainedTopK(engines.dl, budgeted),
                            want, budgeted, seed, failures);
    CheckConstrainedPartial("sdl+", ConstrainedTopK(engines.sdl, budgeted),
                            want, budgeted, seed, failures);
    CheckConstrainedPartial("tdl+", ConstrainedTopK(engines.tdl, budgeted),
                            want, budgeted, seed, failures);
  }
}

// === diversified ============================================================

void CompareDiversified(const char* engine, const DiversifiedResult& got,
                        const DiversifiedResult& want,
                        const DiversifiedQuery& query, std::uint64_t seed,
                        std::vector<std::string>* failures) {
  std::ostringstream tag;
  tag << "seed=" << seed << " diversified/" << engine << " k=" << query.k
      << " lambda=" << query.lambda << " " << DescribeWeights(query.weights);
  if (!got.complete()) {
    failures->push_back(tag.str() + ": unbudgeted query did not complete: " +
                        got.error);
    return;
  }
  if (got.certified_prefix != got.picks.size()) {
    failures->push_back(tag.str() + ": complete result not fully certified");
  }
  if (got.picks.size() != want.picks.size()) {
    std::ostringstream out;
    out << tag.str() << ": picks " << got.picks.size() << " want "
        << want.picks.size();
    failures->push_back(out.str());
    return;
  }
  for (std::size_t i = 0; i < want.picks.size(); ++i) {
    if (got.picks[i].id != want.picks[i].id ||
        got.picks[i].score != want.picks[i].score ||
        got.picks[i].utility != want.picks[i].utility) {
      std::ostringstream out;
      out << tag.str() << ": pick " << i << " = id " << got.picks[i].id
          << " g=" << got.picks[i].utility << " want id " << want.picks[i].id
          << " g=" << want.picks[i].utility;
      failures->push_back(out.str());
      return;
    }
  }
}

void RunDiversifiedProbe(const ScenarioEngines& engines,
                         const PointSet& points, const DiversifiedQuery& query,
                         std::uint64_t seed, Rng& rng,
                         std::vector<std::string>* failures) {
  const DiversifiedResult want = DiversifiedTopKScan(points, query);
  CompareDiversified("dl+", DiversifiedTopK(engines.dl, points, query), want,
                     query, seed, failures);
  CompareDiversified("sdl+", DiversifiedTopK(engines.sdl, points, query),
                     want, query, seed, failures);
  CompareDiversified("tdl+", DiversifiedTopK(engines.tdl, points, query),
                     want, query, seed, failures);

  // One budget cut: the certified prefix must be a true greedy prefix.
  DiversifiedQuery budgeted = query;
  budgeted.budget.max_evals = 1 + rng.Index(std::max<std::size_t>(
                                      1, points.size()));
  const DiversifiedResult partial =
      DiversifiedTopK(engines.dl, points, budgeted);
  std::ostringstream tag;
  tag << "seed=" << seed << " diversified-budget k=" << query.k
      << " lambda=" << query.lambda;
  if (partial.certified_prefix > partial.picks.size() ||
      partial.certified_prefix > want.picks.size()) {
    failures->push_back(tag.str() + ": certified prefix out of range");
    return;
  }
  for (std::size_t i = 0; i < partial.certified_prefix; ++i) {
    if (partial.picks[i].id != want.picks[i].id ||
        partial.picks[i].utility != want.picks[i].utility) {
      std::ostringstream out;
      out << tag.str() << ": certified pick " << i << " = id "
          << partial.picks[i].id << " want id " << want.picks[i].id;
      failures->push_back(out.str());
      return;
    }
  }
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

std::vector<std::string> CheckScenarioFamilies(
    const PointSet& points, std::uint64_t seed,
    const ScenarioOracleOptions& options) {
  std::vector<std::string> failures;
  const std::size_t n = points.size();
  const std::size_t d = points.dim();
  if (n == 0 || d < 2) return failures;

  Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  ScenarioEngines engines = BuildEngines(points, rng);

  // --- constrained: data-spanned boxes + boundary weights ---
  for (std::size_t probe = 0; probe < options.constrained_probes; ++probe) {
    ConstrainedQuery query;
    query.weights = probe % 3 == 2 ? BoundaryWeights(rng, d)
                                   : rng.SimplexWeight(d);
    query.k = 1 + rng.Index(n + 2);  // includes k > |matches|
    query.box = BoxFromTuples(points, static_cast<TupleId>(rng.Index(n)),
                              static_cast<TupleId>(rng.Index(n)));
    RunConstrainedProbe(engines, points, query, options.budget_probes, rng,
                        seed, &failures);
  }

  if (options.degenerate_boxes) {
    const TupleId anchor = static_cast<TupleId>(rng.Index(n));
    ConstrainedQuery query;
    query.weights = rng.SimplexWeight(d);
    query.k = 3;

    // Inverted (empty) box: matches nothing on any engine.
    query.box = AttributeBox::All(d);
    query.box.lo[0] = 1.0;
    query.box.hi[0] = 0.0;
    RunConstrainedProbe(engines, points, query, 0, rng, seed, &failures);

    // All-space box: the constrained answer is the plain top-k.
    query.box = AttributeBox::All(d);
    RunConstrainedProbe(engines, points, query, 0, rng, seed, &failures);

    // k = 0 over the all-space box: complete and empty everywhere.
    query.k = 0;
    RunConstrainedProbe(engines, points, query, 0, rng, seed, &failures);

    // Point box (lo == hi == a data point): exactly the duplicates of
    // the anchor qualify; k far beyond the match count.
    query.box = BoxFromTuples(points, anchor, anchor);
    query.k = n + 3;
    RunConstrainedProbe(engines, points, query, 0, rng, seed, &failures);
  }

  // --- diversified ---
  for (std::size_t probe = 0; probe < options.diversified_probes; ++probe) {
    DiversifiedQuery query;
    query.weights = rng.SimplexWeight(d);
    query.k = 1 + rng.Index(std::min<std::size_t>(n + 1, 6));
    query.lambda = probe == 0 ? 0.0 : rng.Uniform(0.05, 2.0);
    query.pool_factor = 2;  // small: forces pool growth to certify
    RunDiversifiedProbe(engines, points, query, seed, rng, &failures);
  }

  // --- reverse (2-d only) ---
  if (d == 2) {
    for (std::size_t probe = 0; probe < options.reverse_probes; ++probe) {
      ReverseTopKQuery query;
      query.target = static_cast<TupleId>(rng.Index(n));
      query.k = 1 + rng.Index(5);
      RunReverseProbe(engines, points, query, seed, rng, &failures);
    }
  }
  return failures;
}

}  // namespace drli
