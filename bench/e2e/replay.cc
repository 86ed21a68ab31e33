#include "replay.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "scenarios/constrained.h"
#include "scenarios/diversified.h"

namespace drli {
namespace bench {

namespace {

// One DL+ call a coordinator made for a read.
struct DlCall {
  const DualLayerIndex* index = nullptr;
  std::size_t k = 0;
  const std::vector<TupleId>* ids = nullptr;  // local -> global; null = same
  QueryScratch* scratch = nullptr;  // the partition's private scratch
};

struct CallResult {
  std::vector<ScoredTuple> items;  // global ids
  std::int64_t span = -1;          // its dual_layer.query span
  std::size_t evals = 0;
  std::size_t virtual_evals = 0;
};

// Replays `calls` twice: through DualLayerIndex::Query's one shared
// thread-local scratch (spans dual_layer.query, children of `parent`),
// and through each partition's own warm scratch (dual_layer.warm_query,
// alternatives). Their difference is the cost of re-seeding the shared
// scratch on every partition switch. The order alternates by request so
// neither pass always runs on caches the other warmed.
bool ReplayCalls(Trace& trace, std::uint64_t request, std::int64_t parent,
                 const Point& weights, const std::vector<DlCall>& calls,
                 std::vector<CallResult>* out, std::string* error) {
  out->assign(calls.size(), CallResult{});
  std::vector<std::vector<ScoredTuple>> warm_items(calls.size());
  const bool warm_first = request % 2 == 1;
  for (int pass = 0; pass < 2; ++pass) {
    const bool warm = (pass == 0) == warm_first;
    for (std::size_t i = 0; i < calls.size(); ++i) {
      const DlCall& call = calls[i];
      TopKQuery query;
      query.weights = weights;
      query.k = call.k;
      const Clock::time_point start = Clock::now();
      TopKResult result = warm ? call.index->Query(query, call.scratch)
                               : call.index->Query(query);
      const Clock::time_point end = Clock::now();
      const std::int64_t span = trace.Add(
          request, warm ? "dual_layer.warm_query" : "dual_layer.query", start,
          end, parent, warm);
      Span& s = trace.at(span);
      s.evals = result.stats.tuples_evaluated;
      s.virtual_evals = result.stats.virtual_evaluated;
      s.items = result.items.size();
      if (!result.complete()) {
        *error = std::string("replayed partition call stopped: ") +
                 TerminationName(result.termination);
        return false;
      }
      if (call.ids != nullptr) {
        for (ScoredTuple& item : result.items) item.id = (*call.ids)[item.id];
      }
      if (warm) {
        warm_items[i] = std::move(result.items);
      } else {
        CallResult& r = (*out)[i];
        r.items = std::move(result.items);
        r.span = span;
        r.evals = result.stats.tuples_evaluated;
        r.virtual_evals = result.stats.virtual_evaluated;
      }
    }
  }
  for (std::size_t i = 0; i < calls.size(); ++i) {
    if (!SameItems(warm_items[i], (*out)[i].items)) {
      *error = "private-scratch replay differs from the shared-scratch one";
      return false;
    }
  }
  return true;
}

// The shards a sharded read opened: the first `touched` non-empty
// shards in (lower bound, shard) order, each asked for min(k, |shard|).
std::vector<DlCall> ShardCalls(const ShardedDualLayerIndex& index,
                               const Point& weights, std::size_t k,
                               std::size_t touched, ReplayState& state) {
  std::vector<std::pair<double, std::size_t>> order;
  for (std::size_t s = 0; s < index.num_shards(); ++s) {
    if (index.shard_members(s).empty()) continue;
    order.emplace_back(index.ShardLowerBound(s, weights), s);
  }
  std::sort(order.begin(), order.end());
  state.partition_scratch.resize(index.num_shards());
  std::vector<DlCall> calls;
  for (std::size_t i = 0; i < std::min(touched, order.size()); ++i) {
    const std::size_t s = order[i].second;
    calls.push_back(DlCall{&index.shard(s),
                           std::min(k, index.shard_members(s).size()),
                           &index.shard_members(s),
                           &state.partition_scratch[s]});
  }
  return calls;
}

// The runs a tiered read opened: the first `opened` runs holding a live
// member, in (corner bound, slot) order from run(i).bound_values, each
// asked for min(|run|, k + dead).
std::vector<DlCall> RunCalls(const TieredDualLayerIndex& index,
                             const Point& weights, std::size_t k,
                             std::size_t opened, ReplayState& state) {
  const std::size_t d = index.dim();
  std::vector<std::pair<double, std::size_t>> order;
  for (std::size_t r = 0; r < index.num_runs(); ++r) {
    const TieredRun& run = index.run(r);
    if (run.ids.size() <= run.dead) continue;
    double bound = std::numeric_limits<double>::infinity();
    for (std::size_t at = 0; at < run.bound_values.size(); at += d) {
      bound = std::min(bound,
                       Score(weights, PointView(&run.bound_values[at], d)));
    }
    order.emplace_back(bound, r);
  }
  std::sort(order.begin(), order.end());
  // Private scratches follow the runs; merged-away runs drop theirs.
  std::map<std::uint32_t, QueryScratch> kept;
  for (std::size_t r = 0; r < index.num_runs(); ++r) {
    const std::uint32_t uid = index.run(r).uid;
    kept[uid] = std::move(state.run_scratch[uid]);
  }
  state.run_scratch = std::move(kept);
  std::vector<DlCall> calls;
  for (std::size_t i = 0; i < std::min(opened, order.size()); ++i) {
    const TieredRun& run = index.run(order[i].second);
    calls.push_back(DlCall{&run.index,
                           std::min(run.ids.size(), k + run.dead), &run.ids,
                           &state.run_scratch[run.uid]});
  }
  return calls;
}

// Marks the calls that contributed an item to `answer`.
void MarkUseful(Trace& trace, const std::vector<CallResult>& calls,
                const std::vector<ScoredTuple>& answer) {
  std::vector<TupleId> ids;
  for (const ScoredTuple& item : answer) ids.push_back(item.id);
  std::sort(ids.begin(), ids.end());
  for (const CallResult& call : calls) {
    for (const ScoredTuple& item : call.items) {
      if (std::binary_search(ids.begin(), ids.end(), item.id)) {
        trace.at(call.span).useful = true;
        break;
      }
    }
  }
}

std::vector<ScoredTuple> FirstK(std::vector<ScoredTuple> items,
                                std::size_t k) {
  std::sort(items.begin(), items.end(), ResultOrderLess);
  if (items.size() > k) items.resize(k);
  return items;
}

}  // namespace

bool SameItems(const std::vector<ScoredTuple>& a,
               const std::vector<ScoredTuple>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id || a[i].score != b[i].score) return false;
  }
  return true;
}

bool TraceEngine(Trace& trace, std::uint64_t request, std::int64_t parent,
                 const Engine& engine, const wire::WireQuery& query,
                 ReplayState& state, std::vector<ScoredTuple>* answer,
                 std::string* error) {
  const std::size_t k = static_cast<std::size_t>(query.k);
  if (query.scenario == wire::Scenario::kConstrained) {
    ConstrainedQuery q;
    q.weights = query.weights;
    q.k = k;
    q.box = query.box;
    const Clock::time_point start = Clock::now();
    TopKResult result = engine.dl        ? ConstrainedTopK(*engine.dl, q)
                        : engine.sharded ? ConstrainedTopK(*engine.sharded, q)
                                         : ConstrainedTopK(*engine.tiered, q);
    const Clock::time_point end = Clock::now();
    Span& span = trace.at(
        trace.Add(request, "scenarios.constrained", start, end, parent));
    span.evals = result.stats.tuples_evaluated;
    span.items = result.items.size();
    state.boxes_pruned += result.stats.boxes_pruned;
    if (!result.complete()) {
      *error = "constrained read stopped early";
      return false;
    }
    *answer = std::move(result.items);
    return true;
  }

  if (query.scenario == wire::Scenario::kDiversified) {
    DiversifiedQuery q;
    q.weights = query.weights;
    q.k = k;
    q.lambda = query.lambda;
    q.pool_factor = static_cast<std::size_t>(query.pool_factor);
    const Clock::time_point start = Clock::now();
    const DiversifiedResult result =
        DiversifiedTopK(*engine.dl, engine.dl->points(), q);
    const Clock::time_point end = Clock::now();
    const std::int64_t span =
        trace.Add(request, "engine.query", start, end, parent);
    trace.at(span).evals = result.stats.tuples_evaluated;
    trace.at(span).virtual_evals = result.stats.virtual_evaluated;
    trace.at(span).items = result.picks.size();
    if (!result.complete()) {
      *error = "diversified read stopped early";
      return false;
    }
    ++state.diversified;
    state.pool_size += result.pool_size;
    // The pool queries: max(k, pool_factor * k) items, doubled until the
    // greedy certifies every pick.
    const std::size_t n = engine.dl->size();
    std::vector<DlCall> calls;
    state.partition_scratch.resize(1);
    for (std::size_t m = std::min(n, std::max(k, q.pool_factor * k));;
         m = std::min(n, 2 * m)) {
      calls.push_back(
          DlCall{engine.dl, m, nullptr, &state.partition_scratch[0]});
      if (m >= result.pool_size || m == n) break;
    }
    if (calls.back().k != result.pool_size) {
      *error =
          "replayed pool sizes do not reach the engine's pool (the pool "
          "schedule changed? see \"Engine policies the replay copies\" in "
          "bench/e2e/README.md)";
      return false;
    }
    std::vector<CallResult> replayed;
    if (!ReplayCalls(trace, request, span, q.weights, calls, &replayed,
                     error)) {
      return false;
    }
    std::size_t evals = 0, virtual_evals = 0;
    for (const CallResult& r : replayed) {
      evals += r.evals;
      virtual_evals += r.virtual_evals;
    }
    if (evals != result.stats.tuples_evaluated ||
        virtual_evals != result.stats.virtual_evaluated) {
      *error =
          "replayed pool queries evaluate a different tuple count (see "
          "\"Engine policies the replay copies\" in bench/e2e/README.md)";
      return false;
    }
    // Only the last pool feeds the greedy; earlier rounds are discarded.
    trace.at(replayed.back().span).useful = true;
    const std::vector<ScoredTuple>& pool = replayed.back().items;
    answer->clear();
    for (const DiversifiedPick& pick : result.picks) {
      const bool in_pool =
          std::any_of(pool.begin(), pool.end(), [&](const ScoredTuple& t) {
            return t.id == pick.id && t.score == pick.score;
          });
      if (!in_pool) {
        *error = "a diversified pick is missing from the replayed pool";
        return false;
      }
      answer->push_back(ScoredTuple{pick.id, pick.score});
    }
    return true;
  }

  TopKQuery q;
  q.weights = query.weights;
  q.k = k;
  const Clock::time_point start = Clock::now();
  TopKResult result = engine.dl        ? engine.dl->Query(q)
                      : engine.sharded ? engine.sharded->Query(q)
                                       : engine.tiered->Query(q);
  const Clock::time_point end = Clock::now();
  const std::int64_t span =
      trace.Add(request, "engine.query", start, end, parent);
  trace.at(span).evals = result.stats.tuples_evaluated;
  trace.at(span).virtual_evals = result.stats.virtual_evaluated;
  trace.at(span).items = result.items.size();
  if (!result.complete()) {
    *error = "plain read stopped early";
    return false;
  }

  std::vector<DlCall> calls;
  std::vector<ScoredTuple> merged;
  std::size_t evals = 0;
  if (engine.dl != nullptr) {
    state.partition_scratch.resize(1);
    calls.push_back(DlCall{engine.dl, k, nullptr, &state.partition_scratch[0]});
  } else if (engine.sharded != nullptr) {
    calls = ShardCalls(*engine.sharded, q.weights, k,
                       result.stats.shards_touched, state);
    if (calls.size() != result.stats.shards_touched) {
      *error =
          "replay cannot open as many shards as the engine touched (the "
          "shard visit policy changed? see \"Engine policies the replay "
          "copies\" in bench/e2e/README.md)";
      return false;
    }
  } else {
    const TieredDualLayerIndex& tiered = *engine.tiered;
    calls = RunCalls(tiered, q.weights, k, result.stats.runs_opened, state);
    if (calls.size() != result.stats.runs_opened) {
      *error =
          "replay cannot open as many runs as the engine opened (the run "
          "visit policy changed? see \"Engine policies the replay copies\" "
          "in bench/e2e/README.md)";
      return false;
    }
    // The memtable scan is the coordinator's own work (engine.self).
    for (std::size_t i = 0; i < tiered.memtable_ids().size(); ++i) {
      merged.push_back(ScoredTuple{tiered.memtable_ids()[i],
                                   Score(q.weights, tiered.memtable()[i])});
    }
    evals += merged.size();
  }

  std::vector<CallResult> replayed;
  if (!ReplayCalls(trace, request, span, q.weights, calls, &replayed, error)) {
    return false;
  }
  std::size_t virtual_evals = 0;
  for (CallResult& r : replayed) {
    evals += r.evals;
    virtual_evals += r.virtual_evals;
    if (engine.tiered != nullptr) {
      std::erase_if(r.items, [&](const ScoredTuple& t) {
        return engine.tiered->tombstones().count(t.id) != 0;
      });
    }
    merged.insert(merged.end(), r.items.begin(), r.items.end());
  }
  merged = FirstK(std::move(merged), k);
  if (evals != result.stats.tuples_evaluated ||
      virtual_evals != result.stats.virtual_evaluated) {
    *error =
        "replayed partition calls evaluate a different tuple count (see "
        "\"Engine policies the replay copies\" in bench/e2e/README.md)";
    return false;
  }
  if (!SameItems(merged, result.items)) {
    *error =
        "merged replay answer differs from the engine's (see \"Engine "
        "policies the replay copies\" in bench/e2e/README.md)";
    return false;
  }
  MarkUseful(trace, replayed, merged);
  *answer = std::move(result.items);
  return true;
}

bool PerLayerMetrics(const Trace& trace, double generate_s, double build_s,
                     std::vector<Metric>* out, std::string* error) {
  const SpanTotals engine = trace.Totals("engine.query");
  const SpanTotals dl = trace.Totals("dual_layer.query");
  const SpanTotals warm = trace.Totals("dual_layer.warm_query");
  if (engine.count == 0 || dl.count == 0 || dl.evals == 0 || dl.items == 0) {
    *error = "the traced run replayed no partition call";
    return false;
  }
  const double reads = static_cast<double>(engine.count);
  const double items = static_cast<double>(engine.items);
  *out = {
      {"engine.query_us", engine.total_us / reads, "us"},
      {"engine.self_us", engine.self_us / reads, "us"},
      {"dual_layer.query_us", dl.total_us / reads, "us"},
      {"dual_layer.warm_query_us", warm.total_us / reads, "us"},
      {"dual_layer.reseed_us", (dl.total_us - warm.total_us) / reads, "us"},
      {"dual_layer.calls_per_query", static_cast<double>(dl.count) / reads,
       "count"},
      {"dual_layer.evals_per_query", static_cast<double>(dl.evals) / reads,
       "count"},
      {"dual_layer.virtual_evals_per_query",
       static_cast<double>(dl.virtual_evals) / reads, "count"},
      {"dual_layer.useful_ratio", items / static_cast<double>(dl.evals),
       "ratio"},
      {"engine.fetch_ratio", items / static_cast<double>(dl.items), "ratio"},
      {"engine.useful_call_ratio",
       static_cast<double>(dl.useful) / static_cast<double>(dl.count),
       "ratio"},
      {"data.generate_s", generate_s, "s"},
      {"index.build_s", build_s, "s"},
  };
  return true;
}

void ScenarioDetails(const Trace& trace, const ReplayState& state,
                     std::size_t n, std::vector<Metric>* details) {
  const SpanTotals constrained = trace.Totals("scenarios.constrained");
  if (constrained.count > 0) {
    const double c = static_cast<double>(constrained.count);
    details->push_back(
        {"scenarios.constrained_us", constrained.total_us / c, "us"});
    details->push_back({"scenarios.boxes_pruned",
                        static_cast<double>(state.boxes_pruned) / c, "count"});
  }
  if (state.diversified > 0) {
    const SpanTotals engine = trace.Totals("engine.query");
    const double c = static_cast<double>(state.diversified);
    details->push_back(
        {"scenarios.diversified_us", engine.total_us / c, "us"});
    details->push_back({"scenarios.pool_size",
                        static_cast<double>(state.pool_size) / c, "count"});
    details->push_back(
        {"scenarios.evals_per_n",
         static_cast<double>(engine.evals) / c / static_cast<double>(n),
         "ratio"});
  }
}

}  // namespace bench
}  // namespace drli
