// Top-k query model (Definition 1) and the interface every index in the
// library implements, including the cost instrumentation of
// Definition 9 (number of tuples evaluated by the scoring function) and
// the serving-grade execution controls: per-query budgets, cooperative
// cancellation, and certified partial results (see DESIGN.md §5,
// "Serving robustness").

#ifndef DRLI_TOPK_QUERY_H_
#define DRLI_TOPK_QUERY_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/point.h"
#include "common/status.h"
#include "common/stopwatch.h"

namespace drli {

// Cooperative cancellation flag shared between a caller and one or more
// in-flight queries. Cancel() may be called from any thread; traversal
// loops poll cancelled() at every budget check and stop with
// Termination::kCancelled. Plain relaxed atomics: cancellation is a
// latency hint, not a synchronization point.
class CancelToken {
 public:
  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }

  bool cancelled() const {
    if (cancelled_.load(std::memory_order_relaxed)) return true;
    // Deterministic test fuse (see CancelAfterChecks).
    if (fuse_.load(std::memory_order_relaxed) <= 0) return false;
    if (fuse_.fetch_sub(1, std::memory_order_relaxed) <= 1) {
      cancelled_.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

  // Test hook for the budget-fault sweeps: the first `polls` calls to
  // cancelled() return false, every later call returns true. With the
  // single-threaded traversal loops polling exactly once per step this
  // fires cancellation at a deterministic step index.
  void CancelAfterChecks(std::uint64_t polls) {
    cancelled_.store(false, std::memory_order_relaxed);
    fuse_.store(static_cast<std::int64_t>(polls) + 1,
                std::memory_order_relaxed);
  }

 private:
  mutable std::atomic<bool> cancelled_{false};
  mutable std::atomic<std::int64_t> fuse_{0};
};

// Execution budget attached to a query. Zero-valued fields mean
// "unlimited"; the default budget is free on the hot path (a single
// branch per traversal step, see BudgetGate).
struct ExecBudget {
  // Wall-clock allowance for the Query call, measured from its start
  // (so serial and parallel QueryBatch give each query the same
  // allowance). 0 = no deadline.
  double deadline_seconds = 0.0;
  // Cap on stats.tuples_evaluated; the traversal stops at the first
  // step boundary at or past the cap (a single step may score several
  // successors, so the final count can overshoot by one step's worth).
  // 0 = unlimited.
  std::size_t max_evals = 0;
  // Optional cancellation flag, polled once per traversal step. Not
  // owned; must outlive the query.
  const CancelToken* cancel = nullptr;

  bool unlimited() const {
    return deadline_seconds <= 0.0 && max_evals == 0 && cancel == nullptr;
  }
};

// A linear top-k query: non-negative finite weights summing to 1 (at
// least one strictly positive), and the retrieval size k. Lower scores
// are better. Zero weights are legal in every family -- queries on the
// weight-simplex boundary arise naturally from reverse top-k slope
// intervals and constrained scenarios (see ValidateQuery).
struct TopKQuery {
  Point weights;
  std::size_t k = 1;
  ExecBudget budget{};
};

struct ScoredTuple {
  TupleId id = kInvalidTupleId;
  double score = 0.0;
};

// Canonical result order shared by every index family: ascending score
// (lower is better), ties broken by ascending tuple id. All TopKIndex
// implementations return result.items sorted by this rule and resolve
// exact score ties in its favour, so any two families agree on the
// exact (id, score) sequence -- the contract the differential oracle in
// src/testing/ relies on.
inline bool ResultOrderLess(const ScoredTuple& a, const ScoredTuple& b) {
  if (a.score != b.score) return a.score < b.score;
  return a.id < b.id;
}

// Cost accounting (Definition 9): a tuple counts as evaluated when it is
// accessed and its score computed. Pseudo-tuples of the zero layer are
// tracked separately -- they are not relation tuples.
struct QueryStats {
  std::size_t tuples_evaluated = 0;
  std::size_t virtual_evaluated = 0;
  // Shards whose per-shard index actually ran for this query (sharded
  // families only; 0 for single-partition indexes). The scatter-gather
  // coordinator's pruning effectiveness metric: nonempty_shards -
  // shards_touched shards were skipped outright. For a constrained
  // read, the shards whose box tree had at least one node expanded.
  std::size_t shards_touched = 0;
  // Runs the tiered dynamic index opened for this query (tiered family
  // only; 0 elsewhere). num_runs - runs_opened runs were pruned by
  // their frontier lower bound. For a constrained read, the runs whose
  // box tree had at least one node expanded.
  std::size_t runs_opened = 0;
  // Box-tree nodes discarded by a constrained-query predicate without
  // scoring any member (scenarios/constrained.h only; 0 elsewhere); a
  // shard or run whose root box misses the constraint box is one node.
  // The constrained walk's pruning effectiveness metric.
  std::size_t boxes_pruned = 0;
  // DL/DL+ partition calls whose query scratch had to seed its O(nodes)
  // per-slot state because it last served another index (or none):
  // 1 or 0 per DualLayerIndex call, summed by coordinators. Stays 0
  // once an index's scratch pool is warm (core/dual_layer.h).
  std::size_t scratch_seeds = 0;
  // Adjacency entries the DL/DL+ traversal read: ∀ rows (a pseudo-
  // tuple's fine-free prefix), the lazy ∀-gate's pending lists and
  // parent entries, ∃ rows and weight-table chain neighbours. The
  // traversal's memory cost beside Definition 9's evaluations; summed
  // by coordinators, 0 for other families, not on the wire.
  std::size_t edges_walked = 0;
  // Wall time of the Query call (seconds). Complements the paper's
  // tuples-evaluated metric in benchmark output. Merge sums it, so a
  // merged value over a parallel batch is aggregate query-seconds (CPU
  // occupancy), NOT the batch's wall time -- use BatchStats::
  // wall_seconds for throughput math.
  double elapsed_seconds = 0.0;

  void Merge(const QueryStats& other) {
    tuples_evaluated += other.tuples_evaluated;
    virtual_evaluated += other.virtual_evaluated;
    shards_touched += other.shards_touched;
    runs_opened += other.runs_opened;
    boxes_pruned += other.boxes_pruned;
    scratch_seeds += other.scratch_seeds;
    edges_walked += other.edges_walked;
    elapsed_seconds += other.elapsed_seconds;
  }
};

// Batch-level accounting for one QueryBatch call. `merged` is the
// Merge of every result's stats; its elapsed_seconds is the SUM of
// per-query wall clocks, which over a parallel batch overstates the
// real elapsed time by roughly the worker count. `wall_seconds` is the
// single wall clock around the whole batch -- the denominator a
// throughput (QPS) report must divide by.
struct BatchStats {
  QueryStats merged;
  double wall_seconds = 0.0;
};

// Why a Query call stopped. Everything except kComplete describes a
// partial or rejected result; none of them abort the process.
enum class Termination : std::uint8_t {
  kComplete = 0,   // full answer; every item certified
  kDeadline,       // ExecBudget::deadline_seconds expired
  kStepBudget,     // ExecBudget::max_evals reached
  kCancelled,      // CancelToken fired
  kInvalidQuery,   // malformed query rejected (see ValidateQuery)
  kError,          // worker raised an exception; message in `error`
  kShed,           // rejected by the server's admission control
};

// Short identifier, e.g. "complete" or "step-budget".
const char* TerminationName(Termination termination);

struct TopKResult {
  // Up to k tuples in ascending score order (fewer if the relation is
  // small or the traversal stopped on a budget).
  std::vector<ScoredTuple> items;
  QueryStats stats;
  // Relation tuples evaluated, in access order (pseudo-tuples
  // excluded). Feeds the disk-layout simulation in storage/ -- the
  // paper's "tuples in the same layer are stored in the same disk
  // block" discussion.
  std::vector<TupleId> accessed;

  // Why the traversal stopped.
  Termination termination = Termination::kComplete;
  // The first `certified_prefix` entries of `items` are guaranteed to
  // equal the exact top-k answer's prefix, even when the traversal
  // stopped early. Derived from frontier_bound; equals items.size()
  // after a complete run.
  std::size_t certified_prefix = 0;
  // Lower bound on the score of every tuple the traversal did NOT
  // return, taken at the moment it stopped: the priority-queue head for
  // DL/DL+/DG/DG+/PLI, the TA/NRA threshold for the list-based
  // families, the last fully-scanned layer's minimum for Onion, -inf
  // when nothing can be bounded (FullScan mid-scan), +inf after a
  // complete run. The bounded-partition merge (core/partition_merge.h)
  // composes it; also kept for diagnostics.
  double frontier_bound = -std::numeric_limits<double>::infinity();
  // Human-readable detail for kInvalidQuery / kError / kShed.
  std::string error;

  bool complete() const { return termination == Termination::kComplete; }
};

// Marks `result` as a complete answer: every returned item certified.
inline void FinalizeComplete(TopKResult& result) {
  result.termination = Termination::kComplete;
  result.certified_prefix = result.items.size();
  result.frontier_bound = std::numeric_limits<double>::infinity();
}

// Marks `result` as a partial answer stopped for `reason`, with
// `frontier_bound` a lower bound on every unreturned tuple's score
// (callers pass -inf when they cannot bound the remainder). `items`
// must already be in canonical order. The certified prefix is the run
// of items strictly below the bound: any unreturned tuple scores >= the
// bound, and ties at the bound may be unreturned tuples with smaller
// ids, so equality never certifies.
void FinalizePartial(TopKResult& result, Termination reason,
                     double frontier_bound);

// Builds the recoverable rejection every family returns for a malformed
// query (no items, Termination::kInvalidQuery, the status message in
// `error`). Replaces the old abort-on-bad-input behaviour.
TopKResult InvalidQueryResult(const Status& status);

// Amortized budget/cancellation checks for a traversal hot loop.
// Construct once per Query call; call Step() once per traversal step
// (heap pop, scan row, sorted-access round) with the running
// tuples-evaluated counter. The unlimited case is a single branch.
// Deadlines are polled every 64 steps to keep clock reads off the hot
// path.
class BudgetGate {
 public:
  explicit BudgetGate(const ExecBudget& budget)
      : max_evals_(budget.max_evals),
        cancel_(budget.cancel),
        deadline_seconds_(budget.deadline_seconds),
        active_(!budget.unlimited()) {}

  bool active() const { return active_; }

  // Returns kComplete while within budget, otherwise the reason to
  // stop. Once a gate has tripped it stays tripped (stable result for
  // loops that consult it twice at one boundary).
  Termination Step(std::size_t evaluated) {
    if (!active_) return Termination::kComplete;
    return StepSlow(evaluated);
  }

 private:
  Termination StepSlow(std::size_t evaluated) {
    if (tripped_ != Termination::kComplete) return tripped_;
    if (max_evals_ != 0 && evaluated >= max_evals_) {
      return tripped_ = Termination::kStepBudget;
    }
    if (cancel_ != nullptr && cancel_->cancelled()) {
      return tripped_ = Termination::kCancelled;
    }
    if (deadline_seconds_ > 0.0 && (++ticks_ & 63u) == 0 &&
        clock_.ElapsedSeconds() > deadline_seconds_) {
      return tripped_ = Termination::kDeadline;
    }
    return Termination::kComplete;
  }

  std::size_t max_evals_;
  const CancelToken* cancel_;
  double deadline_seconds_;
  bool active_;
  Termination tripped_ = Termination::kComplete;
  std::uint64_t ticks_ = 0;
  Stopwatch clock_;
};

// Runs one query, translating a thrown exception into a
// Termination::kError result instead of propagating. QueryBatch workers
// run under this guard so one poisoned query cannot take down the batch
// or the process.
template <typename Fn>
TopKResult GuardedQuery(Fn&& fn) {
  try {
    return std::forward<Fn>(fn)();
  } catch (const std::exception& e) {
    TopKResult result;
    result.termination = Termination::kError;
    result.error = e.what();
    return result;
  } catch (...) {
    TopKResult result;
    result.termination = Termination::kError;
    result.error = "unknown exception in query worker";
    return result;
  }
}

// Interface implemented by every index family (core/index_registry.h).
class TopKIndex {
 public:
  virtual ~TopKIndex() = default;

  // Short identifier used in benchmark output, e.g. "DL+".
  virtual std::string name() const = 0;

  // Number of tuples in the indexed relation.
  virtual std::size_t size() const = 0;

  // Dimensionality of the indexed relation.
  virtual std::size_t dim() const = 0;

  // Answers `query`; thread-safe (const; DualLayerIndex's scratch pool
  // is the only shared mutable state, and it is locked). Never throws
  // or aborts on malformed input: budget expiry yields a certified
  // partial result, bad queries a kInvalidQuery result.
  virtual TopKResult Query(const TopKQuery& query) const = 0;

  // Answers a batch over ParallelThreadCount() workers (DRLI_THREADS;
  // common/parallel_for.h): results[i] corresponds to queries[i], each
  // element-wise identical to a serial Query(queries[i]) call (budgets
  // included -- deadlines are measured per query from its own start, so
  // serial and parallel execution give identical allowances). Worker
  // exceptions surface as kError results in the corresponding slot,
  // never on the process.
  std::vector<TopKResult> QueryBatch(
      const std::vector<TopKQuery>& queries) const;

  // QueryBatch with batch-level accounting: fills *stats with the
  // Merge of every result's QueryStats plus the batch's own single
  // wall clock. Per-query elapsed_seconds stay per-query; their sum
  // lands in stats->merged.elapsed_seconds (aggregate query-seconds),
  // while stats->wall_seconds is what a QPS computation divides by --
  // over parallel workers the two differ by ~the worker count.
  std::vector<TopKResult> QueryBatch(const std::vector<TopKQuery>& queries,
                                     BatchStats* stats) const;
};

// Computes the budget left for a coordinator's next sub-query, or the
// reason it must stop before issuing it. Mirrors BudgetGate semantics
// one level up: max_evals meters the cumulative per-partition traversal
// cost, deadlines are measured from the coordinator's own start
// (`timer`). Shared by the sharded scatter-gather coordinator and the
// tiered dynamic index's run merge.
Termination RemainingBudget(const ExecBudget& budget, std::size_t evaluated,
                            const Stopwatch& timer, ExecBudget* sub);

// Validates that the query is well-formed for dimensionality d:
// |weights| == d, every weight finite and >= 0, at least one weight
// strictly positive. Zero weights are accepted uniformly across all
// index families (brute-force reference included): boundary-of-simplex
// queries are exactly what reverse top-k slope intervals and
// constrained scenarios produce, and every traversal invariant in the
// library (dominance => score <=, exact top-1 shard/run bounds,
// the 2-d weight-range chain) only needs non-negative weights. The
// all-zero vector is rejected: it scores every tuple 0 and reduces
// "top-k" to an id sort, which no caller means. k = 0 is legal and
// yields an empty result; k > n is legal and returns all n tuples.
// Returns InvalidArgument instead of aborting -- untrusted callers get
// a recoverable error.
Status ValidateQuery(const TopKQuery& query, std::size_t dim);

}  // namespace drli

#endif  // DRLI_TOPK_QUERY_H_
