// The best-first loop (Algorithm 2's priority-queue walk; DESIGN.md §7,
// "Scatter-gather with frontier pruning") shared by the traversals
// outside DL+'s own hot loop: the bounded-partition merge
// (core/partition_merge.h) and the constrained forest walk
// (scenarios/constrained.h, DESIGN.md §9).
//
// The loop owns a min-heap of caller units ordered by (key, tie) and
// the pop. Each popped unit goes to the caller's expand step, which
// may push more units, end the walk, or stop it with a reason and a
// floor: a lower bound on every unreturned tuple the heap does not
// cover (the unit it could not afford, a partition that tripped).
// A stopped walk's frontier is min(floor, key of the next heap entry).
//
// The certificate needs popped keys never to decrease (checked under
// DRLI_DCHECK): a unit pushed while expanding must key at or above the
// unit being expanded. Both users meet it -- a box-tree child's corner
// dominates its parent's, and an opened partition's items score at or
// above its sound corner bound.

#ifndef DRLI_CORE_BEST_FIRST_H_
#define DRLI_CORE_BEST_FIRST_H_

#include <algorithm>
#include <cstddef>
#include <limits>
#include <vector>

#include "common/check.h"
#include "topk/query.h"

namespace drli {

// What an expand step tells the loop.
struct BestFirstStep {
  bool end = false;                           // the walk is done
  Termination stop = Termination::kComplete;  // else: stop partial
  double floor = std::numeric_limits<double>::infinity();

  static BestFirstStep Continue() { return {}; }
  static BestFirstStep End() { return {true}; }
  static BestFirstStep Stop(Termination reason, double floor) {
    return {false, reason, floor};
  }
};

// How a walk ended: complete (frontier +inf), or stopped for
// `termination` with `frontier` bounding every tuple it did not return.
struct BestFirstEnd {
  Termination termination = Termination::kComplete;
  double frontier = std::numeric_limits<double>::infinity();

  // Marks `result` (its items already in canonical order) complete or
  // partial accordingly.
  void Finalize(TopKResult& result) const {
    if (termination == Termination::kComplete) {
      FinalizeComplete(result);
    } else {
      FinalizePartial(result, termination, frontier);
    }
  }
};

// `Unit` carries `double key` and an unsigned `tie`; (key, tie) pairs
// should be unique so that the pop order is total.
template <typename Unit>
class BestFirst {
 public:
  void Reserve(std::size_t n) { heap_.reserve(n); }

  void Push(const Unit& unit) {
    heap_.push_back(unit);
    std::push_heap(heap_.begin(), heap_.end(), After);
  }

  // Pops units best first into `expand` (Unit -> BestFirstStep) until
  // the heap runs dry or a step ends or stops the walk.
  template <typename Expand>
  BestFirstEnd Run(Expand&& expand) {
    double last = -std::numeric_limits<double>::infinity();
    while (!heap_.empty()) {
      std::pop_heap(heap_.begin(), heap_.end(), After);
      const Unit unit = heap_.back();
      heap_.pop_back();
      DRLI_DCHECK(unit.key >= last);
      last = unit.key;
      const BestFirstStep step = expand(unit);
      if (step.end) break;
      if (step.stop != Termination::kComplete) {
        return {step.stop, heap_.empty()
                               ? step.floor
                               : std::min(step.floor, heap_.front().key)};
      }
    }
    return {};
  }

 private:
  // "a pops after b": the heap is a max-heap under this order.
  static bool After(const Unit& a, const Unit& b) {
    if (a.key != b.key) return a.key > b.key;
    return a.tie > b.tie;
  }

  std::vector<Unit> heap_;
};

}  // namespace drli

#endif  // DRLI_CORE_BEST_FIRST_H_
