// Differential top-k oracle: one harness that builds every index
// family over one dataset and asserts, query by query, that they all
// return the same answer under the canonical (score asc, id asc) order
// of ResultOrderLess. The reference is the shared checker's brute-force
// top-k (testing/result_check.h), independent of every family, so a
// bug shared by an index family and the ScanIndex still surfaces.
//
// Families fall into two tiers:
//  * exact kinds return the identical (id, score) sequence -- every
//    layer/graph/list family resolves ties with the canonical order;
//  * score-only kinds (FA) guarantee the score sequence but may pick
//    either tuple of an exactly tied pair.
// On top of result equality the harness asserts the paper's access
// containment: DL never evaluates more tuples than DG, and DL+ never
// more than DG+ (Theorem 2's cost ordering on shared data).

#ifndef DRLI_TESTING_DIFFERENTIAL_H_
#define DRLI_TESTING_DIFFERENTIAL_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/point.h"
#include "common/status.h"
#include "core/index_registry.h"
#include "testing/result_check.h"
#include "topk/query.h"

namespace drli {

class DifferentialHarness {
 public:
  // Builds one index per family kind over a copy of `points`.
  static StatusOr<DifferentialHarness> Build(const PointSet& points);

  // Runs `query` through every family and checks each result against
  // the brute-force reference (testing/result_check.h): exact match
  // for the exact kinds, score match for FA, the tie-class fallback
  // for all of them on ulp-ambiguous queries. An unbudgeted query must
  // complete; a budgeted one may stop early, and its partial result
  // must certify a correct prefix and report a sound frontier. Returns
  // one human-readable line per failing family (plus the containment
  // check on unbudgeted queries); empty means all families agree.
  // `only_kind` restricts the check to one family; `partials`
  // (optional) is incremented once per family result that terminated
  // early.
  std::vector<std::string> CheckQuery(
      const TopKQuery& query, const std::string& only_kind = std::string(),
      std::size_t* partials = nullptr) const;

  // Unbudgeted traversal cost of `query` per family, in the unit each
  // family's budget gate charges (tuples_evaluated). Drives exhaustive
  // every-step-index fault sweeps.
  std::vector<std::pair<std::string, std::size_t>> UnbudgetedCosts(
      const TopKQuery& query) const;

  std::size_t num_families() const { return families_.size(); }

 private:
  explicit DifferentialHarness(const PointSet& points)
      : universe_(CheckUniverse::Of(points)) {}

  struct Family {
    std::string kind;
    bool exact = true;
    std::unique_ptr<TopKIndex> index;
  };

  CheckUniverse universe_;
  std::vector<Family> families_;
};

}  // namespace drli

#endif  // DRLI_TESTING_DIFFERENTIAL_H_
