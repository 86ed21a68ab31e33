#include "testing/result_check.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

namespace drli {

namespace {

// Whether `got` matches the reference item `want` under `rule`;
// `own_score` is the score of the tuple `got` cites.
bool Matches(const ScoredTuple& got, const ScoredTuple& want, MatchRule rule,
             double own_score) {
  switch (rule) {
    case MatchRule::kExact:
      return got.id == want.id && got.score == want.score;
    case MatchRule::kScoreOnly:
      return got.score == want.score;
    case MatchRule::kTieClass:
      return std::abs(got.score - want.score) <= kScoreEps &&
             std::abs(own_score - want.score) <= kScoreEps;
  }
  return false;
}

// The rejection and certification rules top-k and diversified results
// share. `returned` is the result's item count, `exact` the reference's.
template <typename Result>
std::string CheckCertification(const Result& got, std::size_t returned,
                               std::size_t exact, const ExecBudget& budget) {
  std::ostringstream out;
  if (got.termination == Termination::kInvalidQuery ||
      got.termination == Termination::kError ||
      got.termination == Termination::kShed) {
    out << "valid query rejected with " << TerminationName(got.termination)
        << ": " << got.error;
  } else if (!got.complete() && budget.unlimited()) {
    out << "query without a budget stopped early ("
        << TerminationName(got.termination) << ")";
  } else if (got.certified_prefix > returned) {
    out << "certified prefix " << got.certified_prefix << " exceeds the "
        << returned << " returned items";
  } else if (got.certified_prefix > exact) {
    out << "certified prefix " << got.certified_prefix
        << " exceeds the exact answer's " << exact << " items";
  } else if (got.complete() && got.certified_prefix != returned) {
    out << "complete result certifies " << got.certified_prefix << " of its "
        << returned << " items";
  } else if (got.complete() && returned != exact) {
    out << "complete result has " << returned << " items, want " << exact;
  }
  return out.str();
}

}  // namespace

CheckUniverse CheckUniverse::Of(const PointSet& points) {
  CheckUniverse universe{{}, points};
  universe.ids.resize(points.size());
  for (std::size_t row = 0; row < points.size(); ++row) {
    universe.ids[row] = static_cast<TupleId>(row);
  }
  return universe;
}

CheckUniverse CheckUniverse::Of(const std::map<TupleId, Point>& live,
                                std::size_t dim) {
  CheckUniverse universe{{}, PointSet(dim)};
  universe.ids.reserve(live.size());
  for (const auto& [id, point] : live) {
    universe.ids.push_back(id);
    universe.rows.Add(PointView(point));
  }
  return universe;
}

CheckUniverse CheckUniverse::InBox(const AttributeBox& box) const {
  CheckUniverse inside{{}, PointSet(rows.dim())};
  for (std::size_t row = 0; row < rows.size(); ++row) {
    if (!box.Contains(rows[row])) continue;
    inside.ids.push_back(ids[row]);
    inside.rows.Add(rows[row]);
  }
  return inside;
}

TopKReference::TopKReference(const CheckUniverse& universe,
                             const Point& weights, std::size_t k)
    : ids_(universe.ids) {
  const PointView w(weights);
  scores_.reserve(ids_.size());
  answer_.reserve(ids_.size());
  for (std::size_t row = 0; row < ids_.size(); ++row) {
    scores_.push_back(Score(w, universe.rows[row]));
    answer_.push_back(ScoredTuple{ids_[row], scores_.back()});
  }
  std::sort(answer_.begin(), answer_.end(), ResultOrderLess);
  for (std::size_t i = 0; i + 1 < answer_.size(); ++i) {
    const double gap = answer_[i + 1].score - answer_[i].score;
    if (gap > 0.0 && gap <= kScoreEps) robust_ = false;
  }
  answer_.resize(std::min(k, answer_.size()));
}

std::string TopKReference::Check(const TopKResult& got, MatchRule rule,
                                 const ExecBudget& budget) const {
  std::string failure =
      CheckCertification(got, got.items.size(), answer_.size(), budget);
  if (!failure.empty()) return failure;

  std::ostringstream out;
  std::vector<std::size_t> rows;  // the universe row of each item
  std::vector<bool> returned(ids_.size(), false);
  for (std::size_t rank = 0; rank < got.items.size(); ++rank) {
    const ScoredTuple& item = got.items[rank];
    const auto it = std::lower_bound(ids_.begin(), ids_.end(), item.id);
    if (it == ids_.end() || *it != item.id) {
      out << "rank " << rank << " cites unknown id " << item.id;
      return out.str();
    }
    const std::size_t row = static_cast<std::size_t>(it - ids_.begin());
    if (returned[row]) {
      out << "duplicate id " << item.id << " at rank " << rank;
      return out.str();
    }
    if (!(std::abs(item.score - scores_[row]) <= kScoreEps)) {
      out << "rank " << rank << " reports score " << item.score << " for id "
          << item.id << ", tuple scores " << scores_[row];
      return out.str();
    }
    if (rank > 0 && ResultOrderLess(item, got.items[rank - 1])) {
      out << "ranks " << rank - 1 << " and " << rank
          << " violate the canonical (score, id) order";
      return out.str();
    }
    returned[row] = true;
    rows.push_back(row);
  }

  for (std::size_t rank = 0; rank < got.certified_prefix; ++rank) {
    const ScoredTuple& item = got.items[rank];
    if (Matches(item, answer_[rank], rule, scores_[rows[rank]])) continue;
    out << "certified rank " << rank << " is (id " << item.id << ", score "
        << item.score << "), want (id " << answer_[rank].id << ", score "
        << answer_[rank].score << ")";
    return out.str();
  }

  if (!got.complete() &&
      got.frontier_bound > -std::numeric_limits<double>::infinity()) {
    for (std::size_t row = 0; row < ids_.size(); ++row) {
      if (returned[row] || scores_[row] >= got.frontier_bound - kScoreEps) {
        continue;
      }
      out << "unreturned id " << ids_[row] << " scores " << scores_[row]
          << ", below the reported frontier " << got.frontier_bound;
      return out.str();
    }
  }
  return std::string();
}

bool SameExactPrefix(const std::vector<ScoredTuple>& a,
                     const std::vector<ScoredTuple>& b, std::size_t n) {
  if (a.size() < n || b.size() < n) return false;
  for (std::size_t i = 0; i < n; ++i) {
    if (!Matches(a[i], b[i], MatchRule::kExact, b[i].score)) return false;
  }
  return true;
}

std::string CheckPicks(const DiversifiedResult& got,
                       const DiversifiedResult& want,
                       const ExecBudget& budget) {
  std::string failure =
      CheckCertification(got, got.picks.size(), want.picks.size(), budget);
  if (!failure.empty()) return failure;
  for (std::size_t i = 0; i < got.certified_prefix; ++i) {
    const DiversifiedPick& a = got.picks[i];
    const DiversifiedPick& b = want.picks[i];
    if (a.id == b.id && a.score == b.score && a.utility == b.utility) continue;
    std::ostringstream out;
    out << "certified pick " << i << " is (id " << a.id << ", score "
        << a.score << ", g " << a.utility << "), want (id " << b.id
        << ", score " << b.score << ", g " << b.utility << ")";
    return out.str();
  }
  return std::string();
}

}  // namespace drli
