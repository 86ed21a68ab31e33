// The shared result checker (testing/result_check.h) against
// hand-built results: a valid partial and a valid complete answer pass
// under every match rule, and each contract violation is reported
// under every rule.

#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"

#include "testing/result_check.h"

namespace drli {
namespace {

constexpr MatchRule kRules[] = {MatchRule::kExact, MatchRule::kScoreOnly,
                                MatchRule::kTieClass};

const char* RuleName(MatchRule rule) {
  switch (rule) {
    case MatchRule::kExact: return "exact";
    case MatchRule::kScoreOnly: return "score-only";
    case MatchRule::kTieClass: return "tie-class";
  }
  return "?";
}

// Five tuples on the diagonal, scoring 0.1 .. 0.5 in id order under
// uniform weights, plus a sixth tuple at id 9 outside the unit box.
CheckUniverse Diagonal() {
  PointSet rows(2);
  for (const double v : {0.1, 0.2, 0.3, 0.4, 0.5, 2.0}) rows.Add(Point{v, v});
  CheckUniverse universe = CheckUniverse::Of(rows);
  universe.ids.back() = 9;
  return universe;
}

const Point kWeights = {0.5, 0.5};

// The exact answer's first three items, certified, with a frontier at
// the fourth: a sound partial answer.
TopKResult ValidPartial(const TopKReference& reference) {
  TopKResult result;
  result.items.assign(reference.answer().begin(),
                      reference.answer().begin() + 3);
  result.termination = Termination::kStepBudget;
  result.certified_prefix = 3;
  result.frontier_bound = reference.answer()[3].score;
  return result;
}

ExecBudget StepBudget() {
  ExecBudget budget;
  budget.max_evals = 3;
  return budget;
}

// Expects `got` rejected under every rule with a message containing
// `needle`.
void ExpectReported(const TopKReference& reference, const TopKResult& got,
                    const ExecBudget& budget, const std::string& needle) {
  for (const MatchRule rule : kRules) {
    const std::string failure = reference.Check(got, rule, budget);
    EXPECT_NE(failure.find(needle), std::string::npos)
        << RuleName(rule) << ": want \"" << needle << "\", got \"" << failure
        << "\"";
  }
}

TEST(ResultCheckTest, ValidAnswersPassUnderEveryRule) {
  const CheckUniverse universe = Diagonal();
  const TopKReference reference(universe, kWeights, 5);
  ASSERT_EQ(reference.answer().size(), 5u);
  EXPECT_EQ(reference.answer()[0].id, 0u);
  EXPECT_EQ(reference.answer()[4].id, 4u);
  TopKResult complete;
  complete.items = reference.answer();
  FinalizeComplete(complete);
  for (const MatchRule rule : kRules) {
    EXPECT_EQ(reference.Check(ValidPartial(reference), rule, StepBudget()),
              "")
        << RuleName(rule);
    EXPECT_EQ(reference.Check(complete, rule, ExecBudget{}), "")
        << RuleName(rule);
  }
}

TEST(ResultCheckTest, UnknownId) {
  const TopKReference reference(Diagonal(), kWeights, 5);
  TopKResult got = ValidPartial(reference);
  got.items[1].id = 7;
  ExpectReported(reference, got, StepBudget(), "unknown id 7");
}

TEST(ResultCheckTest, DuplicateId) {
  const TopKReference reference(Diagonal(), kWeights, 5);
  TopKResult got = ValidPartial(reference);
  got.items[1] = got.items[0];
  ExpectReported(reference, got, StepBudget(), "duplicate id");
}

TEST(ResultCheckTest, DishonestScore) {
  const TopKReference reference(Diagonal(), kWeights, 5);
  TopKResult got = ValidPartial(reference);
  got.items[2].score += 0.01;
  ExpectReported(reference, got, StepBudget(), "reports score");
}

TEST(ResultCheckTest, OutOfOrderItems) {
  const TopKReference reference(Diagonal(), kWeights, 5);
  TopKResult got = ValidPartial(reference);
  std::swap(got.items[0], got.items[1]);
  ExpectReported(reference, got, StepBudget(), "canonical (score, id) order");
}

TEST(ResultCheckTest, OverCertifiedPrefix) {
  const TopKReference reference(Diagonal(), kWeights, 5);
  TopKResult got = ValidPartial(reference);
  got.certified_prefix = 4;
  ExpectReported(reference, got, StepBudget(), "exceeds the 3 returned");
  // More certified items than the exact answer holds (k = 2).
  const TopKReference top2(Diagonal(), kWeights, 2);
  ExpectReported(top2, ValidPartial(reference), StepBudget(),
                 "exceeds the exact answer's 2");
}

TEST(ResultCheckTest, WrongCertifiedItem) {
  const TopKReference reference(Diagonal(), kWeights, 5);
  TopKResult got = ValidPartial(reference);
  // Skips the second-best tuple: ranks stay ordered and honest, but
  // certified rank 1 is not the exact answer's.
  got.items = {reference.answer()[0], reference.answer()[2],
               reference.answer()[3]};
  got.certified_prefix = 2;
  got.frontier_bound = -std::numeric_limits<double>::infinity();
  ExpectReported(reference, got, StepBudget(), "certified rank 1");
}

TEST(ResultCheckTest, CompleteButShort) {
  const TopKReference reference(Diagonal(), kWeights, 5);
  TopKResult got = ValidPartial(reference);
  FinalizeComplete(got);
  ExpectReported(reference, got, ExecBudget{},
                 "complete result has 3 items, want 5");
  // Complete but not fully certified.
  got.certified_prefix = 2;
  ExpectReported(reference, got, ExecBudget{}, "certifies 2 of its 3");
  // A query without a budget must not stop early.
  ExpectReported(reference, ValidPartial(reference), ExecBudget{},
                 "without a budget stopped early");
}

TEST(ResultCheckTest, UnsoundFrontier) {
  const TopKReference reference(Diagonal(), kWeights, 5);
  TopKResult got = ValidPartial(reference);
  got.frontier_bound = reference.answer()[4].score;  // id 3 scores below
  ExpectReported(reference, got, StepBudget(), "unreturned id 3");
}

TEST(ResultCheckTest, RejectedQuery) {
  const TopKReference reference(Diagonal(), kWeights, 5);
  TopKResult got;
  got.termination = Termination::kShed;
  ExpectReported(reference, got, StepBudget(), "valid query rejected");
}

TEST(ResultCheckTest, ConstrainedUniverseKnowsOnlyInBoxIds) {
  AttributeBox box = AttributeBox::All(2);
  box.lo = {0.15, 0.15};
  box.hi = {0.45, 0.45};
  const CheckUniverse inside = Diagonal().InBox(box);
  ASSERT_EQ(inside.ids, (std::vector<TupleId>{1, 2, 3}));
  const TopKReference reference(inside, kWeights, 3);
  TopKResult got;
  got.items = reference.answer();
  FinalizeComplete(got);
  for (const MatchRule rule : kRules) {
    EXPECT_EQ(reference.Check(got, rule, ExecBudget{}), "") << RuleName(rule);
  }
  // Id 0 scores best overall but lies outside the box.
  const TopKReference whole(Diagonal(), kWeights, 1);
  got.items = {whole.answer()[0], reference.answer()[0],
               reference.answer()[1]};
  ExpectReported(reference, got, ExecBudget{}, "unknown id 0");
  // Frontier soundness ranges over the in-box rows only: a frontier of
  // 0.3 holds although id 0, outside the box, scores 0.1.
  TopKResult partial;
  partial.items = {reference.answer()[0]};
  partial.termination = Termination::kStepBudget;
  partial.certified_prefix = 1;
  partial.frontier_bound = reference.answer()[1].score;
  for (const MatchRule rule : kRules) {
    EXPECT_EQ(reference.Check(partial, rule, StepBudget()), "")
        << RuleName(rule);
  }
}

TEST(ResultCheckTest, RulesDifferOnlyOnTiesAndUlpSplits) {
  // Ids 0 and 1 tie exactly; id 2 scores an ulp above them.
  const double ulp_up = std::nextafter(0.25, 1.0);
  PointSet rows(2);
  rows.Add(Point{0.25, 0.25});
  rows.Add(Point{0.25, 0.25});
  rows.Add(Point{ulp_up, ulp_up});
  const CheckUniverse universe = CheckUniverse::Of(rows);
  const TopKReference top1(universe, kWeights, 1);
  const TopKReference top2(universe, kWeights, 2);
  EXPECT_FALSE(top2.robust());

  // The tie partner in place of id 0: a score-only and tie-class match.
  TopKResult got;
  got.items = {ScoredTuple{1, 0.25}};
  FinalizeComplete(got);
  EXPECT_NE(top1.Check(got, MatchRule::kExact, ExecBudget{}), "");
  EXPECT_EQ(top1.Check(got, MatchRule::kScoreOnly, ExecBudget{}), "");
  EXPECT_EQ(top1.Check(got, MatchRule::kTieClass, ExecBudget{}), "");

  // Id 2, an ulp off, in place of id 1: a tie-class match only.
  got.items = {ScoredTuple{0, 0.25}, ScoredTuple{2, ulp_up}};
  FinalizeComplete(got);
  EXPECT_NE(top2.Check(got, MatchRule::kExact, ExecBudget{}), "");
  EXPECT_NE(top2.Check(got, MatchRule::kScoreOnly, ExecBudget{}), "");
  EXPECT_EQ(top2.Check(got, MatchRule::kTieClass, ExecBudget{}), "");
}

TEST(ResultCheckTest, SameExactPrefixComparesIdsAndScoreBits) {
  const std::vector<ScoredTuple> a = {{1, 0.5}, {2, 0.75}};
  EXPECT_TRUE(SameExactPrefix(a, a, 2));
  EXPECT_TRUE(SameExactPrefix(a, {{1, 0.5}, {3, 0.75}}, 1));
  EXPECT_FALSE(SameExactPrefix(a, {{1, 0.5}, {3, 0.75}}, 2));
  EXPECT_FALSE(SameExactPrefix(a, {{1, std::nextafter(0.5, 1.0)}}, 1));
  EXPECT_FALSE(SameExactPrefix(a, {{1, 0.5}}, 2));  // too short
}

DiversifiedResult Picks(std::vector<DiversifiedPick> picks) {
  DiversifiedResult result;
  result.picks = std::move(picks);
  result.certified_prefix = result.picks.size();
  return result;
}

TEST(ResultCheckTest, DiversifiedPicksMatchOnIdScoreAndUtility) {
  const DiversifiedResult want = Picks({{4, 0.2, 0.2}, {7, 0.3, 0.35}});
  EXPECT_EQ(CheckPicks(want, want, ExecBudget{}), "");
  for (const DiversifiedResult& got :
       {Picks({{4, 0.2, 0.2}, {8, 0.3, 0.35}}),
        Picks({{4, 0.2, 0.2}, {7, 0.31, 0.35}}),
        Picks({{4, 0.2, 0.2}, {7, 0.3, 0.36}})}) {
    EXPECT_NE(CheckPicks(got, want, ExecBudget{}).find("certified pick 1"),
              std::string::npos);
  }
  // A budgeted partial differing on score alone inside its certified
  // prefix is caught; past the prefix anything goes.
  DiversifiedResult partial = Picks({{4, 0.25, 0.2}, {9, 0.9, 0.9}});
  partial.termination = Termination::kStepBudget;
  partial.certified_prefix = 1;
  EXPECT_NE(CheckPicks(partial, want, StepBudget()).find("certified pick 0"),
            std::string::npos);
  partial.picks[0].score = 0.2;
  EXPECT_EQ(CheckPicks(partial, want, StepBudget()), "");
  // Complete but short, and over-certified.
  EXPECT_NE(CheckPicks(Picks({{4, 0.2, 0.2}}), want, ExecBudget{}), "");
  partial.certified_prefix = 3;
  EXPECT_NE(CheckPicks(partial, want, StepBudget()), "");
}

}  // namespace
}  // namespace drli
