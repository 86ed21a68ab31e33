// SKY(·) as the library computes it -- the first layer of the box-tree
// sweep, BuildSkylineLayers -- against the pairwise reference
// NaiveSkyline, and the convex layers, which keep the skyline of their
// remainder across peels, against a peel that reruns the reference.

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <numeric>
#include <ostream>
#include <string>

#include "gtest/gtest.h"

#include "data/generator.h"
#include "geometry/convex_skyline.h"
#include "skyline/skyline.h"
#include "skyline/skyline_layers.h"
#include "test_util.h"

namespace drli {
namespace {

using testing_util::MakeToyDataset;

// The skyline of `candidates` by the sweep: the first layer of the
// subset's skyline layers, mapped back to ids into `points`.
std::vector<TupleId> SweepSkyline(const PointSet& points,
                                  const std::vector<TupleId>& candidates) {
  if (candidates.empty()) return {};
  const LayerDecomposition layers =
      BuildSkylineLayers(points.Subset(candidates));
  std::vector<TupleId> sky;
  for (const TupleId local : layers.layers[0]) {
    sky.push_back(candidates[local]);
  }
  std::sort(sky.begin(), sky.end());
  return sky;
}

// The convex layers by the definition: each peel reruns the reference
// skyline over the remainder and keeps its convex skyline; past
// `max_layers` peels the remainder is one final layer.
ConvexLayerDecomposition ReferenceConvexLayers(const PointSet& points,
                                               std::size_t max_layers) {
  ConvexLayerDecomposition out;
  out.layer_of.assign(points.size(), 0);
  std::vector<TupleId> remaining(points.size());
  std::iota(remaining.begin(), remaining.end(), TupleId{0});
  while (!remaining.empty()) {
    std::vector<TupleId> layer;
    if (out.layers.size() == max_layers) {
      layer = remaining;
      out.truncated = true;
    } else {
      const std::vector<TupleId> sky = NaiveSkyline(points, remaining);
      const ConvexSkylineResult csky =
          ComputeConvexSkyline(points.Subset(sky));
      for (const TupleId local : csky.members) layer.push_back(sky[local]);
      std::sort(layer.begin(), layer.end());
    }
    for (const TupleId id : layer) out.layer_of[id] = out.layers.size();
    std::vector<TupleId> next;
    std::set_difference(remaining.begin(), remaining.end(), layer.begin(),
                        layer.end(), std::back_inserter(next));
    remaining = std::move(next);
    out.layers.push_back(std::move(layer));
  }
  return out;
}

// BuildConvexLayers against the reference, uncapped and capped at
// three peels.
void ExpectConvexLayersMatchReference(const PointSet& pts) {
  for (const std::size_t max_layers :
       {std::numeric_limits<std::size_t>::max(), std::size_t{3}}) {
    const ConvexLayerDecomposition reference =
        ReferenceConvexLayers(pts, max_layers);
    const ConvexLayerDecomposition layers = BuildConvexLayers(pts, max_layers);
    EXPECT_EQ(layers.layers, reference.layers) << "max_layers " << max_layers;
    EXPECT_EQ(layers.layer_of, reference.layer_of)
        << "max_layers " << max_layers;
    EXPECT_EQ(layers.truncated, reference.truncated)
        << "max_layers " << max_layers;
  }
}

// The sweep and the reference, both taking a candidate subset; the
// whole-set cases pass every id.
struct SkylineRoutine {
  const char* name;
  std::vector<TupleId> (*of_subset)(const PointSet&,
                                    const std::vector<TupleId>&);
};

// Test names print the routine's name, not its pointer bytes.
void PrintTo(const SkylineRoutine& routine, std::ostream* os) {
  *os << routine.name;
}

std::vector<TupleId> AllIds(const PointSet& pts) {
  std::vector<TupleId> all(pts.size());
  std::iota(all.begin(), all.end(), 0);
  return all;
}

class SkylineAlgorithmTest : public ::testing::TestWithParam<SkylineRoutine> {
 protected:
  std::vector<TupleId> Skyline(const PointSet& pts) const {
    return GetParam().of_subset(pts, AllIds(pts));
  }
};

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, SkylineAlgorithmTest,
    ::testing::Values(SkylineRoutine{"naive", &NaiveSkyline},
                      SkylineRoutine{"sweep", &SweepSkyline}),
    [](const auto& info) { return std::string(info.param.name); });

TEST_P(SkylineAlgorithmTest, ToyDatasetSkyline) {
  const PointSet pts = MakeToyDataset();
  const auto sky = Skyline(pts);
  EXPECT_EQ(sky, (std::vector<TupleId>{testing_util::kA, testing_util::kB,
                                       testing_util::kC, testing_util::kF,
                                       testing_util::kG}));
}

TEST_P(SkylineAlgorithmTest, SinglePoint) {
  PointSet pts(3);
  pts.Add({0.5, 0.5, 0.5});
  EXPECT_EQ(Skyline(pts), (std::vector<TupleId>{0}));
}

TEST_P(SkylineAlgorithmTest, DuplicatesAllKept) {
  PointSet pts(2);
  pts.Add({0.2, 0.2});
  pts.Add({0.2, 0.2});
  pts.Add({0.5, 0.5});
  const auto sky = Skyline(pts);
  EXPECT_EQ(sky, (std::vector<TupleId>{0, 1}));
}

TEST_P(SkylineAlgorithmTest, TotallyOrderedChain) {
  PointSet pts(2);
  for (int i = 0; i < 50; ++i) {
    pts.Add({0.01 * i, 0.01 * i});
  }
  EXPECT_EQ(Skyline(pts), (std::vector<TupleId>{0}));
}

TEST_P(SkylineAlgorithmTest, AllIncomparable) {
  PointSet pts(2);
  for (int i = 0; i < 50; ++i) {
    pts.Add({0.01 * i, 0.01 * (50 - i)});
  }
  EXPECT_EQ(Skyline(pts).size(), 50u);
}

TEST_P(SkylineAlgorithmTest, SubsetComputation) {
  const PointSet pts = MakeToyDataset();
  // Skyline of {d, e, i, j} is all four (second skyline layer).
  const std::vector<TupleId> subset = {testing_util::kD, testing_util::kE,
                                       testing_util::kI, testing_util::kJ};
  const auto sky = GetParam().of_subset(pts, subset);
  std::vector<TupleId> expected = subset;
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(sky, expected);
}

TEST_P(SkylineAlgorithmTest, EmptyInput) {
  PointSet pts(2);
  EXPECT_TRUE(Skyline(pts).empty());
}

struct SkylineAgreementCase {
  Distribution dist;
  std::size_t n;
  std::size_t d;
  std::uint64_t seed;
};

class SkylineAgreementTest
    : public ::testing::TestWithParam<SkylineAgreementCase> {};

INSTANTIATE_TEST_SUITE_P(
    Distributions, SkylineAgreementTest,
    ::testing::Values(
        SkylineAgreementCase{Distribution::kIndependent, 800, 2, 1},
        SkylineAgreementCase{Distribution::kIndependent, 800, 3, 2},
        SkylineAgreementCase{Distribution::kIndependent, 800, 4, 3},
        SkylineAgreementCase{Distribution::kIndependent, 800, 5, 4},
        SkylineAgreementCase{Distribution::kAnticorrelated, 600, 2, 5},
        SkylineAgreementCase{Distribution::kAnticorrelated, 600, 3, 6},
        SkylineAgreementCase{Distribution::kAnticorrelated, 600, 4, 7},
        SkylineAgreementCase{Distribution::kCorrelated, 800, 3, 8},
        SkylineAgreementCase{Distribution::kCorrelated, 800, 5, 9},
        SkylineAgreementCase{Distribution::kAnticorrelated, 600, 5, 10},
        SkylineAgreementCase{Distribution::kCorrelated, 800, 2, 11},
        SkylineAgreementCase{Distribution::kIndependent, 500, 6, 12}));

TEST_P(SkylineAgreementTest, AllAlgorithmsAgree) {
  const auto& c = GetParam();
  const PointSet pts = Generate(c.dist, c.n, c.d, c.seed);
  EXPECT_EQ(SweepSkyline(pts, AllIds(pts)), NaiveSkyline(pts, AllIds(pts)));
}

// A subset: two of every three ids, passed in descending order, must
// give the reference's ascending answer.
TEST_P(SkylineAgreementTest, SubsetAgrees) {
  const auto& c = GetParam();
  const PointSet pts = Generate(c.dist, c.n, c.d, c.seed);
  std::vector<TupleId> subset;
  for (std::size_t i = pts.size(); i-- > 0;) {
    if (i % 3 != c.seed % 3) subset.push_back(static_cast<TupleId>(i));
  }
  const auto sky = SweepSkyline(pts, subset);
  EXPECT_TRUE(std::is_sorted(sky.begin(), sky.end()));
  EXPECT_EQ(sky, NaiveSkyline(pts, subset));
}

// Coordinates snapped to an eighth-grid: many ties on single attributes
// and many exact duplicates, which the sweep and the convex peel must
// neither drop nor let dominate each other.
PointSet SnappedToEighths(const PointSet& raw) {
  PointSet pts(raw.dim());
  std::vector<double> snapped(raw.dim());
  for (std::size_t i = 0; i < raw.size(); ++i) {
    for (std::size_t a = 0; a < raw.dim(); ++a) {
      snapped[a] = std::floor(raw.At(i, a) * 8.0) / 8.0;
    }
    pts.Add(PointView(snapped.data(), raw.dim()));
  }
  return pts;
}

TEST_P(SkylineAgreementTest, GridTiesAgree) {
  const auto& c = GetParam();
  const PointSet pts = SnappedToEighths(Generate(c.dist, c.n, c.d, c.seed));
  EXPECT_EQ(SweepSkyline(pts, AllIds(pts)), NaiveSkyline(pts, AllIds(pts)));
}

TEST_P(SkylineAgreementTest, ConvexLayersMatchReferencePeel) {
  const auto& c = GetParam();
  ExpectConvexLayersMatchReference(Generate(c.dist, c.n, c.d, c.seed));
}

TEST_P(SkylineAgreementTest, ConvexLayersWithGridTiesMatchReferencePeel) {
  const auto& c = GetParam();
  ExpectConvexLayersMatchReference(
      SnappedToEighths(Generate(c.dist, c.n, c.d, c.seed)));
}

TEST(SkylineSemanticsTest, NoMemberDominatedNoOutsiderUndominated) {
  const PointSet pts = GenerateAnticorrelated(500, 3, 42);
  const auto sky = SweepSkyline(pts, AllIds(pts));
  std::vector<bool> in_sky(pts.size(), false);
  for (TupleId id : sky) in_sky[id] = true;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    bool dominated = false;
    for (std::size_t j = 0; j < pts.size(); ++j) {
      if (i != j && Dominates(pts[j], pts[i])) {
        dominated = true;
        break;
      }
    }
    EXPECT_EQ(in_sky[i], !dominated) << "tuple " << i;
  }
}

TEST(SkylineSemanticsTest, ManyDuplicatesAllKept) {
  PointSet pts(3);
  for (int i = 0; i < 200; ++i) {
    pts.Add({0.25, 0.5, 0.75});
  }
  EXPECT_EQ(SweepSkyline(pts, AllIds(pts)).size(), 200u);
  ExpectConvexLayersMatchReference(pts);
}

}  // namespace
}  // namespace drli
