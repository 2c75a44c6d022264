//===- LoopGenTest.cpp - Tests for CLooG-style loop generation --------------==//
//
// Part of ParRec, a reproduction of "Synthesising Graphics Card Programs
// from DSLs" (Cartey, Lyngsø, de Moor; PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "poly/CPrinter.h"
#include "poly/LoopGen.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

using namespace parrec;
using namespace parrec::poly;

namespace {

/// Builds the edit-distance domain of Figure 9: parameters m, n and
/// recursion dimensions x in [0, n], y in [0, m].
Polyhedron editDistanceDomain() {
  Polyhedron P({"m", "n", "x", "y"});
  // x >= 0, n - x >= 0.
  P.addConstraint(Constraint::ge(AffineExpr::dim(4, 2)));
  P.addConstraint(
      Constraint::ge(AffineExpr::dim(4, 1) - AffineExpr::dim(4, 2)));
  // y >= 0, m - y >= 0.
  P.addConstraint(Constraint::ge(AffineExpr::dim(4, 3)));
  P.addConstraint(
      Constraint::ge(AffineExpr::dim(4, 0) - AffineExpr::dim(4, 3)));
  return P;
}

AffineExpr diagonalSchedule() {
  // S = x + y over [m, n, x, y].
  return AffineExpr::dim(4, 2) + AffineExpr::dim(4, 3);
}

using Point = std::vector<int64_t>;

std::multiset<Point> scanAll(const LoopNest &Nest,
                             const std::vector<int64_t> &Params) {
  std::multiset<Point> Seen;
  auto Range = Nest.timeRange(Params);
  if (!Range)
    return Seen;
  for (int64_t P = Range->first; P <= Range->second; ++P)
    Nest.forEachPoint(Params, P, [&](const int64_t *X) {
      Seen.insert(Point(X, X + Nest.NumRecursionDims));
    });
  return Seen;
}

} // namespace

TEST(LoopGenTest, Figure9EditDistance) {
  LoopNest Nest = generateLoops(editDistanceDomain(), /*NumParams=*/2,
                                diagonalSchedule(), "p");
  ASSERT_EQ(Nest.Levels.size(), 3u);
  EXPECT_FALSE(Nest.Levels[0].isFixed()); // p loop.
  EXPECT_FALSE(Nest.Levels[1].isFixed()); // x loop.
  EXPECT_TRUE(Nest.Levels[2].isFixed());  // y = p - x.

  // Instantiate m = 3, n = 2: time range is [0, m + n] = [0, 5].
  auto Range = Nest.timeRange({3, 2});
  ASSERT_TRUE(Range.has_value());
  EXPECT_EQ(Range->first, 0);
  EXPECT_EQ(Range->second, 5);

  // The scan visits exactly the (x, y) box, each point once, in its own
  // partition.
  std::multiset<Point> Seen = scanAll(Nest, {3, 2});
  EXPECT_EQ(Seen.size(), 4u * 3u); // (m+1) * (n+1).
  for (int64_t X = 0; X <= 2; ++X)
    for (int64_t Y = 0; Y <= 3; ++Y)
      EXPECT_EQ(Seen.count({X, Y}), 1u)
          << "point (" << X << "," << Y << ")";
}

TEST(LoopGenTest, Figure9PrintedForm) {
  LoopNest Nest = generateLoops(editDistanceDomain(), 2,
                                diagonalSchedule(), "p");
  std::string Code = printSequentialLoops(Nest, "S1");
  // The canonical CLooG shape: an outer p loop, an inner x loop with
  // max/min bounds mentioning p and the parameters, and the statement
  // reconstructing y as p - x.
  EXPECT_NE(Code.find("for (p="), std::string::npos) << Code;
  EXPECT_NE(Code.find("for (x="), std::string::npos) << Code;
  EXPECT_NE(Code.find("S1(x,p - x);"), std::string::npos) << Code;
  EXPECT_NE(Code.find("max("), std::string::npos) << Code;
  EXPECT_NE(Code.find("min("), std::string::npos) << Code;
}

TEST(LoopGenTest, Figure10ParallelForm) {
  LoopNest Nest = generateLoops(editDistanceDomain(), 2,
                                diagonalSchedule(), "p");
  std::string Code = printParallelLoops(Nest);
  EXPECT_NE(Code.find("parfor threads t in 0..tn"), std::string::npos)
      << Code;
  EXPECT_NE(Code.find("x+=tn"), std::string::npos) << Code;
  EXPECT_NE(Code.find("sync"), std::string::npos) << Code;
  EXPECT_NE(Code.find("farr[x0,x1] = f(x0,x1);"), std::string::npos)
      << Code;
}

TEST(LoopGenTest, ThreadStripingPartitionsTheWork) {
  LoopNest Nest = generateLoops(editDistanceDomain(), 2,
                                diagonalSchedule(), "p");
  std::vector<int64_t> Params = {7, 5};
  auto Range = Nest.timeRange(Params);
  ASSERT_TRUE(Range.has_value());

  for (unsigned Threads : {1u, 2u, 3u, 8u}) {
    std::multiset<Point> Combined;
    for (int64_t P = Range->first; P <= Range->second; ++P)
      for (unsigned T = 0; T != Threads; ++T)
        Nest.forEachPointForThread(Params, P, T, Threads,
                                   [&](const int64_t *X) {
                                     Combined.insert(Point(
                                         X, X + Nest.NumRecursionDims));
                                   });
    EXPECT_EQ(Combined.size(), 8u * 6u) << Threads << " threads";
    // No duplicates: every point exactly once across all threads.
    for (const Point &Pt : Combined)
      EXPECT_EQ(Combined.count(Pt), 1u);
  }
}

/// Property: over random boxes and random valid-looking schedules, the
/// generated nest enumerates exactly the box, each point exactly once,
/// and assigns each point to the partition its schedule value names.
struct RandomScanCase {
  unsigned Dims;
  uint64_t Seed;

  friend std::ostream &operator<<(std::ostream &Os,
                                  const RandomScanCase &C) {
    return Os << C.Dims << "d_seed" << C.Seed;
  }
};

class LoopGenPropertyTest
    : public ::testing::TestWithParam<RandomScanCase> {};

TEST_P(LoopGenPropertyTest, ScansExactlyTheBox) {
  RandomScanCase Case = GetParam();
  SplitMix64 Rng(Case.Seed);
  unsigned N = Case.Dims;

  std::vector<int64_t> Extents;
  std::vector<std::string> Names;
  for (unsigned D = 0; D != N; ++D) {
    Extents.push_back(Rng.nextInRange(1, 6));
    Names.push_back("x" + std::to_string(D));
  }
  Polyhedron Domain(Names);
  for (unsigned D = 0; D != N; ++D)
    Domain.addBounds(D, 0, Extents[D] - 1);

  AffineExpr Schedule(N);
  bool AllZero = true;
  for (unsigned D = 0; D != N; ++D) {
    int64_t C = Rng.nextInRange(-3, 3);
    Schedule.setCoefficient(D, C);
    AllZero &= C == 0;
  }
  if (AllZero)
    Schedule.setCoefficient(0, 1);

  LoopNest Nest = generateLoops(Domain, 0, Schedule);
  auto Range = Nest.timeRange({});
  ASSERT_TRUE(Range.has_value());

  std::map<Point, int64_t> SeenPartition;
  uint64_t Total = 0;
  for (int64_t P = Range->first; P <= Range->second; ++P)
    Nest.forEachPoint({}, P, [&](const int64_t *X) {
      Point Pt(X, X + N);
      EXPECT_EQ(SeenPartition.count(Pt), 0u) << "duplicate point";
      EXPECT_EQ(Schedule.evaluate(Pt), P) << "wrong partition";
      SeenPartition[Pt] = P;
      ++Total;
    });

  uint64_t Expected = 1;
  for (int64_t E : Extents)
    Expected *= static_cast<uint64_t>(E);
  EXPECT_EQ(Total, Expected);
}

INSTANTIATE_TEST_SUITE_P(
    RandomScans, LoopGenPropertyTest,
    ::testing::Values(RandomScanCase{1, 11}, RandomScanCase{1, 12},
                      RandomScanCase{2, 21}, RandomScanCase{2, 22},
                      RandomScanCase{2, 23}, RandomScanCase{3, 31},
                      RandomScanCase{3, 32}, RandomScanCase{3, 33},
                      RandomScanCase{4, 41}, RandomScanCase{4, 42}));

TEST(LoopGenTest, CountPoints) {
  LoopNest Nest = generateLoops(editDistanceDomain(), 2,
                                diagonalSchedule(), "p");
  // Partition p of an (m+1) x (n+1) edit-distance domain holds the p-th
  // anti-diagonal.
  EXPECT_EQ(Nest.countPoints({3, 3}, 0), 1u);
  EXPECT_EQ(Nest.countPoints({3, 3}, 2), 3u);
  EXPECT_EQ(Nest.countPoints({3, 3}, 3), 4u);
  EXPECT_EQ(Nest.countPoints({3, 3}, 6), 1u);
  EXPECT_EQ(Nest.countPoints({3, 3}, 7), 0u);
}

TEST(LoopGenTest, NonUnitScheduleCoefficients) {
  // S = 2x + y on a 3x3 box: partitions are sparse but must still cover
  // the box exactly once.
  Polyhedron Domain({"x", "y"});
  Domain.addBounds(0, 0, 2);
  Domain.addBounds(1, 0, 2);
  AffineExpr S({2, 1}, 0);
  LoopNest Nest = generateLoops(Domain, 0, S);
  std::multiset<Point> Seen = scanAll(Nest, {});
  EXPECT_EQ(Seen.size(), 9u);
  for (int64_t X = 0; X <= 2; ++X)
    for (int64_t Y = 0; Y <= 2; ++Y)
      EXPECT_EQ(Seen.count({X, Y}), 1u);
}

TEST(LoopGenTest, DividedBoundsRenderAsFloorDiv) {
  // S = 2x + y over a square box: the x loop's upper bound involves
  // floor(p / 2), rendered in CLooG's floord style.
  Polyhedron Domain({"n", "x", "y"});
  // 0 <= x <= n, 0 <= y <= n.
  for (unsigned D : {1u, 2u}) {
    Domain.addConstraint(Constraint::ge(AffineExpr::dim(3, D)));
    Domain.addConstraint(
        Constraint::ge(AffineExpr::dim(3, 0) - AffineExpr::dim(3, D)));
  }
  AffineExpr S = AffineExpr::dim(3, 1) * 2 + AffineExpr::dim(3, 2);
  LoopNest Nest = generateLoops(Domain, 1, S);
  std::string Code = printSequentialLoops(Nest);
  EXPECT_NE(Code.find("floord("), std::string::npos) << Code;

  // And the scan is still exact for a concrete instantiation.
  std::multiset<Point> Seen = scanAll(Nest, {4});
  EXPECT_EQ(Seen.size(), 25u);
}

TEST(LoopGenTest, EmptyDomainHasNoTimeRange) {
  Polyhedron Domain({"x"});
  Domain.addBounds(0, 5, 3); // Empty.
  AffineExpr S = AffineExpr::dim(1, 0);
  LoopNest Nest = generateLoops(Domain, 0, S);
  EXPECT_FALSE(Nest.timeRange({}).has_value());
}

TEST(LoopGenTest, NegativeCoefficients) {
  Polyhedron Domain({"x", "y"});
  Domain.addBounds(0, 0, 3);
  Domain.addBounds(1, 0, 2);
  AffineExpr S({1, -1}, 0); // S = x - y.
  LoopNest Nest = generateLoops(Domain, 0, S);
  auto Range = Nest.timeRange({});
  ASSERT_TRUE(Range.has_value());
  EXPECT_EQ(Range->first, -2);
  EXPECT_EQ(Range->second, 3);
  EXPECT_EQ(scanAll(Nest, {}).size(), 12u);
}

//===----------------------------------------------------------------------===//
// Parametric nests: one nest over the box as 2N parameters serves every box
//===----------------------------------------------------------------------===//

namespace {

/// The domain [Lower_0, Upper_0, ..., Lower_{N-1}, Upper_{N-1}, x0..xN-1]
/// with Lower_d <= x_d <= Upper_d: the box itself as 2N parameters, the
/// way Figure 9's nest takes m and n.
Polyhedron parametricBoxDomain(unsigned N) {
  std::vector<std::string> Names;
  for (unsigned D = 0; D != N; ++D) {
    Names.push_back("L" + std::to_string(D));
    Names.push_back("U" + std::to_string(D));
  }
  for (unsigned D = 0; D != N; ++D)
    Names.push_back("x" + std::to_string(D));
  unsigned Dims = 3 * N;
  Polyhedron P(Names);
  for (unsigned D = 0; D != N; ++D) {
    AffineExpr X = AffineExpr::dim(Dims, 2 * N + D);
    P.addConstraint(Constraint::ge(X - AffineExpr::dim(Dims, 2 * D)));
    P.addConstraint(Constraint::ge(AffineExpr::dim(Dims, 2 * D + 1) - X));
  }
  return P;
}

/// Every (partition, thread) slice of \p Nest at \p Params, in scan order.
std::vector<std::vector<Point>>
slicesOf(const LoopNest &Nest, const std::vector<int64_t> &Params,
         std::pair<int64_t, int64_t> Range, unsigned Threads) {
  std::vector<std::vector<Point>> Slices;
  for (int64_t P = Range.first; P <= Range.second; ++P)
    for (unsigned T = 0; T != Threads; ++T) {
      Slices.emplace_back();
      Nest.forEachPointForThread(Params, P, T, Threads,
                                 [&](const int64_t *X) {
                                   Slices.back().emplace_back(
                                       X, X + Nest.NumRecursionDims);
                                 });
    }
  return Slices;
}

/// Asserts the nest generated once over the parametric box, evaluated at
/// \p Lower/\p Upper, scans exactly like the nest generated for that
/// concrete box: same time range, same points in the same order for
/// every (partition, thread) at 1, 3 and 32 threads.
void expectParametricMatchesBox(const std::vector<int64_t> &Coeffs,
                                const LoopNest &Parametric,
                                const std::vector<int64_t> &Lower,
                                const std::vector<int64_t> &Upper) {
  unsigned N = static_cast<unsigned>(Coeffs.size());
  std::vector<std::string> Names;
  for (unsigned D = 0; D != N; ++D)
    Names.push_back("x" + std::to_string(D));
  Polyhedron Box(Names);
  for (unsigned D = 0; D != N; ++D)
    Box.addBounds(D, Lower[D], Upper[D]);
  LoopNest Concrete = generateLoops(Box, 0, AffineExpr(Coeffs, 0));

  std::vector<int64_t> Params;
  for (unsigned D = 0; D != N; ++D) {
    Params.push_back(Lower[D]);
    Params.push_back(Upper[D]);
  }
  std::string Where = "schedule (";
  for (unsigned D = 0; D != N; ++D)
    Where += (D ? ", " : "") + std::to_string(Coeffs[D]);
  Where += ") box";
  for (unsigned D = 0; D != N; ++D)
    Where += " [" + std::to_string(Lower[D]) + ", " +
             std::to_string(Upper[D]) + "]";

  auto Range = Concrete.timeRange({});
  ASSERT_TRUE(Range.has_value()) << Where;
  ASSERT_EQ(Parametric.timeRange(Params), Range) << Where;
  EXPECT_EQ(Parametric.threadedLevel(), Concrete.threadedLevel()) << Where;
  for (unsigned Threads : {1u, 3u, 32u})
    EXPECT_EQ(slicesOf(Parametric, Params, *Range, Threads),
              slicesOf(Concrete, {}, *Range, Threads))
        << Where << ", " << Threads << " threads";
}

std::vector<int64_t> randomCoefficients(SplitMix64 &Rng, unsigned N) {
  std::vector<int64_t> Coeffs(N);
  bool AllZero = true;
  for (int64_t &C : Coeffs) {
    C = Rng.nextInRange(-3, 3);
    AllZero &= C == 0;
  }
  if (AllZero)
    Coeffs[Rng.nextBelow(N)] = 1;
  return Coeffs;
}

} // namespace

TEST(LoopGenTest, ParametricNestMatchesBoxNest) {
  // The minimal schedules of the six shipped recurrences: i + j for
  // Smith-Waterman and edit distance, the sequence index alone for the
  // four HMM recurrences over (state, index) — casino and profile
  // forward, gene-finder and CpG-island Viterbi.
  std::vector<std::vector<int64_t>> Schedules = {{1, 1}, {0, 1}};
  SplitMix64 Rng(0x9A4A3E7);
  for (unsigned I = 0; I != 24; ++I)
    Schedules.push_back(
        randomCoefficients(Rng, 1 + static_cast<unsigned>(Rng.nextBelow(3))));

  for (const std::vector<int64_t> &Coeffs : Schedules) {
    unsigned N = static_cast<unsigned>(Coeffs.size());
    // Built once per schedule, evaluated at every box below.
    std::vector<int64_t> WithParams(2 * N, 0);
    WithParams.insert(WithParams.end(), Coeffs.begin(), Coeffs.end());
    LoopNest Parametric = generateLoops(parametricBoxDomain(N), 2 * N,
                                        AffineExpr(WithParams, 0));
    for (unsigned B = 0; B != 8; ++B) {
      std::vector<int64_t> Lower(N), Upper(N);
      for (unsigned D = 0; D != N; ++D) {
        Lower[D] = Rng.nextInRange(-4, 3);
        // Every fourth dimension draw is a single point.
        int64_t Extent = Rng.nextBelow(4) == 0 ? 1 : Rng.nextInRange(2, 7);
        Upper[D] = Lower[D] + Extent - 1;
      }
      expectParametricMatchesBox(Coeffs, Parametric, Lower, Upper);
    }
  }
}
