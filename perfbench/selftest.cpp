//===- selftest.cpp - Checks of the benchmark's own arithmetic ----------===//
//
// Part of ParRec, a reproduction of "Synthesising Graphics Card Programs
// from DSLs" (Cartey, Lyngsø, de Moor; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Self-test of BenchSupport.h: the percentile helper against an exact
/// sort, the layer-residual arithmetic, the oracle-mismatch path (a
/// corrupted expected value must raise error_frac) and metric-name
/// validity. Exits non-zero on the first failed check; run.py runs it
/// before every benchmark run.
///
//===----------------------------------------------------------------------===//

#include "BenchSupport.h"

#include "baselines/SmithWaterman.h"
#include "bio/Fasta.h"
#include "bio/SubstitutionMatrix.h"
#include "runtime/CompiledRecurrence.h"
#include "support/Random.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

using namespace perfbench;

namespace {

int Failures = 0;

void check(bool Condition, const char *What) {
  if (!Condition) {
    std::fprintf(stderr, "selftest: FAILED: %s\n", What);
    ++Failures;
  }
}

void testPercentileMatchesExactSort() {
  parrec::SplitMix64 Rng(7);
  for (size_t N : {1u, 2u, 3u, 10u, 99u, 100u, 101u, 1000u, 1001u}) {
    std::vector<double> Samples(N);
    for (double &S : Samples)
      S = static_cast<double>(Rng.nextBelow(50)); // Many ties.
    std::vector<double> Sorted = Samples;
    std::sort(Sorted.begin(), Sorted.end());
    for (double Q : {0.0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
      // Nearest rank: the ceil(Q * N)-th smallest, the minimum at Q = 0.
      size_t Rank = static_cast<size_t>(std::ceil(Q * N));
      double Exact = Sorted[Rank == 0 ? 0 : Rank - 1];
      check(percentile(Samples, Q) == Exact, "percentile == exact sort");
    }
  }
  check(percentile({}, 0.5) == 0.0, "percentile of no samples is 0");
  check(median({3.0, 1.0, 2.0}) == 2.0, "median of three");
  check(percentile({5.0, 1.0}, 0.5) == 1.0, "nearest-rank p50 of two");
}

void testResidual() {
  check(residualFrac(9.0, 10.0) == 0.1, "residual of a short layer sum");
  check(std::fabs(residualFrac(11.0, 10.0) - 0.1) < 1e-15,
        "residual is an absolute difference");
  check(residualFrac(10.0, 10.0) == 0.0, "exact layer sum");
  check(residualFrac(1.0, 0.0) == 0.0, "no end-to-end time");
}

void testOracleMismatchRaisesErrorFrac() {
  // A real Smith-Waterman result against its baseline score.
  parrec::DiagnosticEngine Diags;
  auto Fn = parrec::runtime::CompiledRecurrence::compile(
      "int sw(matrix[protein] m, seq[protein] a, index[a] i,\n"
      "       seq[protein] b, index[b] j) =\n"
      "  if i == 0 then 0\n"
      "  else if j == 0 then 0\n"
      "  else 0 max (sw(i-1, j-1) + m[a[i-1], b[j-1]])\n"
      "       max (sw(i-1, j) - 4) max (sw(i, j-1) - 4)\n",
      Diags);
  check(Fn.has_value(), "Smith-Waterman compiles");
  if (!Fn)
    return;
  const auto &Matrix = parrec::bio::SubstitutionMatrix::blosum62();
  auto A = parrec::bio::randomSequence(parrec::bio::Alphabet::protein(), 40,
                                       1, "a");
  auto B = parrec::bio::randomSequence(parrec::bio::Alphabet::protein(), 50,
                                       2, "b");
  parrec::gpu::Device Device;
  auto R = Fn->runGpu({parrec::codegen::ArgValue::ofMatrix(&Matrix),
                       parrec::codegen::ArgValue::ofSeq(&A),
                       parrec::codegen::ArgValue(),
                       parrec::codegen::ArgValue::ofSeq(&B),
                       parrec::codegen::ArgValue()},
                      Device, Diags);
  check(R.has_value(), "Smith-Waterman runs");
  if (!R)
    return;
  parrec::baselines::SwParams Params;
  Params.Matrix = &Matrix;
  parrec::gpu::CostCounter Cost;
  double Expected = parrec::baselines::smithWatermanScore(A, B, Params, Cost);

  Tally Good;
  check(Good.record(true, Expected, R->TableMax, OracleMatch::Exact,
                    R->Cells),
        "a matching result is good");
  check(Good.errorFrac() == 0.0 && Good.GoodCells == R->Cells,
        "a matching result counts its cells and no error");

  Tally Corrupted;
  Corrupted.record(true, Expected, R->TableMax, OracleMatch::Exact, R->Cells);
  check(!Corrupted.record(true, Expected + 1.0, R->TableMax,
                          OracleMatch::Exact, R->Cells),
        "a corrupted expected value is a mismatch");
  check(Corrupted.errorFrac() == 0.5 && Corrupted.Failed == 1,
        "a mismatch raises error_frac");
  check(Corrupted.GoodCells == R->Cells, "a mismatch counts no cells");

  Tally NotOk;
  NotOk.record(false, Expected, Expected, OracleMatch::Exact, 10);
  check(NotOk.errorFrac() == 1.0, "a result that did not run Ok fails");

  check(matchesOracle(-6537.9, -6537.9 * (1 + 1e-12), OracleMatch::Relative),
        "relative match within tolerance");
  check(!matchesOracle(-6537.9, -6537.9 * (1 + 1e-6), OracleMatch::Relative),
        "relative mismatch beyond tolerance");
  check(!matchesOracle(-6537.9, -6537.9 * (1 + 1e-12), OracleMatch::Exact),
        "exact match admits no tolerance");
}

void testMetricNames() {
  std::set<std::string> Seen;
  for (const auto *Table : {&endToEndMetrics(), &perLayerMetrics()})
    for (const MetricSpec &Spec : *Table) {
      check(validMetricName(Spec.Name), "declared metric name is valid");
      check(Seen.insert(Spec.Name).second, "metric name is used once");
    }
  check(validMetricName("exec.scan.sw.cells_per_s"), "dots and underscores");
  check(validMetricName("9lives-x"), "leading digit, dash");
  check(!validMetricName(""), "empty name");
  check(!validMetricName(".hidden"), "leading dot");
  check(!validMetricName("_x"), "leading underscore");
  check(!validMetricName("a b"), "space");
  check(!validMetricName("a/b"), "slash");
  check(!validMetricName(std::string(65, 'a')), "over 64 characters");
  check(validMetricName(std::string(64, 'a')), "64 characters");
}

} // namespace

int main() {
  testPercentileMatchesExactSort();
  testResidual();
  testOracleMismatchRaisesErrorFrac();
  testMetricNames();
  if (Failures) {
    std::fprintf(stderr, "selftest: %d check(s) failed\n", Failures);
    return 1;
  }
  std::printf("selftest: all checks passed\n");
  return 0;
}
