//===- LogSpace.h - Log-space probability arithmetic --------------*- C++ -*-==//
//
// Part of ParRec, a reproduction of "Synthesising Graphics Card Programs
// from DSLs" (Cartey, Lyngsø, de Moor; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The log-space primitives shared by every cell evaluator. The AST
/// tree-walker and the bytecode VM call these definitions; the native
/// JIT emits the same operation sequence as C statements (compiled with
/// -ffp-contract=off against the same libm). One sequence for all three
/// is what keeps their probabilities bit-identical.
///
//===----------------------------------------------------------------------===//

#ifndef PARREC_CODEGEN_LOGSPACE_H
#define PARREC_CODEGEN_LOGSPACE_H

#include <cmath>
#include <limits>

namespace parrec {
namespace codegen {

inline constexpr double NegInfinity =
    -std::numeric_limits<double>::infinity();

/// Linear -> log conversion; log 0 is -inf.
inline double toLog(double Linear) {
  return Linear <= 0.0 ? NegInfinity : std::log(Linear);
}

/// log(exp(A) + exp(B)) without overflow; the log-space '+'.
inline double logAddExp(double A, double B) {
  if (A == NegInfinity)
    return B;
  if (B == NegInfinity)
    return A;
  double Hi = A > B ? A : B;
  double Lo = A > B ? B : A;
  return Hi + std::log1p(std::exp(Lo - Hi));
}

/// A log-space sum reduction (the prob `sum`) in one pass. M is the
/// largest term so far and S = sum of exp(x - M) over the other terms,
/// so each term costs one exp that does not wait on the previous term's,
/// and the reduction one log1p at the end. On one or two terms (either
/// order, ties included) result() is bit-identical to logAddExp; on
/// more it differs from the chained logAddExp fold only by rounding.
/// -inf terms are skipped; a NaN term, or a second +inf, makes S NaN.
struct LogSumAcc {
  double M = NegInfinity;
  double S = 0.0;

  void add(double X) {
    if (X == NegInfinity)
      return;
    if (X > M) {
      S = (S + 1.0) * std::exp(M - X);
      M = X;
    } else {
      S += std::exp(X - M);
    }
  }

  /// The sum of every added term; -inf when there were none.
  double result() const { return S == 0.0 ? M : M + std::log1p(S); }
};

} // namespace codegen
} // namespace parrec

#endif // PARREC_CODEGEN_LOGSPACE_H
