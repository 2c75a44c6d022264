//===- Recurrence.h - Analysis view of a recursive function -------*- C++ -*-==//
//
// Part of ParRec, a reproduction of "Synthesising Graphics Card Programs
// from DSLs" (Cartey, Lyngsø, de Moor; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The language-neutral description of a recursion that the schedule
/// synthesiser consumes (Section 4.4): the recursion dimensions and, for
/// every recursive call site, the affine descent functions mapping the
/// current arguments to the callee's arguments.
///
//===----------------------------------------------------------------------===//

#ifndef PARREC_SOLVER_RECURRENCE_H
#define PARREC_SOLVER_RECURRENCE_H

#include "poly/AffineExpr.h"

#include <optional>
#include <string>
#include <vector>

namespace parrec {
namespace solver {

/// The argument map of one recursive call site: component i gives the
/// callee's i-th recursive argument as an affine function of the caller's
/// recursive arguments.
///
/// A component may instead be marked *free*: the callee's argument can
/// take any value in that dimension's domain. This encodes the paper's
/// Section 5.2 analysis of reductions over HMM transitions — for
/// "forward(t.start, i-1)" inside a sum, t.start varies over every state,
/// which forces the schedule coefficient of the state dimension to zero.
/// Free components store the identity expression x_d as a placeholder.
struct DescentFunction {
  std::vector<poly::AffineExpr> Components;
  std::vector<bool> FreeDims; // Empty means "no free dimensions".

  unsigned numDims() const {
    return Components.empty() ? 0 : Components[0].numDims();
  }

  bool isFreeDim(unsigned Dim) const {
    return Dim < FreeDims.size() && FreeDims[Dim];
  }
  bool hasFreeDims() const {
    for (bool B : FreeDims)
      if (B)
        return true;
    return false;
  }

  /// True when every non-free component has the form x_i + c_i (the
  /// "uniform" descents of Section 4.5, covering the majority of
  /// practical cases). Free components are stored as the identity and so
  /// count as uniform.
  bool isUniform() const;

  /// For a uniform descent, the per-dimension offsets c_i.
  std::vector<int64_t> uniformOffsets() const;

  std::string str(const std::vector<std::string> &DimNames) const;
};

/// A complete recursion: dimension names plus every call site's descent.
struct RecurrenceSpec {
  std::string Name = "f";
  std::vector<std::string> DimNames;
  std::vector<DescentFunction> Calls;

  unsigned numDims() const {
    return static_cast<unsigned>(DimNames.size());
  }

  /// True when every call site has a uniform descent; required by the
  /// compile-time conditional parallelisation of Section 4.7.
  bool allUniform() const;
};

/// The inclusive integer box [Lower_i, Upper_i] the recursion ranges over.
/// Known only at runtime (sequence lengths, model sizes).
struct DomainBox {
  std::vector<int64_t> Lower;
  std::vector<int64_t> Upper;

  unsigned numDims() const {
    return static_cast<unsigned>(Lower.size());
  }
  /// Extent of dimension \p Dim (number of integer points).
  int64_t extent(unsigned Dim) const {
    return Upper[Dim] - Lower[Dim] + 1;
  }
  uint64_t totalPoints() const {
    uint64_t N = 1;
    for (unsigned I = 0; I != numDims(); ++I)
      N *= static_cast<uint64_t>(extent(I));
    return N;
  }

  /// A box [0, Extent_i - 1] per dimension.
  static DomainBox fromExtents(const std::vector<int64_t> &Extents);

  friend bool operator==(const DomainBox &A, const DomainBox &B) = default;
};

/// An affine scheduling function Sf = a1*x1 + ... + an*xn (Section 4.2).
struct Schedule {
  std::vector<int64_t> Coefficients;

  unsigned numDims() const {
    return static_cast<unsigned>(Coefficients.size());
  }

  int64_t apply(const std::vector<int64_t> &Point) const;

  /// Minimum and maximum time-step over \p Box.
  int64_t minOver(const DomainBox &Box) const;
  int64_t maxOver(const DomainBox &Box) const;

  /// Number of partitions needed to cover \p Box: max - min + 1. This is
  /// the paper's efficiency heuristic (Section 4.6, equation (4)).
  int64_t partitionCount(const DomainBox &Box) const;

  /// The schedule as an affine expression over [params..., x...] space
  /// with \p NumParams leading parameter dimensions (for loop generation).
  poly::AffineExpr toAffineExpr(unsigned NumParams) const;

  /// Stable FNV-1a fingerprint of the coefficient vector. Execution
  /// layers use it to key caches of per-schedule work (plans, loop
  /// nests) without owning a coefficient copy per key component.
  uint64_t fingerprint() const;

  std::string str(const std::vector<std::string> &DimNames) const;

  friend bool operator==(const Schedule &A, const Schedule &B) {
    return A.Coefficients == B.Coefficients;
  }
};

} // namespace solver
} // namespace parrec

#endif // PARREC_SOLVER_RECURRENCE_H
