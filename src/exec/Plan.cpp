//===- Plan.cpp - Immutable executable plans ----------------------------------==//
//
// Part of ParRec, a reproduction of "Synthesising Graphics Card Programs
// from DSLs" (Cartey, Lyngsø, de Moor; PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "exec/Plan.h"

using namespace parrec;
using namespace parrec::exec;
using solver::Schedule;

static uint64_t fnvMix(uint64_t Hash, uint64_t Value) {
  Hash ^= Value;
  return Hash * 0x100000001b3ull;
}

uint64_t PlanKey::hash() const {
  uint64_t Hash = 0xcbf29ce484222325ull;
  Hash = fnvMix(Hash, Schedule{RequestedSchedule}.fingerprint());
  Hash = fnvMix(Hash, (Jit ? 8u : 0u) | (Autotune ? 4u : 0u) |
                          (UseSlidingWindow ? 2u : 0u) |
                          (KeepTable ? 1u : 0u));
  return Hash;
}

PlanKey PlanKey::make(bool UseSlidingWindow, bool KeepTable,
                      const Schedule *Requested, bool Autotune, bool Jit) {
  PlanKey Key;
  if (Requested)
    Key.RequestedSchedule = Requested->Coefficients;
  Key.UseSlidingWindow = UseSlidingWindow;
  Key.KeepTable = KeepTable;
  Key.Autotune = Autotune;
  Key.Jit = Jit;
  return Key;
}

uint64_t ShapeKey::hash() const {
  uint64_t Hash = fnvMix(0xcbf29ce484222325ull,
                         solver::Schedule{Schedule}.fingerprint());
  Hash = fnvMix(Hash, static_cast<uint64_t>(WindowDepth));
  return fnvMix(Hash, (Jit ? 2u : 0u) | (UseWindow ? 1u : 0u));
}

std::shared_ptr<DpTable> ExecutablePlan::makeTable() const {
  if (Shape->UseWindow)
    return std::make_shared<SlidingWindowTable>(Box, Shape->Sched,
                                                Shape->WindowDepth,
                                                WindowDropDim);
  return std::make_shared<FullTable>(Box);
}

std::vector<int64_t>
ExecutablePlan::boxParams(const solver::DomainBox &Box) {
  std::vector<int64_t> Params;
  Params.reserve(2 * Box.numDims());
  for (unsigned D = 0; D != Box.numDims(); ++D) {
    Params.push_back(Box.Lower[D]);
    Params.push_back(Box.Upper[D]);
  }
  return Params;
}

poly::Polyhedron exec::boxDomain(const std::vector<std::string> &DimNames) {
  unsigned N = static_cast<unsigned>(DimNames.size());
  std::vector<std::string> Names;
  for (const std::string &Dim : DimNames) {
    Names.push_back("lower_" + Dim);
    Names.push_back("upper_" + Dim);
  }
  Names.insert(Names.end(), DimNames.begin(), DimNames.end());
  poly::Polyhedron Domain(Names);
  for (unsigned D = 0; D != N; ++D) {
    poly::AffineExpr X = poly::AffineExpr::dim(3 * N, 2 * N + D);
    Domain.addConstraint(
        poly::Constraint::ge(X - poly::AffineExpr::dim(3 * N, 2 * D)));
    Domain.addConstraint(
        poly::Constraint::ge(poly::AffineExpr::dim(3 * N, 2 * D + 1) - X));
  }
  return Domain;
}

// buildPlan lives in compiler/Pipeline.cpp: it is a thin wrapper over the
// default planning pass pipeline.
