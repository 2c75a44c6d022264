//===- bench_ablation_compile_time.cpp - Pipeline cost ablation ----------------==//
//
// Part of ParRec, a reproduction of "Synthesising Graphics Card Programs
// from DSLs" (Cartey, Lyngsø, de Moor; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ablation A3 (DESIGN.md): the compilation pipeline's own cost. The
/// paper quotes ~1 s of code-generation overhead, dominated by calling
/// CLooG from Java; these benchmarks time each stage of our native
/// pipeline (parse+analyse, schedule synthesis, conditional derivation,
/// loop generation, CUDA emission) with real wall-clock timing.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "codegen/Bytecode.h"
#include "codegen/NativeJit.h"
#include "exec/Plan.h"
#include "lang/Parser.h"
#include "poly/LoopGen.h"

using namespace parrec;
using namespace parrecbench;

namespace {

struct CaseStudy {
  const char *Name;
  const char *Source;
};

const CaseStudy Cases[] = {
    {"edit_distance",
     "int d(seq[en] s, index[s] i, seq[en] t, index[t] j) =\n"
     "  if i == 0 then j\n"
     "  else if j == 0 then i\n"
     "  else if s[i-1] == t[j-1] then d(i-1, j-1)\n"
     "  else (d(i-1, j) min d(i, j-1) min d(i-1, j-1)) + 1\n"},
    {"smith_waterman", nullptr}, // Filled from BenchCommon below.
    {"forward", nullptr},
};

const CaseStudy &caseStudy(int64_t Index) {
  static CaseStudy Filled[3];
  static bool Initialised = false;
  if (!Initialised) {
    Filled[0] = Cases[0];
    Filled[1] = {"smith_waterman", smithWatermanSource()};
    Filled[2] = {"forward", forwardSource()};
    Initialised = true;
  }
  return Filled[Index];
}

struct Analyzed {
  std::unique_ptr<lang::FunctionDecl> Decl;
  lang::FunctionInfo Info;
};

Analyzed analyzeOrDie(const char *Source) {
  DiagnosticEngine Diags;
  lang::Parser P(Source, Diags);
  Analyzed Result;
  Result.Decl = P.parseFunctionOnly();
  lang::Sema S(Diags, {"dna", "rna", "protein", "en"});
  auto Info = S.analyze(*Result.Decl);
  if (!Info) {
    std::fprintf(stderr, "%s", Diags.str().c_str());
    std::abort();
  }
  Result.Info = std::move(*Info);
  return Result;
}

void BM_ParseAndAnalyse(benchmark::State &State) {
  const CaseStudy &Case = caseStudy(State.range(0));
  for (auto _ : State) {
    Analyzed A = analyzeOrDie(Case.Source);
    benchmark::DoNotOptimize(A.Info.Dims.data());
  }
  State.SetLabel(Case.Name);
}

void BM_ScheduleSearch(benchmark::State &State) {
  const CaseStudy &Case = caseStudy(State.range(0));
  Analyzed A = analyzeOrDie(Case.Source);
  solver::DomainBox Box = solver::DomainBox::fromExtents(
      std::vector<int64_t>(A.Info.numDims(), 512));
  for (auto _ : State) {
    DiagnosticEngine Diags;
    auto S = solver::findMinimalSchedule(A.Info.Recurrence, Box, Diags);
    benchmark::DoNotOptimize(S.has_value());
  }
  State.SetLabel(Case.Name);
}

void BM_ConditionalSchedules(benchmark::State &State) {
  const CaseStudy &Case = caseStudy(State.range(0));
  Analyzed A = analyzeOrDie(Case.Source);
  for (auto _ : State) {
    DiagnosticEngine Diags;
    auto Candidates =
        solver::findConditionalSchedules(A.Info.Recurrence, Diags);
    benchmark::DoNotOptimize(Candidates.has_value());
  }
  State.SetLabel(Case.Name);
}

void BM_LoopGeneration(benchmark::State &State) {
  const CaseStudy &Case = caseStudy(State.range(0));
  Analyzed A = analyzeOrDie(Case.Source);
  DiagnosticEngine Diags;
  solver::DomainBox Box = solver::DomainBox::fromExtents(
      std::vector<int64_t>(A.Info.numDims(), 512));
  auto S = solver::findMinimalSchedule(A.Info.Recurrence, Box, Diags);
  std::vector<std::string> Names = A.Info.Recurrence.DimNames;
  poly::Polyhedron Domain(Names);
  for (unsigned D = 0; D != Box.numDims(); ++D)
    Domain.addBounds(D, Box.Lower[D], Box.Upper[D]);
  for (auto _ : State) {
    poly::LoopNest Nest =
        poly::generateLoops(Domain, 0, S->toAffineExpr(0));
    benchmark::DoNotOptimize(Nest.Levels.data());
  }
  State.SetLabel(Case.Name);
}

void BM_CudaEmission(benchmark::State &State) {
  const CaseStudy &Case = caseStudy(State.range(0));
  Analyzed A = analyzeOrDie(Case.Source);
  DiagnosticEngine Diags;
  solver::DomainBox Box = solver::DomainBox::fromExtents(
      std::vector<int64_t>(A.Info.numDims(), 512));
  exec::PlanRequest Req;
  Req.Program = codegen::compileToBytecode(*A.Decl, A.Info);
  auto Plan = exec::buildPlan(A.Info.Recurrence, A.Info.Recurrence.DimNames,
                              Box, Req, Diags);
  if (!Plan) {
    State.SkipWithError(Diags.str().c_str());
    return;
  }
  for (auto _ : State) {
    std::string Source = codegen::renderKernelSource(
        *Plan->Shape, codegen::KernelTarget::Cuda);
    benchmark::DoNotOptimize(Source.data());
  }
  State.SetLabel(Case.Name);
}

void allCases(benchmark::internal::Benchmark *B) {
  B->Arg(0)->Arg(1)->Arg(2)->Unit(benchmark::kMicrosecond);
}

BENCHMARK(BM_ParseAndAnalyse)->Apply(allCases);
BENCHMARK(BM_ScheduleSearch)->Apply(allCases);
BENCHMARK(BM_ConditionalSchedules)->Apply(allCases);
BENCHMARK(BM_LoopGeneration)->Apply(allCases);
BENCHMARK(BM_CudaEmission)->Apply(allCases);

} // namespace

int main(int Argc, char **Argv) { return benchMain(Argc, Argv); }
