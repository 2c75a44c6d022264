//===- quickstart.cpp - ParRec in five minutes ---------------------------------==//
//
// Part of ParRec, a reproduction of "Synthesising Graphics Card Programs
// from DSLs" (Cartey, Lyngsø, de Moor; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The whole pipeline on the paper's running example (edit distance,
/// Figure 7): compile the recursion, inspect the automatically derived
/// schedule and generated loop nests, execute on the modelled CPU and the
/// simulated GPU, and print the synthesized CUDA kernel.
///
/// Build and run:  ./build/examples/quickstart
///
//===----------------------------------------------------------------------===//

#include "bio/Fasta.h"
#include "codegen/NativeJit.h"
#include "poly/CPrinter.h"
#include "poly/LoopGen.h"
#include "runtime/CompiledRecurrence.h"

#include <cstdio>

using namespace parrec;
using codegen::ArgValue;

int main() {
  // 1. The recursion, written the way the paper's Figure 7 writes it.
  const char *Source =
      "int d(seq[en] s, index[s] i, seq[en] t, index[t] j) =\n"
      "  if i == 0 then j\n"
      "  else if j == 0 then i\n"
      "  else if s[i-1] == t[j-1] then d(i-1, j-1)\n"
      "  else (d(i-1, j) min d(i, j-1) min d(i-1, j-1)) + 1\n";

  DiagnosticEngine Diags;
  auto Compiled = runtime::CompiledRecurrence::compile(Source, Diags);
  if (!Compiled) {
    std::fprintf(stderr, "%s", Diags.str().c_str());
    return 1;
  }
  std::printf("compiled: %s\n\n",
              Compiled->decl().signatureStr().c_str());

  // 2. Bind a problem. Recursive parameters (the indices) stay unbound:
  //    their domains come from the sequences.
  bio::Sequence S("s", "kitten");
  bio::Sequence T("t", "sitting");
  std::vector<ArgValue> Args = {ArgValue::ofSeq(&S), ArgValue(),
                                ArgValue::ofSeq(&T), ArgValue()};

  // 3. The automatically derived schedule (Section 4.6).
  auto Box = Compiled->domainFor(Args, Diags);
  auto Schedule = Compiled->scheduleFor(*Box, Diags);
  std::printf("schedule  S_d(i, j) = %s\n",
              Schedule->str({"i", "j"}).c_str());
  std::printf("partitions: %lld (Figure 3 generalised)\n",
              static_cast<long long>(Schedule->partitionCount(*Box)));
  auto Window =
      solver::slidingWindowDepth(Compiled->info().Recurrence, *Schedule);
  std::printf("sliding window: keep %lld previous partitions\n\n",
              static_cast<long long>(*Window));

  // 4. The generated loop nest (Figures 9 and 10).
  poly::Polyhedron Domain({"i", "j"});
  Domain.addBounds(0, 0, Box->Upper[0]);
  Domain.addBounds(1, 0, Box->Upper[1]);
  poly::LoopNest Nest =
      poly::generateLoops(Domain, 0, Schedule->toAffineExpr(0));
  std::printf("-- CLooG-style scan (Figure 9) --\n%s\n",
              poly::printSequentialLoops(Nest).c_str());

  // 5. Execute: modelled CPU, then simulated GPU; identical results,
  //    different modelled time.
  gpu::Device Device;
  auto Cpu = Compiled->runCpu(Args, Device.costModel(), Diags);
  auto Gpu = Compiled->runGpu(Args, Device, Diags);
  std::printf("d(kitten, sitting) = %.0f (CPU) = %.0f (GPU)\n",
              Cpu->RootValue, Gpu->RootValue);
  std::printf("modelled CPU time: %.3f us\n",
              Device.costModel().cpuSeconds(Cpu->Cycles) * 1e6);
  std::printf("modelled GPU time: %.3f us (%llu partitions, "
              "table in %s memory)\n\n",
              Device.costModel().gpuSeconds(Gpu->Cycles) * 1e6,
              static_cast<unsigned long long>(Gpu->Metrics.Partitions),
              Gpu->Metrics.GlobalAccesses ? "global" : "shared");

  // 6. Tiny problems are barrier-dominated; at realistic sizes the
  //    parallel partitions win decisively.
  bio::Sequence BigS = bio::randomSequence(bio::Alphabet::english(),
                                           400, /*Seed=*/1, "s");
  bio::Sequence BigT = bio::randomSequence(bio::Alphabet::english(),
                                           400, /*Seed=*/2, "t");
  std::vector<ArgValue> BigArgs = {ArgValue::ofSeq(&BigS), ArgValue(),
                                   ArgValue::ofSeq(&BigT), ArgValue()};
  auto BigCpu = Compiled->runCpu(BigArgs, Device.costModel(), Diags);
  auto BigGpu = Compiled->runGpu(BigArgs, Device, Diags);
  std::printf("at 400x400: CPU %.1f us, GPU %.1f us (x%.1f)\n\n",
              Device.costModel().cpuSeconds(BigCpu->Cycles) * 1e6,
              Device.costModel().gpuSeconds(BigGpu->Cycles) * 1e6,
              Device.costModel().cpuSeconds(BigCpu->Cycles) /
                  Device.costModel().gpuSeconds(BigGpu->Cycles));

  // 7. The synthesized CUDA kernel the paper's tool would hand to nvcc:
  //    the body the native JIT runs on the host, under the CUDA prelude.
  auto Plan = Compiled->planFor(*Box, runtime::RunOptions(),
                                /*Preselected=*/nullptr, Diags);
  std::printf("-- synthesized CUDA --\n%s",
              codegen::renderKernelSource(*Plan->Shape,
                                          codegen::KernelTarget::Cuda)
                  .c_str());
  return 0;
}
