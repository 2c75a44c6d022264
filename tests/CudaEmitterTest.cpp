//===- CudaEmitterTest.cpp - Tests for the CUDA kernel target ----------------==//
//
// Part of ParRec, a reproduction of "Synthesising Graphics Card Programs
// from DSLs" (Cartey, Lyngsø, de Moor; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The CUDA text `parrec emit` prints is the native JIT's kernel body
/// under the CUDA prelude. These tests pin Figure 10's landmarks in it,
/// that its body is byte-identical to the host kernel the differential
/// tests execute, and that both targets compile warning-free (the CUDA
/// text through a shim that declares the CUDA built-ins, since no nvcc is
/// assumed).
///
//===----------------------------------------------------------------------===//

#include "bio/HmmZoo.h"
#include "codegen/NativeJit.h"
#include "exec/Plan.h"
#include "runtime/CompiledRecurrence.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>

#include <unistd.h>

using namespace parrec;
using codegen::KernelTarget;
using runtime::CompiledRecurrence;

namespace {

const char *EditDistanceSource =
    "int d(seq[en] s, index[s] i, seq[en] t, index[t] j) =\n"
    "  if i == 0 then j\n"
    "  else if j == 0 then i\n"
    "  else if s[i-1] == t[j-1] then d(i-1, j-1)\n"
    "  else (d(i-1, j) min d(i, j-1) min d(i-1, j-1)) + 1\n";

const char *SmithWatermanSource =
    "int sw(matrix[protein] m, seq[protein] a, index[a] i,\n"
    "       seq[protein] b, index[b] j) =\n"
    "  if i == 0 then 0\n"
    "  else if j == 0 then 0\n"
    "  else 0 max (sw(i-1, j-1) + m[a[i-1], b[j-1]])\n"
    "       max (sw(i-1, j) - 4) max (sw(i, j-1) - 4)\n";

const char *ViterbiSource =
    "prob viterbi(hmm h, state[h] s, seq[dna] x, index[x] i) =\n"
    "  if i == 0 then\n"
    "    if s.isstart then 1.0 else 0.0\n"
    "  else\n"
    "    (if s.isend then 1.0 else s.emission[x[i-1]]) *\n"
    "    max(t in s.transitionsto : t.prob * viterbi(t.start, i - 1))\n";

const char *ForwardSource =
    "prob forward(hmm h, state[h] s, seq[protein] x, index[x] i) =\n"
    "  if i == 0 then\n"
    "    if s.isstart then 1.0 else 0.0\n"
    "  else\n"
    "    (if s.isend then 1.0 else s.emission[x[i-1]]) *\n"
    "    sum(t in s.transitionsto : t.prob * forward(t.start, i - 1))\n";

/// The kernel \p Source's plan for a box of \p Extents renders to for
/// \p Target, under \p Forced when given.
std::string render(const char *Source, std::vector<int64_t> Extents,
                   KernelTarget Target, bool KeepTable = false,
                   std::optional<solver::Schedule> Forced = std::nullopt) {
  DiagnosticEngine Diags;
  auto Fn = CompiledRecurrence::compile(Source, Diags);
  EXPECT_TRUE(Fn.has_value()) << Diags.str();
  if (!Fn)
    return "";
  runtime::RunOptions Opts;
  Opts.KeepTable = KeepTable;
  Opts.ForcedSchedule = std::move(Forced);
  auto Plan = Fn->planFor(solver::DomainBox::fromExtents(Extents), Opts,
                          /*Preselected=*/nullptr, Diags);
  EXPECT_NE(Plan, nullptr) << Diags.str();
  return Plan ? codegen::renderKernelSource(*Plan->Shape, Target) : "";
}

/// The block of \p Source that \p Head opens, from the head to its
/// matching close brace; empty when \p Head does not occur.
std::string blockOpenedBy(const std::string &Source, const std::string &Head) {
  size_t At = Source.find(Head);
  if (At == std::string::npos)
    return "";
  size_t End = Source.find('{', At);
  for (int Depth = 0; End < Source.size(); ++End) {
    if (Source[End] == '{')
      ++Depth;
    else if (Source[End] == '}' && --Depth == 0)
      break;
  }
  return Source.substr(At, End + 1 - At);
}

bool contains(const std::string &Text, const std::string &Piece) {
  return Text.find(Piece) != std::string::npos;
}

/// One case-study shape: the three case studies, each with a sliding
/// window and with the full table.
struct CaseShape {
  const char *Name;
  const char *Source;
  std::vector<int64_t> Extents;
  bool KeepTable;
};

std::vector<CaseShape> caseShapes() {
  int64_t GeneStates = bio::makeGeneFinderModel().numStates();
  DiagnosticEngine Diags;
  auto Profile = bio::eliminateSilentStates(
      bio::makeProfileHmm(4, bio::Alphabet::protein(), /*Seed=*/3), Diags);
  EXPECT_TRUE(Profile.has_value()) << Diags.str();
  int64_t ProfileStates = Profile ? Profile->numStates() : 1;
  std::vector<CaseShape> Shapes;
  for (bool KeepTable : {false, true}) {
    Shapes.push_back({"sw", SmithWatermanSource, {33, 41}, KeepTable});
    Shapes.push_back({"viterbi", ViterbiSource, {GeneStates, 31}, KeepTable});
    Shapes.push_back(
        {"forward", ForwardSource, {ProfileStates, 31}, KeepTable});
  }
  return Shapes;
}

/// The CUDA built-ins the kernel uses, declared so that a host C
/// compiler can check the CUDA text.
const char *CudaShim =
    "#include <stdint.h>\n"
    "#define __global__\n"
    "#define __device__\n"
    "struct pr_dim3 { unsigned x, y, z; };\n"
    "extern const struct pr_dim3 threadIdx, blockDim;\n"
    "void __syncthreads(void);\n"
    "uint64_t __umul64hi(uint64_t a, uint64_t b);\n";

} // namespace

TEST(CudaEmitterTest, EditDistanceKernelStructure) {
  std::string Src =
      render(EditDistanceSource, {7, 8}, KernelTarget::Cuda, false,
             solver::Schedule{{1, 1}});
  ASSERT_FALSE(Src.empty());
  // Figure 10 under the CUDA prelude: one thread per threadIdx.x, the
  // space loop striped by blockDim.x, a barrier per partition.
  EXPECT_TRUE(contains(
      Src, "#define PR_THREAD_LOOP do { const uint32_t t = threadIdx.x;\n"));
  EXPECT_TRUE(contains(Src, "#define PR_NTHREADS blockDim.x\n"));
  EXPECT_TRUE(contains(Src, "#define PR_SYNC() __syncthreads()\n"));
  EXPECT_TRUE(contains(Src, "#define PR_KERNEL extern \"C\" __global__\n"));
  EXPECT_TRUE(contains(Src, "#define PR_COST(...)\n"));
  // The time loop holds the thread loops, whose space loop starts at the
  // thread's index and steps by the block width; the barrier closes the
  // partition.
  std::string TimeLoop =
      blockOpenedBy(Src, "for (int64_t v0 = p_lo; v0 <= p_hi; ++v0) {");
  ASSERT_FALSE(TimeLoop.empty()) << Src;
  std::string ThreadLoop = blockOpenedBy(TimeLoop, "PR_THREAD_LOOP {");
  ASSERT_FALSE(ThreadLoop.empty()) << TimeLoop;
  EXPECT_TRUE(contains(ThreadLoop, "for (int64_t v1 = lo1 + (int64_t)t; "
                                   "v1 <= hi1; v1 += (int64_t)PR_NTHREADS)"))
      << ThreadLoop;
  EXPECT_TRUE(contains(ThreadLoop, "const int64_t v2 = (0LL + 1LL * v0 + "
                                   "-1LL * v1);"))
      << "the eliminated dimension must be reconstructed";
  EXPECT_LT(TimeLoop.rfind("} PR_THREAD_END"), TimeLoop.rfind("PR_SYNC();"));
  EXPECT_EQ(TimeLoop.find("PR_SYNC();"), TimeLoop.rfind("PR_SYNC();"));
  // The user's sequence parameter 't' never reaches the kernel by name:
  // bindings are read through pr_args.
  EXPECT_TRUE(contains(ThreadLoop, "a->seqs[2].data["));
}

TEST(CudaEmitterTest, EditDistanceCellLowering) {
  // Sequence accesses, min chains and recursive calls as table reads:
  // ring-plane slots under the window, row-major strides from the
  // run-time extents for the full table.
  std::string Window = render(EditDistanceSource, {7, 8}, KernelTarget::Cuda);
  std::string Full =
      render(EditDistanceSource, {7, 8}, KernelTarget::Cuda, true);
  ASSERT_FALSE(Window.empty());
  ASSERT_FALSE(Full.empty());
  EXPECT_TRUE(contains(Window, "a->seqs[0].data["));
  EXPECT_TRUE(contains(Window, " < r["));
  EXPECT_TRUE(contains(Window, "= tab[pr_wslot("));
  EXPECT_TRUE(contains(Full, "= tab[(0ULL + ts0 * (uint64_t)tg0 + "
                             "(uint64_t)tg1 - t_base)];"))
      << Full;
  EXPECT_FALSE(contains(Full, "pr_wslot"));
}

TEST(CudaEmitterTest, ForwardKernelLogSpace) {
  std::string Src =
      render(ForwardSource, {6, 31}, KernelTarget::Cuda, false,
             solver::Schedule{{0, 1}});
  ASSERT_FALSE(Src.empty());
  // The sum reduction walks the CSR incoming transitions and accumulates
  // as LogSumAcc does: no log-add-exp call per term, log1p after the
  // loop.
  std::string Reduction = blockOpenedBy(Src, "for (uint64_t re = 0;");
  ASSERT_FALSE(Reduction.empty()) << Src;
  EXPECT_TRUE(contains(Reduction, "acc_s = (acc_s + 1.0) * exp(acc - r["));
  EXPECT_FALSE(contains(Reduction, "pr_logaddexp")) << Reduction;
  EXPECT_FALSE(contains(Reduction, "log1p")) << Reduction;
  EXPECT_TRUE(contains(Src, "double acc = -INFINITY, acc_s = 0.0;"));
  EXPECT_TRUE(contains(Src, "acc = acc_s == 0.0 ? acc : acc + log1p(acc_s);"));
  EXPECT_TRUE(contains(Src, "h->adj_in + h->adj_in_off[rs]"));
  EXPECT_TRUE(contains(Src, ".log_trans["));
  EXPECT_TRUE(contains(Src, "h->emissions["));
  // Real immediates are exact hexfloats (1.0 is 0x1p+0).
  EXPECT_TRUE(contains(Src, "= 0x1p+0;")) << Src;
  // The schedule S = i makes the state loop the striped one.
  EXPECT_TRUE(contains(Src, "v1 += (int64_t)PR_NTHREADS")) << Src;
}

TEST(CudaEmitterTest, MatrixLoweringAndGuards) {
  std::string Src =
      render(SmithWatermanSource, {33, 41}, KernelTarget::Cuda);
  ASSERT_FALSE(Src.empty());
  // Residues map to matrix indices; characters outside the alphabet
  // score the matrix default.
  EXPECT_TRUE(contains(Src, "int64_t ia = m->char_idx[(uint8_t)(char)r["))
      << Src;
  EXPECT_TRUE(contains(Src, "(ia < 0 || ib < 0)"));
  EXPECT_TRUE(contains(Src, "? m->default_score : "
                            "m->scores[ia * m->size + ib];"));
}

TEST(CudaEmitterTest, NonUnitScheduleEmitsDivisibilityGuard) {
  std::string Src = render(EditDistanceSource, {7, 8}, KernelTarget::Cuda,
                           false, solver::Schedule{{2, 1}});
  ASSERT_FALSE(Src.empty());
  // With S = 2i + j, reconstructing a coordinate from the time step
  // divides by 2: either a fixed level with a divisibility guard or
  // ceil/floor-divided bounds must appear.
  bool HasGuard = contains(Src, " % 2LL == 0) {");
  bool HasDivBounds = contains(Src, "_div((0LL + -1LL * e3 + 1LL * v0), 2LL)");
  EXPECT_TRUE(HasGuard || HasDivBounds) << Src;
}

TEST(CudaEmitterTest, HostLaunchStub) {
  std::string Stub = codegen::cudaLaunchStub();
  EXPECT_TRUE(contains(Stub, "int parrec_launch(const pr_args *d_args, "))
      << Stub;
  EXPECT_TRUE(contains(Stub, "cudaMalloc((void **)&d_slot, sizeof slot)"));
  EXPECT_TRUE(contains(Stub, "parrec_scan<<<1, threads>>>(d_args, p_lo, "
                             "p_hi, 0u, threads, threads,"))
      << Stub;
  EXPECT_TRUE(contains(Stub, "cudaMemcpy(&slot, d_slot, sizeof slot, "
                             "cudaMemcpyDeviceToHost);"));
  // Host-only CUDA syntax stays out of a plain C compile.
  ASSERT_TRUE(contains(Stub, "#ifdef __CUDACC__\n"));
  EXPECT_LT(Stub.find("#ifdef __CUDACC__\n"), Stub.find("int parrec_launch("));
  EXPECT_GT(Stub.rfind("#endif\n"), Stub.find("return slot.has_root"));
}

TEST(CudaEmitterTest, DeterministicOutput) {
  std::string A = render(EditDistanceSource, {7, 8}, KernelTarget::Cuda);
  std::string B = render(EditDistanceSource, {7, 8}, KernelTarget::Cuda);
  ASSERT_FALSE(A.empty());
  EXPECT_EQ(A, B);
}

TEST(CudaEmitterTest, UnlowerableBodyRendersNothing) {
  // Branches of different kinds keep the body out of bytecode, so there
  // is no kernel to print: `parrec emit` reports that and exits 1.
  const char *Mixed = "float f(seq[en] s, index[s] i) =\n"
                      "  if i == 0 then 0 else f(i-1) + 1.5\n";
  EXPECT_EQ(render(Mixed, {5}, KernelTarget::Cuda), "");
  EXPECT_EQ(render(Mixed, {5}, KernelTarget::Host), "");
}

TEST(CudaEmitterTest, OneBodyForHostAndCuda) {
  // The CUDA text is the executed kernel: after the preludes, the host
  // source (what compileKernel compiles and the differential tests run)
  // and the CUDA source are the same bytes.
  const std::string HostPrelude = codegen::kernelPrelude(KernelTarget::Host);
  const std::string CudaPrelude = codegen::kernelPrelude(KernelTarget::Cuda);
  for (const CaseShape &C : caseShapes()) {
    SCOPED_TRACE(std::string(C.Name) +
                 (C.KeepTable ? ", full table" : ", sliding window"));
    std::string Host =
        render(C.Source, C.Extents, KernelTarget::Host, C.KeepTable);
    std::string Cuda =
        render(C.Source, C.Extents, KernelTarget::Cuda, C.KeepTable);
    ASSERT_EQ(Host.compare(0, HostPrelude.size(), HostPrelude), 0);
    ASSERT_EQ(Cuda.compare(0, CudaPrelude.size(), CudaPrelude), 0);
    std::string Body = Host.substr(HostPrelude.size());
    EXPECT_TRUE(contains(Body, "PR_KERNEL void parrec_scan("));
    EXPECT_EQ(Body, Cuda.substr(CudaPrelude.size()));
  }
}

TEST(CudaEmitterTest, EmittedSourceIsWarningFree) {
  // Every extent local and helper the kernel declares is read, so both
  // targets compile under -Wall -Wextra -Werror: the host source as the
  // JIT compiles it, the CUDA text as C and as C++ (what nvcc compiles)
  // with the shim.
  std::string Cc = codegen::JitCompileOptions::resolve("").Cc;
  std::string Dir = "/tmp/parrec-cudatest-" + std::to_string(::getpid());
  std::filesystem::create_directories(Dir);
  std::ofstream(Dir + "/shim.h") << CudaShim;
  const std::string Flags = " -fsyntax-only -Wall -Wextra -Werror ";
  for (const CaseShape &C : caseShapes()) {
    std::string Tag = std::string(C.Name) + (C.KeepTable ? "_full" : "_win");
    SCOPED_TRACE(Tag);
    std::string HostPath = Dir + "/" + Tag + ".c";
    std::string CudaPath = Dir + "/" + Tag + ".cu";
    std::string Host =
        render(C.Source, C.Extents, KernelTarget::Host, C.KeepTable);
    std::string Cuda =
        render(C.Source, C.Extents, KernelTarget::Cuda, C.KeepTable);
    ASSERT_FALSE(Host.empty());
    ASSERT_FALSE(Cuda.empty());
    std::ofstream(HostPath) << Host;
    std::ofstream(CudaPath) << Cuda;
    EXPECT_EQ(std::system((Cc + Flags + HostPath).c_str()), 0) << HostPath;
    for (const char *Lang : {"c", "c++"})
      EXPECT_EQ(std::system((Cc + Flags + "-x " + Lang + " -include " + Dir +
                             "/shim.h " + CudaPath)
                                .c_str()),
                0)
          << Lang << " " << CudaPath;
  }
  std::filesystem::remove_all(Dir);
}
