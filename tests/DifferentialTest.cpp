//===- DifferentialTest.cpp - Bytecode VM vs AST evaluator ------------------==//
//
// Part of ParRec, a reproduction of "Synthesising Graphics Card Programs
// from DSLs" (Cartey, Lyngsø, de Moor; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The evaluators' correctness contract: for every recursion the
/// bytecode compiles, results AND cost accounting are bit-identical
/// across all three cell evaluators — the AST tree-walker, the bytecode
/// VM and the native JIT kernel — on both backends, with and without
/// the sliding window. Covers the shipped example scripts, the
/// case-study recursions and randomized (seeded) HMMs, sequences and
/// substitution scores.
///
//===----------------------------------------------------------------------===//

#include "baselines/HmmBaselines.h"
#include "bio/Fasta.h"
#include "bio/HmmZoo.h"
#include "obs/Metrics.h"
#include "runtime/CompiledRecurrence.h"
#include "runtime/Interpreter.h"

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <sstream>

#include <unistd.h>

using namespace parrec;
using namespace parrec::runtime;
using codegen::ArgValue;

#ifndef PARREC_SCRIPTS_DIR
#error "build must define PARREC_SCRIPTS_DIR"
#endif

namespace {

std::string scriptsPath(const std::string &Relative) {
  return std::string(PARREC_SCRIPTS_DIR) + "/" + Relative;
}

std::string readFileOrDie(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  EXPECT_TRUE(In.good()) << "cannot open " << Path;
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  return Buffer.str();
}

// The case-study recursions, matching examples/scripts/*.rdsl and the
// pipeline tests verbatim.
const char *SmithWatermanSource =
    "int sw(matrix[dna] m, seq[dna] a, index[a] i, seq[dna] b, index[b] j) =\n"
    "  if i == 0 then 0\n"
    "  else if j == 0 then 0\n"
    "  else 0 max (sw(i-1, j-1) + m[a[i-1], b[j-1]])\n"
    "       max (sw(i-1, j) - 2) max (sw(i, j-1) - 2)\n";

const char *EditDistanceSource =
    "int d(seq[en] s, index[s] i, seq[en] t, index[t] j) =\n"
    "  if i == 0 then j\n"
    "  else if j == 0 then i\n"
    "  else if s[i-1] == t[j-1] then d(i-1, j-1)\n"
    "  else (d(i-1, j) min d(i, j-1) min d(i-1, j-1)) + 1\n";

const char *CasinoForwardSource =
    "prob forward(hmm h, state[h] s, seq[dice] x, index[x] i) =\n"
    "  if i == 0 then\n"
    "    if s.isstart then 1.0 else 0.0\n"
    "  else\n"
    "    (if s.isend then 1.0 else s.emission[x[i-1]]) *\n"
    "    sum(t in s.transitionsto : t.prob * forward(t.start, i - 1))\n";

const char *DnaForwardSource =
    "prob forward(hmm h, state[h] s, seq[dna] x, index[x] i) =\n"
    "  if i == 0 then\n"
    "    if s.isstart then 1.0 else 0.0\n"
    "  else\n"
    "    (if s.isend then 1.0 else s.emission[x[i-1]]) *\n"
    "    sum(t in s.transitionsto : t.prob * forward(t.start, i - 1))\n";

const char *DnaViterbiSource =
    "prob viterbi(hmm h, state[h] s, seq[dna] x, index[x] i) =\n"
    "  if i == 0 then\n"
    "    if s.isstart then 1.0 else 0.0\n"
    "  else\n"
    "    (if s.isend then 1.0 else s.emission[x[i-1]]) *\n"
    "    max(t in s.transitionsto : t.prob * viterbi(t.start, i - 1))\n";

const char *ProteinForwardSource =
    "prob forward(hmm h, state[h] s, seq[protein] x, index[x] i) =\n"
    "  if i == 0 then\n"
    "    if s.isstart then 1.0 else 0.0\n"
    "  else\n"
    "    (if s.isend then 1.0 else s.emission[x[i-1]]) *\n"
    "    sum(t in s.transitionsto : t.prob * forward(t.start, i - 1))\n";

// An int recursion whose boundary cells exceed 2^53 in magnitude (so
// every table store rounds) and whose interior cells are all negative.
const char *WideIntSource =
    "int big(seq[dna] a, index[a] i, seq[dna] b, index[b] j) =\n"
    "  if i == 0 then 0 - 9007199254740993 * j\n"
    "  else if j == 0 then 9007199254740993 * i + 1\n"
    "  else (big(i-1, j) min big(i, j-1)) +\n"
    "       (if a[i-1] == b[j-1] then big(i-1, j-1) / 1048576 else 0 - 5)\n";

/// A per-process JIT disk cache so concurrent test shards never share
/// (or pollute) the user's real cache.
const std::string &jitCacheDirForTest() {
  static const std::string Dir =
      "/tmp/parrec-jit-test-" + std::to_string(::getpid());
  return Dir;
}

CompiledRecurrence compileOrDie(const char *Source,
                                std::vector<std::string> Extra = {}) {
  DiagnosticEngine Diags;
  auto Compiled =
      CompiledRecurrence::compile(Source, Diags, std::move(Extra));
  EXPECT_TRUE(Compiled.has_value()) << Diags.str();
  return std::move(*Compiled);
}

/// Asserts every observable of two runs — values, cell counts, cost
/// events, simulated cycles and the GPU metrics (barrier, thread-sum and
/// critical-path cycles) — is bit-identical.
void expectRunsIdentical(const RunResult &Vm, const RunResult &Other,
                         const char *OtherName, const std::string &Where) {
  EXPECT_EQ(Vm.RootValue, Other.RootValue) << OtherName << Where;
  EXPECT_EQ(Vm.TableMax, Other.TableMax) << OtherName << Where;
  EXPECT_EQ(Vm.Cells, Other.Cells) << OtherName << Where;
  EXPECT_EQ(Vm.Partitions, Other.Partitions) << OtherName << Where;
  EXPECT_TRUE(Vm.Cost == Other.Cost)
      << "cost counters diverged" << Where << ": VM {" << Vm.Cost.Ops
      << ", " << Vm.Cost.TableReads << ", " << Vm.Cost.TableWrites << ", "
      << Vm.Cost.ModelReads << ", " << Vm.Cost.Transcendentals << "} vs "
      << OtherName << " {" << Other.Cost.Ops << ", "
      << Other.Cost.TableReads << ", " << Other.Cost.TableWrites << ", "
      << Other.Cost.ModelReads << ", " << Other.Cost.Transcendentals
      << "}";
  EXPECT_EQ(Vm.Cycles, Other.Cycles) << OtherName << Where;
  EXPECT_TRUE(Vm.Metrics == Other.Metrics)
      << "GPU metrics diverged" << Where << ": VM {"
      << Vm.Metrics.BarrierCycles << ", " << Vm.Metrics.ThreadCycles << ", "
      << Vm.Metrics.CriticalCycles << "} vs " << OtherName << " {"
      << Other.Metrics.BarrierCycles << ", " << Other.Metrics.ThreadCycles
      << ", " << Other.Metrics.CriticalCycles << "}";
}

/// Asserts two traced runs agree on the GPU metrics and, partition by
/// partition, on the lockstep timeline: cells, slowest-thread and
/// summed per-thread cycles, active threads.
void expectTimelinesIdentical(const RunResult &Vm, const RunResult &Other,
                              const char *OtherName,
                              const std::string &Where) {
  EXPECT_TRUE(Vm.Metrics == Other.Metrics) << OtherName << Where;
  ASSERT_NE(Vm.Timeline, nullptr) << Where;
  ASSERT_NE(Other.Timeline, nullptr) << OtherName << Where;
  ASSERT_EQ(Vm.Timeline->size(), Other.Timeline->size())
      << OtherName << Where;
  for (size_t P = 0; P != Vm.Timeline->size(); ++P) {
    const gpu::PartitionSample &A = (*Vm.Timeline)[P];
    const gpu::PartitionSample &B = (*Other.Timeline)[P];
    EXPECT_EQ(A.Cells, B.Cells) << OtherName << Where << " p" << P;
    EXPECT_EQ(A.MaxThreadCycles, B.MaxThreadCycles)
        << OtherName << Where << " p" << P;
    EXPECT_EQ(A.SumThreadCycles, B.SumThreadCycles)
        << OtherName << Where << " p" << P;
    EXPECT_EQ(A.ActiveThreads, B.ActiveThreads)
        << OtherName << Where << " p" << P;
  }
}

/// Runs \p Args through the bytecode VM, the AST tree-walker and the
/// native JIT kernel on both backends, with the sliding window on and
/// off, and asserts every observable — values, cell counts, cost
/// events, simulated cycles — is bit-identical across all three. With
/// \p EveryScanMode the runs are also traced, adding the GPU metrics
/// and the per-partition timeline to the observables, and repeated on
/// one and four scan workers (one-cell grains force the fan-out).
/// \p Threads is the simulated block width of the GPU runs (0: one per
/// multiprocessor core).
void expectEvaluatorsAgree(const CompiledRecurrence &Fn,
                           const std::vector<ArgValue> &Args,
                           bool EveryScanMode = false,
                           unsigned Threads = 0) {
  // The whole point is to exercise the VM: the recursion must compile.
  ASSERT_NE(Fn.bytecode(), nullptr)
      << "recursion unexpectedly fell back to the AST evaluator";

  gpu::Device Dev;
  gpu::CostModel Model;
  DiagnosticEngine Diags;
  uint64_t FallbacksBefore =
      obs::MetricsRegistry::global().snapshot().counter("jit.fallbacks");
  std::vector<unsigned> ScanWorkers = {0}; // 0: the default budget.
  if (EveryScanMode)
    ScanWorkers = {1, 4};
  for (bool Window : {true, false}) {
    for (bool Gpu : {true, false}) {
      for (unsigned Workers : ScanWorkers) {
        RunOptions VmOpts;
        VmOpts.UseSlidingWindow = Window;
        VmOpts.Threads = Threads;
        if (EveryScanMode) {
          VmOpts.Trace = true;
          VmOpts.ScanWorkers = Workers;
          VmOpts.ScanGrainCells = 1;
        }
        RunOptions AstOpts = VmOpts;
        AstOpts.Evaluator = EvalKind::Ast;
        RunOptions JitOpts = VmOpts;
        JitOpts.Evaluator = EvalKind::Jit;
        JitOpts.JitCacheDir = jitCacheDirForTest();

        auto RunWith = [&](const RunOptions &Opts) {
          return Gpu ? Fn.runGpu(Args, Dev, Diags, Opts)
                     : Fn.runCpu(Args, Model, Diags, Opts);
        };
        auto Vm = RunWith(VmOpts);
        auto Ast = RunWith(AstOpts);
        auto Jit = RunWith(JitOpts);
        ASSERT_TRUE(Vm.has_value()) << Diags.str();
        ASSERT_TRUE(Ast.has_value()) << Diags.str();
        ASSERT_TRUE(Jit.has_value()) << Diags.str();

        std::string Where = std::string(" (window=") +
                            (Window ? "on" : "off") +
                            ", backend=" + (Gpu ? "gpu" : "cpu") +
                            ", scan-workers=" + std::to_string(Workers) +
                            ", threads=" + std::to_string(Threads) + ")";
        expectRunsIdentical(*Vm, *Ast, "AST", Where);
        expectRunsIdentical(*Vm, *Jit, "JIT", Where);
        if (EveryScanMode) {
          expectTimelinesIdentical(*Vm, *Ast, "AST", Where);
          expectTimelinesIdentical(*Vm, *Jit, "JIT", Where);
        }
      }
    }
  }
  // The JIT legs must have run the compiled kernel, not the silent VM
  // fallback — otherwise the comparison above proves nothing.
  EXPECT_EQ(
      obs::MetricsRegistry::global().snapshot().counter("jit.fallbacks"),
      FallbacksBefore)
      << "a JIT leg silently fell back to the bytecode VM";
}

/// Deterministic pseudo-random string over \p Letters.
std::string randomString(const std::string &Letters, size_t Length,
                         uint64_t Seed) {
  std::string S;
  S.reserve(Length);
  uint64_t X = Seed * 6364136223846793005ull + 1442695040888963407ull;
  for (size_t I = 0; I != Length; ++I) {
    X = X * 6364136223846793005ull + 1442695040888963407ull;
    S.push_back(Letters[(X >> 33) % Letters.size()]);
  }
  return S;
}

} // namespace

//===----------------------------------------------------------------------===//
// Case-study recursions
//===----------------------------------------------------------------------===//

TEST(DifferentialTest, SmithWaterman) {
  CompiledRecurrence Fn = compileOrDie(SmithWatermanSource);
  const bio::SubstitutionMatrix M =
      bio::SubstitutionMatrix::matchMismatch(bio::Alphabet::dna(), 2, 1);
  bio::Sequence A("a", "acgtacgtggtacacgt");
  bio::Sequence B("b", "tacgtaccgtgacgt");
  expectEvaluatorsAgree(Fn, {ArgValue::ofMatrix(&M), ArgValue::ofSeq(&A),
                             ArgValue(), ArgValue::ofSeq(&B), ArgValue()});
}

TEST(DifferentialTest, EditDistance) {
  CompiledRecurrence Fn = compileOrDie(EditDistanceSource);
  bio::Sequence S("s", "kitten");
  bio::Sequence T("t", "sitting");
  expectEvaluatorsAgree(Fn, {ArgValue::ofSeq(&S), ArgValue(),
                             ArgValue::ofSeq(&T), ArgValue()});
}

TEST(DifferentialTest, CasinoForward) {
  CompiledRecurrence Fn = compileOrDie(CasinoForwardSource, {"dice"});
  bio::Hmm Casino = bio::makeCasinoModel();
  std::string Rolls = Casino.sample(/*Seed=*/7);
  ASSERT_FALSE(Rolls.empty());
  bio::Sequence X("x", Rolls);
  expectEvaluatorsAgree(Fn, {ArgValue::ofHmm(&Casino), ArgValue(),
                             ArgValue::ofSeq(&X), ArgValue()});
}

TEST(DifferentialTest, GeneFinderViterbi) {
  CompiledRecurrence Fn = compileOrDie(DnaViterbiSource);
  bio::Hmm Genes = bio::makeGeneFinderModel();
  std::string Observed = Genes.sample(/*Seed=*/21);
  ASSERT_FALSE(Observed.empty());
  bio::Sequence X("x", Observed);
  expectEvaluatorsAgree(Fn, {ArgValue::ofHmm(&Genes), ArgValue(),
                             ArgValue::ofSeq(&X), ArgValue()});
}

TEST(DifferentialTest, CpgIslandViterbi) {
  CompiledRecurrence Fn = compileOrDie(DnaViterbiSource);
  bio::Hmm Cpg = bio::makeCpgIslandModel();
  std::string Observed = Cpg.sample(/*Seed=*/77);
  ASSERT_FALSE(Observed.empty());
  bio::Sequence X("x", Observed);
  expectEvaluatorsAgree(Fn, {ArgValue::ofHmm(&Cpg), ArgValue(),
                             ArgValue::ofSeq(&X), ArgValue()});
}

TEST(DifferentialTest, ProfileHmmForward) {
  CompiledRecurrence Fn = compileOrDie(DnaForwardSource);
  DiagnosticEngine Diags;
  bio::Hmm Raw =
      bio::makeProfileHmm(/*MatchPositions=*/5, bio::Alphabet::dna(),
                          /*Seed=*/11);
  auto Profile = bio::eliminateSilentStates(Raw, Diags);
  ASSERT_TRUE(Profile.has_value()) << Diags.str();
  std::string Observed = Profile->sample(/*Seed=*/3);
  ASSERT_FALSE(Observed.empty());
  bio::Sequence X("x", Observed);
  expectEvaluatorsAgree(Fn, {ArgValue::ofHmm(&*Profile), ArgValue(),
                             ArgValue::ofSeq(&X), ArgValue()});
}

//===----------------------------------------------------------------------===//
// Randomized inputs (seeded, deterministic)
//===----------------------------------------------------------------------===//

TEST(DifferentialTest, RandomSmithWatermanPairs) {
  CompiledRecurrence Fn = compileOrDie(SmithWatermanSource);
  const bio::SubstitutionMatrix M =
      bio::SubstitutionMatrix::matchMismatch(bio::Alphabet::dna(), 3, 2);
  const std::string &Letters = bio::Alphabet::dna().letters();
  for (uint64_t Seed = 1; Seed <= 6; ++Seed) {
    bio::Sequence A("a", randomString(Letters, 5 + Seed * 4, Seed));
    bio::Sequence B("b", randomString(Letters, 3 + Seed * 5, Seed + 100));
    expectEvaluatorsAgree(Fn,
                          {ArgValue::ofMatrix(&M), ArgValue::ofSeq(&A),
                           ArgValue(), ArgValue::ofSeq(&B), ArgValue()});
  }
}

TEST(DifferentialTest, RandomEditDistancePairs) {
  CompiledRecurrence Fn = compileOrDie(EditDistanceSource);
  const std::string &Letters = bio::Alphabet::english().letters();
  for (uint64_t Seed = 1; Seed <= 4; ++Seed) {
    bio::Sequence S("s", randomString(Letters, 4 + Seed * 3, Seed * 13));
    bio::Sequence T("t", randomString(Letters, 2 + Seed * 6, Seed * 17));
    expectEvaluatorsAgree(Fn, {ArgValue::ofSeq(&S), ArgValue(),
                               ArgValue::ofSeq(&T), ArgValue()});
  }
}

TEST(DifferentialTest, RandomProfileHmms) {
  CompiledRecurrence Forward = compileOrDie(DnaForwardSource);
  CompiledRecurrence Viterbi = compileOrDie(DnaViterbiSource);
  for (uint64_t Seed = 1; Seed <= 3; ++Seed) {
    DiagnosticEngine Diags;
    bio::Hmm Raw = bio::makeProfileHmm(
        /*MatchPositions=*/static_cast<unsigned>(2 + Seed),
        bio::Alphabet::dna(), Seed * 31);
    auto Profile = bio::eliminateSilentStates(Raw, Diags);
    ASSERT_TRUE(Profile.has_value()) << Diags.str();
    std::string Observed = Profile->sample(Seed * 7);
    ASSERT_FALSE(Observed.empty());
    bio::Sequence X("x", Observed);
    std::vector<ArgValue> Args = {ArgValue::ofHmm(&*Profile), ArgValue(),
                                  ArgValue::ofSeq(&X), ArgValue()};
    expectEvaluatorsAgree(Forward, Args);
    expectEvaluatorsAgree(Viterbi, Args);
  }
}

//===----------------------------------------------------------------------===//
// Cell-path guards: the benchmark's forward shape and wide int tables
//===----------------------------------------------------------------------===//

TEST(DifferentialTest, DenseProfileForwardEveryScanMode) {
  // The scan_long forward shape: a 50-position protein profile after
  // silent-state elimination (about 100 states, ~14 incoming
  // transitions per state), so every cell reduces a long log-space sum.
  CompiledRecurrence Fn = compileOrDie(ProteinForwardSource);
  DiagnosticEngine Diags;
  auto Profile = bio::eliminateSilentStates(
      bio::makeProfileHmm(/*MatchPositions=*/50, bio::Alphabet::protein(),
                          /*Seed=*/5),
      Diags);
  ASSERT_TRUE(Profile.has_value()) << Diags.str();
  std::vector<bio::Sequence> Reads;
  Reads.emplace_back("sampled", Profile->sample(/*Seed=*/9));
  for (int64_t Length : {1, 17, 60})
    Reads.push_back(bio::randomSequence(bio::Alphabet::protein(), Length,
                                        /*Seed=*/static_cast<uint64_t>(
                                            Length * 3 + 1),
                                        "read"));
  gpu::Device Dev;
  for (const bio::Sequence &X : Reads) {
    ASSERT_GT(X.length(), 0) << X.name();
    std::vector<ArgValue> Args = {ArgValue::ofHmm(&*Profile), ArgValue(),
                                  ArgValue::ofSeq(&X), ArgValue()};
    expectEvaluatorsAgree(Fn, Args, /*EveryScanMode=*/true);

    // The independent chained-logAddExp oracle agrees to rounding.
    RunOptions JitOpts;
    JitOpts.Evaluator = EvalKind::Jit;
    JitOpts.JitCacheDir = jitCacheDirForTest();
    auto Jit = Fn.runGpu(Args, Dev, Diags, JitOpts);
    ASSERT_TRUE(Jit.has_value()) << Diags.str();
    gpu::CostCounter Cost;
    double Want = baselines::forwardLogLikelihood(*Profile, X, Cost);
    ASSERT_TRUE(std::isfinite(Want)) << X.name();
    EXPECT_LE(std::fabs(Jit->RootValue - Want), 1e-12 * std::fabs(Want))
        << X.name() << ": " << Jit->RootValue << " vs " << Want;
  }
}

TEST(DifferentialTest, WideNegativeIntTableEveryScanMode) {
  CompiledRecurrence Fn = compileOrDie(WideIntSource);
  const std::string &Letters = bio::Alphabet::dna().letters();
  for (uint64_t Seed = 1; Seed <= 2; ++Seed) {
    bio::Sequence A("a", randomString(Letters, 9 + Seed * 5, Seed));
    bio::Sequence B("b", randomString(Letters, 17 - Seed * 3, Seed + 50));
    std::vector<ArgValue> Args = {ArgValue::ofSeq(&A), ArgValue(),
                                  ArgValue::ofSeq(&B), ArgValue()};
    expectEvaluatorsAgree(Fn, Args, /*EveryScanMode=*/true);

    // The table really is wide and negative: the root sits below -2^53
    // and the first column above +2^53.
    gpu::Device Dev;
    DiagnosticEngine Diags;
    auto Vm = Fn.runGpu(Args, Dev, Diags, RunOptions());
    ASSERT_TRUE(Vm.has_value()) << Diags.str();
    EXPECT_LT(Vm->RootValue, -0x1p53);
    EXPECT_GT(Vm->TableMax, 0x1p53);
  }
}

//===----------------------------------------------------------------------===//
// Lockstep timing across block widths
//===----------------------------------------------------------------------===//

TEST(DifferentialTest, BlockWidthsEveryScanMode) {
  // Gene-finder Viterbi partitions hold 12 cells (one per state); Smith-
  // Waterman's are up to 24 wide. One thread, 5 and 12 threads, the
  // default block and 64 threads cover partitions wider than, equal to
  // and narrower than the block, with the root captured in flight when
  // the window is on.
  CompiledRecurrence Viterbi = compileOrDie(DnaViterbiSource);
  bio::Hmm Genes = bio::makeGeneFinderModel();
  ASSERT_EQ(Genes.numStates(), 12u);
  bio::Sequence X("x", Genes.sample(/*Seed=*/5).substr(0, 40));
  ASSERT_FALSE(X.data().empty());
  std::vector<ArgValue> ViterbiArgs = {ArgValue::ofHmm(&Genes), ArgValue(),
                                       ArgValue::ofSeq(&X), ArgValue()};

  CompiledRecurrence Sw = compileOrDie(SmithWatermanSource);
  const bio::SubstitutionMatrix M =
      bio::SubstitutionMatrix::matchMismatch(bio::Alphabet::dna(), 2, 1);
  const std::string &Letters = bio::Alphabet::dna().letters();
  bio::Sequence A("a", randomString(Letters, 23, 41));
  bio::Sequence B("b", randomString(Letters, 30, 43));
  std::vector<ArgValue> SwArgs = {ArgValue::ofMatrix(&M), ArgValue::ofSeq(&A),
                                  ArgValue(), ArgValue::ofSeq(&B),
                                  ArgValue()};

  for (unsigned Threads : {1u, 5u, 12u, 0u, 64u}) {
    SCOPED_TRACE("threads=" + std::to_string(Threads));
    expectEvaluatorsAgree(Viterbi, ViterbiArgs, /*EveryScanMode=*/true,
                          Threads);
    expectEvaluatorsAgree(Sw, SwArgs, /*EveryScanMode=*/true, Threads);
  }
}

TEST(DifferentialTest, UnstripedNestEveryScanMode) {
  // A one-dimensional recurrence: each partition is a single cell and
  // the nest has no space loop to stripe, so every cell belongs to
  // simulated thread 0 and the other threads idle.
  CompiledRecurrence Fn = compileOrDie(
      "int f(seq[dna] s, index[s] i) =\n"
      "  if i == 0 then 0\n"
      "  else f(i-1) + (if s[i-1] == 'a' then 3 else 0 - 1)\n");
  bio::Sequence S("s", randomString(bio::Alphabet::dna().letters(), 37, 9));
  std::vector<ArgValue> Args = {ArgValue::ofSeq(&S), ArgValue()};
  for (unsigned Threads : {1u, 5u, 0u}) {
    SCOPED_TRACE("threads=" + std::to_string(Threads));
    expectEvaluatorsAgree(Fn, Args, /*EveryScanMode=*/true, Threads);
  }

  gpu::Device Dev;
  DiagnosticEngine Diags;
  RunOptions Traced;
  Traced.Trace = true;
  Traced.Evaluator = EvalKind::Jit;
  Traced.JitCacheDir = jitCacheDirForTest();
  auto Jit = Fn.runGpu(Args, Dev, Diags, Traced);
  ASSERT_TRUE(Jit.has_value()) << Diags.str();
  ASSERT_NE(Jit->Timeline, nullptr);
  for (const gpu::PartitionSample &P : *Jit->Timeline)
    EXPECT_EQ(P.ActiveThreads, P.Cells ? 1u : 0u) << "p" << P.Partition;
}

//===----------------------------------------------------------------------===//
// One shape-generic kernel across lengths
//===----------------------------------------------------------------------===//

TEST(DifferentialTest, ShapeGenericKernelAcrossLengths) {
  // One function, one kernel per shape, many boxes: a 32-residue query
  // against subjects shorter and longer than it (the sliding window
  // drops a different dimension), with the window and with the full
  // table kept. AST, VM and JIT must agree on every observable, per
  // partition too.
  CompiledRecurrence Fn = compileOrDie(SmithWatermanSource);
  const bio::SubstitutionMatrix M =
      bio::SubstitutionMatrix::matchMismatch(bio::Alphabet::dna(), 2, 1);
  const std::string &Letters = bio::Alphabet::dna().letters();
  bio::Sequence Query("q", randomString(Letters, 32, 3));
  gpu::Device Dev;
  gpu::CostModel Model;
  uint64_t FallbacksBefore =
      obs::MetricsRegistry::global().snapshot().counter("jit.fallbacks");
  for (size_t Length : {24u, 400u, 57u, 1u}) {
    bio::Sequence Subject("s", randomString(Letters, Length, Length));
    std::vector<ArgValue> Args = {ArgValue::ofMatrix(&M),
                                  ArgValue::ofSeq(&Query), ArgValue(),
                                  ArgValue::ofSeq(&Subject), ArgValue()};
    for (bool KeepTable : {false, true})
      for (bool Gpu : {true, false}) {
        std::string Where = " (length " + std::to_string(Length) +
                            (KeepTable ? ", full table" : ", window") +
                            (Gpu ? ", gpu)" : ", cpu)");
        RunOptions VmOpts;
        VmOpts.KeepTable = KeepTable;
        VmOpts.Trace = true;
        RunOptions AstOpts = VmOpts;
        AstOpts.Evaluator = EvalKind::Ast;
        RunOptions JitOpts = VmOpts;
        JitOpts.Evaluator = EvalKind::Jit;
        JitOpts.JitCacheDir = jitCacheDirForTest();
        DiagnosticEngine Diags;
        auto RunWith = [&](const RunOptions &Opts) {
          return Gpu ? Fn.runGpu(Args, Dev, Diags, Opts)
                     : Fn.runCpu(Args, Model, Diags, Opts);
        };
        auto Vm = RunWith(VmOpts);
        ASSERT_TRUE(Vm.has_value()) << Diags.str();
        ASSERT_NE(Vm->Timeline, nullptr);
        for (auto [Name, Opts] :
             {std::pair{"AST", &AstOpts}, std::pair{"JIT", &JitOpts}}) {
          auto Other = RunWith(*Opts);
          ASSERT_TRUE(Other.has_value()) << Diags.str();
          expectRunsIdentical(*Vm, *Other, Name, Where);
          expectTimelinesIdentical(*Vm, *Other, Name, Where);
        }
      }
  }
  EXPECT_EQ(
      obs::MetricsRegistry::global().snapshot().counter("jit.fallbacks"),
      FallbacksBefore)
      << "a JIT leg silently fell back to the bytecode VM";
}

//===----------------------------------------------------------------------===//
// Plumbing: plans carry the program; shipped scripts agree end to end
//===----------------------------------------------------------------------===//

TEST(DifferentialTest, PlansCarryTheCompiledProgram) {
  CompiledRecurrence Fn = compileOrDie(EditDistanceSource);
  ASSERT_NE(Fn.bytecode(), nullptr);
  bio::Sequence S("s", "abc"), T("t", "abd");
  std::vector<ArgValue> Args = {ArgValue::ofSeq(&S), ArgValue(),
                                ArgValue::ofSeq(&T), ArgValue()};
  DiagnosticEngine Diags;
  auto Box = Fn.domainFor(Args, Diags);
  ASSERT_TRUE(Box.has_value()) << Diags.str();
  auto Plan = Fn.planFor(*Box, RunOptions(), nullptr, Diags);
  ASSERT_NE(Plan, nullptr) << Diags.str();
  // The plan shares the function's program — including on cache hits.
  EXPECT_EQ(Plan->Shape->Program.get(), Fn.bytecode().get());
  auto Again = Fn.planFor(*Box, RunOptions(), nullptr, Diags);
  EXPECT_EQ(Again.get(), Plan.get());
  EXPECT_EQ(Again->Shape->Program.get(), Fn.bytecode().get());
}

TEST(DifferentialTest, JitUnderWorkerNesting) {
  // The JIT composes with both host-parallel axes: one kernel
  // invocation per (partition, simulated-thread-range) slice under
  // ScanWorkers, and per-problem kernels under BatchWorkers — every
  // observable bit-identical to the serial VM run.
  CompiledRecurrence Fn = compileOrDie(SmithWatermanSource);
  const bio::SubstitutionMatrix M =
      bio::SubstitutionMatrix::matchMismatch(bio::Alphabet::dna(), 2, 1);
  bio::Sequence A("a", randomString(bio::Alphabet::dna().letters(), 64, 5));
  bio::Sequence B("b", randomString(bio::Alphabet::dna().letters(), 57, 9));
  std::vector<ArgValue> Args = {ArgValue::ofMatrix(&M),
                                ArgValue::ofSeq(&A), ArgValue(),
                                ArgValue::ofSeq(&B), ArgValue()};
  gpu::Device Dev;
  DiagnosticEngine Diags;

  RunOptions VmOpts;
  VmOpts.ScanWorkers = 1;
  auto Vm = Fn.runGpu(Args, Dev, Diags, VmOpts);
  ASSERT_TRUE(Vm.has_value()) << Diags.str();

  for (unsigned ScanWorkers : {1u, 3u}) {
    RunOptions JitOpts;
    JitOpts.Evaluator = EvalKind::Jit;
    JitOpts.JitCacheDir = jitCacheDirForTest();
    JitOpts.ScanWorkers = ScanWorkers;
    JitOpts.ScanGrainCells = 1; // force the fan-out even on a small box
    auto Jit = Fn.runGpu(Args, Dev, Diags, JitOpts);
    ASSERT_TRUE(Jit.has_value()) << Diags.str();
    expectRunsIdentical(*Vm, *Jit, "JIT",
                        " (scan-workers=" + std::to_string(ScanWorkers) +
                            ")");
  }

  // Batch nesting: the same problem replicated, batch workers > 1.
  std::vector<std::vector<ArgValue>> Problems(4, Args);
  RunOptions VmBatch;
  VmBatch.BatchWorkers = 1;
  RunOptions JitBatch;
  JitBatch.Evaluator = EvalKind::Jit;
  JitBatch.JitCacheDir = jitCacheDirForTest();
  JitBatch.BatchWorkers = 2;
  JitBatch.ScanWorkers = 2;
  auto VmB = Fn.runGpuBatch(Problems, Dev, Diags, VmBatch);
  auto JitB = Fn.runGpuBatch(Problems, Dev, Diags, JitBatch);
  ASSERT_TRUE(VmB.has_value()) << Diags.str();
  ASSERT_TRUE(JitB.has_value()) << Diags.str();
  ASSERT_EQ(VmB->Problems.size(), JitB->Problems.size());
  for (size_t I = 0; I != VmB->Problems.size(); ++I)
    expectRunsIdentical(VmB->Problems[I], JitB->Problems[I], "JIT",
                        " (batch problem " + std::to_string(I) + ")");
  EXPECT_EQ(VmB->TotalCycles, JitB->TotalCycles);
}

TEST(DifferentialTest, ShippedScriptsProduceIdenticalOutput) {
  for (const char *Script :
       {"smith_waterman.rdsl", "edit_distance.rdsl", "casino.rdsl"}) {
    std::string Source = readFileOrDie(scriptsPath(Script));
    auto RunScript = [&](EvalKind Evaluator) {
      DiagnosticEngine Diags;
      Interpreter::Options Opts;
      Opts.BasePath = PARREC_SCRIPTS_DIR;
      Opts.Run.Evaluator = Evaluator;
      Opts.Run.JitCacheDir = jitCacheDirForTest();
      Interpreter Interp(Diags, std::move(Opts));
      auto Output = Interp.run(Source);
      EXPECT_TRUE(Output.has_value())
          << Script << " failed: " << Diags.str();
      return Output.value_or("");
    };
    std::string VmOut = RunScript(EvalKind::Vm);
    std::string AstOut = RunScript(EvalKind::Ast);
    std::string JitOut = RunScript(EvalKind::Jit);
    EXPECT_FALSE(VmOut.empty()) << Script;
    EXPECT_EQ(VmOut, AstOut) << Script;
    EXPECT_EQ(VmOut, JitOut) << Script;
  }
}
