//===- JitCacheTest.cpp - Native JIT disk cache and fallback ----------------==//
//
// Part of ParRec, a reproduction of "Synthesising Graphics Card Programs
// from DSLs" (Cartey, Lyngsø, de Moor; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The native JIT's caching and degradation contract: a warm disk cache
/// means zero compiler invocations, a PlanCache hit means zero JIT work
/// of any kind, a corrupt cache entry is silently recompiled, the
/// ParRec_JIT_CACHE override is honoured, and a broken host compiler
/// degrades to the bytecode VM with identical results and exactly one
/// warning line for the whole process. Also pins what the rendered cell
/// path may not contain: per-term libm calls and slot stores.
///
//===----------------------------------------------------------------------===//

#include "bio/Fasta.h"
#include "bio/HmmZoo.h"
#include "bio/SubstitutionMatrix.h"
#include "codegen/NativeJit.h"
#include "exec/Plan.h"
#include "obs/Metrics.h"
#include "runtime/CompiledRecurrence.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>

#include <unistd.h>

using namespace parrec;
using namespace parrec::runtime;
using codegen::ArgValue;

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

const char *ForwardSource =
    "prob forward(hmm h, state[h] s, seq[protein] x, index[x] i) =\n"
    "  if i == 0 then\n"
    "    if s.isstart then 1.0 else 0.0\n"
    "  else\n"
    "    (if s.isend then 1.0 else s.emission[x[i-1]]) *\n"
    "    sum(t in s.transitionsto : t.prob * forward(t.start, i - 1))\n";

/// Smith-Waterman arguments: a 32-residue query against one subject per
/// requested length. Sequences live in a deque so the argument pointers
/// stay valid.
struct SwProblems {
  std::deque<bio::Sequence> Seqs;
  std::vector<std::vector<ArgValue>> Args;

  explicit SwProblems(const std::vector<int64_t> &Lengths) {
    Seqs.push_back(bio::randomSequence(bio::Alphabet::protein(), 32, 17,
                                       "query"));
    const bio::Sequence *Query = &Seqs.front();
    for (int64_t Length : Lengths) {
      Seqs.push_back(bio::randomSequence(bio::Alphabet::protein(), Length,
                                         100 + Length, "subject"));
      Args.push_back({ArgValue::ofMatrix(&bio::SubstitutionMatrix::blosum62()),
                      ArgValue::ofSeq(Query), ArgValue(),
                      ArgValue::ofSeq(&Seqs.back()), ArgValue()});
    }
  }
};

/// A fresh per-test cache directory (removed on construction so every
/// test starts cold).
std::string freshCacheDir(const char *Tag) {
  std::string Dir = "/tmp/parrec-jit-cachetest-" +
                    std::to_string(::getpid()) + "-" + Tag;
  std::filesystem::remove_all(Dir);
  return Dir;
}

CompiledRecurrence compileOrDie(const char *Source = EditDistanceSource) {
  DiagnosticEngine Diags;
  auto Compiled = CompiledRecurrence::compile(Source, Diags);
  EXPECT_TRUE(Compiled.has_value()) << Diags.str();
  return std::move(*Compiled);
}

uint64_t counter(const char *Name) {
  return obs::MetricsRegistry::global().snapshot().counter(Name);
}

uint64_t distCount(const char *Name) {
  obs::MetricsSnapshot Snap = obs::MetricsRegistry::global().snapshot();
  auto It = Snap.Distributions.find(Name);
  return It == Snap.Distributions.end() ? 0 : It->second.Count;
}

/// Runs edit distance on \p Fn with the given evaluator and cache dir,
/// returning the root value (the edit distance itself).
double runOnce(const CompiledRecurrence &Fn, exec::EvalKind Evaluator,
               const std::string &CacheDir) {
  bio::Sequence S("s", "kitten"), T("t", "sitting");
  std::vector<ArgValue> Args = {ArgValue::ofSeq(&S), ArgValue(),
                                ArgValue::ofSeq(&T), ArgValue()};
  gpu::Device Dev;
  DiagnosticEngine Diags;
  RunOptions Opts;
  Opts.Evaluator = Evaluator;
  Opts.JitCacheDir = CacheDir;
  auto Result = Fn.runGpu(Args, Dev, Diags, Opts);
  EXPECT_TRUE(Result.has_value()) << Diags.str();
  return Result ? Result->RootValue : -1.0;
}

/// The kernel source \p Source's plan for \p Args renders to.
std::string renderedKernel(const char *Source,
                           const std::vector<ArgValue> &Args,
                           bool KeepTable) {
  DiagnosticEngine Diags;
  auto Fn = CompiledRecurrence::compile(Source, Diags);
  EXPECT_TRUE(Fn.has_value()) << Diags.str();
  if (!Fn)
    return "";
  auto Box = Fn->domainFor(Args, Diags);
  EXPECT_TRUE(Box.has_value()) << Diags.str();
  if (!Box)
    return "";
  RunOptions Opts;
  Opts.KeepTable = KeepTable;
  auto Plan = Fn->planFor(*Box, Opts, nullptr, Diags);
  EXPECT_NE(Plan, nullptr) << Diags.str();
  return Plan ? codegen::renderKernelSource(*Plan->Shape) : "";
}

/// Every block of \p Source that \p Head opens, from the head to its
/// matching close brace.
std::vector<std::string> blocksOpenedBy(const std::string &Source,
                                        const std::string &Head) {
  std::vector<std::string> Blocks;
  for (size_t At = Source.find(Head); At != std::string::npos;
       At = Source.find(Head, At + 1)) {
    size_t End = Source.find('{', At);
    for (int Depth = 0; End < Source.size(); ++End) {
      if (Source[End] == '{')
        ++Depth;
      else if (Source[End] == '}' && --Depth == 0)
        break;
    }
    Blocks.push_back(Source.substr(At, End + 1 - At));
  }
  return Blocks;
}

} // namespace

TEST(JitCacheTest, CompilesAndMatchesVm) {
  std::string Dir = freshCacheDir("compiles");
  CompiledRecurrence Fn = compileOrDie();
  uint64_t MissesBefore = counter("jit.cache_misses");
  double Vm = runOnce(Fn, exec::EvalKind::Vm, "");
  double Jit = runOnce(Fn, exec::EvalKind::Jit, Dir);
  EXPECT_EQ(Vm, Jit);
  EXPECT_GT(counter("jit.cache_misses"), MissesBefore);
  // The cache dir now holds the kernel (.so) and its source (.c).
  bool SawSo = false;
  for (const auto &Entry : std::filesystem::directory_iterator(Dir))
    SawSo |= Entry.path().extension() == ".so";
  EXPECT_TRUE(SawSo) << "no compiled kernel in " << Dir;
}

TEST(JitCacheTest, DiskCacheHitAcrossEngines) {
  std::string Dir = freshCacheDir("warm");
  {
    CompiledRecurrence Cold = compileOrDie();
    runOnce(Cold, exec::EvalKind::Jit, Dir);
  }
  // A fresh CompiledRecurrence has an empty PlanCache, so planning runs
  // the jit pass again — but the disk cache must satisfy it without a
  // single compiler invocation.
  CompiledRecurrence Warm = compileOrDie();
  uint64_t HitsBefore = counter("jit.cache_hits");
  uint64_t CompilesBefore = distCount("jit.compile_ns");
  double Vm = runOnce(Warm, exec::EvalKind::Vm, "");
  double Jit = runOnce(Warm, exec::EvalKind::Jit, Dir);
  EXPECT_EQ(Vm, Jit);
  EXPECT_GT(counter("jit.cache_hits"), HitsBefore);
  EXPECT_EQ(distCount("jit.compile_ns"), CompilesBefore)
      << "a warm disk cache still invoked the host compiler";
}

TEST(JitCacheTest, PlanCacheHitSkipsCompilation) {
  std::string Dir = freshCacheDir("plancache");
  CompiledRecurrence Fn = compileOrDie();
  runOnce(Fn, exec::EvalKind::Jit, Dir);
  // Same function, same box, same options: the PlanCache hit returns
  // the plan with its kernel already attached — the jit pass (and so
  // the whole JIT machinery) must not run at all.
  uint64_t PassRunsBefore = distCount("compile.pass.jit.ns");
  uint64_t HitsBefore = counter("jit.cache_hits");
  uint64_t MissesBefore = counter("jit.cache_misses");
  runOnce(Fn, exec::EvalKind::Jit, Dir);
  EXPECT_EQ(distCount("compile.pass.jit.ns"), PassRunsBefore);
  EXPECT_EQ(counter("jit.cache_hits"), HitsBefore);
  EXPECT_EQ(counter("jit.cache_misses"), MissesBefore);
}

TEST(JitCacheTest, CorruptEntryRecompiles) {
  std::string Dir = freshCacheDir("corrupt");
  {
    CompiledRecurrence Cold = compileOrDie();
    runOnce(Cold, exec::EvalKind::Jit, Dir);
  }
  // Truncate every cached kernel: dlopen must fail, and the entry must
  // be recompiled from scratch rather than poisoning the run.
  for (const auto &Entry : std::filesystem::directory_iterator(Dir))
    if (Entry.path().extension() == ".so")
      std::ofstream(Entry.path(), std::ios::trunc).put('x');
  CompiledRecurrence Fresh = compileOrDie();
  uint64_t CompilesBefore = distCount("jit.compile_ns");
  double Vm = runOnce(Fresh, exec::EvalKind::Vm, "");
  double Jit = runOnce(Fresh, exec::EvalKind::Jit, Dir);
  EXPECT_EQ(Vm, Jit);
  EXPECT_GT(distCount("jit.compile_ns"), CompilesBefore)
      << "the corrupt entry was not recompiled";
}

TEST(JitCacheTest, EnvOverrideSelectsTheCacheDir) {
  std::string Dir = freshCacheDir("env");
  ASSERT_EQ(::setenv("ParRec_JIT_CACHE", Dir.c_str(), 1), 0);
  CompiledRecurrence Fn = compileOrDie();
  // Empty RunOptions::JitCacheDir: the env var decides.
  double Vm = runOnce(Fn, exec::EvalKind::Vm, "");
  double Jit = runOnce(Fn, exec::EvalKind::Jit, "");
  ::unsetenv("ParRec_JIT_CACHE");
  EXPECT_EQ(Vm, Jit);
  bool SawSo = false;
  for (const auto &Entry : std::filesystem::directory_iterator(Dir))
    SawSo |= Entry.path().extension() == ".so";
  EXPECT_TRUE(SawSo) << "ParRec_JIT_CACHE was ignored";
}

TEST(JitCacheTest, BogusCompilerFallsBackToVm) {
  std::string Dir = freshCacheDir("bogus");
  ASSERT_EQ(::setenv("CC", "/nonexistent/bin/not-a-compiler", 1), 0);
  CompiledRecurrence Fn = compileOrDie();
  uint64_t FallbacksBefore = counter("jit.fallbacks");
  double Vm = runOnce(Fn, exec::EvalKind::Vm, "");
  double Jit = runOnce(Fn, exec::EvalKind::Jit, Dir);
  ::unsetenv("CC");
  EXPECT_EQ(Vm, Jit) << "the VM fallback changed the result";
  EXPECT_GT(counter("jit.fallbacks"), FallbacksBefore);
  // Exactly one warning line per process, however many plans fall back.
  EXPECT_EQ(codegen::jitWarningsEmitted(), 1u);
  // The failed compile leaves its source and the compiler's diagnostics
  // side by side.
  std::set<std::string> Stems;
  for (const auto &Entry : std::filesystem::directory_iterator(Dir)) {
    if (Entry.path().extension() != ".log")
      continue;
    EXPECT_GT(std::filesystem::file_size(Entry.path()), 0u);
    std::filesystem::path Source = Entry.path();
    EXPECT_TRUE(std::filesystem::exists(Source.replace_extension(".c")))
        << Source;
    Stems.insert(Entry.path().stem().string());
  }
  EXPECT_EQ(Stems.size(), 1u) << "no compiler log in " << Dir;
  std::string Dir2 = freshCacheDir("bogus2");
  ASSERT_EQ(::setenv("CC", "/nonexistent/bin/not-a-compiler", 1), 0);
  CompiledRecurrence Again = compileOrDie();
  runOnce(Again, exec::EvalKind::Jit, Dir2);
  ::unsetenv("CC");
  EXPECT_EQ(codegen::jitWarningsEmitted(), 1u);
}

TEST(JitCacheTest, ConcurrentCompilesOfOneKernelNeverFallBack) {
  // Threads (or processes) compiling the same kernel into one directory
  // must never truncate a source file another compiler is reading: every
  // compile succeeds and nothing falls back to the VM.
  CompiledRecurrence Fn = compileOrDie();
  bio::Sequence S("s", "kitten"), T("t", "sitting");
  DiagnosticEngine Diags;
  auto Box = Fn.domainFor({ArgValue::ofSeq(&S), ArgValue(),
                           ArgValue::ofSeq(&T), ArgValue()},
                          Diags);
  ASSERT_TRUE(Box.has_value()) << Diags.str();
  auto Plan = Fn.planFor(*Box, RunOptions(), nullptr, Diags);
  ASSERT_NE(Plan, nullptr) << Diags.str();

  uint64_t FallbacksBefore = counter("jit.fallbacks");
  constexpr unsigned Threads = 8;
  for (unsigned Rep = 0; Rep != 20; ++Rep) {
    codegen::JitCompileOptions Opts;
    Opts.CacheDir = freshCacheDir("race");
    std::vector<std::shared_ptr<const codegen::JitKernel>> Kernels(Threads);
    std::vector<std::thread> Pool;
    for (unsigned I = 0; I != Threads; ++I)
      Pool.emplace_back([&, I] {
        Kernels[I] = codegen::compileKernel(*Plan->Shape, Opts);
      });
    for (std::thread &Th : Pool)
      Th.join();
    for (unsigned I = 0; I != Threads; ++I)
      EXPECT_NE(Kernels[I], nullptr) << "rep " << Rep << ", thread " << I;
    std::filesystem::remove_all(Opts.CacheDir);
  }
  EXPECT_EQ(counter("jit.fallbacks"), FallbacksBefore);
}

TEST(JitCacheTest, OneKernelServesEveryLength) {
  // Subjects of 24 and 400 against a 32-residue query: the sliding
  // window drops a different dimension for each, and the kernel source
  // must not change. Each box is planned by a fresh function, so each
  // source is generated anew rather than shared through the shape cache.
  SwProblems Pair({24, 400});
  for (bool KeepTable : {false, true}) {
    SCOPED_TRACE(KeepTable ? "full table" : "sliding window");
    RunOptions Opts;
    Opts.KeepTable = KeepTable;
    std::vector<std::string> Sources;
    std::vector<unsigned> Dropped;
    for (const std::vector<ArgValue> &Args : Pair.Args) {
      CompiledRecurrence Fn = compileOrDie(SmithWatermanSource);
      DiagnosticEngine Diags;
      auto Box = Fn.domainFor(Args, Diags);
      ASSERT_TRUE(Box.has_value()) << Diags.str();
      auto Plan = Fn.planFor(*Box, Opts, nullptr, Diags);
      ASSERT_NE(Plan, nullptr) << Diags.str();
      EXPECT_EQ(Plan->Shape->UseWindow, !KeepTable);
      Sources.push_back(codegen::renderKernelSource(*Plan->Shape));
      Dropped.push_back(Plan->WindowDropDim);
    }
    ASSERT_FALSE(Sources[0].empty());
    EXPECT_EQ(Sources[0], Sources[1]);
    if (!KeepTable) {
      EXPECT_NE(Dropped[0], Dropped[1]);
    }
    // No box constant: the long subject's bound, extent and plane size.
    for (const char *Constant : {"400", "401", "13233"})
      EXPECT_EQ(Sources[1].find(Constant), std::string::npos) << Constant;
  }

  // Served lengths compile once per shape — here the window shape and
  // the full-table shape — however many lengths run.
  SwProblems Lengths({24, 400, 57, 131, 32, 9});
  std::string Dir = freshCacheDir("lengths");
  CompiledRecurrence Fn = compileOrDie(SmithWatermanSource);
  gpu::Device Dev;
  uint64_t MissesBefore = counter("jit.cache_misses");
  uint64_t FallbacksBefore = counter("jit.fallbacks");
  for (bool KeepTable : {false, true})
    for (const std::vector<ArgValue> &Args : Lengths.Args) {
      RunOptions Opts;
      Opts.KeepTable = KeepTable;
      Opts.Evaluator = exec::EvalKind::Jit;
      Opts.JitCacheDir = Dir;
      DiagnosticEngine Diags;
      EXPECT_TRUE(Fn.runGpu(Args, Dev, Diags, Opts).has_value())
          << Diags.str();
    }
  EXPECT_EQ(counter("jit.cache_misses") - MissesBefore, 2u);
  EXPECT_EQ(counter("jit.fallbacks"), FallbacksBefore);
}

TEST(JitCacheTest, CellPathCallsNoLibmPerTermAndKeepsCountersLocal) {
  // Smith-Waterman's int table reads are exact casts, the forward
  // reduction's loop runs LogSumAcc (its log1p follows the loop), and
  // the cost lanes, table max and root capture reach the slot once per
  // call, after the simulated-thread loops.
  SwProblems Sw({40});
  DiagnosticEngine Diags;
  auto Profile = bio::eliminateSilentStates(
      bio::makeProfileHmm(4, bio::Alphabet::protein(), /*Seed=*/3), Diags);
  ASSERT_TRUE(Profile.has_value()) << Diags.str();
  bio::Sequence Read =
      bio::randomSequence(bio::Alphabet::protein(), 30, 8, "read");
  std::vector<ArgValue> ForwardArgs = {ArgValue::ofHmm(&*Profile),
                                       ArgValue(), ArgValue::ofSeq(&Read),
                                       ArgValue()};
  for (bool KeepTable : {false, true}) {
    SCOPED_TRACE(KeepTable ? "full table" : "sliding window");
    std::string SwKernel =
        renderedKernel(SmithWatermanSource, Sw.Args[0], KeepTable);
    std::string ForwardKernel =
        renderedKernel(ForwardSource, ForwardArgs, KeepTable);
    ASSERT_FALSE(SwKernel.empty());
    ASSERT_FALSE(ForwardKernel.empty());
    EXPECT_EQ(SwKernel.find("llround"), std::string::npos);

    std::vector<std::string> Reductions =
        blocksOpenedBy(ForwardKernel, "for (uint64_t re = 0;");
    ASSERT_FALSE(Reductions.empty());
    for (const std::string &Loop : Reductions) {
      EXPECT_EQ(Loop.find("log1p"), std::string::npos) << Loop;
      EXPECT_EQ(Loop.find("pr_logaddexp"), std::string::npos) << Loop;
    }

    for (const std::string *Kernel : {&SwKernel, &ForwardKernel}) {
      std::vector<std::string> ThreadLoops =
          blocksOpenedBy(*Kernel, "PR_THREAD_LOOP {");
      ASSERT_FALSE(ThreadLoops.empty());
      for (const std::string &Loop : ThreadLoops)
        EXPECT_EQ(Loop.find("slot->"), std::string::npos) << Loop;
    }
  }
}

TEST(JitCacheTest, KernelOwnsThePartitionLoop) {
  // Figure 10's structure: every simulated-thread loop sits inside the
  // kernel's partition time loop, and parrec_scan is the only function
  // the translation unit exports (every helper is static), so no
  // per-partition entry survives beside it.
  SwProblems Sw({40});
  bio::Hmm Genes = bio::makeGeneFinderModel();
  bio::Sequence Dna = bio::randomSequence(bio::Alphabet::dna(), 30, 4, "x");
  std::vector<ArgValue> ViterbiArgs = {ArgValue::ofHmm(&Genes), ArgValue(),
                                       ArgValue::ofSeq(&Dna), ArgValue()};
  const char *ViterbiSource =
      "prob viterbi(hmm h, state[h] s, seq[dna] x, index[x] i) =\n"
      "  if i == 0 then\n"
      "    if s.isstart then 1.0 else 0.0\n"
      "  else\n"
      "    (if s.isend then 1.0 else s.emission[x[i-1]]) *\n"
      "    max(t in s.transitionsto : t.prob * viterbi(t.start, i - 1))\n";
  for (bool KeepTable : {false, true}) {
    SCOPED_TRACE(KeepTable ? "full table" : "sliding window");
    for (const std::string &Kernel :
         {renderedKernel(SmithWatermanSource, Sw.Args[0], KeepTable),
          renderedKernel(ViterbiSource, ViterbiArgs, KeepTable)}) {
      ASSERT_FALSE(Kernel.empty());
      const std::string ThreadLoop = "PR_THREAD_LOOP {";
      size_t Enclosed = 0;
      for (const std::string &Loop :
           blocksOpenedBy(Kernel, "for (int64_t v0 = p_lo; v0 <= p_hi;"))
        Enclosed += blocksOpenedBy(Loop, ThreadLoop).size();
      size_t ThreadLoops = blocksOpenedBy(Kernel, ThreadLoop).size();
      EXPECT_GT(ThreadLoops, 0u);
      EXPECT_EQ(Enclosed, ThreadLoops);

      std::vector<std::string> Exported;
      std::istringstream Lines(Kernel);
      for (std::string Line; std::getline(Lines, Line);)
        if (!Line.empty() &&
            std::isalpha(static_cast<unsigned char>(Line[0])) &&
            Line.rfind("static ", 0) != 0 && Line.rfind("typedef ", 0) != 0)
          Exported.push_back(Line);
      ASSERT_EQ(Exported.size(), 1u)
          << (Exported.empty() ? "none" : Exported.back());
      EXPECT_EQ(Exported[0].rfind("PR_KERNEL void parrec_scan(", 0), 0u)
          << Exported[0];
    }
  }
}
