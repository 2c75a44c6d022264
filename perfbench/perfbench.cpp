//===- perfbench.cpp - The repository benchmark -----------------------===//
//
// Part of ParRec, a reproduction of "Synthesising Graphics Card Programs
// from DSLs" (Cartey, Lyngsø, de Moor; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one benchmark workload over the paper's three case studies
/// (Smith-Waterman, gene-finder Viterbi, profile-HMM forward) and prints
/// its metrics as one JSON line. Usage:
///
///   perfbench --workload <scan_long|serve_burst|serve_varlen_cold>
///             --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
///
/// A run repeats rounds until --seconds of measured time have passed.
/// Every round rebuilds its workload from the seed (set-up, timed as
/// setup_s), runs it (the measured region) and checks every result
/// against an independent oracle outside both timed regions. Rounds are
/// identical, so modelled cycles and batch counts must repeat exactly
/// from round to round. With --trace 1, every other round is traced: it
/// also reads the metrics registry and plan caches around its regions
/// and stamps every submit, and the per-layer metrics come from those
/// rounds. The layers are driven only through their public API.
///
//===----------------------------------------------------------------------===//

#include "BenchSupport.h"

#include "baselines/HmmBaselines.h"
#include "baselines/SmithWaterman.h"
#include "bio/Fasta.h"
#include "bio/Hmm.h"
#include "bio/HmmZoo.h"
#include "bio/SubstitutionMatrix.h"
#include "obs/Json.h"
#include "obs/Metrics.h"
#include "runtime/CompiledRecurrence.h"
#include "serve/Engine.h"
#include "support/Random.h"

#include <sys/resource.h>

#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

using namespace parrec;
using codegen::ArgValue;
using perfbench::OracleMatch;
using perfbench::Tally;
using runtime::CompiledRecurrence;
using Clock = std::chrono::steady_clock;

namespace {

double secondsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double>(B - A).count();
}

//===----------------------------------------------------------------------===//
// Case studies and their oracles
//===----------------------------------------------------------------------===//

enum Kind : unsigned { Sw, Viterbi, Forward, NumKinds };

const char *const Sources[NumKinds] = {
    // Section 6.1: Smith-Waterman with a linear gap penalty of 4.
    "int sw(matrix[protein] m, seq[protein] a, index[a] i,\n"
    "       seq[protein] b, index[b] j) =\n"
    "  if i == 0 then 0\n"
    "  else if j == 0 then 0\n"
    "  else 0 max (sw(i-1, j-1) + m[a[i-1], b[j-1]])\n"
    "       max (sw(i-1, j) - 4) max (sw(i, j-1) - 4)\n",
    // Section 6.2: Viterbi over the gene-finder model.
    "prob viterbi(hmm h, state[h] s, seq[dna] x, index[x] i) =\n"
    "  if i == 0 then\n"
    "    if s.isstart then 1.0 else 0.0\n"
    "  else\n"
    "    (if s.isend then 1.0 else s.emission[x[i-1]]) *\n"
    "    max(t in s.transitionsto : t.prob * viterbi(t.start, i - 1))\n",
    // Section 6.3: forward over a profile HMM.
    "prob forward(hmm h, state[h] s, seq[protein] x, index[x] i) =\n"
    "  if i == 0 then\n"
    "    if s.isstart then 1.0 else 0.0\n"
    "  else\n"
    "    (if s.isend then 1.0 else s.emission[x[i-1]]) *\n"
    "    sum(t in s.transitionsto : t.prob * forward(t.start, i - 1))\n",
};

OracleMatch oracleMatch(Kind K) {
  return K == Forward ? OracleMatch::Relative : OracleMatch::Exact;
}

/// The value a case study's result is judged by: the table maximum for
/// Smith-Waterman, the root cell (log space) for the HMM recursions.
double resultValue(Kind K, const exec::RunResult &R) {
  return K == Sw ? R.TableMax : R.RootValue;
}

std::optional<CompiledRecurrence> compileOrReport(Kind K) {
  DiagnosticEngine Diags;
  auto Fn = CompiledRecurrence::compile(Sources[K], Diags);
  if (!Fn)
    std::fprintf(stderr, "perfbench: compile failure:\n%s",
                 Diags.str().c_str());
  return Fn;
}

/// One problem of a workload: a case study and its bound arguments.
struct Problem {
  Kind K = Sw;
  std::vector<ArgValue> Args;
  const bio::Sequence *Seq = nullptr; ///< Subject or observation.
};

/// The generated inputs of one round. Problems point into this object,
/// so it is built in place and never moved.
struct Inputs {
  std::deque<bio::Sequence> Seqs;
  bio::Hmm Genes = bio::makeGeneFinderModel();
  std::optional<bio::Hmm> Profile;
  const bio::Sequence *Query = nullptr;
  /// Distinct inputs; the oracle holds one expected value per entry.
  std::vector<Problem> Problems;
  /// scan_long: one batch per case study. Serve workloads: the waves, in
  /// submission order; an exact repeat names an earlier wave's problem.
  std::vector<std::vector<size_t>> Groups;

  Inputs() = default;
  Inputs(const Inputs &) = delete;
  Inputs &operator=(const Inputs &) = delete;

  size_t add(Kind K, bio::Sequence S) {
    Seqs.push_back(std::move(S));
    const bio::Sequence *Seq = &Seqs.back();
    Problem P;
    P.K = K;
    P.Seq = Seq;
    switch (K) {
    case Sw:
      P.Args = {ArgValue::ofMatrix(&bio::SubstitutionMatrix::blosum62()),
                ArgValue::ofSeq(Query), ArgValue(), ArgValue::ofSeq(Seq),
                ArgValue()};
      break;
    case Viterbi:
      P.Args = {ArgValue::ofHmm(&Genes), ArgValue(), ArgValue::ofSeq(Seq),
                ArgValue()};
      break;
    case Forward:
      P.Args = {ArgValue::ofHmm(&*Profile), ArgValue(),
                ArgValue::ofSeq(Seq), ArgValue()};
      break;
    case NumKinds:
      break;
    }
    Problems.push_back(std::move(P));
    return Problems.size() - 1;
  }
};

/// Expected values from oracles independent of the code under test:
/// the Smith-Waterman and forward baselines, and the serial CPU run with
/// the AST evaluator for Viterbi (no baseline exists for it).
std::optional<std::vector<double>> oracleValues(const Inputs &In) {
  std::optional<CompiledRecurrence> ViterbiOracle = compileOrReport(Viterbi);
  if (!ViterbiOracle)
    return std::nullopt;
  baselines::SwParams Params;
  Params.Matrix = &bio::SubstitutionMatrix::blosum62();
  Params.GapPenalty = 4;
  gpu::CostModel Model;
  exec::RunOptions Ast;
  Ast.Evaluator = exec::EvalKind::Ast;
  std::vector<double> Expected;
  Expected.reserve(In.Problems.size());
  for (const Problem &P : In.Problems) {
    gpu::CostCounter Cost;
    switch (P.K) {
    case Sw:
      Expected.push_back(
          baselines::smithWatermanScore(*In.Query, *P.Seq, Params, Cost));
      break;
    case Forward:
      Expected.push_back(
          baselines::forwardLogLikelihood(*In.Profile, *P.Seq, Cost));
      break;
    case Viterbi: {
      DiagnosticEngine Diags;
      auto R = ViterbiOracle->runCpu(P.Args, Model, Diags, Ast);
      if (!R) {
        std::fprintf(stderr, "perfbench: oracle failure:\n%s",
                     Diags.str().c_str());
        return std::nullopt;
      }
      Expected.push_back(R->RootValue);
      break;
    }
    case NumKinds:
      break;
    }
  }
  return Expected;
}

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

enum class WorkloadKind { ScanLong, ServeBurst, ServeVarlenCold };

std::optional<WorkloadKind> parseWorkload(const std::string &Name) {
  if (Name == "scan_long")
    return WorkloadKind::ScanLong;
  if (Name == "serve_burst")
    return WorkloadKind::ServeBurst;
  if (Name == "serve_varlen_cold")
    return WorkloadKind::ServeVarlenCold;
  return std::nullopt;
}

int64_t uniform(SplitMix64 &Rng, int64_t Low, int64_t High) {
  return Low + static_cast<int64_t>(
                   Rng.nextBelow(static_cast<uint64_t>(High - Low + 1)));
}

template <typename T> void shuffle(std::vector<T> &V, SplitMix64 &Rng) {
  for (size_t I = V.size(); I > 1; --I)
    std::swap(V[I - 1], V[Rng.nextBelow(I)]);
}

/// scan_long: one batch of long problems per case study, each sized to
/// take a few tenths of a second with the JIT on four host workers.
/// Lengths vary by well under one percent with the seed, so the work per
/// round barely moves between seeds.
void makeScanInputs(Inputs &In, uint64_t Seed) {
  SplitMix64 Rng(Seed ^ 0x5CA7105C);
  constexpr unsigned BatchSize = 12;
  DiagnosticEngine Diags;
  In.Profile = bio::eliminateSilentStates(
      bio::makeProfileHmm(50, bio::Alphabet::protein(), Rng.next()), Diags);
  In.Seqs.push_back(bio::randomSequence(bio::Alphabet::protein(),
                                        uniform(Rng, 1200, 1207), Rng.next(),
                                        "query"));
  In.Query = &In.Seqs.back();
  const int64_t SwLength = uniform(Rng, 2400, 2415);
  const int64_t DnaLength = uniform(Rng, 230000, 230999);
  const int64_t ReadLength = uniform(Rng, 1600, 1607);
  In.Groups.assign(NumKinds, {});
  for (unsigned I = 0; I != BatchSize; ++I) {
    In.Groups[Sw].push_back(In.add(
        Sw, bio::randomSequence(bio::Alphabet::protein(), SwLength,
                                Rng.next(), "subject")));
    In.Groups[Viterbi].push_back(In.add(
        Viterbi, bio::randomSequence(bio::Alphabet::dna(), DnaLength,
                                     Rng.next(), "dna")));
    In.Groups[Forward].push_back(In.add(
        Forward, bio::randomSequence(bio::Alphabet::protein(), ReadLength,
                                     Rng.next(), "read")));
  }
}

/// The serve workloads' waves. serve_burst: fixed shapes (every request
/// of a case study has one box), a seeded tenant mix per wave, and in
/// every wave after the first about a quarter of the requests repeat an
/// earlier wave's input exactly. serve_varlen_cold: lengths spread over
/// a wide range so almost every request has a new box, no repeats.
void makeServeInputs(Inputs &In, uint64_t Seed, bool Varlen) {
  SplitMix64 Rng(Seed ^ (Varlen ? 0xC01DC01D : 0xB0257B02));
  DiagnosticEngine Diags;
  In.Profile = bio::eliminateSilentStates(
      bio::makeProfileHmm(8, bio::Alphabet::protein(), Rng.next()), Diags);
  In.Seqs.push_back(bio::randomSequence(bio::Alphabet::protein(), 32,
                                        Rng.next(), "query"));
  In.Query = &In.Seqs.back();
  // Requests per wave and case study. serve_burst's shapes are fixed
  // within a run; only the Viterbi length moves with the seed (by a few
  // percent of one tenant's cells), so modelled cycles differ slightly
  // between seeds but batch composition does not. serve_varlen_cold
  // splits 24..400 into one stratum per request of a case study, deals
  // the strata round-robin to the waves and adds 0..3 to each stratum's
  // base: every request has a distinct length, and waves, cells and
  // dispatch order barely move with the seed.
  const unsigned Waves = Varlen ? 2 : 24;
  const unsigned Counts[NumKinds] = {Varlen ? 3u : 20u, Varlen ? 2u : 8u,
                                     Varlen ? 3u : 8u};
  const int64_t Lengths[NumKinds] = {32, uniform(Rng, 48, 51), 48};
  auto lengthFor = [&](unsigned K, unsigned W, unsigned I) {
    if (!Varlen)
      return Lengths[K];
    const int64_t Strata = Waves * Counts[K], Min = 24, Span = 400 - Min + 1;
    const int64_t Stratum = I * Waves + W;
    return Min + Stratum * Span / Strata + uniform(Rng, 0, 3);
  };
  std::vector<size_t> Fresh;
  for (unsigned W = 0; W != Waves; ++W) {
    std::vector<size_t> Wave;
    for (unsigned K = 0; K != NumKinds; ++K)
      for (unsigned I = 0; I != Counts[K]; ++I) {
        const bio::Alphabet &Alpha =
            K == Viterbi ? bio::Alphabet::dna() : bio::Alphabet::protein();
        Wave.push_back(In.add(
            static_cast<Kind>(K),
            bio::randomSequence(Alpha, lengthFor(K, W, I), Rng.next(),
                                "request")));
      }
    if (Varlen) {
      In.Groups.push_back(std::move(Wave));
      continue;
    }
    size_t NewInWave = Wave.size();
    if (!Fresh.empty())
      for (size_t I = 0, Repeats = (NewInWave + 1) / 3; I != Repeats; ++I)
        Wave.push_back(Fresh[Rng.nextBelow(Fresh.size())]);
    Fresh.insert(Fresh.end(), Wave.begin(), Wave.begin() + NewInWave);
    // Shuffle so repeats and tenants interleave in submission order.
    shuffle(Wave, Rng);
    In.Groups.push_back(std::move(Wave));
  }
}

/// Traffic properties of a round's inputs, recorded with every result.
struct Traffic {
  uint64_t Requests = 0;
  double RepeatFrac = 0.0;
  double NewKeyFrac = 0.0;
  uint64_t DistinctPlanKeys = 0;
};

/// (case study, box-determining length): the plan key up to options,
/// which are fixed within a workload.
using KeyId = std::pair<unsigned, int64_t>;

KeyId keyOf(const Problem &P) { return {P.K, P.Seq->length()}; }

Traffic trafficOf(const Inputs &In, bool Warmed) {
  Traffic T;
  std::set<KeyId> Seen;
  std::set<size_t> Submitted;
  uint64_t Repeats = 0, NewKeys = 0;
  for (const std::vector<size_t> &Group : In.Groups)
    for (size_t Index : Group) {
      ++T.Requests;
      Repeats += !Submitted.insert(Index).second;
      NewKeys += Seen.insert(keyOf(In.Problems[Index])).second;
    }
  T.DistinctPlanKeys = Seen.size();
  if (Warmed)
    NewKeys = 0;
  if (T.Requests) {
    T.RepeatFrac = static_cast<double>(Repeats) / T.Requests;
    T.NewKeyFrac = static_cast<double>(NewKeys) / T.Requests;
  }
  return T;
}

//===----------------------------------------------------------------------===//
// Measurements
//===----------------------------------------------------------------------===//

/// Registry values a traced round reads before and after its regions.
struct Reading {
  std::vector<double> PassNs = std::vector<double>(
      perfbench::compilerPasses().size(), 0.0);
  double JitCompiles = 0, JitCompileNs = 0, JitDiskHits = 0,
         JitFallbacks = 0, OverlapCycles = 0, IdleCycles = 0;

  static Reading take() {
    obs::MetricsSnapshot S = obs::MetricsRegistry::global().snapshot();
    Reading R;
    for (size_t I = 0; I != R.PassNs.size(); ++I) {
      auto It = S.Distributions.find(std::string("compile.pass.") +
                                     perfbench::compilerPasses()[I] + ".ns");
      if (It != S.Distributions.end())
        R.PassNs[I] = It->second.Sum;
    }
    auto Dist = [&](const char *Name) {
      auto It = S.Distributions.find(Name);
      return It == S.Distributions.end() ? 0.0 : It->second.Sum;
    };
    R.JitCompiles = static_cast<double>(S.counter("jit.cache_misses"));
    R.JitCompileNs = Dist("jit.compile_ns");
    R.JitDiskHits = static_cast<double>(S.counter("jit.cache_hits"));
    R.JitFallbacks = static_cast<double>(S.counter("jit.fallbacks"));
    R.OverlapCycles = S.histogramTotal("exec.pipeline_overlap_cycles").Sum;
    R.IdleCycles = S.histogramTotal("exec.device_idle_cycles").Sum;
    return R;
  }

  /// Adds (After - Before) into this reading.
  void addDelta(const Reading &Before, const Reading &After) {
    for (size_t I = 0; I != PassNs.size(); ++I)
      PassNs[I] += After.PassNs[I] - Before.PassNs[I];
    JitCompiles += After.JitCompiles - Before.JitCompiles;
    JitCompileNs += After.JitCompileNs - Before.JitCompileNs;
    JitDiskHits += After.JitDiskHits - Before.JitDiskHits;
    JitFallbacks += After.JitFallbacks - Before.JitFallbacks;
    OverlapCycles += After.OverlapCycles - Before.OverlapCycles;
    IdleCycles += After.IdleCycles - Before.IdleCycles;
  }
};

/// Everything one round measured.
struct RoundStats {
  bool Traced = false;
  std::vector<double> SetupSeconds;
  double MeasuredSeconds = 0.0;
  Tally Results;
  uint64_t ModelledCycles = 0;
  uint64_t Batches = 0;
  std::vector<double> LatencyMs;

  // Per-layer figures, filled by traced rounds.
  double CompileSeconds = 0.0;
  Reading SetupRegistry;   ///< Pass times over set-up.
  Reading MeasuredRegistry; ///< Everything over the measured region.
  uint64_t PlanLookups = 0, PlanMisses = 0;
  double ScanSeconds = 0.0;
  uint64_t ScannedCells = 0;
  std::array<double, NumKinds> KindScanSeconds{};
  std::array<uint64_t, NumKinds> KindCells{};
  double DeviceCyclesMaxOverMin = 1.0;
  double LayerSeconds = 0.0, EndToEndSeconds = 0.0;
  std::vector<double> SubmitUs, QueueMs, ExecMs, PublishUs;
  std::array<std::vector<double>, NumKinds> TenantLatencyMs;
  uint64_t MemoHits = 0, Submitted = 0, Executed = 0, MaxQueueDepth = 0;
};

/// One round's compiled functions, inputs and (serve workloads) engine.
struct Round {
  std::unique_ptr<Inputs> In;
  std::array<std::optional<CompiledRecurrence>, NumKinds> Fns;
  exec::RunOptions Options;
  std::unique_ptr<serve::Engine> Engine;
};

exec::PlanCache::Stats planStats(const Round &R) {
  exec::PlanCache::Stats Sum;
  for (const auto &Fn : R.Fns) {
    exec::PlanCache::Stats S = Fn->planCacheStats();
    Sum.Hits += S.Hits;
    Sum.Misses += S.Misses;
  }
  return Sum;
}

serve::Engine::Options engineOptions() {
  serve::Engine::Options O;
  O.Devices = 2;
  O.MaxBatch = 8;
  O.Pipeline = true;
  O.MemoCapacity = 4096;
  O.ContinuousBatch = false;
  O.StartPaused = true;
  O.TenantWeights = {{"sw", 10}, {"forward", 1}, {"viterbi", 1}};
  return O;
}

/// Builds one round: compiles the case studies, generates the inputs,
/// and warms what users do not pay on every run (scan_long: plans and
/// JIT kernels; serve_burst: plans). Returns false on failure.
bool setupRound(WorkloadKind W, uint64_t Seed, const std::string &JitDir,
                Round &R, RoundStats &S) {
  auto T0 = Clock::now();
  for (unsigned K = 0; K != NumKinds; ++K)
    if (!(R.Fns[K] = compileOrReport(static_cast<Kind>(K))))
      return false;
  S.CompileSeconds = secondsBetween(T0, Clock::now());

  R.In = std::make_unique<Inputs>();
  if (W == WorkloadKind::ScanLong)
    makeScanInputs(*R.In, Seed);
  else
    makeServeInputs(*R.In, Seed, W == WorkloadKind::ServeVarlenCold);
  if (!R.In->Profile)
    return false;

  if (W != WorkloadKind::ServeBurst) {
    R.Options.Evaluator = exec::EvalKind::Jit;
    R.Options.JitCacheDir = JitDir;
  }
  gpu::Device Device;
  DiagnosticEngine Diags;
  if (W == WorkloadKind::ScanLong) {
    for (unsigned K = 0; K != NumKinds; ++K)
      if (!R.Fns[K]->runGpuBatch({R.In->Problems[R.In->Groups[K][0]].Args},
                                 Device, Diags, R.Options))
        return false;
    return true;
  }
  if (W == WorkloadKind::ServeBurst) {
    std::set<KeyId> Warmed;
    for (const Problem &P : R.In->Problems) {
      if (!Warmed.insert(keyOf(P)).second)
        continue;
      auto Box = R.Fns[P.K]->domainFor(P.Args, Diags);
      if (!Box || !R.Fns[P.K]->planFor(*Box, R.Options, nullptr, Diags))
        return false;
    }
  }
  R.Engine = std::make_unique<serve::Engine>(engineOptions());
  return true;
}

void runScan(Round &R, const std::vector<double> &Expected, RoundStats &S) {
  const Inputs &In = *R.In;
  std::array<std::vector<std::vector<ArgValue>>, NumKinds> Batches;
  for (unsigned K = 0; K != NumKinds; ++K)
    for (size_t Index : In.Groups[K])
      Batches[K].push_back(In.Problems[Index].Args);
  gpu::Device Device;
  exec::PlanCache::Stats PlansBefore = planStats(R);
  std::array<std::optional<exec::BatchResult>, NumKinds> Results;

  auto Start = Clock::now();
  for (unsigned K = 0; K != NumKinds; ++K) {
    DiagnosticEngine Diags;
    auto T0 = Clock::now();
    Results[K] = R.Fns[K]->runGpuBatch(Batches[K], Device, Diags, R.Options);
    double Seconds = secondsBetween(T0, Clock::now());
    S.LatencyMs.push_back(Seconds * 1e3);
    S.KindScanSeconds[K] = Seconds;
    S.ScanSeconds += Seconds;
  }
  S.MeasuredSeconds = secondsBetween(Start, Clock::now());

  exec::PlanCache::Stats PlansAfter = planStats(R);
  S.PlanLookups = PlansAfter.Hits + PlansAfter.Misses - PlansBefore.Hits -
                  PlansBefore.Misses;
  S.PlanMisses = PlansAfter.Misses - PlansBefore.Misses;
  S.Batches = NumKinds;
  S.LayerSeconds = S.ScanSeconds;
  S.EndToEndSeconds = S.MeasuredSeconds;
  for (unsigned K = 0; K != NumKinds; ++K) {
    const std::vector<size_t> &Group = In.Groups[K];
    if (Results[K])
      S.ModelledCycles += Results[K]->TotalCycles;
    for (size_t I = 0; I != Group.size(); ++I) {
      const exec::RunResult *Got =
          Results[K] ? &Results[K]->Problems[I] : nullptr;
      uint64_t Cells = Got ? Got->Cells : 0;
      S.Results.record(Got != nullptr, Expected[Group[I]],
                       Got ? resultValue(static_cast<Kind>(K), *Got) : 0.0,
                       oracleMatch(static_cast<Kind>(K)), Cells);
      S.ScannedCells += Cells;
      S.KindCells[K] += Cells;
    }
  }
}

/// What a serve request's completion callback records.
struct Slot {
  Clock::time_point SubmitBefore, SubmitAfter, Resolved;
  serve::Status St = serve::Status::Failed;
  bool Memoized = false;
  double Value = 0.0;
  uint64_t Cells = 0;
  double QueueSeconds = 0.0, ExecSeconds = 0.0, TotalSeconds = 0.0;
  unsigned Device = 0;
  uint64_t BatchId = 0;
};

/// Closed waves: each wave is admitted whole while the coalescer is
/// paused, the virtual clock is advanced past it, and it is released and
/// drained before the next wave, so batch composition and modelled
/// cycles are a function of the inputs alone.
void runServe(Round &R, bool Traced, const std::vector<double> &Expected,
              RoundStats &S) {
  const Inputs &In = *R.In;
  serve::Engine &Engine = *R.Engine;
  size_t Total = 0;
  for (const std::vector<size_t> &Wave : In.Groups)
    Total += Wave.size();
  std::vector<Slot> Slots(Total);
  std::vector<Clock::time_point> Releases;
  // Shared with the callbacks, which may still be returning on an engine
  // thread when the last wait below wakes up.
  struct Completion {
    std::mutex Mutex;
    std::condition_variable Cv;
    size_t Done = 0; // Guarded by Mutex.
  };
  auto Done = std::make_shared<Completion>();
  exec::PlanCache::Stats PlansBefore = planStats(R);

  size_t Base = 0;
  for (const std::vector<size_t> &Wave : In.Groups) {
    for (size_t J = 0; J != Wave.size(); ++J) {
      const Problem &P = In.Problems[Wave[J]];
      serve::Request Req;
      Req.Fn = &*R.Fns[P.K];
      Req.Args = P.Args;
      Req.Options = R.Options;
      Req.Priority = P.K == Viterbi ? 1 : 0;
      Req.Tenant = perfbench::tenantNames()[P.K];
      Slot &Sl = Slots[Base + J];
      Kind K = P.K;
      Sl.SubmitBefore = Clock::now();
      Engine.submit(std::move(Req), [&Sl, Done, K](const serve::Response &Resp) {
        Sl.Resolved = Clock::now();
        Sl.St = Resp.St;
        Sl.Memoized = Resp.Memoized;
        Sl.Value = resultValue(K, Resp.Result);
        Sl.Cells = Resp.Result.Cells;
        Sl.QueueSeconds = Resp.QueueSeconds;
        Sl.ExecSeconds = Resp.ExecSeconds;
        Sl.TotalSeconds = Resp.TotalSeconds;
        Sl.Device = Resp.Device;
        Sl.BatchId = Resp.BatchId;
        std::lock_guard<std::mutex> Lock(Done->Mutex);
        ++Done->Done;
        Done->Cv.notify_one();
      });
      if (Traced)
        Sl.SubmitAfter = Clock::now();
    }
    Base += Wave.size();
    Engine.advanceTo(Engine.now() + 1);
    Releases.push_back(Clock::now());
    Engine.resume();
    {
      std::unique_lock<std::mutex> Lock(Done->Mutex);
      Done->Cv.wait(Lock, [&] { return Done->Done == Base; });
    }
    Engine.pause();
  }

  // Every callback has written its slot (Done == Total under the mutex),
  // so the slots are safe to read.
  Clock::time_point Last = Releases.front();
  for (const Slot &Sl : Slots)
    Last = std::max(Last, Sl.Resolved);
  S.MeasuredSeconds = secondsBetween(Releases.front(), Last);

  // Under the pipelined dispatcher a future resolves before its batch
  // drains, and the batch's device cycles are counted when it drains:
  // drain the engine before reading its counters.
  Engine.shutdown(serve::Engine::ShutdownMode::Drain);
  serve::Engine::Stats Stats = Engine.stats();
  S.ModelledCycles = Stats.maxDeviceCycles();
  S.Batches = Stats.Batches;
  S.MemoHits = Stats.MemoHits;
  S.Submitted = Stats.Submitted;
  S.MaxQueueDepth = Stats.MaxQueueDepth;
  uint64_t MinDevice = UINT64_MAX;
  for (uint64_t C : Stats.DeviceCycles)
    MinDevice = std::min(MinDevice, C);
  S.DeviceCyclesMaxOverMin =
      MinDevice ? static_cast<double>(S.ModelledCycles) / MinDevice : 0.0;
  exec::PlanCache::Stats PlansAfter = planStats(R);
  S.PlanLookups = PlansAfter.Hits + PlansAfter.Misses - PlansBefore.Hits -
                  PlansBefore.Misses;
  S.PlanMisses = PlansAfter.Misses - PlansBefore.Misses;

  // Per batch (device, id): its case study and its execution window, the
  // longest member's under the pipelined dispatcher.
  std::map<std::pair<unsigned, uint64_t>, std::pair<Kind, double>> BatchExec;
  Base = 0;
  for (size_t W = 0; W != In.Groups.size(); ++W) {
    const std::vector<size_t> &Wave = In.Groups[W];
    for (size_t J = 0; J != Wave.size(); ++J) {
      const Slot &Sl = Slots[Base + J];
      const Problem &P = In.Problems[Wave[J]];
      bool Ok = Sl.St == serve::Status::Ok;
      S.Results.record(Ok, Expected[Wave[J]], Sl.Value, oracleMatch(P.K),
                       Sl.Cells);
      // A memo hit resolves inside submit(), before its wave's release.
      Clock::time_point Start =
          Sl.Resolved < Releases[W] ? Sl.SubmitBefore : Releases[W];
      double LatencySeconds = secondsBetween(Start, Sl.Resolved);
      S.LatencyMs.push_back(LatencySeconds * 1e3);
      if (!Traced)
        continue;
      S.TenantLatencyMs[P.K].push_back(LatencySeconds * 1e3);
      S.SubmitUs.push_back(secondsBetween(Sl.SubmitBefore, Sl.SubmitAfter) *
                           1e6);
      // The engine stamps its submit time inside submit() and measures
      // QueueSeconds/TotalSeconds from there; SubmitBefore stands in.
      double Publish =
          secondsBetween(Sl.SubmitBefore, Sl.Resolved) - Sl.TotalSeconds;
      S.PublishUs.push_back(Publish * 1e6);
      S.EndToEndSeconds += LatencySeconds;
      if (!Ok || Sl.Memoized) {
        S.LayerSeconds += Sl.TotalSeconds + Publish;
        continue;
      }
      double Queue =
          Sl.QueueSeconds - secondsBetween(Sl.SubmitBefore, Releases[W]);
      S.QueueMs.push_back(Queue * 1e3);
      S.ExecMs.push_back(Sl.ExecSeconds * 1e3);
      S.LayerSeconds += Queue + Sl.ExecSeconds + Publish;
      ++S.Executed;
      S.ScannedCells += Sl.Cells;
      S.KindCells[P.K] += Sl.Cells;
      auto &Batch = BatchExec[{Sl.Device, Sl.BatchId}];
      Batch.first = P.K;
      Batch.second = std::max(Batch.second, Sl.ExecSeconds);
    }
    Base += Wave.size();
  }
  for (const auto &[Id, Batch] : BatchExec) {
    S.ScanSeconds += Batch.second;
    S.KindScanSeconds[Batch.first] += Batch.second;
  }
}

//===----------------------------------------------------------------------===//
// Report
//===----------------------------------------------------------------------===//

struct CliOptions {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  std::string WorkDir;
};

bool parseCli(int Argc, char **Argv, CliOptions &O) {
  bool HaveWorkload = false, HaveWorkDir = false;
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string Flag = Argv[I], Value = Argv[I + 1];
    char *End = nullptr;
    if (Flag == "--workload") {
      O.Workload = Value;
      HaveWorkload = true;
    } else if (Flag == "--seed") {
      O.Seed = std::strtoull(Value.c_str(), &End, 10);
    } else if (Flag == "--seconds") {
      O.Seconds = std::strtod(Value.c_str(), &End);
      if (!(O.Seconds > 0.0 && O.Seconds <= 120.0))
        return false;
    } else if (Flag == "--trace") {
      if (Value != "0" && Value != "1")
        return false;
      O.Trace = Value == "1";
    } else if (Flag == "--work-dir") {
      O.WorkDir = Value;
      HaveWorkDir = true;
    } else {
      return false;
    }
    if (End && *End)
      return false;
  }
  return Argc % 2 == 1 && HaveWorkload && HaveWorkDir;
}

double perRound(const std::vector<const RoundStats *> &Rounds,
                double (*Get)(const RoundStats &)) {
  if (Rounds.empty())
    return 0.0;
  double Sum = 0.0;
  for (const RoundStats *R : Rounds)
    Sum += Get(*R);
  return Sum / static_cast<double>(Rounds.size());
}

std::vector<double> pooled(const std::vector<const RoundStats *> &Rounds,
                           std::vector<double> RoundStats::*Field) {
  std::vector<double> All;
  for (const RoundStats *R : Rounds)
    All.insert(All.end(), (R->*Field).begin(), (R->*Field).end());
  return All;
}

double ratio(double Num, double Den) { return Den > 0.0 ? Num / Den : 0.0; }

/// The per-layer metrics, from the traced rounds; see README.md for what
/// each one should move.
std::map<std::string, double>
perLayer(const std::vector<RoundStats> &All, const Tally &Results,
         uint64_t LatencySamples) {
  using perfbench::percentile;
  std::vector<const RoundStats *> Traced;
  std::vector<double> TracedSeconds, UntracedSeconds;
  for (const RoundStats &R : All) {
    if (R.Traced)
      Traced.push_back(&R);
    (R.Traced ? TracedSeconds : UntracedSeconds).push_back(R.MeasuredSeconds);
  }
  std::map<std::string, double> M;
  M["compiler.compile_s"] =
      perRound(Traced, [](const RoundStats &R) { return R.CompileSeconds; });
  const auto &Passes = perfbench::compilerPasses();
  for (size_t I = 0; I != Passes.size(); ++I) {
    double Ns = 0.0;
    for (const RoundStats *R : Traced)
      Ns += R->SetupRegistry.PassNs[I] + R->MeasuredRegistry.PassNs[I];
    M[std::string("compiler.pass.") + Passes[I] + "_s"] =
        Traced.empty() ? 0.0 : Ns / 1e9 / Traced.size();
  }
  double Lookups = perRound(Traced, [](const RoundStats &R) {
    return static_cast<double>(R.PlanLookups);
  });
  M["exec.plan.lookups"] = Lookups;
  M["exec.plan.miss_frac"] = ratio(
      perRound(Traced,
               [](const RoundStats &R) {
                 return static_cast<double>(R.PlanMisses);
               }),
      Lookups);
  M["codegen.jit.compiles"] = perRound(
      Traced, [](const RoundStats &R) { return R.MeasuredRegistry.JitCompiles; });
  M["codegen.jit.compile_s"] = perRound(Traced, [](const RoundStats &R) {
    return R.MeasuredRegistry.JitCompileNs / 1e9;
  });
  M["codegen.jit.disk_hits"] = perRound(
      Traced, [](const RoundStats &R) { return R.MeasuredRegistry.JitDiskHits; });
  M["codegen.jit.fallbacks"] = perRound(Traced, [](const RoundStats &R) {
    return R.SetupRegistry.JitFallbacks + R.MeasuredRegistry.JitFallbacks;
  });

  double Scan =
      perRound(Traced, [](const RoundStats &R) { return R.ScanSeconds; });
  double Wall =
      perRound(Traced, [](const RoundStats &R) { return R.MeasuredSeconds; });
  double Cells = perRound(Traced, [](const RoundStats &R) {
    return static_cast<double>(R.ScannedCells);
  });
  M["exec.scan_s"] = Scan;
  M["exec.scan_frac"] = ratio(Scan, Wall);
  M["exec.scan.ns_per_cell"] = ratio(Scan * 1e9, Cells);
  for (unsigned K = 0; K != NumKinds; ++K) {
    double KindSeconds = 0.0, KindCells = 0.0;
    for (const RoundStats *R : Traced) {
      KindSeconds += R->KindScanSeconds[K];
      KindCells += static_cast<double>(R->KindCells[K]);
    }
    M[std::string("exec.scan.") + perfbench::tenantNames()[K] +
      ".cells_per_s"] = ratio(KindCells, KindSeconds);
  }

  double Cycles = perRound(Traced, [](const RoundStats &R) {
    return static_cast<double>(R.ModelledCycles);
  });
  M["gpu.cycles_per_cell"] = ratio(Cycles, Cells);
  M["gpu.overlap_cycles"] = perRound(
      Traced, [](const RoundStats &R) { return R.MeasuredRegistry.OverlapCycles; });
  M["gpu.idle_cycles"] = perRound(
      Traced, [](const RoundStats &R) { return R.MeasuredRegistry.IdleCycles; });
  M["gpu.device_cycles_max_over_min"] = perRound(
      Traced, [](const RoundStats &R) { return R.DeviceCyclesMaxOverMin; });
  M["gpu.host_ns_per_cycle"] = ratio(Wall * 1e9, Cycles);

  M["serve.submit_us.p50"] =
      percentile(pooled(Traced, &RoundStats::SubmitUs), 0.5);
  M["serve.submit_us.p99"] =
      percentile(pooled(Traced, &RoundStats::SubmitUs), 0.99);
  M["serve.queue_ms.p50"] =
      percentile(pooled(Traced, &RoundStats::QueueMs), 0.5);
  M["serve.queue_ms.p99"] =
      percentile(pooled(Traced, &RoundStats::QueueMs), 0.99);
  M["serve.exec_ms.p50"] = percentile(pooled(Traced, &RoundStats::ExecMs), 0.5);
  M["serve.publish_us.p50"] =
      percentile(pooled(Traced, &RoundStats::PublishUs), 0.5);
  double Batches = perRound(Traced, [](const RoundStats &R) {
    return static_cast<double>(R.Batches);
  });
  bool Serving = !Traced.empty() && Traced.front()->Submitted != 0;
  M["serve.batches"] = Serving ? Batches : 0.0;
  M["serve.requests_per_batch"] =
      Serving ? ratio(perRound(Traced,
                               [](const RoundStats &R) {
                                 return static_cast<double>(R.Executed);
                               }),
                      Batches)
              : 0.0;
  M["serve.memo.hit_frac"] = ratio(
      perRound(Traced,
               [](const RoundStats &R) {
                 return static_cast<double>(R.MemoHits);
               }),
      perRound(Traced, [](const RoundStats &R) {
        return static_cast<double>(R.Submitted);
      }));
  M["serve.max_queue_depth"] = perRound(Traced, [](const RoundStats &R) {
    return static_cast<double>(R.MaxQueueDepth);
  });
  for (unsigned K = 0; K != NumKinds; ++K) {
    std::vector<double> Tenant;
    for (const RoundStats *R : Traced)
      Tenant.insert(Tenant.end(), R->TenantLatencyMs[K].begin(),
                    R->TenantLatencyMs[K].end());
    M[std::string("serve.tenant.") + perfbench::tenantNames()[K] +
      ".latency_p50_ms"] = percentile(Tenant, 0.5);
  }

  double TracedMedian = perfbench::median(TracedSeconds);
  double UntracedMedian = perfbench::median(UntracedSeconds);
  M["trace.overhead_frac"] =
      UntracedMedian > 0.0 ? TracedMedian / UntracedMedian - 1.0 : 0.0;
  double LayerSum = 0.0, EndToEnd = 0.0;
  for (const RoundStats *R : Traced) {
    LayerSum += R->LayerSeconds;
    EndToEnd += R->EndToEndSeconds;
  }
  M["layers.residual_frac"] = perfbench::residualFrac(LayerSum, EndToEnd);
  M["error_frac"] = Results.errorFrac();
  M["latency.samples"] = static_cast<double>(LatencySamples);
  return M;
}

/// The end-to-end metrics. Rounds are identical work, so throughput and
/// latency percentiles are taken per round and reported as the median
/// over the run's rounds: a burst of load from outside the benchmark
/// then moves one round, not the run's figure.
std::map<std::string, double> endToEnd(const std::vector<RoundStats> &All) {
  std::vector<double> Setup, Throughput, P50, P99;
  for (const RoundStats &R : All) {
    Setup.insert(Setup.end(), R.SetupSeconds.begin(), R.SetupSeconds.end());
    Throughput.push_back(
        ratio(static_cast<double>(R.Results.GoodCells), R.MeasuredSeconds));
    P50.push_back(perfbench::percentile(R.LatencyMs, 0.5));
    P99.push_back(perfbench::percentile(R.LatencyMs, 0.99));
  }
  struct rusage Usage;
  ::getrusage(RUSAGE_SELF, &Usage);
  std::map<std::string, double> M;
  M["setup_s"] = perfbench::median(Setup);
  M["cells_per_s"] = perfbench::median(Throughput);
  M["latency_p50_ms"] = perfbench::median(P50);
  M["latency_p99_ms"] = perfbench::median(P99);
  M["modelled_makespan_cycles"] =
      static_cast<double>(All.front().ModelledCycles);
  M["peak_rss_mb"] = static_cast<double>(Usage.ru_maxrss) / 1024.0;
  return M;
}

} // namespace

int main(int Argc, char **Argv) {
  CliOptions Cli;
  std::optional<WorkloadKind> W;
  if (!parseCli(Argc, Argv, Cli) || !(W = parseWorkload(Cli.Workload))) {
    std::fprintf(stderr,
                 "usage: perfbench --workload "
                 "<scan_long|serve_burst|serve_varlen_cold> --seed <n> "
                 "--seconds <s> --trace <0|1> --work-dir <dir>\n");
    return 2;
  }

  // A run stops starting rounds well inside a three-minute run limit.
  constexpr double RunBudgetSeconds = 120.0;
  const size_t MinRounds = Cli.Trace ? 2 : 1;
  auto RunStart = Clock::now();
  std::vector<RoundStats> Rounds;
  std::optional<std::vector<double>> Expected;
  std::optional<Traffic> TrafficMeta;
  double Measured = 0.0;
  while (Rounds.size() < MinRounds || Measured < Cli.Seconds) {
    RoundStats S;
    // Trace mode alternates traced and untraced rounds so the tracing
    // overhead is measured within one run.
    S.Traced = Cli.Trace && Rounds.size() % 2 == 0;
    // A fresh private JIT cache per round: no round or run depends on
    // what ran before it.
    std::string JitDir =
        Cli.WorkDir + "/jit-round" + std::to_string(Rounds.size());
    std::error_code Ec;
    std::filesystem::remove_all(JitDir, Ec);
    // A serve set-up takes about a millisecond, so it is repeated to give
    // setup_s enough samples; the last one is kept. scan_long's set-up
    // (JIT compiles and warm batches) runs once a round.
    const unsigned SetupRepeats = *W == WorkloadKind::ScanLong ? 1 : 5;
    Round R;
    Reading Before;
    for (unsigned I = 0; I != SetupRepeats; ++I) {
      R.Engine.reset();
      R = Round();
      if (S.Traced && I + 1 == SetupRepeats)
        Before = Reading::take();
      auto T0 = Clock::now();
      bool Ok = setupRound(*W, Cli.Seed, JitDir, R, S);
      S.SetupSeconds.push_back(secondsBetween(T0, Clock::now()));
      if (!Ok) {
        std::fprintf(stderr, "perfbench: set-up failed\n");
        return 1;
      }
    }
    if (S.Traced)
      S.SetupRegistry.addDelta(Before, Reading::take());
    if (!Expected) {
      Expected = oracleValues(*R.In);
      if (!Expected)
        return 1;
      TrafficMeta = trafficOf(*R.In, *W != WorkloadKind::ServeVarlenCold);
    }
    Before = S.Traced ? Reading::take() : Reading();
    if (*W == WorkloadKind::ScanLong)
      runScan(R, *Expected, S);
    else
      runServe(R, S.Traced, *Expected, S);
    if (S.Traced)
      S.MeasuredRegistry.addDelta(Before, Reading::take());
    R.Engine.reset();
    std::filesystem::remove_all(JitDir, Ec);
    Measured += S.MeasuredSeconds;
    Rounds.push_back(std::move(S));
    if (secondsBetween(RunStart, Clock::now()) > RunBudgetSeconds)
      break;
  }

  Tally Results;
  uint64_t LatencySamples = 0;
  bool Repeatable = true;
  for (const RoundStats &R : Rounds) {
    Results.merge(R.Results);
    LatencySamples += R.LatencyMs.size();
    Repeatable &= R.ModelledCycles == Rounds.front().ModelledCycles &&
                  R.Batches == Rounds.front().Batches;
  }
  // A JIT workload that fell back to the VM would silently measure the
  // VM; any fallback anywhere in the process fails the run.
  uint64_t Fallbacks =
      obs::MetricsRegistry::global().snapshot().counter("jit.fallbacks");
  bool Correct = Results.Failed == 0 && Repeatable && Fallbacks == 0;
  if (!Repeatable) {
    std::fprintf(stderr, "perfbench: modelled cycles or batch counts "
                         "differ between identical rounds:");
    for (const RoundStats &R : Rounds)
      std::fprintf(stderr, " %llu/%llu",
                   static_cast<unsigned long long>(R.ModelledCycles),
                   static_cast<unsigned long long>(R.Batches));
    std::fprintf(stderr, "\n");
  }
  if (Fallbacks)
    std::fprintf(stderr, "perfbench: %llu JIT fallbacks\n",
                 static_cast<unsigned long long>(Fallbacks));

  std::map<std::string, double> Metrics =
      Cli.Trace ? perLayer(Rounds, Results, LatencySamples)
                : endToEnd(Rounds);
  const auto &Specs =
      Cli.Trace ? perfbench::perLayerMetrics() : perfbench::endToEndMetrics();

  obs::JsonWriter J;
  J.beginObject();
  J.key("correct").value(Correct);
  J.key("attempted").value(Results.Attempted);
  J.key("failed").value(Results.Failed);
  J.key("metrics").beginObject();
  for (const perfbench::MetricSpec &Spec : Specs) {
    auto It = Metrics.find(Spec.Name);
    if (It == Metrics.end() || !perfbench::validMetricName(Spec.Name)) {
      std::fprintf(stderr, "perfbench: metric '%s' missing or misnamed\n",
                   Spec.Name.c_str());
      return 1;
    }
    J.key(Spec.Name).beginObject();
    J.key("value").value(It->second);
    J.key("unit").value(Spec.Unit);
    J.endObject();
  }
  J.endObject();
  std::vector<double> Setup;
  for (const RoundStats &R : Rounds)
    Setup.insert(Setup.end(), R.SetupSeconds.begin(), R.SetupSeconds.end());
  J.key("meta").beginObject();
  J.key("workload").value(Cli.Workload);
  J.key("seed").value(Cli.Seed);
  J.key("trace").value(Cli.Trace);
  J.key("hardware_concurrency").value(std::thread::hardware_concurrency());
  J.key("compiler").value(PERFBENCH_COMPILER);
  J.key("build_type").value(PERFBENCH_BUILD_TYPE);
  J.key("rounds").value(static_cast<uint64_t>(Rounds.size()));
  J.key("measured_s").value(Measured);
  J.key("setup_s_samples").beginArray();
  for (double S : Setup)
    J.value(S);
  J.endArray();
  J.key("latency_samples").value(LatencySamples);
  J.key("batches_per_round").value(Rounds.front().Batches);
  J.key("modelled_cycles_repeat").value(Repeatable);
  J.key("jit_fallbacks").value(Fallbacks);
  J.key("traffic").beginObject();
  J.key("requests_per_round").value(TrafficMeta->Requests);
  J.key("repeat_frac").value(TrafficMeta->RepeatFrac);
  J.key("new_plan_key_frac").value(TrafficMeta->NewKeyFrac);
  J.key("distinct_plan_keys").value(TrafficMeta->DistinctPlanKeys);
  J.key("cells_per_request")
      .value(ratio(static_cast<double>(Rounds.front().Results.GoodCells),
                   static_cast<double>(TrafficMeta->Requests)));
  J.endObject();
  J.endObject();
  J.endObject();
  std::printf("%s\n", J.str().c_str());
  return Correct ? 0 : 1;
}
