//===- Autotuner.cpp - Cost-model schedule autotuning -------------------------==//
//
// Part of ParRec, a reproduction of "Synthesising Graphics Card Programs
// from DSLs" (Cartey, Lyngsø, de Moor; PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "compiler/Autotuner.h"

#include "exec/Table.h"
#include "gpu/CostModel.h"
#include "obs/Metrics.h"
#include "solver/ScheduleSynthesis.h"

#include <algorithm>

using namespace parrec;
using namespace parrec::compiler;
using solver::DomainBox;
using solver::RecurrenceSpec;
using solver::Schedule;

namespace {

/// Candidate schedules beyond this are ignored; the enumeration is tiny
/// for every practical recursion (n <= 3 dimensions), this is a guard
/// against pathological inputs.
constexpr size_t MaxCandidateSchedules = 12;

/// Probe-domain volume cap. Boxes at or below it are scored exactly;
/// larger boxes are shrunk with their aspect ratio preserved, so the
/// score ranks candidates rather than predicting absolute cycles.
constexpr uint64_t MaxScorePoints = 1ull << 20;

DomainBox scoreBoxFor(const DomainBox &Box, bool &Probe) {
  Probe = false;
  if (Box.totalPoints() <= MaxScorePoints)
    return Box;
  Probe = true;
  DomainBox P = Box;
  while (P.totalPoints() > MaxScorePoints) {
    bool Shrunk = false;
    for (unsigned D = 0; D != P.numDims(); ++D) {
      int64_t E = P.extent(D);
      if (E > 2) {
        P.Upper[D] = P.Lower[D] + E / 2 - 1;
        Shrunk = true;
      }
    }
    if (!Shrunk)
      break;
  }
  return P;
}

/// Cells per partition of \p S over \p Box, by exhaustive walk (the box
/// is probe-clamped first). Index i holds partition minOver + i.
std::vector<uint64_t> partitionHistogram(const Schedule &S,
                                         const DomainBox &Box) {
  int64_t Min = S.minOver(Box);
  int64_t Max = S.maxOver(Box);
  std::vector<uint64_t> Hist(static_cast<size_t>(Max - Min + 1), 0);
  if (Box.numDims() == 0)
    return Hist;
  std::vector<int64_t> X = Box.Lower;
  for (;;) {
    ++Hist[static_cast<size_t>(S.apply(X) - Min)];
    unsigned D = Box.numDims();
    for (;;) {
      if (D == 0)
        return Hist;
      --D;
      if (++X[D] <= Box.Upper[D])
        break;
      X[D] = Box.Lower[D];
    }
  }
}

/// A coarse, schedule-invariant per-cell cost: one table write, one
/// model read, and per recursive call as many table reads as the call's
/// free dimensions expand to (a reduction over k states reads k cells).
/// Only its ratio to the barrier cost matters — it is identical across
/// candidates, so it scales the work term without biasing the ranking.
gpu::CostCounter estimateCellCost(const RecurrenceSpec &Rec,
                                  const DomainBox &Box) {
  gpu::CostCounter C;
  C.TableWrites = 1;
  C.ModelReads = 1;
  C.Ops = 4;
  for (const solver::DescentFunction &Call : Rec.Calls) {
    uint64_t Reads = 1;
    for (unsigned D = 0; D != Box.numDims(); ++D)
      if (Call.isFreeDim(D))
        Reads *= static_cast<uint64_t>(std::max<int64_t>(Box.extent(D), 1));
    C.TableReads += Reads;
    C.Ops += 2 * Reads;
  }
  return C;
}

uint64_t fullTableBytes(const DomainBox &Box) {
  return Box.totalPoints() * sizeof(double);
}

/// Mirrors SlidingWindowTable's footprint: depth+1 planes, each the box
/// with the dropped dimension removed.
uint64_t windowTableBytes(const DomainBox &Box, int64_t Depth,
                          unsigned DropDim) {
  uint64_t Plane = 1;
  for (unsigned D = 0; D != Box.numDims(); ++D)
    if (D != DropDim)
      Plane *= static_cast<uint64_t>(Box.extent(D));
  return (static_cast<uint64_t>(Depth) + 1) * Plane * sizeof(double);
}

/// Modelled busiest-block cycles of one combination, mirroring the
/// simulator: per partition, the slowest thread's striped share of the
/// cells at the per-cell cost, plus one barrier per partition.
uint64_t modelCycles(const std::vector<uint64_t> &Hist, uint64_t PerCell,
                     unsigned Threads, const gpu::CostModel &Model) {
  uint64_t Cycles = 0;
  for (uint64_t Cells : Hist)
    Cycles += ((Cells + Threads - 1) / Threads) * PerCell +
              Model.SyncCycles;
  return Cycles;
}

} // namespace

AutotuneChoice compiler::tuneSchedule(const RecurrenceSpec &Rec,
                                      const DomainBox &Box,
                                      const exec::PlanRequest &Req,
                                      const Schedule &Default) {
  static const gpu::CostModel FallbackModel{};
  const gpu::CostModel &Model =
      Req.CostModel ? *Req.CostModel : FallbackModel;

  // The candidate schedule set, default first so it wins ties. A
  // user-forced schedule is never overridden — only its window and
  // thread count are tuned.
  std::vector<Schedule> Schedules = {Default};
  if (!Req.ForcedSchedule) {
    for (Schedule &S : solver::enumerateCandidateSchedules(Rec, Box)) {
      if (Schedules.size() >= MaxCandidateSchedules)
        break;
      if (std::find(Schedules.begin(), Schedules.end(), S) ==
          Schedules.end())
        Schedules.push_back(std::move(S));
    }
  }

  bool MayWindow = Req.UseSlidingWindow && !Req.KeepTable;
  bool Probe = false;
  DomainBox ScoreBox = scoreBoxFor(Box, Probe);
  gpu::CostCounter CellCost = estimateCellCost(Rec, Box);

  unsigned DefaultThreads = Model.CoresPerMultiprocessor;
  std::vector<unsigned> ThreadChoices = {DefaultThreads};
  if (DefaultThreads / 2 > 0)
    ThreadChoices.push_back(DefaultThreads / 2);

  AutotuneChoice Best;
  bool HaveBest = false;
  uint64_t Evaluated = 0;
  for (const Schedule &S : Schedules) {
    std::optional<int64_t> Depth = solver::slidingWindowDepth(Rec, S);
    int DropDim = Depth ? exec::pickWindowDropDim(S, Box) : -1;
    bool WindowLegal = MayWindow && Depth && DropDim >= 0;
    // Window-on first: it is the untuned pipeline's choice when legal.
    std::vector<bool> WindowChoices =
        WindowLegal ? std::vector<bool>{true, false}
                    : std::vector<bool>{false};

    std::vector<uint64_t> Hist = partitionHistogram(S, ScoreBox);
    for (bool Window : WindowChoices) {
      uint64_t Bytes =
          Window ? windowTableBytes(Box, *Depth,
                                    static_cast<unsigned>(DropDim))
                 : fullTableBytes(Box);
      bool InShared = Bytes <= Model.SharedMemBytes;
      uint64_t PerCell = Model.gpuCellCycles(CellCost, InShared);
      for (unsigned Threads : ThreadChoices) {
        uint64_t Cycles = modelCycles(Hist, PerCell, Threads, Model);
        ++Evaluated;
        // Strict improvement only: the first (default) combination
        // survives every tie, so tuning never regresses the model score.
        if (!HaveBest || Cycles < Best.ModelledCycles) {
          Best.Sched = S;
          Best.UseWindow = Window;
          Best.Threads = Threads;
          Best.ModelledCycles = Cycles;
          HaveBest = true;
        }
      }
    }
  }
  Best.CandidatesEvaluated = Evaluated;
  return Best;
}

void compiler::autotunePlan(CompilationModule &M, obs::Span &S) {
  AutotuneChoice Choice = tuneSchedule(M.recurrence(), *M.Box, M.Request,
                                       M.Draft->Sched);
  bool Changed = !(Choice.Sched == M.Draft->Sched);
  M.Draft->Sched = Choice.Sched;
  M.WindowOverride = Choice.UseWindow;
  M.Plan->TunedThreads = Choice.Threads;

  obs::MetricsRegistry &Reg = obs::MetricsRegistry::global();
  Reg.add("compile.autotune.runs");
  Reg.add("compile.autotune.candidates", Choice.CandidatesEvaluated);
  Reg.record("compile.autotune.modelled_cycles",
             static_cast<double>(Choice.ModelledCycles));

  if (S.active()) {
    S.arg("candidates", Choice.CandidatesEvaluated);
    S.arg("schedule", Choice.Sched.str(M.DimNames.empty()
                                           ? M.recurrence().DimNames
                                           : M.DimNames));
    S.arg("window", Choice.UseWindow);
    S.arg("threads", Choice.Threads);
    S.arg("modelled_cycles", Choice.ModelledCycles);
    S.arg("changed", Changed);
  }
}
