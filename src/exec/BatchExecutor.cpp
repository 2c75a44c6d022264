//===- BatchExecutor.cpp - Runs one batch of independent problems -----------==//
//
// Part of ParRec, a reproduction of "Synthesising Graphics Card Programs
// from DSLs" (Cartey, Lyngsø, de Moor; PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "exec/BatchExecutor.h"

#include "exec/ParallelFor.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"

#include <algorithm>
#include <mutex>

using namespace parrec;
using namespace parrec::exec;

void BatchOutcome::annotate(obs::Span &Span) const {
  if (!Span.active())
    return;
  Span.arg("makespan_cycles", Stats.MakespanCycles);
  if (Policy == gpu::DispatchPolicy::Barrier)
    return;
  Span.arg("pipelined", uint64_t{1});
  Span.arg("groups", Stats.Groups);
  Span.arg("overlap_cycles", Stats.OverlapCycles);
  Span.arg("idle_cycles", Stats.IdleCycles);
}

BatchOutcome BatchExecutor::run(const std::vector<BatchProblem> &Problems,
                                const PublishFn &Publish) const {
  BatchOutcome Out;
  Out.Policy = Policy;
  unsigned Budget =
      std::max(1u, hostWorkerBudget() / std::max(1u, BudgetShares));
  Out.BatchWorkers = resolveWorkerCount(BatchWorkers ? BatchWorkers : Budget,
                                        Problems.size());
  Out.ScanWorkers =
      ScanWorkers ? ScanWorkers : std::max(1u, Budget / Out.BatchWorkers);

  const bool Tracing = obs::Tracer::enabled();
  gpu::PipelinePlanner Planner(Model, Policy,
                               /*RecordStageStarts=*/Tracing);
  // The pipelined policies re-time the batch from per-partition
  // timelines, so their problems always record one; it is dropped again
  // before publication unless the problem itself asked for it.
  const bool ForceTimelines = Planner.needsTimelines();
  SimulatedGpuBackend Backend(Model);
  std::vector<RunResult> Results(Problems.size());
  std::vector<char> Done(Problems.size(), 0);
  size_t Cursor = 0;
  // Serialises planner feeding and publication, so problems publish in
  // submission order.
  std::mutex PublishMutex;

  auto PublishFinal = [&](const std::vector<size_t> &Final) {
    for (size_t I : Final) {
      const gpu::PipelinePlacement &Placement = Planner.placement(I);
      RunResult &R = Results[I];
      // Barrier problems each take their own device lane, back to back
      // from zero; pipelined ones sit on their multiprocessor at the
      // planned per-stage offsets.
      if (Tracing && R.Timeline)
        gpu::emitBlockTimeline(
            ForceTimelines ? Placement.Multiprocessor
                           : static_cast<unsigned>(I),
            *R.Timeline, ForceTimelines ? &Placement : nullptr,
            Problems[I].TraceLabel);
      if (ForceTimelines && !Problems[I].Options->Trace)
        R.Timeline.reset();
      Publish(I, R, Placement);
    }
  };

  parallelFor(Out.BatchWorkers, Problems.size(), [&](size_t I) {
    const BatchProblem &P = Problems[I];
    codegen::Evaluator Eval(Decl, Info);
    Eval.bind(*P.Args);
    RunOptions Ro = *P.Options;
    Ro.ScanWorkers = Out.ScanWorkers;
    Ro.Trace |= ForceTimelines;
    RunResult R = Backend.execute(*P.Plan, Eval, Ro);
    std::lock_guard<std::mutex> Lock(PublishMutex);
    Results[I] = std::move(R);
    Done[I] = 1;
    // Feed the prefix of finished problems to the planner in submission
    // order; publish whatever it finalises.
    for (; Cursor < Problems.size() && Done[Cursor]; ++Cursor) {
      const RunResult &Next = Results[Cursor];
      PublishFinal(Planner.add(gpu::PipelineProfile::make(
          Next.Timeline, Next.Cycles,
          static_cast<unsigned>(Next.Metrics.Threads))));
    }
  });

  // Every worker has joined: the rest runs on this thread alone.
  PublishFinal(Planner.finish());
  Out.Stats = Planner.stats();
  obs::MetricsRegistry &M = obs::MetricsRegistry::global();
  for (size_t Mp = 0; Mp != Out.Stats.MultiprocessorOverlap.size(); ++Mp) {
    M.observe("exec.pipeline_overlap_cycles",
              static_cast<double>(Out.Stats.MultiprocessorOverlap[Mp]));
    M.observe("exec.device_idle_cycles",
              static_cast<double>(Out.Stats.MultiprocessorIdle[Mp]));
  }
  return Out;
}
