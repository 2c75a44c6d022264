//===- BatchExecutor.h - Runs one batch of independent problems ---*- C++ -*-==//
//
// Part of ParRec, a reproduction of "Synthesising Graphics Card Programs
// from DSLs" (Cartey, Lyngsø, de Moor; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one executor behind every multi-problem batch: the map primitive
/// (CompiledRecurrence::runGpuBatch) and each served batch
/// (serve::Engine). Each problem is one simulated multiprocessor, so
/// problems fan out across host workers; finished problems feed a
/// gpu::PipelinePlanner in submission order, and every problem the
/// planner finalises goes to the caller's publish callback with its
/// placement. The dispatch policy — barrier, pipelined or packed — is
/// the planner's, not a second code path: it only decides when problems
/// finalise and at which modelled cycle.
///
//===----------------------------------------------------------------------===//

#ifndef PARREC_EXEC_BATCHEXECUTOR_H
#define PARREC_EXEC_BATCHEXECUTOR_H

#include "exec/ExecutionBackend.h"
#include "gpu/Pipeline.h"

#include <functional>
#include <vector>

namespace parrec {
namespace obs {
class Span;
} // namespace obs

namespace exec {

/// One problem of a batch.
struct BatchProblem {
  const ExecutablePlan *Plan = nullptr;
  /// The calling arguments the problem's evaluator is bound to.
  const std::vector<codegen::ArgValue> *Args = nullptr;
  /// The problem's own options; the executor overrides ScanWorkers.
  const RunOptions *Options = nullptr;
  /// Labels the problem's device-lane trace slices under the pipelined
  /// policies.
  uint64_t TraceLabel = 0;
};

/// What one batch cost and how it ran.
struct BatchOutcome {
  gpu::DispatchPolicy Policy = gpu::DispatchPolicy::Barrier;
  gpu::PipelineStats Stats;
  /// The resolved host worker counts.
  unsigned BatchWorkers = 0;
  unsigned ScanWorkers = 0;

  /// Adds makespan_cycles — plus pipelined, groups, overlap_cycles and
  /// idle_cycles under the pipelined policies — to a dispatch span.
  void annotate(obs::Span &Span) const;
};

/// Called once per problem, in submission order, the moment the planner
/// finalises it. \p Result may be moved from. Calls are serialised; they
/// may run on any batch worker, so a callback must not block on a later
/// problem of the same batch.
using PublishFn =
    std::function<void(size_t Problem, RunResult &Result,
                       const gpu::PipelinePlacement &Placement)>;

/// A batch's function, device model, dispatch policy and host worker
/// request.
struct BatchExecutor {
  const lang::FunctionDecl &Decl;
  const lang::FunctionInfo &Info;
  const gpu::CostModel &Model;
  gpu::DispatchPolicy Policy = gpu::DispatchPolicy::Barrier;
  /// Host workers striping the problems; 0 takes the budget share.
  unsigned BatchWorkers = 0;
  /// Host workers per problem scan; 0 takes what the batch stripe leaves
  /// of the budget share. An explicit request is obeyed verbatim.
  unsigned ScanWorkers = 0;
  /// Executors splitting exec::hostWorkerBudget() between them (the
  /// serving engine's device count), so batch x scan nesting never
  /// oversubscribes the host. Worker counts never change results.
  unsigned BudgetShares = 1;

  /// Runs every problem, publishes each as it finalises, and returns
  /// once the batch has drained.
  BatchOutcome run(const std::vector<BatchProblem> &Problems,
                   const PublishFn &Publish) const;
};

} // namespace exec
} // namespace parrec

#endif // PARREC_EXEC_BATCHEXECUTOR_H
