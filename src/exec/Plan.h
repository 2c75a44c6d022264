//===- Plan.h - Immutable executable plans ------------------------*- C++ -*-==//
//
// Part of ParRec, a reproduction of "Synthesising Graphics Card Programs
// from DSLs" (Cartey, Lyngsø, de Moor; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The planning stage of the execution pipeline, split in two halves.
///
/// A PlanShape is everything that does not depend on the concrete domain
/// box: the resolved schedule (Section 4.5-4.7), the sliding-window depth
/// (Section 4.8), the CLooG-style loop nest (Section 4.3) generated with
/// the box as 2N parameters — parametric in the problem size exactly as
/// the paper's Figure 9 nest is in m and n — and the compiled cell body
/// (bytecode program, and a handle to the native kernel, which arrives
/// when its compile finishes). One shape serves every box of a
/// (function, schedule, window, flags) combination.
///
/// An ExecutablePlan is the cheap per-box half: the box, the parameter
/// vector the shape's nest is evaluated at, the dropped window dimension
/// and the partition range. Plans are memoised per box in a PlanCache;
/// a plan miss resolves the schedule for the new box and then reuses the
/// shape from a ShapeCache, so loop generation and JIT compilation run
/// once per shape, not once per sequence length. A shape is published
/// while its compile still runs: every later box of it shares that
/// compile, and a scan that needs the kernel waits for it.
///
//===----------------------------------------------------------------------===//

#ifndef PARREC_EXEC_PLAN_H
#define PARREC_EXEC_PLAN_H

#include "exec/Table.h"
#include "poly/LoopGen.h"
#include "solver/Recurrence.h"
#include "support/Diagnostics.h"

#include <future>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace parrec {
namespace codegen {
struct BytecodeProgram;
class JitKernel;
} // namespace codegen
namespace gpu {
struct CostModel;
} // namespace gpu

namespace exec {

class ShapeCache;

/// What a request asks of planning, apart from the box: two requests
/// to one function with equal keys are planned alike up to what their
/// boxes decide, so they can share a batch, a router shard and (with the
/// input digest) a memo entry. Thread counts and cost
/// models deliberately do not appear — they only affect execution. The
/// box itself is not part of the key: PlanCache adds it to find the
/// per-box plan.
struct PlanKey {
  /// Coefficients of an explicitly requested schedule (forced or
  /// preselected by conditional parallelisation); empty means "synthesise
  /// the minimal schedule for the box".
  std::vector<int64_t> RequestedSchedule;
  bool UseSlidingWindow = true;
  bool KeepTable = false;
  /// A tuned and an untuned plan for the same box may carry different
  /// schedules; keying on the flag lets cache hits skip the candidate
  /// search entirely.
  bool Autotune = false;
  /// Whether the plan carries a native jitted kernel. A jitted and an
  /// uninstalled plan must not share a cache slot: a VM-first run would
  /// otherwise pin a kernel-less plan that every later --evaluator=jit
  /// run keeps hitting.
  bool Jit = false;

  friend bool operator==(const PlanKey &A, const PlanKey &B) = default;

  /// Stable FNV-1a style hash over all fields.
  uint64_t hash() const;

  static PlanKey make(bool UseSlidingWindow, bool KeepTable,
                      const solver::Schedule *Requested,
                      bool Autotune = false, bool Jit = false);
};

/// What the planner is asked for. The two schedule pointers (either may be
/// null) distinguish a user-forced schedule — which must be re-verified
/// against the dependency criteria — from one preselected by the Section
/// 4.7 conditional-schedule machinery, which is valid by construction.
struct PlanRequest {
  bool UseSlidingWindow = true;
  bool KeepTable = false;
  const solver::Schedule *ForcedSchedule = nullptr;
  const solver::Schedule *PreselectedSchedule = nullptr;
  /// The function's compiled cell body (may be null when the body is not
  /// bytecode-compilable). Compiled once per function, handed to every
  /// plan — planning never re-runs the bytecode compiler.
  std::shared_ptr<const codegen::BytecodeProgram> Program;
  /// Run the cost-model schedule autotuner after schedule synthesis
  /// (RunOptions::Autotune / `parrec run --autotune`).
  bool Autotune = false;
  /// Cost model the autotuner scores candidates with; null means the
  /// default-constructed model. Never part of the PlanKey.
  const gpu::CostModel *CostModel = nullptr;
  /// Run the native JIT pass after finalize: start compiling the shape's
  /// kernel and attach its handle (RunOptions::Evaluator == Jit /
  /// `parrec run --evaluator=jit`).
  bool Jit = false;
  /// On-disk shared-object cache directory override for the JIT pass;
  /// empty resolves to $ParRec_JIT_CACHE then ~/.cache/parrec-jit, on
  /// the planning thread. Never part of the PlanKey.
  std::string JitCacheDir;
  /// The function's shape cache: a shape found here skips loop
  /// generation and the JIT; a newly built shape is added. Null builds
  /// a private shape. Never part of the PlanKey.
  ShapeCache *Shapes = nullptr;
};

/// Identity of a PlanShape within one function: the resolved schedule,
/// the window decision and whether the shape carries a native kernel.
struct ShapeKey {
  std::vector<int64_t> Schedule;
  bool UseWindow = false;
  int64_t WindowDepth = 0;
  bool Jit = false;

  friend bool operator==(const ShapeKey &A, const ShapeKey &B) = default;
  uint64_t hash() const;
};

struct ShapeKeyHash {
  size_t operator()(const ShapeKey &K) const {
    return static_cast<size_t>(K.hash());
  }
};

/// The box-independent half of a plan, shared by every box planned with
/// the same schedule and window decision. Immutable once published; only
/// the compile behind Kernel may still be running.
struct PlanShape {
  solver::Schedule Sched;
  /// Sliding-window decision: when UseWindow is set the table keeps only
  /// WindowDepth+1 partition planes (the dropped dimension is per box).
  bool UseWindow = false;
  int64_t WindowDepth = 0;
  /// The loop nest over [Lower_0, Upper_0, ..., Lower_{N-1}, Upper_{N-1},
  /// p, x0..x_{N-1}]: the box enters as 2N parameters, evaluated at
  /// ExecutablePlan::Params.
  poly::LoopNest Nest;
  /// The compiled cell body executed by the bytecode VM; null means the
  /// backend falls back to the AST evaluator. Compiled once per
  /// function and shared by all its shapes.
  std::shared_ptr<const codegen::BytecodeProgram> Program;
  /// Handle to the natively jitted scan kernel (codegen::startCompile),
  /// whose compile may still be running; invalid when the jit pass did
  /// not run, and yielding null when the compile fell back. The kernel
  /// reads every box-dependent value from its run-time extents, so one
  /// kernel serves every box. The compile reads the members above, so
  /// this one stays last: it is destroyed, and the compile joined, first.
  std::shared_future<std::shared_ptr<const codegen::JitKernel>> Kernel;

  ShapeKey key(bool Jit) const {
    return {Sched.Coefficients, UseWindow, WindowDepth, Jit};
  }
};

/// The per-box half of a plan: consumed by ExecutionBackends, safe to
/// share across threads and cache entries.
class ExecutablePlan {
public:
  solver::DomainBox Box;
  std::shared_ptr<const PlanShape> Shape;
  /// The box as the nest's parameters: Lower_d, Upper_d per dimension.
  std::vector<int64_t> Params;
  /// With a sliding window, the dimension dropped from plane addressing
  /// (the unit-coefficient dimension with the largest extent).
  unsigned WindowDropDim = 0;
  /// Inclusive partition (time-step) range of the scan.
  int64_t FirstPartition = 0;
  int64_t LastPartition = 0;
  /// The partition containing the root point (every dimension at its
  /// upper bound); lets backends confine root-value capture to one
  /// partition instead of checking every cell.
  int64_t RootPartition = 0;
  /// Autotuner-selected block thread count; 0 means "not tuned" and the
  /// simulated GPU backend falls back to the model's core count. An
  /// explicit RunOptions::Threads still wins.
  unsigned TunedThreads = 0;

  int64_t numPartitions() const { return LastPartition - FirstPartition + 1; }

  /// Allocates the DP table this plan calls for.
  std::shared_ptr<DpTable> makeTable() const;

  /// The nest parameter vector for \p Box, in boxDomain's order.
  static std::vector<int64_t> boxParams(const solver::DomainBox &Box);
};

/// The domain of every box over \p DimNames, the domain a PlanShape's
/// nest scans: 2N leading parameters lower_d, upper_d per dimension and
/// lower_d <= x_d <= upper_d, parametric in the box as Figure 9's nest
/// is in m and n.
poly::Polyhedron boxDomain(const std::vector<std::string> &DimNames);

/// Builds a plan for \p Box: resolves the schedule per \p Req, decides the
/// sliding window, and takes the shape from Req.Shapes or builds it
/// (parametric loop nest, optional JIT kernel, whose compile it starts
/// but does not wait for). Reports diagnostics and
/// returns nullopt on failure (invalid forced schedule, no valid schedule,
/// empty domain).
std::optional<ExecutablePlan>
buildPlan(const solver::RecurrenceSpec &Rec,
          const std::vector<std::string> &DimNames,
          const solver::DomainBox &Box, const PlanRequest &Req,
          DiagnosticEngine &Diags);

} // namespace exec
} // namespace parrec

#endif // PARREC_EXEC_PLAN_H
