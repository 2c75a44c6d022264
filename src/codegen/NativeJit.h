//===- NativeJit.h - Native host JIT for executable plans ---------*- C++ -*-==//
//
// Part of ParRec, a reproduction of "Synthesising Graphics Card Programs
// from DSLs" (Cartey, Lyngsø, de Moor; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Run-time code generation in the PyCUDA/PyOpenCL style: render one plan
/// shape — its parametric partition loop nest, its sliding-window (or
/// dense) table addressing, and its bytecode cell body — as one kernel
/// body, then specialise that body per target through a prelude of
/// macros. The host target is compiled with the system C compiler into a
/// shared object, dlopen()ed and dispatched instead of interpreting
/// bytecode; the CUDA target is the Figure 10 kernel `parrec emit`
/// prints. The two differ only where the macros do: the simulated-thread
/// loop (PR_THREAD_LOOP/PR_THREAD_END, PR_NTHREADS), the barrier
/// (PR_SYNC), the simulator's cost, cycle and timeline bookkeeping
/// (PR_COST), the fastmod high multiply (PR_MULHI) and the qualifiers
/// (PR_DEVICE, PR_KERNEL, PR_SIM_ONLY). So the CUDA text is the kernel the
/// differential tests execute, not a second lowering.
///
/// The source depends on the shape alone, so one kernel serves every box
/// of a (function, schedule, window) shape. Baked into it: the schedule
/// coefficients, the nest's structure and divisors, the window's plane
/// count (a function of the window depth) with its fastmod constant, the
/// row-major layout's unit stride (a window kernel holds one copy of
/// the thread loop per dimension the window may drop, picked once per
/// partition), the result conversion and the packed per-instruction cost
/// deltas.
/// Everything that depends on the box — loop bounds, the root point and
/// its partition, the minimum partition and the table strides, base and
/// plane size (stride 0 marks the dimension a window drops) — arrives at
/// run time in JitArgs::Extents, built by kernelExtents(); the kernel
/// copies the extents it reads into locals on entry. The caller passes
/// the partition range to scan. Everything that varies per binding
/// (sequences, matrices, the precomputed log-space HMM tables, scalar
/// arguments, the table base pointer and the cost-model cycle weights)
/// is passed through JitArgs too, exactly the contract the bytecode
/// program already has.
///
/// Like the paper's Figure 10 kernel, the kernel owns the partition time
/// loop: one call scans a range of partitions and folds each one's
/// lockstep timing (longest thread, thread sum, active threads, barrier)
/// itself, so a serial scan is a single call and the host never walks
/// the simulated threads. The parallel scan calls the same entry once
/// per (partition, thread-range) slice and reads per-thread cycles back.
///
/// The emitted code replicates the bytecode VM operation-for-operation
/// (one floating-point operation per emitted statement, compiled with
/// -ffp-contract=off, hexfloat literals for real immediates, the same
/// libm call sequence for log-space arithmetic), so results, cost
/// counters and modelled cycle totals are bit-identical to the VM and
/// the AST oracle.
///
/// Compiled objects are cached on disk keyed by the schedule fingerprint
/// plus a hash of the emitted source, so cold process starts reuse warm
/// kernels without invoking the compiler. Any failure — unsupported
/// body shape, missing or broken host compiler, dlopen error — degrades
/// to the bytecode VM with a single warning line and a `jit.fallbacks`
/// metric; it is never an error. A failed compile leaves its source and
/// the compiler's diagnostics (k<hash>.c, k<hash>.log) in the cache
/// directory, and the warning names the log.
///
//===----------------------------------------------------------------------===//

#ifndef PARREC_CODEGEN_NATIVEJIT_H
#define PARREC_CODEGEN_NATIVEJIT_H

#include "codegen/Bytecode.h"
#include "codegen/Evaluator.h"
#include "gpu/Device.h"

#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

namespace parrec {
namespace exec {
class ExecutablePlan;
struct PlanShape;
} // namespace exec

namespace codegen {

/// POD mirrors of the VM's bound state, shared with the emitted C (which
/// declares structurally identical structs). Every member is 8 bytes, so
/// the layouts agree by construction on any common C ABI.
struct JitSeq {
  const char *Data;
  int64_t Len;
};

struct JitMatrix {
  const int64_t *Scores;  // size*size, row-major by alphabet index.
  const int64_t *CharIdx; // 256 entries; -1 outside the alphabet.
  int64_t Size;
  int64_t DefaultScore;
};

struct JitHmm {
  const double *LogTrans;      // One per transition (borrowed log cache).
  const double *Emissions;     // NumStates x Stride dense log emissions.
  const uint64_t *CharCol;     // 256-entry character -> emission column.
  const uint64_t *TransFrom;   // Per transition: source state.
  const uint64_t *TransTo;     // Per transition: target state.
  const uint64_t *StateIsStart; // Per state: 0/1.
  const uint64_t *StateIsEnd;
  const uint64_t *AdjInOff;    // CSR offsets (NumStates+1) into AdjIn.
  const uint64_t *AdjIn;       // transitionsTo lists, concatenated.
  const uint64_t *AdjOutOff;
  const uint64_t *AdjOut;      // transitionsFrom lists, concatenated.
  uint64_t Stride;             // Emission row stride (alphabet + 1).
};

/// Per-run kernel inputs: the binding plus the table base pointer, the
/// cost model's cycle weights (so one kernel serves both backends and
/// both table residencies) and the box's extents (so one kernel serves
/// every box of its shape).
struct JitArgs {
  const JitSeq *Seqs;
  const JitMatrix *Matrices;
  const JitHmm *Hmms;
  const int64_t *IntArgs;
  const double *RealArgs;
  double *Table;
  uint64_t CycOp;
  uint64_t CycTrans;
  uint64_t CycTable;
  uint64_t CycModel;
  /// The barrier that closes each partition (0 on the serial CPU).
  uint64_t CycSync;
  /// kernelExtents() of the plan being scanned.
  const int64_t *Extents;
};

/// Per-invocation outputs, accumulated into by the kernel: the wide cost
/// lanes (table writes include the per-cell store), cell count, running
/// table maximum, the root-cell capture (in the root partition, which
/// the extents carry) and the lockstep totals gpu::BlockTimer keeps —
/// per partition, the block advances by its longest thread plus CycSync
/// (the barrier total, CycSync per partition, is the caller's product).
/// The kernel keeps all of these in locals while it scans and writes the
/// slot once per call, on return.
struct JitSlot {
  uint64_t Ops;
  uint64_t TableReads;
  uint64_t TableWrites;
  uint64_t ModelReads;
  uint64_t Transcendentals;
  uint64_t Cells;
  double TableMax;
  double RootValue;
  uint64_t HasRoot;
  /// Sum over partitions of the longest thread plus CycSync.
  uint64_t Total;
  /// Every thread's cycles, summed.
  uint64_t WorkSum;
};

// The kernel writes timeline samples straight into gpu::PartitionSample
// storage through a C struct of this layout.
static_assert(std::is_standard_layout_v<gpu::PartitionSample> &&
                  sizeof(unsigned) == 4 &&
                  offsetof(gpu::PartitionSample, Cells) == 8 &&
                  offsetof(gpu::PartitionSample, MaxThreadCycles) == 16 &&
                  offsetof(gpu::PartitionSample, SumThreadCycles) == 24 &&
                  offsetof(gpu::PartitionSample, BarrierCycles) == 32 &&
                  offsetof(gpu::PartitionSample, ActiveThreads) == 40 &&
                  offsetof(gpu::PartitionSample, Threads) == 44 &&
                  sizeof(gpu::PartitionSample) == 48,
              "the emitted pr_sample no longer mirrors PartitionSample");

/// The kernel entry point, Figure 10's time loop: scans partitions
/// [PLo, PHi] (inside the box's range) for simulated threads
/// [ThreadBegin, ThreadEnd) of a block of \p NumThreads, accumulating
/// into \p Slot. Per partition it folds the threads' modelled cycles as
/// gpu::BlockTimer::closePartition would; the thread loop stops at the
/// first thread whose striped loop is empty, since every later thread's
/// is too. When non-null, \p ThreadCycles[t] receives the cycles of
/// each thread the loop reached, in the last partition scanned (the
/// parallel scan calls once per partition and thread range, zeroing the
/// range first), and \p Samples[p - PLo] each partition's sample (a
/// traced serial scan).
using JitKernelFn = void (*)(const JitArgs *Args, int64_t PLo, int64_t PHi,
                             uint32_t ThreadBegin, uint32_t ThreadEnd,
                             uint32_t NumThreads, JitSlot *Slot,
                             uint64_t *ThreadCycles,
                             gpu::PartitionSample *Samples);

/// A resolved kernel holding its dlopen handle open for as long as any
/// plan references it.
class JitKernel {
public:
  JitKernel(void *Handle, JitKernelFn Fn) : Handle(Handle), Fn(Fn) {}
  JitKernel(const JitKernel &) = delete;
  JitKernel &operator=(const JitKernel &) = delete;
  ~JitKernel();

  JitKernelFn fn() const { return Fn; }

private:
  void *Handle = nullptr;
  JitKernelFn Fn = nullptr;
};

/// The per-binding state a jitted kernel consumes; mirrors
/// BytecodeVM::bind field-for-field (and borrows the same Evaluator log
/// caches, so every probability the kernel reads is bit-identical to the
/// VM's). The Evaluator must stay alive and bound while the returned
/// args are in use.
class JitBinding {
public:
  JitBinding() = default;
  JitBinding(const JitBinding &) = delete;
  JitBinding &operator=(const JitBinding &) = delete;

  void bind(const BytecodeProgram &Prog, const Evaluator &Eval);

  /// Args with the binding pointers filled in; the caller sets Table and
  /// the cycle weights per run.
  JitArgs args() const { return Args; }

private:
  JitArgs Args{};
  std::vector<JitSeq> Seqs;
  std::vector<JitMatrix> Matrices;
  std::vector<JitHmm> Hmms;
  std::vector<int64_t> IntArgs;
  std::vector<double> RealArgs;

  struct MatrixData {
    std::vector<int64_t> Scores;
    std::vector<int64_t> CharIdx;
  };
  struct HmmData {
    std::vector<double> Emissions;
    std::vector<uint64_t> CharCol;
    std::vector<uint64_t> From, To, IsStart, IsEnd;
    std::vector<uint64_t> AdjInOff, AdjIn, AdjOutOff, AdjOut;
  };
  std::vector<MatrixData> MatrixStore;
  std::vector<HmmData> HmmStore;
};

/// Everything a compile reads besides the shape, resolved before it
/// starts: a compile never reads the environment.
struct JitCompileOptions {
  /// On-disk shared-object cache directory.
  std::string CacheDir;
  /// Host C compiler command.
  std::string Cc = "cc";

  /// Resolves the options from the environment: CacheDir is
  /// \p CacheDirOverride when non-empty, else $ParRec_JIT_CACHE,
  /// $PARREC_JIT_CACHE, ~/.cache/parrec-jit; Cc is $CC, else "cc".
  static JitCompileOptions resolve(const std::string &CacheDirOverride);
};

/// Renders, compiles (or loads from the disk cache) and resolves the
/// kernel for \p Shape. Returns null on any failure after emitting a
/// once-per-process warning and bumping `jit.fallbacks`; callers then
/// keep using the bytecode VM. Records `jit.compile_ns` and bumps
/// `jit.cache_hits` / `jit.cache_misses`. Safe to call concurrently for
/// one shape and one cache directory, from threads or processes.
std::shared_ptr<const JitKernel>
compileKernel(const exec::PlanShape &Shape, const JitCompileOptions &Opts);

/// A kernel whose compile may still be running: waiting on it yields the
/// kernel, or null after a fallback. The last copy's destructor joins
/// the compile.
using KernelHandle = std::shared_future<std::shared_ptr<const JitKernel>>;

/// Runs compileKernel(\p Shape, \p Opts) on a thread of its own, inside
/// a `jit.compile` span. \p Shape must outlive the handle; a shape
/// storing the handle as its last member (PlanShape::Kernel) does, since
/// destroying the handle joins the compile before the shape's other
/// members go.
KernelHandle startCompile(const exec::PlanShape &Shape,
                          JitCompileOptions Opts);

/// Which prelude specialises the kernel body.
enum class KernelTarget {
  /// The simulated block on the host: what compileKernel compiles.
  Host,
  /// A CUDA block: the text `parrec emit` prints.
  Cuda,
};

/// The target's prelude: the includes and the macros the kernel body is
/// written against. Shape-independent; every rendered source starts
/// with it.
const char *kernelPrelude(KernelTarget Target);

/// Renders the translation unit for \p Shape without compiling it: the
/// target's prelude followed by the kernel body, which is the same for
/// every target. Returns an empty string when the shape is one the
/// emitter does not support (callers fall back to the VM).
std::string renderKernelSource(const exec::PlanShape &Shape,
                               KernelTarget Target = KernelTarget::Host);

/// A host-side launch of the CUDA-target kernel: one block scans every
/// partition of one problem (Section 4.7 maps one problem per
/// multiprocessor) and the root cell comes back through the slot. Every
/// binding goes through pr_args, so the stub serves every function.
const char *cudaLaunchStub();

/// The run-time extents of \p Plan's box that the kernel of its shape
/// reads (JitArgs::Extents).
std::vector<int64_t> kernelExtents(const exec::ExecutablePlan &Plan);

/// Number of fallback warning lines printed so far (0 or 1: the warning
/// is emitted once per process). Exposed for tests.
uint64_t jitWarningsEmitted();

} // namespace codegen
} // namespace parrec

#endif // PARREC_CODEGEN_NATIVEJIT_H
