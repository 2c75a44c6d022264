//===- NativeJit.cpp - Native host JIT for executable plans -----------------==//
//
// Part of ParRec, a reproduction of "Synthesising Graphics Card Programs
// from DSLs" (Cartey, Lyngsø, de Moor; PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "codegen/NativeJit.h"

#include "codegen/LogSpace.h"
#include "exec/Plan.h"
#include "exec/Table.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <system_error>

#include <dlfcn.h>
#include <unistd.h>

using namespace parrec;
using namespace parrec::codegen;

JitKernel::~JitKernel() {
  if (Handle)
    ::dlclose(Handle);
}

//===----------------------------------------------------------------------===//
// Binding: mirrors BytecodeVM::bind field-for-field.
//===----------------------------------------------------------------------===//

void JitBinding::bind(const BytecodeProgram &Prog, const Evaluator &Eval) {
  const std::vector<ArgValue> &Bound = Eval.boundArgs();
  const std::vector<HmmLogCache> &Caches = Eval.hmmCaches();
  assert(Bound.size() == Prog.ParamClasses.size() &&
         "binding does not match the compiled function");

  size_t N = Bound.size();
  Seqs.assign(N, JitSeq{nullptr, 0});
  Matrices.assign(N, JitMatrix{});
  Hmms.assign(N, JitHmm{});
  IntArgs.assign(N, 0);
  RealArgs.assign(N, 0.0);
  MatrixStore.clear();
  MatrixStore.resize(N);
  HmmStore.clear();
  HmmStore.resize(N);

  for (size_t P = 0; P != N; ++P) {
    switch (Prog.ParamClasses[P]) {
    case ParamClass::Seq:
      if (const bio::Sequence *S = Bound[P].Seq) {
        Seqs[P].Data = S->data().data();
        Seqs[P].Len = S->length();
      }
      break;
    case ParamClass::Matrix: {
      const bio::SubstitutionMatrix *M = Bound[P].Matrix;
      if (!M)
        break;
      MatrixData &MD = MatrixStore[P];
      unsigned Sz = M->alphabet().size();
      MD.Scores.resize(static_cast<size_t>(Sz) * Sz);
      for (unsigned A = 0; A != Sz; ++A)
        for (unsigned B = 0; B != Sz; ++B)
          MD.Scores[static_cast<size_t>(A) * Sz + B] = M->scoreByIndex(A, B);
      MD.CharIdx.resize(256);
      for (unsigned C = 0; C != 256; ++C)
        MD.CharIdx[C] = M->alphabet().indexOf(static_cast<char>(C));
      Matrices[P] = JitMatrix{MD.Scores.data(), MD.CharIdx.data(),
                              static_cast<int64_t>(Sz), M->defaultScore()};
      break;
    }
    case ParamClass::Hmm: {
      const bio::Hmm *H = Bound[P].Hmm;
      if (!H)
        break;
      HmmData &HD = HmmStore[P];
      const HmmLogCache &Cache = Caches[P];

      unsigned NumStates = H->numStates();
      unsigned Alpha = H->alphabet().size();
      uint64_t Stride = Alpha + 1;
      // Dense log emissions, exactly as the VM builds them: silent
      // states keep all-zero rows, emitting states take the cached log
      // values plus -inf in the trailing out-of-alphabet column.
      HD.Emissions.assign(static_cast<size_t>(NumStates) * Stride, 0.0);
      for (unsigned S = 0; S != NumStates; ++S) {
        const std::vector<double> &Row = Cache.LogEmissions[S];
        if (Row.empty())
          continue;
        double *Dst = HD.Emissions.data() + static_cast<size_t>(S) * Stride;
        for (unsigned C = 0; C != Alpha; ++C)
          Dst[C] = Row[C];
        Dst[Alpha] = NegInfinity;
      }
      HD.CharCol.resize(256);
      for (unsigned C = 0; C != 256; ++C) {
        int Index = H->alphabet().indexOf(static_cast<char>(C));
        HD.CharCol[C] = Index >= 0 ? static_cast<uint64_t>(Index)
                                   : static_cast<uint64_t>(Alpha);
      }

      unsigned NumTrans = H->numTransitions();
      HD.From.resize(NumTrans);
      HD.To.resize(NumTrans);
      for (unsigned T = 0; T != NumTrans; ++T) {
        HD.From[T] = H->transition(T).From;
        HD.To[T] = H->transition(T).To;
      }
      HD.IsStart.resize(NumStates);
      HD.IsEnd.resize(NumStates);
      for (unsigned S = 0; S != NumStates; ++S) {
        HD.IsStart[S] = H->state(S).IsStart ? 1 : 0;
        HD.IsEnd[S] = H->state(S).IsEnd ? 1 : 0;
      }
      // CSR adjacency in the model's own list order, so reductions walk
      // transitions in the VM's exact iteration order.
      HD.AdjInOff.resize(NumStates + 1);
      HD.AdjOutOff.resize(NumStates + 1);
      for (unsigned S = 0; S != NumStates; ++S) {
        HD.AdjInOff[S] = HD.AdjIn.size();
        for (unsigned T : H->transitionsTo(S))
          HD.AdjIn.push_back(T);
        HD.AdjOutOff[S] = HD.AdjOut.size();
        for (unsigned T : H->transitionsFrom(S))
          HD.AdjOut.push_back(T);
      }
      HD.AdjInOff[NumStates] = HD.AdjIn.size();
      HD.AdjOutOff[NumStates] = HD.AdjOut.size();

      JitHmm &JH = Hmms[P];
      JH.LogTrans = Cache.LogTransitionProbs.data();
      JH.Emissions = HD.Emissions.data();
      JH.CharCol = HD.CharCol.data();
      JH.TransFrom = HD.From.data();
      JH.TransTo = HD.To.data();
      JH.StateIsStart = HD.IsStart.data();
      JH.StateIsEnd = HD.IsEnd.data();
      JH.AdjInOff = HD.AdjInOff.data();
      JH.AdjIn = HD.AdjIn.data();
      JH.AdjOutOff = HD.AdjOutOff.data();
      JH.AdjOut = HD.AdjOut.data();
      JH.Stride = Stride;
      break;
    }
    case ParamClass::Int:
      IntArgs[P] = Bound[P].Int;
      break;
    case ParamClass::Real:
      RealArgs[P] = Bound[P].Real;
      break;
    case ParamClass::Unused:
      break;
    }
  }

  Args = JitArgs{};
  Args.Seqs = Seqs.data();
  Args.Matrices = Matrices.data();
  Args.Hmms = Hmms.data();
  Args.IntArgs = IntArgs.data();
  Args.RealArgs = RealArgs.data();
}

//===----------------------------------------------------------------------===//
// C source emission.
//===----------------------------------------------------------------------===//

namespace {

std::string intLit(int64_t V) {
  if (V == std::numeric_limits<int64_t>::min())
    return "(-9223372036854775807LL - 1LL)";
  return std::to_string(V) + "LL";
}

/// Where kernelExtents puts each box-dependent value, for a nest with P
/// parameters over N dimensions.
struct ExtentSlots {
  unsigned P, N;
  /// The partition holding the root point.
  unsigned rootPartition() const { return P; }
  /// The box's minimum partition, the window's plane origin.
  unsigned minPartition() const { return P + 1; }
  /// Coordinate D of the root point, the box's upper corner.
  unsigned root(unsigned D) const { return P + 2 + D; }
  /// Table stride of dimension D; 0 for the dimension a window drops.
  unsigned stride(unsigned D) const { return P + 2 + N + D; }
  unsigned tableBase() const { return P + 2 + 2 * N; }
  unsigned planeSize() const { return P + 3 + 2 * N; }
  unsigned size() const { return P + 4 + 2 * N; }
};

/// The dimension with stride 1 in exec::tableLayout when \p Dropped is
/// left out (-1: none): the last kept dimension, or -1 when none is kept.
int unitStrideDim(unsigned N, int Dropped) {
  int Last = static_cast<int>(N) - 1;
  return Last == Dropped ? Last - 1 : Last;
}

/// True when \p Text reads the C identifier \p Name.
bool readsIdent(const std::string &Text, const std::string &Name) {
  auto IsIdent = [](char C) {
    return std::isalnum(static_cast<unsigned char>(C)) || C == '_';
  };
  for (size_t At = Text.find(Name); At != std::string::npos;
       At = Text.find(Name, At + 1))
    if ((At == 0 || !IsIdent(Text[At - 1])) &&
        (At + Name.size() == Text.size() || !IsIdent(Text[At + Name.size()])))
      return true;
  return false;
}

/// The macros the kernel body is written against, per target (DESIGN.md
/// §10 tabulates them). The host expands them to the simulated block:
/// threads run one after another, so the barrier is implicit and only
/// its modelled cost is booked.
const char HostPrelude[] =
    "/* Generated by ParRec for the host: the simulated block, compiled by\n"
    " * the native JIT. Bit-identical to the bytecode VM by construction:\n"
    " * one FP op per statement, -ffp-contract=off, hexfloat immediates,\n"
    " * LogSpace.h sequences emitted op-for-op. */\n"
    "#include <math.h>\n"
    "#include <stdint.h>\n"
    "#define PR_DEVICE\n"
    "#define PR_KERNEL\n"
    "#define PR_SIM_ONLY\n"
    "#define PR_THREAD_LOOP for (uint32_t t = t_begin; t != t_end; ++t)\n"
    "#define PR_THREAD_END\n"
    "#define PR_NTHREADS n_threads\n"
    "#define PR_SYNC() ((void)0)\n"
    "#define PR_COST(...) __VA_ARGS__\n"
    "#define PR_MULHI(a, b) \\\n"
    "  ((uint64_t)((unsigned __int128)(a) * (b) >> 64))\n";

/// The CUDA target: one block of threads, Figure 10's kernel. The
/// simulator's bookkeeping and its parameters compile away.
const char CudaPrelude[] =
    "/* Generated by ParRec for CUDA: Figure 10's kernel for one block of\n"
    " * threads. The body below is the one the native JIT runs on the\n"
    " * host; only these macros differ. */\n"
    "#include <math.h>\n"
    "#include <stdint.h>\n"
    "#define PR_DEVICE __device__\n"
    "#ifdef __cplusplus\n"
    "#define PR_KERNEL extern \"C\" __global__\n"
    "#else\n"
    "#define PR_KERNEL __global__\n"
    "#endif\n"
    "#define PR_SIM_ONLY __attribute__((unused))\n"
    "#define PR_THREAD_LOOP do { const uint32_t t = threadIdx.x;\n"
    "#define PR_THREAD_END } while (0);\n"
    "#define PR_NTHREADS blockDim.x\n"
    "#define PR_SYNC() __syncthreads()\n"
    "#define PR_COST(...)\n"
    "#define PR_MULHI(a, b) __umul64hi(a, b)\n";

/// Renders one PlanShape as a kernel body shared by every target. The
/// body depends on the shape alone: every box-dependent value is read
/// from the run-time extents. Every statement performs at most one
/// floating-point operation (so -ffp-contract=off keeps the op sequence
/// identical to the VM's), real immediates are hexfloat literals, and
/// log-space helpers copy LogSpace.h operation-for-operation. Only the
/// extents and helpers the scan reads are emitted, so the source
/// compiles warning-free.
class CEmitter {
public:
  explicit CEmitter(const exec::PlanShape &Shape)
      : Shape(Shape), Prog(Shape.Program.get()),
        Slots{Shape.Nest.NumParams, Shape.Nest.NumRecursionDims} {}

  std::string render() {
    unsigned N = Slots.N;
    if (!Prog || Prog->NumRegs == 0 || N == 0 || Prog->NumDims != N ||
        Shape.Nest.Levels.size() != 1 + static_cast<size_t>(N) ||
        Shape.Sched.Coefficients.size() != N)
      return std::string();
    // The scan is rendered first: the declarations before it depend on
    // what it reads.
    Indent = 1;
    emitScan();
    std::string Scan;
    std::swap(Scan, Out);
    Indent = 0;
    emitTypes();
    emitHelpers(Scan);
    emitKernel(Scan);
    return Failed ? std::string() : Out;
  }

private:
  const exec::PlanShape &Shape;
  const BytecodeProgram *Prog;
  ExtentSlots Slots;
  /// The dimension the thread loop being emitted assumes a window drops.
  int Dropped = -1;
  std::string Out;
  int Indent = 0;
  int NextRange = 0;
  bool Failed = false;

  void fail() { Failed = true; }

  void line(const char *Fmt, ...) {
    char Buf[2048];
    va_list Ap;
    va_start(Ap, Fmt);
    vsnprintf(Buf, sizeof(Buf), Fmt, Ap);
    va_end(Ap);
    Out.append(static_cast<size_t>(Indent) * 2, ' ');
    Out += Buf;
    Out += '\n';
  }

  /// Opens and closes a multi-line PR_COST block.
  void openCost() {
    line("PR_COST(");
    ++Indent;
  }
  void closeCost() {
    --Indent;
    line(")");
  }

  std::string realLit(double V) {
    if (std::isnan(V)) {
      fail(); // No portable bit-exact NaN literal; fall back to the VM.
      return "0.0";
    }
    if (std::isinf(V))
      return V > 0 ? "INFINITY" : "-INFINITY";
    char Buf[64];
    snprintf(Buf, sizeof(Buf), "%a", V);
    return Buf;
  }

  /// Nest dimension \p D as a C variable: the box parameters are the
  /// kernel's e<k> locals, the time step is v0 and the point v1..vN.
  std::string nestVar(unsigned D) const {
    unsigned Params = Shape.Nest.NumParams;
    return D < Params ? indexedVar("e", D) : indexedVar("v", D - Params);
  }

  /// The C variable <Prefix><N>. Appending (rather than `"v" + string`)
  /// keeps GCC 12's -Wrestrict false positive on string insert quiet.
  static std::string indexedVar(const char *Prefix, unsigned N) {
    std::string S = Prefix;
    S += std::to_string(N);
    return S;
  }

  /// Affine expression over the nest dimensions. Only the parameters and
  /// the loop variables outside level \p Level may appear.
  std::string nestAffine(const poly::AffineExpr &E, unsigned Level) {
    std::string S = "(" + intLit(E.constantTerm());
    for (unsigned D = 0; D != E.numDims(); ++D) {
      int64_t C = E.coefficient(D);
      if (C == 0)
        continue;
      if (D >= Shape.Nest.NumParams + Level)
        fail(); // Bound references a not-yet-defined loop variable.
      S += " + " + intLit(C) + " * " + nestVar(D);
    }
    S += ")";
    return S;
  }

  /// sum_d stride_d * X[d] over the dimensions a table keeps when it
  /// drops \p Drop (-1: none). The row-major layout's unit stride is a
  /// constant; the other strides come from the extents.
  std::string planeIndex(const std::vector<std::string> &X, int Drop) {
    int Unit = unitStrideDim(Slots.N, Drop);
    std::string Index = "0ULL";
    for (unsigned D = 0; D != Slots.N; ++D) {
      int Dim = static_cast<int>(D);
      if (Dim == Drop)
        continue;
      Index += " + ";
      if (Dim != Unit)
        Index += "ts" + std::to_string(D) + " * ";
      Index += "(uint64_t)" + X[D];
    }
    return Index;
  }

  /// The table slot of the point \p X, through the run-time layout:
  /// SlidingWindowTable::slot for a window, FullTable's flatten (as
  /// stride sum minus base) otherwise.
  std::string addr(const std::vector<std::string> &X) {
    if (!Shape.UseWindow)
      return "(" + planeIndex(X, -1) + " - t_base)";
    std::string Part = "(" + intLit(0);
    for (unsigned D = 0; D != Slots.N; ++D)
      if (int64_t C = Shape.Sched.Coefficients[D])
        Part += " + " + intLit(C) + " * " + X[D];
    Part += ")";
    return "pr_wslot(" + Part + ", " + planeIndex(X, Dropped) +
           ", min_p, t_plane, t_base)";
  }

  /// Affine expression over the recursion point, rendered over v1..vN.
  std::string pointAffine(const int64_t *Coeffs, int64_t Bias) {
    std::string S = "(" + intLit(Bias);
    for (unsigned D = 0; D != Prog->NumDims; ++D) {
      if (Coeffs[D] == 0)
        continue;
      S += " + " + intLit(Coeffs[D]) + " * v" + std::to_string(1 + D);
    }
    S += ")";
    return S;
  }

  void emitTypes() {
    line("typedef struct { const char *data; int64_t len; } pr_seq;");
    line("typedef struct { const int64_t *scores; const int64_t *char_idx;");
    line("  int64_t size; int64_t default_score; } pr_matrix;");
    line("typedef struct { const double *log_trans; const double *emissions;");
    line("  const uint64_t *char_col; const uint64_t *trans_from;");
    line("  const uint64_t *trans_to; const uint64_t *state_is_start;");
    line("  const uint64_t *state_is_end; const uint64_t *adj_in_off;");
    line("  const uint64_t *adj_in; const uint64_t *adj_out_off;");
    line("  const uint64_t *adj_out; uint64_t stride; } pr_hmm;");
    line("typedef struct { const pr_seq *seqs; const pr_matrix *matrices;");
    line("  const pr_hmm *hmms; const int64_t *int_args;");
    line("  const double *real_args; double *table;");
    line("  uint64_t cyc_op, cyc_trans, cyc_table, cyc_model, cyc_sync;");
    line("  const int64_t *extents; } pr_args;");
    line("typedef struct { uint64_t ops, table_reads, table_writes,");
    line("  model_reads, transcendentals, cells;");
    line("  double table_max, root_value; uint64_t has_root;");
    line("  uint64_t total, work_sum; } pr_slot_t;");
    line("typedef struct { int64_t partition; uint64_t cells, max_cycles,");
    line("  sum_cycles, barrier_cycles; uint32_t active, threads;");
    line("} pr_sample;");
    line("typedef union { int64_t i; double d; } pr_reg;");
  }

  /// The helpers \p Scan calls, and only those.
  void emitHelpers(const std::string &Scan) {
    if (readsIdent(Scan, "pr_ceil_div")) {
      line("static PR_DEVICE inline int64_t pr_ceil_div(int64_t n, int64_t d) {");
      line("  int64_t q = n / d;");
      line("  if (n %% d != 0 && n > 0)");
      line("    ++q;");
      line("  return q;");
      line("}");
    }
    if (readsIdent(Scan, "pr_floor_div")) {
      line("static PR_DEVICE inline int64_t pr_floor_div(int64_t n, int64_t d) {");
      line("  int64_t q = n / d;");
      line("  if (n %% d != 0 && n < 0)");
      line("    --q;");
      line("  return q;");
      line("}");
    }
    if (readsIdent(Scan, "pr_tolog")) {
      line("static PR_DEVICE double pr_tolog(double linear) {");
      line("  return linear <= 0.0 ? -INFINITY : log(linear);");
      line("}");
    }
    if (readsIdent(Scan, "pr_logaddexp")) {
      line("static PR_DEVICE double pr_logaddexp(double la, double lb) {");
      line("  if (la == -INFINITY)");
      line("    return lb;");
      line("  if (lb == -INFINITY)");
      line("    return la;");
      line("  {");
      line("    double hi = la > lb ? la : lb;");
      line("    double lo = la > lb ? lb : la;");
      line("    return hi + log1p(exp(lo - hi));");
      line("  }");
      line("}");
    }
    if (readsIdent(Scan, "pr_wslot"))
      emitWindowSlot();
  }

  /// pr_wslot: SlidingWindowTable::slot's ring-plane lookup (Lemire
  /// fastmod). The plane count depends on the window depth alone, so it
  /// is the one table constant baked into the source.
  void emitWindowSlot() {
    uint64_t NumPlanes = static_cast<uint64_t>(Shape.WindowDepth) + 1;
    uint64_t ModMagic = std::numeric_limits<uint64_t>::max() / NumPlanes + 1;
    line("static PR_DEVICE inline uint64_t pr_wslot(int64_t wp, uint64_t wi,");
    line("                                int64_t min_p, uint64_t plane,");
    line("                                uint64_t base) {");
    line("  uint64_t wx = (uint64_t)(wp - min_p);");
    line("  uint64_t wplane = PR_MULHI(%" PRIu64 "ULL * wx, %" PRIu64 "ULL);",
         ModMagic, NumPlanes);
    line("  return (wplane * plane - base) + wi;");
    line("}");
  }

  void emitKernel(const std::string &Scan) {
    line("PR_KERNEL void parrec_scan(const pr_args *a, int64_t p_lo,");
    line("    int64_t p_hi, uint32_t t_begin PR_SIM_ONLY,");
    line("    uint32_t t_end PR_SIM_ONLY, uint32_t n_threads PR_SIM_ONLY,");
    line("    pr_slot_t *slot, uint64_t *thread_cycles PR_SIM_ONLY,");
    line("    pr_sample *samples PR_SIM_ONLY) {");
    ++Indent;
    // The extents the scan reads, the table base and the cycle weights
    // are copied into locals once per call so the compiler keeps them
    // in registers through the whole scan.
    line("const int64_t *ext = a->extents;");
    for (unsigned P = 0; P != Slots.P; ++P)
      if (readsIdent(Scan, indexedVar("e", P)))
        line("const int64_t e%u = ext[%u];", P, P);
    line("const int64_t root_p = ext[%u];", Slots.rootPartition());
    if (readsIdent(Scan, "min_p"))
      line("const int64_t min_p = ext[%u];", Slots.minPartition());
    for (unsigned D = 0; D != Slots.N; ++D)
      if (readsIdent(Scan, indexedVar("ts", D)))
        line("const uint64_t ts%u = (uint64_t)ext[%u];", D, Slots.stride(D));
    if (readsIdent(Scan, "t_base"))
      line("const uint64_t t_base = (uint64_t)ext[%u];", Slots.tableBase());
    if (readsIdent(Scan, "t_plane"))
      line("const uint64_t t_plane = (uint64_t)ext[%u];", Slots.planeSize());
    for (unsigned D = 0; D != Slots.N; ++D)
      line("const int64_t root%u = ext[%u];", D, Slots.root(D));
    line("double *const tab = a->table;");
    line("pr_reg r[%u];", Prog->NumRegs);
    line("double k_root = 0.0;");
    line("uint64_t k_has_root = 0;");
    // The slot's lanes live in locals for the whole call: a store through
    // slot-> inside the cell loop may alias the table or the arguments,
    // which would force reloads on every cell.
    openCost();
    line("const uint64_t cyc_op = a->cyc_op, cyc_trans = a->cyc_trans;");
    line("const uint64_t cyc_table = a->cyc_table, cyc_model = a->cyc_model;");
    line("const uint64_t cyc_sync = a->cyc_sync;");
    line("uint64_t k_ops = 0, k_tr = 0, k_tw = 0, k_mr = 0, k_tc = 0;");
    line("uint64_t k_cells = 0, k_total = 0, k_work = 0;");
    line("double k_max = slot->table_max;");
    closeCost();
    Out += Scan;
    line("if (k_has_root) {");
    line("  slot->root_value = k_root;");
    line("  slot->has_root = 1ULL;");
    line("}");
    openCost();
    line("slot->ops += k_ops;");
    line("slot->table_reads += k_tr;");
    line("slot->table_writes += k_tw;");
    line("slot->model_reads += k_mr;");
    line("slot->transcendentals += k_tc;");
    line("slot->cells += k_cells;");
    line("slot->table_max = k_max;");
    line("slot->total += k_total;");
    line("slot->work_sum += k_work;");
    closeCost();
    --Indent;
    line("}");
  }

  /// Figure 10's time loop: per partition, the simulated-thread loop over
  /// the partition's nest, then the barrier. On the host each partition
  /// closes as gpu::BlockTimer's closePartition does: the block advances
  /// by its longest thread plus the barrier.
  void emitScan() {
    // Which unit-coefficient dimension a window drops depends on the box
    // (its stride is 0). One copy of the thread loop per candidate keeps
    // the table addressing free of run-time strides that are always 0 or
    // 1; the copies share the time loop, its fold and its barrier.
    std::vector<int> Drops{-1};
    if (Shape.UseWindow) {
      Drops.clear();
      for (unsigned D = 0; D != Slots.N; ++D)
        if (int64_t C = Shape.Sched.Coefficients[D]; C == 1 || C == -1)
          Drops.push_back(static_cast<int>(D));
      if (Drops.empty())
        fail();
    }
    line("for (int64_t v0 = p_lo; v0 <= p_hi; ++v0) {");
    ++Indent;
    line("const int check_root = v0 == root_p;");
    openCost();
    line("const uint64_t p_cells = k_cells;");
    line("uint64_t p_max = 0, p_sum = 0;");
    line("uint32_t p_active = 0;");
    closeCost();
    for (size_t I = 0; I != Drops.size(); ++I) {
      Dropped = Drops[I];
      bool Branched = Drops.size() > 1;
      if (Branched) {
        if (I + 1 == Drops.size())
          line("else {");
        else
          line("%sif (ts%d == 0ULL) {", I ? "else " : "", Dropped);
        ++Indent;
      }
      emitThreadLoop();
      if (Branched) {
        --Indent;
        line("}");
      }
    }
    openCost();
    line("k_total += p_max + cyc_sync;");
    line("k_work += p_sum;");
    line("if (samples) {");
    line("  pr_sample *s = &samples[v0 - p_lo];");
    line("  s->partition = v0;");
    line("  s->cells = k_cells - p_cells;");
    line("  s->max_cycles = p_max;");
    line("  s->sum_cycles = p_sum;");
    line("  s->barrier_cycles = cyc_sync;");
    line("  s->active = p_active;");
    line("  s->threads = n_threads;");
    line("}");
    closeCost();
    line("PR_SYNC();");
    --Indent;
    line("}");
  }

  void emitThreadLoop() {
    line("PR_THREAD_LOOP {");
    ++Indent;
    line("PR_COST(uint64_t cyc = 0;)");
    if (!Shape.Nest.threadedLevel()) {
      // No space loop to stripe: every point belongs to simulated
      // thread 0, exactly as forEachPointForThread assigns it.
      line("if (t != 0u)");
      line("  break;");
    }
    emitNestLevel(1);
    openCost();
    line("if (thread_cycles)");
    line("  thread_cycles[t] = cyc;");
    line("if (cyc > p_max)");
    line("  p_max = cyc;");
    line("p_sum += cyc;");
    line("p_active += cyc != 0u;");
    closeCost();
    --Indent;
    line("} PR_THREAD_END");
  }

  void emitNestLevel(unsigned L) {
    if (Failed)
      return;
    if (L == Shape.Nest.Levels.size()) {
      emitCell();
      return;
    }
    const poly::LoopLevel &Level = Shape.Nest.Levels[L];
    if (Level.isFixed()) {
      if (Level.FixedDivisor == 1) {
        line("{");
        ++Indent;
        line("const int64_t v%u = %s;", L,
             nestAffine(*Level.FixedNumerator, L).c_str());
        emitNestLevel(L + 1);
        --Indent;
        line("}");
      } else {
        line("{");
        ++Indent;
        line("int64_t n%u = %s;", L,
             nestAffine(*Level.FixedNumerator, L).c_str());
        line("if (n%u %% %s == 0) {", L, intLit(Level.FixedDivisor).c_str());
        ++Indent;
        line("const int64_t v%u = n%u / %s;", L, L,
             intLit(Level.FixedDivisor).c_str());
        emitNestLevel(L + 1);
        --Indent;
        line("}");
        --Indent;
        line("}");
      }
      return;
    }
    if (Level.Lower.empty() || Level.Upper.empty()) {
      fail(); // Generated loops must be bounded.
      return;
    }
    line("{");
    ++Indent;
    // Max of the ceil-divided lower bounds, min of the floor-divided
    // upper bounds, in LoopNest::evalLower/evalUpper order.
    line("int64_t lo%u = pr_ceil_div(%s, %s);", L,
         nestAffine(Level.Lower[0].Numerator, L).c_str(),
         intLit(Level.Lower[0].Divisor).c_str());
    for (size_t B = 1; B < Level.Lower.size(); ++B) {
      line("{");
      line("  int64_t b = pr_ceil_div(%s, %s);",
           nestAffine(Level.Lower[B].Numerator, L).c_str(),
           intLit(Level.Lower[B].Divisor).c_str());
      line("  if (b > lo%u)", L);
      line("    lo%u = b;", L);
      line("}");
    }
    line("int64_t hi%u = pr_floor_div(%s, %s);", L,
         nestAffine(Level.Upper[0].Numerator, L).c_str(),
         intLit(Level.Upper[0].Divisor).c_str());
    for (size_t B = 1; B < Level.Upper.size(); ++B) {
      line("{");
      line("  int64_t b = pr_floor_div(%s, %s);",
           nestAffine(Level.Upper[B].Numerator, L).c_str(),
           intLit(Level.Upper[B].Divisor).c_str());
      line("  if (b < hi%u)", L);
      line("    hi%u = b;", L);
      line("}");
    }
    bool ThisStriped = Shape.Nest.threadedLevel() &&
                       *Shape.Nest.threadedLevel() == L;
    // With one simulated thread the stripe start/step degenerate to
    // lo/1, so the striped form is exact for every thread count. Only
    // fixed levels enclose the striped one inside the thread loop, so
    // lo and hi do not depend on t: once a thread's stripe is empty,
    // every later thread's is too, and the thread loop ends.
    if (ThisStriped) {
      line("if (lo%u + (int64_t)t > hi%u)", L, L);
      line("  break;");
      line("for (int64_t v%u = lo%u + (int64_t)t; v%u <= hi%u; "
           "v%u += (int64_t)PR_NTHREADS) {",
           L, L, L, L, L);
    } else
      line("for (int64_t v%u = lo%u; v%u <= hi%u; ++v%u) {", L, L, L, L, L);
    ++Indent;
    emitNestLevel(L + 1);
    --Indent;
    line("}");
    --Indent;
    line("}");
  }

  void emitCell() {
    line("{");
    ++Indent;
    line("PR_COST(uint64_t d_ops = 0, d_tr = 0, d_tw = 0, d_mr = 0, "
         "d_tc = 0;)");
    emitRange(0, static_cast<uint32_t>(Prog->Code.size()));
    const char *Conv = nullptr;
    switch (Prog->Conv) {
    case ResultConv::RealSlot:
      Conv = "r[%d].d";
      break;
    case ResultConv::IntSlot:
      Conv = "(double)r[%d].i";
      break;
    case ResultConv::BoolSlot:
      Conv = "r[%d].i ? 1.0 : 0.0";
      break;
    case ResultConv::LogRealSlot:
      Conv = "pr_tolog(r[%d].d)";
      break;
    case ResultConv::LogIntSlot:
      Conv = "pr_tolog((double)r[%d].i)";
      break;
    }
    std::string ConvExpr;
    {
      char Buf[64];
      snprintf(Buf, sizeof(Buf), Conv, Prog->ResultReg);
      ConvExpr = Buf;
    }
    std::vector<std::string> Point;
    for (unsigned D = 0; D != Slots.N; ++D)
      Point.push_back(indexedVar("v", 1 + D));
    line("double cv = %s;", ConvExpr.c_str());
    line("tab[%s] = cv;", addr(Point).c_str());
    openCost();
    line("d_tw += 1ULL;"); // The cell's own store, as evalCell charges it.
    line("k_ops += d_ops;");
    line("k_tr += d_tr;");
    line("k_tw += d_tw;");
    line("k_mr += d_mr;");
    line("k_tc += d_tc;");
    line("cyc += d_ops * cyc_op + d_tc * cyc_trans");
    line("    + (d_tr + d_tw) * cyc_table + d_mr * cyc_model;");
    line("k_cells += 1ULL;");
    line("if (cv > k_max)");
    line("  k_max = cv;");
    closeCost();
    std::string RootCond = "check_root";
    for (unsigned D = 0; D != Slots.N; ++D)
      RootCond += " && " + Point[D] + " == root" + std::to_string(D);
    line("if (%s) {", RootCond.c_str());
    line("  k_root = cv;");
    line("  k_has_root = 1ULL;");
    line("}");
    --Indent;
    line("}");
  }

  /// Emits the instruction range [Pc, End), the unit the VM's execRange
  /// runs: its own packed cost accumulator (flushed into the wide lanes
  /// on every exit path) and function-unique labels for the structured
  /// forward jumps inside it.
  void emitRange(uint32_t Pc, uint32_t End) {
    int Rid = NextRange++;
    std::set<uint32_t> Targets;
    for (uint32_t Q = Pc; Q < End && !Failed;) {
      const Instr &In = Prog->Code[Q];
      if (In.Op == Opcode::JumpIfFalse || In.Op == Opcode::Jump) {
        uint32_t T = static_cast<uint32_t>(In.Op == Opcode::Jump ? In.A
                                                                 : In.B);
        if (T <= Q || T > End)
          fail(); // Only structured forward jumps within the range.
        Targets.insert(T);
      }
      if (In.Op == Opcode::Reduce) {
        uint32_t BodyEnd = Prog->Reduces[static_cast<size_t>(In.A)].BodyEnd;
        if (BodyEnd <= Q || BodyEnd > End) {
          fail();
          return;
        }
        Q = BodyEnd;
      } else {
        ++Q;
      }
    }
    line("PR_COST(uint64_t pk%d = 0;)", Rid);
    for (uint32_t Q = Pc; Q < End && !Failed;) {
      if (Targets.count(Q))
        line("L%d_%u: ;", Rid, Q);
      const Instr &In = Prog->Code[Q];
      // The VM charges an instruction's packed cost at dispatch, before
      // executing it (jump targets included), so the charge precedes
      // the statement and follows the label.
      if (In.Cost)
        line("PR_COST(pk%d += 0x%" PRIx64 "ULL;)", Rid, In.Cost);
      if (In.Op == Opcode::Reduce) {
        emitReduce(In, Q);
        Q = Prog->Reduces[static_cast<size_t>(In.A)].BodyEnd;
        continue;
      }
      emitInstr(In, Rid);
      ++Q;
    }
    if (Targets.count(End))
      line("L%d_%u: ;", Rid, End);
    openCost();
    line("d_ops += pk%d & 0xFFFFULL;", Rid);
    line("d_tr += (pk%d >> 16) & 0xFFFFULL;", Rid);
    line("d_mr += (pk%d >> 32) & 0xFFFFULL;", Rid);
    line("d_tc += pk%d >> 48;", Rid);
    closeCost();
  }

  void emitReduce(const Instr &In, uint32_t Pc) {
    const ReduceDesc &Rd = Prog->Reduces[static_cast<size_t>(In.A)];
    const char *Off = Rd.OverIncoming ? "adj_in_off" : "adj_out_off";
    const char *Arr = Rd.OverIncoming ? "adj_in" : "adj_out";
    bool IntAcc = Rd.AccKind == ReduceDesc::Acc::Int;
    line("{");
    ++Indent;
    line("const pr_hmm *h = &a->hmms[%u];", Rd.HmmParam);
    line("uint64_t rs = (uint64_t)(uint32_t)r[%d].i;", Rd.StateReg);
    line("const uint64_t *rset = h->%s + h->%s[rs];", Arr, Off);
    line("uint64_t rn = h->%s[rs + 1] - h->%s[rs];", Off, Off);
    // Accumulator identities, exactly as the VM initialises them.
    switch (Rd.Kind) {
    case lang::ReductionKind::Sum:
      if (IntAcc)
        line("int64_t acc = 0;");
      else if (Rd.AccKind == ReduceDesc::Acc::Prob)
        line("double acc = -INFINITY, acc_s = 0.0;"); // LogSumAcc's M, S.
      else
        line("double acc = 0.0;");
      break;
    case lang::ReductionKind::Max:
      if (IntAcc)
        line("int64_t acc = %s;",
             intLit(std::numeric_limits<int64_t>::min()).c_str());
      else
        line("double acc = -INFINITY;");
      break;
    case lang::ReductionKind::Min:
      if (IntAcc)
        line("int64_t acc = %s;",
             intLit(std::numeric_limits<int64_t>::max()).c_str());
      else
        line("double acc = INFINITY;");
      break;
    }
    bool NeedFirst = Rd.Kind != lang::ReductionKind::Sum;
    if (NeedFirst)
      line("int rfirst = 1;");
    line("for (uint64_t re = 0; re != rn; ++re) {");
    ++Indent;
    line("r[%d].i = (int64_t)rset[re];", Rd.VarReg);
    line("{");
    ++Indent;
    emitRange(Pc + 1, Rd.BodyEnd);
    --Indent;
    line("}");
    // Acc.add(ElemCost): the wide per-element accumulation charge.
    if (Rd.ElemCost.Ops)
      line("PR_COST(d_ops += %uULL;)", Rd.ElemCost.Ops);
    if (Rd.ElemCost.TableReads)
      line("PR_COST(d_tr += %uULL;)", Rd.ElemCost.TableReads);
    if (Rd.ElemCost.TableWrites)
      line("PR_COST(d_tw += %uULL;)", Rd.ElemCost.TableWrites);
    if (Rd.ElemCost.ModelReads)
      line("PR_COST(d_mr += %uULL;)", Rd.ElemCost.ModelReads);
    if (Rd.ElemCost.Transcendentals)
      line("PR_COST(d_tc += %uULL;)", Rd.ElemCost.Transcendentals);
    const char *Slot = IntAcc ? "i" : "d";
    switch (Rd.Kind) {
    case lang::ReductionKind::Sum:
      if (Rd.AccKind == ReduceDesc::Acc::Prob) {
        // LogSumAcc::add, statement for statement.
        line("if (r[%d].d != -INFINITY) {", Rd.BodyReg);
        line("  if (r[%d].d > acc) {", Rd.BodyReg);
        line("    acc_s = (acc_s + 1.0) * exp(acc - r[%d].d);", Rd.BodyReg);
        line("    acc = r[%d].d;", Rd.BodyReg);
        line("  } else {");
        line("    acc_s += exp(r[%d].d - acc);", Rd.BodyReg);
        line("  }");
        line("}");
      } else {
        line("acc += r[%d].%s;", Rd.BodyReg, Slot);
      }
      break;
    case lang::ReductionKind::Min:
      // std::min(acc, body) selects body only on strict body < acc.
      line("acc = rfirst ? r[%d].%s : (r[%d].%s < acc ? r[%d].%s : acc);",
           Rd.BodyReg, Slot, Rd.BodyReg, Slot, Rd.BodyReg, Slot);
      break;
    case lang::ReductionKind::Max:
      // std::max(acc, body) selects body only on strict acc < body.
      line("acc = rfirst ? r[%d].%s : (acc < r[%d].%s ? r[%d].%s : acc);",
           Rd.BodyReg, Slot, Rd.BodyReg, Slot, Rd.BodyReg, Slot);
      break;
    }
    if (NeedFirst)
      line("rfirst = 0;");
    --Indent;
    line("}");
    if (Rd.Kind == lang::ReductionKind::Sum &&
        Rd.AccKind == ReduceDesc::Acc::Prob)
      line("acc = acc_s == 0.0 ? acc : acc + log1p(acc_s);"); // result()
    line("r[%d].%s = acc;", Rd.DstReg, Slot);
    --Indent;
    line("}");
  }

  void emitTableRead(const Instr &In) {
    const CallDesc &Cd = Prog->Calls[static_cast<size_t>(In.B)];
    if (Cd.NumArgs != Prog->NumDims || Cd.NumArgs > 8) {
      fail();
      return;
    }
    line("{");
    ++Indent;
    std::vector<std::string> Point;
    for (unsigned A = 0; A != Cd.NumArgs; ++A) {
      const CallArg &Ca = Prog->CallArgsPool[Cd.FirstArg + A];
      if (Ca.Reg >= 0)
        line("int64_t tg%u = r[%d].i;", A, Ca.Reg);
      else
        line("int64_t tg%u = %s;", A,
             pointAffine(&Prog->AffinePool[Ca.CoeffOffset], Ca.Bias).c_str());
      Point.push_back("tg" + std::to_string(A));
    }
    line("double tv = tab[%s];", addr(Point).c_str());
    switch (In.Op) {
    case Opcode::TableReadReal:
      line("r[%d].d = tv;", In.A);
      break;
    case Opcode::TableReadBool:
      line("r[%d].i = tv != 0.0;", In.A);
      break;
    case Opcode::TableReadInt:
      line("r[%d].i = (int64_t)tv;", In.A); // Integral: exact.
      break;
    default:
      fail();
      break;
    }
    --Indent;
    line("}");
  }

  void emitInstr(const Instr &In, int Rid) {
    int A = In.A, B = In.B, C = In.C, D = In.D;
    switch (In.Op) {
    case Opcode::ConstInt:
      line("r[%d].i = %s;", A, intLit(In.Imm.I).c_str());
      break;
    case Opcode::ConstReal:
      line("r[%d].d = %s;", A, realLit(In.Imm.D).c_str());
      break;
    case Opcode::Move:
      line("r[%d] = r[%d];", A, B);
      break;
    case Opcode::LoadPoint:
      line("r[%d].i = v%d;", A, 1 + B);
      break;
    case Opcode::LoadArgInt:
      line("r[%d].i = a->int_args[%d];", A, B);
      break;
    case Opcode::LoadArgReal:
      line("r[%d].d = a->real_args[%d];", A, B);
      break;
    case Opcode::IntToReal:
      line("r[%d].d = (double)r[%d].i;", A, B);
      break;
    case Opcode::LogOf:
      line("r[%d].d = pr_tolog(r[%d].d);", A, B);
      break;
    case Opcode::AddInt:
      line("r[%d].i = r[%d].i + r[%d].i;", A, B, C);
      break;
    case Opcode::SubInt:
      line("r[%d].i = r[%d].i - r[%d].i;", A, B, C);
      break;
    case Opcode::MulInt:
      line("r[%d].i = r[%d].i * r[%d].i;", A, B, C);
      break;
    case Opcode::DivInt:
      line("r[%d].i = r[%d].i == 0 ? 0 : r[%d].i / r[%d].i;", A, C, B, C);
      break;
    case Opcode::MinInt:
      line("r[%d].i = r[%d].i < r[%d].i ? r[%d].i : r[%d].i;", A, B, C, B,
           C);
      break;
    case Opcode::MaxInt:
      line("r[%d].i = r[%d].i > r[%d].i ? r[%d].i : r[%d].i;", A, B, C, B,
           C);
      break;
    case Opcode::AddReal:
      line("r[%d].d = r[%d].d + r[%d].d;", A, B, C);
      break;
    case Opcode::SubReal:
      line("r[%d].d = r[%d].d - r[%d].d;", A, B, C);
      break;
    case Opcode::MulReal:
      line("r[%d].d = r[%d].d * r[%d].d;", A, B, C);
      break;
    case Opcode::DivReal:
      line("r[%d].d = r[%d].d / r[%d].d;", A, B, C);
      break;
    case Opcode::MinReal:
      line("r[%d].d = r[%d].d < r[%d].d ? r[%d].d : r[%d].d;", A, B, C, B,
           C);
      break;
    case Opcode::MaxReal:
      line("r[%d].d = r[%d].d > r[%d].d ? r[%d].d : r[%d].d;", A, B, C, B,
           C);
      break;
    case Opcode::LogMul:
      line("r[%d].d = r[%d].d + r[%d].d;", A, B, C);
      break;
    case Opcode::LogDiv:
      line("r[%d].d = r[%d].d - r[%d].d;", A, B, C);
      break;
    case Opcode::LogSum:
      line("r[%d].d = pr_logaddexp(r[%d].d, r[%d].d);", A, B, C);
      break;
    case Opcode::CmpLtReal:
      line("r[%d].i = r[%d].d < r[%d].d;", A, B, C);
      break;
    case Opcode::CmpLeReal:
      line("r[%d].i = r[%d].d <= r[%d].d;", A, B, C);
      break;
    case Opcode::CmpGtReal:
      line("r[%d].i = r[%d].d > r[%d].d;", A, B, C);
      break;
    case Opcode::CmpGeReal:
      line("r[%d].i = r[%d].d >= r[%d].d;", A, B, C);
      break;
    case Opcode::CmpEqReal:
      line("r[%d].i = r[%d].d == r[%d].d;", A, B, C);
      break;
    case Opcode::CmpNeReal:
      line("r[%d].i = r[%d].d != r[%d].d;", A, B, C);
      break;
    case Opcode::CmpEqInt:
      line("r[%d].i = r[%d].i == r[%d].i;", A, B, C);
      break;
    case Opcode::CmpNeInt:
      line("r[%d].i = r[%d].i != r[%d].i;", A, B, C);
      break;
    case Opcode::JumpIfFalse:
      line("if (!r[%d].i)", A);
      line("  goto L%d_%u;", Rid, static_cast<uint32_t>(B));
      break;
    case Opcode::Jump:
      line("goto L%d_%u;", Rid, static_cast<uint32_t>(A));
      break;
    case Opcode::TableReadReal:
    case Opcode::TableReadBool:
    case Opcode::TableReadInt:
      emitTableRead(In);
      break;
    case Opcode::SeqChar:
      line("r[%d].i = (int64_t)a->seqs[%d].data[r[%d].i];", A, B, C);
      break;
    case Opcode::MatrixScore:
      line("{");
      line("  const pr_matrix *m = &a->matrices[%d];", B);
      line("  int64_t ia = m->char_idx[(uint8_t)(char)r[%d].i];", C);
      line("  int64_t ib = m->char_idx[(uint8_t)(char)r[%d].i];", D);
      line("  r[%d].i = (ia < 0 || ib < 0)", A);
      line("      ? m->default_score : m->scores[ia * m->size + ib];");
      line("}");
      break;
    case Opcode::TransStart:
      line("r[%d].i = (int64_t)a->hmms[%d].trans_from[(uint32_t)r[%d].i];",
           A, B, C);
      break;
    case Opcode::TransEnd:
      line("r[%d].i = (int64_t)a->hmms[%d].trans_to[(uint32_t)r[%d].i];", A,
           B, C);
      break;
    case Opcode::TransLogProb:
      line("r[%d].d = a->hmms[%d].log_trans[(uint64_t)r[%d].i];", A, B, C);
      break;
    case Opcode::StateIsStart:
      line("r[%d].i = "
           "(int64_t)a->hmms[%d].state_is_start[(uint32_t)r[%d].i];",
           A, B, C);
      break;
    case Opcode::StateIsEnd:
      line("r[%d].i = (int64_t)a->hmms[%d].state_is_end[(uint32_t)r[%d].i];",
           A, B, C);
      break;
    case Opcode::Emission:
      line("{");
      line("  const pr_hmm *h = &a->hmms[%d];", B);
      line("  r[%d].d = h->emissions[(uint64_t)r[%d].i * h->stride", A, C);
      line("      + h->char_col[(uint8_t)(char)r[%d].i]];", D);
      line("}");
      break;
    case Opcode::Reduce:
      fail(); // Handled by emitRange; reaching here is a logic error.
      break;
    default:
      fail(); // Unknown opcode: fall back to the VM.
      break;
    }
  }
};

} // namespace

const char *codegen::kernelPrelude(KernelTarget Target) {
  return Target == KernelTarget::Cuda ? CudaPrelude : HostPrelude;
}

std::string codegen::renderKernelSource(const exec::PlanShape &Shape,
                                        KernelTarget Target) {
  std::string Body = CEmitter(Shape).render();
  return Body.empty() ? Body : kernelPrelude(Target) + Body;
}

const char *codegen::cudaLaunchStub() {
  return "/* Host launch: d_args and everything it points to live in device\n"
         " * memory (bindings, the table, kernelExtents()); p_lo..p_hi is the\n"
         " * box's partition range. Returns 0 with the root cell in *root. */\n"
         "#ifdef __CUDACC__\n"
         "int parrec_launch(const pr_args *d_args, int64_t p_lo, int64_t p_hi,\n"
         "                  uint32_t threads, double *root) {\n"
         "  pr_slot_t slot = {0}, *d_slot = 0;\n"
         "  if (cudaMalloc((void **)&d_slot, sizeof slot) != cudaSuccess)\n"
         "    return -1;\n"
         "  cudaMemcpy(d_slot, &slot, sizeof slot, cudaMemcpyHostToDevice);\n"
         "  parrec_scan<<<1, threads>>>(d_args, p_lo, p_hi, 0u, threads, threads,\n"
         "                              d_slot, 0, 0);\n"
         "  cudaMemcpy(&slot, d_slot, sizeof slot, cudaMemcpyDeviceToHost);\n"
         "  cudaFree(d_slot);\n"
         "  *root = slot.root_value;\n"
         "  return slot.has_root ? 0 : -1;\n"
         "}\n"
         "#endif\n";
}

std::vector<int64_t> codegen::kernelExtents(const exec::ExecutablePlan &Plan) {
  const solver::DomainBox &Box = Plan.Box;
  const exec::PlanShape &Shape = *Plan.Shape;
  ExtentSlots Slots{static_cast<unsigned>(Plan.Params.size()),
                    Box.numDims()};
  std::vector<int64_t> Ext(Slots.size(), 0);
  std::copy(Plan.Params.begin(), Plan.Params.end(), Ext.begin());
  for (unsigned D = 0; D != Slots.N; ++D)
    Ext[Slots.root(D)] = Box.Upper[D];
  Ext[Slots.rootPartition()] = Plan.RootPartition;
  int Dropped = Shape.UseWindow ? static_cast<int>(Plan.WindowDropDim) : -1;
  exec::TableLayout Layout = exec::tableLayout(Box, Dropped);
  // The kernel bakes this stride as 1.
  [[maybe_unused]] int Unit = unitStrideDim(Slots.N, Dropped);
  assert((Unit < 0 || Layout.Strides[Unit] == 1) && "layout not row-major");
  if (Shape.UseWindow)
    Ext[Slots.minPartition()] = Shape.Sched.minOver(Box);
  for (unsigned D = 0; D != Slots.N; ++D)
    Ext[Slots.stride(D)] = static_cast<int64_t>(Layout.Strides[D]);
  Ext[Slots.tableBase()] = static_cast<int64_t>(Layout.Base);
  Ext[Slots.planeSize()] = static_cast<int64_t>(Layout.PlaneSize);
  return Ext;
}

//===----------------------------------------------------------------------===//
// Compilation, disk cache and fallback.
//===----------------------------------------------------------------------===//

namespace {

std::atomic<uint64_t> WarningsPrinted{0};

void warnOnce(const std::string &Reason) {
  uint64_t Expected = 0;
  if (WarningsPrinted.compare_exchange_strong(Expected, 1))
    std::fprintf(stderr,
                 "parrec: warning: native jit unavailable (%s); "
                 "falling back to the bytecode VM\n",
                 Reason.c_str());
}

std::shared_ptr<const JitKernel> fallBack(const std::string &Reason) {
  warnOnce(Reason);
  obs::MetricsRegistry::global().add("jit.fallbacks");
  obs::MetricsRegistry::global().add("jit.cache_events",
                                     obs::Labels{{"event", "fallback"}});
  return nullptr;
}

uint64_t fnv1a(std::string_view S, uint64_t H = 0xcbf29ce484222325ULL) {
  for (unsigned char C : S) {
    H ^= C;
    H *= 0x100000001b3ULL;
  }
  return H;
}

std::string resolveCacheDir(const std::string &Override) {
  if (!Override.empty())
    return Override;
  for (const char *Var : {"ParRec_JIT_CACHE", "PARREC_JIT_CACHE"})
    if (const char *E = std::getenv(Var); E && *E)
      return E;
  if (const char *Home = std::getenv("HOME"); Home && *Home)
    return std::string(Home) + "/.cache/parrec-jit";
  return "/tmp/parrec-jit";
}

std::shared_ptr<const JitKernel> tryLoad(const std::string &SoPath) {
  void *Handle = ::dlopen(SoPath.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (!Handle)
    return nullptr;
  void *Sym = ::dlsym(Handle, "parrec_scan");
  if (!Sym) {
    ::dlclose(Handle);
    return nullptr;
  }
  return std::make_shared<JitKernel>(
      Handle, reinterpret_cast<JitKernelFn>(Sym));
}

} // namespace

uint64_t codegen::jitWarningsEmitted() { return WarningsPrinted.load(); }

JitCompileOptions
JitCompileOptions::resolve(const std::string &CacheDirOverride) {
  JitCompileOptions Opts;
  Opts.CacheDir = resolveCacheDir(CacheDirOverride);
  if (const char *Cc = std::getenv("CC"); Cc && *Cc)
    Opts.Cc = Cc;
  return Opts;
}

std::shared_ptr<const JitKernel>
codegen::compileKernel(const exec::PlanShape &Shape,
                       const JitCompileOptions &Opts) {
  obs::MetricsRegistry &Metrics = obs::MetricsRegistry::global();

  std::string Source = renderKernelSource(Shape);
  if (Source.empty())
    return fallBack("unsupported plan or cell-body shape");

  const std::string &Dir = Opts.CacheDir;
  std::error_code Ec;
  std::filesystem::create_directories(Dir, Ec);
  if (Ec)
    return fallBack("cannot create the jit cache directory");

  // Cache key: schedule fingerprint mixed into a hash of the emitted
  // source (which already bakes the schedule, the window depth and the
  // program, and no box), so every box of a shape shares one entry and
  // any shape-visible change misses.
  uint64_t Key =
      fnv1a(Source) ^ (Shape.Sched.fingerprint() * 0x9e3779b97f4a7c15ULL);
  char Hex[24];
  snprintf(Hex, sizeof(Hex), "%016" PRIx64, Key);
  std::string Stem = Dir + "/k" + Hex;
  std::string SoPath = Stem + ".so";

  if (std::filesystem::exists(SoPath, Ec) && !Ec) {
    if (auto Kernel = tryLoad(SoPath)) {
      Metrics.add("jit.cache_hits");
      Metrics.add("jit.cache_events", obs::Labels{{"event", "hit"}});
      return Kernel;
    }
    // Corrupt or stale entry: drop it and recompile below.
    std::filesystem::remove(SoPath, Ec);
  }

  // Source, object and compiler log all go to paths private to this
  // compile and are renamed into place afterwards, so threads or
  // processes compiling the same kernel into one directory never
  // truncate a file another compiler is reading.
  static std::atomic<uint64_t> TmpCounter{0};
  std::string Unique = "." + std::to_string(::getpid()) + "." +
                       std::to_string(TmpCounter.fetch_add(1));
  std::string CTmp = Stem + Unique + ".c";
  std::string LogTmp = Stem + Unique + ".log";
  std::string Tmp = SoPath + Unique + ".tmp";
  {
    std::ofstream Os(CTmp, std::ios::trunc);
    Os << Source;
    if (!Os) {
      std::filesystem::remove(CTmp, Ec);
      return fallBack("cannot write the generated source");
    }
  }

  std::string Cmd = Opts.Cc +
                    " -O2 -shared -fPIC -ffp-contract=off -o '" + Tmp +
                    "' '" + CTmp + "' -lm 2>'" + LogTmp + "'";

  auto T0 = std::chrono::steady_clock::now();
  int Status = std::system(Cmd.c_str());
  auto Ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - T0)
                .count();
  // Atomic publish so concurrent compiles of one shape race benignly;
  // the source is kept beside the kernel for inspection, and beside the
  // compiler's diagnostics when the compile failed.
  auto Publish = [&Ec](const std::string &From, const std::string &To) {
    std::filesystem::rename(From, To, Ec);
    if (Ec)
      std::filesystem::remove(From, Ec);
  };
  Publish(CTmp, Stem + ".c");
  if (Status != 0) {
    std::filesystem::remove(Tmp, Ec);
    Publish(LogTmp, Stem + ".log");
    return fallBack("host C compiler failed or missing; diagnostics in " +
                    Stem + ".log");
  }
  std::filesystem::remove(LogTmp, Ec);
  std::filesystem::remove(Stem + ".log", Ec);
  if (std::rename(Tmp.c_str(), SoPath.c_str()) != 0) {
    std::filesystem::remove(Tmp, Ec);
    return fallBack("cannot publish the compiled kernel");
  }
  Metrics.add("jit.cache_misses");
  Metrics.add("jit.cache_events", obs::Labels{{"event", "miss"}});
  Metrics.record("jit.compile_ns", static_cast<double>(Ns));

  if (auto Kernel = tryLoad(SoPath))
    return Kernel;
  return fallBack("dlopen of the compiled kernel failed");
}

KernelHandle codegen::startCompile(const exec::PlanShape &Shape,
                                   JitCompileOptions Opts) {
  auto Compile = [&Shape, Opts = std::move(Opts)] {
    obs::Span S("jit.compile", "codegen");
    std::shared_ptr<const JitKernel> Kernel = compileKernel(Shape, Opts);
    if (S.active())
      S.arg("fallback", Kernel == nullptr);
    return Kernel;
  };
  try {
    return std::async(std::launch::async, std::move(Compile)).share();
  } catch (const std::system_error &) {
    std::promise<std::shared_ptr<const JitKernel>> NoThread;
    NoThread.set_value(fallBack("cannot start a compile thread"));
    return NoThread.get_future().share();
  }
}
