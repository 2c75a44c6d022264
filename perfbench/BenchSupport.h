//===- BenchSupport.h - Pure helpers of the repository benchmark --*- C++ -*-==//
//
// Part of ParRec, a reproduction of "Synthesising Graphics Card Programs
// from DSLs" (Cartey, Lyngsø, de Moor; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The arithmetic of the perfbench binary, kept free of ParRec types so
/// the self-test can check it directly: the metric tables (names and
/// units, which BENCHMARK.json must repeat), metric-name validation, the
/// nearest-rank percentile, the layer residual and the oracle tally that
/// error_frac is computed from.
///
//===----------------------------------------------------------------------===//

#ifndef PARREC_PERFBENCH_BENCHSUPPORT_H
#define PARREC_PERFBENCH_BENCHSUPPORT_H

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct MetricSpec {
  std::string Name;
  const char *Unit;
};

/// Metrics a run with --trace 0 reports, every workload alike.
inline const std::vector<MetricSpec> &endToEndMetrics() {
  static const std::vector<MetricSpec> Specs = {
      {"setup_s", "s"},
      {"cells_per_s", "cells/s"},
      {"latency_p50_ms", "ms"},
      {"latency_p99_ms", "ms"},
      {"modelled_makespan_cycles", "cycles"},
      {"peak_rss_mb", "MB"},
  };
  return Specs;
}

/// The compiler passes whose time compiler.pass.<p>_s reports.
inline const std::vector<const char *> &compilerPasses() {
  static const std::vector<const char *> Passes = {
      "parse",   "sema",     "dependence", "validate",
      "bytecode", "schedule_synthesis", "sliding_window",
      "loopgen", "finalize", "jit"};
  return Passes;
}

/// Tenants of the serve workloads, one per case study.
inline const std::vector<const char *> &tenantNames() {
  static const std::vector<const char *> Names = {"sw", "viterbi",
                                                  "forward"};
  return Names;
}

/// Metrics a run with --trace 1 reports, every workload alike (a layer a
/// workload never enters reads 0).
inline const std::vector<MetricSpec> &perLayerMetrics() {
  static const std::vector<MetricSpec> Specs = [] {
    std::vector<MetricSpec> S = {{"compiler.compile_s", "s"}};
    for (const char *P : compilerPasses())
      S.push_back({std::string("compiler.pass.") + P + "_s", "s"});
    S.insert(S.end(), {
                          {"exec.plan.lookups", "count"},
                          {"exec.plan.miss_frac", "fraction"},
                          {"codegen.jit.compiles", "count"},
                          {"codegen.jit.compile_s", "s"},
                          {"codegen.jit.disk_hits", "count"},
                          {"codegen.jit.fallbacks", "count"},
                          {"exec.scan_s", "s"},
                          {"exec.scan_frac", "fraction"},
                          {"exec.scan.ns_per_cell", "ns"},
                          {"exec.scan.sw.cells_per_s", "cells/s"},
                          {"exec.scan.viterbi.cells_per_s", "cells/s"},
                          {"exec.scan.forward.cells_per_s", "cells/s"},
                          {"gpu.cycles_per_cell", "cycles"},
                          {"gpu.overlap_cycles", "cycles"},
                          {"gpu.idle_cycles", "cycles"},
                          {"gpu.device_cycles_max_over_min", "ratio"},
                          {"gpu.host_ns_per_cycle", "ns"},
                          {"serve.submit_us.p50", "us"},
                          {"serve.submit_us.p99", "us"},
                          {"serve.queue_ms.p50", "ms"},
                          {"serve.queue_ms.p99", "ms"},
                          {"serve.exec_ms.p50", "ms"},
                          {"serve.publish_us.p50", "us"},
                          {"serve.batches", "count"},
                          {"serve.requests_per_batch", "count"},
                          {"serve.memo.hit_frac", "fraction"},
                          {"serve.max_queue_depth", "count"},
                      });
    for (const char *T : tenantNames())
      S.push_back({std::string("serve.tenant.") + T + ".latency_p50_ms",
                   "ms"});
    S.insert(S.end(), {
                          {"trace.overhead_frac", "fraction"},
                          {"layers.residual_frac", "fraction"},
                          {"error_frac", "fraction"},
                          {"latency.samples", "count"},
                      });
    return S;
  }();
  return Specs;
}

/// A metric name: starts with a letter or digit, then at most 63 more
/// letters, digits, '_', '.' or '-'.
inline bool validMetricName(std::string_view Name) {
  if (Name.empty() || Name.size() > 64)
    return false;
  auto Alnum = [](char C) {
    return (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') ||
           (C >= '0' && C <= '9');
  };
  if (!Alnum(Name.front()))
    return false;
  return std::all_of(Name.begin(), Name.end(), [&](char C) {
    return Alnum(C) || C == '_' || C == '.' || C == '-';
  });
}

/// Nearest-rank percentile: the smallest sample with at least
/// ceil(Q * n) samples at or below it (the minimum for Q = 0); 0 for no
/// samples.
inline double percentile(std::vector<double> Samples, double Q) {
  if (Samples.empty())
    return 0.0;
  double Rank = std::ceil(std::clamp(Q, 0.0, 1.0) *
                          static_cast<double>(Samples.size()));
  size_t Index = Rank < 1.0 ? 0 : static_cast<size_t>(Rank) - 1;
  std::nth_element(Samples.begin(), Samples.begin() + Index, Samples.end());
  return Samples[Index];
}

inline double median(std::vector<double> Samples) {
  return percentile(std::move(Samples), 0.5);
}

/// |sum of layer times - end-to-end time| / end-to-end time; 0 when the
/// end-to-end time is not positive.
inline double residualFrac(double LayerSum, double EndToEnd) {
  return EndToEnd > 0.0 ? std::fabs(LayerSum - EndToEnd) / EndToEnd : 0.0;
}

/// How a result is compared with its oracle: integer scores and the AST
/// oracle's values must match exactly; the forward baseline sums in its
/// own order, so it is compared to a relative tolerance.
enum class OracleMatch { Exact, Relative };

inline bool matchesOracle(double Expected, double Got, OracleMatch Kind) {
  if (Kind == OracleMatch::Exact || !std::isfinite(Expected))
    return Expected == Got;
  return std::fabs(Expected - Got) <=
         1e-9 * std::max(1.0, std::fabs(Expected));
}

/// Problems or requests attempted and failed; a failure is a result that
/// did not run Ok or did not match its oracle. Cells count only the
/// good results.
struct Tally {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  uint64_t GoodCells = 0;

  /// Records one result; returns whether it was good.
  bool record(bool RanOk, double Expected, double Got, OracleMatch Kind,
              uint64_t Cells) {
    ++Attempted;
    bool Good = RanOk && matchesOracle(Expected, Got, Kind);
    if (Good)
      GoodCells += Cells;
    else
      ++Failed;
    return Good;
  }

  void merge(const Tally &Other) {
    Attempted += Other.Attempted;
    Failed += Other.Failed;
    GoodCells += Other.GoodCells;
  }

  double errorFrac() const {
    return Attempted ? static_cast<double>(Failed) /
                           static_cast<double>(Attempted)
                     : 0.0;
  }
};

} // namespace perfbench

#endif // PARREC_PERFBENCH_BENCHSUPPORT_H
