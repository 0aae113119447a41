//===- Bench.h - Shared perfbench types --------------------------*- C++ -*-===//
//
// Part of the promises project (PLDI 1988 reproduction).
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class DatagramSample;

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string TraceOut; ///< Chrome-trace JSON of the traced pass's spans.
};

/// What one run measured and checked. Metric names are validated against
/// the lists in main.cpp, which also own the units.
struct Result {
  std::map<std::string, double> Metrics;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Errors;

  void set(const std::string &Name, double V) { Metrics[Name] = V; }
  /// Records a failed output check; the run then exits nonzero.
  void fail(std::string Why) {
    ++Failed;
    if (Errors.size() < 20)
      Errors.push_back(std::move(Why));
  }
};

double median(std::vector<double> V);
double mean(const std::vector<double> &V);

/// Process user+sys CPU time so far.
double cpuNs();

/// Moves the calling thread to the allowed CPU on which a short, fixed
/// integer loop runs fastest right now; stays put if affinity cannot be
/// set. The host's other tenants share its physical cores, and on a
/// contended one this code runs up to ~1.45x slower.
void moveToQuietestCpu();
/// Timings are taken over quiet windows only: those whose cost per call is
/// at most QuietSlack times the QuietAnchor quantile of \p Costs. Returns
/// that limit (0 if \p Costs is empty).
constexpr double QuietAnchor = 0.01, QuietSlack = 1.05;
double quietLimit(std::vector<double> Costs);
/// Peak resident set size so far.
double peakRssMb();

/// Phases (a) and (b) of echo-sim / echo-udp.
void runEcho(const Options &O, bool Udp, Result &R);
/// The open-loop durable new-order storm.
void runNewOrder(const Options &O, Result &R);
/// Offline per-layer probes: promise cycle, switch, spawn+join, storage,
/// and the wire replay of \p Sample (may be null).
void runProbes(const DatagramSample *Sample, Result &R);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
