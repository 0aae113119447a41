//===- main.cpp - perfbench entry point -----------------------------------===//
//
// Part of the promises project (PLDI 1988 reproduction).
//
//   perfbench --workload echo-sim|echo-udp|neworder-durable --seed N
//             --seconds S --trace 0|1 [--trace-out FILE]
//
// Prints each metric by name with its unit, then, as the last line, one
// JSON object: {"correct", "attempted", "failed", "metrics"}. --trace 0
// reports the end-to-end metrics; --trace 1 measures untraced and traced
// slices side by side and reports the per-layer metrics. A failed output check prints
// the reasons, reports "correct": false with no metrics, and exits 1.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sched.h>
#include <set>
#include <sys/resource.h>

namespace perfbench {

namespace {

struct MetricDef {
  const char *Name;
  const char *Unit;
};

/// End-to-end metrics. Every workload reports each one; the workload
/// decides what its operation (op) and its throughput call are — see
/// perfbench/README.md.
constexpr MetricDef EndToEnd[] = {
    {"setup_s", "s"},
    {"op_p50_us", "us"},
    {"op_p99_us", "us"},
    {"goodput_per_s", "1/s"},
    {"op_allocs_per_op", "count"},
    {"calls_per_s", "1/s"},
    {"call_allocs_per_call", "count"},
    {"cpu_us_per_call", "us"},
    {"peak_rss_mb", "MB"},
    {"ok_share", "ratio"},
};

/// Per-layer metrics of the traced run. A metric a workload cannot reach
/// reads 0 there. Unsuffixed echo figures are phase (a), the RPC loop;
/// ".stream" ones are phase (b), the pipeline.
constexpr MetricDef PerLayer[] = {
    {"core.promise_cycle_ns", "ns"},
    {"sim.switch_ns", "ns"},
    {"sim.spawn_reap_ns", "ns"},
    {"sim.switches_per_call", "count"},
    {"sim.switches_per_call.stream", "count"},
    {"sim.spawns_per_call", "count"},
    {"sim.spawns_per_call.stream", "count"},
    {"sim.sched_self_ns_per_call", "ns"},
    {"sim.sched_self_ns_per_call.stream", "ns"},
    {"runtime.issue_ns", "ns"},
    {"runtime.issue_ns.stream", "ns"},
    {"runtime.claim_wait_ns", "ns"},
    {"runtime.claim_wait_ns.stream", "ns"},
    {"runtime.exec_ns", "ns"},
    {"runtime.exec_ns.stream", "ns"},
    {"runtime.calls_executed_per_call", "count"},
    {"runtime.calls_executed_per_call.stream", "count"},
    {"net.send_ns", "ns"},
    {"net.send_ns.stream", "ns"},
    {"net.send_ns_per_call", "ns"},
    {"net.send_ns_per_call.stream", "ns"},
    {"net.wait_ns_per_call", "ns"},
    {"net.wait_ns_per_call.stream", "ns"},
    {"net.datagrams_per_call", "count"},
    {"net.datagrams_per_call.stream", "count"},
    {"net.bytes_per_call", "bytes"},
    {"net.bytes_per_call.stream", "bytes"},
    {"stream.rx_ns", "ns"},
    {"stream.rx_ns.stream", "ns"},
    {"stream.rx_ns_per_call", "ns"},
    {"stream.rx_ns_per_call.stream", "ns"},
    {"stream.calls_per_batch", "ratio"},
    {"stream.calls_per_batch.stream", "ratio"},
    {"stream.retransmits_per_call", "count"},
    {"stream.retransmits_per_call.stream", "count"},
    {"stream.acks_per_call", "count"},
    {"stream.acks_per_call.stream", "count"},
    {"wire.open_ns_per_msg", "ns"},
    {"wire.open_ns_per_kib", "ns"},
    {"wire.seal_ns_per_kib", "ns"},
    {"wire.crc32c_ns_per_kib", "ns"},
    {"wire.bytes_copied_per_call", "bytes"},
    {"wire.bytes_copied_per_call.stream", "bytes"},
    {"alloc.issue_per_call", "count"},
    {"alloc.issue_per_call.stream", "count"},
    {"alloc.claim_per_call", "count"},
    {"alloc.claim_per_call.stream", "count"},
    {"alloc.send_per_call", "count"},
    {"alloc.send_per_call.stream", "count"},
    {"alloc.rx_per_call", "count"},
    {"alloc.rx_per_call.stream", "count"},
    {"alloc.exec_per_call", "count"},
    {"alloc.exec_per_call.stream", "count"},
    {"alloc.sched_per_call", "count"},
    {"alloc.sched_per_call.stream", "count"},
    {"storage.append_sync_ns", "ns"},
    {"storage.open_records_per_s", "1/s"},
    {"load.sim_calls_per_wall_s", "1/s"},
    {"load.exec_per_txn", "count"},
    {"load.trace_events_per_txn", "count"},
    {"load.wall_ns_per_trace_event", "ns"},
    {"load.virtual_per_wall", "ratio"},
    {"apps.txn_in_doubt", "count"},
    {"battery_violations", "count"},
    {"fail_share", "ratio"},
    {"op_top_level", "percent"},
    {"op_top_us", "us"},
    {"attrib.unattributed_ns_per_call", "ns"},
    {"attrib.rpc_p50_traced_ns", "ns"},
    {"trace.overhead.op_p50_us", "ratio"},
    {"trace.overhead.op_p99_us", "ratio"},
    {"trace.overhead.goodput_per_s", "ratio"},
    {"trace.overhead.calls_per_s", "ratio"},
    {"trace.overhead.cpu_us_per_call", "ratio"},
};

const char *const Workloads[] = {"echo-sim", "echo-udp", "neworder-durable"};

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload echo-sim|echo-udp|"
               "neworder-durable --seed N --seconds S --trace 0|1 "
               "[--trace-out FILE]\n");
}

bool parseArgs(int Argc, char **Argv, Options &O) {
  bool HaveWorkload = false;
  for (int I = 1; I < Argc; ++I) {
    const char *A = Argv[I];
    if (I + 1 >= Argc) {
      std::fprintf(stderr, "error: %s needs a value\n", A);
      return false;
    }
    const char *V = Argv[++I];
    char *End = nullptr;
    if (!std::strcmp(A, "--workload")) {
      O.Workload = V;
      HaveWorkload = std::any_of(
          std::begin(Workloads), std::end(Workloads),
          [&](const char *W) { return O.Workload == W; });
      if (!HaveWorkload) {
        std::fprintf(stderr, "error: unknown workload %s\n", V);
        return false;
      }
    } else if (!std::strcmp(A, "--seed")) {
      O.Seed = std::strtoull(V, &End, 10);
    } else if (!std::strcmp(A, "--seconds")) {
      O.Seconds = std::strtod(V, &End);
      if (!(O.Seconds > 0 && O.Seconds <= 3600)) {
        std::fprintf(stderr, "error: --seconds must be in (0, 3600]\n");
        return false;
      }
    } else if (!std::strcmp(A, "--trace")) {
      if (std::strcmp(V, "0") && std::strcmp(V, "1")) {
        std::fprintf(stderr, "error: --trace must be 0 or 1\n");
        return false;
      }
      O.Trace = V[0] == '1';
    } else if (!std::strcmp(A, "--trace-out")) {
      O.TraceOut = V;
    } else {
      std::fprintf(stderr, "error: unknown flag %s\n", A);
      return false;
    }
    if (End && *End) {
      std::fprintf(stderr, "error: bad number %s for %s\n", V, A);
      return false;
    }
  }
  if (!HaveWorkload)
    std::fprintf(stderr, "error: --workload is required\n");
  return HaveWorkload;
}

} // namespace

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

double mean(const std::vector<double> &V) {
  double S = 0;
  for (double X : V)
    S += X;
  return V.empty() ? 0 : S / V.size();
}

double cpuNs() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  auto Ns = [](const timeval &T) { return T.tv_sec * 1e9 + T.tv_usec * 1e3; };
  return Ns(U.ru_utime) + Ns(U.ru_stime);
}

namespace {

/// Nanoseconds for 40000 rounds of six interleaved integer chains: wide
/// enough to need the whole core, short enough (~50 us) to probe often.
uint64_t coreProbeNs() {
  uint64_t A = 1, B = 2, C = 3, D = 4, E = 5, F = 6;
  uint64_t T0 = nowNs();
  for (int I = 0; I != 40000; ++I) {
    A = A * 3 + B;
    B ^= C >> 3;
    C += D * 5;
    D ^= E << 1;
    E += F;
    F ^= A;
    asm volatile("" : "+r"(A), "+r"(B), "+r"(C), "+r"(D), "+r"(E), "+r"(F));
  }
  return nowNs() - T0;
}

} // namespace

void moveToQuietestCpu() {
  static cpu_set_t Allowed;
  static bool Have = sched_getaffinity(0, sizeof(Allowed), &Allowed) == 0;
  if (!Have || CPU_COUNT(&Allowed) < 2)
    return;
  int Best = -1;
  uint64_t BestNs = UINT64_MAX;
  for (int C = 0, Probed = 0; C != CPU_SETSIZE && Probed != 16; ++C) {
    if (!CPU_ISSET(C, &Allowed))
      continue;
    cpu_set_t One;
    CPU_ZERO(&One);
    CPU_SET(C, &One);
    if (sched_setaffinity(0, sizeof(One), &One) != 0)
      continue;
    ++Probed;
    if (uint64_t Ns = coreProbeNs(); Ns < BestNs) {
      BestNs = Ns;
      Best = C;
    }
  }
  cpu_set_t To = Allowed;
  if (Best >= 0) {
    CPU_ZERO(&To);
    CPU_SET(Best, &To);
  }
  sched_setaffinity(0, sizeof(To), &To);
}

double quietLimit(std::vector<double> Costs) {
  if (Costs.empty())
    return 0;
  auto K = Costs.begin() +
           static_cast<ptrdiff_t>(QuietAnchor * (Costs.size() - 1));
  std::nth_element(Costs.begin(), K, Costs.end());
  return QuietSlack * *K;
}

double peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return U.ru_maxrss / 1024.0; // ru_maxrss is in KiB on Linux.
}

} // namespace perfbench

using namespace perfbench;

int main(int Argc, char **Argv) {
  Options O;
  if (!parseArgs(Argc, Argv, O)) {
    usage();
    return 2;
  }

  Result R;
  if (O.Workload == "neworder-durable")
    runNewOrder(O, R);
  else
    runEcho(O, O.Workload == "echo-udp", R);
  R.set("peak_rss_mb", peakRssMb());

  std::set<std::string> Known;
  for (const MetricDef &M : EndToEnd)
    Known.insert(M.Name);
  for (const MetricDef &M : PerLayer)
    Known.insert(M.Name);
  if (!O.Trace)
    for (const MetricDef &M : EndToEnd)
      if (!R.Metrics.count(M.Name))
        R.fail(std::string("internal: ") + M.Name + " was not measured");
  for (const auto &[Name, V] : R.Metrics) {
    if (!Known.count(Name))
      R.fail("internal: unlisted metric " + Name);
    if (!std::isfinite(V))
      R.fail("metric " + Name + " is not a finite number");
  }

  if (R.Failed || R.Attempted == 0) {
    for (const std::string &E : R.Errors)
      std::printf("CHECK FAILED: %s\n", E.c_str());
    std::printf("{\"correct\": false, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {}}\n",
                (unsigned long long)R.Attempted,
                (unsigned long long)std::max<uint64_t>(R.Failed, 1));
    return 1;
  }

  std::string Json;
  auto Emit = [&](const MetricDef &M) {
    auto It = R.Metrics.find(M.Name);
    double V = It == R.Metrics.end() ? 0 : It->second;
    std::printf("%s %s = %.6g %s\n", O.Workload.c_str(), M.Name, V, M.Unit);
    char Buf[160];
    std::snprintf(Buf, sizeof(Buf), "%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                  Json.empty() ? "" : ", ", M.Name, V, M.Unit);
    Json += Buf;
  };
  if (O.Trace)
    for (const MetricDef &M : PerLayer)
      Emit(M);
  else
    for (const MetricDef &M : EndToEnd)
      Emit(M);
  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": 0, "
              "\"metrics\": {%s}}\n",
              (unsigned long long)R.Attempted, Json.c_str());
  return 0;
}
