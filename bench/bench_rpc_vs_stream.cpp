//===- bench_rpc_vs_stream.cpp - Experiment E1 -----------------------------===//
//
// Part of the promises project (PLDI 1988 reproduction).
//
// E1 (paper Sections 1, 2, 5): "remote calls require the caller to wait
// for a reply before continuing, and therefore can lead to lower
// performance than explicit message exchange"; stream calls raise
// throughput because the caller keeps issuing while calls are in transit
// and messages are batched. RPC systems "can be optimized only to reduce
// the delay of individual calls, not to improve the throughput of groups
// of calls."
//
// Workload: N echo calls (16-byte payloads) from one client activity to
// one server handler; sweep N. Modes: RPC (wait each), Stream (pipeline,
// claim at the end). Expect stream throughput to exceed RPC by roughly
// RTT / per-call-batch-share, growing until the server or batch path
// saturates.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "promises/support/Metrics.h"

using namespace promises;
using namespace promises::benchutil;
using namespace promises::core;
using namespace promises::runtime;

namespace {

std::string payload() { return std::string(16, 'x'); }

void rpcLoop(benchmark::State &State) {
  const int N = static_cast<int>(State.range(0));
  for (auto _ : State) {
    KvWorld W;
    MetricsRegistry Reg; // Histograms record only when enabled.
    Reg.setEnabled(true);
    // Issue-to-outcome time per call, in µs; percentiles within ~3%.
    Histogram &Latency = Reg.histogram("e1.latency_us");
    W.Client->spawnProcess("driver", [&] {
      auto H = bindHandler(*W.Client, W.Client->newAgent(), W.Kv.Echo);
      for (int I = 0; I < N; ++I) {
        sim::Time T0 = W.S.now();
        benchmark::DoNotOptimize(H.call(payload()));
        Latency.observe(sim::toMicros(W.S.now() - T0));
      }
    });
    W.S.run();
    reportVirtual(State, W.S.now(), static_cast<uint64_t>(N),
                  W.Net->counters());
    State.counters["lat_p50_ms"] = Latency.percentile(50) / 1e3;
    State.counters["lat_p99_ms"] = Latency.percentile(99) / 1e3;
  }
}

void streamLoop(benchmark::State &State) {
  const int N = static_cast<int>(State.range(0));
  for (auto _ : State) {
    KvWorld W;
    MetricsRegistry Reg;
    Reg.setEnabled(true);
    Histogram &Latency = Reg.histogram("e1.latency_us");
    W.Client->spawnProcess("driver", [&] {
      auto H = bindHandler(*W.Client, W.Client->newAgent(), W.Kv.Echo);
      std::vector<Promise<std::string>> Ps;
      std::vector<sim::Time> IssuedAt;
      Ps.reserve(static_cast<size_t>(N));
      for (int I = 0; I < N; ++I) {
        IssuedAt.push_back(W.S.now());
        Ps.push_back(H.streamCall(payload()));
      }
      H.flush();
      // Per-call latency = issue-to-ready; note the pipelining tradeoff:
      // later calls queue behind earlier ones at the server, so stream
      // latency *rises* with depth while throughput rises too.
      for (int I = 0; I < N; ++I) {
        const auto &O = Ps[static_cast<size_t>(I)].claim();
        benchmark::DoNotOptimize(O);
        Latency.observe(
            sim::toMicros(W.S.now() - IssuedAt[static_cast<size_t>(I)]));
      }
    });
    W.S.run();
    reportVirtual(State, W.S.now(), static_cast<uint64_t>(N),
                  W.Net->counters());
    State.counters["lat_p50_ms"] = Latency.percentile(50) / 1e3;
    State.counters["lat_p99_ms"] = Latency.percentile(99) / 1e3;
  }
}

void BM_Rpc(benchmark::State &State) { rpcLoop(State); }
void BM_Stream(benchmark::State &State) { streamLoop(State); }

} // namespace

BENCHMARK(BM_Rpc)->Arg(8)->Arg(64)->Arg(256)->Arg(1024)->Iterations(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Stream)->Arg(8)->Arg(64)->Arg(256)->Arg(1024)->Iterations(1)
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
