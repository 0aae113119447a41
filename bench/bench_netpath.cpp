//===- bench_netpath.cpp - UDP loopback data-plane bench (BENCH_19) -------===//
//
// Part of the promises project (PLDI 1988 reproduction).
//
// Measures the real-socket measurement plane (docs/NETWORK.md): what the
// promises stack costs when the network is a kernel, not a cost model.
// Both ends live in this process, talking over loopback UDP through the
// UdpNetwork backend — the same guardians, transport, and frames as the
// simulator, with wall time driving the clock.
//
//   BM_RpcLatency      sequential echo RPCs; wall-clock round-trip
//                      latency percentiles (p50/p99) and mean.
//   BM_StreamThroughput pipelined stream calls, one flush, claim all;
//                      sustained calls/s through the socket path.
//
// Bespoke wall-clock driver (no google-benchmark: the interesting numbers
// are percentiles over individual round trips, not iteration averages).
//
//   bench_netpath --rpc-calls 2000 --stream-calls 20000 --out BENCH_19.json
//
//===----------------------------------------------------------------------===//

#include "promises/apps/KvStore.h"
#include "promises/net/UdpNetwork.h"
#include "promises/runtime/RemoteHandler.h"
#include "promises/support/BenchRecord.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

using namespace promises;
using namespace promises::core;
using namespace promises::runtime;

namespace {

struct Options {
  size_t RpcCalls = 2000;      ///< Latency-sample round trips.
  size_t StreamCalls = 20000;  ///< Pipelined throughput calls.
  size_t PayloadBytes = 32;    ///< Echo argument size.
  size_t Warmup = 200;         ///< Untimed calls before each measurement.
  std::string Out;             ///< JSON output path ("" = stdout only).
};

void usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s [options]\n"
               "  --rpc-calls N     latency sample size (default 2000)\n"
               "  --stream-calls N  pipelined throughput calls (default "
               "20000)\n"
               "  --payload BYTES   echo argument size (default 32)\n"
               "  --warmup N        untimed warmup calls (default 200)\n"
               "  --out FILE        also write the JSON record to FILE\n",
               Argv0);
}

bool parseArgs(int Argc, char **Argv, Options &O) {
  for (int I = 1; I < Argc; ++I) {
    auto Need = [&](const char *Flag) -> const char * {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "error: %s needs a value\n", Flag);
        return nullptr;
      }
      return Argv[++I];
    };
    const char *A = Argv[I];
    const char *V = nullptr;
    if (!std::strcmp(A, "--rpc-calls")) {
      if (!(V = Need(A)))
        return false;
      O.RpcCalls = std::strtoull(V, nullptr, 10);
    } else if (!std::strcmp(A, "--stream-calls")) {
      if (!(V = Need(A)))
        return false;
      O.StreamCalls = std::strtoull(V, nullptr, 10);
    } else if (!std::strcmp(A, "--payload")) {
      if (!(V = Need(A)))
        return false;
      O.PayloadBytes = std::strtoull(V, nullptr, 10);
    } else if (!std::strcmp(A, "--warmup")) {
      if (!(V = Need(A)))
        return false;
      O.Warmup = std::strtoull(V, nullptr, 10);
    } else if (!std::strcmp(A, "--out")) {
      if (!(V = Need(A)))
        return false;
      O.Out = V;
    } else if (!std::strcmp(A, "--help") || !std::strcmp(A, "-h")) {
      usage(Argv[0]);
      return false;
    } else {
      std::fprintf(stderr, "error: unknown argument '%s'\n", A);
      usage(Argv[0]);
      return false;
    }
  }
  return true;
}

double nsSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double, std::nano>(
             std::chrono::steady_clock::now() - T0)
      .count();
}

struct RpcResult {
  double P50Ns = 0, P99Ns = 0, MeanNs = 0;
  uint64_t Malformed = 0;
};

struct StreamResult {
  double CallsPerSec = 0, NsPerCall = 0;
  uint64_t Malformed = 0;
};

/// One harness per measurement: a fresh Simulation and UdpNetwork so the
/// two benches cannot warm each other's socket buffers or ack state.
struct Harness {
  sim::Simulation S;
  net::UdpNetwork Net{S};
  Guardian Server, Client;
  apps::KvStore Kv;

  explicit Harness(sim::Time ServiceTime = 0)
      : Server(Net, Net.addNode("server"), "server", GuardianConfig{}),
        Client(Net, Net.addNode("client"), "client", GuardianConfig{}),
        Kv(apps::installKvStore(
            Server, apps::KvStoreConfig{.ServiceTime = ServiceTime})) {}

  /// Every call must complete and every datagram come from a known
  /// peer. Returns the malformed frames both ends dropped, which the
  /// record carries and its gate holds at zero.
  uint64_t checkClean(const char *What, size_t Expected, size_t Got) {
    if (Got != Expected || Net.unknownSourceDrops() != 0) {
      std::fprintf(stderr,
                   "error: %s completed %zu/%zu calls, %" PRIu64
                   " unknown-source drops on loopback\n",
                   What, Got, Expected, Net.unknownSourceDrops());
      std::exit(1);
    }
    return Server.transport().counters().MalformedDropped +
           Client.transport().counters().MalformedDropped;
  }
};

RpcResult runRpcLatency(const Options &O) {
  Harness H;
  std::vector<double> Ns;
  Ns.reserve(O.RpcCalls);
  size_t Done = 0;
  H.Client.spawnProcess("driver", [&] {
    auto Echo = bindHandler(H.Client, H.Client.newAgent(), H.Kv.Echo);
    std::string Payload(O.PayloadBytes, 'x');
    for (size_t I = 0; I != O.Warmup; ++I)
      (void)Echo.call(Payload);
    for (size_t I = 0; I != O.RpcCalls; ++I) {
      auto T0 = std::chrono::steady_clock::now();
      auto Out = Echo.call(Payload);
      double D = nsSince(T0);
      if (Out.isNormal()) {
        Ns.push_back(D);
        ++Done;
      }
    }
  });
  H.S.run();
  RpcResult R;
  R.Malformed = H.checkClean("rpc", O.RpcCalls, Done);

  std::sort(Ns.begin(), Ns.end());
  R.P50Ns = Ns[Ns.size() / 2];
  R.P99Ns = Ns[std::min(Ns.size() - 1, Ns.size() * 99 / 100)];
  double Sum = 0;
  for (double D : Ns)
    Sum += D;
  R.MeanNs = Sum / static_cast<double>(Ns.size());
  return R;
}

StreamResult runStreamThroughput(const Options &O) {
  Harness H;
  size_t Done = 0;
  double Secs = 0;
  H.Client.spawnProcess("driver", [&] {
    auto Echo = bindHandler(H.Client, H.Client.newAgent(), H.Kv.Echo);
    std::string Payload(O.PayloadBytes, 'x');
    for (size_t I = 0; I != O.Warmup; ++I)
      (void)Echo.call(Payload);
    std::vector<Promise<std::string>> Ps;
    Ps.reserve(O.StreamCalls);
    auto T0 = std::chrono::steady_clock::now();
    for (size_t I = 0; I != O.StreamCalls; ++I)
      Ps.push_back(Echo.streamCall(Payload));
    Echo.flush();
    for (auto &P : Ps)
      if (P.claim().isNormal())
        ++Done;
    Secs = nsSince(T0) / 1e9;
  });
  H.S.run();
  StreamResult R;
  R.Malformed = H.checkClean("stream", O.StreamCalls, Done);
  R.CallsPerSec = static_cast<double>(Done) / Secs;
  R.NsPerCall = Secs * 1e9 / static_cast<double>(Done);
  return R;
}

BenchRecord record(const Options &O, const RpcResult &Rpc,
                   const StreamResult &Stream) {
  BenchRecord Rec("bench_netpath", 19);
  Rec.label("net", "udp-loopback");
  Rec.count("payload_bytes", "bytes", O.PayloadBytes);
  Rec.count("rpc.calls", "count", O.RpcCalls);
  // 3x a 5-17 us round trip (the boxes measured so far) is still well
  // below the ~80 us of a build that waits out the modelled encode cost
  // in wall time, so such a wait cannot come back unnoticed.
  Rec.metric("rpc.p50_ns", "ns", MetricKind::Wall, Rpc.P50Ns, 0,
             Gate::maxRatio(3));
  Rec.metric("rpc.p99_ns", "ns", MetricKind::Wall, Rpc.P99Ns, 0,
             Gate::maxRatio(3));
  Rec.metric("rpc.mean_ns", "ns", MetricKind::Wall, Rpc.MeanNs, 0);
  Rec.count("stream.calls", "count", O.StreamCalls);
  Rec.metric("stream.calls_per_s", "1/s", MetricKind::Wall,
             Stream.CallsPerSec, 0, Gate::minRatio(0.5));
  Rec.metric("stream.ns_per_call", "ns", MetricKind::Wall, Stream.NsPerCall,
             1);
  Rec.count("malformed_dropped", "count", Rpc.Malformed + Stream.Malformed,
            Gate::max(0));
  return Rec;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  if (!parseArgs(Argc, Argv, O)) {
    usage(Argv[0]);
    return 2;
  }

  std::fprintf(stderr, "BM_RpcLatency %zu calls, %zuB payload...\n",
               O.RpcCalls, O.PayloadBytes);
  RpcResult Rpc = runRpcLatency(O);
  std::fprintf(stderr, "BM_StreamThroughput %zu calls...\n", O.StreamCalls);
  StreamResult Stream = runStreamThroughput(O);

  BenchRecord Rec = record(O, Rpc, Stream);
  std::fputs(Rec.json().c_str(), stdout);
  if (!O.Out.empty() && !Rec.write(O.Out))
    return 1;
  return 0;
}
