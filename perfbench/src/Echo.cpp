//===- Echo.cpp - The echo-sim and echo-udp workloads ---------------------===//
//
// Part of the promises project (PLDI 1988 reproduction).
//
// Two guardians, a benchmark-owned echo handler, two closed-loop phases:
//
//  (a) sequential 32-byte RPCs through RemoteHandler::call — fixed
//      per-call costs: promise, spawn/dispatch, fiber switch, event heap,
//      small-message codec. No batching, little per-byte work.
//  (b) a pipeline of streamCalls with 64 outstanding, arguments 80% 32 B,
//      15% 1 KiB and 5% 4 KiB — batching and per-byte work.
//
// echo-sim runs on SimNetwork (virtual time, no kernel); echo-udp runs the
// same phases over UdpNetwork on loopback with the default GuardianConfig,
// so the 10 us EncodeCpu sleep is a real wait there.
//
// A run is Rounds rounds; each builds a fresh world (timed: set-up), then
// runs a slice of phase (a) and a slice of phase (b), so set-up and both
// phases sample the same stretches of machine time. Each slice starts on
// the quietest CPU and is cut into windows: RpcWindowCalls RPCs, or one
// pass over the size mix. On a shared host, co-tenants on the same
// physical core slow this code by up to ~1.45x, in stretches from tens of
// milliseconds to minutes. Timings are taken over the run's quiet windows
// (quietLimit), so they measure the program rather than how busy the host
// was.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Decorators.h"
#include "Trace.h"

#include "promises/net/UdpNetwork.h"
#include "promises/runtime/RemoteHandler.h"
#include "promises/support/Rng.h"
#include "promises/wire/Frame.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <memory>

using namespace promises;

namespace perfbench {
namespace {

using EchoSig = std::string(std::string);
using EchoHandler = runtime::RemoteHandler<EchoSig>;
using EchoPromise = EchoHandler::PromiseT;
using EchoOutcome = EchoHandler::OutcomeT;

constexpr size_t Outstanding = 64;  ///< Phase (b) calls outstanding.
constexpr size_t Rounds = 60;       ///< Worlds, and slices of each phase,
                                    ///< per run.
constexpr uint64_t WarmRpc = 500;   ///< Warm-up calls per world.
constexpr uint64_t WarmStream = 2000;
/// A phase (a) window: enough calls for a p99, 4 ms on echo-sim. A phase
/// (b) window is one pass over the size mix, so every window carries the
/// same bytes.
constexpr uint64_t RpcWindowCalls = 1000;
/// op_p99_us is this quantile of the quiet windows' p99s. Stalls from the
/// host (an idle vCPU waiting to be woken) reach far into many windows'
/// tails on UDP; the median of those p99s moved 1.6x between runs of the
/// same code, this quantile 1.2x. Stalls in every window still count.
constexpr double TailWindowQuantile = 0.10;
constexpr size_t MaxSpanRecords = 20000;
/// Phase (a) stops early past this many calls in a pass (32 MiB).
constexpr size_t MaxRpcCalls = 8 << 20;
/// Calls between the 48th and 52nd latency percentile make up the typical
/// call whose layer self times must add up to the traced p50.
constexpr double BandLo = 48, BandHi = 52;
constexpr double AttributionTolerance = 0.05;

/// Seeded inputs; the program only ever sees these bytes.
struct Inputs {
  std::vector<std::string> Rpc;    ///< 32-byte arguments.
  std::vector<std::string> Stream; ///< The size mix.
};

std::string randomBytes(Rng &G, size_t N) {
  std::string S(N, '\0');
  for (char &C : S)
    C = static_cast<char>(G.next() & 0xff);
  return S;
}

Inputs makeInputs(uint64_t Seed) {
  Rng G(Seed ^ 0x6563686f62656e63ull);
  Inputs In;
  for (size_t I = 0; I != 1024; ++I)
    In.Rpc.push_back(randomBytes(G, 32));
  // The mix is exact (80% 32 B, 15% 1 KiB, 5% 4 KiB of 4000 arguments);
  // the seed picks the bytes and the order.
  for (auto [Count, Size] : {std::pair<size_t, size_t>{3200, 32},
                             {600, 1024},
                             {200, 4096}})
    for (size_t I = 0; I != Count; ++I)
      In.Stream.push_back(randomBytes(G, Size));
  for (size_t I = In.Stream.size() - 1; I > 0; --I)
    std::swap(In.Stream[I], In.Stream[G.below(I + 1)]);
  return In;
}

struct EchoWorld {
  sim::Simulation Sim{sim::SimConfig{.Backend = sim::BackendKind::Fiber}};
  std::unique_ptr<net::SimNetwork> SimNet;
  std::unique_ptr<net::UdpNetwork> Udp;
  std::unique_ptr<TracedNetwork> Net;
  std::unique_ptr<TracedClock> Clock;
  std::unique_ptr<runtime::Guardian> Server, Client;
  runtime::HandlerRef<EchoSig> Echo;
  Counter *Switches = nullptr;

  explicit EchoWorld(bool UseUdp) {
    if (UseUdp) {
      Udp = std::make_unique<net::UdpNetwork>(Sim);
      Net = std::make_unique<TracedNetwork>(*Udp);
      Clock = std::make_unique<TracedClock>(Sim, *Udp);
    } else {
      SimNet = std::make_unique<net::SimNetwork>(Sim);
      Net = std::make_unique<TracedNetwork>(*SimNet);
    }
    Server = std::make_unique<runtime::Guardian>(*Net, Net->addNode("server"),
                                                 "server");
    Client = std::make_unique<runtime::Guardian>(*Net, Net->addNode("client"),
                                                 "client");
    Echo = Server->addHandler<EchoSig>(
        "echo", [](std::string S) -> core::Outcome<std::string> {
          Span E(Layer::Exec);
          return core::Outcome<std::string>(std::move(S));
        });
    Switches = &Sim.metrics().counter("sim.context_switches");
  }

  /// Runs \p Body in a fresh client process until the world is quiet.
  void drive(std::function<void()> Body) {
    Client->spawnProcess("client", std::move(Body));
    Sim.run();
  }
};

/// Cumulative readings; slices report differences.
struct Snap {
  uint64_t Ns = 0, Allocs = 0, Switches = 0, Spawns = 0, Executed = 0;
  uint64_t Datagrams = 0, Bytes = 0, CallBatches = 0, AckBatches = 0;
  uint64_t Retrans = 0, Copied = 0;
  double Cpu = 0;
  LayerTotals Tr;

  /// Adds \p E - \p B, field by field.
  void addDelta(const Snap &B, const Snap &E) {
    Ns += E.Ns - B.Ns;
    Allocs += E.Allocs - B.Allocs;
    Switches += E.Switches - B.Switches;
    Spawns += E.Spawns - B.Spawns;
    Executed += E.Executed - B.Executed;
    Datagrams += E.Datagrams - B.Datagrams;
    Bytes += E.Bytes - B.Bytes;
    CallBatches += E.CallBatches - B.CallBatches;
    AckBatches += E.AckBatches - B.AckBatches;
    Retrans += E.Retrans - B.Retrans;
    Copied += E.Copied - B.Copied;
    Cpu += E.Cpu - B.Cpu;
    for (size_t L = 0; L != NumLayers; ++L) {
      Tr.SelfNs[L] += E.Tr.SelfNs[L] - B.Tr.SelfNs[L];
      Tr.DurNs[L] += E.Tr.DurNs[L] - B.Tr.DurNs[L];
      Tr.Spans[L] += E.Tr.Spans[L] - B.Tr.Spans[L];
      Tr.Allocs[L] += E.Tr.Allocs[L] - B.Tr.Allocs[L];
    }
  }
};

Snap snap(EchoWorld &W) {
  Snap S;
  S.Allocs = allocCount();
  S.Cpu = cpuNs();
  S.Switches = W.Switches->value();
  S.Spawns = W.Sim.processesSpawned();
  S.Executed = W.Server->callsExecuted();
  S.Datagrams = W.Net->datagramsSent();
  S.Bytes = W.Net->bytesSent();
  stream::StreamCounters C = W.Client->transport().counters();
  stream::StreamCounters Sv = W.Server->transport().counters();
  S.CallBatches = C.CallBatchesSent;
  S.AckBatches = C.AckBatchesSent + Sv.AckBatchesSent;
  S.Retrans = C.Retransmissions + Sv.Retransmissions;
  S.Copied = wire::frameStats().PayloadBytesCopied;
  S.Tr = Tracer::get().totals();
  S.Ns = nowNs();
  return S;
}

/// Per-call layer self times of one traced RPC (ns).
struct CallRec {
  double Lat = 0;
  std::array<uint32_t, 5> Self{}; ///< Issue, Send, Rx, Exec, Wait.
};
constexpr std::array<Layer, 5> CallLayers = {
    Layer::Issue, Layer::Send, Layer::Rx, Layer::Exec, Layer::Wait};

/// RpcWindowCalls of phase (a) or one pass over the size mix of phase
/// (b); the last window of a slice also takes the slice's remainder.
struct Window {
  uint64_t Begin = 0, End = 0; ///< Phase (a): the calls' indices in Lat.
  uint64_t Calls = 0, Ns = 0;
  double CpuNs = 0;            ///< Phase (b) only.
  double Cost = 0;             ///< ns per call: the p50 latency in phase
                               ///< (a), CpuNs / Calls in phase (b).
  double P99 = 0;              ///< Phase (a) only.
};

/// One phase of one pass (the untraced or the traced slices).
struct Phase {
  uint64_t Calls = 0;
  Snap Total; ///< Sum of the slices' differences.
  std::vector<Window> Wins;
  std::vector<CallRec> Recs; ///< Phase (a), traced only.
};

/// Ends the window \p W of a slice whose first window is \p SliceFirst.
/// The slice's remainder (\p Tail) joins its previous window.
void closeWindow(Phase &P, size_t SliceFirst, Window W, bool Tail) {
  if (W.Calls == 0)
    return;
  if (Tail && P.Wins.size() > SliceFirst) {
    Window &Prev = P.Wins.back();
    Prev.End = W.End;
    Prev.Calls += W.Calls;
    Prev.Ns += W.Ns;
    Prev.CpuNs += W.CpuNs;
  } else {
    P.Wins.push_back(W);
  }
}

double perCall(uint64_t X, uint64_t Calls) {
  return Calls ? static_cast<double>(X) / static_cast<double>(Calls) : 0;
}

/// Nearest-rank percentile of the sorted range [First, Last).
double rank(const uint32_t *First, const uint32_t *Last, double Pct) {
  size_t N = Last - First;
  size_t K = static_cast<size_t>(std::ceil(Pct / 100 * N));
  return First[std::clamp<size_t>(K, 1, N) - 1];
}

/// Closes a slice that began at \p B with \p Calls calls.
void endSlice(EchoWorld &W, Phase &P, const Snap &B, uint64_t Calls) {
  P.Total.addDelta(B, snap(W));
  P.Calls += Calls;
}

void checkReply(const EchoOutcome &Out, const std::string &Arg, Result &R) {
  if (!Out.isNormal())
    R.fail("echo call ended exceptionally");
  else if (Out.value() != Arg)
    R.fail("echo reply differs from its argument");
}

/// One slice of phase (a): sequential RPCs for \p SliceNs, or \p MaxCalls
/// of them when SliceNs is 0. Latencies are appended to \p Lat, whose
/// size caps the phase.
void rpcSlice(EchoWorld &W, const Inputs &In, uint64_t SliceNs,
              uint64_t MaxCalls, std::vector<uint32_t> &Lat, bool Traced,
              Phase &P, Result &R) {
  W.drive([&] {
    EchoHandler Echo = runtime::bindHandler(*W.Client, W.Client->newAgent(),
                                            W.Echo);
    Tracer &T = Tracer::get();
    T.SplitIssueAtSend = Traced;
    uint32_t *First = Lat.data() + P.Calls, *Last = First;
    MaxCalls = std::min<uint64_t>(MaxCalls, Lat.size() - P.Calls);
    size_t SliceFirst = P.Wins.size();
    Window Win;
    Win.Begin = P.Calls;
    Snap B = snap(W);
    uint64_t Deadline = SliceNs ? B.Ns + SliceNs : UINT64_MAX;
    uint64_t T0 = nowNs(), WinT0 = T0;
    auto Close = [&](bool Tail) {
      Win.End = P.Calls + (Last - First);
      Win.Calls = Win.End - Win.Begin;
      Win.Ns = T0 - WinT0;
      closeWindow(P, SliceFirst, Win, Tail);
      Win = Window();
      Win.Begin = P.Calls + (Last - First);
      WinT0 = T0;
    };
    while (static_cast<uint64_t>(Last - First) != MaxCalls && T0 < Deadline) {
      const std::string &Arg =
          In.Rpc[(P.Calls + (Last - First)) % In.Rpc.size()];
      uint64_t T1;
      if (!Traced) {
        EchoOutcome Out = Echo.call(Arg);
        T1 = nowNs();
        checkReply(Out, Arg, R);
      } else {
        std::array<uint64_t, NumLayers> Before = T.totals().SelfNs;
        T.open(Layer::Issue);
        EchoOutcome Out = Echo.call(Arg);
        T.close(T.top()); // Claim once the request left, else still Issue.
        T1 = nowNs();
        CallRec Rec;
        Rec.Lat = static_cast<double>(T1 - T0);
        for (size_t L = 0; L != CallLayers.size(); ++L) {
          size_t Ix = static_cast<size_t>(CallLayers[L]);
          Rec.Self[L] =
              static_cast<uint32_t>(T.totals().SelfNs[Ix] - Before[Ix]);
        }
        P.Recs.push_back(Rec);
        checkReply(Out, Arg, R);
      }
      *Last++ = static_cast<uint32_t>(T1 - T0);
      T0 = T1;
      if (P.Calls + (Last - First) - Win.Begin == RpcWindowCalls)
        Close(false);
    }
    Close(true);
    endSlice(W, P, B, Last - First);
    T.SplitIssueAtSend = false;
    static std::vector<uint32_t> Tmp;
    for (size_t I = SliceFirst; I != P.Wins.size(); ++I) {
      Window &Wn = P.Wins[I];
      Tmp.assign(Lat.begin() + Wn.Begin, Lat.begin() + Wn.End);
      std::sort(Tmp.begin(), Tmp.end());
      Wn.Cost = rank(Tmp.data(), Tmp.data() + Tmp.size(), 50);
      Wn.P99 = rank(Tmp.data(), Tmp.data() + Tmp.size(), 99);
    }
  });
}

/// One slice of phase (b): keeps Outstanding calls in flight, claiming the
/// oldest before issuing the next. Batches leave when full or on the
/// transport's flush timer; the loop never flushes, so batching is the
/// transport's own.
void streamSlice(EchoWorld &W, const Inputs &In, uint64_t SliceNs,
                 uint64_t MaxCalls, Phase &P, Result &R) {
  W.drive([&] {
    EchoHandler Echo = runtime::bindHandler(*W.Client, W.Client->newAgent(),
                                            W.Echo);
    struct Slot {
      EchoPromise P;
      size_t Arg = 0;
    };
    std::array<Slot, Outstanding> Ring;
    size_t Head = 0, InFlight = 0;
    uint64_t Done = 0;
    auto ClaimOldest = [&] {
      Slot &S = Ring[Head];
      {
        Span C(Layer::Claim);
        checkReply(S.P.claim(), In.Stream[S.Arg], R);
      }
      S.P = EchoPromise();
      Head = (Head + 1) % Outstanding;
      --InFlight;
      ++Done;
    };
    size_t SliceFirst = P.Wins.size();
    Snap B = snap(W);
    uint64_t Deadline = SliceNs ? B.Ns + SliceNs : UINT64_MAX;
    uint64_t WinT0 = B.Ns, WinDone = 0;
    double WinCpu = B.Cpu;
    auto Close = [&](uint64_t Now, bool Tail) {
      double Cpu = cpuNs();
      Window Win;
      Win.Calls = Done - WinDone;
      Win.Ns = Now - WinT0;
      Win.CpuNs = Cpu - WinCpu;
      closeWindow(P, SliceFirst, Win, Tail);
      WinT0 = Now;
      WinDone = Done;
      WinCpu = Cpu;
    };
    for (uint64_t I = 0, Now = B.Ns; I != MaxCalls && Now < Deadline;
         ++I, Now = nowNs()) {
      if (Done - WinDone == In.Stream.size())
        Close(Now, false);
      if (InFlight == Outstanding)
        ClaimOldest();
      Slot &S = Ring[(Head + InFlight) % Outstanding];
      S.Arg = (P.Calls + I) % In.Stream.size();
      {
        Span Is(Layer::Issue);
        S.P = Echo.streamCall(In.Stream[S.Arg]);
      }
      ++InFlight;
    }
    while (InFlight)
      ClaimOldest();
    Close(nowNs(), true);
    endSlice(W, P, B, Done);
    for (size_t I = SliceFirst; I != P.Wins.size(); ++I)
      P.Wins[I].Cost = P.Wins[I].CpuNs / P.Wins[I].Calls;
  });
}

/// Zero tolerance for damaged or unattributable datagrams: nothing on
/// this path injects faults. Checked on every world before it is dropped.
void checkIntegrity(EchoWorld &W, Result &R) {
  for (runtime::Guardian *G : {W.Server.get(), W.Client.get()}) {
    stream::StreamCounters C = G->transport().counters();
    if (C.MalformedDropped)
      R.fail(G->name() + ": malformed frames dropped");
    if (C.FramesCorruptDropped)
      R.fail(G->name() + ": corrupt frames dropped");
  }
  if (W.Udp && W.Udp->unknownSourceDrops())
    R.fail("udp: datagrams from unknown sources dropped");
}

/// The end-to-end figures of one pass.
struct PassMetrics {
  double P50 = 0, P99 = 0; ///< ns, over the quiet windows' p50s and p99s.
  /// Over all of phase (a): p50 and the highest percentile with ten
  /// samples beyond it (ns).
  double AllP50 = 0, TopLevel = 0, Top = 0;
  double GoodputPerS = 0, OpAllocs = 0;
  double CallsPerS = 0, CallAllocs = 0, CpuUsPerCall = 0;
  size_t QuietA = 0, QuietB = 0; ///< Quiet windows of each phase.
  uint64_t QuietCallsA = 0, QuietCallsB = 0;
};

double windowLimit(const std::vector<Window> &Wins) {
  std::vector<double> Costs;
  for (const Window &W : Wins)
    Costs.push_back(W.Cost);
  return quietLimit(std::move(Costs));
}

PassMetrics passMetrics(const Phase &A, const Phase &B,
                        std::vector<uint32_t> &Lat) {
  PassMetrics M;
  double Limit = windowLimit(A.Wins);
  std::vector<double> P50, P99;
  uint64_t QuietNs = 0;
  for (const Window &W : A.Wins) {
    if (W.Cost > Limit)
      continue;
    P50.push_back(W.Cost);
    P99.push_back(W.P99);
    M.QuietCallsA += W.Calls;
    QuietNs += W.Ns;
  }
  M.QuietA = P50.size();
  M.P50 = median(P50);
  if (!P99.empty()) {
    auto K = P99.begin() +
             static_cast<ptrdiff_t>(TailWindowQuantile * (P99.size() - 1));
    std::nth_element(P99.begin(), K, P99.end());
    M.P99 = *K;
  }
  if (QuietNs)
    M.GoodputPerS = M.QuietCallsA / (QuietNs / 1e9);
  uint32_t *First = Lat.data(), *Last = Lat.data() + A.Calls;
  std::sort(First, Last);
  size_t Top = A.Calls > 10 ? A.Calls - 11 : 0; // Ten samples lie above.
  M.AllP50 = rank(First, Last, 50);
  M.TopLevel = 100.0 * (Top + 1) / A.Calls;
  M.Top = First[Top];
  M.OpAllocs = perCall(A.Total.Allocs, A.Calls);

  Limit = windowLimit(B.Wins);
  uint64_t Ns = 0;
  double Cpu = 0;
  for (const Window &W : B.Wins) {
    if (W.Cost > Limit)
      continue;
    ++M.QuietB;
    M.QuietCallsB += W.Calls;
    Ns += W.Ns;
    Cpu += W.CpuNs;
  }
  if (M.QuietCallsB) {
    M.CallsPerS = M.QuietCallsB / (Ns / 1e9);
    M.CpuUsPerCall = Cpu / 1e3 / M.QuietCallsB;
  }
  M.CallAllocs = perCall(B.Total.Allocs, B.Calls);
  return M;
}

/// Counts and per-layer tallies common to both phases; \p Sfx is "" for
/// phase (a) and ".stream" for phase (b).
void setPhaseLayers(const Phase &P, const std::string &Sfx, Result &R) {
  const Snap &D = P.Total;
  uint64_t N = P.Calls;
  auto At = [](const auto &A, Layer L) { return A[static_cast<size_t>(L)]; };
  R.set("sim.switches_per_call" + Sfx, perCall(D.Switches, N));
  R.set("sim.spawns_per_call" + Sfx, perCall(D.Spawns, N));
  R.set("runtime.calls_executed_per_call" + Sfx, perCall(D.Executed, N));
  R.set("runtime.claim_wait_ns" + Sfx,
        perCall(At(D.Tr.DurNs, Layer::Claim), N));
  R.set("net.send_ns" + Sfx,
        perCall(At(D.Tr.SelfNs, Layer::Send), At(D.Tr.Spans, Layer::Send)));
  R.set("net.datagrams_per_call" + Sfx, perCall(D.Datagrams, N));
  R.set("net.bytes_per_call" + Sfx, perCall(D.Bytes, N));
  R.set("stream.rx_ns" + Sfx,
        perCall(At(D.Tr.SelfNs, Layer::Rx), At(D.Tr.Spans, Layer::Rx)));
  R.set("stream.calls_per_batch" + Sfx, perCall(N, D.CallBatches));
  R.set("stream.retransmits_per_call" + Sfx, perCall(D.Retrans, N));
  R.set("stream.acks_per_call" + Sfx, perCall(D.AckBatches, N));
  R.set("wire.bytes_copied_per_call" + Sfx, perCall(D.Copied, N));
  const std::pair<const char *, Layer> AllocLayers[] = {
      {"issue", Layer::Issue}, {"claim", Layer::Claim}, {"send", Layer::Send},
      {"rx", Layer::Rx},       {"exec", Layer::Exec},   {"sched", Layer::Sched}};
  for (auto [Name, L] : AllocLayers)
    R.set(std::string("alloc.") + Name + "_per_call" + Sfx,
          perCall(At(D.Tr.Allocs, L), N));
}

/// Phase (a): the typical call's layer self times, which must add up to
/// the traced p50. \p Sorted holds the phase's latencies in order.
void setRpcAttribution(const Phase &A, const std::vector<uint32_t> &Sorted,
                       double P50, const char *Name, Result &R) {
  double Lo = Sorted[static_cast<size_t>(A.Calls * BandLo / 100)];
  double Hi = Sorted[static_cast<size_t>(A.Calls * BandHi / 100)];
  std::array<double, 5> Sum{};
  double LatSum = 0;
  size_t N = 0;
  for (const CallRec &C : A.Recs) {
    if (C.Lat < Lo || C.Lat > Hi)
      continue;
    for (size_t L = 0; L != Sum.size(); ++L)
      Sum[L] += C.Self[L];
    LatSum += C.Lat;
    ++N;
  }
  std::array<double, 5> Mean{};
  double Layers = 0;
  for (size_t L = 0; L != Sum.size(); ++L)
    Layers += (Mean[L] = Sum[L] / N);
  // Whatever no span covers: the scheduler, and the runtime glue between
  // spans (the call process's dispatch, the caller blocked in claim).
  double Sched = LatSum / N - Layers;
  double Unattributed = P50 - Layers - Sched;
  R.set("runtime.issue_ns", Mean[0]);
  R.set("net.send_ns_per_call", Mean[1]);
  R.set("stream.rx_ns_per_call", Mean[2]);
  R.set("runtime.exec_ns", Mean[3]);
  R.set("net.wait_ns_per_call", Mean[4]);
  R.set("sim.sched_self_ns_per_call", Sched);
  R.set("attrib.unattributed_ns_per_call", Unattributed);
  R.set("attrib.rpc_p50_traced_ns", P50);
  std::printf("%s attribution of the traced rpc p50 %.0f ns (%zu calls "
              "in p%.0f-p%.0f): issue %.0f + send %.0f + rx %.0f + exec "
              "%.0f + wait %.0f + sched %.0f + unattributed %.0f\n",
              Name, P50, N, BandLo, BandHi, Mean[0], Mean[1], Mean[2],
              Mean[3], Mean[4], Sched, Unattributed);
  if (std::abs(Unattributed) > AttributionTolerance * P50)
    R.fail("rpc attribution: layers leave " +
           std::to_string(static_cast<long long>(Unattributed)) +
           " ns of the traced p50 unexplained");
}

/// Phase (b): per-call self times over the whole phase.
void setStreamSelfTimes(const Phase &B, Result &R) {
  const LayerTotals &Tr = B.Total.Tr;
  auto Self = [&](Layer L) { return Tr.SelfNs[static_cast<size_t>(L)]; };
  uint64_t N = B.Calls;
  uint64_t Timed = 0;
  for (Layer L : CallLayers)
    Timed += Self(L);
  R.set("runtime.issue_ns.stream", perCall(Self(Layer::Issue), N));
  R.set("net.send_ns_per_call.stream", perCall(Self(Layer::Send), N));
  R.set("stream.rx_ns_per_call.stream", perCall(Self(Layer::Rx), N));
  R.set("runtime.exec_ns.stream", perCall(Self(Layer::Exec), N));
  R.set("net.wait_ns_per_call.stream", perCall(Self(Layer::Wait), N));
  R.set("sim.sched_self_ns_per_call.stream", perCall(B.Total.Ns - Timed, N));
}

void printPass(const char *Workload, const char *Pass, const Phase &A,
               const Phase &B, const PassMetrics &M) {
  std::printf("%s %s rpc: %zu of %zu windows quiet (%llu calls), median "
              "window p50 %.3f us, p10 window p99 %.3f us; all %llu calls: "
              "p50 %.3f us, p%.6g %.3f us (10 beyond)\n",
              Workload, Pass, M.QuietA, A.Wins.size(),
              (unsigned long long)M.QuietCallsA, M.P50 / 1e3, M.P99 / 1e3,
              (unsigned long long)A.Calls, M.AllP50 / 1e3, M.TopLevel,
              M.Top / 1e3);
  std::printf("%s %s stream: %zu of %zu windows quiet; their %llu calls: "
              "%.0f calls/s, %.3f us cpu/call; all %llu calls: %.2f "
              "allocs/call\n",
              Workload, Pass, M.QuietB, B.Wins.size(),
              (unsigned long long)M.QuietCallsB, M.CallsPerS,
              M.CpuUsPerCall, (unsigned long long)B.Calls, M.CallAllocs);
}

} // namespace

void runEcho(const Options &O, bool Udp, Result &R) {
  const char *Name = Udp ? "echo-udp" : "echo-sim";
  Inputs In = makeInputs(O.Seed);
  // Touched up front so the benchmark's own buffer weighs the same in
  // peak_rss_mb however many calls a run completes.
  std::vector<uint32_t> Lat(MaxRpcCalls, 1), TracedLat, WarmLat(WarmRpc);
  std::unique_ptr<DatagramSample> Sample;
  Tracer &T = Tracer::get();
  if (O.Trace) {
    TracedLat.assign(MaxRpcCalls, 1);
    Sample = std::make_unique<DatagramSample>(4096, 8 << 20);
    T.setCapture(Sample.get());
    T.start(MaxSpanRecords);
    T.pause(true);
  }

  // A traced run follows each round's untraced slices with traced ones, so
  // the overhead ratios compare the same stretches of machine time.
  double Slices = 2.0 * Rounds * (O.Trace ? 2 : 1);
  auto SliceNs = static_cast<uint64_t>(O.Seconds / Slices * 1e9);
  std::unique_ptr<EchoWorld> W;
  std::vector<double> SetupS;
  Phase A, B, TA, TB;
  // Reserved, so no slice allocates on the benchmark's behalf.
  auto MaxWins = MaxRpcCalls / RpcWindowCalls + 4 * Rounds;
  for (Phase *P : {&A, &B, &TA, &TB})
    P->Wins.reserve(MaxWins);
  for (size_t I = 0; I != Rounds; ++I) {
    if (W)
      checkIntegrity(*W, R);
    W.reset();
    moveToQuietestCpu();
    uint64_t T0 = nowNs();
    W = std::make_unique<EchoWorld>(Udp);
    uint64_t BuildNs = nowNs() - T0;
    Phase WarmA, WarmB;
    rpcSlice(*W, In, 0, WarmRpc, WarmLat, false, WarmA, R);
    streamSlice(*W, In, 0, WarmStream, WarmB, R);
    // Building plus the warm-up calls. Left out: the wait, after each
    // warm-up loop, until the world is quiet; on UDP that is real time up
    // to the next firing of the 20 ms retransmit timer, so it would make
    // set-up jump by whole timer periods.
    SetupS.push_back((BuildNs + WarmA.Total.Ns + WarmB.Total.Ns) / 1e9);
    moveToQuietestCpu();
    rpcSlice(*W, In, SliceNs, UINT64_MAX, Lat, false, A, R);
    moveToQuietestCpu();
    streamSlice(*W, In, SliceNs, UINT64_MAX, B, R);
    if (O.Trace) {
      T.pause(false);
      moveToQuietestCpu();
      rpcSlice(*W, In, SliceNs, UINT64_MAX, TracedLat, true, TA, R);
      moveToQuietestCpu();
      streamSlice(*W, In, SliceNs, UINT64_MAX, TB, R);
      T.pause(true);
    }
  }
  checkIntegrity(*W, R);
  R.Attempted += A.Calls + B.Calls + TA.Calls + TB.Calls;

  PassMetrics M = passMetrics(A, B, Lat);
  printPass(Name, "untraced", A, B, M);
  R.set("setup_s", median(SetupS));
  R.set("op_p50_us", M.P50 / 1e3);
  R.set("op_p99_us", M.P99 / 1e3);
  R.set("goodput_per_s", M.GoodputPerS);
  R.set("op_allocs_per_op", M.OpAllocs);
  R.set("calls_per_s", M.CallsPerS);
  R.set("call_allocs_per_call", M.CallAllocs);
  R.set("cpu_us_per_call", M.CpuUsPerCall);
  R.set("ok_share", static_cast<double>(R.Attempted - R.Failed) /
                        static_cast<double>(R.Attempted));
  R.set("fail_share", static_cast<double>(R.Failed) /
                          static_cast<double>(R.Attempted));
  R.set("op_top_level", M.TopLevel);
  R.set("op_top_us", M.Top / 1e3);
  if (!O.Trace)
    return;

  T.stop();
  T.setCapture(nullptr);
  PassMetrics TM = passMetrics(TA, TB, TracedLat);
  printPass(Name, "traced", TA, TB, TM);
  setPhaseLayers(TA, "", R);
  setPhaseLayers(TB, ".stream", R);
  setRpcAttribution(TA, TracedLat, TM.AllP50, Name, R);
  setStreamSelfTimes(TB, R);
  R.set("trace.overhead.op_p50_us", TM.P50 / M.P50);
  R.set("trace.overhead.op_p99_us", TM.P99 / M.P99);
  R.set("trace.overhead.goodput_per_s", TM.GoodputPerS / M.GoodputPerS);
  R.set("trace.overhead.calls_per_s", TM.CallsPerS / M.CallsPerS);
  R.set("trace.overhead.cpu_us_per_call", TM.CpuUsPerCall / M.CpuUsPerCall);
  if (!O.TraceOut.empty() && !T.writeChromeTrace(O.TraceOut))
    std::fprintf(stderr, "perfbench: cannot write %s\n", O.TraceOut.c_str());
  runProbes(Sample.get(), R);
}

} // namespace perfbench
