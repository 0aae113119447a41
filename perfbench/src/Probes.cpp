//===- Probes.cpp - Offline per-layer probes ------------------------------===//
//
// Part of the promises project (PLDI 1988 reproduction).
//
// Layer costs that no workload span isolates, timed through each layer's
// public API in a quiet world: a ready promise's make/fulfill/claim cycle,
// a yieldNow ping-pong, spawn+join, StableStore append+sync and open on
// bench_recovery-sized records, and an offline replay of datagrams the
// traced pass captured (frame open + decode, framed encode, CRC32C).
// Each figure is the median of Reps repetitions.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Decorators.h"
#include "Trace.h"

#include "promises/core/Promise.h"
#include "promises/sim/Simulation.h"
#include "promises/storage/Storage.h"
#include "promises/stream/Messages.h"
#include "promises/support/StrUtil.h"
#include "promises/wire/Frame.h"

#include <algorithm>

using namespace promises;

namespace perfbench {
namespace {

constexpr size_t Reps = 5;

/// Runs \p Body Reps times and returns the median of its results.
template <typename Fn> double medianOf(Fn Body) {
  std::vector<double> V;
  for (size_t I = 0; I != Reps; ++I)
    V.push_back(Body());
  return median(V);
}

/// Returns -1 when the claimed values do not add up.
double promiseCycleNs() {
  constexpr uint64_t N = 200000;
  sim::Simulation S(sim::SimConfig{.Backend = sim::BackendKind::Fiber});
  double Ns = 0;
  uint64_t Sum = 0;
  S.spawn("promises", [&] {
    uint64_t T0 = nowNs();
    for (uint64_t I = 0; I != N; ++I) {
      auto [P, R] = core::makePromise<uint64_t>(S);
      R.fulfill(core::Outcome<uint64_t>(I));
      Sum += P.claim().value();
    }
    Ns = static_cast<double>(nowNs() - T0) / N;
  });
  S.run();
  return Sum == N * (N - 1) / 2 ? Ns : -1;
}

double switchNs() {
  constexpr uint64_t N = 200000;
  sim::Simulation S(sim::SimConfig{.Backend = sim::BackendKind::Fiber});
  for (int P = 0; P != 2; ++P)
    S.spawn("pingpong", [&] {
      for (uint64_t I = 0; I != N; ++I)
        S.yieldNow();
    });
  uint64_t T0 = nowNs();
  S.run();
  return static_cast<double>(nowNs() - T0) / (2 * N);
}

double spawnReapNs() {
  constexpr uint64_t N = 50000;
  sim::Simulation S(sim::SimConfig{.Backend = sim::BackendKind::Fiber});
  double Ns = 0;
  S.spawn("spawner", [&] {
    uint64_t T0 = nowNs();
    for (uint64_t I = 0; I != N; ++I)
      S.join(S.spawn("child", [] {}));
    Ns = static_cast<double>(nowNs() - T0) / N;
  });
  S.run();
  return Ns;
}

/// bench_recovery's raw append cost: 32-byte records, a force every 64.
double appendSyncNs() {
  constexpr size_t N = 100000;
  sim::Simulation S;
  storage::StorageConfig SC;
  SC.SyncTime = 0;
  storage::StableStore Store(S, SC);
  wire::Bytes Payload(32, 0xab);
  uint64_t T0 = nowNs();
  for (size_t I = 0; I != N; ++I) {
    Store.append(Payload);
    if ((I & 63) == 0)
      Store.sync();
  }
  Store.sync();
  return static_cast<double>(nowNs() - T0) / N;
}

/// bench_recovery's kv redo records; returns records opened per second,
/// or -1 when open() does not give every record back.
double openRecordsPerS() {
  constexpr size_t N = 100000;
  sim::Simulation S;
  storage::StorageConfig SC;
  SC.SyncTime = 0;
  storage::StableStore Store(S, SC);
  for (size_t I = 0; I != N; ++I) {
    wire::Encoder E;
    E.writeString(strprintf("k%zu", I % 4096));
    E.writeString(strprintf("v%zu", I));
    Store.append(E.take());
  }
  Store.sync();
  uint64_t T0 = nowNs();
  storage::StableStore::Recovery Rec = Store.open();
  double Ns = static_cast<double>(nowNs() - T0);
  if (Rec.TornTail || Rec.Records.size() != N)
    return -1;
  return N / (Ns / 1e9);
}

struct WireCosts {
  double OpenPerMsg = 0, OpenPerKiB = 0, SealPerKiB = 0, CrcPerKiB = 0;
};

/// Replays the captured datagrams. Every one must open and decode, and
/// re-encoding the decoded message must give back the same bytes.
WireCosts replayWire(const DatagramSample &Sample, Result &R) {
  std::vector<wire::Bytes> Frames;
  double KiB = 0;
  for (size_t I = 0; I != Sample.size(); ++I) {
    Frames.push_back(Sample.at(I));
    KiB += Frames.back().size() / 1024.0;
  }
  std::vector<stream::Message> Msgs;
  std::vector<wire::Bytes> Payloads;
  for (const wire::Bytes &F : Frames) {
    std::optional<wire::Bytes> P = wire::openFrame(F);
    std::optional<stream::Message> M = P ? stream::decodeMessage(*P)
                                         : std::nullopt;
    if (!M) {
      R.fail("wire replay: a sent datagram does not open and decode");
      return {};
    }
    if (stream::encodeFramedMessage(*M, true) != F)
      R.fail("wire replay: re-encoding a decoded message changed its bytes");
    Payloads.push_back(std::move(*P));
    Msgs.push_back(std::move(*M));
  }
  constexpr int Passes = 20;
  size_t Sink = 0;
  auto Time = [&](auto Each) {
    return medianOf([&] {
      uint64_t T0 = nowNs();
      for (int P = 0; P != Passes; ++P)
        for (size_t I = 0; I != Frames.size(); ++I)
          Sink += Each(I);
      return static_cast<double>(nowNs() - T0) / Passes;
    });
  };
  double Open = Time([&](size_t I) {
    std::optional<wire::Bytes> P = wire::openFrame(Frames[I]);
    return P ? stream::decodeMessage(*P).has_value() : 0;
  });
  double Seal = Time([&](size_t I) {
    return stream::encodeFramedMessage(Msgs[I], true).size();
  });
  double Crc = Time([&](size_t I) { return wire::crc32c(Payloads[I]); });
  if (Sink == 0)
    R.fail("wire replay: nothing replayed");
  WireCosts C;
  C.OpenPerMsg = Open / Frames.size();
  C.OpenPerKiB = Open / KiB;
  C.SealPerKiB = Seal / KiB;
  C.CrcPerKiB = Crc / KiB;
  return C;
}

} // namespace

void runProbes(const DatagramSample *Sample, Result &R) {
  std::vector<double> Cycle, Open;
  for (size_t I = 0; I != Reps; ++I) {
    Cycle.push_back(promiseCycleNs());
    Open.push_back(openRecordsPerS());
  }
  if (*std::min_element(Cycle.begin(), Cycle.end()) < 0)
    R.fail("promise probe: claimed values do not add up");
  if (*std::min_element(Open.begin(), Open.end()) < 0)
    R.fail("storage probe: open() lost records");
  R.set("core.promise_cycle_ns", median(Cycle));
  R.set("sim.switch_ns", medianOf(switchNs));
  R.set("sim.spawn_reap_ns", medianOf(spawnReapNs));
  R.set("storage.append_sync_ns", medianOf(appendSyncNs));
  R.set("storage.open_records_per_s", median(Open));
  if (Sample && Sample->size()) {
    WireCosts C = replayWire(*Sample, R);
    R.set("wire.open_ns_per_msg", C.OpenPerMsg);
    R.set("wire.open_ns_per_kib", C.OpenPerKiB);
    R.set("wire.seal_ns_per_kib", C.SealPerKiB);
    R.set("wire.crc32c_ns_per_kib", C.CrcPerKiB);
  }
}

} // namespace perfbench
