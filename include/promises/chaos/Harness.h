//===- promises/chaos/Harness.h - Shared fault/audit harness ----*- C++ -*-===//
//
// Part of the promises project (PLDI 1988 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The world both fault drivers stand on: chaossim's closed-loop workload
/// (chaos::runChaos) and loadsim's open-loop scenarios (load::runLoad).
///
/// The harness owns the simulation and its network, the server slots with
/// their guardian incarnations and WAL media, the client guardians, the
/// fault-plan applier, the quiescence / conservation / transport-hygiene
/// audits and the trace-hash determinism oracle. A driver adds its traffic,
/// installs its ports on each new incarnation (the installServer hook), and
/// checks its own invariants. Seeds are salted here, so a driver that keeps
/// its creation order keeps its trace hash.
///
/// See docs/FAULTS.md ("One harness, two drivers").
///
//===----------------------------------------------------------------------===//

#ifndef PROMISES_CHAOS_HARNESS_H
#define PROMISES_CHAOS_HARNESS_H

#include "promises/chaos/Chaos.h"
#include "promises/net/Network.h"
#include "promises/runtime/Guardian.h"
#include "promises/storage/Storage.h"

#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace promises::chaos {

/// An independent 64-bit seed for stream \p Salt of run \p Seed
/// (splitmix64 finalizer).
uint64_t mixSeed(uint64_t Seed, uint64_t Salt);

/// The profile named \p Name; a PROMISES_CHECK failure if there is none.
const ChaosProfile &requireProfile(std::string_view Name);

/// The ambient wire of \p P: its base loss, duplication and jitter over a
/// 1 ms link, seeded from \p Seed.
net::NetConfig profileNetConfig(const ChaosProfile &P, uint64_t Seed);

/// Loss recovery tightened so breaks land within a fault outage instead of
/// dominating the run. The harness salts RetransSeed per guardian.
stream::StreamConfig faultStreamConfig();

/// Plan actions that took effect (a crash of a node already down is a
/// no-op and is not counted).
struct FaultTally {
  uint64_t Crashes = 0, Restarts = 0, Shutdowns = 0, Reincarnations = 0;
  uint64_t Partitions = 0, LossBursts = 0, CorruptBursts = 0;
};

/// Final `unavailable` outcomes split by reason. The rest of Total are
/// breaks, crashes and shutdowns.
struct UnavailableSplit {
  uint64_t Total = 0, Expired = 0, Cancelled = 0, Shed = 0, FastFails = 0;

  void add(const std::string &Reason);
};

/// One server identity: a node hosting a succession of guardian
/// incarnations. Every incarnation is kept until the run ends so its
/// transport can be audited at quiescence.
struct ServerSlot {
  net::NodeId Node = 0;
  runtime::Guardian *Current = nullptr;
  bool TransportDead = false; ///< Shutdown injected since last incarnation.
  /// The node's stable stores, in creation order. They outlive every
  /// incarnation, like a disk outlives the processes using it, and a node
  /// crash applies the media-fault model to all of them.
  std::vector<std::unique_ptr<storage::StableStore>> Media;
};

struct Harness {
  /// A recorded simulation (the trace-event stream is the determinism
  /// oracle) on a network built from \p NC, with nodes srv0.. then cli0..
  /// and one slot per server.
  Harness(uint64_t Seed, sim::BackendKind Backend, const net::NetConfig &NC,
          size_t Servers, size_t Clients);
  virtual ~Harness() = default;
  // Scheduled fault actions hold `this`.
  Harness(const Harness &) = delete;
  Harness &operator=(const Harness &) = delete;

  /// The next client's guardian, on the next client node.
  runtime::Guardian &addClient(const std::string &Name,
                               runtime::GuardianConfig GC);
  /// A fresh guardian incarnation srv<Slot>#<Gen> replacing the slot's
  /// current one; the caller installs its ports on it.
  runtime::Guardian &incarnate(size_t Slot, runtime::GuardianConfig GC);

  /// Schedules every action of \p Plan at its time.
  void schedulePlan(const ChaosPlan &Plan);
  void applyAction(const ChaosAction &A);

  void violate(std::string Msg) { Violations.push_back(std::move(Msg)); }
  /// Quiescence, network conservation, and per-transport conservation and
  /// hygiene for every client and every server incarnation. Durable
  /// servers issue status probes that a node crash can kill mid-call,
  /// leaving the call unsettled in the (node, port)-keyed counters its
  /// successors share; \p ServersCanLoseCalls relaxes their conservation
  /// to a bound. Clients always balance exactly.
  void auditQuiescence(bool ServersCanLoseCalls);
  /// Sums the media's crash and torn-tail counts; torn tails can only come
  /// from crashes.
  void auditMedia(uint64_t &StorageCrashes, uint64_t &TornTails);
  /// FNV-1a over the full trace-event stream, in order.
  void digestTrace(uint64_t &Events, uint64_t &Hash) const;

  const uint64_t Seed;
  sim::Simulation S;
  std::unique_ptr<net::SimNetwork> Net;
  std::vector<ServerSlot> Slots;
  std::vector<net::NodeId> ClientNodes;
  std::vector<std::unique_ptr<runtime::Guardian>> ServerGuardians;
  std::vector<std::unique_ptr<runtime::Guardian>> ClientGuardians;
  uint32_t NextGen = 0; ///< Last incarnation number (globally unique).
  FaultTally Faults;
  std::vector<std::string> Violations; ///< In the order they were found.

protected:
  /// Brings up a new incarnation on \p Slot (through incarnate) with the
  /// driver's ports; called for every restart and reincarnation.
  virtual void installServer(size_t Slot) = 0;
};

} // namespace promises::chaos

#endif // PROMISES_CHAOS_HARNESS_H
