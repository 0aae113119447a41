//===- Harness.cpp - Shared fault-and-audit harness -----------------------===//
//
// Part of the promises project (PLDI 1988 reproduction).
//
//===----------------------------------------------------------------------===//

#include "promises/chaos/Harness.h"

#include "promises/core/Exceptions.h"
#include "promises/support/Check.h"
#include "promises/support/StrUtil.h"

using namespace promises;
using namespace promises::chaos;

uint64_t chaos::mixSeed(uint64_t Seed, uint64_t Salt) {
  uint64_t X = Seed + 0x9e3779b97f4a7c15ull * (Salt + 1);
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

const ChaosProfile &chaos::requireProfile(std::string_view Name) {
  const ChaosProfile *P = ChaosProfile::byName(Name);
  PROMISES_CHECK(P, "unknown chaos profile");
  return *P;
}

net::NetConfig chaos::profileNetConfig(const ChaosProfile &P, uint64_t Seed) {
  net::NetConfig NC;
  NC.LossRate = P.BaseLoss;
  NC.DupRate = P.BaseDup;
  NC.JitterMax = P.BaseJitter;
  NC.Propagation = sim::msec(1);
  NC.Seed = mixSeed(Seed, 0);
  return NC;
}

stream::StreamConfig chaos::faultStreamConfig() {
  stream::StreamConfig C;
  C.MaxBatchCalls = 8;
  C.RetransmitTimeout = sim::msec(6);
  C.RetransmitTimeoutMax = sim::msec(30);
  C.MaxRetries = 3;
  return C;
}

void UnavailableSplit::add(const std::string &Reason) {
  ++Total;
  if (Reason == core::reasons::DeadlineExpired)
    ++Expired;
  else if (Reason == core::reasons::Cancelled)
    ++Cancelled;
  else if (Reason == core::reasons::Overloaded)
    ++Shed;
  else if (Reason == core::reasons::CircuitOpen)
    ++FastFails;
}

Harness::Harness(uint64_t Seed, sim::BackendKind Backend,
                 const net::NetConfig &NC, size_t Servers, size_t Clients)
    : Seed(Seed), S(sim::SimConfig{.Backend = Backend}), Slots(Servers) {
  S.metrics().setEnabled(true);
  Net = std::make_unique<net::SimNetwork>(S, NC);
  for (size_t I = 0; I != Servers; ++I)
    Slots[I].Node = Net->addNode(strprintf("srv%zu", I));
  for (size_t I = 0; I != Clients; ++I)
    ClientNodes.push_back(Net->addNode(strprintf("cli%zu", I)));
}

runtime::Guardian &Harness::addClient(const std::string &Name,
                                      runtime::GuardianConfig GC) {
  size_t C = ClientGuardians.size();
  GC.Stream.RetransSeed = mixSeed(Seed, 1000 + C);
  ClientGuardians.push_back(
      std::make_unique<runtime::Guardian>(*Net, ClientNodes[C], Name, GC));
  return *ClientGuardians.back();
}

runtime::Guardian &Harness::incarnate(size_t Slot,
                                      runtime::GuardianConfig GC) {
  ServerSlot &SS = Slots[Slot];
  uint32_t Gen = ++NextGen;
  GC.Stream.RetransSeed = mixSeed(Seed, 2000 + Gen);
  ServerGuardians.push_back(std::make_unique<runtime::Guardian>(
      *Net, SS.Node, strprintf("srv%zu#%u", Slot, Gen), GC));
  SS.Current = ServerGuardians.back().get();
  SS.TransportDead = false;
  return *SS.Current;
}

void Harness::schedulePlan(const ChaosPlan &Plan) {
  for (const ChaosAction &A : Plan.Actions)
    S.schedule(A.At, [this, A] { applyAction(A); });
}

void Harness::applyAction(const ChaosAction &A) {
  using K = ChaosAction::Kind;
  ServerSlot &SS = Slots[A.Server];
  switch (A.K) {
  case K::CrashNode:
    if (Net->isUp(SS.Node)) {
      Net->crash(SS.Node);
      for (auto &M : SS.Media)
        M->crash(); // Media fault model: un-synced tail at risk.
      ++Faults.Crashes;
    }
    break;
  case K::RestartNode:
    if (!Net->isUp(SS.Node)) {
      Net->restart(SS.Node);
      installServer(A.Server);
      ++Faults.Restarts;
    }
    break;
  case K::TransportShutdown:
    if (Net->isUp(SS.Node) && !SS.TransportDead && !SS.Current->crashed()) {
      SS.Current->transport().shutdown();
      SS.TransportDead = true;
      ++Faults.Shutdowns;
    }
    break;
  case K::ServerReincarnate:
    if (Net->isUp(SS.Node) && SS.TransportDead) {
      installServer(A.Server);
      ++Faults.Reincarnations;
    }
    break;
  case K::PartitionLink:
    Net->setPartitioned(ClientNodes[A.Client], SS.Node, true);
    ++Faults.Partitions;
    break;
  case K::HealLink:
    Net->setPartitioned(ClientNodes[A.Client], SS.Node, false);
    break;
  case K::LossBurstStart:
    ++Faults.LossBursts;
    [[fallthrough]];
  case K::LossBurstEnd:
    Net->setLinkLoss(ClientNodes[A.Client], SS.Node, A.Rate);
    break;
  case K::CorruptBurstStart:
    ++Faults.CorruptBursts;
    [[fallthrough]];
  case K::CorruptBurstEnd:
    Net->setCorruptRate(A.Rate);
    break;
  }
}

void Harness::auditQuiescence(bool ServersCanLoseCalls) {
  // 1. Quiescence: the scheduler drained, so any live process is stuck
  // forever — a missed wakeup on a kill/break path, or a shed call that
  // failed to settle its seq and gated every successor on its stream.
  if (size_t N = S.liveProcessCount())
    violate(strprintf("%zu processes still live at quiescence", N));

  // 2. Network conservation: every datagram is delivered or dropped.
  net::NetCounters NC = Net->counters();
  if (NC.DatagramsSent + NC.DatagramsDuplicated !=
      NC.DatagramsDelivered + NC.DatagramsDropped)
    violate(strprintf("net conservation: %llu sent + %llu dup != %llu "
                      "delivered + %llu dropped",
                      (unsigned long long)NC.DatagramsSent,
                      (unsigned long long)NC.DatagramsDuplicated,
                      (unsigned long long)NC.DatagramsDelivered,
                      (unsigned long long)NC.DatagramsDropped));

  // 3. Per-transport conservation and hygiene, clients and every server
  // incarnation alike.
  auto audit = [&](runtime::Guardian &G, bool CanLoseCalls) {
    const char *Who = G.name().c_str();
    stream::StreamCounters C = G.transport().counters();
    if (CanLoseCalls ? C.CallsFulfilled + C.CallsBroken > C.CallsIssued
                     : C.CallsIssued != C.CallsFulfilled + C.CallsBroken)
      violate(strprintf("%s: %llu issued != %llu fulfilled + %llu broken",
                        Who, (unsigned long long)C.CallsIssued,
                        (unsigned long long)C.CallsFulfilled,
                        (unsigned long long)C.CallsBroken));
    if (size_t N = G.transport().armedTimerCount())
      violate(strprintf("%s: %zu timers still armed", Who, N));
    if (size_t N = G.transport().brokenSenderStreamCount())
      violate(strprintf("%s: %zu broken sender streams not reclaimed", Who,
                        N));
    if (size_t N = G.liveCallProcessCount())
      violate(strprintf("%s: %zu call processes leaked", Who, N));
    if (size_t N = G.gatedCallCount())
      violate(strprintf("%s: %zu gated calls leaked", Who, N));
  };
  for (const auto &G : ClientGuardians)
    audit(*G, false);
  for (const auto &G : ServerGuardians)
    audit(*G, ServersCanLoseCalls);
}

void Harness::auditMedia(uint64_t &StorageCrashes, uint64_t &TornTails) {
  for (const ServerSlot &SS : Slots)
    for (const auto &M : SS.Media) {
      StorageCrashes += M->crashes();
      TornTails += M->tornTails();
    }
  if (TornTails > StorageCrashes)
    violate(strprintf("%llu torn tails > %llu storage crashes",
                      (unsigned long long)TornTails,
                      (unsigned long long)StorageCrashes));
}

void Harness::digestTrace(uint64_t &Events, uint64_t &Hash) const {
  // Each field is hashed as 8 little-endian bytes, Detail one char each.
  Hash = 0xcbf29ce484222325ull;
  auto fnv1a = [&Hash](uint64_t V) {
    for (int I = 0; I != 8; ++I)
      Hash = (Hash ^ ((V >> (I * 8)) & 0xff)) * 0x100000001b3ull;
  };
  const MetricsRegistry &Reg = S.metrics();
  for (const TraceEvent &E : Reg.events()) {
    for (uint64_t V : {E.TsNs, static_cast<uint64_t>(E.Kind),
                       static_cast<uint64_t>(E.Node), E.Id, E.Seq, E.DurNs})
      fnv1a(V);
    for (char C : E.Detail)
      fnv1a(static_cast<unsigned char>(C));
  }
  Events = Reg.events().size() + Reg.droppedEvents();
}
