//===- Network.cpp - Simulated datagram network backend -------------------===//
//
// Part of the promises project (PLDI 1988 reproduction).
//
//===----------------------------------------------------------------------===//

#include "promises/net/Network.h"

#include "promises/support/StrUtil.h"

#include <algorithm>
#include <cassert>

using namespace promises;
using namespace promises::net;
using sim::Time;

Network::~Network() = default;

void Network::registerCells(MetricsRegistry &Reg, CounterCells &C,
                            MetricLabels Labels) {
  C.Sent = &Reg.counter("net.datagrams_sent", Labels);
  C.Delivered = &Reg.counter("net.datagrams_delivered", Labels);
  C.Dropped = &Reg.counter("net.datagrams_dropped", Labels);
  C.Duplicated = &Reg.counter("net.datagrams_duplicated", Labels);
  C.Corrupted = &Reg.counter("net.datagrams_corrupted", Labels);
  C.Bytes = &Reg.counter("net.bytes_sent", std::move(Labels));
}

SimNetwork::SimNetwork(sim::Simulation &S, NetConfig C)
    : Sim(S), Reg(S.metrics()), Cfg(C), Rand(C.Seed) {
  registerCells(Reg, Totals, {});
  StaleDrops = &Reg.counter("net.datagrams_stale_dropped", {});
}

NodeId SimNetwork::addNode(std::string Name) {
  NodeId N = static_cast<NodeId>(Nodes.size());
  Nodes.push_back(Node{});
  Nodes.back().Name = std::move(Name);
  registerCells(Reg, Nodes.back().Counters,
                {{"node", Nodes.back().Name}, {"id", strprintf("%u", N)}});
  return N;
}

SimNetwork::Node &SimNetwork::node(NodeId N) {
  assert(N < Nodes.size() && "unknown node");
  return Nodes[N];
}

const SimNetwork::Node &SimNetwork::node(NodeId N) const {
  assert(N < Nodes.size() && "unknown node");
  return Nodes[N];
}

const std::string &SimNetwork::nodeName(NodeId N) const {
  return node(N).Name;
}

Address SimNetwork::bind(NodeId N, std::function<void(Datagram)> Handler) {
  Node &Nd = node(N);
  assert(Nd.Up && "bind on a crashed node");
  Address A{N, Nd.NextPort++, Nd.Epoch};
  Binds[A] = std::move(Handler);
  return A;
}

void SimNetwork::unbind(Address A) { Binds.erase(A); }

bool SimNetwork::isUp(NodeId N) const { return node(N).Up; }

void SimNetwork::setPartitioned(NodeId A, NodeId B, bool Cut) {
  auto Key = std::minmax(A, B);
  if (Cut)
    Partitions.insert({Key.first, Key.second});
  else
    Partitions.erase({Key.first, Key.second});
}

bool SimNetwork::isPartitioned(NodeId A, NodeId B) const {
  auto Key = std::minmax(A, B);
  return Partitions.count({Key.first, Key.second}) != 0;
}

void SimNetwork::setLinkLoss(NodeId A, NodeId B, double Rate) {
  auto Key = std::minmax(A, B);
  LinkLoss[{Key.first, Key.second}] = Rate;
}

double SimNetwork::lossBetween(NodeId A, NodeId B) const {
  auto Key = std::minmax(A, B);
  auto It = LinkLoss.find({Key.first, Key.second});
  return It != LinkLoss.end() ? It->second : Cfg.LossRate;
}

void SimNetwork::onCrash(NodeId N, std::function<void()> Cb) {
  node(N).CrashObservers.push_back(std::move(Cb));
}

void SimNetwork::crash(NodeId N) {
  Node &Nd = node(N);
  if (!Nd.Up)
    return;
  Nd.Up = false;
  if (Reg.enabled())
    Reg.emit({Sim.now(), EventKind::NodeCrash, N, 0, 0, 0, Nd.Name});
  // Remove every binding on the node; later deliveries count as drops.
  for (auto It = Binds.begin(); It != Binds.end();) {
    if (It->first.Node == N)
      It = Binds.erase(It);
    else
      ++It;
  }
  // Fire observers once, then clear them (restart re-registers).
  std::vector<std::function<void()>> Observers;
  Observers.swap(Nd.CrashObservers);
  for (auto &Cb : Observers)
    Cb();
}

void SimNetwork::restart(NodeId N) {
  Node &Nd = node(N);
  assert(!Nd.Up && "restart of a node that is up");
  Nd.Up = true;
  Nd.TxFreeAt = Sim.now();
  Nd.RxFreeAt = Sim.now();
  // The new incarnation reuses port numbers (a rebooted kernel starts
  // allocating from scratch); the epoch bump keeps addresses from the old
  // incarnation dead — see the stale-epoch check in arrive().
  ++Nd.Epoch;
  Nd.NextPort = 1;
  if (Reg.enabled())
    Reg.emit({Sim.now(), EventKind::NodeRestart, N, 0, 0, 0, Nd.Name});
}

NetCounters SimNetwork::counters() const { return Totals.view(); }

NetCounters SimNetwork::counters(NodeId N) const {
  return node(N).Counters.view();
}

SimNetwork::LinkStats &SimNetwork::linkStats(NodeId From, NodeId To) {
  auto [It, Inserted] = Links.try_emplace({From, To});
  if (Inserted) {
    MetricLabels L{{"link", node(From).Name + "->" + node(To).Name}};
    It->second.Drops = &Reg.counter("net.link_drops", L);
    It->second.LatencyUs = &Reg.histogram("net.link_latency_us", std::move(L));
  }
  return It->second;
}

void SimNetwork::countDrop(NodeId From, NodeId To) {
  Totals.Dropped->inc();
  if (Reg.enabled())
    linkStats(From, To).Drops->inc();
}

uint32_t SimNetwork::nodeEpoch(NodeId N) const { return node(N).Epoch; }

uint64_t SimNetwork::staleEpochDrops() const { return StaleDrops->value(); }

sim::Time SimNetwork::txFreeAt(NodeId N) const { return node(N).TxFreeAt; }

void SimNetwork::send(Address From, Address To, wire::Bytes Payload) {
  Node &Sender = node(From.Node);
  uint64_t WireBytes = Payload.size() + Cfg.HeaderBytes;
  Totals.Sent->inc();
  Totals.Bytes->inc(WireBytes);
  Sender.Counters.Sent->inc();
  Sender.Counters.Bytes->inc(WireBytes);

  if (!Sender.Up) {
    countDrop(From.Node, To.Node);
    return;
  }

  // The transmit path is a serial resource: the datagram occupies it for
  // the kernel-call overhead plus the per-byte cost.
  Time Busy = Cfg.SendKernelOverhead + WireBytes * Cfg.PerByte;
  Time Start = std::max(Sim.now(), Sender.TxFreeAt);
  Sender.TxFreeAt = Start + Busy;

  // Loss and partition at transmission time.
  if (isPartitioned(From.Node, To.Node) ||
      Rand.chance(lossBetween(From.Node, To.Node))) {
    countDrop(From.Node, To.Node);
    return;
  }

  Time Jitter = Cfg.JitterMax != 0 ? Rand.below(Cfg.JitterMax + 1) : 0;
  Time ArriveAt = Sender.TxFreeAt + Cfg.Propagation + Jitter;
  int Copies = Rand.chance(Cfg.DupRate) ? 2 : 1;
  if (Copies == 2) {
    Totals.Duplicated->inc();
    Sender.Counters.Duplicated->inc();
  }
  Time SentAt = Sim.now();
  for (int I = 0; I != Copies; ++I) {
    // The last copy adopts the payload instead of copying it: in the
    // common (no-dup) case the sealed buffer travels from the sender's
    // Encoder to the receiver's decoder with zero payload copies.
    Datagram D{From, To,
               I + 1 == Copies ? std::move(Payload) : wire::Bytes(Payload)};
    // Bounded reordering: an unlucky copy dawdles, letting later sends (or
    // its own twin) overtake it. Bit flips damage the copy in flight; it
    // still arrives and counts as delivered — detecting the damage is the
    // transport's job (wire/Frame.h checksums). Both draws are gated on
    // their rates, so runs with the knobs off consume no RNG state.
    Time Extra = 0;
    if (Rand.chance(Cfg.ReorderRate) && Cfg.ReorderMax != 0)
      Extra = Rand.below(Cfg.ReorderMax + 1);
    if (Rand.chance(Cfg.CorruptRate) && !D.Payload.empty()) {
      uint32_t Bits = 1 + static_cast<uint32_t>(Rand.below(8));
      for (uint32_t B = 0; B != Bits; ++B) {
        uint64_t Pos = Rand.below(D.Payload.size() * 8);
        D.Payload[Pos / 8] ^= static_cast<uint8_t>(1u << (Pos % 8));
      }
      Totals.Corrupted->inc();
      Sender.Counters.Corrupted->inc();
      if (Reg.enabled())
        Reg.emit({Sim.now(), EventKind::DatagramCorrupted, From.Node, From.Port,
                  Bits, 0, ""});
    }
    Sim.schedule(ArriveAt + Extra - Sim.now(),
                 [this, D = std::move(D), SentAt]() mutable {
      arrive(std::move(D), SentAt);
    });
  }
}

void SimNetwork::arrive(Datagram D, Time SentAt) {
  // Conditions are re-checked at arrival so that partitions and crashes
  // that happen while a datagram is in flight still drop it (the source of
  // the paper's *asynchronous* breaks).
  Node &Receiver = node(D.To.Node);
  if (!Receiver.Up || isPartitioned(D.From.Node, D.To.Node)) {
    countDrop(D.From.Node, D.To.Node);
    return;
  }
  uint64_t WireBytes = D.Payload.size() + Cfg.HeaderBytes;
  Time Busy = Cfg.RecvKernelOverhead + WireBytes * Cfg.PerByte;
  Time Start = std::max(Sim.now(), Receiver.RxFreeAt);
  Receiver.RxFreeAt = Start + Busy;
  Sim.schedule(Start + Busy - Sim.now(),
               [this, D = std::move(D), SentAt]() mutable {
    Node &R = node(D.To.Node);
    if (!R.Up) {
      countDrop(D.From.Node, D.To.Node);
      return;
    }
    // A datagram sent before a crash must not land in the post-restart
    // incarnation, even if the new incarnation rebound the same port.
    if (D.To.Epoch != R.Epoch) {
      StaleDrops->inc();
      countDrop(D.From.Node, D.To.Node);
      return;
    }
    auto It = Binds.find(D.To);
    if (It == Binds.end()) {
      countDrop(D.From.Node, D.To.Node);
      return;
    }
    Totals.Delivered->inc();
    R.Counters.Delivered->inc();
    if (Reg.enabled())
      linkStats(D.From.Node, D.To.Node)
          .LatencyUs->observe(static_cast<double>(Sim.now() - SentAt) / 1e3);
    It->second(std::move(D));
  });
}
