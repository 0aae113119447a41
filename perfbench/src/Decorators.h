//===- Decorators.h - Forwarding net/clock wrappers for perfbench -*- C++ -*-===//
//
// Part of the promises project (PLDI 1988 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Forwarding decorators over the public seams the library runs on. The
/// guardians are built on a TracedNetwork, so every datagram they send and
/// every delivery they receive crosses benchmark code; on the UDP backend
/// a TracedClock sits between the simulation and the socket poller.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_DECORATORS_H
#define PERFBENCH_DECORATORS_H

#include "Trace.h"

#include "promises/net/Network.h"
#include "promises/sim/Clock.h"

#include <vector>

namespace perfbench {

/// A bounded copy of sent datagrams for the offline wire replay. The
/// arena is reserved up front, so capturing never allocates.
class DatagramSample {
public:
  DatagramSample(size_t MaxDatagrams, size_t MaxBytes) {
    Arena.reserve(MaxBytes);
    Ends.reserve(MaxDatagrams);
  }

  void capture(const promises::wire::Bytes &B) {
    if (Ends.size() == Ends.capacity() ||
        Arena.size() + B.size() > Arena.capacity())
      return;
    Arena.insert(Arena.end(), B.begin(), B.end());
    Ends.push_back(Arena.size());
  }

  size_t size() const { return Ends.size(); }
  promises::wire::Bytes at(size_t I) const {
    size_t Begin = I ? Ends[I - 1] : 0;
    return promises::wire::Bytes(Arena.begin() + Begin,
                                 Arena.begin() + Ends[I]);
  }

private:
  std::vector<uint8_t> Arena;
  std::vector<size_t> Ends;
};

/// Times Network::send and every bound delivery callback, counts
/// datagrams and bytes, and while tracing copies sent datagrams into the
/// tracer's capture sample.
class TracedNetwork final : public promises::net::Network {
public:
  explicit TracedNetwork(promises::net::Network &Inner) : Inner(Inner) {}

  uint64_t datagramsSent() const { return Datagrams; }
  uint64_t bytesSent() const { return Bytes; }

  promises::sim::Simulation &simulation() override {
    return Inner.simulation();
  }
  promises::net::NodeId addNode(std::string Name) override {
    return Inner.addNode(std::move(Name));
  }
  const std::string &nodeName(promises::net::NodeId N) const override {
    return Inner.nodeName(N);
  }
  promises::net::Address
  bind(promises::net::NodeId N,
       std::function<void(promises::net::Datagram)> Handler) override {
    return Inner.bind(N, [H = std::move(Handler)](promises::net::Datagram D) {
      Span S(Layer::Rx);
      H(std::move(D));
    });
  }
  void unbind(promises::net::Address A) override { Inner.unbind(A); }
  void send(promises::net::Address From, promises::net::Address To,
            promises::wire::Bytes Payload) override {
    ++Datagrams;
    Bytes += Payload.size();
    Tracer &T = Tracer::get();
    if (!T.on()) {
      Inner.send(From, To, std::move(Payload));
      return;
    }
    if (DatagramSample *S = T.capture())
      S->capture(Payload);
    bool Split = T.SplitIssueAtSend && T.top() == Layer::Issue &&
                 T.topOwnedByCurrent();
    {
      Span S(Layer::Send);
      Inner.send(From, To, std::move(Payload));
    }
    if (Split) {
      T.close(Layer::Issue);
      T.open(Layer::Claim);
    }
  }
  void crash(promises::net::NodeId N) override { Inner.crash(N); }
  void restart(promises::net::NodeId N) override { Inner.restart(N); }
  bool isUp(promises::net::NodeId N) const override { return Inner.isUp(N); }
  uint32_t nodeEpoch(promises::net::NodeId N) const override {
    return Inner.nodeEpoch(N);
  }
  void onCrash(promises::net::NodeId N, std::function<void()> Cb) override {
    Inner.onCrash(N, std::move(Cb));
  }
  promises::net::NetCounters counters() const override {
    return Inner.counters();
  }
  promises::net::NetCounters
  counters(promises::net::NodeId N) const override {
    return Inner.counters(N);
  }

private:
  promises::net::Network &Inner;
  uint64_t Datagrams = 0, Bytes = 0;
};

/// Times the real-time loop's sleeps. Installs itself in place of the
/// backend's clock and puts the backend back on destruction.
class TracedClock final : public promises::sim::ClockDriver {
public:
  TracedClock(promises::sim::Simulation &S, promises::sim::ClockDriver &Inner)
      : Sim(S), Inner(Inner) {
    Sim.setClockDriver(this);
  }
  ~TracedClock() override { Sim.setClockDriver(&Inner); }
  TracedClock(const TracedClock &) = delete;
  TracedClock &operator=(const TracedClock &) = delete;

  promises::sim::Time now() override { return Inner.now(); }
  void waitFor(promises::sim::Time Timeout) override {
    Span S(Layer::Wait);
    Inner.waitFor(Timeout);
  }

private:
  promises::sim::Simulation &Sim;
  promises::sim::ClockDriver &Inner;
};

} // namespace perfbench

#endif // PERFBENCH_DECORATORS_H
