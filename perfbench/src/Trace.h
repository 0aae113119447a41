//===- Trace.h - Spans and allocation accounting for perfbench --*- C++ -*-===//
//
// Part of the promises project (PLDI 1988 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's own tracing. Spans are opened and closed by the
/// benchmark around the calls it makes into the library's public API
/// (RemoteHandler, Promise, the net::Network and sim::ClockDriver
/// decorators); nothing inside src/ is instrumented.
///
/// Everything runs on one OS thread (fiber backend), so spans nest in
/// time: a span opened in the client process and held across a blocking
/// claim encloses every span the scheduler, the server's call process and
/// the delivery callbacks open meanwhile. A span's self time is its
/// duration minus the durations of the spans directly inside it.
///
/// Allocations are counted by a global operator-new hook. While tracing,
/// each one is charged to the innermost open span owned by the process
/// that is running (sim::Simulation::current()); with none, to Sched —
/// the scheduler and the untimed runtime glue between spans.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Every heap allocation in the process so far.
uint64_t allocCount();

/// The layer boundaries the benchmark times.
enum class Layer : uint8_t {
  Issue, ///< runtime: the caller's side of issuing one call.
  Claim, ///< runtime: the caller blocked in claim (a wait, not a layer).
  Send,  ///< net: one Network::send.
  Rx,    ///< stream: one delivery callback (frame open, decode, dispatch).
  Exec,  ///< runtime: the echo handler body.
  Wait,  ///< net: one ClockDriver::waitFor (real-time backend only).
  Sched, ///< No span: scheduler and untimed glue (allocations only).
  Count
};

constexpr size_t NumLayers = static_cast<size_t>(Layer::Count);

/// Cumulative per-layer tallies.
struct LayerTotals {
  std::array<uint64_t, NumLayers> SelfNs{};
  std::array<uint64_t, NumLayers> DurNs{};
  std::array<uint64_t, NumLayers> Spans{};
  std::array<uint64_t, NumLayers> Allocs{};
};

/// One closed span, kept in memory and written out when the run ends.
struct SpanRecord {
  uint64_t StartNs = 0, EndNs = 0;
  uint32_t Parent = 0; ///< 1-based index of the enclosing record; 0 = none.
  Layer L = Layer::Sched;
};

class DatagramSample;

/// The process-wide tracer. Disabled unless a traced pass is running.
class Tracer {
public:
  static Tracer &get();

  bool on() const { return On; }
  void start(size_t MaxRecords);
  void stop();
  /// Suspends a started tracer (spans become no-ops) or resumes it.
  void pause(bool Paused);

  /// Where the network decorator copies sent datagrams while tracing.
  void setCapture(DatagramSample *S) { Capture = S; }
  DatagramSample *capture() const { return Capture; }

  void open(Layer L);
  void close(Layer L);
  /// The innermost open span, or Layer::Count when none is open.
  Layer top() const {
    return Depth ? Stack[Depth - 1].L : Layer::Count;
  }
  /// True when the innermost open span belongs to the running process.
  bool topOwnedByCurrent() const;

  /// Closes the caller's open Issue span and opens its Claim span, once,
  /// at the caller's first send. An RPC's issue side ends when its
  /// request leaves: the rest of RemoteHandler::call is the claim.
  bool SplitIssueAtSend = false;

  const LayerTotals &totals() const { return T; }

  /// Charges one allocation (called from the operator-new hook).
  void chargeAlloc();

  /// Writes the span records as chrome://tracing JSON.
  bool writeChromeTrace(const std::string &Path) const;

private:
  struct Frame {
    Layer L;
    uint64_t Start;
    uint64_t ChildNs;
    const void *Owner;
    uint32_t Record; ///< 1-based index into Records, 0 if not recorded.
  };

  bool Started = false;
  bool On = false;
  DatagramSample *Capture = nullptr;
  LayerTotals T;
  std::array<Frame, 32> Stack{};
  size_t Depth = 0;
  std::vector<SpanRecord> Records;
};

/// RAII span; a no-op while the tracer is off.
class Span {
public:
  explicit Span(Layer L) : L(L), Active(Tracer::get().on()) {
    if (Active)
      Tracer::get().open(L);
  }
  ~Span() {
    if (Active)
      Tracer::get().close(L);
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  Layer L;
  bool Active;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
