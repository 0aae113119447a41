//===- promises/sim/Simulation.h - Discrete-event kernel -------*- C++ -*-===//
//
// Part of the promises project (PLDI 1988 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The discrete-event simulation kernel the whole system runs on.
///
/// The kernel provides *cooperative simulated processes*: exactly one
/// process (or the scheduler) runs at any instant, with control handed off
/// explicitly at blocking points. This gives the ergonomics of ordinary
/// blocking code (Argus processes block in `claim`, queue `deq`, `synch`,
/// ...) together with fully deterministic virtual time.
///
/// How a process is *executed* is an implementation seam (see
/// docs/RUNTIME.md): the default FiberBackend runs every process as a
/// stackful fiber on the scheduler's own OS thread (a context switch is a
/// few dozen instructions, so millions of concurrent processes are
/// practical), while the ThreadBackend backs each process with a parked OS
/// thread (one kernel handoff per turn; retained for sanitizer and
/// debugging runs). Both backends drive the same event loop in the same
/// order, so a seed produces bit-identical traces on either.
///
/// The kernel also implements the termination machinery the paper's coenter
/// needs (Section 4.2): a process can be *wounded* and then killed, but the
/// kill is deferred while the process is inside a critical section, exactly
/// as the Argus runtime "keeps track of how many critical sections a
/// process is in and delays its termination until the count is zero".
///
/// Forced termination is delivered by throwing the internal ProcessKilled
/// exception from a blocking primitive; this is the single use of C++
/// exceptions in this codebase (see DESIGN.md). User-level "exceptions"
/// (the Argus termination model) are plain values.
///
//===----------------------------------------------------------------------===//

#ifndef PROMISES_SIM_SIMULATION_H
#define PROMISES_SIM_SIMULATION_H

#include "promises/sim/Time.h"
#include "promises/support/Metrics.h"

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>

namespace promises::sim {

class Simulation;
class WaitQueue;
class Process;
class ClockDriver;

namespace detail {
class ExecutionBackend;
struct BackendAccess;
} // namespace detail

/// How simulated processes are executed (docs/RUNTIME.md).
enum class BackendKind : uint8_t {
  Fiber,  ///< Stackful fibers on one OS thread (default; scales to 1M+).
  Thread, ///< One parked OS thread per process (sanitizer/debug fallback).
};

/// Kernel configuration. Plain data; pass to the Simulation constructor.
struct SimConfig {
  /// Execution backend. Defaults to the PROMISES_BACKEND environment
  /// variable ("fiber" or "thread"; anything else aborts), or Fiber when
  /// unset.
  BackendKind Backend = defaultBackend();

  /// When true, every fiber stack is its own mapping with an inaccessible
  /// low guard page, so overflow faults instead of corrupting a neighbor.
  /// Costs one mmap/mprotect pair per pooled stack (and counts against
  /// vm.max_map_count), so it is off by default; also enabled by
  /// PROMISES_FIBER_GUARD=1. Intended for debugging runs, not 1M-process
  /// scale.
  bool FiberGuardPages = defaultGuardPages();

  /// PROMISES_BACKEND-resolved default (Fiber when unset).
  static BackendKind defaultBackend();
  /// PROMISES_FIBER_GUARD-resolved default (false when unset).
  static bool defaultGuardPages();
  /// Parses "fiber"/"thread" into \p Out; false on anything else.
  static bool parseBackend(std::string_view Name, BackendKind &Out);
  /// "fiber" or "thread".
  static const char *backendName(BackendKind K);
};

/// Internal control-flow exception used to unwind a forcibly terminated
/// process from its current blocking point. Never thrown through user data;
/// caught by the process trampoline. User code must be exception-neutral
/// (RAII cleanup only) and must never swallow it.
struct ProcessKilled {};

/// Lifecycle states of a simulated process.
enum class ProcState : uint8_t {
  Created,  ///< Spawned, not yet run.
  Ready,    ///< Wake event scheduled; will run when it fires.
  Running,  ///< Currently holds the turn.
  Blocked,  ///< Waiting in a WaitQueue (or sleeping).
  Finished, ///< Body returned or process was killed.
};

/// A FIFO queue of blocked processes; the basic blocking primitive.
///
/// Waiters are linked intrusively through the Process objects themselves
/// (a process blocks in at most one queue at a time), so an idle queue is
/// three words and enqueue/dequeue/remove are O(1) with no allocation —
/// the per-process join and sleep queues below rely on this.
///
/// Only usable from inside simulated processes (wait side) and from any
/// single-runner context (notify side).
class WaitQueue {
public:
  explicit WaitQueue(Simulation &S) : Sim(S) {}
  ~WaitQueue();
  WaitQueue(const WaitQueue &) = delete;
  WaitQueue &operator=(const WaitQueue &) = delete;

  /// Blocks the current process until notified. Kill delivery point.
  void wait();

  /// Blocks until notified or until \p Timeout elapses. Returns true when
  /// woken by a notify, false on timeout. Kill delivery point.
  bool waitFor(Time Timeout);

  /// Wakes the longest-waiting process, if any.
  void notifyOne();

  /// Wakes all waiting processes.
  void notifyAll();

  /// Number of processes currently blocked here.
  size_t waiterCount() const { return Count; }

  /// The simulation this queue blocks in (for deadline arithmetic in
  /// bounded claims).
  Simulation &simulation() const { return Sim; }

private:
  friend class Simulation;
  friend class Process;

  void removeWaiter(Process *P);
  void enqueueCurrent(Process *P);

  Simulation &Sim;
  Process *Head = nullptr; ///< Longest waiting (next to wake).
  Process *Tail = nullptr;
  size_t Count = 0;
};

/// A cooperative simulated process.
///
/// Created via Simulation::spawn. All members are manipulated only while
/// the owning execution context (or the scheduler) holds the single
/// execution turn, so no locking is needed beyond the backend's own
/// turn-handoff machinery.
class Process {
public:
  Process(const Process &) = delete;
  Process &operator=(const Process &) = delete;
  ~Process();

  /// Monotonically increasing id, unique within the Simulation.
  uint64_t id() const { return Id; }

  /// Debug name given at spawn time.
  const std::string &name() const { return Name; }

  /// True once the body has returned or the process has been killed.
  bool finished() const { return State == ProcState::Finished; }

  /// True if the process has been wounded (asked to terminate). A wounded
  /// process is "greatly restricted" (paper, Section 4.2): the runtime
  /// refuses to start remote calls on its behalf.
  bool wounded() const { return Wounded; }

  /// Current nesting depth of critical sections.
  int criticalDepth() const { return CriticalDepth; }

private:
  friend class Simulation;
  friend class WaitQueue;
  friend class CriticalSection;
  friend struct detail::BackendAccess;

  Process(Simulation &S, uint64_t Id, std::string Name,
          std::function<void()> Body);

  /// The shared trampoline core, run inside the process's own execution
  /// context (fiber or thread): delivers a pre-start kill, runs the body,
  /// absorbs ProcessKilled, marks Finished, and wakes joiners. The backend
  /// then returns the turn to the scheduler for good.
  void runBody();

  /// Gives the turn back to the scheduler and blocks until it is returned.
  /// On resume, delivers a pending kill if it is safe to do so.
  void yieldToScheduler();

  /// Throws ProcessKilled if a kill is pending and deliverable here.
  void deliverKill();

  Simulation &Sim;
  const uint64_t Id;
  const std::string Name;
  std::function<void()> Body;

  /// Backend-owned execution state (fiber stack + saved context, or the
  /// thread + handoff pair). Null once the process has been reaped.
  void *Exec = nullptr;

  // Simulation-side state; single-runner discipline, no locks needed.
  ProcState State = ProcState::Created;
  bool NotifiedFlag = false; ///< Set when woken by notify (vs timeout).
  bool Wounded = false;
  bool KillPending = false;
  bool Unwinding = false;      ///< ProcessKilled currently propagating.
  bool HasTimeoutEvent = false;
  int CriticalDepth = 0;
  WaitQueue *WaitingOn = nullptr;
  Process *WaitPrev = nullptr; ///< Intrusive links within WaitingOn.
  Process *WaitNext = nullptr;
  Process *ReadyNext = nullptr; ///< Link in the scheduler's ready FIFO.
  Time ReadyAt = 0;             ///< (At, Seq) dispatch key of the pending
  uint64_t ReadySeq = 0;        ///< wake, merged against timed events.
  uint64_t WaitEpoch = 0;    ///< Incremented on every wait; guards stale
                             ///< timeout events.
  uint64_t TimeoutEvent = 0; ///< Pending waitFor timeout; cancelled on any
                             ///< wake so it cannot advance the clock.

  WaitQueue JoinQ;  ///< Waiters in Simulation::join.
  WaitQueue SleepQ; ///< Private queue backing sleep().
};

using ProcessHandle = std::shared_ptr<Process>;

/// RAII critical-section marker (the Argus built-in critical section).
///
/// While at least one CriticalSection is alive in a process, a pending kill
/// is deferred; it is delivered when the outermost section is left (or at
/// the next blocking point after that).
class CriticalSection {
public:
  CriticalSection();
  ~CriticalSection() noexcept(false);
  CriticalSection(const CriticalSection &) = delete;
  CriticalSection &operator=(const CriticalSection &) = delete;

private:
  Process *Proc;
  int ExceptionsAtEntry;
};

/// The discrete-event simulator: virtual clock, event queue, and process
/// scheduler. One Simulation per test/benchmark/example; not thread-safe
/// across Simulations sharing threads (each owns its execution backend).
class Simulation {
public:
  Simulation();
  explicit Simulation(SimConfig Cfg);
  ~Simulation();
  Simulation(const Simulation &) = delete;
  Simulation &operator=(const Simulation &) = delete;

  /// Current virtual time.
  Time now() const { return NowNs; }

  /// The execution backend this world runs on.
  BackendKind backend() const { return Cfg.Backend; }

  /// "fiber" or "thread".
  const char *backendName() const {
    return SimConfig::backendName(Cfg.Backend);
  }

  /// The observability registry shared by every layer of this world (see
  /// docs/OBSERVABILITY.md). The kernel registers sim.context_switches,
  /// sim.event_queue_depth, sim.live_processes, and sim.processes_spawned.
  MetricsRegistry &metrics() { return Metrics; }
  const MetricsRegistry &metrics() const { return Metrics; }

  /// Creates a process that will start running at the current time (once
  /// the event loop reaches its start event).
  ProcessHandle spawn(std::string Name, std::function<void()> Body);

  /// Runs the event loop until no events remain or stop() is called.
  /// Must be called from outside any simulated process.
  ///
  /// With a clock driver installed this becomes the real-time loop (see
  /// sim/Clock.h): it returns at quiescence — no live processes, no armed
  /// timers, nothing ready — or on stop(). A server that should stay
  /// alive for unsolicited IO must keep a (blocked) process around.
  void run();

  /// Runs until virtual time reaches now()+Duration (or the queue drains,
  /// or stop()). Returns true if events remain. Advances the clock to the
  /// requested horizon even if the queue drains earlier.
  ///
  /// With a clock driver installed the horizon is a wall-clock deadline:
  /// the loop keeps polling the driver for IO until wall time reaches it
  /// (it does not return early at quiescence — new work can arrive from
  /// outside).
  bool runFor(Time Duration);

  /// Requests that run()/runFor() return after the current event.
  void stop() { StopRequested = true; }

  /// --- Real-time mode (sim/Clock.h; used by net::UdpNetwork) ---

  /// Installs (or, with nullptr, removes) the wall-clock driver. The
  /// driver must outlive every subsequent run()/runFor() call.
  void setClockDriver(ClockDriver *D) { Clock = D; }
  ClockDriver *clockDriver() const { return Clock; }

  /// Advances the virtual clock toward \p Wall, clamped to the earliest
  /// pending event so dispatch never observes time running backwards.
  /// Called by clock drivers before dispatching IO mid-wait, and by the
  /// real-time loop after each drain. No-op when \p Wall is in the past.
  void advanceClockToWall(Time Wall);

  /// --- Callable from inside a simulated process ---

  /// Blocks the calling process for \p Duration of virtual time.
  void sleep(Time Duration);

  /// Reschedules the calling process at the current time, letting other
  /// ready processes and events at this instant run first.
  void yieldNow();

  /// Blocks the calling process until \p P finishes. Kill delivery point.
  /// Fine to call on an already-reaped process; returns immediately.
  void join(const ProcessHandle &P);

  /// The process currently holding the turn, or nullptr in scheduler
  /// context (event callbacks, code outside run()).
  static Process *current();

  /// True when called from inside a simulated process.
  static bool inProcess() { return current() != nullptr; }

  /// --- Termination (paper Section 4.2) ---

  /// Wounds \p P: marks it as asked-to-terminate without forcing unwind.
  /// The runtime refuses remote calls for wounded processes.
  void wound(const ProcessHandle &P) { woundImpl(P.get()); }

  /// Wounds \p P and forces termination at the next safe point: a blocking
  /// point (or critical-section exit) with critical depth zero. If \p P is
  /// currently blocked outside any critical section it is woken
  /// immediately to unwind. No-op on finished (including reaped)
  /// processes.
  void kill(const ProcessHandle &P) { killImpl(P.get()); }

  /// --- Events ---

  /// Schedules \p Fn to run in scheduler context after \p Delay. The
  /// callback must not block. Returns an id usable with cancel().
  uint64_t schedule(Time Delay, std::function<void()> Fn);

  /// Cancels a scheduled callback; no-op if it already ran or was
  /// cancelled.
  void cancel(uint64_t EventId);

  /// --- Introspection (used by tests and the E10 benchmark) ---

  /// Total number of scheduler->process handoffs so far. A direct measure
  /// of the process-management burden discussed in paper Section 4.3.
  /// (Thin view of the sim.context_switches registry counter.)
  uint64_t contextSwitches() const { return CtxSwitches->value(); }

  /// Number of processes spawned so far.
  uint64_t processesSpawned() const { return NextProcId; }

  /// Number of spawned processes that have not finished. A maintained
  /// counter, not a scan: O(1) at any scale.
  size_t liveProcessCount() const { return LiveProcs; }

private:
  friend class Process;
  friend class WaitQueue;
  friend struct detail::BackendAccess;

  /// One armed schedule() callback in the timed heap. Entries are small
  /// PODs ordered by (At, Seq) — the exact dispatch order the former
  /// std::map<QueueKey, function> gave — while the closure lives in a
  /// pooled EventRecord slot, so arming a timer costs no node allocations
  /// (the old representation paid a tree node plus a hash-map node per
  /// event, on a path the transport hits several times per call).
  struct TimedEvent {
    Time At;
    uint64_t Seq;  ///< Global dispatch tiebreak (NextEventSeq).
    uint32_t Slot; ///< Index into EventPool.
    uint32_t Gen;  ///< EventPool[Slot].Gen at arm time.
  };
  /// Pooled per-event state, recycled through an intrusive freelist.
  /// Cancellation is lazy: cancel() flags the record (destroying the
  /// closure eagerly, as the map erase used to) and the tombstoned heap
  /// entry is dropped unexecuted — without advancing the clock — when it
  /// surfaces. The generation makes stale ids (event already ran, slot
  /// reused) miss, which is what the old hash-map lookup provided.
  struct EventRecord {
    std::function<void()> Fn;
    uint32_t Gen = 0;      ///< Bumped on slot release; validates ids.
    uint32_t NextFree = 0; ///< Freelist link while free.
    bool Armed = false;
    bool Cancelled = false;
  };

  static bool timedAfter(const TimedEvent &A, const TimedEvent &B) {
    return A.At != B.At ? A.At > B.At : A.Seq > B.Seq;
  }

  /// Drops tombstoned (cancelled) entries off the top of the heap, then
  /// returns the next live timed event, or nullptr when none remain.
  TimedEvent *peekTimed();

  /// Returns \p Slot to the freelist, destroying its closure and bumping
  /// its generation so outstanding ids for it go stale.
  void releaseEventSlot(uint32_t Slot);

  /// Hands the turn to \p P and waits until it yields back; reaps it if it
  /// finished during the turn.
  void switchTo(Process *P);

  /// Schedules a wake event for a Blocked/Created process at now().
  void makeReady(Process *P);

  /// Appends \p P to the ready FIFO with a fresh (now, seq) dispatch key.
  void pushReady(Process *P);

  /// Releases a finished process's execution resources and drops the
  /// kernel's handle (joiners were already woken; external handles keep
  /// the object alive). Scheduler context only.
  void reap(Process *P);

  void woundImpl(Process *P);
  void killImpl(Process *P);

  /// Runs one event; returns false when the queue is empty or the next
  /// event lies beyond \p Horizon.
  bool step(Time Horizon);

  /// The run()/runFor() body when a clock driver is installed: drain due
  /// events, advance to wall, sleep in the driver until the next timer.
  /// Returns when wall time reaches \p Horizon, on stop(), or — only with
  /// an unbounded horizon — at quiescence.
  void runRealTime(Time Horizon);

  /// Kills all unfinished processes (ignoring critical sections) and
  /// drains; used by the destructor.
  void shutdown();

  /// Declared first so instrument handles outlive everything else.
  MetricsRegistry Metrics;
  Counter *CtxSwitches = nullptr; ///< sim.context_switches.

  SimConfig Cfg;
  /// Declared before the process table so the ~Process fail-safe (which
  /// runs while AllProcs clears) can still reach it.
  std::unique_ptr<detail::ExecutionBackend> Backend;

  Time NowNs = 0;
  ClockDriver *Clock = nullptr; ///< Non-null => real-time mode.
  bool StopRequested = false;
  bool ShuttingDown = false;
  uint64_t NextProcId = 0;
  uint64_t NextEventSeq = 0;
  size_t LiveProcs = 0;

  /// The two pending-work structures, merged by (time, seq) in step() so
  /// dispatch order is exactly the single-queue order:
  ///
  ///  * Ready FIFO — process wakes, linked intrusively through the
  ///    Process objects (each has at most one pending wake). Appends carry
  ///    the current time and a fresh seq, so the list is (At, Seq)-sorted
  ///    by construction and the wake-heavy hot path — a context switch —
  ///    allocates nothing.
  ///  * Timed heap — schedule() callbacks (timeouts, network delivery),
  ///    cancelled in O(1) by flagging the pooled record.
  Process *ReadyHead = nullptr;
  Process *ReadyTail = nullptr;
  size_t ReadyCount = 0; ///< FIFO length (for the queue-depth gauge).
  std::vector<TimedEvent> TimedHeap; ///< Min-heap via timedAfter.
  std::vector<EventRecord> EventPool;
  uint32_t FreeEventHead = UINT32_MAX; ///< Head of the free-slot list.
  size_t LiveTimed = 0; ///< Armed, not-cancelled events in TimedHeap.

  /// Unfinished processes by id (finished ones are reaped eagerly, so at
  /// quiescence this is empty even after millions of spawns).
  std::map<uint64_t, ProcessHandle> AllProcs;
};

} // namespace promises::sim

#endif // PROMISES_SIM_SIMULATION_H
