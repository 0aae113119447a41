//===- sim_simulation_test.cpp - Kernel unit tests ------------------------===//
//
// Part of the promises project (PLDI 1988 reproduction).
//
//===----------------------------------------------------------------------===//

#include "promises/sim/Clock.h"
#include "promises/sim/Simulation.h"

#include <gtest/gtest.h>

#include <vector>

using namespace promises::sim;

namespace {

TEST(Simulation, StartsAtTimeZero) {
  Simulation S;
  EXPECT_EQ(S.now(), 0u);
}

TEST(Simulation, RunWithNoProcessesReturnsImmediately) {
  Simulation S;
  S.run();
  EXPECT_EQ(S.now(), 0u);
}

TEST(Simulation, ProcessBodyRuns) {
  Simulation S;
  bool Ran = false;
  S.spawn("p", [&] { Ran = true; });
  S.run();
  EXPECT_TRUE(Ran);
}

TEST(Simulation, SleepAdvancesVirtualTime) {
  Simulation S;
  Time Observed = 0;
  S.spawn("p", [&] {
    S.sleep(msec(5));
    Observed = S.now();
  });
  S.run();
  EXPECT_EQ(Observed, msec(5));
  EXPECT_EQ(S.now(), msec(5));
}

TEST(Simulation, NestedSleepsAccumulate) {
  Simulation S;
  S.spawn("p", [&] {
    S.sleep(usec(100));
    S.sleep(usec(250));
    S.sleep(nsec(7));
  });
  S.run();
  EXPECT_EQ(S.now(), usec(350) + nsec(7));
}

TEST(Simulation, ChargeCpuWithoutDriverIsOneSleep) {
  Simulation S;
  Time Before = 0, After = 0;
  uint64_t Switches = 0;
  S.spawn("p", [&] {
    Before = S.now();
    uint64_t At = S.contextSwitches();
    S.chargeCpu(usec(10));
    Switches = S.contextSwitches() - At;
    After = S.now();
  });
  S.run();
  EXPECT_EQ(After - Before, usec(10));
  EXPECT_EQ(Switches, 1u); // Blocked once, resumed once.
}

/// A wall clock that stands still until the kernel waits in it.
class StubClock final : public ClockDriver {
public:
  Time now() override { return Wall; }
  void waitFor(Time Timeout) override {
    ++Waits;
    Wall += Timeout;
  }
  Time Wall = 0;
  int Waits = 0;
};

TEST(Simulation, ChargeCpuUnderADriverReturnsAtOnce) {
  Simulation S;
  StubClock Clock;
  S.setClockDriver(&Clock);
  Time Before = 1, After = 0;
  uint64_t Switches = 1;
  S.spawn("p", [&] {
    Before = S.now();
    uint64_t At = S.contextSwitches();
    S.chargeCpu(usec(10));
    Switches = S.contextSwitches() - At;
    After = S.now();
  });
  S.run();
  EXPECT_EQ(After, Before);
  EXPECT_EQ(Switches, 0u); // Never blocked.
  // No timer was armed: the real-time loop reached quiescence without
  // ever waiting in the driver.
  EXPECT_EQ(Clock.Waits, 0);
  EXPECT_EQ(S.now(), 0u);
}

TEST(Simulation, ProcessesInterleaveDeterministically) {
  Simulation S;
  std::vector<int> Order;
  S.spawn("a", [&] {
    Order.push_back(1);
    S.sleep(msec(2));
    Order.push_back(3);
  });
  S.spawn("b", [&] {
    Order.push_back(2);
    S.sleep(msec(1));
    Order.push_back(4); // Wakes at 1ms, before a's 2ms.
    S.sleep(msec(2));
    Order.push_back(5); // 3ms.
  });
  S.run();
  EXPECT_EQ(Order, (std::vector<int>{1, 2, 4, 3, 5}));
}

TEST(Simulation, SpawnOrderBreaksTimeTies) {
  // Two processes woken at the same instant run in schedule order.
  Simulation S;
  std::vector<int> Order;
  S.spawn("a", [&] {
    S.sleep(msec(1));
    Order.push_back(1);
  });
  S.spawn("b", [&] {
    S.sleep(msec(1));
    Order.push_back(2);
  });
  S.run();
  EXPECT_EQ(Order, (std::vector<int>{1, 2}));
}

TEST(Simulation, YieldNowLetsPeersRunWithoutAdvancingTime) {
  Simulation S;
  std::vector<int> Order;
  S.spawn("a", [&] {
    Order.push_back(1);
    S.yieldNow();
    Order.push_back(3);
    EXPECT_EQ(S.now(), 0u);
  });
  S.spawn("b", [&] { Order.push_back(2); });
  S.run();
  EXPECT_EQ(Order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulation, ScheduledCallbackRunsAtRequestedTime) {
  Simulation S;
  Time Fired = 0;
  S.schedule(msec(10), [&] { Fired = S.now(); });
  S.run();
  EXPECT_EQ(Fired, msec(10));
}

TEST(Simulation, CancelledCallbackDoesNotRun) {
  Simulation S;
  bool Fired = false;
  uint64_t Id = S.schedule(msec(10), [&] { Fired = true; });
  S.cancel(Id);
  S.run();
  EXPECT_FALSE(Fired);
  EXPECT_EQ(S.now(), 0u); // The cancelled event does not advance the clock.
}

TEST(Simulation, RunForStopsAtHorizon) {
  Simulation S;
  int Fired = 0;
  S.schedule(msec(1), [&] { ++Fired; });
  S.schedule(msec(5), [&] { ++Fired; });
  EXPECT_TRUE(S.runFor(msec(2)));
  EXPECT_EQ(Fired, 1);
  EXPECT_EQ(S.now(), msec(2));
  EXPECT_FALSE(S.runFor(msec(10)));
  EXPECT_EQ(Fired, 2);
  EXPECT_EQ(S.now(), msec(12));
}

TEST(Simulation, StopEndsRunEarly) {
  Simulation S;
  int Fired = 0;
  S.schedule(msec(1), [&] {
    ++Fired;
    S.stop();
  });
  S.schedule(msec(2), [&] { ++Fired; });
  S.run();
  EXPECT_EQ(Fired, 1);
  S.run(); // Resumes where it left off.
  EXPECT_EQ(Fired, 2);
}

TEST(Simulation, JoinWaitsForCompletion) {
  Simulation S;
  std::vector<int> Order;
  auto Child = S.spawn("child", [&] {
    S.sleep(msec(3));
    Order.push_back(1);
  });
  S.spawn("parent", [&] {
    S.join(Child);
    Order.push_back(2);
    EXPECT_EQ(S.now(), msec(3));
  });
  S.run();
  EXPECT_EQ(Order, (std::vector<int>{1, 2}));
}

TEST(Simulation, JoinOnFinishedProcessReturnsImmediately) {
  Simulation S;
  auto Child = S.spawn("child", [] {});
  bool Joined = false;
  S.spawn("parent", [&] {
    S.sleep(msec(1)); // Child has long finished.
    S.join(Child);
    Joined = true;
  });
  S.run();
  EXPECT_TRUE(Joined);
}

TEST(Simulation, MultipleJoinersAllWake) {
  Simulation S;
  auto Child = S.spawn("child", [&] { S.sleep(msec(1)); });
  int Joined = 0;
  for (int I = 0; I < 3; ++I)
    S.spawn("j", [&] {
      S.join(Child);
      ++Joined;
    });
  S.run();
  EXPECT_EQ(Joined, 3);
}

TEST(Simulation, CurrentIsNullInSchedulerContext) {
  Simulation S;
  EXPECT_EQ(Simulation::current(), nullptr);
  Process *Seen = reinterpret_cast<Process *>(1);
  S.schedule(msec(1), [&] { Seen = Simulation::current(); });
  S.run();
  EXPECT_EQ(Seen, nullptr);
}

TEST(Simulation, CurrentIsSetInsideProcess) {
  Simulation S;
  ProcessHandle H;
  Process *Seen = nullptr;
  H = S.spawn("me", [&] { Seen = Simulation::current(); });
  S.run();
  EXPECT_EQ(Seen, H.get());
  EXPECT_EQ(H->name(), "me");
}

TEST(Simulation, SpawnFromWithinProcess) {
  Simulation S;
  std::vector<int> Order;
  S.spawn("outer", [&] {
    Order.push_back(1);
    auto Inner = S.spawn("inner", [&] { Order.push_back(2); });
    S.join(Inner);
    Order.push_back(3);
  });
  S.run();
  EXPECT_EQ(Order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulation, WaitQueueNotifyOneWakesFifo) {
  Simulation S;
  WaitQueue Q(S);
  std::vector<int> Woken;
  for (int I = 0; I < 3; ++I)
    S.spawn("w", [&, I] {
      Q.wait();
      Woken.push_back(I);
    });
  S.spawn("notifier", [&] {
    S.sleep(msec(1));
    Q.notifyOne();
    S.sleep(msec(1));
    Q.notifyOne();
    S.sleep(msec(1));
    Q.notifyOne();
  });
  S.run();
  EXPECT_EQ(Woken, (std::vector<int>{0, 1, 2}));
}

TEST(Simulation, WaitQueueNotifyAllWakesEveryone) {
  Simulation S;
  WaitQueue Q(S);
  int Woken = 0;
  for (int I = 0; I < 5; ++I)
    S.spawn("w", [&] {
      Q.wait();
      ++Woken;
    });
  S.spawn("notifier", [&] {
    S.sleep(msec(1));
    EXPECT_EQ(Q.waiterCount(), 5u);
    Q.notifyAll();
  });
  S.run();
  EXPECT_EQ(Woken, 5);
}

TEST(Simulation, WaitForTimesOut) {
  Simulation S;
  WaitQueue Q(S);
  bool Notified = true;
  S.spawn("w", [&] {
    Notified = Q.waitFor(msec(2));
    EXPECT_EQ(S.now(), msec(2));
  });
  S.run();
  EXPECT_FALSE(Notified);
}

TEST(Simulation, WaitForSeesNotifyBeforeTimeout) {
  Simulation S;
  WaitQueue Q(S);
  bool Notified = false;
  S.spawn("w", [&] {
    Notified = Q.waitFor(msec(10));
    EXPECT_EQ(S.now(), msec(1));
  });
  S.spawn("n", [&] {
    S.sleep(msec(1));
    Q.notifyOne();
  });
  S.run();
  EXPECT_TRUE(Notified);
}

TEST(Simulation, StaleTimeoutDoesNotWakeLaterWait) {
  // A process that times out of one wait and immediately waits again must
  // not be woken by any artifact of the first wait.
  Simulation S;
  WaitQueue Q(S);
  int Wakeups = 0;
  S.spawn("w", [&] {
    EXPECT_FALSE(Q.waitFor(msec(1)));
    ++Wakeups;
    EXPECT_FALSE(Q.waitFor(msec(5)));
    ++Wakeups;
    EXPECT_EQ(S.now(), msec(6));
  });
  S.run();
  EXPECT_EQ(Wakeups, 2);
}

TEST(Simulation, KillWakesBlockedProcess) {
  Simulation S;
  WaitQueue Q(S);
  bool ReachedEnd = false;
  auto Victim = S.spawn("victim", [&] {
    Q.wait();
    ReachedEnd = true;
  });
  S.spawn("killer", [&] {
    S.sleep(msec(1));
    S.kill(Victim);
  });
  S.run();
  EXPECT_FALSE(ReachedEnd);
  EXPECT_TRUE(Victim->finished());
  EXPECT_EQ(Q.waiterCount(), 0u);
}

TEST(Simulation, KillBeforeFirstRunPreventsBody) {
  Simulation S;
  bool Ran = false;
  // Spawn and kill before the event loop ever runs the process.
  auto Victim = S.spawn("victim", [&] { Ran = true; });
  S.kill(Victim);
  S.run();
  EXPECT_FALSE(Ran);
  EXPECT_TRUE(Victim->finished());
}

TEST(Simulation, KillRunningProcessDeliversAtNextBlockingPoint) {
  Simulation S;
  std::vector<int> Trace;
  ProcessHandle Victim;
  Victim = S.spawn("victim", [&] {
    Trace.push_back(1);
    S.sleep(msec(5)); // Killed during this sleep.
    Trace.push_back(2);
  });
  S.spawn("killer", [&] {
    S.sleep(msec(1));
    S.kill(Victim);
  });
  S.run();
  EXPECT_EQ(Trace, (std::vector<int>{1}));
  EXPECT_TRUE(Victim->finished());
  EXPECT_LE(S.now(), msec(5)); // Victim did not sleep to completion.
}

TEST(Simulation, KillDeferredInsideCriticalSection) {
  Simulation S;
  std::vector<int> Trace;
  WaitQueue Q(S);
  ProcessHandle Victim;
  Victim = S.spawn("victim", [&] {
    {
      CriticalSection Cs;
      Trace.push_back(1);
      Q.waitFor(msec(10)); // Blocked inside the critical section.
      Trace.push_back(2);  // Still runs: kill deferred.
    }
    Trace.push_back(3); // Never runs: kill delivered at section exit.
  });
  S.spawn("killer", [&] {
    S.sleep(msec(1));
    S.kill(Victim);
    EXPECT_FALSE(Victim->finished()); // Deferred, not instant.
  });
  S.run();
  EXPECT_EQ(Trace, (std::vector<int>{1, 2}));
  EXPECT_TRUE(Victim->finished());
}

TEST(Simulation, NestedCriticalSectionsDeferUntilOutermostExit) {
  Simulation S;
  std::vector<int> Trace;
  ProcessHandle Victim;
  Victim = S.spawn("victim", [&] {
    CriticalSection Outer;
    {
      CriticalSection Inner;
      S.sleep(msec(5)); // Killed here; deferred (depth 2).
      Trace.push_back(1);
    }
    // Depth back to 1: still deferred.
    Trace.push_back(2);
    S.sleep(msec(1)); // Blocking point at depth 1: still deferred.
    Trace.push_back(3);
  });
  S.spawn("killer", [&] {
    S.sleep(msec(1));
    S.kill(Victim);
  });
  S.run();
  EXPECT_EQ(Trace, (std::vector<int>{1, 2, 3}));
  EXPECT_TRUE(Victim->finished());
}

TEST(Simulation, WoundMarksWithoutTerminating) {
  Simulation S;
  ProcessHandle Victim;
  bool SawWound = false;
  bool Completed = false;
  Victim = S.spawn("victim", [&] {
    S.sleep(msec(5));
    SawWound = Victim->wounded();
    Completed = true;
  });
  S.spawn("wounder", [&] {
    S.sleep(msec(1));
    S.wound(Victim);
  });
  S.run();
  EXPECT_TRUE(SawWound);
  EXPECT_TRUE(Completed);
}

TEST(Simulation, KillFinishedProcessIsNoop) {
  Simulation S;
  auto P = S.spawn("p", [] {});
  S.run();
  EXPECT_TRUE(P->finished());
  S.kill(P); // Must not crash or revive.
  S.run();
  EXPECT_TRUE(P->finished());
}

TEST(Simulation, JoinerWakesWhenJoineeIsKilled) {
  Simulation S;
  WaitQueue Forever(S);
  auto Victim = S.spawn("victim", [&] { Forever.wait(); });
  bool Joined = false;
  S.spawn("parent", [&] {
    S.join(Victim);
    Joined = true;
  });
  S.spawn("killer", [&] {
    S.sleep(msec(1));
    S.kill(Victim);
  });
  S.run();
  EXPECT_TRUE(Joined);
}

TEST(Simulation, DestructorReapsBlockedProcesses) {
  // A Simulation with deadlocked processes must destruct cleanly.
  auto S = std::make_unique<Simulation>();
  WaitQueue Q(*S);
  for (int I = 0; I < 4; ++I)
    S->spawn("stuck", [&] { Q.wait(); });
  S->run();
  EXPECT_EQ(S->liveProcessCount(), 4u);
  S.reset(); // Must not hang or crash.
}

TEST(Simulation, DestructorReapsProcessesInCriticalSections) {
  auto S = std::make_unique<Simulation>();
  WaitQueue Q(*S);
  S->spawn("stuck", [&] {
    CriticalSection Cs;
    Q.wait();
  });
  S->run();
  S.reset(); // Shutdown overrides critical-section deferral.
}

TEST(Simulation, ContextSwitchesAreCounted) {
  Simulation S;
  EXPECT_EQ(S.contextSwitches(), 0u);
  S.spawn("a", [&] { S.sleep(msec(1)); });
  S.run();
  // One switch to start the process, one to resume it after the sleep.
  EXPECT_EQ(S.contextSwitches(), 2u);
}

TEST(Simulation, ManyProcessesRunToCompletion) {
  Simulation S;
  int Done = 0;
  for (int I = 0; I < 200; ++I)
    S.spawn("p", [&, I] {
      S.sleep(usec(static_cast<uint64_t>(I) % 17));
      ++Done;
    });
  S.run();
  EXPECT_EQ(Done, 200);
  EXPECT_EQ(S.liveProcessCount(), 0u);
}

} // namespace
