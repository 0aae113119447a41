//===- bench_spawn_scale.cpp - Process-scale microbenches (BENCH_6) -------===//
//
// Part of the promises project (PLDI 1988 reproduction).
//
// Measures the kernel numbers the fiber runtime exists for (ROADMAP item
// 1, docs/RUNTIME.md): how fast processes spawn, what a scheduler context
// switch costs on each backend, and how many concurrently-blocked
// processes fit in memory. Unlike the E-series benchmarks these measure
// *wall-clock* cost of the scheduler itself, not virtual-time behavior of
// the protocol stack, so this is a bespoke driver rather than a
// google-benchmark harness:
//
//   BM_SpawnScale      spawn N processes, block them all on one queue,
//                      record spawn rate, peak live count, and RSS.
//   BM_SwitchRoundRobin K processes yield in a loop; wall ns per scheduler
//                      round trip (suspend + dispatch + resume). K > 1 so
//                      the ready set looks like a real simulation's, not a
//                      single warm ping-pong pair.
//
// Writes the BENCH_6 record (support/BenchRecord.h). Its gates are per
// process, so a smaller run can be checked against the 1M-process point:
//
//   bench_spawn_scale --procs 1000000 --out BENCH_6.json
//
//===----------------------------------------------------------------------===//

#include "promises/sim/Simulation.h"
#include "promises/support/BenchRecord.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include <sys/resource.h>
#include <unistd.h>

using namespace promises;
using namespace promises::sim;

namespace {

struct Options {
  size_t Procs = 1'000'000;       ///< Fiber spawn-scale process count.
  size_t ThreadProcs = 2'000;     ///< Thread-backend comparison count.
  size_t SwitchProcs = 64;        ///< Round-robin yielders (both backends).
  size_t SwitchIters = 2'000'000; ///< Fiber total yields across yielders.
  size_t ThreadSwitchIters = 20'000; ///< Thread total yields.
  std::string Out; ///< JSON output path ("" = stdout only).
};

void usage(const char *Argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "  --procs N              fiber spawn-scale processes (default 1M)\n"
      "  --thread-procs N       thread-backend comparison (default 2000)\n"
      "  --switch-procs N       round-robin yielder count (default 64)\n"
      "  --switch-iters N       fiber total yields (default 2M)\n"
      "  --thread-switch-iters N  thread total yields (default 20k)\n"
      "  --out FILE             also write the JSON record to FILE\n",
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
    if (!std::strcmp(A, "--procs")) {
      if (!(V = Need(A)))
        return false;
      O.Procs = std::strtoull(V, nullptr, 10);
    } else if (!std::strcmp(A, "--thread-procs")) {
      if (!(V = Need(A)))
        return false;
      O.ThreadProcs = std::strtoull(V, nullptr, 10);
    } else if (!std::strcmp(A, "--switch-procs")) {
      if (!(V = Need(A)))
        return false;
      O.SwitchProcs = std::strtoull(V, nullptr, 10);
    } else if (!std::strcmp(A, "--switch-iters")) {
      if (!(V = Need(A)))
        return false;
      O.SwitchIters = std::strtoull(V, nullptr, 10);
    } else if (!std::strcmp(A, "--thread-switch-iters")) {
      if (!(V = Need(A)))
        return false;
      O.ThreadSwitchIters = std::strtoull(V, nullptr, 10);
    } else if (!std::strcmp(A, "--out")) {
      if (!(V = Need(A)))
        return false;
      O.Out = V;
    } else {
      std::fprintf(stderr,
                   "error: unknown flag %s (valid: --procs --thread-procs "
                   "--switch-procs --switch-iters --thread-switch-iters "
                   "--out)\n",
                   A);
      return false;
    }
  }
  if (O.Procs == 0 || O.ThreadProcs == 0 || O.SwitchProcs == 0 ||
      O.SwitchIters == 0 || O.ThreadSwitchIters == 0) {
    std::fprintf(stderr, "error: all counts must be > 0\n");
    return false;
  }
  return true;
}

double secondsSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
      .count();
}

/// Current resident set in bytes (/proc/self/statm field 2).
size_t rssBytes() {
  FILE *F = std::fopen("/proc/self/statm", "r");
  if (!F)
    return 0;
  unsigned long long Size = 0, Resident = 0;
  int N = std::fscanf(F, "%llu %llu", &Size, &Resident);
  std::fclose(F);
  if (N != 2)
    return 0;
  return static_cast<size_t>(Resident) *
         static_cast<size_t>(sysconf(_SC_PAGESIZE));
}

struct SpawnResult {
  double SpawnPerSec = 0;
  size_t MaxLive = 0;
  size_t RssDeltaBytes = 0;
  double DrainSeconds = 0;
};

/// Spawns N processes that all block on one queue, measures the rate at
/// which they reach their blocked state, then wakes and drains them.
SpawnResult runSpawnScale(BackendKind K, size_t N) {
  Simulation S(SimConfig{.Backend = K});
  WaitQueue Q(S);
  size_t Woken = 0;
  size_t Rss0 = rssBytes();
  auto T0 = std::chrono::steady_clock::now();
  for (size_t I = 0; I != N; ++I)
    S.spawn("p", [&] {
      Q.wait();
      ++Woken;
    });
  S.runFor(0); // Dispatch every start event: all N run and block.
  double SpawnSecs = secondsSince(T0);
  SpawnResult R;
  R.MaxLive = S.liveProcessCount();
  R.RssDeltaBytes = rssBytes() - Rss0;
  R.SpawnPerSec = static_cast<double>(N) / SpawnSecs;
  auto T1 = std::chrono::steady_clock::now();
  Q.notifyAll();
  S.run();
  R.DrainSeconds = secondsSince(T1);
  if (Woken != N || S.liveProcessCount() != 0) {
    std::fprintf(stderr, "error: spawn-scale run incomplete (%zu/%zu)\n",
                 Woken, N);
    std::exit(1);
  }
  return R;
}

/// K processes yielding round-robin: wall-clock ns per scheduler round
/// trip (suspend, event dispatch, resume). The multi-process ready set is
/// what a real simulation's scheduler sees — a 1-process ping-pong would
/// flatter the thread backend, whose two-thread handoff stays warm in a
/// way a thousand-thread runqueue never is.
double runSwitchRoundRobin(BackendKind K, size_t Procs, size_t TotalIters) {
  Simulation S(SimConfig{.Backend = K});
  size_t PerProc = std::max<size_t>(1, TotalIters / Procs);
  for (size_t P = 0; P != Procs; ++P)
    S.spawn("rr", [&S, PerProc] {
      for (size_t I = 0; I != PerProc; ++I)
        S.yieldNow();
    });
  auto T0 = std::chrono::steady_clock::now();
  S.run();
  double Secs = secondsSince(T0);
  return Secs * 1e9 / static_cast<double>(S.contextSwitches());
}

BenchRecord record(const Options &O, const SpawnResult &FiberSpawn,
                   const SpawnResult &ThreadSpawn, double FiberSwitchNs,
                   double ThreadSwitchNs, size_t PeakRssBytes) {
  BenchRecord Rec("BM_SpawnScale", 6);
  Rec.count("switch_procs", "count", O.SwitchProcs);
  Rec.count("fiber.procs", "count", O.Procs);
  Rec.metric("fiber.spawn_per_s", "1/s", MetricKind::Wall,
             FiberSpawn.SpawnPerSec, 0, Gate::minRatio(0.5));
  Rec.count("fiber.max_live_procs", "count", FiberSpawn.MaxLive);
  Rec.flag("fiber.all_procs_live", MetricKind::Exact,
           FiberSpawn.MaxLive == O.Procs, Gate::equals(true));
  Rec.metric("fiber.rss_bytes", "bytes", MetricKind::Wall,
             static_cast<double>(FiberSpawn.RssDeltaBytes), 0);
  Rec.metric("fiber.rss_bytes_per_proc", "bytes", MetricKind::Wall,
             static_cast<double>(FiberSpawn.RssDeltaBytes) /
                 static_cast<double>(O.Procs),
             1, Gate::maxRatio(1.25));
  Rec.metric("fiber.switch_ns", "ns", MetricKind::Wall, FiberSwitchNs, 1,
             Gate::maxRatio(2));
  Rec.count("fiber.switch_iters", "count", O.SwitchIters);
  Rec.count("thread.procs", "count", O.ThreadProcs);
  Rec.metric("thread.spawn_per_s", "1/s", MetricKind::Wall,
             ThreadSpawn.SpawnPerSec, 0);
  Rec.metric("thread.switch_ns", "ns", MetricKind::Wall, ThreadSwitchNs, 1);
  Rec.count("thread.switch_iters", "count", O.ThreadSwitchIters);
  Rec.metric("switch_speedup", "x", MetricKind::Wall,
             ThreadSwitchNs / FiberSwitchNs, 1);
  Rec.metric("peak_rss_bytes", "bytes", MetricKind::Wall,
             static_cast<double>(PeakRssBytes), 0);
  return Rec;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  if (!parseArgs(Argc, Argv, O)) {
    usage(Argv[0]);
    return 2;
  }

  // Thread-backend comparisons first, fiber spawn-scale last, so the
  // process-wide ru_maxrss peak reflects the 1M-process run.
  std::fprintf(stderr, "BM_SwitchRoundRobin[thread] %zu procs, %zu iters...\n",
               O.SwitchProcs, O.ThreadSwitchIters);
  double ThreadSwitchNs = runSwitchRoundRobin(BackendKind::Thread,
                                              O.SwitchProcs,
                                              O.ThreadSwitchIters);
  std::fprintf(stderr, "BM_SpawnScale[thread] %zu procs...\n", O.ThreadProcs);
  SpawnResult ThreadSpawn = runSpawnScale(BackendKind::Thread, O.ThreadProcs);
  std::fprintf(stderr, "BM_SwitchRoundRobin[fiber] %zu procs, %zu iters...\n",
               O.SwitchProcs, O.SwitchIters);
  double FiberSwitchNs =
      runSwitchRoundRobin(BackendKind::Fiber, O.SwitchProcs, O.SwitchIters);
  std::fprintf(stderr, "BM_SpawnScale[fiber] %zu procs...\n", O.Procs);
  SpawnResult FiberSpawn = runSpawnScale(BackendKind::Fiber, O.Procs);

  struct rusage RU;
  getrusage(RUSAGE_SELF, &RU);
  size_t PeakRss = static_cast<size_t>(RU.ru_maxrss) * 1024; // KB on Linux.

  BenchRecord Rec = record(O, FiberSpawn, ThreadSpawn, FiberSwitchNs,
                           ThreadSwitchNs, PeakRss);
  std::fputs(Rec.json().c_str(), stdout);
  if (!O.Out.empty() && !Rec.write(O.Out))
    return 1;
  return 0;
}
