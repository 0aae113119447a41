//===- Trace.cpp - Spans and allocation accounting for perfbench ----------===//
//
// Part of the promises project (PLDI 1988 reproduction).
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include "promises/sim/Simulation.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

namespace {

// Relaxed: the fiber backend runs the whole world on one OS thread.
std::atomic<uint64_t> GAllocs{0};
// Read by the hook before the tracer object may exist.
bool GTracing = false;

const char *layerName(perfbench::Layer L) {
  static const char *const Names[] = {"issue", "claim", "send", "rx",
                                      "exec",  "wait",  "sched"};
  return Names[static_cast<size_t>(L)];
}

} // namespace

void *operator new(std::size_t N) {
  GAllocs.fetch_add(1, std::memory_order_relaxed);
  if (GTracing)
    perfbench::Tracer::get().chargeAlloc();
  if (void *P = std::malloc(N ? N : 1))
    return P;
  throw std::bad_alloc();
}
void *operator new[](std::size_t N) { return ::operator new(N); }
void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }

namespace perfbench {

uint64_t allocCount() { return GAllocs.load(std::memory_order_relaxed); }

Tracer &Tracer::get() {
  static Tracer T;
  return T;
}

void Tracer::start(size_t MaxRecords) {
  T = LayerTotals();
  Depth = 0;
  Records.clear();
  Records.reserve(MaxRecords); // Recording below never reallocates.
  SplitIssueAtSend = false;
  Started = On = GTracing = true;
}

void Tracer::pause(bool Paused) {
  if (Started)
    On = GTracing = !Paused;
}

void Tracer::stop() {
  if (Depth != 0) {
    std::fprintf(stderr, "perfbench: %zu spans still open at stop\n", Depth);
    std::abort();
  }
  Started = On = GTracing = false;
}

void Tracer::open(Layer L) {
  if (Depth == Stack.size()) {
    std::fprintf(stderr, "perfbench: span stack overflow\n");
    std::abort();
  }
  uint32_t Rec = 0;
  if (Records.size() < Records.capacity()) {
    SpanRecord R;
    R.L = L;
    R.Parent = Depth ? Stack[Depth - 1].Record : 0;
    Records.push_back(R);
    Rec = static_cast<uint32_t>(Records.size());
  }
  Stack[Depth++] = {L, nowNs(), 0, promises::sim::Simulation::current(), Rec};
}

void Tracer::close(Layer L) {
  uint64_t End = nowNs();
  if (Depth == 0 || Stack[Depth - 1].L != L) {
    std::fprintf(stderr, "perfbench: span %s closed out of order\n",
                 layerName(L));
    std::abort();
  }
  const Frame &F = Stack[--Depth];
  uint64_t Dur = End - F.Start;
  size_t I = static_cast<size_t>(L);
  T.DurNs[I] += Dur;
  T.SelfNs[I] += Dur - F.ChildNs;
  ++T.Spans[I];
  if (F.Record) {
    Records[F.Record - 1].StartNs = F.Start;
    Records[F.Record - 1].EndNs = End;
  }
  if (Depth)
    Stack[Depth - 1].ChildNs += Dur;
}

bool Tracer::topOwnedByCurrent() const {
  return Depth && Stack[Depth - 1].Owner == promises::sim::Simulation::current();
}

void Tracer::chargeAlloc() {
  const void *Cur = promises::sim::Simulation::current();
  for (size_t I = Depth; I-- > 0;)
    if (Stack[I].Owner == Cur) {
      ++T.Allocs[static_cast<size_t>(Stack[I].L)];
      return;
    }
  ++T.Allocs[static_cast<size_t>(Layer::Sched)];
}

bool Tracer::writeChromeTrace(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fputs("{\"traceEvents\": [\n", F);
  uint64_t Base = Records.empty() ? 0 : Records.front().StartNs;
  for (size_t I = 0; I != Records.size(); ++I) {
    const SpanRecord &R = Records[I];
    std::fprintf(F,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 0, \"tid\": 0, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                 "\"parent\": %u}}\n",
                 I ? "," : "", layerName(R.L), (R.StartNs - Base) / 1e3,
                 (R.EndNs - R.StartNs) / 1e3, I + 1, R.Parent);
  }
  std::fputs("]}\n", F);
  return std::fclose(F) == 0;
}

} // namespace perfbench
