//===- AllocHook.cpp - Counting operator new/delete replacements ----------===//
//
// Part of the promises project (PLDI 1988 reproduction).
//
//===----------------------------------------------------------------------===//

#include "AllocHook.h"

#include <atomic>
#include <cstdlib>
#include <new>

static std::atomic<uint64_t> GAllocs{0};
static std::atomic<uint64_t> GLargeAllocs{0};

void *operator new(std::size_t N) {
  GAllocs.fetch_add(1, std::memory_order_relaxed);
  if (N >= LargeAllocBytes)
    GLargeAllocs.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(N ? N : 1))
    return P;
  throw std::bad_alloc();
}
void *operator new[](std::size_t N) { return ::operator new(N); }
void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }

uint64_t allocCount() { return GAllocs.load(std::memory_order_relaxed); }
uint64_t largeAllocCount() {
  return GLargeAllocs.load(std::memory_order_relaxed);
}
