//===- AllocHook.h - hotpath_test's allocation counters ---------*- C++ -*-===//
//
// Part of the promises project (PLDI 1988 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Counters kept by the global operator new/delete replacements in
/// AllocHook.cpp. The replacements live in their own translation unit:
/// next to the tests, GCC inlines the replacement delete (a free()) into
/// container destructors whose memory came from the out-of-line
/// operator new, and reports the pair as -Wmismatched-new-delete.
///
//===----------------------------------------------------------------------===//

#ifndef PROMISES_TESTS_ALLOCHOOK_H
#define PROMISES_TESTS_ALLOCHOOK_H

#include <cstddef>
#include <cstdint>

/// Allocations of at least this many bytes are also counted apart.
constexpr std::size_t LargeAllocBytes = 64 * 1024;

/// Heap allocations made by the process so far.
uint64_t allocCount();
/// Allocations of at least LargeAllocBytes so far.
uint64_t largeAllocCount();

#endif // PROMISES_TESTS_ALLOCHOOK_H
