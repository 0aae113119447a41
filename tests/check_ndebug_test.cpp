//===- check_ndebug_test.cpp - PROMISES_CHECK under NDEBUG ----------------===//
//
// Part of the promises project (PLDI 1988 reproduction).
//
// The assertion-hole regression test: this binary is compiled with NDEBUG
// defined (see tests/CMakeLists.txt), so every plain assert() in the
// library is stripped — exactly the configuration a release deployment
// ships. The invariants promoted to PROMISES_CHECK must still abort here:
// before the sweep, a failed encode in such a build silently sealed and
// sent a garbage frame.
//
//===----------------------------------------------------------------------===//

#ifndef NDEBUG
#error "check_ndebug_test must be compiled with NDEBUG (see CMakeLists.txt)"
#endif

#include "promises/stream/Messages.h"
#include "promises/support/Check.h"
#include "promises/wire/Encoder.h"
#include "promises/wire/Frame.h"

#include <gtest/gtest.h>

using namespace promises;

namespace {

stream::Message callBatchWithArgBytes(size_t N) {
  stream::CallBatchMsg M;
  M.Agent = 1;
  M.Group = 1;
  M.Inc = 1;
  stream::CallReq C;
  C.S = 1;
  C.Port = 1;
  C.Args = wire::Bytes(N, 0x55);
  M.Calls.push_back(std::move(C));
  return M;
}

} // namespace

TEST(CheckNDebug, MacroItselfSurvivesNDebug) {
  // assert() is dead in this translation unit; PROMISES_CHECK is not.
  EXPECT_DEATH(PROMISES_CHECK(false, "must fire under NDEBUG"),
               "PROMISES_CHECK failed: must fire under NDEBUG");
  PROMISES_CHECK(true, "passing check is silent");
}

TEST(CheckNDebug, OversizedArgsAbortInsteadOfSealingGarbage) {
  // Args one byte over MaxStringBytes makes Encoder::writeBytes fail the
  // encoder. In the pre-sweep code the guard was a bare assert: under
  // NDEBUG the transport went on to seal and send the half-written frame.
  stream::Message M = callBatchWithArgBytes(wire::MaxStringBytes + 1);
  EXPECT_DEATH((void)stream::encodeFramedMessage(M, true),
               "PROMISES_CHECK failed: stream messages must always encode");
}

TEST(CheckNDebug, FrameLimitOverflowAbortsInsteadOfSealingGarbage) {
  // Each byte sequence is within MaxStringBytes, but batch framing
  // overhead pushes the total payload past MaxFramePayloadBytes, so the
  // failure surfaces in finishFrame() rather than writeBytes().
  stream::Message M = callBatchWithArgBytes(wire::MaxStringBytes);
  EXPECT_DEATH((void)stream::encodeFramedMessage(M, true),
               "PROMISES_CHECK failed: stream message exceeds the frame limit");
}

TEST(CheckNDebug, InBoundsMessageStillEncodes) {
  // Control: a payload comfortably inside both limits seals fine with
  // NDEBUG defined, proving the checks are branches, not build-mode traps.
  stream::Message M = callBatchWithArgBytes(1024);
  wire::Bytes F = stream::encodeFramedMessage(M, true);
  auto Payload = wire::openFrame(F, true);
  ASSERT_TRUE(Payload.has_value());
  auto Decoded = stream::decodeMessage(*Payload);
  ASSERT_TRUE(Decoded.has_value());
  EXPECT_TRUE(*Decoded == M);
}
