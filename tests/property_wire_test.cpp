//===- property_wire_test.cpp - Wire-format robustness sweeps -------------===//
//
// Part of the promises project (PLDI 1988 reproduction).
//
// Fuzz-style properties for the external representation and the stream
// message codecs. Every message goes through the one send path,
// encodeFramedMessage -> openFrameInPlace -> decodeMessage; W1-W3 attack
// the payload that path seals:
//
//   W1 decodeMessage never crashes and never fabricates trailing-garbage
//      acceptance, for random bytes;
//   W2 truncating a valid message at any byte boundary yields a clean
//      decode failure (or, never, a different valid message accepted as
//      complete);
//   W3 single-byte corruptions are either rejected or decode to *some*
//      message without memory errors (semantic validation is the
//      transport's job — incarnation/seq checks — not the codec's);
//   W4 round-trips are stable under random message contents;
//   W5 encodeFramedMessage is byte for byte the frame written out by hand:
//      the 10-byte header field by field, the kind byte, the Codec<> body.
//
//===----------------------------------------------------------------------===//

#include "promises/stream/Messages.h"
#include "promises/support/Rng.h"
#include "promises/wire/Frame.h"

#include <gtest/gtest.h>

using namespace promises;
using namespace promises::stream;

namespace {

wire::Bytes randomBytes(Rng &R, size_t MaxLen) {
  wire::Bytes B(R.below(MaxLen + 1));
  for (auto &Byte : B)
    Byte = static_cast<uint8_t>(R.below(256));
  return B;
}

Message randomMessage(Rng &R) {
  auto RandomPayload = [&] { return randomBytes(R, 40); };
  if (R.chance(0.5)) {
    CallBatchMsg M;
    M.Agent = R.next();
    M.Group = static_cast<GroupId>(R.below(1 << 16));
    M.Inc = static_cast<Incarnation>(R.below(1 << 10));
    M.AckReplyThrough = R.below(1 << 20);
    M.FlushReplies = R.chance(0.5);
    size_t N = R.below(6);
    for (size_t I = 0; I != N; ++I) {
      CallReq C;
      C.S = R.below(1 << 20);
      C.Port = static_cast<PortId>(R.below(1 << 12));
      C.NoReply = R.chance(0.3);
      C.FlushReply = R.chance(0.2);
      C.Args = RandomPayload();
      M.Calls.push_back(std::move(C));
    }
    return Message(std::move(M));
  }
  ReplyBatchMsg M;
  M.Agent = R.next();
  M.Group = static_cast<GroupId>(R.below(1 << 16));
  M.Inc = static_cast<Incarnation>(R.below(1 << 10));
  M.AckCallThrough = R.below(1 << 20);
  M.CompletedThrough = R.below(1 << 20);
  M.Broken = R.chance(0.2);
  M.BreakIsFailure = R.chance(0.5);
  if (M.Broken)
    M.BreakReason = "reason-" + std::to_string(R.below(100));
  size_t N = R.below(6);
  for (size_t I = 0; I != N; ++I) {
    WireReply W;
    W.S = R.below(1 << 20);
    W.Status = static_cast<ReplyStatus>(R.below(3));
    W.ExTag = static_cast<uint32_t>(R.below(8));
    W.Payload = RandomPayload();
    if (W.Status == ReplyStatus::Failure)
      W.Reason = "why-" + std::to_string(R.below(100));
    M.Replies.push_back(std::move(W));
  }
  return Message(std::move(M));
}

CancelMsg randomCancel(Rng &R) {
  CancelMsg M;
  M.Agent = R.next();
  M.Group = static_cast<GroupId>(R.below(1 << 16));
  M.Inc = static_cast<Incarnation>(R.below(1 << 10));
  size_t N = R.below(6);
  for (size_t I = 0; I != N; ++I)
    M.Seqs.push_back(R.below(1 << 20));
  return M;
}

/// The payload encodeFramedMessage() seals for \p M, read back through
/// the receive path's frame validation.
wire::Bytes payloadOf(const Message &M) {
  wire::Bytes Frame = encodeFramedMessage(M, true);
  std::optional<wire::ByteView> Payload = wire::openFrameInPlace(Frame);
  if (!Payload) {
    ADD_FAILURE() << "a freshly sealed frame failed to open";
    return {};
  }
  return wire::Bytes(Payload->begin(), Payload->end());
}

/// The frame \p M must seal to, built without encodeFramedMessage(): the
/// kind byte and Codec<> body, then the 10-byte header written out in
/// full — magic 0xD5, version 1, little-endian payload length and CRC32C
/// (zero when \p Checksum is off).
wire::Bytes handBuiltFrame(const Message &M, bool Checksum) {
  wire::Encoder Body;
  if (const auto *CB = std::get_if<CallBatchMsg>(&M)) {
    Body.writeU8(1);
    wire::Codec<CallBatchMsg>::encode(Body, *CB);
  } else if (const auto *RB = std::get_if<ReplyBatchMsg>(&M)) {
    Body.writeU8(2);
    wire::Codec<ReplyBatchMsg>::encode(Body, *RB);
  } else {
    Body.writeU8(3);
    wire::Codec<CancelMsg>::encode(Body, std::get<CancelMsg>(M));
  }
  wire::Bytes Payload = Body.take();
  auto Len = static_cast<uint32_t>(Payload.size());
  uint32_t Crc = Checksum ? wire::crc32c(Payload) : 0;
  wire::Bytes Frame = {0xD5,
                       0x01,
                       static_cast<uint8_t>(Len),
                       static_cast<uint8_t>(Len >> 8),
                       static_cast<uint8_t>(Len >> 16),
                       static_cast<uint8_t>(Len >> 24),
                       static_cast<uint8_t>(Crc),
                       static_cast<uint8_t>(Crc >> 8),
                       static_cast<uint8_t>(Crc >> 16),
                       static_cast<uint8_t>(Crc >> 24)};
  Frame.insert(Frame.end(), Payload.begin(), Payload.end());
  return Frame;
}

class WireFuzzSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WireFuzzSweep, RandomBytesNeverCrashDecode) { // W1
  Rng R(GetParam());
  for (int I = 0; I < 500; ++I) {
    wire::Bytes B = randomBytes(R, 200);
    auto M = decodeMessage(B); // Must not crash or overread.
    if (M) {
      // Anything accepted must re-encode to the same bytes (canonical
      // form): acceptance of garbage-with-slack is a framing bug.
      EXPECT_EQ(payloadOf(*M), B);
    }
  }
}

TEST_P(WireFuzzSweep, TruncationsFailCleanly) { // W2
  Rng R(GetParam());
  for (int I = 0; I < 60; ++I) {
    wire::Bytes Full = payloadOf(randomMessage(R));
    for (size_t Cut = 0; Cut < Full.size(); ++Cut) {
      wire::Bytes Trunc(Full.begin(),
                        Full.begin() + static_cast<long>(Cut));
      auto M = decodeMessage(Trunc);
      // A strict prefix can never be a complete message of this format
      // (every variable-length field is length-prefixed).
      EXPECT_FALSE(M.has_value()) << "cut at " << Cut;
    }
  }
}

TEST_P(WireFuzzSweep, SingleByteCorruptionIsMemorySafe) { // W3
  Rng R(GetParam());
  for (int I = 0; I < 60; ++I) {
    wire::Bytes Full = payloadOf(randomMessage(R));
    wire::Bytes Mutated = Full;
    size_t Pos = R.below(Mutated.size());
    Mutated[Pos] ^= static_cast<uint8_t>(1 + R.below(255));
    auto M = decodeMessage(Mutated); // Reject or accept; never crash.
    (void)M;
  }
}

TEST_P(WireFuzzSweep, RandomMessagesRoundTrip) { // W4
  Rng R(GetParam());
  for (int I = 0; I < 200; ++I) {
    Message M = randomMessage(R);
    wire::Bytes Frame = encodeFramedMessage(M, true);
    std::optional<wire::ByteView> Payload = wire::openFrameInPlace(Frame);
    ASSERT_TRUE(Payload.has_value());
    auto Decoded = decodeMessage(*Payload);
    ASSERT_TRUE(Decoded.has_value());
    EXPECT_TRUE(M == *Decoded);
  }
}

TEST_P(WireFuzzSweep, FramedEncodeMatchesHandBuiltFrame) { // W5
  Rng R(GetParam());
  for (int I = 0; I < 200; ++I) {
    Message M = R.chance(0.2) ? Message(randomCancel(R)) : randomMessage(R);
    for (bool Checksum : {true, false}) {
      wire::Bytes Frame = encodeFramedMessage(M, Checksum);
      EXPECT_EQ(Frame, handBuiltFrame(M, Checksum));
      std::optional<wire::ByteView> Payload =
          wire::openFrameInPlace(Frame, Checksum);
      ASSERT_TRUE(Payload.has_value());
      auto Decoded = decodeMessage(*Payload);
      ASSERT_TRUE(Decoded.has_value());
      EXPECT_TRUE(M == *Decoded);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireFuzzSweep,
                         ::testing::Values(101, 202, 303, 404, 505));

} // namespace
