//===- wire_frame_test.cpp - Frame header + checksum tests ----------------===//
//
// Part of the promises project (PLDI 1988 reproduction).
//
//===----------------------------------------------------------------------===//
//
// The datagram frame layer (docs/PROTOCOL.md): CRC32C, the versioned
// header, and openFrame's rejection taxonomy. Every corruption class maps
// to a distinct FrameError so dropped frames are diagnosable from counters
// and trace events alone.
//
//===----------------------------------------------------------------------===//

#include "promises/wire/Frame.h"

#include <gtest/gtest.h>

using namespace promises;
using namespace promises::wire;

namespace {

Bytes bytes(std::initializer_list<uint8_t> L) { return Bytes(L); }

TEST(Crc32c, KnownAnswers) {
  // The canonical CRC-32C check value (RFC 3720 appendix, and every other
  // Castagnoli implementation): crc32c("123456789") == 0xE3069283.
  const char *Digits = "123456789";
  EXPECT_EQ(crc32c(reinterpret_cast<const uint8_t *>(Digits), 9), 0xE3069283u);
  // Empty input.
  EXPECT_EQ(crc32c(nullptr, 0), 0u);
  // 32 zero bytes (another published vector): 0x8A9136AA.
  Bytes Zeros(32, 0);
  EXPECT_EQ(crc32c(Zeros), 0x8A9136AAu);
}

TEST(Crc32c, SeedChains) {
  // Checksumming in two chunks with chaining equals one pass.
  Bytes B = bytes({1, 2, 3, 4, 5, 6, 7, 8});
  uint32_t Whole = crc32c(B);
  uint32_t Half = crc32c(B.data(), 4);
  EXPECT_EQ(crc32c(B.data() + 4, 4, Half), Whole);
}

// RFC 3720 appendix B.4 test vectors, checked against \p Crc.
void expectRfc3720Vectors(uint32_t (*Crc)(const uint8_t *, size_t,
                                          uint32_t)) {
  Bytes Zeros(32, 0x00), Ones(32, 0xFF), Up(32), Down(32);
  for (uint8_t I = 0; I != 32; ++I) {
    Up[I] = I;
    Down[I] = static_cast<uint8_t>(31 - I);
  }
  EXPECT_EQ(Crc(Zeros.data(), Zeros.size(), 0), 0x8A9136AAu);
  EXPECT_EQ(Crc(Ones.data(), Ones.size(), 0), 0x62A8AB43u);
  EXPECT_EQ(Crc(Up.data(), Up.size(), 0), 0x46DD794Eu);
  EXPECT_EQ(Crc(Down.data(), Down.size(), 0), 0x113FDB5Cu);
}

TEST(Crc32c, PortableMatchesRfc3720Vectors) {
  expectRfc3720Vectors(crc32cPortable);
}

TEST(Crc32c, HardwareMatchesRfc3720Vectors) {
  if (!crc32cHardwareAvailable())
    GTEST_SKIP() << "CPU lacks the SSE4.2 crc32 instruction";
  expectRfc3720Vectors(crc32cHardware);
}

TEST(Crc32c, HardwareEqualsPortableAtEveryLengthAndOffset) {
  if (!crc32cHardwareAvailable())
    GTEST_SKIP() << "CPU lacks the SSE4.2 crc32 instruction";
  // Every length 0..4200 (partial words, whole words, many words) at every
  // start offset 0..7 (every alignment). Each result seeds the next call,
  // so chained, nonzero seeds are covered too.
  constexpr size_t MaxLen = 4200;
  Bytes Buf(MaxLen + 8);
  uint32_t X = 0x9E3779B9u;
  for (uint8_t &B : Buf) {
    X = X * 1664525u + 1013904223u;
    B = static_cast<uint8_t>(X >> 24);
  }
  uint32_t Seed = 0;
  size_t Mismatches = 0;
  for (size_t Off = 0; Off != 8; ++Off)
    for (size_t Len = 0; Len <= MaxLen; ++Len) {
      uint32_t Portable = crc32cPortable(Buf.data() + Off, Len, Seed);
      if (crc32cHardware(Buf.data() + Off, Len, Seed) != Portable &&
          Mismatches++ < 5)
        ADD_FAILURE() << "offset " << Off << " length " << Len;
      Seed = Portable;
    }
  EXPECT_EQ(Mismatches, 0u);
}

TEST(Frame, SealOpenRoundTrips) {
  for (size_t N : {size_t(0), size_t(1), size_t(17), size_t(4096)}) {
    Bytes Payload(N);
    for (size_t I = 0; I != N; ++I)
      Payload[I] = static_cast<uint8_t>(I * 37 + 11);
    Bytes Frame = sealFrame(Payload);
    EXPECT_EQ(Frame.size(), FrameHeaderBytes + N);
    FrameError Err = FrameError::BadMagic; // Must be reset to None.
    auto Opened = openFrame(Frame, true, &Err);
    ASSERT_TRUE(Opened.has_value()) << "payload size " << N;
    EXPECT_EQ(*Opened, Payload);
    EXPECT_EQ(Err, FrameError::None);
  }
}

TEST(Frame, EveryHeaderByteIsChecked) {
  Bytes Frame = sealFrame(bytes({0xAA, 0xBB, 0xCC}));

  // Truncated: shorter than the header.
  for (size_t N = 0; N != FrameHeaderBytes; ++N) {
    Bytes Short(Frame.begin(), Frame.begin() + N);
    FrameError Err = FrameError::None;
    EXPECT_FALSE(openFrame(Short, true, &Err).has_value());
    EXPECT_EQ(Err, FrameError::Truncated);
  }

  // Bad magic.
  {
    Bytes F = Frame;
    F[0] ^= 0xFF;
    FrameError Err = FrameError::None;
    EXPECT_FALSE(openFrame(F, true, &Err).has_value());
    EXPECT_EQ(Err, FrameError::BadMagic);
  }

  // Bad version.
  {
    Bytes F = Frame;
    F[1] = FrameVersion + 1;
    FrameError Err = FrameError::None;
    EXPECT_FALSE(openFrame(F, true, &Err).has_value());
    EXPECT_EQ(Err, FrameError::BadVersion);
  }

  // Length disagrees with the actual byte count (both directions).
  {
    Bytes F = Frame;
    F.pop_back();
    FrameError Err = FrameError::None;
    EXPECT_FALSE(openFrame(F, true, &Err).has_value());
    EXPECT_EQ(Err, FrameError::BadLength);
  }
  {
    Bytes F = Frame;
    F.push_back(0);
    FrameError Err = FrameError::None;
    EXPECT_FALSE(openFrame(F, true, &Err).has_value());
    EXPECT_EQ(Err, FrameError::BadLength);
  }

  // Oversized: a hostile length field is rejected before any comparison
  // against the real size could allocate or wrap.
  {
    Bytes F = Frame;
    uint32_t Huge = MaxFramePayloadBytes + 1;
    for (size_t I = 0; I != 4; ++I)
      F[2 + I] = static_cast<uint8_t>(Huge >> (8 * I));
    FrameError Err = FrameError::None;
    EXPECT_FALSE(openFrame(F, true, &Err).has_value());
    EXPECT_EQ(Err, FrameError::Oversized);
  }

  // Payload damage: only the checksum can catch it.
  {
    Bytes F = Frame;
    F.back() ^= 0x01;
    FrameError Err = FrameError::None;
    EXPECT_FALSE(openFrame(F, true, &Err).has_value());
    EXPECT_EQ(Err, FrameError::BadChecksum);
  }

  // Checksum field damage.
  {
    Bytes F = Frame;
    F[6] ^= 0x01;
    FrameError Err = FrameError::None;
    EXPECT_FALSE(openFrame(F, true, &Err).has_value());
    EXPECT_EQ(Err, FrameError::BadChecksum);
  }
}

TEST(Frame, ChecksumAblation) {
  // FrameChecksums=false seals with a zero CRC and skips verification;
  // the structural header checks still apply. This is the benchmark
  // ablation knob, not a wire option (see StreamConfig::FrameChecksums).
  Bytes Payload = bytes({1, 2, 3});
  Bytes Unsummed = sealFrame(Payload, /*Checksum=*/false);
  EXPECT_FALSE(openFrame(Unsummed, /*VerifyChecksum=*/true).has_value());
  auto Opened = openFrame(Unsummed, /*VerifyChecksum=*/false);
  ASSERT_TRUE(Opened.has_value());
  EXPECT_EQ(*Opened, Payload);

  // A verifying receiver still accepts checksummed frames, and a
  // non-verifying receiver accepts them too (the CRC is simply ignored).
  Bytes Summed = sealFrame(Payload, /*Checksum=*/true);
  EXPECT_TRUE(openFrame(Summed, /*VerifyChecksum=*/false).has_value());

  // Structural damage is caught even with verification off.
  Bytes F = Unsummed;
  F[0] ^= 0xFF;
  FrameError Err = FrameError::None;
  EXPECT_FALSE(openFrame(F, /*VerifyChecksum=*/false, &Err).has_value());
  EXPECT_EQ(Err, FrameError::BadMagic);
}

TEST(Frame, TrailingBytesRejectedInStrictMode) {
  // Without the out-param, any size mismatch — including extra bytes past
  // the declared payload — is BadLength, byte-for-byte as before.
  Bytes Frame = sealFrame(bytes({0x10, 0x20, 0x30}));
  Bytes Padded = Frame;
  Padded.push_back(0xEE);
  Padded.push_back(0xFF);
  FrameError Err = FrameError::None;
  EXPECT_FALSE(openFrame(Padded, true, &Err).has_value());
  EXPECT_EQ(Err, FrameError::BadLength);
}

TEST(Frame, TrailingBytesToleratedAndCounted) {
  Bytes Payload = bytes({0x10, 0x20, 0x30});
  Bytes Frame = sealFrame(Payload);

  // Exact-length frame: tolerant mode reports zero trailing bytes.
  size_t Trailing = 1234;
  FrameError Err = FrameError::BadMagic;
  auto Opened = openFrame(Frame, true, &Err, &Trailing);
  ASSERT_TRUE(Opened.has_value());
  EXPECT_EQ(*Opened, Payload);
  EXPECT_EQ(Err, FrameError::None);
  EXPECT_EQ(Trailing, 0u);

  // Junk appended past the declared length: accepted, payload sliced to
  // the declared length (the junk never reaches the decoder), and the
  // excess is reported for the net.frames_trailing_bytes counter.
  Bytes Padded = Frame;
  for (uint8_t J : {0xDE, 0xAD, 0xBE, 0xEF, 0x00})
    Padded.push_back(J);
  Trailing = 0;
  Err = FrameError::BadMagic;
  Opened = openFrame(Padded, true, &Err, &Trailing);
  ASSERT_TRUE(Opened.has_value());
  EXPECT_EQ(*Opened, Payload);
  EXPECT_EQ(Err, FrameError::None);
  EXPECT_EQ(Trailing, 5u);

  // The trailing bytes are excluded from checksum verification: damaging
  // them must not turn a valid frame into BadChecksum.
  Bytes Damaged = Padded;
  Damaged.back() ^= 0xFF;
  EXPECT_TRUE(openFrame(Damaged, true, nullptr, &Trailing).has_value());
  EXPECT_EQ(Trailing, 5u);

  // A buffer shorter than declared is still BadLength in tolerant mode,
  // and the out-param resets to zero on the reject path.
  Bytes Short = Frame;
  Short.pop_back();
  Trailing = 77;
  Err = FrameError::None;
  EXPECT_FALSE(openFrame(Short, true, &Err, &Trailing).has_value());
  EXPECT_EQ(Err, FrameError::BadLength);
  EXPECT_EQ(Trailing, 0u);
}

TEST(Frame, RejectedPaddedFrameReportsNoTrailingBytes) {
  // A padded frame whose payload fails the checksum is dropped whole; its
  // trailing bytes must not be reported, or the transport would count
  // them in net.frames_trailing_bytes for a frame it never accepted.
  Bytes Padded = sealFrame(bytes({0x10, 0x20, 0x30}));
  Padded.push_back(0xEE);
  Padded.push_back(0xFF);
  Padded[FrameHeaderBytes] ^= 0x01;
  size_t Trailing = 99;
  FrameError Err = FrameError::None;
  EXPECT_FALSE(openFrame(Padded, true, &Err, &Trailing).has_value());
  EXPECT_EQ(Err, FrameError::BadChecksum);
  EXPECT_EQ(Trailing, 0u);

  Trailing = 99;
  EXPECT_FALSE(openFrameInPlace(Padded, true, &Err, &Trailing).has_value());
  EXPECT_EQ(Err, FrameError::BadChecksum);
  EXPECT_EQ(Trailing, 0u);
}

TEST(Frame, InPlaceOpenViewsThePayloadInsideTheFrame) {
  Bytes Payload = bytes({0x01, 0x02, 0x03, 0x04});
  Bytes Padded = sealFrame(Payload);
  Padded.push_back(0xEE);
  size_t Trailing = 0;
  auto View = openFrameInPlace(Padded, true, nullptr, &Trailing);
  ASSERT_TRUE(View.has_value());
  EXPECT_EQ(View->data(), Padded.data() + FrameHeaderBytes);
  EXPECT_EQ(Bytes(View->begin(), View->end()), Payload);
  EXPECT_EQ(Trailing, 1u);
}

TEST(Frame, ErrorNamesAreDistinct) {
  EXPECT_STREQ(frameErrorName(FrameError::None), "none");
  EXPECT_STREQ(frameErrorName(FrameError::Truncated), "truncated");
  EXPECT_STREQ(frameErrorName(FrameError::BadMagic), "bad magic");
  EXPECT_STREQ(frameErrorName(FrameError::BadVersion), "bad version");
  EXPECT_STREQ(frameErrorName(FrameError::BadLength), "bad length");
  EXPECT_STREQ(frameErrorName(FrameError::Oversized), "oversized");
  EXPECT_STREQ(frameErrorName(FrameError::BadChecksum), "bad checksum");
}

TEST(Frame, ErrPointerIsOptional) {
  Bytes F = sealFrame(bytes({9}));
  F[0] = 0;
  EXPECT_FALSE(openFrame(F).has_value()); // Must not dereference null.
}

} // namespace
