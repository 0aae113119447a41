//===- promises/wire/Frame.h - Checksummed datagram frames -----*- C++ -*-===//
//
// Part of the promises project (PLDI 1988 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The wire-integrity layer under the call-stream protocol: every datagram
/// the stream transport sends is wrapped in a small versioned frame whose
/// CRC32C checksum is verified before any decoding happens. The paper's
/// model assigns transport damage to the built-in `failure`/`unavailable`
/// exceptions (Section 3); this layer is how damage is *detected* — a
/// corrupt frame is dropped as if lost and recovered by retransmission,
/// never handed to the message decoder.
///
/// Frame layout (all multi-byte fields little-endian):
///
///   offset 0  u8   magic    (0xD5)
///   offset 1  u8   version  (1)
///   offset 2  u32  payload length
///   offset 6  u32  CRC32C of the payload bytes
///   offset 10      payload
///
/// The checksum covers only the payload; the header fields are validated
/// structurally (magic, version, length == frame size - header size), so
/// every corruption class maps to a distinct FrameError.
///
//===----------------------------------------------------------------------===//

#ifndef PROMISES_WIRE_FRAME_H
#define PROMISES_WIRE_FRAME_H

#include "promises/wire/Encoder.h"

#include <array>
#include <cstdint>
#include <cstring>
#include <optional>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
#define PROMISES_HAVE_X86_CRC32C 1
#else
#define PROMISES_HAVE_X86_CRC32C 0
#endif

namespace promises::wire {

/// CRC32C (Castagnoli), reflected polynomial 0x82F63B78, over \p Len
/// bytes continuing from \p Seed (a previous result, or 0 to start).
/// Known answer: crc32c("123456789") == 0xE3069283.
///
/// Two implementations compute the same function. crc32cHardware() uses
/// the SSE4.2 `crc32` instruction, eight bytes per step; crc32cPortable()
/// is the byte-at-a-time table loop, kept as the fallback for CPUs (and
/// non-x86 targets) without the instruction. crc32c() picks one once per
/// process from CPUID. Stream frames and StableStore WAL records both
/// checksum through crc32c(), so the bytes on the wire and on media do
/// not depend on which path ran.
inline uint32_t crc32cPortable(const uint8_t *Data, size_t Len,
                               uint32_t Seed = 0) {
  static const std::array<uint32_t, 256> Table = [] {
    std::array<uint32_t, 256> T{};
    for (uint32_t I = 0; I != 256; ++I) {
      uint32_t C = I;
      for (int K = 0; K != 8; ++K)
        C = (C & 1) ? (0x82F63B78u ^ (C >> 1)) : (C >> 1);
      T[I] = C;
    }
    return T;
  }();
  uint32_t Crc = ~Seed;
  for (size_t I = 0; I != Len; ++I)
    Crc = Table[(Crc ^ Data[I]) & 0xFF] ^ (Crc >> 8);
  return ~Crc;
}

#if PROMISES_HAVE_X86_CRC32C
/// True when the running CPU implements the SSE4.2 `crc32` instruction.
inline bool crc32cHardwareAvailable() {
  __builtin_cpu_init(); // In case this runs before libgcc's constructor.
  return __builtin_cpu_supports("sse4.2");
}

/// The SSE4.2 path; call only when crc32cHardwareAvailable(). The
/// instruction consumes little-endian words, which on x86 is the byte
/// order the reflected table loop walks, so both paths agree bit for bit.
__attribute__((target("sse4.2"))) inline uint32_t
crc32cHardware(const uint8_t *Data, size_t Len, uint32_t Seed = 0) {
  uint64_t Crc = ~Seed;
  for (; Len >= 8; Data += 8, Len -= 8) {
    uint64_t Word;
    std::memcpy(&Word, Data, 8);
    Crc = _mm_crc32_u64(Crc, Word);
  }
  uint32_t Crc32 = static_cast<uint32_t>(Crc);
  for (; Len != 0; ++Data, --Len)
    Crc32 = _mm_crc32_u8(Crc32, *Data);
  return ~Crc32;
}
#else
inline bool crc32cHardwareAvailable() { return false; }

/// No crc32 instruction on this target: the portable loop stands in.
inline uint32_t crc32cHardware(const uint8_t *Data, size_t Len,
                               uint32_t Seed = 0) {
  return crc32cPortable(Data, Len, Seed);
}
#endif

inline uint32_t crc32c(const uint8_t *Data, size_t Len, uint32_t Seed = 0) {
  static const bool Hardware = crc32cHardwareAvailable();
  return Hardware ? crc32cHardware(Data, Len, Seed)
                  : crc32cPortable(Data, Len, Seed);
}

inline uint32_t crc32c(const Bytes &B, uint32_t Seed = 0) {
  return crc32c(B.data(), B.size(), Seed);
}

/// Buffer-traffic tallies for the seal path (docs/OBSERVABILITY.md).
/// Single-runner discipline (at most one simulated process runs at a
/// time), so plain counters suffice. PayloadBytesCopied counts payload
/// bytes memcpy'd into a second buffer while sealing: the legacy
/// encode-then-copy sealFrame() pays Payload.size() per frame, the
/// in-place finishFrame() path pays zero. Tests and bench_hotpath read
/// and reset these to prove the zero-copy property holds.
struct FrameStats {
  uint64_t FramesSealed = 0;        ///< sealFrame() calls (copying path).
  uint64_t FramesSealedInPlace = 0; ///< finishFrame() calls (zero-copy).
  uint64_t PayloadBytesCopied = 0;  ///< Payload bytes copied while sealing.
};

inline FrameStats &frameStats() {
  static FrameStats S;
  return S;
}

/// First byte of every frame.
inline constexpr uint8_t FrameMagic = 0xD5;

/// Current frame format version.
inline constexpr uint8_t FrameVersion = 1;

/// Bytes of header before the payload.
inline constexpr size_t FrameHeaderBytes = 10;

/// Hard cap on the payload a frame may carry; anything larger is rejected
/// before allocation. Far above any batch the transport produces.
inline constexpr uint32_t MaxFramePayloadBytes = 1u << 20;

/// Why openFrame() rejected a frame. Each corruption class is distinct so
/// drops can be traced with a cause.
enum class FrameError : uint8_t {
  None,
  Truncated,   ///< Shorter than the fixed header.
  BadMagic,    ///< First byte is not FrameMagic.
  BadVersion,  ///< Unknown format version.
  BadLength,   ///< Header length disagrees with the frame size.
  Oversized,   ///< Declared payload exceeds MaxFramePayloadBytes.
  BadChecksum, ///< Payload CRC32C mismatch.
};

inline const char *frameErrorName(FrameError E) {
  switch (E) {
  case FrameError::None:
    return "none";
  case FrameError::Truncated:
    return "truncated";
  case FrameError::BadMagic:
    return "bad magic";
  case FrameError::BadVersion:
    return "bad version";
  case FrameError::BadLength:
    return "bad length";
  case FrameError::Oversized:
    return "oversized";
  case FrameError::BadChecksum:
    return "bad checksum";
  }
  return "unknown";
}

/// Wraps \p Payload in a frame header. With \p Checksum false the CRC
/// field is written as zero (the ablation knob for measuring checksum
/// cost); the receiver must then also skip verification.
inline Bytes sealFrame(const Bytes &Payload, bool Checksum = true) {
  frameStats().FramesSealed++;
  frameStats().PayloadBytesCopied += Payload.size();
  Bytes Out;
  Out.reserve(FrameHeaderBytes + Payload.size());
  Out.push_back(FrameMagic);
  Out.push_back(FrameVersion);
  uint32_t Len = static_cast<uint32_t>(Payload.size());
  for (size_t I = 0; I != 4; ++I)
    Out.push_back(static_cast<uint8_t>(Len >> (8 * I)));
  uint32_t Crc = Checksum ? crc32c(Payload) : 0;
  for (size_t I = 0; I != 4; ++I)
    Out.push_back(static_cast<uint8_t>(Crc >> (8 * I)));
  Out.insert(Out.end(), Payload.begin(), Payload.end());
  return Out;
}

/// Begins a zero-copy framed encode: writes a placeholder frame header
/// into the (must-be-empty) encoder, presized for \p PayloadSizeHint
/// payload bytes so that a correct hint makes the entire seal a single
/// allocation. The caller encodes the payload directly after the header
/// and then calls finishFrame() — no intermediate payload buffer ever
/// exists. See docs/PROTOCOL.md, "Buffer ownership and the zero-copy
/// send path".
inline void beginFrame(Encoder &E, size_t PayloadSizeHint = 0) {
  E.reserve(FrameHeaderBytes + PayloadSizeHint);
  E.writeU8(FrameMagic);
  E.writeU8(FrameVersion);
  E.writeU32(0); // Payload length, patched by finishFrame().
  E.writeU32(0); // Payload CRC32C, patched by finishFrame().
}

/// Seals a frame begun with beginFrame() in place: patches the real
/// payload length and CRC32C into the reserved header and moves the
/// buffer out. Fails the encoder (and returns empty) on an oversized
/// payload or a prior encode failure — callers must check E.failed()
/// before transmitting. With \p Checksum false the CRC field stays zero
/// (same ablation knob as sealFrame).
inline Bytes finishFrame(Encoder &E, bool Checksum = true) {
  if (E.failed())
    return {};
  size_t PayloadLen = E.size() - FrameHeaderBytes;
  if (PayloadLen > MaxFramePayloadBytes) {
    E.fail("frame payload too large");
    return {};
  }
  E.patchU32(2, static_cast<uint32_t>(PayloadLen));
  if (Checksum)
    E.patchU32(6, crc32c(E.bytes().data() + FrameHeaderBytes, PayloadLen));
  frameStats().FramesSealedInPlace++;
  return E.take();
}

/// Validates \p Frame and returns a view of its payload inside \p Frame,
/// or std::nullopt with \p Err (if non-null) set to the rejection cause.
/// Never reads past the buffer and never allocates; the view is valid
/// while \p Frame is. This is the receive path's only validation routine
/// (docs/PROTOCOL.md, "The zero-copy receive path").
///
/// By default the buffer must be exactly one frame — any size mismatch is
/// BadLength. Passing \p TrailingBytes switches to the tolerant mode real
/// datagram transports need: some stacks pad a datagram past the sender's
/// length (and a buggy peer could append garbage), so a buffer *longer*
/// than the declared frame is accepted, the excess bytes are dropped
/// (never handed to the decoder, never checksummed), and their count is
/// reported through the out-param for the caller to account (the
/// net.frames_trailing_bytes counter). A buffer shorter than declared is
/// still BadLength in both modes. On every reject path the out-param is
/// zero: bytes trailing a frame that is dropped are not counted.
inline std::optional<ByteView>
openFrameInPlace(ByteView Frame, bool VerifyChecksum = true,
                 FrameError *Err = nullptr, size_t *TrailingBytes = nullptr) {
  auto Reject = [&](FrameError E) -> std::optional<ByteView> {
    if (Err)
      *Err = E;
    if (TrailingBytes)
      *TrailingBytes = 0;
    return std::nullopt;
  };
  if (Err)
    *Err = FrameError::None;
  if (Frame.size() < FrameHeaderBytes)
    return Reject(FrameError::Truncated);
  if (Frame[0] != FrameMagic)
    return Reject(FrameError::BadMagic);
  if (Frame[1] != FrameVersion)
    return Reject(FrameError::BadVersion);
  uint32_t Len = 0, Crc = 0;
  for (size_t I = 0; I != 4; ++I) {
    Len |= static_cast<uint32_t>(Frame[2 + I]) << (8 * I);
    Crc |= static_cast<uint32_t>(Frame[6 + I]) << (8 * I);
  }
  if (Len > MaxFramePayloadBytes)
    return Reject(FrameError::Oversized);
  if (TrailingBytes) {
    if (Frame.size() < FrameHeaderBytes + Len)
      return Reject(FrameError::BadLength);
  } else if (Frame.size() != FrameHeaderBytes + Len) {
    return Reject(FrameError::BadLength);
  }
  ByteView Payload = Frame.subspan(FrameHeaderBytes, Len);
  if (VerifyChecksum && crc32c(Payload.data(), Payload.size()) != Crc)
    return Reject(FrameError::BadChecksum);
  if (TrailingBytes)
    *TrailingBytes = Frame.size() - (FrameHeaderBytes + Len);
  return Payload;
}

/// openFrameInPlace() that returns an owned copy of the payload.
inline std::optional<Bytes> openFrame(const Bytes &Frame,
                                      bool VerifyChecksum = true,
                                      FrameError *Err = nullptr,
                                      size_t *TrailingBytes = nullptr) {
  std::optional<ByteView> Payload =
      openFrameInPlace(Frame, VerifyChecksum, Err, TrailingBytes);
  if (!Payload)
    return std::nullopt;
  return Bytes(Payload->begin(), Payload->end());
}

} // namespace promises::wire

#endif // PROMISES_WIRE_FRAME_H
