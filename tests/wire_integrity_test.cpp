//===- wire_integrity_test.cpp - Corruption/duplication at the stream ----===//
//
// Part of the promises project (PLDI 1988 reproduction).
//
//===----------------------------------------------------------------------===//
//
// End-to-end wire integrity through the call-stream transport: frames
// damaged in flight are detected by the checksum, dropped, counted, traced,
// and recovered by retransmission; duplicated datagrams never double-execute
// a call; frame-valid but undecodable payloads are counted as a distinct
// (local-bug) class. See docs/PROTOCOL.md "Wire integrity".
//
//===----------------------------------------------------------------------===//

#include "promises/stream/StreamTransport.h"
#include "promises/wire/Frame.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

using namespace promises;
using namespace promises::stream;
using namespace promises::sim;

namespace {

wire::Bytes bytesOf(uint32_t V) {
  wire::Encoder E;
  E.writeU32(V);
  return E.take();
}

/// Seals an arbitrary \p Payload in place, one byte at a time: the
/// injected frames below carry payloads no stream message encodes to.
wire::Bytes frameOf(const wire::Bytes &Payload) {
  wire::Encoder E;
  wire::beginFrame(E, Payload.size());
  for (uint8_t B : Payload)
    E.writeU8(B);
  return wire::finishFrame(E);
}

uint32_t u32Of(const wire::Bytes &B) {
  wire::Decoder D(B);
  return D.readU32();
}

constexpr PortId EchoPort = 1;

struct IntegrityFixture : ::testing::Test {
  Simulation S;
  net::NetConfig NC;
  StreamConfig SC;

  std::unique_ptr<net::SimNetwork> Net;
  std::unique_ptr<StreamTransport> Client, Server;
  net::NodeId CN = 0, SN = 0;

  /// Handler executions per (stream tag, seq): the exactly-once ledger.
  std::map<std::pair<uint64_t, Seq>, int> Deliveries;

  void build() {
    Net = std::make_unique<net::SimNetwork>(S, NC);
    CN = Net->addNode("client");
    SN = Net->addNode("server");
    Client = std::make_unique<StreamTransport>(*Net, CN, SC);
    Server = std::make_unique<StreamTransport>(*Net, SN, SC);
    Server->setCallSink([this](IncomingCall IC) {
      ++Deliveries[{IC.StreamTag, IC.CallSeq}];
      IC.Complete(ReplyStatus::Normal, 0, IC.Args, "");
    });
  }

  void call(AgentId A, uint32_t Arg, std::vector<ReplyOutcome> &Out) {
    auto R = Client->issueCall(A, Server->address(), /*Group=*/1, EchoPort,
                               bytesOf(Arg), /*NoReply=*/false,
                               /*IsRpc=*/false,
                               [&Out](const ReplyOutcome &O) {
                                 Out.push_back(O);
                               });
    ASSERT_TRUE(R.Issued);
  }

  uint64_t eventCount(EventKind K, const std::string &Detail = "") {
    uint64_t N = 0;
    for (const TraceEvent &E : S.metrics().events())
      if (E.Kind == K && (Detail.empty() || E.Detail == Detail))
        ++N;
    return N;
  }
};

TEST_F(IntegrityFixture, CorruptionIsDetectedAndRecovered) {
  build();
  S.metrics().setEnabled(true);
  // Corrupt every datagram for the first few milliseconds, then relent so
  // retransmission can win. The calls issued during the outage must all
  // complete normally, in order, exactly once.
  Net->setCorruptRate(1.0);
  S.schedule(msec(10), [&] { Net->setCorruptRate(0.0); });

  AgentId A = Client->newAgent();
  std::vector<ReplyOutcome> Out;
  for (uint32_t I = 0; I != 8; ++I)
    call(A, I, Out);
  S.run();

  ASSERT_EQ(Out.size(), 8u);
  for (uint32_t I = 0; I != 8; ++I) {
    EXPECT_EQ(Out[I].K, ReplyOutcome::Kind::Normal);
    EXPECT_EQ(u32Of(Out[I].Payload), I);
  }
  for (const auto &[Key, N] : Deliveries)
    EXPECT_EQ(N, 1) << "seq " << Key.second << " executed " << N << " times";

  // Damage actually happened and was caught: the network corrupted copies,
  // the transports rejected exactly that many frames (checksum or header),
  // and every drop was traced with a cause.
  auto NetC = Net->counters();
  EXPECT_GT(NetC.DatagramsCorrupted, 0u);
  uint64_t Dropped = Client->counters().FramesCorruptDropped +
                     Server->counters().FramesCorruptDropped;
  EXPECT_GT(Dropped, 0u);
  EXPECT_LE(Dropped, NetC.DatagramsCorrupted);
  EXPECT_EQ(eventCount(EventKind::FrameCorruptDropped), Dropped);
  EXPECT_EQ(eventCount(EventKind::DatagramCorrupted), NetC.DatagramsCorrupted);
  // Nothing slipped past the checksum into the decoder.
  EXPECT_EQ(Client->counters().MalformedDropped, 0u);
  EXPECT_EQ(Server->counters().MalformedDropped, 0u);
}

TEST_F(IntegrityFixture, DuplicatedDatagramsNeverDoubleExecute) {
  // Satellite regression: with *every* datagram duplicated (and a little
  // ambient loss to force retransmits on top), per-stream dedup must keep
  // execution exactly-once and completion exactly-once.
  NC.DupRate = 1.0;
  NC.LossRate = 0.05;
  NC.Seed = 7;
  build();

  AgentId A = Client->newAgent();
  std::vector<ReplyOutcome> Out;
  for (uint32_t I = 0; I != 32; ++I)
    call(A, I, Out);
  S.run();

  // Every call completed exactly once, in issue order.
  ASSERT_EQ(Out.size(), 32u);
  for (uint32_t I = 0; I != 32; ++I) {
    EXPECT_EQ(Out[I].K, ReplyOutcome::Kind::Normal);
    EXPECT_EQ(u32Of(Out[I].Payload), I);
  }
  // Every call executed exactly once despite the duplicate deliveries.
  EXPECT_EQ(Deliveries.size(), 32u);
  for (const auto &[Key, N] : Deliveries)
    EXPECT_EQ(N, 1) << "seq " << Key.second << " executed " << N << " times";
  EXPECT_GT(Net->counters().DatagramsDuplicated, 0u);
  EXPECT_GT(Server->counters().DuplicateCallsDropped, 0u);
}

TEST_F(IntegrityFixture, GarbageDatagramsAreRejectedWithCause) {
  build();
  S.metrics().setEnabled(true);
  AgentId A = Client->newAgent();
  std::vector<ReplyOutcome> Out;
  call(A, 1, Out);
  // Inject raw damage straight at the server's bound port: garbage bytes,
  // a truncated header, and a frame whose magic byte is wrong.
  S.schedule(usec(1), [&] {
    Net->send(Client->address(), Server->address(), {0xDE, 0xAD, 0xBE, 0xEF});
    Net->send(Client->address(), Server->address(), {wire::FrameMagic});
    wire::Bytes F = frameOf(bytesOf(9));
    F[0] ^= 0xFF;
    Net->send(Client->address(), Server->address(), F);
  });
  S.run();

  // The stream itself is unharmed.
  ASSERT_EQ(Out.size(), 1u);
  EXPECT_EQ(Out[0].K, ReplyOutcome::Kind::Normal);
  // All three injections were dropped pre-decode with distinct causes.
  EXPECT_EQ(Server->counters().FramesCorruptDropped, 3u);
  EXPECT_EQ(eventCount(EventKind::FrameCorruptDropped, "truncated"), 2u);
  EXPECT_EQ(eventCount(EventKind::FrameCorruptDropped, "bad magic"), 1u);
}

TEST_F(IntegrityFixture, CorruptPaddedFrameCountsNoTrailingBytes) {
  build();
  // A padded frame with a damaged payload is dropped as corrupt; the
  // padding behind it belongs to a rejected frame and must not reach
  // net.frames_trailing_bytes.
  S.schedule(usec(1), [&] {
    wire::Bytes F = frameOf(bytesOf(9));
    F.insert(F.end(), {0x00, 0x00});
    F[wire::FrameHeaderBytes] ^= 0x01;
    Net->send(Client->address(), Server->address(), F);
  });
  S.run();
  EXPECT_EQ(Server->counters().FramesCorruptDropped, 1u);
  EXPECT_EQ(Server->counters().FramesTrailingBytes, 0u);

  // The same padding behind an intact frame is counted (the payload is
  // not a stream message, so it is then dropped as malformed).
  S.schedule(usec(1), [&] {
    wire::Bytes F = frameOf(bytesOf(9));
    F.insert(F.end(), {0x00, 0x00});
    Net->send(Client->address(), Server->address(), F);
  });
  S.run();
  EXPECT_EQ(Server->counters().FramesTrailingBytes, 2u);
  EXPECT_EQ(Server->counters().MalformedDropped, 1u);
}

TEST_F(IntegrityFixture, MalformedButChecksummedPayloadIsCountedAsLocalBug) {
  build();
  S.metrics().setEnabled(true);
  // A frame that passes every integrity check but whose payload is not a
  // stream message models a *local* encode bug, not line noise; it gets
  // its own counter and trace detail so chaos can flag any occurrence.
  S.schedule(usec(1), [&] {
    Net->send(Client->address(), Server->address(),
              frameOf({0x77, 0x01, 0x02}));
  });
  S.run();
  EXPECT_EQ(Server->counters().MalformedDropped, 1u);
  EXPECT_EQ(Server->counters().FramesCorruptDropped, 0u);
  EXPECT_EQ(eventCount(EventKind::FrameCorruptDropped, "malformed message"),
            1u);
}

TEST_F(IntegrityFixture, ChecksumAblationStillWorksEndToEnd) {
  // FrameChecksums=false (the benchmark ablation) seals with a zero CRC
  // and skips verification on receive; on a clean network the protocol
  // must be unaffected.
  SC.FrameChecksums = false;
  build();
  AgentId A = Client->newAgent();
  std::vector<ReplyOutcome> Out;
  for (uint32_t I = 0; I != 4; ++I)
    call(A, I, Out);
  S.run();
  ASSERT_EQ(Out.size(), 4u);
  for (uint32_t I = 0; I != 4; ++I)
    EXPECT_EQ(u32Of(Out[I].Payload), I);
  EXPECT_EQ(Client->counters().FramesCorruptDropped, 0u);
  EXPECT_EQ(Server->counters().FramesCorruptDropped, 0u);
}

TEST_F(IntegrityFixture, ReorderingPreservesCallOrder) {
  // Heavy reordering: most copies suffer up to 2ms of extra delay, far
  // larger than the inter-send gap, so datagrams routinely overtake each
  // other. Sequence numbers must still deliver calls in issue order.
  NC.ReorderRate = 0.75;
  NC.ReorderMax = msec(2);
  NC.Seed = 11;
  build();

  AgentId A = Client->newAgent();
  std::vector<ReplyOutcome> Out;
  for (uint32_t I = 0; I != 24; ++I)
    call(A, I, Out);
  S.run();

  ASSERT_EQ(Out.size(), 24u);
  for (uint32_t I = 0; I != 24; ++I)
    EXPECT_EQ(u32Of(Out[I].Payload), I);
  // Executions happened in seq order per stream (the map is sorted by
  // (tag, seq); deliveries to the sink follow issue order by contract).
  for (const auto &[Key, N] : Deliveries)
    EXPECT_EQ(N, 1);
}

} // namespace
