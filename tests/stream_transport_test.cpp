//===- stream_transport_test.cpp - Call-stream layer tests ----------------===//
//
// Part of the promises project (PLDI 1988 reproduction).
//
//===----------------------------------------------------------------------===//

#include "promises/stream/StreamTransport.h"
#include "promises/wire/Frame.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
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

uint32_t u32Of(const wire::Bytes &B) {
  wire::Decoder D(B);
  return D.readU32();
}

/// \p M through the send and receive paths: seal, open, decode.
std::optional<Message> roundTrip(const Message &M) {
  wire::Bytes Frame = encodeFramedMessage(M, true);
  std::optional<wire::ByteView> Payload = wire::openFrameInPlace(Frame);
  if (!Payload)
    return std::nullopt;
  return decodeMessage(*Payload);
}

/// Ports understood by the test server sink.
constexpr PortId EchoPort = 1;      // Normal reply, payload echoed.
constexpr PortId ThrowPort = 2;     // Exception (tag 7), payload echoed.
constexpr PortId FailPort = 3;      // Failure("app failure").
constexpr uint32_t ThrowTag = 7;

struct StreamFixture : ::testing::Test {
  Simulation S;
  net::NetConfig NC;
  StreamConfig SC;

  std::unique_ptr<net::SimNetwork> Net;
  std::unique_ptr<StreamTransport> Client, Server;
  net::NodeId CN = 0, SN = 0;

  /// Per-seq delivery counts at the server (exactly-once check) keyed by
  /// (stream tag, seq).
  std::map<std::pair<uint64_t, Seq>, int> Deliveries;

  void build() {
    Net = std::make_unique<net::SimNetwork>(S, NC);
    CN = Net->addNode("client");
    SN = Net->addNode("server");
    Client = std::make_unique<StreamTransport>(*Net, CN, SC);
    Server = std::make_unique<StreamTransport>(*Net, SN, SC);
    Server->setCallSink([this](IncomingCall IC) {
      ++Deliveries[{IC.StreamTag, IC.CallSeq}];
      switch (IC.Port) {
      case EchoPort:
        IC.Complete(ReplyStatus::Normal, 0, IC.Args, "");
        break;
      case ThrowPort:
        IC.Complete(ReplyStatus::Exception, ThrowTag, IC.Args, "");
        break;
      case FailPort:
        IC.Complete(ReplyStatus::Failure, 0, {}, "app failure");
        break;
      default:
        IC.Complete(ReplyStatus::Failure, 0, {}, "no such port");
      }
    });
  }

  /// Issues one stream call and records its outcome.
  void call(AgentId A, PortId P, uint32_t Arg,
            std::vector<ReplyOutcome> &Out, bool NoReply = false,
            bool IsRpc = false) {
    auto R = Client->issueCall(A, Server->address(), /*Group=*/1, P,
                               bytesOf(Arg), NoReply, IsRpc,
                               [&Out](const ReplyOutcome &O) {
                                 Out.push_back(O);
                               });
    ASSERT_TRUE(R.Issued);
  }
};

TEST_F(StreamFixture, MessageCodecRoundTrips) {
  build();
  CallBatchMsg CB;
  CB.Agent = 5;
  CB.Group = 2;
  CB.Inc = 3;
  CB.AckReplyThrough = 11;
  CB.FlushReplies = true;
  CB.Calls.push_back(CallReq{1, EchoPort, false, true, 0, bytesOf(9)});
  CB.Calls.push_back(CallReq{2, ThrowPort, true, false, sim::msec(7), {}});
  auto M1 = roundTrip(Message(CB));
  ASSERT_TRUE(M1.has_value());
  EXPECT_EQ(std::get<CallBatchMsg>(*M1), CB);

  ReplyBatchMsg RB;
  RB.Agent = 5;
  RB.Group = 2;
  RB.Inc = 3;
  RB.AckCallThrough = 2;
  RB.CompletedThrough = 2;
  RB.Broken = true;
  RB.BreakIsFailure = true;
  RB.BreakReason = "could not decode";
  RB.Replies.push_back(
      WireReply{1, ReplyStatus::Exception, ThrowTag, bytesOf(4), ""});
  auto M2 = roundTrip(Message(RB));
  ASSERT_TRUE(M2.has_value());
  EXPECT_EQ(std::get<ReplyBatchMsg>(*M2), RB);

  EXPECT_FALSE(decodeMessage(wire::Bytes{0x77}).has_value());
  EXPECT_FALSE(decodeMessage(wire::Bytes{}).has_value());
}

TEST_F(StreamFixture, SingleCallEchoes) {
  build();
  AgentId A = Client->newAgent();
  std::vector<ReplyOutcome> Out;
  call(A, EchoPort, 42, Out);
  S.run();
  ASSERT_EQ(Out.size(), 1u);
  EXPECT_EQ(Out[0].K, ReplyOutcome::Kind::Normal);
  EXPECT_EQ(u32Of(Out[0].Payload), 42u);
}

TEST_F(StreamFixture, RepliesArriveInCallOrder) {
  build();
  AgentId A = Client->newAgent();
  std::vector<ReplyOutcome> Out;
  for (uint32_t I = 0; I < 50; ++I)
    call(A, EchoPort, I, Out);
  S.run();
  ASSERT_EQ(Out.size(), 50u);
  for (uint32_t I = 0; I < 50; ++I)
    EXPECT_EQ(u32Of(Out[I].Payload), I);
}

TEST_F(StreamFixture, BatchingReducesMessageCount) {
  SC.MaxBatchCalls = 16;
  build();
  AgentId A = Client->newAgent();
  std::vector<ReplyOutcome> Out;
  for (uint32_t I = 0; I < 16; ++I)
    call(A, EchoPort, I, Out);
  S.run();
  EXPECT_EQ(Out.size(), 16u);
  // 16 calls at the batch threshold go out as exactly one call batch; the
  // receiver acks/replies in one or two batches.
  EXPECT_EQ(Client->counters().CallBatchesSent, 1u);
}

TEST_F(StreamFixture, FlushTimerSendsStragglers) {
  SC.MaxBatchCalls = 100; // Never reach the count threshold.
  SC.FlushInterval = msec(3);
  build();
  AgentId A = Client->newAgent();
  std::vector<ReplyOutcome> Out;
  for (uint32_t I = 0; I < 5; ++I)
    call(A, EchoPort, I, Out);
  S.run();
  EXPECT_EQ(Out.size(), 5u);
  EXPECT_EQ(Client->counters().CallBatchesSent, 1u);
}

TEST_F(StreamFixture, ByteThresholdForcesTransmit) {
  SC.MaxBatchCalls = 1000;
  SC.MaxBatchBytes = 64;
  SC.FlushInterval = sec(10); // Effectively off.
  build();
  AgentId A = Client->newAgent();
  std::vector<ReplyOutcome> Out;
  // 20 calls x 4 bytes = 80 bytes > 64: must transmit without a flush.
  for (uint32_t I = 0; I < 20; ++I)
    call(A, EchoPort, I, Out);
  S.run();
  EXPECT_EQ(Out.size(), 20u);
}

TEST_F(StreamFixture, RpcFlushesImmediately) {
  SC.MaxBatchCalls = 100;
  SC.FlushInterval = sec(10);
  build();
  AgentId A = Client->newAgent();
  std::vector<ReplyOutcome> Out;
  Time Done = 0;
  auto R = Client->issueCall(A, Server->address(), 1, EchoPort, bytesOf(1),
                             false, /*IsRpc=*/true,
                             [&](const ReplyOutcome &O) {
                               Out.push_back(O);
                               Done = S.now();
                             });
  ASSERT_TRUE(R.Issued);
  S.run();
  ASSERT_EQ(Out.size(), 1u);
  // Round trip ~= 2 * (kernel overheads + propagation); far below the
  // 10s flush interval.
  EXPECT_LT(Done, msec(10));
}

TEST_F(StreamFixture, RpcCarriesEarlierBufferedCallsInOrder) {
  SC.MaxBatchCalls = 100;
  SC.FlushInterval = sec(10);
  build();
  AgentId A = Client->newAgent();
  std::vector<ReplyOutcome> Out;
  call(A, EchoPort, 1, Out);
  call(A, EchoPort, 2, Out);
  call(A, EchoPort, 3, Out, false, /*IsRpc=*/true);
  S.run();
  ASSERT_EQ(Out.size(), 3u);
  EXPECT_EQ(u32Of(Out[0].Payload), 1u);
  EXPECT_EQ(u32Of(Out[1].Payload), 2u);
  EXPECT_EQ(u32Of(Out[2].Payload), 3u);
}

TEST_F(StreamFixture, ExceptionReplyCarriesTagAndPayload) {
  build();
  AgentId A = Client->newAgent();
  std::vector<ReplyOutcome> Out;
  call(A, ThrowPort, 9, Out);
  S.run();
  ASSERT_EQ(Out.size(), 1u);
  EXPECT_EQ(Out[0].K, ReplyOutcome::Kind::Exception);
  EXPECT_EQ(Out[0].ExTag, ThrowTag);
  EXPECT_EQ(u32Of(Out[0].Payload), 9u);
}

TEST_F(StreamFixture, FailureReplyCarriesReason) {
  build();
  AgentId A = Client->newAgent();
  std::vector<ReplyOutcome> Out;
  call(A, FailPort, 0, Out);
  S.run();
  ASSERT_EQ(Out.size(), 1u);
  EXPECT_EQ(Out[0].K, ReplyOutcome::Kind::Failure);
  EXPECT_EQ(Out[0].Reason, "app failure");
}

TEST_F(StreamFixture, SendsCompleteWithoutExplicitReply) {
  build();
  AgentId A = Client->newAgent();
  std::vector<ReplyOutcome> Out;
  for (uint32_t I = 0; I < 5; ++I)
    call(A, EchoPort, I, Out, /*NoReply=*/true);
  S.run();
  ASSERT_EQ(Out.size(), 5u);
  for (auto &O : Out) {
    EXPECT_EQ(O.K, ReplyOutcome::Kind::Normal);
    EXPECT_TRUE(O.Payload.empty()); // Normal replies omitted for sends.
  }
}

TEST_F(StreamFixture, ExceptionalSendStillReportsException) {
  build();
  AgentId A = Client->newAgent();
  std::vector<ReplyOutcome> Out;
  call(A, EchoPort, 1, Out, /*NoReply=*/true);
  call(A, ThrowPort, 2, Out, /*NoReply=*/true);
  call(A, EchoPort, 3, Out, /*NoReply=*/true);
  S.run();
  ASSERT_EQ(Out.size(), 3u);
  EXPECT_EQ(Out[0].K, ReplyOutcome::Kind::Normal);
  EXPECT_EQ(Out[1].K, ReplyOutcome::Kind::Exception);
  EXPECT_EQ(Out[2].K, ReplyOutcome::Kind::Normal);
}

TEST_F(StreamFixture, ExactlyOnceUnderLoss) {
  NC.LossRate = 0.3;
  NC.Seed = 17;
  SC.RetransmitTimeout = msec(20);
  build();
  AgentId A = Client->newAgent();
  std::vector<ReplyOutcome> Out;
  for (uint32_t I = 0; I < 100; ++I)
    call(A, EchoPort, I, Out);
  Client->flush(A, Server->address(), 1);
  S.run();
  ASSERT_EQ(Out.size(), 100u);
  for (uint32_t I = 0; I < 100; ++I) {
    EXPECT_EQ(Out[I].K, ReplyOutcome::Kind::Normal) << "call " << I;
    EXPECT_EQ(u32Of(Out[I].Payload), I) << "call " << I;
  }
  // Exactly-once at the receiver despite retransmissions.
  for (const auto &[Key, Count] : Deliveries)
    EXPECT_EQ(Count, 1) << "seq " << Key.second << " delivered twice";
  EXPECT_GT(Client->counters().Retransmissions, 0u);
}

TEST_F(StreamFixture, ExactlyOnceUnderDuplication) {
  NC.DupRate = 1.0;
  build();
  AgentId A = Client->newAgent();
  std::vector<ReplyOutcome> Out;
  for (uint32_t I = 0; I < 20; ++I)
    call(A, EchoPort, I, Out);
  S.run();
  ASSERT_EQ(Out.size(), 20u);
  for (const auto &[Key, Count] : Deliveries)
    EXPECT_EQ(Count, 1);
  EXPECT_GT(Server->counters().DuplicateCallsDropped, 0u);
}

TEST_F(StreamFixture, OrderPreservedUnderReordering) {
  NC.JitterMax = msec(10);
  NC.Seed = 23;
  SC.MaxBatchCalls = 2; // Many small batches so jitter can reorder them.
  build();
  AgentId A = Client->newAgent();
  std::vector<ReplyOutcome> Out;
  for (uint32_t I = 0; I < 40; ++I)
    call(A, EchoPort, I, Out);
  Client->flush(A, Server->address(), 1);
  S.run();
  ASSERT_EQ(Out.size(), 40u);
  for (uint32_t I = 0; I < 40; ++I)
    EXPECT_EQ(u32Of(Out[I].Payload), I);
  for (const auto &[Key, Count] : Deliveries)
    EXPECT_EQ(Count, 1);
}

TEST_F(StreamFixture, LostRepliesAreRecoveredByProbes) {
  // Drop many messages; replies lost in transit must be re-fetched.
  NC.LossRate = 0.5;
  NC.Seed = 99;
  SC.RetransmitTimeout = msec(15);
  build();
  AgentId A = Client->newAgent();
  std::vector<ReplyOutcome> Out;
  for (uint32_t I = 0; I < 30; ++I)
    call(A, ThrowPort, I, Out);
  Client->flush(A, Server->address(), 1);
  S.run();
  ASSERT_EQ(Out.size(), 30u);
  for (uint32_t I = 0; I < 30; ++I) {
    EXPECT_EQ(Out[I].K, ReplyOutcome::Kind::Exception);
    EXPECT_EQ(u32Of(Out[I].Payload), I);
  }
}

TEST_F(StreamFixture, SynchAllNormal) {
  build();
  AgentId A = Client->newAgent();
  std::vector<ReplyOutcome> Out;
  SynchOutcome SO;
  S.spawn("client", [&] {
    for (uint32_t I = 0; I < 10; ++I)
      call(A, EchoPort, I, Out);
    SO = Client->synch(A, Server->address(), 1);
  });
  S.run();
  EXPECT_EQ(SO.S, SynchOutcome::Status::AllNormal);
  EXPECT_EQ(Out.size(), 10u); // Synch waited for every outcome.
}

TEST_F(StreamFixture, SynchReportsExceptionReply) {
  build();
  AgentId A = Client->newAgent();
  std::vector<ReplyOutcome> Out;
  SynchOutcome First, Second;
  S.spawn("client", [&] {
    call(A, EchoPort, 1, Out);
    call(A, ThrowPort, 2, Out);
    call(A, EchoPort, 3, Out);
    First = Client->synch(A, Server->address(), 1);
    // The synch point resets the window.
    call(A, EchoPort, 4, Out);
    Second = Client->synch(A, Server->address(), 1);
  });
  S.run();
  EXPECT_EQ(First.S, SynchOutcome::Status::ExceptionReply);
  EXPECT_EQ(Second.S, SynchOutcome::Status::AllNormal);
}

TEST_F(StreamFixture, RpcResetsSynchWindow) {
  // "since the last synch or regular RPC on the stream".
  build();
  AgentId A = Client->newAgent();
  std::vector<ReplyOutcome> Out;
  SynchOutcome SO;
  S.spawn("client", [&] {
    call(A, ThrowPort, 1, Out); // Exception before the RPC...
    call(A, EchoPort, 2, Out, false, /*IsRpc=*/true);
    // ...is outside the window once the RPC completes. Wait for the RPC
    // reply before synching.
    while (Client->outstandingCalls(A, Server->address(), 1) > 0)
      S.sleep(msec(1));
    SO = Client->synch(A, Server->address(), 1);
  });
  S.run();
  EXPECT_EQ(SO.S, SynchOutcome::Status::AllNormal);
}

TEST_F(StreamFixture, ReceiverCrashBreaksStreamWithUnavailable) {
  SC.RetransmitTimeout = msec(10);
  SC.MaxRetries = 3;
  build();
  AgentId A = Client->newAgent();
  std::vector<ReplyOutcome> Out;
  // Crash the server before it can process anything.
  Net->crash(SN);
  for (uint32_t I = 0; I < 5; ++I)
    call(A, EchoPort, I, Out);
  Client->flush(A, Server->address(), 1);
  S.run();
  ASSERT_EQ(Out.size(), 5u);
  for (auto &O : Out)
    EXPECT_EQ(O.K, ReplyOutcome::Kind::Unavailable);
  EXPECT_TRUE(Client->isBroken(A, Server->address(), 1));
  EXPECT_EQ(Client->counters().SenderBreaks, 1u);
  // Break detection is bounded by the retry budget: with exponential
  // backoff the unproductive rounds fire at RTO * (1, 2, 4, 8), so the
  // geometric sum is RTO * (2^(MaxRetries+1) - 1), plus <= 10% jitter per
  // round and the initial batching slack.
  EXPECT_LE(S.now(), msec(10) * 15 * 12 / 10 + msec(2));
}

TEST_F(StreamFixture, BrokenStreamAutoRestartsOnNextCall) {
  SC.RetransmitTimeout = msec(10);
  SC.MaxRetries = 2;
  build();
  AgentId A = Client->newAgent();
  std::vector<ReplyOutcome> Out;
  Net->crash(SN);
  call(A, EchoPort, 1, Out);
  Client->flush(A, Server->address(), 1);
  S.run();
  ASSERT_EQ(Out.size(), 1u);
  EXPECT_EQ(Out[0].K, ReplyOutcome::Kind::Unavailable);

  // Bring the server back (fresh transport = new entity incarnation).
  Net->restart(SN);
  Server = std::make_unique<StreamTransport>(*Net, SN, SC);
  std::vector<ReplyOutcome> Out2;
  Server->setCallSink([](IncomingCall IC) {
    IC.Complete(ReplyStatus::Normal, 0, IC.Args, "");
  });
  auto R = Client->issueCall(A, Server->address(), 1, EchoPort, bytesOf(2),
                             false, false,
                             [&](const ReplyOutcome &O) { Out2.push_back(O); });
  EXPECT_TRUE(R.Issued); // Auto-restart reincarnated the stream.
  S.run();
  ASSERT_EQ(Out2.size(), 1u);
  EXPECT_EQ(Out2[0].K, ReplyOutcome::Kind::Normal);
}

TEST_F(StreamFixture, AutoRestartOffFailsImmediately) {
  SC.AutoRestart = false;
  SC.RetransmitTimeout = msec(10);
  SC.MaxRetries = 2;
  build();
  AgentId A = Client->newAgent();
  std::vector<ReplyOutcome> Out;
  Net->crash(SN);
  call(A, EchoPort, 1, Out);
  Client->flush(A, Server->address(), 1);
  S.run();
  ASSERT_EQ(Out.size(), 1u);
  auto R = Client->issueCall(A, Server->address(), 1, EchoPort, bytesOf(2),
                             false, false, [](const ReplyOutcome &) {});
  EXPECT_FALSE(R.Issued);
  EXPECT_FALSE(R.IsFailure); // Unavailable, not failure.
  EXPECT_FALSE(R.Reason.empty());
}

TEST_F(StreamFixture, ReceiverSideBreakIsSynchronous) {
  // The server breaks the stream when completing call 3 (like a decode
  // failure): calls 1-2 are unaffected, call 3 reports failure, calls 4-5
  // never execute and report the break.
  build();
  Server->setCallSink([this](IncomingCall IC) {
    ++Deliveries[{IC.StreamTag, IC.CallSeq}];
    if (IC.CallSeq == 3) {
      IC.Complete(ReplyStatus::Failure, 0, {}, "could not decode");
      Server->breakReceiverStream(IC.StreamTag, "could not decode");
      return;
    }
    IC.Complete(ReplyStatus::Normal, 0, IC.Args, "");
  });
  AgentId A = Client->newAgent();
  std::vector<ReplyOutcome> Out;
  for (uint32_t I = 1; I <= 5; ++I)
    call(A, EchoPort, I, Out);
  Client->flush(A, Server->address(), 1);
  S.run();
  ASSERT_EQ(Out.size(), 5u);
  EXPECT_EQ(Out[0].K, ReplyOutcome::Kind::Normal);
  EXPECT_EQ(Out[1].K, ReplyOutcome::Kind::Normal);
  EXPECT_EQ(Out[2].K, ReplyOutcome::Kind::Failure);
  EXPECT_EQ(Out[2].Reason, "could not decode");
  EXPECT_EQ(Out[3].K, ReplyOutcome::Kind::Failure);
  EXPECT_EQ(Out[4].K, ReplyOutcome::Kind::Failure);
  EXPECT_EQ(Server->counters().ReceiverBreaks, 1u);
  EXPECT_TRUE(Client->isBroken(A, Server->address(), 1));
}

TEST_F(StreamFixture, CallsAfterReceiverBreakAreDiscarded) {
  build();
  Server->setCallSink([this](IncomingCall IC) {
    ++Deliveries[{IC.StreamTag, IC.CallSeq}];
    IC.Complete(ReplyStatus::Normal, 0, IC.Args, "");
    if (IC.CallSeq == 1)
      Server->breakReceiverStream(IC.StreamTag, "deliberate break");
  });
  AgentId A = Client->newAgent();
  std::vector<ReplyOutcome> Out;
  call(A, EchoPort, 1, Out);
  Client->flush(A, Server->address(), 1);
  S.runFor(msec(50));
  // Stream broken; these calls reach the receiver but are discarded.
  size_t DeliveredBefore = Deliveries.size();
  call(A, EchoPort, 2, Out);
  call(A, EchoPort, 3, Out);
  Client->flush(A, Server->address(), 1);
  S.run();
  // Note: AutoRestart reincarnates on the first new call, so the calls DO
  // go through on a new stream (fresh tag). The *old* stream saw no new
  // delivery.
  int OldStreamDeliveries = 0;
  uint64_t OldTag = Deliveries.begin()->first.first;
  for (const auto &[Key, Count] : Deliveries)
    if (Key.first == OldTag)
      OldStreamDeliveries += Count;
  EXPECT_EQ(OldStreamDeliveries, 1);
  EXPECT_GE(Deliveries.size(), DeliveredBefore);
}

TEST_F(StreamFixture, ExplicitRestartTerminatesOutstandingCalls) {
  build();
  // A slow server: never completes.
  Server->setCallSink([](IncomingCall) {});
  AgentId A = Client->newAgent();
  std::vector<ReplyOutcome> Out;
  call(A, EchoPort, 1, Out);
  Client->flush(A, Server->address(), 1);
  S.runFor(msec(30));
  EXPECT_EQ(Out.size(), 0u);
  Client->restart(A, Server->address(), 1);
  S.runFor(msec(1));
  ASSERT_EQ(Out.size(), 1u);
  EXPECT_EQ(Out[0].K, ReplyOutcome::Kind::Unavailable);
  EXPECT_FALSE(Client->isBroken(A, Server->address(), 1)); // Reincarnated.
}

TEST_F(StreamFixture, PartitionBreaksThenHealAllowsRestart) {
  SC.RetransmitTimeout = msec(10);
  SC.MaxRetries = 2;
  build();
  AgentId A = Client->newAgent();
  std::vector<ReplyOutcome> Out;
  Net->setPartitioned(CN, SN, true);
  call(A, EchoPort, 1, Out);
  Client->flush(A, Server->address(), 1);
  S.run();
  ASSERT_EQ(Out.size(), 1u);
  EXPECT_EQ(Out[0].K, ReplyOutcome::Kind::Unavailable);

  Net->setPartitioned(CN, SN, false);
  std::vector<ReplyOutcome> Out2;
  call(A, EchoPort, 2, Out2);
  Client->flush(A, Server->address(), 1);
  S.run();
  ASSERT_EQ(Out2.size(), 1u);
  EXPECT_EQ(Out2[0].K, ReplyOutcome::Kind::Normal);
  // The heal kept the same remote address, so the new call reincarnated
  // the same stream (paper: restart = break + reincarnation).
  EXPECT_EQ(Client->counters().Restarts, 1u);
}

TEST_F(StreamFixture, TwoAgentsUseIndependentStreams) {
  build();
  AgentId A1 = Client->newAgent();
  AgentId A2 = Client->newAgent();
  std::vector<ReplyOutcome> Out1, Out2;
  call(A1, EchoPort, 10, Out1);
  call(A2, EchoPort, 20, Out2);
  call(A1, EchoPort, 11, Out1);
  S.run();
  ASSERT_EQ(Out1.size(), 2u);
  ASSERT_EQ(Out2.size(), 1u);
  EXPECT_EQ(u32Of(Out1[0].Payload), 10u);
  EXPECT_EQ(u32Of(Out1[1].Payload), 11u);
  EXPECT_EQ(u32Of(Out2[0].Payload), 20u);
  EXPECT_EQ(Client->senderStreamCount(), 2u);
  EXPECT_EQ(Server->receiverStreamCount(), 2u);
  // Two distinct ordering domains at the server.
  std::set<uint64_t> Tags;
  for (const auto &[Key, Count] : Deliveries)
    Tags.insert(Key.first);
  EXPECT_EQ(Tags.size(), 2u);
}

TEST_F(StreamFixture, DifferentGroupsAreDifferentStreams) {
  build();
  AgentId A = Client->newAgent();
  std::vector<ReplyOutcome> Out;
  auto R1 = Client->issueCall(A, Server->address(), /*Group=*/1, EchoPort,
                              bytesOf(1), false, false,
                              [&](const ReplyOutcome &O) { Out.push_back(O); });
  auto R2 = Client->issueCall(A, Server->address(), /*Group=*/2, EchoPort,
                              bytesOf(2), false, false,
                              [&](const ReplyOutcome &O) { Out.push_back(O); });
  ASSERT_TRUE(R1.Issued);
  ASSERT_TRUE(R2.Issued);
  S.run();
  EXPECT_EQ(Out.size(), 2u);
  EXPECT_EQ(Client->senderStreamCount(), 2u);
  EXPECT_EQ(Server->receiverStreamCount(), 2u);
}

TEST_F(StreamFixture, OutstandingCallsTracksWindow) {
  build();
  Server->setCallSink([](IncomingCall) {}); // Never completes.
  AgentId A = Client->newAgent();
  EXPECT_EQ(Client->outstandingCalls(A, Server->address(), 1), 0u);
  std::vector<ReplyOutcome> Out;
  call(A, EchoPort, 1, Out);
  call(A, EchoPort, 2, Out);
  EXPECT_EQ(Client->outstandingCalls(A, Server->address(), 1), 2u);
  S.runFor(msec(100));
  EXPECT_EQ(Client->outstandingCalls(A, Server->address(), 1), 2u);
}

TEST_F(StreamFixture, FlushSpeedsUpReplies) {
  SC.MaxBatchCalls = 100;
  SC.FlushInterval = msec(50);
  SC.ReplyFlushInterval = msec(50);
  build();
  AgentId A = Client->newAgent();
  std::vector<ReplyOutcome> Out;
  Time Done = 0;
  auto R = Client->issueCall(A, Server->address(), 1, EchoPort, bytesOf(1),
                             false, false, [&](const ReplyOutcome &) {
                               Done = S.now();
                             });
  ASSERT_TRUE(R.Issued);
  (void)R;
  (void)Out;
  Client->flush(A, Server->address(), 1);
  S.run();
  // With flush: one round trip, no 50ms timers involved.
  EXPECT_LT(Done, msec(20));
}

TEST_F(StreamFixture, WithoutFlushTimersDominateLatency) {
  SC.MaxBatchCalls = 100;
  SC.FlushInterval = msec(50);
  build();
  AgentId A = Client->newAgent();
  Time Done = 0;
  auto R = Client->issueCall(A, Server->address(), 1, EchoPort, bytesOf(1),
                             false, false,
                             [&](const ReplyOutcome &) { Done = S.now(); });
  ASSERT_TRUE(R.Issued);
  S.run();
  EXPECT_GE(Done, msec(50)); // Waited for the flush timer.
}

TEST_F(StreamFixture, ShutdownTransportRefusesCalls) {
  build();
  Client->shutdown();
  auto R = Client->issueCall(Client->newAgent(), Server->address(), 1,
                             EchoPort, bytesOf(1), false, false,
                             [](const ReplyOutcome &) {});
  EXPECT_FALSE(R.Issued);
}

TEST_F(StreamFixture, ManyCallsLargeScaleStress) {
  NC.LossRate = 0.1;
  NC.JitterMax = msec(2);
  NC.Seed = 5;
  build();
  AgentId A = Client->newAgent();
  std::vector<ReplyOutcome> Out;
  for (uint32_t I = 0; I < 500; ++I)
    call(A, I % 7 == 0 ? ThrowPort : EchoPort, I, Out);
  Client->flush(A, Server->address(), 1);
  S.run();
  ASSERT_EQ(Out.size(), 500u);
  for (uint32_t I = 0; I < 500; ++I) {
    if (I % 7 == 0)
      EXPECT_EQ(Out[I].K, ReplyOutcome::Kind::Exception);
    else
      EXPECT_EQ(Out[I].K, ReplyOutcome::Kind::Normal);
    EXPECT_EQ(u32Of(Out[I].Payload), I);
  }
  for (const auto &[Key, Count] : Deliveries)
    EXPECT_EQ(Count, 1);
}

//===----------------------------------------------------------------------===//
// RTO backoff arithmetic (backoffRto)
//===----------------------------------------------------------------------===//

TEST(RtoBackoff, DoublesBelowTheCap) {
  EXPECT_EQ(backoffRto(msec(20), 2.0, msec(160)), msec(40));
  EXPECT_EQ(backoffRto(msec(40), 2.0, msec(160)), msec(80));
  EXPECT_EQ(backoffRto(msec(80), 2.0, msec(160)), msec(160));
}

TEST(RtoBackoff, SaturatesAtTheCap) {
  EXPECT_EQ(backoffRto(msec(160), 2.0, msec(160)), msec(160));
  EXPECT_EQ(backoffRto(msec(200), 2.0, msec(160)), msec(160));
}

TEST(RtoBackoff, FactorBelowOneAndNanAreClampedToOne) {
  EXPECT_EQ(backoffRto(msec(20), 0.5, msec(160)), msec(20));
  EXPECT_EQ(backoffRto(msec(20), 0.0, msec(160)), msec(20));
  EXPECT_EQ(backoffRto(msec(20), std::nan(""), msec(160)), msec(20));
}

TEST(RtoBackoff, SaturatesInsteadOfWrappingAtTheOverflowBoundary) {
  // 20ms doubled 40 times is ~2.2e16 ms = 2.2e22 ns — far past what
  // uint64_t nanoseconds can hold. The former min(Cap, Time(double))
  // expression cast the oversized double first, which is UB (and on
  // x86-64 yields garbage the min then happily kept). Walk the exact
  // trajectory a 1.6e19ns cap permits and force the product over 2^64.
  const Time HugeCap = UINT64_MAX - 1024;
  Time Rto = msec(20);
  for (int I = 0; I != 64; ++I) {
    Time Next = backoffRto(Rto, 2.0, HugeCap);
    EXPECT_GE(Next, Rto) << "backoff went backwards after " << I
                         << " rounds (wrapped)";
    Rto = Next;
  }
  EXPECT_EQ(Rto, HugeCap);
  // At the boundary itself: Cur just below 2^63, doubling crosses 2^64.
  Time NearHalf = (UINT64_MAX / 2) + 1;
  EXPECT_EQ(backoffRto(NearHalf, 2.0, HugeCap), HugeCap);
  EXPECT_EQ(backoffRto(UINT64_MAX, 2.0, UINT64_MAX), UINT64_MAX);
}

} // namespace
