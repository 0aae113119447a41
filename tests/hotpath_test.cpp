//===- hotpath_test.cpp - Hot-path allocation & flat-window tests ---------===//
//
// Part of the promises project (PLDI 1988 reproduction).
//
// Regression tests for the cache-conscious hot paths:
//
//  * SeqRing (the flat replacement for the transport's std::map windows):
//    wrap past capacity, sparse ranges, erase/re-insert, iteration order.
//  * Zero-copy frame sealing: encodeFramedMessage costs exactly one
//    allocation and copies zero payload bytes (property_wire_test checks
//    its bytes against a frame written out by hand).
//  * Zero-copy receive: opening a frame in place and decoding from the
//    view allocates no more than decoding the bare payload; scalar and
//    sequence encodes/decodes do not grow buffers piecemeal.
//  * Promise slab: steady-state promise churn allocates nothing, also
//    when every promise is made by a different thread-backend process.
//  * The timed-event heap: generation-checked cancellation semantics.
//  * End-to-end allocation budget: a full call round trip stays under an
//    allocation ceiling (the bench's machine-independent companion).
//
// This binary installs a global operator-new hook (AllocHook.cpp), so it
// holds every test that counts allocations; keep hook-free tests in the
// other suites.
//
//===----------------------------------------------------------------------===//

#include "promises/core/Promise.h"
#include "promises/net/Network.h"
#include "promises/sim/Simulation.h"
#include "promises/stream/Messages.h"
#include "promises/stream/SeqRing.h"
#include "promises/stream/StreamTransport.h"
#include "promises/wire/Frame.h"

#include "AllocHook.h"

#include <gtest/gtest.h>

using namespace promises;

//===----------------------------------------------------------------------===//
// SeqRing
//===----------------------------------------------------------------------===//

TEST(SeqRing, InsertFindErase) {
  stream::SeqRing<int> R;
  EXPECT_TRUE(R.empty());
  R.insert(5, 50);
  R.insert(7, 70);
  R.insert(6, 60);
  EXPECT_EQ(R.size(), 3u);
  EXPECT_EQ(R.firstSeq(), 5u);
  EXPECT_EQ(R.lastSeq(), 7u);
  EXPECT_TRUE(R.contains(6));
  EXPECT_FALSE(R.contains(4));
  EXPECT_FALSE(R.contains(8));
  EXPECT_EQ(R.at(5), 50);
  EXPECT_EQ(*R.find(7), 70);
  EXPECT_EQ(R.find(8), nullptr);
  R.erase(5);
  EXPECT_EQ(R.firstSeq(), 6u);
  R.erase(7);
  EXPECT_EQ(R.lastSeq(), 6u);
  R.erase(6);
  EXPECT_TRUE(R.empty());
}

TEST(SeqRing, WrapsPastCapacityManyTimes) {
  // A long-lived window marches through far more seqs than the slot array
  // holds; every seq must index cleanly through the mask.
  stream::SeqRing<uint64_t> R;
  uint64_t Next = 1, Acked = 1;
  for (int Round = 0; Round != 1000; ++Round) {
    // Keep up to 8 in flight, then retire the oldest (prefix erase, the
    // retransmission-window pattern).
    while (Next - Acked < 8)
      R.insert(Next, Next * 3), ++Next;
    EXPECT_EQ(R.firstSeq(), Acked);
    EXPECT_EQ(R.at(Acked), Acked * 3);
    R.erase(Acked);
    ++Acked;
  }
  EXPECT_EQ(R.size(), 7u);
}

TEST(SeqRing, SparseRangeAndAscendingIteration) {
  // The ahead-of-order pattern: gaps inside [Lo, Hi).
  stream::SeqRing<int> R;
  R.insert(10, 1);
  R.insert(14, 5);
  R.insert(12, 3);
  EXPECT_EQ(R.firstSeq(), 10u);
  EXPECT_EQ(R.lastSeq(), 14u);
  EXPECT_FALSE(R.contains(11));
  EXPECT_FALSE(R.contains(13));
  std::vector<uint64_t> Seen;
  R.forEach([&](uint64_t S, const int &) { Seen.push_back(S); });
  EXPECT_EQ(Seen, (std::vector<uint64_t>{10, 12, 14}));
  // Erasing an endpoint tightens past the gap.
  R.erase(14);
  EXPECT_EQ(R.lastSeq(), 12u);
  R.erase(10);
  EXPECT_EQ(R.firstSeq(), 12u);
}

TEST(SeqRing, EraseThenReinsertSameSeq) {
  // A slot must be fully reusable after erase: stale "present" state or a
  // stale value resurrecting would corrupt the window.
  stream::SeqRing<std::vector<int>> R;
  R.insert(3, {1, 2, 3});
  R.erase(3);
  EXPECT_FALSE(R.contains(3));
  R.insert(3, {9});
  EXPECT_EQ(R.at(3), (std::vector<int>{9}));
  // And erase() must reset the slot to T{} so owned buffers free eagerly.
  R.erase(3);
  R.insert(3 + 16, {7}); // Same slot index after one full mask cycle.
  EXPECT_EQ(R.at(3 + 16), (std::vector<int>{7}));
}

TEST(SeqRing, GrowthPreservesSparseEntries) {
  stream::SeqRing<int> R;
  // Span wider than the initial 16 slots, inserted out of order.
  R.insert(100, 0);
  R.insert(140, 40);
  R.insert(121, 21);
  EXPECT_EQ(R.size(), 3u);
  EXPECT_EQ(R.at(100), 0);
  EXPECT_EQ(R.at(121), 21);
  EXPECT_EQ(R.at(140), 40);
  std::vector<uint64_t> Seen;
  R.forEach([&](uint64_t S, const int &) { Seen.push_back(S); });
  EXPECT_EQ(Seen, (std::vector<uint64_t>{100, 121, 140}));
}

TEST(SeqRing, ClearKeepsCapacityWarm) {
  stream::SeqRing<int> R;
  for (uint64_t S = 1; S <= 12; ++S)
    R.insert(S, 1);
  R.clear();
  EXPECT_TRUE(R.empty());
  uint64_t Before = allocCount();
  for (uint64_t S = 1; S <= 12; ++S)
    R.insert(S, 2);
  EXPECT_EQ(allocCount(), Before) << "clear() must retain the slot array";
  EXPECT_EQ(R.at(7), 2);
}

//===----------------------------------------------------------------------===//
// Zero-copy frame sealing
//===----------------------------------------------------------------------===//

namespace {

stream::Message sampleCallBatch() {
  stream::CallBatchMsg M;
  M.Agent = 7;
  M.Group = 2;
  M.Inc = 3;
  M.AckReplyThrough = 41;
  M.FlushReplies = true;
  for (uint64_t S = 42; S != 46; ++S) {
    stream::CallReq C;
    C.S = S;
    C.Port = 9;
    C.DeadlineNs = 1234567;
    C.Args = wire::Bytes(100 + S, static_cast<uint8_t>(S));
    M.Calls.push_back(std::move(C));
  }
  return M;
}

stream::Message sampleReplyBatch() {
  stream::ReplyBatchMsg M;
  M.Agent = 7;
  M.Group = 2;
  M.Inc = 3;
  M.AckCallThrough = 45;
  M.CompletedThrough = 44;
  M.Broken = true;
  M.BreakReason = "handler crashed";
  for (uint64_t S = 43; S != 45; ++S) {
    stream::WireReply W;
    W.S = S;
    W.Status = stream::ReplyStatus::Exception;
    W.ExTag = 5;
    W.Payload = wire::Bytes(64, 0xEE);
    W.Reason = "why";
    M.Replies.push_back(std::move(W));
  }
  return M;
}

stream::Message sampleCancel() {
  stream::CancelMsg M;
  M.Agent = 7;
  M.Group = 2;
  M.Inc = 3;
  M.Seqs = {44, 45};
  return M;
}

} // namespace

TEST(ZeroCopySeal, ExactlyOneAllocationPerSealedMessage) {
  // The exact-size reserve must keep a framed encode to a single buffer
  // allocation. This pins the encodedSizeOf() size math in
  // StreamTransport.cpp to the Codec<> layouts: any drift shows up here
  // as a reallocation.
  for (const stream::Message &M :
       {sampleCallBatch(), sampleReplyBatch(), sampleCancel()}) {
    uint64_t Before = allocCount();
    wire::Bytes Framed = stream::encodeFramedMessage(M, true);
    uint64_t After = allocCount();
    EXPECT_EQ(After - Before, 1u);
    EXPECT_GT(Framed.size(), wire::FrameHeaderBytes);
  }
}

TEST(ZeroCopySeal, CopiesZeroPayloadBytes) {
  uint64_t CopiedBefore = wire::frameStats().PayloadBytesCopied;
  uint64_t FinishedBefore = wire::frameStats().FramesFinished;
  (void)stream::encodeFramedMessage(sampleCallBatch(), true);
  EXPECT_EQ(wire::frameStats().PayloadBytesCopied, CopiedBefore);
  EXPECT_EQ(wire::frameStats().FramesFinished, FinishedBefore + 1);
}

//===----------------------------------------------------------------------===//
// Zero-copy receive and encoder allocations
//===----------------------------------------------------------------------===//

TEST(ZeroCopyOpen, InPlaceOpenAllocatesOnlyWhatDecodingAllocates) {
  // Opening a frame in place and decoding from the view must cost exactly
  // the decode's own allocations: no copy of the payload is made.
  stream::Message M = sampleCallBatch();
  wire::Bytes Frame = stream::encodeFramedMessage(M, true);
  std::optional<wire::Bytes> Payload = wire::openFrame(Frame); // A copy.
  ASSERT_TRUE(Payload.has_value());

  uint64_t Before = allocCount();
  std::optional<stream::Message> Bare = stream::decodeMessage(*Payload);
  uint64_t BareAllocs = allocCount() - Before;

  Before = allocCount();
  std::optional<wire::ByteView> View = wire::openFrameInPlace(Frame);
  ASSERT_TRUE(View.has_value());
  std::optional<stream::Message> Framed = stream::decodeMessage(*View);
  uint64_t FramedAllocs = allocCount() - Before;

  ASSERT_TRUE(Bare.has_value());
  ASSERT_TRUE(Framed.has_value());
  EXPECT_TRUE(*Framed == M);
  EXPECT_GT(BareAllocs, 0u);
  EXPECT_EQ(FramedAllocs, BareAllocs);
}

TEST(EncoderWrites, OneKiBStringEncodesInAtMostTwoAllocations) {
  // The length prefix goes in with one insert, so the buffer grows once
  // for the prefix and once for the bytes, never byte by byte.
  std::string S(1024, 'x');
  uint64_t Before = allocCount();
  std::optional<wire::Bytes> B = wire::encodeToBytes(S);
  uint64_t Allocs = allocCount() - Before;
  ASSERT_TRUE(B.has_value());
  EXPECT_EQ(B->size(), 4u + 1024u);
  EXPECT_LE(Allocs, 2u);
}

TEST(EncoderWrites, SequenceDecodeAllocatesTheVectorOnce) {
  // Codec<std::vector<T>> reserves from the length prefix (capped by the
  // bytes present), so a scalar sequence decodes in one allocation.
  std::vector<uint32_t> V(1000);
  for (uint32_t I = 0; I != V.size(); ++I)
    V[I] = I * 7;
  std::optional<wire::Bytes> B = wire::encodeToBytes(V);
  ASSERT_TRUE(B.has_value());
  uint64_t Before = allocCount();
  std::optional<std::vector<uint32_t>> Out =
      wire::decodeFromBytes<std::vector<uint32_t>>(*B);
  uint64_t Allocs = allocCount() - Before;
  ASSERT_TRUE(Out.has_value());
  EXPECT_EQ(*Out, V);
  EXPECT_EQ(Allocs, 1u);
}

//===----------------------------------------------------------------------===//
// Promise slab
//===----------------------------------------------------------------------===//

TEST(PromiseSlab, SteadyStateChurnAllocatesNothing) {
  sim::Simulation Sim;
  // Warm one slab's worth of states.
  for (int I = 0; I != 80; ++I) {
    auto [P, R] = core::makePromise<uint64_t>(Sim);
    R.fulfill(core::Outcome<uint64_t>(uint64_t(I)));
    EXPECT_TRUE(P.ready());
  }
  // Steady state: every create/fulfill/drop cycle recycles a slab slot.
  uint64_t Before = allocCount();
  for (int I = 0; I != 1000; ++I) {
    auto [P, R] = core::makePromise<uint64_t>(Sim);
    R.fulfill(core::Outcome<uint64_t>(uint64_t(I)));
    EXPECT_EQ(P.claim().value(), uint64_t(I));
  }
  EXPECT_EQ(allocCount(), Before)
      << "promise churn must recycle slab slots, not hit the heap";
}

TEST(PromiseSlab, CopiesShareStateAndOutliveResolver) {
  sim::Simulation Sim;
  auto [P, R] = core::makePromise<int>(Sim);
  core::Promise<int> P2 = P;       // Copy: shared state.
  core::Promise<int> P3 = std::move(P);
  EXPECT_FALSE(P.valid()); // NOLINT: moved-from promises are invalid.
  {
    core::Resolver<int> R2 = R; // Resolver copies share too.
    R2.fulfill(core::Outcome<int>(17));
  }
  EXPECT_TRUE(P2.ready());
  EXPECT_TRUE(P3.ready());
  EXPECT_EQ(P2.claim().value(), 17);
  EXPECT_EQ(P3.claim().value(), 17);
}

TEST(PromiseSlab, MakeReadyHasNoWaitQueue) {
  auto P = core::Promise<int>::makeReady(core::Outcome<int>(5));
  EXPECT_TRUE(P.ready());
  EXPECT_EQ(P.claim().value(), 5);
}

TEST(PromiseSlab, ThreadBackendProcessesShareOneFreelist) {
  // Each thread-backend process runs on its own OS thread. A per-thread
  // freelist would strand the slab each process takes when its thread
  // ends (one leaked slab per process); one process-wide freelist
  // recycles a single slab across all of them.
  struct KiB {
    char Bytes[1024];
  };
  static_assert(64 * sizeof(KiB) >= LargeAllocBytes);
  sim::SimConfig Cfg;
  Cfg.Backend = sim::BackendKind::Thread;
  sim::Simulation Sim(Cfg);
  uint64_t Before = largeAllocCount();
  constexpr int Procs = 24;
  int Claimed = 0;
  for (int I = 0; I != Procs; ++I)
    Sim.spawn("maker", [&] {
      auto [P, R] = core::makePromise<KiB>(Sim);
      R.fulfill(core::Outcome<KiB>(KiB{}));
      (void)P.claim();
      ++Claimed;
    });
  Sim.run();
  EXPECT_EQ(Claimed, Procs);
  EXPECT_LE(largeAllocCount() - Before, 1u)
      << "each process thread took a slab of its own";
}

//===----------------------------------------------------------------------===//
// Timed-event heap
//===----------------------------------------------------------------------===//

TEST(EventHeap, CancelPreventsExecutionAndStaleIdsMiss) {
  sim::Simulation Sim;
  int Fired = 0;
  uint64_t A = Sim.schedule(100, [&] { ++Fired; });
  uint64_t B = Sim.schedule(200, [&] { Fired += 10; });
  Sim.cancel(A);
  Sim.cancel(A); // Double cancel: no-op.
  Sim.run();
  EXPECT_EQ(Fired, 10);
  // B already ran; its id is stale now. Cancelling it must be a no-op
  // even though its pooled slot has been recycled.
  Sim.cancel(B);
  int After = 0;
  uint64_t C = Sim.schedule(50, [&] { ++After; });
  Sim.cancel(B); // Still stale, possibly aliasing C's slot — must miss.
  Sim.run();
  EXPECT_EQ(After, 1) << "stale cancel must not hit a recycled slot";
  (void)C;
}

TEST(EventHeap, DispatchOrderIsTimeThenScheduleOrder) {
  sim::Simulation Sim;
  std::vector<int> Order;
  Sim.schedule(100, [&] { Order.push_back(2); });
  Sim.schedule(50, [&] { Order.push_back(1); });
  Sim.schedule(100, [&] { Order.push_back(3); }); // Same time: FIFO.
  Sim.schedule(150, [&] { Order.push_back(4); });
  Sim.run();
  EXPECT_EQ(Order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(EventHeap, CancelledEventDoesNotAdvanceClock) {
  sim::Simulation Sim;
  uint64_t Late = Sim.schedule(1000000, [] {});
  Sim.schedule(10, [] {});
  Sim.cancel(Late);
  Sim.run();
  EXPECT_EQ(Sim.now(), 10u)
      << "a tombstoned event must be dropped without advancing time";
}

TEST(EventHeap, SteadyStateSchedulingAllocatesOnlyTheClosure) {
  sim::Simulation Sim;
  // Warm the heap and pool past the measured high-water mark of
  // outstanding events.
  for (int I = 0; I != 128; ++I)
    Sim.schedule(I, [] {});
  Sim.run();
  uint64_t Before = allocCount();
  for (int I = 0; I != 100; ++I)
    Sim.schedule(I, [] {}); // Captureless: fits std::function inline.
  uint64_t Armed = allocCount();
  EXPECT_EQ(Armed, Before)
      << "arming a timer must not allocate once heap and pool are warm";
  Sim.run();
  EXPECT_EQ(allocCount(), Armed);
}

//===----------------------------------------------------------------------===//
// End-to-end allocation budget
//===----------------------------------------------------------------------===//

namespace {

struct EchoWorld {
  sim::Simulation Sim;
  net::SimNetwork Net;
  std::unique_ptr<stream::StreamTransport> Client;
  std::unique_ptr<stream::StreamTransport> Server;
  stream::AgentId Agent = 0;

  EchoWorld() : Net(Sim) {
    net::NodeId C = Net.addNode("client");
    net::NodeId S = Net.addNode("server");
    Client = std::make_unique<stream::StreamTransport>(Net, C);
    Server = std::make_unique<stream::StreamTransport>(Net, S);
    Agent = Client->newAgent();
    Server->setCallSink([](stream::IncomingCall IC) {
      IC.Complete(stream::ReplyStatus::Normal, 0, std::move(IC.Args), {});
    });
  }

  core::Promise<uint64_t> issue(const wire::Bytes &Args) {
    auto [P, R] = core::makePromise<uint64_t>(Sim);
    auto Issue = Client->issueCall(
        Agent, Server->address(), 1, 1, wire::Bytes(Args), false, true,
        [R = R](const stream::ReplyOutcome &O) {
          R.fulfill(core::Outcome<uint64_t>(
              static_cast<uint64_t>(O.Payload.size())));
        });
    EXPECT_TRUE(Issue.Issued);
    return P;
  }
};

} // namespace

TEST(HotPathBudget, RpcRoundTripStaysUnderAllocationCeiling) {
  // Machine-independent twin of bench_hotpath's allocs/call metric. The
  // PR 7 baseline measured 96.4 allocs per RPC; the acceptance bar is a
  // 2x reduction (<= 48.2). The measured value is now 27 per call;
  // the ceiling leaves headroom for stdlib variation while still failing
  // if the old per-call node allocations creep back.
  EchoWorld W;
  wire::Bytes Args(64, 0xAB);
  double PerCall = 0;
  uint64_t SealCopied = 0;
  W.Sim.spawn("driver", [&] {
    for (int I = 0; I != 200; ++I) // Warm slabs, rings, pools.
      W.issue(Args).claim();
    uint64_t A0 = allocCount();
    uint64_t C0 = wire::frameStats().PayloadBytesCopied;
    constexpr int N = 500;
    for (int I = 0; I != N; ++I)
      W.issue(Args).claim();
    PerCall = static_cast<double>(allocCount() - A0) / N;
    SealCopied = wire::frameStats().PayloadBytesCopied - C0;
  });
  W.Sim.run();
  EXPECT_GT(PerCall, 0.0);
  EXPECT_LE(PerCall, 48.2) << "RPC hot path regressed past the 2x-vs-"
                              "baseline allocation criterion";
  EXPECT_EQ(SealCopied, 0u) << "send path must seal frames in place";
}
