//===- apps_twophase_test.cpp - Distributed commit tests ------------------===//
//
// Part of the promises project (PLDI 1988 reproduction).
//
// Every scenario runs twice over the same ports: once volatile (no
// stable store, no coordinator kit) and once durable (WAL-backed
// participants, a coordinator kit on the client). Where durability
// legitimately changes the outcome, the scenario asserts both.
//
//===----------------------------------------------------------------------===//

#include "promises/apps/TwoPhase.h"

#include <gtest/gtest.h>

using namespace promises;
using namespace promises::apps;
using namespace promises::core;
using namespace promises::runtime;
using namespace promises::sim;

namespace {

enum class Mode { Volatile, Durable };

/// Two participants and a client guardian. In durable mode each
/// participant has its own WAL and a resolver that queries the kit
/// installed on the client.
struct World {
  const bool Durable;
  Simulation S;
  std::unique_ptr<storage::StableStore> WalA, WalB, CoordWal;
  std::unique_ptr<net::SimNetwork> Net;
  std::vector<std::unique_ptr<Guardian>> Guardians;
  Guardian *GA = nullptr, *GB = nullptr, *Client = nullptr;
  net::NodeId NA = 0, NB = 0;
  TwoPhaseCoordinatorKit Kit;
  TxnKv KvA, KvB;

  explicit World(Mode M) : Durable(M == Mode::Durable) {
    Net = std::make_unique<net::SimNetwork>(S, net::NetConfig{});
    GA = &newGuardian("a", NA);
    GB = &newGuardian("b", NB);
    net::NodeId NC;
    Client = &newGuardian("cl", NC);
    if (Durable) {
      WalA = newWal("a");
      WalB = newWal("b");
      CoordWal = newWal("coord");
      Kit = installTwoPhaseCoordinator(*Client, *CoordWal);
    }
    KvA = installTxnKv(*GA, txnConfig(*GA, WalA.get()));
    KvB = installTxnKv(*GB, txnConfig(*GB, WalB.get()));
  }

  Guardian &newGuardian(const std::string &Name, net::NodeId &Node) {
    GuardianConfig GC;
    GC.Stream.RetransmitTimeout = msec(10);
    GC.Stream.MaxRetries = 2;
    Node = Net->addNode(Name);
    Guardians.push_back(std::make_unique<Guardian>(*Net, Node, Name, GC));
    return *Guardians.back();
  }

  std::unique_ptr<storage::StableStore> newWal(const std::string &Name) {
    storage::StorageConfig SC;
    SC.Name = Name;
    return std::make_unique<storage::StableStore>(S, SC);
  }

  TxnKvConfig txnConfig(Guardian &G, storage::StableStore *Wal) {
    TxnKvConfig TC;
    TC.Wal = Wal;
    if (Wal != nullptr)
      TC.QueryStatus = [this, &G](uint64_t Gtid) -> int {
        auto H = bindHandler(G, G.newAgent(), Kit.StatusPort);
        auto Out = H.call(Gtid);
        return Out.isNormal() ? static_cast<int>(Out.value()) : -1;
      };
    return TC;
  }

  /// The coordinator's kit: null when volatile.
  const TwoPhaseCoordinatorKit *kit() const {
    return Durable ? &Kit : nullptr;
  }

  /// B has voted yes: a volatile vote is the prepared flag, a durable
  /// one is the prepare record forced to stable media.
  bool bVoted() const {
    if (Durable)
      return WalB->syncedBytes() > 0;
    for (const auto &[Id, Txn] : KvB.Store->Txns)
      if (Txn.Prepared)
        return true;
    return false;
  }

  /// Reinstalls B from its media on a fresh node after a crash.
  TxnKv restartB() {
    WalB->crash();
    net::NodeId Node;
    Guardian &G = newGuardian("b2", Node);
    return installTxnKv(G, txnConfig(G, WalB.get()));
  }
};

struct TwoPhaseFixture : ::testing::Test {
  /// Runs \p Scenario on a fresh volatile world, then a durable one.
  template <class F> void forEachMode(F Scenario) {
    for (Mode M : {Mode::Volatile, Mode::Durable}) {
      SCOPED_TRACE(M == Mode::Volatile ? "volatile" : "durable");
      World W(M);
      Scenario(W);
    }
  }
};

TEST_F(TwoPhaseFixture, CommitAppliesAtAllParticipants) {
  forEachMode([](World &W) {
    TwoPhaseResult R = TwoPhaseResult::Aborted;
    uint64_t Gtid = 0;
    W.Client->spawnProcess("txn", [&] {
      TwoPhaseCoordinator T(*W.Client, W.kit());
      size_t A = T.enlist(W.KvA);
      size_t B = T.enlist(W.KvB);
      EXPECT_TRUE(T.put(A, "x", "1"));
      EXPECT_TRUE(T.put(B, "y", "2"));
      EXPECT_TRUE(T.put(A, "z", "3"));
      R = T.commit();
      Gtid = T.gtid();
    });
    W.S.run();
    EXPECT_EQ(R, TwoPhaseResult::Committed);
    EXPECT_EQ(W.KvA.Store->Data["x"], "1");
    EXPECT_EQ(W.KvA.Store->Data["z"], "3");
    EXPECT_EQ(W.KvB.Store->Data["y"], "2");
    EXPECT_TRUE(W.KvA.Store->Locks.empty());
    EXPECT_TRUE(W.KvB.Store->Locks.empty());
    if (W.Durable) {
      // The decision and both participants' commits are on the media.
      EXPECT_NE(Gtid, 0u);
      EXPECT_TRUE(W.Kit.St->Committed.count(Gtid));
      EXPECT_TRUE(W.Kit.St->Active.empty());
      EXPECT_TRUE(W.KvA.Store->Applied.count(Gtid));
      EXPECT_TRUE(W.KvB.Store->Applied.count(Gtid));
      EXPECT_EQ(W.WalA->recordsInLog(), 2u); // Prepared + commit.
    } else {
      EXPECT_EQ(Gtid, 0u);
      EXPECT_TRUE(W.KvA.Store->Applied.empty());
    }
  });
}

TEST_F(TwoPhaseFixture, AbortLeavesNothingAnywhere) {
  forEachMode([](World &W) {
    W.Client->spawnProcess("txn", [&] {
      TwoPhaseCoordinator T(*W.Client, W.kit());
      size_t A = T.enlist(W.KvA);
      size_t B = T.enlist(W.KvB);
      T.put(A, "x", "1");
      T.put(B, "y", "2");
      T.abort();
    });
    W.S.run();
    EXPECT_TRUE(W.KvA.Store->Data.empty());
    EXPECT_TRUE(W.KvB.Store->Data.empty());
    EXPECT_EQ(W.KvA.Store->Aborts, 1u);
    EXPECT_EQ(W.KvB.Store->Aborts, 1u);
    if (W.Durable) {
      // Presumed abort: an abort before any prepare logs nothing, and
      // the coordinator's log holds only its incarnation.
      EXPECT_EQ(W.WalA->logBytes(), 0u);
      EXPECT_EQ(W.WalB->logBytes(), 0u);
      EXPECT_EQ(W.CoordWal->recordsInLog(), 1u);
      EXPECT_TRUE(W.Kit.St->Active.empty());
    }
  });
}

TEST_F(TwoPhaseFixture, ConflictDoomsTheTransaction) {
  forEachMode([](World &W) {
    TwoPhaseResult R1 = TwoPhaseResult::Aborted,
                   R2 = TwoPhaseResult::Aborted;
    W.Client->spawnProcess("txn1", [&] {
      TwoPhaseCoordinator T(*W.Client, W.kit());
      size_t A = T.enlist(W.KvA);
      EXPECT_TRUE(T.put(A, "shared", "first"));
      W.S.sleep(msec(50)); // Hold the lock while txn2 tries.
      R1 = T.commit();
    });
    W.Client->spawnProcess("txn2", [&] {
      W.S.sleep(msec(10));
      TwoPhaseCoordinator T(*W.Client, W.kit());
      size_t A = T.enlist(W.KvA);
      EXPECT_FALSE(T.put(A, "shared", "second")); // Conflict.
      EXPECT_TRUE(T.doomed());
      R2 = T.commit(); // Aborts.
    });
    W.S.run();
    EXPECT_EQ(R1, TwoPhaseResult::Committed);
    EXPECT_EQ(R2, TwoPhaseResult::Aborted);
    EXPECT_EQ(W.KvA.Store->Data["shared"], "first");
  });
}

TEST_F(TwoPhaseFixture, ParticipantCrashBeforePrepareAborts) {
  forEachMode([](World &W) {
    TwoPhaseResult R = TwoPhaseResult::Committed;
    W.Client->spawnProcess("txn", [&] {
      TwoPhaseCoordinator T(*W.Client, W.kit());
      size_t A = T.enlist(W.KvA);
      size_t B = T.enlist(W.KvB);
      EXPECT_TRUE(T.put(A, "x", "1"));
      EXPECT_TRUE(T.put(B, "y", "2"));
      W.Net->crash(W.NB); // B dies before voting.
      R = T.commit();
    });
    W.S.run();
    EXPECT_EQ(R, TwoPhaseResult::Aborted);
    // The surviving participant rolled back: atomicity held.
    EXPECT_TRUE(W.KvA.Store->Data.empty());
    EXPECT_EQ(W.KvA.Store->Aborts, 1u);
    EXPECT_TRUE(W.KvA.Store->Locks.empty());
    if (W.Durable) {
      // B never voted, so its restart finds nothing in doubt.
      TxnKv Reborn = W.restartB();
      EXPECT_EQ(Reborn.Store->InDoubtRecovered, 0u);
      EXPECT_TRUE(Reborn.Store->Txns.empty());
    }
  });
}

TEST_F(TwoPhaseFixture, ParticipantCrashAfterVoteIsInDoubt) {
  // The classic 2PC blocking window, surfaced honestly.
  forEachMode([](World &W) {
    TwoPhaseResult R = TwoPhaseResult::Committed;
    // A watcher crashes B the instant its vote is recorded — inside the
    // window between phase 1 and phase 2 (the commit needs another
    // round trip, far longer than the watcher's poll).
    W.S.spawn("assassin", [&] {
      while (!W.bVoted()) {
        if (W.S.now() > msec(500))
          return; // B never voted: the expectations below fail.
        W.S.sleep(usec(100));
      }
      W.Net->crash(W.NB);
    });
    W.Client->spawnProcess("txn", [&] {
      TwoPhaseCoordinator T(*W.Client, W.kit());
      size_t A = T.enlist(W.KvA);
      size_t B = T.enlist(W.KvB);
      EXPECT_TRUE(T.put(A, "x", "1"));
      EXPECT_TRUE(T.put(B, "y", "2"));
      R = T.commit();
    });
    W.S.run();
    EXPECT_EQ(R, TwoPhaseResult::InDoubt);
    // The survivor committed; the lost participant's fate is unknown
    // to this client.
    EXPECT_EQ(W.KvA.Store->Data["x"], "1");
    if (W.Durable) {
      // ...but not to B: its forced vote replays in doubt, and the
      // resolver redoes the commit the kit logged.
      TxnKv Reborn = W.restartB();
      EXPECT_EQ(Reborn.Store->InDoubtRecovered, 1u);
      EXPECT_EQ(Reborn.Store->Locks.count("y"), 1u);
      W.S.run();
      EXPECT_EQ(Reborn.Store->ResolvedCommits, 1u);
      EXPECT_EQ(Reborn.Store->Data["y"], "2");
      EXPECT_TRUE(Reborn.Store->Locks.empty());
    }
  });
}

TEST_F(TwoPhaseFixture, ReadYourWritesThroughStagedState) {
  forEachMode([](World &W) {
    std::string Before, Inside;
    W.Client->spawnProcess("txn", [&] {
      TwoPhaseCoordinator T(*W.Client, W.kit());
      size_t A = T.enlist(W.KvA);
      T.put(A, "k", "staged");
      // A second coordinator/agent reading the same key sees nothing...
      auto Probe = bindHandler(*W.Client, W.Client->newAgent(), W.KvA.Get);
      // ...but probing needs its own txn.
      auto ProbeBegin =
          bindHandler(*W.Client, W.Client->newAgent(), W.KvA.Begin);
      uint32_t PT = ProbeBegin.call(wire::Unit{}).value();
      Before = Probe.call(PT, std::string("k")).value();
      T.commit();
      Inside = Probe.call(PT, std::string("k")).value();
    });
    W.S.run();
    EXPECT_EQ(Before, "");       // Uncommitted writes are invisible.
    EXPECT_EQ(Inside, "staged"); // Visible after commit.
  });
}

TEST_F(TwoPhaseFixture, EmptyTransactionCommitsTrivially) {
  forEachMode([](World &W) {
    TwoPhaseResult R = TwoPhaseResult::Aborted;
    W.Client->spawnProcess("txn", [&] {
      TwoPhaseCoordinator T(*W.Client, W.kit());
      T.enlist(W.KvA);
      T.enlist(W.KvB);
      R = T.commit(); // No participant was ever begun.
    });
    W.S.run();
    EXPECT_EQ(R, TwoPhaseResult::Committed);
    EXPECT_EQ(W.KvA.Store->Commits, 0u);
    if (W.Durable) {
      EXPECT_TRUE(W.Kit.St->Active.empty());
    }
  });
}

TEST(TwoPhaseDeathTest, DurableCoordinatorRefusesVolatileParticipant) {
  World W(Mode::Durable);
  net::NodeId Node;
  TxnKv Volatile = installTxnKv(W.newGuardian("v", Node));
  EXPECT_FALSE(Volatile.Durable);
  EXPECT_DEATH(
      {
        TwoPhaseCoordinator T(*W.Client, W.kit());
        T.enlist(Volatile);
      },
      "durable coordinator requires durable participants");
}

} // namespace
