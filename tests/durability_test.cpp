//===- durability_test.cpp - Crash recovery integration tests -------------===//
//
// Part of the promises project (PLDI 1988 reproduction).
//
// The durable protocols from docs/DURABILITY.md, end to end on the
// simulator: a WAL-backed KvStore whose acknowledged writes survive a
// crash and reinstall, snapshot compaction, and the presumed-abort
// durable 2PC — including the regression this PR exists for: a
// coordinator that crashes between phase 1 and phase 2 leaves a
// prepared participant in doubt, and after both restart the
// transaction resolves to abort (presumed) and releases its locks.
//
//===----------------------------------------------------------------------===//

#include "promises/apps/KvStore.h"
#include "promises/apps/TwoPhase.h"

#include <gtest/gtest.h>

using namespace promises;
using namespace promises::apps;
using namespace promises::core;
using namespace promises::runtime;
using namespace promises::sim;

namespace {

struct DurabilityFixture : ::testing::Test {
  Simulation S;
  std::unique_ptr<net::SimNetwork> Net;
  std::vector<std::unique_ptr<Guardian>> Guardians;

  void SetUp() override {
    Net = std::make_unique<net::SimNetwork>(S, net::NetConfig{});
  }

  Guardian &newGuardian(const std::string &Name) {
    Guardians.push_back(std::make_unique<Guardian>(
        *Net, Net->addNode(Name), Name, GuardianConfig{}));
    return *Guardians.back();
  }

  /// A store whose un-synced suffix always vanishes at a crash — the
  /// paper-faithful volatile write-back cache.
  std::unique_ptr<storage::StableStore> newWal(const std::string &Name,
                                               double TornRate = 0.0) {
    storage::StorageConfig SC;
    SC.Name = Name;
    SC.Faults = {1.0, TornRate, 42};
    return std::make_unique<storage::StableStore>(S, SC);
  }
};

TEST_F(DurabilityFixture, AckedKvPutsSurviveCrashAndReplay) {
  auto Wal = newWal("kv");
  KvStoreConfig KC;
  KC.Wal = Wal.get();
  KvStore Kv = installKvStore(newGuardian("srv"), KC);

  Guardian &Client = newGuardian("cl");
  Client.spawnProcess("writer", [&] {
    auto Put = bindHandler(Client, Client.newAgent(), Kv.Put);
    EXPECT_TRUE(Put.call("k1", "v1").isNormal());
    EXPECT_TRUE(Put.call("k2", "v2").isNormal());
  });
  S.run();

  Wal->crash(); // Both puts were acked, so both were forced.
  KvStore Reborn = installKvStore(newGuardian("srv2"), KC);
  EXPECT_EQ(Reborn.Store->Data["k1"], "v1");
  EXPECT_EQ(Reborn.Store->Data["k2"], "v2");
  EXPECT_EQ(Reborn.Store->Replayed, 2u);
  EXPECT_FALSE(Reborn.Store->RecoveredTorn);
}

TEST_F(DurabilityFixture, UnsyncedWriteIsInvisibleAfterCrash) {
  auto Wal = newWal("kv");
  KvStoreConfig KC;
  KC.Wal = Wal.get();
  KvStore Kv = installKvStore(newGuardian("srv"), KC);

  Guardian &Client = newGuardian("cl");
  Client.spawnProcess("writer", [&] {
    auto Put = bindHandler(Client, Client.newAgent(), Kv.Put);
    EXPECT_TRUE(Put.call("acked", "yes").isNormal());
  });
  S.run();

  // A write the crash interrupted between append and force: on the log
  // tail, never acknowledged, and therefore free to vanish.
  wire::Encoder E;
  E.writeString("ghost");
  E.writeString("never-acked");
  Wal->append(E.take());
  Wal->crash();

  KvStore Reborn = installKvStore(newGuardian("srv2"), KC);
  EXPECT_EQ(Reborn.Store->Data.count("ghost"), 0u);
  EXPECT_EQ(Reborn.Store->Data["acked"], "yes");
  EXPECT_EQ(Reborn.Store->Replayed, 1u);
}

TEST_F(DurabilityFixture, SnapshotCompactionLosesNothing) {
  auto Wal = newWal("kv");
  KvStoreConfig KC;
  KC.Wal = Wal.get();
  KC.SnapshotEvery = 4; // Compact aggressively.
  KvStore Kv = installKvStore(newGuardian("srv"), KC);

  Guardian &Client = newGuardian("cl");
  Client.spawnProcess("writer", [&] {
    auto Put = bindHandler(Client, Client.newAgent(), Kv.Put);
    for (int I = 0; I != 10; ++I)
      EXPECT_TRUE(
          Put.call("k" + std::to_string(I), "v" + std::to_string(I))
              .isNormal());
  });
  S.run();
  EXPECT_LT(Wal->recordsInLog(), 10u); // At least one checkpoint fired.

  Wal->crash();
  KvStore Reborn = installKvStore(newGuardian("srv2"), KC);
  ASSERT_EQ(Reborn.Store->Data.size(), 10u);
  for (int I = 0; I != 10; ++I)
    EXPECT_EQ(Reborn.Store->Data["k" + std::to_string(I)],
              "v" + std::to_string(I));
  EXPECT_LT(Reborn.Store->Replayed, 10u); // Snapshot carried the rest.
}

TEST_F(DurabilityFixture, DurableCommitSurvivesParticipantCrash) {
  auto WalA = newWal("a"), WalB = newWal("b"), CoordWal = newWal("coord");
  TwoPhaseCoordinatorKit Kit =
      installTwoPhaseCoordinator(newGuardian("coord"), *CoordWal);

  TxnKvConfig TC;
  TC.Wal = WalA.get();
  TxnKv KvA = installTxnKv(newGuardian("a"), TC);
  TC.Wal = WalB.get();
  TxnKv KvB = installTxnKv(newGuardian("b"), TC);

  Guardian &Client = newGuardian("cl");
  TwoPhaseResult R = TwoPhaseResult::Aborted;
  uint64_t Gtid = 0;
  Client.spawnProcess("txn", [&] {
    TwoPhaseCoordinator T(Client, &Kit);
    size_t A = T.enlist(KvA);
    size_t B = T.enlist(KvB);
    EXPECT_TRUE(T.put(A, "x", "1"));
    EXPECT_TRUE(T.put(B, "y", "2"));
    R = T.commit();
    Gtid = T.gtid();

    // Replays of the decision are idempotent: a resolver or retry that
    // re-delivers Commit for an already-applied gtid succeeds as a
    // no-op even when the local txn id is long gone.
    auto Dup = bindHandler(Client, Client.newAgent(), KvA.Commit);
    EXPECT_TRUE(Dup.call(9999u, Gtid).isNormal());
  });
  S.run();
  ASSERT_EQ(R, TwoPhaseResult::Committed);
  ASSERT_NE(Gtid, 0u);
  EXPECT_TRUE(Kit.St->Committed.count(Gtid));

  WalA->crash();
  TC.Wal = WalA.get();
  TxnKv Reborn = installTxnKv(newGuardian("a2"), TC);
  EXPECT_EQ(Reborn.Store->Data["x"], "1");
  EXPECT_TRUE(Reborn.Store->Applied.count(Gtid));
  EXPECT_TRUE(Reborn.Store->Locks.empty());
  EXPECT_TRUE(Reborn.Store->Txns.empty());
  EXPECT_EQ(KvB.Store->Data["y"], "2"); // B never crashed.
}

/// A durable vote is keyed by its gtid in the log, so a prepare that
/// carries none (a coordinator without a kit) must be refused, not
/// logged under gtid 0 where no decision could ever find it.
TEST_F(DurabilityFixture, DurableParticipantVotesNoWithoutGtid) {
  auto WalA = newWal("a");
  TxnKvConfig TC;
  TC.Wal = WalA.get();
  TxnKv KvA = installTxnKv(newGuardian("a"), TC);
  EXPECT_TRUE(KvA.Durable);

  Guardian &Client = newGuardian("cl");
  Client.spawnProcess("txn", [&] {
    auto Agent = Client.newAgent();
    uint32_t Txn = bindHandler(Client, Agent, KvA.Begin)
                       .call(wire::Unit{})
                       .value();
    ASSERT_TRUE(bindHandler(Client, Agent, KvA.Put)
                    .call(Txn, "k", "v")
                    .isNormal());
    auto Vote = bindHandler(Client, Agent, KvA.Prepare).call(Txn, uint64_t{0});
    ASSERT_TRUE(Vote.isNormal());
    EXPECT_FALSE(Vote.value());
  });
  S.run();
  EXPECT_EQ(WalA->logBytes(), 0u); // Nothing was forced for the vote.
  ASSERT_EQ(KvA.Store->Txns.size(), 1u);
  EXPECT_FALSE(KvA.Store->Txns.begin()->second.Prepared);
}

/// The regression this PR's satellite demands: the coordinator crashes
/// between phase 1 (participant prepared, vote logged and forced) and
/// phase 2 (no decision ever logged). The participant crashes too and
/// restarts; replay revives the prepared transaction *with its locks
/// held*, and the resolver must settle it against the restarted
/// coordinator — whose incarnation knows nothing of the gtid, which
/// under presumed abort authoritatively means aborted. The lock must
/// not survive.
TEST_F(DurabilityFixture, CoordinatorCrashBetweenPhasesResolvesToAbort) {
  auto WalA = newWal("a"), CoordWal = newWal("coord");
  TwoPhaseCoordinatorKit Kit1 =
      installTwoPhaseCoordinator(newGuardian("coord"), *CoordWal);

  // First incarnation: no QueryStatus wired, so the prepared txn blocks
  // exactly like the classic 2PC hole until recovery.
  TxnKvConfig TC;
  TC.Wal = WalA.get();
  TxnKv KvA = installTxnKv(newGuardian("a"), TC);

  Guardian &Client = newGuardian("cl");
  uint64_t Gtid = Kit1.St->beginTxn();
  Client.spawnProcess("phase1", [&] {
    auto Agent = Client.newAgent();
    auto Begin = bindHandler(Client, Agent, KvA.Begin);
    auto Out = Begin.call(wire::Unit{});
    ASSERT_TRUE(Out.isNormal());
    uint32_t Txn = Out.value();
    auto Put = bindHandler(Client, Agent, KvA.Put);
    ASSERT_TRUE(Put.call(Txn, "k", "doomed").isNormal());
    auto Prep = bindHandler(Client, Agent, KvA.Prepare);
    auto Vote = Prep.call(Txn, Gtid);
    ASSERT_TRUE(Vote.isNormal());
    EXPECT_TRUE(Vote.value()); // Voted yes; prepare is on stable media.
  });
  S.run();
  EXPECT_EQ(KvA.Store->Locks.count("k"), 1u);

  // Coordinator and participant both crash before any phase-2 message.
  // The restarted coordinator replays only its incarnation record — the
  // in-flight gtid was volatile by design.
  CoordWal->crash();
  TwoPhaseCoordinatorKit Kit2 =
      installTwoPhaseCoordinator(newGuardian("coord2"), *CoordWal);
  EXPECT_GT(Kit2.St->Incarnation, Kit1.St->Incarnation);
  EXPECT_FALSE(Kit2.St->Committed.count(Gtid));
  EXPECT_FALSE(Kit2.St->Active.count(Gtid));

  WalA->crash();
  Guardian &SrvA2 = newGuardian("a2");
  TC.QueryStatus = [&Client = SrvA2, &Kit2](uint64_t G) -> int {
    auto H = bindHandler(Client, Client.newAgent(), Kit2.StatusPort);
    auto Out = H.call(G);
    return Out.isNormal() ? static_cast<int>(Out.value()) : -1;
  };
  TxnKv Reborn = installTxnKv(SrvA2, TC);

  // Replay revived the in-doubt transaction, locks and all.
  EXPECT_EQ(Reborn.Store->InDoubtRecovered, 1u);
  EXPECT_EQ(Reborn.Store->Locks.count("k"), 1u);

  S.run(); // The resolver probes the new incarnation: presumed abort.
  EXPECT_EQ(Reborn.Store->ResolvedAborts, 1u);
  EXPECT_EQ(Reborn.Store->ResolvedCommits, 0u);
  EXPECT_TRUE(Reborn.Store->Locks.empty());
  EXPECT_TRUE(Reborn.Store->Txns.empty());
  EXPECT_EQ(Reborn.Store->Data.count("k"), 0u);
}

/// The mirror image: the coordinator forced its commit decision and
/// *then* everything crashed. The restarted coordinator replays the
/// decision, so the revived in-doubt participant must redo, not abort.
TEST_F(DurabilityFixture, LoggedDecisionResolvesToCommitAfterRestart) {
  auto WalA = newWal("a"), CoordWal = newWal("coord");
  TwoPhaseCoordinatorKit Kit1 =
      installTwoPhaseCoordinator(newGuardian("coord"), *CoordWal);

  TxnKvConfig TC;
  TC.Wal = WalA.get();
  TxnKv KvA = installTxnKv(newGuardian("a"), TC);

  Guardian &Client = newGuardian("cl");
  uint64_t Gtid = Kit1.St->beginTxn();
  Client.spawnProcess("phase1", [&] {
    auto Agent = Client.newAgent();
    auto Begin = bindHandler(Client, Agent, KvA.Begin);
    auto Out = Begin.call(wire::Unit{});
    ASSERT_TRUE(Out.isNormal());
    uint32_t Txn = Out.value();
    auto Put = bindHandler(Client, Agent, KvA.Put);
    ASSERT_TRUE(Put.call(Txn, "k", "committed").isNormal());
    auto Prep = bindHandler(Client, Agent, KvA.Prepare);
    ASSERT_TRUE(Prep.call(Txn, Gtid).isNormal());
    Kit1.St->logCommit(Gtid); // Phase 2 dies right after this force.
  });
  S.run();

  CoordWal->crash();
  TwoPhaseCoordinatorKit Kit2 =
      installTwoPhaseCoordinator(newGuardian("coord2"), *CoordWal);
  EXPECT_TRUE(Kit2.St->Committed.count(Gtid)); // The decision replayed.

  WalA->crash();
  Guardian &SrvA2 = newGuardian("a2");
  TC.QueryStatus = [&SrvA2, &Kit2](uint64_t G) -> int {
    auto H = bindHandler(SrvA2, SrvA2.newAgent(), Kit2.StatusPort);
    auto Out = H.call(G);
    return Out.isNormal() ? static_cast<int>(Out.value()) : -1;
  };
  TxnKv Reborn = installTxnKv(SrvA2, TC);
  EXPECT_EQ(Reborn.Store->InDoubtRecovered, 1u);

  S.run();
  EXPECT_EQ(Reborn.Store->ResolvedCommits, 1u);
  EXPECT_EQ(Reborn.Store->Data["k"], "committed");
  EXPECT_TRUE(Reborn.Store->Applied.count(Gtid));
  EXPECT_TRUE(Reborn.Store->Locks.empty());
}

/// A prepared participant that never crashes must still not block
/// forever when phase 2 is simply lost: after ResolveAfter it asks the
/// live coordinator, which no longer lists the gtid in flight — the
/// presumption applies and the locks come free without any restart.
TEST_F(DurabilityFixture, LiveResolverUnblocksLostPhaseTwo) {
  auto WalA = newWal("a"), CoordWal = newWal("coord");
  Guardian &SrvA = newGuardian("a");
  TwoPhaseCoordinatorKit Kit =
      installTwoPhaseCoordinator(newGuardian("coord"), *CoordWal);

  TxnKvConfig TC;
  TC.Wal = WalA.get();
  TC.QueryStatus = [&SrvA, &Kit](uint64_t G) -> int {
    auto H = bindHandler(SrvA, SrvA.newAgent(), Kit.StatusPort);
    auto Out = H.call(G);
    return Out.isNormal() ? static_cast<int>(Out.value()) : -1;
  };
  TxnKv KvA = installTxnKv(SrvA, TC);

  Guardian &Client = newGuardian("cl");
  uint64_t Gtid = Kit.St->beginTxn();
  Client.spawnProcess("phase1", [&] {
    auto Agent = Client.newAgent();
    auto Begin = bindHandler(Client, Agent, KvA.Begin);
    auto Out = Begin.call(wire::Unit{});
    ASSERT_TRUE(Out.isNormal());
    uint32_t Txn = Out.value();
    auto Put = bindHandler(Client, Agent, KvA.Put);
    ASSERT_TRUE(Put.call(Txn, "k", "v").isNormal());
    auto Prep = bindHandler(Client, Agent, KvA.Prepare);
    ASSERT_TRUE(Prep.call(Txn, Gtid).isNormal());
    // The coordinator gives up without telling anyone (client died, no
    // abort messages got through) — under presumed abort it just drops
    // the txn from its in-flight set and logs nothing.
    Kit.St->finishTxn(Gtid);
  });
  S.run();

  EXPECT_EQ(KvA.Store->ResolvedAborts, 1u);
  EXPECT_TRUE(KvA.Store->Locks.empty());
  EXPECT_EQ(KvA.Store->Data.count("k"), 0u);
}

} // namespace
