//===- TwoPhase.cpp - Distributed commit kit ---------------------------------===//
//
// Part of the promises project (PLDI 1988 reproduction).
//
//===----------------------------------------------------------------------===//

#include "promises/apps/TwoPhase.h"

#include "promises/support/Check.h"

using namespace promises;
using namespace promises::apps;
using namespace promises::core;
using namespace promises::runtime;

namespace {

// Participant log record kinds (docs/DURABILITY.md "TxnKv log").
constexpr uint8_t RecPrepared = 1;
constexpr uint8_t RecCommit = 2;
constexpr uint8_t RecAbort = 3;

// Coordinator kit record kinds.
constexpr uint8_t RecIncarnation = 1;
constexpr uint8_t RecDecidedCommit = 2;

// Backoff between status probes that answered in-flight/unreachable.
constexpr sim::Time StatusProbeBackoff = sim::msec(10);

void releaseLocks(TxnKv::State &St, uint32_t Txn) {
  for (auto It = St.Locks.begin(); It != St.Locks.end();) {
    if (It->second == Txn)
      It = St.Locks.erase(It);
    else
      ++It;
  }
}

void applyCommit(TxnKv::State &St, std::map<uint32_t, TxnKv::State::Txn>::iterator TIt) {
  for (auto &[Key, Val] : TIt->second.Staged)
    St.Data[Key] = Val;
  if (TIt->second.Gtid != 0)
    St.Applied.insert(TIt->second.Gtid);
  releaseLocks(St, TIt->first);
  St.Txns.erase(TIt);
  ++St.Commits;
}

void applyAbort(TxnKv::State &St, std::map<uint32_t, TxnKv::State::Txn>::iterator TIt) {
  releaseLocks(St, TIt->first);
  St.Txns.erase(TIt);
  ++St.Aborts;
}

void writeStringMap(wire::Encoder &E,
                    const std::map<std::string, std::string> &M) {
  E.writeU32(static_cast<uint32_t>(M.size()));
  for (const auto &[K, V] : M) {
    E.writeString(K);
    E.writeString(V);
  }
}

std::map<std::string, std::string> readStringMap(wire::Decoder &D) {
  std::map<std::string, std::string> M;
  uint32_t N = D.readU32();
  for (uint32_t I = 0; I < N && !D.failed(); ++I) {
    std::string K = D.readString();
    M[std::move(K)] = D.readString();
  }
  return M;
}

/// Full durable participant state; written at compaction. Memory is
/// always ahead of the log (apply-first), so the snapshot subsumes
/// every record it truncates.
wire::Bytes encodeTxnSnapshot(const TxnKv::State &St) {
  wire::Encoder E;
  writeStringMap(E, St.Data);
  E.writeU32(static_cast<uint32_t>(St.Applied.size()));
  for (uint64_t G : St.Applied)
    E.writeU64(G);
  // Only durably prepared transactions checkpoint: everything else is
  // volatile by the presumed-abort rule.
  uint32_t NPrepared = 0;
  for (const auto &[Id, T] : St.Txns)
    if (T.Prepared && T.Gtid != 0)
      ++NPrepared;
  E.writeU32(NPrepared);
  for (const auto &[Id, T] : St.Txns) {
    if (!T.Prepared || T.Gtid == 0)
      continue;
    E.writeU32(Id);
    E.writeU64(T.Gtid);
    writeStringMap(E, T.Staged);
  }
  E.writeU32(St.NextTxn);
  return E.take();
}

/// Revives a prepared transaction (from snapshot or a Prepared record).
void reviveTxn(TxnKv::State &St, uint32_t Id, uint64_t Gtid,
               std::map<std::string, std::string> Staged) {
  TxnKv::State::Txn &T = St.Txns[Id];
  T.Prepared = true;
  T.Gtid = Gtid;
  for (const auto &[Key, Val] : Staged)
    St.Locks[Key] = Id;
  T.Staged = std::move(Staged);
  if (Id >= St.NextTxn)
    St.NextTxn = Id + 1;
}

std::map<uint32_t, TxnKv::State::Txn>::iterator
findByGtid(TxnKv::State &St, uint64_t Gtid) {
  for (auto It = St.Txns.begin(); It != St.Txns.end(); ++It)
    if (It->second.Gtid == Gtid)
      return It;
  return St.Txns.end();
}

} // namespace

TxnKv::State apps::replayTxnState(const storage::StableStore::Recovery &R) {
  TxnKv::State St;
  if (!R.Snapshot.empty()) {
    wire::Decoder D(R.Snapshot);
    St.Data = readStringMap(D);
    uint32_t NApplied = D.readU32();
    for (uint32_t I = 0; I < NApplied && !D.failed(); ++I)
      St.Applied.insert(D.readU64());
    uint32_t NPrepared = D.readU32();
    for (uint32_t I = 0; I < NPrepared && !D.failed(); ++I) {
      uint32_t Id = D.readU32();
      uint64_t Gtid = D.readU64();
      reviveTxn(St, Id, Gtid, readStringMap(D));
    }
    uint32_t Next = D.readU32();
    PROMISES_CHECK(!D.failed(), "corrupt txn snapshot");
    if (Next > St.NextTxn)
      St.NextTxn = Next;
  }
  for (const wire::Bytes &Rec : R.Records) {
    wire::Decoder D(Rec);
    uint8_t Kind = D.readU8();
    switch (Kind) {
    case RecPrepared: {
      uint32_t Id = D.readU32();
      uint64_t Gtid = D.readU64();
      reviveTxn(St, Id, Gtid, readStringMap(D));
      break;
    }
    case RecCommit: {
      uint64_t Gtid = D.readU64();
      auto TIt = findByGtid(St, Gtid);
      PROMISES_CHECK(TIt != St.Txns.end(), "commit record without prepare");
      applyCommit(St, TIt);
      break;
    }
    case RecAbort: {
      uint64_t Gtid = D.readU64();
      auto TIt = findByGtid(St, Gtid);
      PROMISES_CHECK(TIt != St.Txns.end(), "abort record without prepare");
      applyAbort(St, TIt);
      break;
    }
    default:
      PROMISES_CHECK(false, "unknown txn log record kind");
    }
    PROMISES_CHECK(!D.failed(), "corrupt txn log record");
    ++St.Replayed;
  }
  St.RecoveredTorn = R.TornTail;
  return St;
}

TxnKv apps::installTxnKv(Guardian &G, TxnKvConfig Cfg) {
  TxnKv K;
  K.Store = std::make_shared<TxnKv::State>();
  K.Durable = Cfg.Wal != nullptr;
  auto St = K.Store;
  sim::Simulation &S = G.simulation();
  auto Work = [St, ServiceTime = Cfg.ServiceTime, &S] {
    if (ServiceTime != 0)
      S.sleep(ServiceTime);
  };

  K.Begin = G.addHandler<uint32_t(wire::Unit)>(
      "t_begin", [St, Work](wire::Unit) -> Outcome<uint32_t> {
        Work();
        uint32_t Id = St->NextTxn++;
        St->Txns[Id];
        return Id;
      });

  K.Put = G.addHandler<wire::Unit(uint32_t, std::string, std::string),
                       NoSuchTxn, TxnConflict>(
      "t_put",
      [St, Work](uint32_t Txn, std::string Key, std::string Val)
          -> Outcome<wire::Unit, NoSuchTxn, TxnConflict> {
        Work();
        auto TIt = St->Txns.find(Txn);
        if (TIt == St->Txns.end())
          return NoSuchTxn{Txn};
        auto LIt = St->Locks.find(Key);
        if (LIt != St->Locks.end() && LIt->second != Txn)
          return TxnConflict{Key};
        St->Locks[Key] = Txn;
        TIt->second.Staged[std::move(Key)] = std::move(Val);
        return wire::Unit{};
      });

  K.Get = G.addHandler<std::string(uint32_t, std::string), NoSuchTxn>(
      "t_get",
      [St, Work](uint32_t Txn,
                 std::string Key) -> Outcome<std::string, NoSuchTxn> {
        Work();
        auto TIt = St->Txns.find(Txn);
        if (TIt == St->Txns.end())
          return NoSuchTxn{Txn};
        // Read-your-writes through the staged state.
        auto SIt = TIt->second.Staged.find(Key);
        if (SIt != TIt->second.Staged.end())
          return SIt->second;
        auto DIt = St->Data.find(Key);
        return DIt != St->Data.end() ? DIt->second : std::string();
      });

  storage::StableStore *Wal = Cfg.Wal;
  // Replay before serving: a durable participant resumes from whatever
  // its media kept, in-doubt transactions and their locks included.
  if (Wal != nullptr)
    *St = replayTxnState(Wal->open());

  // Redo-logs one record (written by \p Write) and forces it. A volatile
  // participant has no log, so this does nothing.
  auto Log = [St, Wal, Every = Cfg.SnapshotEvery](auto Write) {
    if (Wal == nullptr)
      return;
    wire::Encoder E;
    Write(E);
    Wal->appendForced(E.take(), Every,
                      [St] { return encodeTxnSnapshot(*St); });
  };

  // Decisions: memory first, then the record, then the force.
  auto CommitAndLog = [St, Log](uint32_t Txn, uint64_t Gtid) {
    auto TIt = St->Txns.find(Txn);
    PROMISES_CHECK(TIt != St->Txns.end(), "commit of unknown txn");
    applyCommit(*St, TIt);
    Log([Gtid](wire::Encoder &E) {
      E.writeU8(RecCommit);
      E.writeU64(Gtid);
    });
  };
  auto AbortAndLog = [St, Log](uint32_t Txn, uint64_t Gtid) {
    auto TIt = St->Txns.find(Txn);
    PROMISES_CHECK(TIt != St->Txns.end(), "abort of unknown txn");
    applyAbort(*St, TIt);
    Log([Gtid](wire::Encoder &E) {
      E.writeU8(RecAbort);
      E.writeU64(Gtid);
    });
  };

  // Non-blocking termination: a prepared transaction that waits too
  // long asks the coordinator itself. Committed -> redo; unknown and no
  // longer in flight -> presumed abort; in flight/unreachable -> retry.
  // The resolver dies with the incarnation (guardian crash kills its
  // processes), and replay re-arms it, so no prepared lock ever
  // outlives recovery unresolved. A volatile participant has nothing
  // to resolve against and arms none.
  auto ArmResolver = [&G, &S, St, Wal, Query = Cfg.QueryStatus,
                      CommitAndLog, AbortAndLog](uint32_t Txn, uint64_t Gtid,
                                                 sim::Time Delay) {
    if (Wal == nullptr || !Query)
      return; // No oracle wired: classic blocking participant.
    G.spawnProcess("txn_resolve", [&G, &S, St, Query, CommitAndLog,
                                   AbortAndLog, Txn, Gtid, Delay] {
      S.sleep(Delay);
      for (;;) {
        auto TIt = St->Txns.find(Txn);
        if (TIt == St->Txns.end() || TIt->second.Gtid != Gtid)
          return; // The decision arrived while we slept.
        if (G.transport().isShutDown())
          return; // This incarnation is done for; its successor replays
                  // the prepared record and re-arms its own resolver.
        int Decision = Query(Gtid);
        TIt = St->Txns.find(Txn); // The probe blocked; recheck.
        if (TIt == St->Txns.end() || TIt->second.Gtid != Gtid)
          return;
        if (Decision == TwoPhaseCoordinatorKit::StatusCommitted) {
          ++St->ResolvedCommits;
          CommitAndLog(Txn, Gtid);
          return;
        }
        if (Decision == TwoPhaseCoordinatorKit::StatusAborted) {
          ++St->ResolvedAborts;
          AbortAndLog(Txn, Gtid);
          return;
        }
        S.sleep(StatusProbeBackoff); // In flight or unreachable: ask again.
      }
    });
  };

  K.Prepare = G.addHandler<bool(uint32_t, uint64_t), NoSuchTxn>(
      "t_prepare",
      [St, Work, Wal, Log, ArmResolver, After = Cfg.ResolveAfter](
          uint32_t Txn, uint64_t Gtid) -> Outcome<bool, NoSuchTxn> {
        Work();
        auto TIt = St->Txns.find(Txn);
        if (TIt == St->Txns.end())
          return NoSuchTxn{Txn};
        // A durable vote is keyed by its gtid in the log; without one
        // the decision could never be matched to it, so vote no.
        if (Wal != nullptr && Gtid == 0)
          return false;
        TIt->second.Prepared = true;
        TIt->second.Gtid = Gtid;
        // The prepare force: a crash after it replays us in doubt.
        Log([Txn, Gtid, &T = TIt->second](wire::Encoder &E) {
          E.writeU8(RecPrepared);
          E.writeU32(Txn);
          E.writeU64(Gtid);
          writeStringMap(E, T.Staged);
        });
        ArmResolver(Txn, Gtid, After);
        return true;
      });

  K.Commit = G.addHandler<wire::Unit(uint32_t, uint64_t), NoSuchTxn>(
      "t_commit",
      [St, Work, CommitAndLog](uint32_t Txn, uint64_t Gtid)
          -> Outcome<wire::Unit, NoSuchTxn> {
        Work();
        auto TIt = St->Txns.find(Txn);
        if (TIt == St->Txns.end() || TIt->second.Gtid != Gtid) {
          if (St->Applied.count(Gtid))
            return wire::Unit{}; // Resolver beat us to it: idempotent.
          return NoSuchTxn{Txn};
        }
        CommitAndLog(Txn, Gtid);
        return wire::Unit{};
      });

  K.Abort = G.addHandler<wire::Unit(uint32_t, uint64_t), NoSuchTxn>(
      "t_abort",
      [St, Work, AbortAndLog](uint32_t Txn, uint64_t Gtid)
          -> Outcome<wire::Unit, NoSuchTxn> {
        Work();
        auto TIt = St->Txns.find(Txn);
        if (TIt == St->Txns.end())
          return wire::Unit{}; // Already resolved (presumed abort): fine.
        if (TIt->second.Prepared && TIt->second.Gtid == Gtid) {
          AbortAndLog(Txn, Gtid);
        } else if (!TIt->second.Prepared) {
          // Never prepared: nothing on disk, nothing to log.
          applyAbort(*St, TIt);
        } else {
          return NoSuchTxn{Txn}; // Another incarnation's gtid.
        }
        return wire::Unit{};
      });

  // Completion-side ports run under priority admission: a shed prepare,
  // commit, or abort strands locks and staged state that calls already
  // admitted (begin/put) created — under overload the store would leak
  // transactions instead of degrading. The work these ports finish is
  // bounded by admitted begins, so exempting them cannot unbound the
  // guardian's load.
  G.setShedExempt(K.Prepare.Port);
  G.setShedExempt(K.Commit.Port);
  G.setShedExempt(K.Abort.Port);

  // Replay revived in-doubt transactions: resolve them promptly rather
  // than after the full ResolveAfter grace (their decision is already
  // overdue).
  for (auto &[Id, T] : St->Txns) {
    if (!T.Prepared || T.Gtid == 0)
      continue;
    ++St->InDoubtRecovered;
    ArmResolver(Id, T.Gtid, StatusProbeBackoff);
  }

  return K;
}

//===----------------------------------------------------------------------===//
// TwoPhaseCoordinatorKit
//===----------------------------------------------------------------------===//

uint64_t TwoPhaseCoordinatorKit::State::beginTxn() {
  uint64_t Gtid =
      (CoordId << 48) | ((Incarnation & 0xFFFFull) << 32) | NextSeq++;
  Active.insert(Gtid);
  return Gtid;
}

void TwoPhaseCoordinatorKit::State::logCommit(uint64_t Gtid) {
  wire::Encoder E;
  E.writeU8(RecDecidedCommit);
  E.writeU64(Gtid);
  Wal->append(E.take());
  Wal->sync(); // The decision force. Crash during it: presumed abort.
  Committed.insert(Gtid);
}

TwoPhaseCoordinatorKit apps::installTwoPhaseCoordinator(
    Guardian &G, storage::StableStore &Wal, uint64_t CoordId) {
  TwoPhaseCoordinatorKit Kit;
  Kit.St = std::make_shared<TwoPhaseCoordinatorKit::State>();
  auto St = Kit.St;
  St->Wal = &Wal;
  St->CoordId = CoordId;

  storage::StableStore::Recovery R = Wal.open();
  for (const wire::Bytes &Rec : R.Records) {
    wire::Decoder D(Rec);
    uint8_t Kind = D.readU8();
    uint64_t V = D.readU64();
    PROMISES_CHECK(!D.failed(), "corrupt coordinator log record");
    if (Kind == RecIncarnation) {
      if (V > St->Incarnation)
        St->Incarnation = V;
    } else {
      PROMISES_CHECK(Kind == RecDecidedCommit,
                     "unknown coordinator log record kind");
      St->Committed.insert(V);
    }
    ++St->Replayed;
  }
  St->RecoveredTorn = R.TornTail;

  // Force the new incarnation before minting any gtid from it: ids must
  // stay unique across restarts even if this incarnation crashes at
  // once.
  ++St->Incarnation;
  wire::Encoder E;
  E.writeU8(RecIncarnation);
  E.writeU64(St->Incarnation);
  Wal.append(E.take());
  Wal.sync();

  Kit.StatusPort = G.addHandler<uint8_t(uint64_t)>(
      "txn_status", [St](uint64_t Gtid) -> Outcome<uint8_t> {
        if (St->Committed.count(Gtid))
          return uint8_t(TwoPhaseCoordinatorKit::StatusCommitted);
        if (St->Active.count(Gtid))
          return uint8_t(TwoPhaseCoordinatorKit::StatusActive);
        return uint8_t(TwoPhaseCoordinatorKit::StatusAborted);
      });
  return Kit;
}

//===----------------------------------------------------------------------===//
// TwoPhaseCoordinator
//===----------------------------------------------------------------------===//

TwoPhaseCoordinator::TwoPhaseCoordinator(Guardian &Local,
                                         const TwoPhaseCoordinatorKit *Kit)
    : Local(Local) {
  if (Kit != nullptr && Kit->St != nullptr) {
    KitSt = Kit->St;
    Gtid = KitSt->beginTxn();
  }
}

TwoPhaseCoordinator::~TwoPhaseCoordinator() {
  // An abandoned transaction must not read as in-flight forever: drop
  // it from the active set so status probes presume abort.
  if (KitSt)
    KitSt->finishTxn(Gtid);
}

size_t TwoPhaseCoordinator::enlist(const TxnKv &Participant) {
  PROMISES_CHECK(!Finished, "coordinator already finished");
  PROMISES_CHECK(!KitSt || Participant.Durable,
                 "durable coordinator requires durable participants");
  Enlisted E;
  E.Kv = Participant;
  E.Agent = Local.newAgent();
  Participants.push_back(std::move(E));
  return Participants.size() - 1;
}

bool TwoPhaseCoordinator::ensureBegun(Enlisted &E) {
  if (E.Begun)
    return true;
  auto H = bindHandler(Local, E.Agent, E.Kv.Begin);
  auto O = H.call(wire::Unit{});
  if (!O.isNormal()) {
    Doomed = true;
    return false;
  }
  E.Txn = O.value();
  E.Begun = true;
  return true;
}

bool TwoPhaseCoordinator::put(size_t Idx, const std::string &Key,
                              const std::string &Val) {
  PROMISES_CHECK(Idx < Participants.size(), "unknown participant");
  PROMISES_CHECK(!Finished, "coordinator already finished");
  Enlisted &E = Participants[Idx];
  if (!ensureBegun(E))
    return false;
  auto H = bindHandler(Local, E.Agent, E.Kv.Put);
  auto O = H.call(E.Txn, Key, Val);
  if (!O.isNormal()) {
    Doomed = true;
    return false;
  }
  return true;
}

TwoPhaseResult TwoPhaseCoordinator::commit() {
  PROMISES_CHECK(!Finished, "coordinator already finished");
  if (Doomed) {
    abort();
    return TwoPhaseResult::Aborted;
  }
  // Phase 1: collect votes; any no / unreachable participant aborts.
  for (Enlisted &E : Participants) {
    if (!E.Begun)
      continue; // Never touched: trivially prepared.
    auto H = bindHandler(Local, E.Agent, E.Kv.Prepare);
    auto O = H.call(E.Txn, Gtid);
    if (!O.isNormal() || !O.value()) {
      abort();
      return TwoPhaseResult::Aborted;
    }
  }
  // The decision force: after this line the transaction is committed no
  // matter what crashes — prepared participants redo from our status.
  if (KitSt)
    KitSt->logCommit(Gtid);
  // Phase 2: commit everywhere. Volatile participants lost now are the
  // blocking window (survivors committed, the lost one in doubt);
  // durable ones resolve themselves against the logged decision, so
  // InDoubt only describes what *this client* observed.
  Finished = true;
  bool AnyLost = false;
  for (Enlisted &E : Participants) {
    if (!E.Begun)
      continue;
    auto H = bindHandler(Local, E.Agent, E.Kv.Commit);
    if (!H.call(E.Txn, Gtid).isNormal())
      AnyLost = true;
  }
  if (KitSt)
    KitSt->finishTxn(Gtid);
  return AnyLost ? TwoPhaseResult::InDoubt : TwoPhaseResult::Committed;
}

void TwoPhaseCoordinator::abort() {
  Finished = true;
  for (Enlisted &E : Participants) {
    if (!E.Begun)
      continue;
    // Best effort; a durably prepared participant we cannot reach
    // resolves itself (presumed abort), a volatile one keeps its
    // staged state and locks.
    auto H = bindHandler(Local, E.Agent, E.Kv.Abort);
    H.call(E.Txn, Gtid);
  }
  if (KitSt)
    KitSt->finishTxn(Gtid);
}
