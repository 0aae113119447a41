//===- promises/apps/TwoPhase.h - Distributed commit kit -------*- C++ -*-===//
//
// Part of the promises project (PLDI 1988 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A simplified rendition of Argus's *distributed* actions (the paper
/// defers to reference [16]): a transactional key-value participant that
/// guardians can install, and a client-side two-phase-commit coordinator
/// built entirely on the public promise/stream API.
///
/// Protocol (classic presumed-abort 2PC), one port set for every
/// participant:
///   begin on each participant -> stage puts -> phase 1:
///   prepare(txn, gtid) votes -> all yes: phase 2 commit(txn, gtid)
///   everywhere; any no/unreachable: abort(txn, gtid) everywhere.
///
/// The gtid names the transaction globally, which makes commit and
/// abort idempotent across participant recoveries and resolver races.
/// Durability is a property of the stable store, not of the protocol:
///
/// *Durable* (TxnKvConfig::Wal set, coordinator built with a kit): the
/// kit mints the gtid, participants force-log prepared state before
/// voting yes, the kit force-logs the commit decision before phase 2,
/// and nothing else is ever logged (presumed abort). A prepared
/// transaction whose decision never arrives — lost phase 2, coordinator
/// crash, participant restart — resolves itself by querying the
/// coordinator's status port: committed means redo, anything unknown
/// and no longer in flight means abort. No lock outlives recovery
/// unresolved. See docs/DURABILITY.md.
///
/// *Volatile* (no Wal, no kit): the same handlers with gtid 0; log
/// appends and forces do nothing, there is no replay and no resolver.
/// A participant lost after voting yes leaves the coordinator InDoubt —
/// the blocking window every memory-only 2PC has; tests exercise it
/// deliberately.
///
//===----------------------------------------------------------------------===//

#ifndef PROMISES_APPS_TWOPHASE_H
#define PROMISES_APPS_TWOPHASE_H

#include "promises/runtime/RemoteHandler.h"
#include "promises/storage/Storage.h"

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

namespace promises::apps {

/// Raised for operations naming an unknown/finished transaction.
struct NoSuchTxn {
  static constexpr const char *Name = "no_such_txn";
  uint32_t Txn = 0;
};

/// Raised when a staged write conflicts with another transaction's lock.
struct TxnConflict {
  static constexpr const char *Name = "txn_conflict";
  std::string Key;
};

struct TxnKvConfig {
  sim::Time ServiceTime = sim::usec(100);
  /// When set, the participant is durable: prepares force-log staged
  /// state before the yes vote, commit/abort decisions are redo-logged,
  /// and install replays the log (resurrecting in-doubt transactions
  /// and their locks) before serving. Null means volatile: nothing is
  /// logged or replayed and no resolver runs.
  storage::StableStore *Wal = nullptr;
  /// Compact the log into a snapshot every this many records (0 = never).
  size_t SnapshotEvery = 128;
  /// One status probe against the coordinator owning \p Gtid. Returns
  /// TwoPhaseCoordinatorKit::Status (0 aborted, 1 committed, 2 still in
  /// flight) or -1 when unreachable. A prepared transaction starts
  /// probing 40 ms after its vote and retries in-flight/unreachable
  /// answers every 10 ms. Unset leaves prepared transactions blocked (the
  /// classic hole) — durable participants should always wire one.
  std::function<int(uint64_t Gtid)> QueryStatus;
};

/// The participant: a key-value store with staged, locked transactions.
struct TxnKv {
  runtime::HandlerRef<uint32_t(wire::Unit)> Begin;
  runtime::HandlerRef<wire::Unit(uint32_t, std::string, std::string),
                      NoSuchTxn, TxnConflict>
      Put; ///< Stages a write; takes the key's lock.
  runtime::HandlerRef<std::string(uint32_t, std::string), NoSuchTxn>
      Get; ///< Reads through the transaction's own staged state.
  /// The vote. A durable participant votes no on gtid 0.
  runtime::HandlerRef<bool(uint32_t, uint64_t), NoSuchTxn> Prepare;
  /// Idempotent for a gtid already applied (the resolver got there).
  runtime::HandlerRef<wire::Unit(uint32_t, uint64_t), NoSuchTxn> Commit;
  /// Idempotent for a finished txn (presumed abort).
  runtime::HandlerRef<wire::Unit(uint32_t, uint64_t), NoSuchTxn> Abort;

  bool Durable = false; ///< Installed with a Wal.

  struct State {
    std::map<std::string, std::string> Data;
    struct Txn {
      std::map<std::string, std::string> Staged;
      bool Prepared = false;
      uint64_t Gtid = 0; ///< What its prepare carried (0 when volatile).
    };
    std::map<uint32_t, Txn> Txns;
    std::map<std::string, uint32_t> Locks; ///< Key -> owning txn.
    uint32_t NextTxn = 1;
    uint64_t Commits = 0;
    uint64_t Aborts = 0;

    /// Durable mode only:
    std::set<uint64_t> Applied; ///< Gtids whose commit is applied+logged.
    uint64_t Replayed = 0;      ///< Log records applied at install.
    bool RecoveredTorn = false; ///< Install-time replay hit a torn tail.
    uint64_t InDoubtRecovered = 0; ///< Prepared txns revived by replay.
    uint64_t ResolvedCommits = 0;  ///< Resolver outcomes (status said 1).
    uint64_t ResolvedAborts = 0;   ///< Resolver outcomes (presumed abort).
  };
  std::shared_ptr<State> Store;
};

/// Installs the transactional KV handlers on \p G.
TxnKv installTxnKv(runtime::Guardian &G, TxnKvConfig Cfg = TxnKvConfig());

/// Rebuilds participant state from a recovery image: snapshot, then log
/// records in order. Surviving prepared transactions hold their locks
/// and are in doubt. installTxnKv applies exactly this; exposed so
/// recovery audits (load durability battery, tests) can check the media
/// offline.
TxnKv::State replayTxnState(const storage::StableStore::Recovery &R);

/// Durable coordinator-side 2PC state (presumed abort): force-logs only
/// commit decisions and its own incarnation, and answers participant
/// status probes. "Unknown and not in flight" is authoritatively
/// aborted — that is the presumption that keeps aborts log-free.
struct TwoPhaseCoordinatorKit {
  enum Status : uint8_t {
    StatusAborted = 0,   ///< Not committed, not in flight: presumed abort.
    StatusCommitted = 1, ///< Decision durably logged.
    StatusActive = 2,    ///< Still in flight; ask again later.
  };

  runtime::HandlerRef<uint8_t(uint64_t)> StatusPort;

  struct State {
    storage::StableStore *Wal = nullptr;
    uint64_t CoordId = 0;     ///< Top 16 gtid bits this kit mints.
    uint64_t Incarnation = 0; ///< Durable restart counter (gtid bits 32..47).
    uint64_t NextSeq = 1;
    std::set<uint64_t> Committed; ///< Durably decided commits.
    /// Minted but undecided gtids. Deliberately volatile: a coordinator
    /// crash empties it, which is exactly what turns an in-flight
    /// transaction into a presumed abort.
    std::set<uint64_t> Active;
    uint64_t Replayed = 0;
    bool RecoveredTorn = false;

    /// Mints a gtid and marks it in flight.
    uint64_t beginTxn();
    /// Forces the commit decision; visible to status probes only after
    /// the force completes (a decision a crash could still lose must
    /// not leak to participants).
    void logCommit(uint64_t Gtid);
    void finishTxn(uint64_t Gtid) { Active.erase(Gtid); }
    static uint64_t coordOf(uint64_t Gtid) { return Gtid >> 48; }
  };
  std::shared_ptr<State> St;
};

/// Installs a durable coordinator on \p G: replays \p Wal (prior
/// incarnations' decisions), force-logs the new incarnation, and serves
/// the status port.
TwoPhaseCoordinatorKit installTwoPhaseCoordinator(runtime::Guardian &G,
                                                  storage::StableStore &Wal,
                                                  uint64_t CoordId = 0);

/// Outcome of a coordinated commit.
enum class TwoPhaseResult {
  Committed, ///< Every participant committed.
  Aborted,   ///< Some vote failed before any commit; all rolled back.
  InDoubt,   ///< A participant vanished after voting yes: the classic
             ///< 2PC blocking window (survivors committed).
};

/// Client-side coordinator for one distributed transaction across TxnKv
/// participants. Usage (from a simulated process):
///
/// \code
///   TwoPhaseCoordinator Txn(ClientGuardian);
///   Txn.enlist(KvA);
///   Txn.enlist(KvB);
///   Txn.put(0, "x", "1");   // participant index, key, value
///   Txn.put(1, "y", "2");
///   TwoPhaseResult R = Txn.commit();
/// \endcode
/// The kit decides what durability adds: with one, the coordinator
/// mints the gtid its prepare/commit/abort calls carry, force-logs the
/// decision before phase 2, and retires the gtid from the in-flight set
/// when done (aborts log nothing: presumed). Without one the calls
/// carry gtid 0 and nothing is logged.
class TwoPhaseCoordinator {
public:
  explicit TwoPhaseCoordinator(runtime::Guardian &Local,
                               const TwoPhaseCoordinatorKit *Kit = nullptr);
  ~TwoPhaseCoordinator();

  /// Adds a participant; returns its index. Must precede put/commit.
  size_t enlist(const TxnKv &Participant);

  /// Stages a write at participant \p Idx. Returns false when the write
  /// failed (conflict or participant unreachable); the transaction is
  /// then doomed and commit() will abort.
  bool put(size_t Idx, const std::string &Key, const std::string &Val);

  /// Runs two-phase commit. Callable once.
  TwoPhaseResult commit();

  /// Aborts everywhere (best effort).
  void abort();

  bool doomed() const { return Doomed; }
  /// Global transaction id (0 without a kit).
  uint64_t gtid() const { return Gtid; }

private:
  struct Enlisted {
    TxnKv Kv;
    stream::AgentId Agent = 0;
    uint32_t Txn = 0;
    bool Begun = false;
  };

  bool ensureBegun(Enlisted &E);

  runtime::Guardian &Local;
  std::shared_ptr<TwoPhaseCoordinatorKit::State> KitSt; ///< Null = volatile.
  uint64_t Gtid = 0;
  std::vector<Enlisted> Participants;
  bool Doomed = false;
  bool Finished = false;
};

} // namespace promises::apps

namespace promises::wire {
template <> struct Codec<apps::NoSuchTxn> {
  static void encode(Encoder &E, const apps::NoSuchTxn &V) {
    E.writeU32(V.Txn);
  }
  static apps::NoSuchTxn decode(Decoder &D) { return {D.readU32()}; }
};
template <> struct Codec<apps::TxnConflict> {
  static void encode(Encoder &E, const apps::TxnConflict &V) {
    E.writeString(V.Key);
  }
  static apps::TxnConflict decode(Decoder &D) { return {D.readString()}; }
};
} // namespace promises::wire

#endif // PROMISES_APPS_TWOPHASE_H
