//===- promises/storage/Storage.h - Simulated stable storage ---*- C++ -*-===//
//
// Part of the promises project (PLDI 1988 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-node simulated stable storage in the Argus tradition the paper's
/// guardians assume: an append-only write-ahead log plus an atomically
/// replaced snapshot, both surviving node crashes. Records are framed
/// with the same CRC32C discipline as the wire (docs/DURABILITY.md):
///
///   [u8 magic 0xA6][u32 payload len][u32 crc32c(payload)][payload]
///
/// The store distinguishes the volatile log tail (appended, not yet
/// forced) from the durable prefix behind the `synced` frontier. A
/// `sync()` models fsync: it costs `SyncTime` of virtual time, and a
/// crash during the sleep kills the calling process *before* the
/// frontier advances — force semantics fall out of the simulator's
/// kill-on-crash rule with no extra bookkeeping.
///
/// `crash()` applies the seed-driven media-fault model: the un-synced
/// suffix is lost with probability `LostSuffixRate` (1.0 by default —
/// the classic volatile write-back cache), and a lost suffix leaves a
/// torn first record with probability `TornWriteRate` (either a partial
/// prefix of its bytes or a full-length record with a flipped byte, so
/// replay exercises both the truncation and the CRC detection paths).
/// Rates of exactly 0 or 1 consume no RNG (support/Rng.h `chance`), so
/// fault-free configurations stay bit-identical to runs without any
/// fault model.
///
//===----------------------------------------------------------------------===//

#ifndef PROMISES_STORAGE_STORAGE_H
#define PROMISES_STORAGE_STORAGE_H

#include "promises/sim/Simulation.h"
#include "promises/support/Metrics.h"
#include "promises/support/Rng.h"
#include "promises/wire/Frame.h"

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace promises::storage {

/// Media-fault model applied at crash() (docs/DURABILITY.md "Fault
/// model"). Deterministic: a function of Seed and the crash sequence.
struct StorageFaults {
  /// P(the un-synced log suffix is lost at a crash). 1.0 models a
  /// volatile write-back cache (the default and the paper-faithful
  /// assumption); 0.0 models a battery-backed cache that always
  /// survives. Values of exactly 0 or 1 draw no RNG.
  double LostSuffixRate = 1.0;
  /// Given the suffix is lost, P(the first lost record leaves a torn
  /// tail on disk instead of vanishing cleanly).
  double TornWriteRate = 0.0;
  uint64_t Seed = 0;
};

struct StorageConfig {
  /// Label for the store's `storage.*` counters.
  std::string Name = "store";
  /// Virtual-time cost of one force (sync or snapshot rename).
  sim::Time SyncTime = sim::usec(200);
  StorageFaults Faults;
};

/// One node's stable store: snapshot + append-only log.
///
/// Thread/fiber discipline: mutating calls happen from the owning
/// node's processes only; the simulator interleaves them at sleep
/// points, and every mutation below is atomic between sleeps.
class StableStore {
public:
  StableStore(sim::Simulation &S, StorageConfig Cfg);

  /// What a replay of the media finds (docs/DURABILITY.md "Recovery").
  struct Recovery {
    wire::Bytes Snapshot;             ///< Empty if none was ever saved.
    std::vector<wire::Bytes> Records; ///< Valid records, append order.
    bool TornTail = false;     ///< Scan stopped at a torn/corrupt tail.
    uint64_t DiscardedBytes = 0; ///< Bytes past the last valid record.
  };

  /// Appends one record to the volatile log tail. Cheap; no yield.
  void append(const wire::Bytes &Payload);

  /// Forces the log to stable storage (fsync): sleeps SyncTime (when
  /// called from a process), then advances the durable frontier over
  /// everything appended so far — including records queued by others
  /// during the sleep (group commit; their own sync() then returns
  /// without sleeping). A crash mid-sleep kills the caller before the
  /// frontier moves. No-op when the tail is already durable.
  void sync();

  /// Checkpoints full state and truncates the log, costing one force.
  /// \p Make is invoked *after* the force sleep so the snapshot
  /// captures every mutation applied during it — safe because state is
  /// always mutated before its record is appended (the apply-first
  /// discipline, docs/DURABILITY.md). The swap is atomic (temp file +
  /// rename in the real-disk reading): a crash mid-sleep leaves the old
  /// snapshot and log untouched.
  void saveSnapshot(const std::function<wire::Bytes()> &Make);

  /// The redo-log write every durable server uses: append \p Record,
  /// then force it — by saveSnapshot(\p Make) once the log holds
  /// \p SnapshotEvery records (0 = never compact), by sync() otherwise.
  /// A template so that \p Make becomes a std::function only when a
  /// snapshot is taken, not on every write.
  template <typename MakeFn>
  void appendForced(const wire::Bytes &Record, size_t SnapshotEvery,
                    const MakeFn &Make) {
    append(Record);
    if (SnapshotEvery != 0 && recordsInLog() >= SnapshotEvery)
      saveSnapshot(Make);
    else
      sync();
  }

  /// Applies the media-fault model for a node crash. Call alongside
  /// net::Network::crash; the store itself survives into the next
  /// incarnation.
  void crash();

  /// Pure scan of the media: snapshot plus every valid record, torn
  /// tail detection included. Does not mutate; usable for audits.
  Recovery scan() const;

  /// Recovery for serving: scan(), then discard any torn/invalid tail
  /// so new appends land after the last valid record, and mark the
  /// whole surviving log durable (it is: it was read back from disk).
  Recovery open();

  const std::string &name() const { return Cfg.Name; }
  uint64_t logBytes() const { return Log.size(); }
  uint64_t syncedBytes() const { return Synced; }
  /// Records currently in the log (snapshot truncation resets this).
  uint64_t recordsInLog() const { return RecordEnds.size(); }
  uint64_t crashes() const { return Crashes; }
  uint64_t tornTails() const { return TornTails; }
  uint64_t lostBytes() const { return LostBytes; }

private:
  sim::Simulation &S;
  StorageConfig Cfg;
  Rng FaultRng;

  wire::Bytes Snapshot;
  bool HasSnapshot = false;
  wire::Bytes Log;
  /// Absolute end offset of each whole record in Log, append order.
  /// Synced always sits on one of these boundaries (or 0).
  std::vector<uint64_t> RecordEnds;
  uint64_t Synced = 0;

  uint64_t Crashes = 0, TornTails = 0, LostBytes = 0;

  Counter *CAppends, *CAppendedBytes, *CSyncs, *CSnapshots, *CReplays,
      *CReplayedRecords, *CCrashes, *CLostBytes, *CTornTails;
};

} // namespace promises::storage

#endif // PROMISES_STORAGE_STORAGE_H
