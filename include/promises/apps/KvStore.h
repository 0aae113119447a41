//===- promises/apps/KvStore.h - Key-value workload guardian ---*- C++ -*-===//
//
// Part of the promises project (PLDI 1988 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A generic key-value guardian used as the benchmark workload server
/// (echo/put/get with a configurable service time) — the "component
/// programs used over a network" of the paper's heterogeneous-computing
/// setting, reduced to its performance-relevant skeleton.
///
//===----------------------------------------------------------------------===//

#ifndef PROMISES_APPS_KVSTORE_H
#define PROMISES_APPS_KVSTORE_H

#include "promises/runtime/RemoteHandler.h"
#include "promises/storage/Storage.h"

#include <map>
#include <memory>
#include <string>

namespace promises::apps {

/// Raised by get for absent keys.
struct NotFound {
  static constexpr const char *Name = "not_found";
  std::string Key;
};

struct KvStoreConfig {
  sim::Time ServiceTime = sim::usec(100);
  /// When set, puts are redo-logged to this stable store and
  /// acknowledged only after a force; install replays snapshot + log
  /// before serving, and the log compacts into a snapshot every
  /// SnapshotEvery records (docs/DURABILITY.md). Null means volatile:
  /// no replay, and puts apply in memory only.
  storage::StableStore *Wal = nullptr;
  size_t SnapshotEvery = 64;
};

/// Typed ports of the store.
struct KvStore {
  runtime::HandlerRef<wire::Unit(std::string, std::string)> Put;
  runtime::HandlerRef<std::string(std::string), NotFound> Get;
  runtime::HandlerRef<std::string(std::string)> Echo; ///< Returns its arg.

  struct State {
    std::map<std::string, std::string> Data;
    uint64_t Calls = 0;
    uint64_t Replayed = 0;     ///< Redo records applied at install.
    bool RecoveredTorn = false; ///< Install-time replay hit a torn tail.
  };
  std::shared_ptr<State> Store;
};

/// Installs the key-value handlers on \p G.
KvStore installKvStore(runtime::Guardian &G,
                       KvStoreConfig Cfg = KvStoreConfig());

/// The map a replay of \p R yields: snapshot first, then redo records
/// in order. installKvStore applies exactly this; exposed so recovery
/// audits (chaos durability invariants) can check the media offline.
std::map<std::string, std::string>
replayKvData(const storage::StableStore::Recovery &R);

} // namespace promises::apps

namespace promises::wire {
template <> struct Codec<apps::NotFound> {
  static void encode(Encoder &E, const apps::NotFound &V) {
    E.writeString(V.Key);
  }
  static apps::NotFound decode(Decoder &D) { return {D.readString()}; }
};
} // namespace promises::wire

#endif // PROMISES_APPS_KVSTORE_H
