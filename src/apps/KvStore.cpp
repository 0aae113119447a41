//===- KvStore.cpp - Key-value workload guardian ------------------------------===//
//
// Part of the promises project (PLDI 1988 reproduction).
//
//===----------------------------------------------------------------------===//

#include "promises/apps/KvStore.h"

#include "promises/support/Check.h"

using namespace promises;
using namespace promises::apps;
using namespace promises::core;

namespace {

wire::Bytes encodeKvSnapshot(const std::map<std::string, std::string> &Data) {
  wire::Encoder E;
  E.writeU32(static_cast<uint32_t>(Data.size()));
  for (const auto &[K, V] : Data) {
    E.writeString(K);
    E.writeString(V);
  }
  return E.take();
}

} // namespace

std::map<std::string, std::string>
apps::replayKvData(const storage::StableStore::Recovery &R) {
  std::map<std::string, std::string> Data;
  if (!R.Snapshot.empty()) {
    wire::Decoder D(R.Snapshot);
    uint32_t N = D.readU32();
    for (uint32_t I = 0; I < N; ++I) {
      std::string K = D.readString();
      Data[std::move(K)] = D.readString();
    }
    PROMISES_CHECK(!D.failed(), "corrupt kv snapshot");
  }
  for (const wire::Bytes &Rec : R.Records) {
    wire::Decoder D(Rec);
    std::string K = D.readString();
    std::string V = D.readString();
    PROMISES_CHECK(!D.failed(), "corrupt kv redo record");
    Data[std::move(K)] = std::move(V);
  }
  return Data;
}

KvStore apps::installKvStore(runtime::Guardian &G, KvStoreConfig Cfg) {
  KvStore K;
  K.Store = std::make_shared<KvStore::State>();
  auto St = K.Store;
  sim::Simulation &S = G.simulation();

  if (Cfg.Wal != nullptr) {
    // Replay before serving: this incarnation starts from whatever the
    // media kept. A torn tail was a record never acknowledged, so
    // stopping at it is correct, not lossy.
    storage::StableStore::Recovery R = Cfg.Wal->open();
    St->Data = replayKvData(R);
    St->Replayed = R.Records.size();
    St->RecoveredTorn = R.TornTail;
  }

  auto Work = [St, Cfg, &S] {
    if (Cfg.ServiceTime != 0)
      S.sleep(Cfg.ServiceTime);
    ++St->Calls;
  };

  K.Put = G.addHandler<wire::Unit(std::string, std::string)>(
      "put",
      [St, Cfg, Work](std::string Key,
                      std::string Val) -> Outcome<wire::Unit> {
        Work();
        // Apply first, then log and force, then ack: the in-memory map
        // is always ahead of the log, which is what makes
        // sleep-then-serialize snapshots safe (docs/DURABILITY.md). A
        // volatile store has no log and just applies.
        auto It =
            St->Data.insert_or_assign(std::move(Key), std::move(Val)).first;
        if (Cfg.Wal != nullptr) {
          wire::Encoder E;
          E.writeString(It->first);
          E.writeString(It->second);
          Cfg.Wal->appendForced(E.take(), Cfg.SnapshotEvery, [St] {
            return encodeKvSnapshot(St->Data);
          });
        }
        return wire::Unit{};
      });

  K.Get = G.addHandler<std::string(std::string), NotFound>(
      "get", [St, Work](std::string Key) -> Outcome<std::string, NotFound> {
        Work();
        auto It = St->Data.find(Key);
        if (It == St->Data.end())
          return NotFound{Key};
        return It->second;
      });

  K.Echo = G.addHandler<std::string(std::string)>(
      "echo", [Work](std::string V) -> Outcome<std::string> {
        Work();
        return V;
      });

  return K;
}
