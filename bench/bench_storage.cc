// F7 — The BLOB database schema (the paper's Fig. 7): store/fetch
// throughput of the typed object tables + page-chained BLOB store across
// payload sizes, plus a mixed workload resembling a live consultation
// (images dominate bytes, texts dominate ops).
//
// The durability sweep exercises the sharded WAL tier
// (storage/sharded_db): shard count x mutation mix, reporting WAL
// record/byte/sync counts, verifying that replaying every shard's log
// onto a fresh DatabaseServer reproduces it byte-for-byte, and
// crash-recovering each shard through the seeded fault injector. Results
// land in --json_out=PATH; --smoke shrinks the workload and exits nonzero
// when a durability invariant breaks or the JSON cannot be written.
// --metrics_out/--trace_out dump the obs layer as in the other benches.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"
#include "harness.h"
#include "storage/database.h"
#include "storage/sharded_db.h"
#include "storage/wal.h"

namespace {

using namespace mmconf;
using storage::DatabaseServer;
using storage::ObjectRef;

Bytes RandomBytes(size_t n, Rng& rng) {
  Bytes data(n);
  for (uint8_t& b : data) b = static_cast<uint8_t>(rng.Next());
  return data;
}

void PrintFigure7() {
  std::printf("== F7: BLOB store throughput vs payload size ==\n");
  std::printf("%-12s %-14s %-14s\n", "size(KB)", "store(MB/s)",
              "fetch(MB/s)");
  for (size_t kb : {4, 64, 512, 4096}) {
    DatabaseServer db;
    db.RegisterStandardTypes().ok();
    Rng rng(kb);
    Bytes payload = RandomBytes(kb * 1024, rng);
    const int reps = kb >= 4096 ? 20 : 100;
    std::vector<ObjectRef> refs;
    double store_us = bench::MeanWallMicros(reps, [&] {
      refs.push_back(db.Store("Image",
                              {{"FLD_QUALITY", int64_t{90}},
                               {"FLD_TEXTS", std::string("t")},
                               {"FLD_CM", std::string("c")}},
                              {{"FLD_DATA", payload}})
                         .value());
    });
    size_t next = 0;
    double fetch_us = bench::MeanWallMicros(reps, [&] {
      benchmark::DoNotOptimize(db.FetchBlob(refs[next++], "FLD_DATA"));
    });
    double mb = static_cast<double>(payload.size()) / (1 << 20);
    std::printf("%-12zu %-14.1f %-14.1f\n", kb, mb / (store_us * 1e-6),
                mb / (fetch_us * 1e-6));
  }
  std::printf("\n");
}

void BM_StoreImage(benchmark::State& state) {
  DatabaseServer db;
  db.RegisterStandardTypes().ok();
  Rng rng(1);
  Bytes payload = RandomBytes(static_cast<size_t>(state.range(0)), rng);
  for (auto _ : state) {
    auto ref = db.Store("Image",
                        {{"FLD_QUALITY", int64_t{90}},
                         {"FLD_TEXTS", std::string("t")},
                         {"FLD_CM", std::string("c")}},
                        {{"FLD_DATA", payload}})
                   .value();
    benchmark::DoNotOptimize(ref);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_StoreImage)->Arg(4096)->Arg(262144);

void BM_FetchBlob(benchmark::State& state) {
  DatabaseServer db;
  db.RegisterStandardTypes().ok();
  Rng rng(2);
  Bytes payload = RandomBytes(static_cast<size_t>(state.range(0)), rng);
  ObjectRef ref = db.Store("Image",
                           {{"FLD_QUALITY", int64_t{90}},
                            {"FLD_TEXTS", std::string("t")},
                            {"FLD_CM", std::string("c")}},
                           {{"FLD_DATA", payload}})
                      .value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(db.FetchBlob(ref, "FLD_DATA"));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_FetchBlob)->Arg(4096)->Arg(262144);

void BM_FetchBlobRange(benchmark::State& state) {
  DatabaseServer db;
  db.RegisterStandardTypes().ok();
  Rng rng(3);
  Bytes payload = RandomBytes(1 << 20, rng);
  ObjectRef ref = db.Store("Image",
                           {{"FLD_QUALITY", int64_t{90}},
                            {"FLD_TEXTS", std::string("t")},
                            {"FLD_CM", std::string("c")}},
                           {{"FLD_DATA", payload}})
                      .value();
  size_t offset = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        db.FetchBlobRange(ref, "FLD_DATA", offset, 16384));
    offset = (offset + 16384) % (1 << 20);
  }
}
BENCHMARK(BM_FetchBlobRange);

void BM_MixedWorkload(benchmark::State& state) {
  DatabaseServer db;
  db.RegisterStandardTypes().ok();
  Rng rng(4);
  Bytes image = RandomBytes(262144, rng);
  Bytes note = RandomBytes(512, rng);
  std::vector<ObjectRef> texts;
  for (int i = 0; i < 32; ++i) {
    texts.push_back(db.Store("Text", {{"FLD_TITLE", std::string("n")}},
                             {{"FLD_DATA", note}})
                        .value());
  }
  for (auto _ : state) {
    // 1 image store : 4 text fetches : 1 text update.
    benchmark::DoNotOptimize(db.Store("Image",
                                      {{"FLD_QUALITY", int64_t{1}},
                                       {"FLD_TEXTS", std::string("t")},
                                       {"FLD_CM", std::string("c")}},
                                      {{"FLD_DATA", image}}));
    for (int i = 0; i < 4; ++i) {
      benchmark::DoNotOptimize(
          db.FetchBlob(texts[rng.NextBelow(texts.size())], "FLD_DATA"));
    }
    db.Modify(texts[rng.NextBelow(texts.size())], {},
              {{"FLD_DATA", note}})
        .ok();
  }
}
BENCHMARK(BM_MixedWorkload);

// --- durability sweep: sharded WAL tier ------------------------------

struct MutationMix {
  const char* name;
  int store_pct;   // remainder after store+modify is deletes
  int modify_pct;
};

constexpr MutationMix kMixes[] = {
    {"store-heavy", 70, 20},
    {"balanced", 40, 40},
    {"churn", 25, 35},
};

struct DurabilityRow {
  size_t shards = 0;
  std::string mix;
  size_t mutations = 0;
  size_t stores = 0;
  size_t modifies = 0;
  size_t deletes = 0;
  size_t objects = 0;
  size_t wal_records = 0;
  size_t wal_bytes = 0;
  size_t syncs = 0;
  size_t replayed_records = 0;
  bool replay_matches = false;
  bool crash_recovered = false;

  bool Ok() const { return replay_matches && crash_recovered; }
};

DurabilityRow RunDurabilityPoint(size_t shards, const MutationMix& mix,
                                 size_t mutations,
                                 const bench::ObsSinks& sinks, int index) {
  Clock clock;
  if (sinks.enabled()) sinks.BeginFleet(&clock, index);
  storage::ShardedDatabaseServer::Options options;
  options.num_shards = shards;
  storage::ShardedDatabaseServer db(&clock, options);
  if (sinks.enabled()) db.SetObserver(sinks.metrics, sinks.tracer, index);
  db.RegisterStandardTypes().ok();

  DurabilityRow row;
  row.shards = shards;
  row.mix = mix.name;
  row.mutations = mutations;
  Rng rng(1000 + shards * 10 + static_cast<uint64_t>(mix.store_pct));
  std::vector<ObjectRef> live;
  for (size_t step = 0; step < mutations; ++step) {
    uint64_t roll = rng.NextBelow(100);
    if (roll < static_cast<uint64_t>(mix.store_pct) || live.empty()) {
      Bytes blob = RandomBytes(rng.NextBelow(2048), rng);
      live.push_back(db.Store("Image",
                              {{"FLD_QUALITY",
                                static_cast<int64_t>(step)},
                               {"FLD_TEXTS", std::string("t")},
                               {"FLD_CM", std::string("c")}},
                              {{"FLD_DATA", blob}})
                         .value());
      ++row.stores;
    } else if (roll <
               static_cast<uint64_t>(mix.store_pct + mix.modify_pct)) {
      const ObjectRef& ref = live[rng.NextBelow(live.size())];
      db.Modify(ref,
                {{"FLD_QUALITY", static_cast<int64_t>(step)}},
                {{"FLD_DATA", RandomBytes(rng.NextBelow(2048), rng)}})
          .ok();
      ++row.modifies;
    } else {
      size_t pick = rng.NextBelow(live.size());
      db.Delete(live[pick]).ok();
      live.erase(live.begin() + pick);
      ++row.deletes;
    }
    clock.AdvanceMicros(static_cast<MicrosT>(rng.NextBelow(2500)));
  }
  db.SyncAll();
  row.objects = db.List("Image").value().size();

  // Replay every shard's log onto a fresh server: the recovered image
  // must be byte-identical to the live shard.
  row.replay_matches = true;
  for (size_t s = 0; s < db.num_shards(); ++s) {
    const storage::WriteAheadLog* wal = db.shard_wal(s);
    row.wal_records += wal->durable_records();
    row.wal_bytes += wal->durable().size();
    row.syncs += wal->sync_count();
    DatabaseServer fresh;
    auto stats =
        storage::ShardedDatabaseServer::ReplayLogInto(wal->durable(),
                                                      &fresh);
    if (!stats.ok() || !stats.value().clean_end ||
        fresh.Serialize() != db.shard(s)->Serialize()) {
      row.replay_matches = false;
      continue;
    }
    row.replayed_records += stats.value().records_applied;
  }

  // Crash each shard with a torn tail (pending appends mid-write) and
  // recover it through the facade.
  for (size_t i = 0; i < 16 && i < live.size(); ++i) {
    db.Modify(live[i], {{"FLD_QUALITY", int64_t{-1}}}, {}).ok();
  }
  row.crash_recovered = true;
  storage::WalCrashInjector injector(shards * 977 +
                                     static_cast<uint64_t>(mix.store_pct));
  for (size_t s = 0; s < db.num_shards(); ++s) {
    storage::WalCrashImage image =
        injector.Crash(*db.shard_wal(s), storage::WalCrashKind::kTornTail);
    auto stats = db.RecoverShardFromLog(s, image.log);
    if (!stats.ok() ||
        stats.value().records_applied != image.clean_records ||
        !db.shard(s)->blob_store().VerifyAllPages().ok()) {
      row.crash_recovered = false;
    }
  }
  return row;
}

std::vector<DurabilityRow> RunDurabilitySweep(bool smoke,
                                              const bench::ObsSinks& sinks) {
  const size_t mutations = smoke ? 300 : 3000;
  std::printf("== durability: sharded WAL tier, %zu mutations per point "
              "(%s) ==\n",
              mutations, smoke ? "smoke" : "full");
  std::printf("%-8s %-12s %-9s %-12s %-11s %-7s %-9s %-8s\n", "shards",
              "mix", "objects", "wal-recs", "wal-bytes", "syncs", "replay",
              "crash");
  std::vector<DurabilityRow> rows;
  int index = 0;
  for (size_t shards : {size_t{1}, size_t{2}, size_t{4}}) {
    for (const MutationMix& mix : kMixes) {
      DurabilityRow row =
          RunDurabilityPoint(shards, mix, mutations, sinks, index++);
      std::printf("%-8zu %-12s %-9zu %-12zu %-11zu %-7zu %-9s %-8s\n",
                  row.shards, row.mix.c_str(), row.objects, row.wal_records,
                  row.wal_bytes, row.syncs,
                  row.replay_matches ? "exact" : "DIVERGED",
                  row.crash_recovered ? "ok" : "FAILED");
      rows.push_back(row);
    }
  }
  std::printf("\n");
  return rows;
}

std::string JsonRow(const DurabilityRow& row) {
  return bench::Format(
      "{\"shards\": %zu, \"mix\": \"%s\", \"mutations\": %zu, "
      "\"stores\": %zu, \"modifies\": %zu, \"deletes\": %zu, "
      "\"objects\": %zu, \"wal_records\": %zu, \"wal_bytes\": %zu, "
      "\"syncs\": %zu, \"replayed_records\": %zu, "
      "\"replay_matches\": %s, \"crash_recovered\": %s}",
      row.shards, row.mix.c_str(), row.mutations, row.stores, row.modifies,
      row.deletes, row.objects, row.wal_records, row.wal_bytes, row.syncs,
      row.replayed_records, row.replay_matches ? "true" : "false",
      row.crash_recovered ? "true" : "false");
}

void BM_ShardedStore(benchmark::State& state) {
  Clock clock;
  storage::ShardedDatabaseServer::Options options;
  options.num_shards = static_cast<size_t>(state.range(0));
  storage::ShardedDatabaseServer db(&clock, options);
  db.RegisterStandardTypes().ok();
  Rng rng(6);
  Bytes payload = RandomBytes(65536, rng);
  for (auto _ : state) {
    auto ref = db.Store("Image",
                        {{"FLD_QUALITY", int64_t{90}},
                         {"FLD_TEXTS", std::string("t")},
                         {"FLD_CM", std::string("c")}},
                        {{"FLD_DATA", payload}})
                   .value();
    benchmark::DoNotOptimize(ref);
    clock.AdvanceMicros(1000);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 65536);
}
BENCHMARK(BM_ShardedStore)->Arg(1)->Arg(4);

void BM_WalReplay(benchmark::State& state) {
  Clock clock;
  storage::ShardedDatabaseServer db(&clock);
  db.RegisterStandardTypes().ok();
  Rng rng(8);
  for (int i = 0; i < 128; ++i) {
    db.Store("Image",
             {{"FLD_QUALITY", int64_t{i}},
              {"FLD_TEXTS", std::string("t")},
              {"FLD_CM", std::string("c")}},
             {{"FLD_DATA", RandomBytes(4096, rng)}})
        .value();
  }
  db.SyncAll();
  Bytes log = db.shard_wal(0)->durable();
  for (auto _ : state) {
    DatabaseServer fresh;
    benchmark::DoNotOptimize(
        storage::ShardedDatabaseServer::ReplayLogInto(log, &fresh));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(log.size()));
}
BENCHMARK(BM_WalReplay);

}  // namespace

int main(int argc, char** argv) {
  bench::Harness harness(/*traced=*/true);
  if (!harness.Start(argc, argv)) return 1;
  if (!harness.smoke()) PrintFigure7();
  std::vector<DurabilityRow> rows =
      RunDurabilitySweep(harness.smoke(), harness.sinks());
  bool durable = true;
  for (const DurabilityRow& row : rows) durable = durable && row.Ok();
  return harness.Finish(
      durable,
      bench::MakeReport("storage_durability_sweep", "sweep", rows, JsonRow));
}
