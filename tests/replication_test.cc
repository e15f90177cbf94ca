#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"
#include "net/network.h"
#include "net/reliable.h"
#include "obs/metrics.h"
#include "storage/database.h"
#include "storage/replication.h"
#include "storage/sharded_db.h"
#include "storage/wal.h"

namespace mmconf::storage {
namespace {

Bytes RandomBytes(size_t n, Rng& rng) {
  Bytes data(n);
  for (uint8_t& b : data) b = static_cast<uint8_t>(rng.Next());
  return data;
}

std::map<std::string, FieldValue> ImageFields(int64_t quality) {
  return {{"FLD_QUALITY", FieldValue{quality}},
          {"FLD_TEXTS", FieldValue{std::string("t")}},
          {"FLD_CM", FieldValue{std::string("c")}}};
}

/// A primary + transport + replica set on one clock, with the settle
/// loop the drivers use: deliver, fold, ship, until quiescent.
struct Rig {
  Clock clock;
  net::Network network{&clock, 0xfee1d00dull};
  net::NodeId db_node;
  std::unique_ptr<ShardedDatabaseServer> db;
  std::unique_ptr<net::ReliableTransport> transport;
  std::unique_ptr<ReplicatedShardSet> repl;

  explicit Rig(size_t shards, ReplicationOptions options = {}) {
    db_node = network.AddNode("db");
    ShardedDatabaseServer::Options db_options;
    db_options.num_shards = shards;
    db = std::make_unique<ShardedDatabaseServer>(&clock, db_options);
    transport = std::make_unique<net::ReliableTransport>(&network);
    repl = std::make_unique<ReplicatedShardSet>(db.get(), transport.get(),
                                                &clock, db_node, options);
  }

  ShipReport Pump() {
    ShipReport total;
    while (true) {
      std::vector<net::Delivery> deliveries = transport->AdvanceUntilIdle();
      size_t consumed = 0;
      for (const net::Delivery& delivery : deliveries) {
        if (repl->HandleDelivery(delivery)) ++consumed;
      }
      ShipReport round = repl->Ship().value();
      total.batches += round.batches;
      total.batch_bytes += round.batch_bytes;
      total.snapshots += round.snapshots;
      total.acks_folded += round.acks_folded;
      total.checkpoints += round.checkpoints;
      if (consumed == 0 && round.batches == 0 && round.snapshots == 0) {
        return total;
      }
    }
  }

  /// Seeded store/modify/delete mutations with clock advance, synced
  /// and drained at the end.
  void Mutate(int steps, uint64_t seed) {
    Rng rng(seed);
    std::vector<ObjectRef> live;
    for (int step = 0; step < steps; ++step) {
      uint64_t roll = rng.NextBelow(100);
      if (roll < 60 || live.empty()) {
        live.push_back(db->Store("Image", ImageFields(step),
                                 {{"FLD_DATA",
                                   RandomBytes(rng.NextBelow(700), rng)}})
                           .value());
      } else if (roll < 85) {
        ASSERT_TRUE(db->Modify(live[rng.NextBelow(live.size())],
                               {{"FLD_QUALITY",
                                 FieldValue{static_cast<int64_t>(step)}}},
                               {})
                        .ok());
      } else {
        size_t pick = rng.NextBelow(live.size());
        ASSERT_TRUE(db->Delete(live[pick]).ok());
        live.erase(live.begin() + pick);
      }
      clock.AdvanceMicros(2000 + static_cast<MicrosT>(rng.NextBelow(1500)));
    }
    db->SyncAll();
    Pump();
  }
};

TEST(ReplicationTest, ShipsOneBatchPerGroupCommitBoundary) {
  Rig rig(2);
  ASSERT_TRUE(rig.db->RegisterStandardTypes().ok());
  ShipReport setup = rig.Pump();
  EXPECT_EQ(setup.snapshots, 2u);  // one epoch-opening snap per shard
  Rng rng(3);
  ShipReport shipped;
  for (int i = 0; i < 30; ++i) {
    rig.db->Store("Image", ImageFields(i),
                  {{"FLD_DATA", RandomBytes(400, rng)}})
        .value();
    rig.clock.AdvanceMicros(6000);
    rig.db->SyncAll();
    ShipReport round = rig.Pump();
    shipped.batches += round.batches;
    shipped.batch_bytes += round.batch_bytes;
  }
  size_t sync_points = 0;
  size_t durable_bytes = 0;
  for (size_t s = 0; s < rig.db->num_shards(); ++s) {
    sync_points += rig.db->shard_wal(s)->sync_count();
    durable_bytes += rig.db->shard_wal(s)->durable().size();
    ReplicationLag lag = rig.repl->LagOf(s);
    EXPECT_EQ(lag.acked_records, lag.durable_records) << "shard " << s;
    EXPECT_EQ(rig.repl->follower_records(s, 0),
              rig.db->shard_wal(s)->durable_records());
    EXPECT_FALSE(rig.repl->follower_diverged(s, 0));
  }
  // Batch structure mirrors the group-commit structure: one batch per
  // sync point, covering every durable byte exactly once.
  EXPECT_EQ(shipped.batches, sync_points);
  EXPECT_EQ(shipped.batch_bytes, durable_bytes);
}

TEST(ReplicationTest, DrainedPromotionIsByteExactWithZeroAckedLoss) {
  Rig rig(2);
  ASSERT_TRUE(rig.db->RegisterStandardTypes().ok());
  rig.Mutate(120, 11);
  size_t acked = rig.db->shard_wal(0)->durable_records();
  Bytes primary_image = rig.db->shard(0)->Serialize();
  // Independent control replica: replay the durable log the way a
  // never-crashed server would.
  DatabaseServer control;
  WalReplayStats replay = ShardedDatabaseServer::ReplayLogInto(
                              rig.db->shard_wal(0)->durable(), &control)
                              .value();
  ASSERT_TRUE(replay.clean_end);
  ASSERT_TRUE(rig.db->HealSchema(&control, nullptr).ok());
  // The primary machine is gone: promote its follower.
  PromotionReport promoted = rig.repl->Promote(0, 0).value();
  EXPECT_FALSE(promoted.diverged);
  EXPECT_EQ(promoted.replayed_records, acked);
  EXPECT_EQ(rig.db->shard(0)->Serialize(), primary_image);
  EXPECT_EQ(rig.db->shard(0)->Serialize(), control.Serialize());
  // The promoted WAL carries the shipped history: it replays, and the
  // facade keeps serving and assigning fresh ids.
  EXPECT_EQ(rig.db->shard_wal(0)->durable_records(), acked);
  EXPECT_GT(rig.db->shard_wal(0)->sync_count(), 0u);
  rig.Mutate(20, 12);
  for (size_t s = 0; s < rig.db->num_shards(); ++s) {
    DatabaseServer fresh;
    ASSERT_TRUE(ShardedDatabaseServer::ReplayLogInto(
                    rig.db->shard_wal(s)->durable(), &fresh)
                    .ok());
  }
}

TEST(ReplicationTest, CheckpointCompactsLogAndResyncsFollowers) {
  ReplicationOptions options;
  options.checkpoint_log_bytes = 8 * 1024;
  Rig rig(1, options);
  ASSERT_TRUE(rig.db->RegisterStandardTypes().ok());
  Rng rng(7);
  ShipReport total;
  for (int i = 0; i < 40; ++i) {
    rig.db->Store("Image", ImageFields(i),
                  {{"FLD_DATA", RandomBytes(900, rng)}})
        .value();
    rig.clock.AdvanceMicros(6000);
    rig.db->SyncAll();
    ShipReport round = rig.Pump();
    total.checkpoints += round.checkpoints;
  }
  EXPECT_GT(total.checkpoints, 1u);
  EXPECT_EQ(rig.repl->epoch(0), total.checkpoints);
  EXPECT_FALSE(rig.repl->checkpoint(0).empty());
  // Compaction really truncated: the live log holds only the records
  // since the last checkpoint.
  EXPECT_LT(rig.db->shard_wal(0)->durable_records(), 40u);
  // A follower resynced from snapshot + tail batches still promotes to
  // the exact primary image.
  Bytes primary_image = rig.db->shard(0)->Serialize();
  size_t acked = rig.db->shard_wal(0)->durable_records();
  PromotionReport promoted = rig.repl->Promote(0, 0).value();
  EXPECT_FALSE(promoted.diverged);
  EXPECT_GT(promoted.snapshot_bytes, 0u);
  EXPECT_EQ(promoted.replayed_records, acked);
  EXPECT_EQ(rig.db->shard(0)->Serialize(), primary_image);
}

TEST(ReplicationTest, AbruptLossBoundsRpoToUnshippedTail) {
  Rig rig(1);
  ASSERT_TRUE(rig.db->RegisterStandardTypes().ok());
  rig.Mutate(40, 19);
  size_t shipped = rig.repl->follower_records(0, 0);
  // Group-commit a burst the shipper never gets to run for.
  Rng rng(20);
  for (int i = 0; i < 5; ++i) {
    rig.db->Store("Image", ImageFields(1000 + i),
                  {{"FLD_DATA", RandomBytes(300, rng)}})
        .value();
  }
  rig.db->SyncAll();
  size_t durable = rig.db->shard_wal(0)->durable_records();
  ASSERT_GT(durable, shipped);
  PromotionReport promoted = rig.repl->Promote(0, 0).value();
  EXPECT_FALSE(promoted.diverged);
  // The follower promotes exactly what was shipped and acknowledged:
  // the recovery point is the unshipped tail, nothing more.
  EXPECT_EQ(promoted.replayed_records, shipped);
  EXPECT_EQ(rig.db->shard_wal(0)->durable_records(), shipped);
}

TEST(ReplicationTest, CorruptBatchMarksFollowerDivergedAndKeepsPrefix) {
  obs::MetricsRegistry metrics;
  Rig rig(1);
  rig.repl->SetObserver(&metrics, nullptr);
  ASSERT_TRUE(rig.db->RegisterStandardTypes().ok());
  rig.Mutate(10, 23);
  size_t verified = rig.repl->follower_records(0, 0);
  ASSERT_GT(verified, 0u);
  // Ship one more batch but corrupt it in flight: flip a byte in the
  // carried log bytes (past the fixed 32-byte header).
  Rng rng(24);
  rig.db->Store("Image", ImageFields(999),
                {{"FLD_DATA", RandomBytes(200, rng)}})
      .value();
  rig.db->SyncAll();
  ASSERT_EQ(rig.repl->Ship().value().batches, 1u);
  std::vector<net::Delivery> deliveries = rig.transport->AdvanceUntilIdle();
  ASSERT_EQ(deliveries.size(), 1u);
  net::Delivery forged = deliveries[0];
  ASSERT_GT(forged.payload.size(), 40u);
  forged.payload[forged.payload.size() - 1] ^= 0x5a;
  EXPECT_TRUE(rig.repl->HandleDelivery(forged));
  EXPECT_TRUE(rig.repl->follower_diverged(0, 0));
  EXPECT_EQ(metrics.GetCounter("storage.repl.divergences")->value(), 1u);
  // The verified prefix survives; promotion reports the divergence and
  // falls back to it instead of trusting the corrupt history.
  EXPECT_EQ(rig.repl->follower_records(0, 0), verified);
  PromotionReport promoted = rig.repl->Promote(0, 0).value();
  EXPECT_TRUE(promoted.diverged);
  EXPECT_EQ(promoted.replayed_records, verified);
  EXPECT_EQ(rig.db->shard_wal(0)->durable_records(), verified);
}

TEST(ReplicationTest, OutOfOrderAndDuplicateBatchesApplyExactlyOnce) {
  obs::MetricsRegistry metrics;
  Rig rig(1);
  rig.repl->SetObserver(&metrics, nullptr);
  ASSERT_TRUE(rig.db->RegisterStandardTypes().ok());
  rig.Pump();  // epoch snap
  // Produce three distinct batches without letting the wire drain.
  Rng rng(29);
  std::vector<net::Delivery> held;
  for (int i = 0; i < 3; ++i) {
    rig.db->Store("Image", ImageFields(i),
                  {{"FLD_DATA", RandomBytes(150, rng)}})
        .value();
    rig.clock.AdvanceMicros(6000);
    rig.db->SyncAll();
    ASSERT_EQ(rig.repl->Ship().value().batches, 1u);
    std::vector<net::Delivery> round = rig.transport->AdvanceUntilIdle();
    held.insert(held.end(), round.begin(), round.end());
  }
  ASSERT_EQ(held.size(), 3u);
  size_t durable = rig.db->shard_wal(0)->durable_records();
  // Deliver reversed (out-of-order arrivals buffer until the gap
  // fills), then re-deliver an already-applied batch (a retry racing
  // its own ack): the duplicate is dropped, not re-applied.
  EXPECT_TRUE(rig.repl->HandleDelivery(held[2]));
  EXPECT_TRUE(rig.repl->HandleDelivery(held[1]));
  EXPECT_TRUE(rig.repl->HandleDelivery(held[0]));
  EXPECT_TRUE(rig.repl->HandleDelivery(held[1]));
  EXPECT_EQ(rig.repl->follower_records(0, 0), durable);
  EXPECT_FALSE(rig.repl->follower_diverged(0, 0));
  EXPECT_GE(metrics.GetCounter("storage.repl.duplicates")->value(), 1u);
  // The reassembled history is the primary's history.
  Bytes primary_image = rig.db->shard(0)->Serialize();
  PromotionReport promoted = rig.repl->Promote(0, 0).value();
  EXPECT_FALSE(promoted.diverged);
  EXPECT_EQ(rig.db->shard(0)->Serialize(), primary_image);
}

TEST(ReplicationTest, RecoverPrimaryReplaysCheckpointPlusCleanPrefix) {
  ReplicationOptions options;
  options.checkpoint_log_bytes = 8 * 1024;
  Rig rig(1, options);
  ASSERT_TRUE(rig.db->RegisterStandardTypes().ok());
  rig.Mutate(60, 31);
  ASSERT_FALSE(rig.repl->checkpoint(0).empty());
  uint64_t epoch_before = rig.repl->epoch(0);
  // Damage the post-checkpoint log; the checkpoint makes the facade's
  // own RecoverShardFromLog insufficient (the log alone no longer
  // rebuilds the shard) — RecoverPrimary replays on top of it.
  WalCrashInjector injector(33);
  WalCrashImage image =
      injector.Crash(*rig.db->shard_wal(0), WalCrashKind::kTornTail);
  DatabaseServer control;
  ASSERT_TRUE(control.LoadFrom(rig.repl->checkpoint(0)).ok());
  ASSERT_TRUE(
      ShardedDatabaseServer::ReplayLogInto(image.log, &control).ok());
  ASSERT_TRUE(rig.db->HealSchema(&control, nullptr).ok());
  WalReplayStats stats = rig.repl->RecoverPrimary(0, image.log).value();
  EXPECT_EQ(stats.records_applied, image.clean_records);
  EXPECT_EQ(rig.db->shard(0)->Serialize(), control.Serialize());
  // Shipped history beyond the surviving prefix is disowned: a new
  // epoch begins and followers resync to the recovered image.
  EXPECT_GT(rig.repl->epoch(0), epoch_before);
  rig.Pump();
  Bytes recovered_image = rig.db->shard(0)->Serialize();
  PromotionReport promoted = rig.repl->Promote(0, 0).value();
  EXPECT_FALSE(promoted.diverged);
  EXPECT_EQ(rig.db->shard(0)->Serialize(), recovered_image);
}

/// The log size at which one checkpoint fired, and the size of the
/// image it replaced.
struct CheckpointFiring {
  size_t log_bytes = 0;
  size_t previous_image = 0;
};

/// Churns shard 0 with ~900-byte image stores, a blob rewrite every
/// third step and a delete every fifth, pumping after each group commit
/// so a checkpoint can fire at any step. Records every firing.
std::vector<CheckpointFiring> ChurnWithCheckpoints(Rig& rig, int steps,
                                                   uint64_t seed) {
  Rng rng(seed);
  std::vector<ObjectRef> live;
  std::vector<CheckpointFiring> firings;
  for (int step = 0; step < steps; ++step) {
    if (step % 5 == 4 && !live.empty()) {
      size_t pick = rng.NextBelow(live.size());
      EXPECT_TRUE(rig.db->Delete(live[pick]).ok());
      live.erase(live.begin() + pick);
    } else if (step % 3 == 2 && !live.empty()) {
      EXPECT_TRUE(rig.db->Modify(live[rng.NextBelow(live.size())],
                                 {{"FLD_QUALITY", FieldValue{int64_t{step}}}},
                                 {{"FLD_DATA", RandomBytes(900, rng)}})
                      .ok());
    } else {
      live.push_back(rig.db->Store("Image", ImageFields(step),
                                   {{"FLD_DATA", RandomBytes(900, rng)}})
                         .value());
    }
    rig.clock.AdvanceMicros(6000);
    rig.db->SyncAll();
    CheckpointFiring firing{rig.db->shard_wal(0)->durable().size(),
                            rig.repl->checkpoint(0).size()};
    uint64_t epoch = rig.repl->epoch(0);
    rig.Pump();
    if (rig.repl->epoch(0) != epoch) firings.push_back(firing);
  }
  return firings;
}

TEST(ReplicationTest, CheckpointWaitsForLogToReachLastImage) {
  obs::MetricsRegistry metrics;
  ReplicationOptions options;
  options.checkpoint_log_bytes = 4 * 1024;
  Rig rig(1, options);
  rig.repl->SetObserver(&metrics, nullptr);
  ASSERT_TRUE(rig.db->RegisterStandardTypes().ok());
  std::vector<CheckpointFiring> firings = ChurnWithCheckpoints(rig, 200, 41);
  ASSERT_GE(firings.size(), 5u);
  // The floor holds first; past it, the log must have grown as large as
  // the image the checkpoint replaces.
  for (size_t i = 0; i < firings.size(); ++i) {
    EXPECT_GE(firings[i].log_bytes, options.checkpoint_log_bytes)
        << "checkpoint " << i;
    EXPECT_GE(firings[i].log_bytes, firings[i].previous_image)
        << "checkpoint " << i;
  }
  EXPECT_GT(firings.back().previous_image, options.checkpoint_log_bytes);
  // So each image is at most the previous one plus a log at least as
  // large as it: on loss-free links the images shipped stay within
  // twice the log shipped.
  uint64_t snapshot_bytes =
      metrics.GetCounter("storage.repl.snapshot_bytes")->value();
  uint64_t batch_bytes =
      metrics.GetCounter("storage.repl.batch_bytes")->value();
  EXPECT_EQ(metrics.GetCounter("storage.repl.checkpoints")->value(),
            firings.size());
  EXPECT_GT(snapshot_bytes, 0u);
  EXPECT_LE(snapshot_bytes, 2 * batch_bytes);
}

TEST(ReplicationTest, PromotionAfterCheckpointsWithDeletesMatchesPrimary) {
  ReplicationOptions options;
  options.checkpoint_log_bytes = 4 * 1024;
  Rig rig(1, options);
  ASSERT_TRUE(rig.db->RegisterStandardTypes().ok());
  ASSERT_GE(ChurnWithCheckpoints(rig, 120, 43).size(), 3u);
  // The follower's base image went through LoadFrom, which allocates
  // fresh BlobIds; a canonical image does not carry them, so the
  // drained promotion is the dead primary's image byte for byte.
  Bytes primary_image = rig.db->shard(0)->Serialize();
  size_t acked = rig.db->shard_wal(0)->durable_records();
  PromotionReport promoted = rig.repl->Promote(0, 0).value();
  EXPECT_FALSE(promoted.diverged);
  EXPECT_GT(promoted.snapshot_bytes, 0u);
  EXPECT_EQ(promoted.replayed_records, acked);
  EXPECT_EQ(rig.db->shard(0)->Serialize(), primary_image);
}

TEST(ReplicationTest, RecoverPrimaryAfterCheckpointsWithDeletesMatchesPrimary) {
  ReplicationOptions options;
  options.checkpoint_log_bytes = 4 * 1024;
  Rig rig(1, options);
  ASSERT_TRUE(rig.db->RegisterStandardTypes().ok());
  ASSERT_GE(ChurnWithCheckpoints(rig, 120, 47).size(), 3u);
  Bytes primary_image = rig.db->shard(0)->Serialize();
  Bytes log = rig.db->shard_wal(0)->durable();
  WalReplayStats stats = rig.repl->RecoverPrimary(0, log).value();
  EXPECT_TRUE(stats.clean_end);
  EXPECT_EQ(stats.records_applied, rig.db->shard_wal(0)->durable_records());
  EXPECT_EQ(rig.db->shard(0)->Serialize(), primary_image);
}

TEST(ReplicationTest, DetachedObserversWriteNothingToTheOldRegistry) {
  obs::MetricsRegistry metrics;
  Rig rig(1);
  ReadThroughCache cache(rig.db.get(), 4 * 1024);
  rig.repl->SetObserver(&metrics, nullptr);
  cache.SetObserver(&metrics);
  ASSERT_TRUE(cache.RegisterStandardTypes().ok());
  Rng rng(53);
  std::vector<ObjectRef> refs;
  auto exercise = [&] {
    for (int i = 0; i < 4; ++i) {
      refs.push_back(cache
                         .Store("Image", ImageFields(i),
                                {{"FLD_DATA", RandomBytes(1500, rng)}})
                         .value());
      rig.clock.AdvanceMicros(6000);
    }
    // A miss then a hit per blob, and evictions: 1500-byte blobs in
    // 4 KiB.
    for (const ObjectRef& ref : refs) {
      ASSERT_TRUE(cache.FetchBlob(ref, "FLD_DATA").ok());
      ASSERT_TRUE(cache.FetchBlob(ref, "FLD_DATA").ok());
    }
    ASSERT_TRUE(cache.Delete(refs.front()).ok());
    refs.erase(refs.begin());
    rig.db->SyncAll();
    rig.Pump();
  };
  exercise();
  EXPECT_GT(metrics.GetCounter("storage.cache.hits")->value(), 0u);
  EXPECT_GT(metrics.GetCounter("storage.cache.evictions")->value(), 0u);
  EXPECT_GT(metrics.GetCounter("storage.repl.batches")->value(), 0u);
  rig.repl->SetObserver(nullptr, nullptr);
  cache.SetObserver(nullptr);
  obs::MetricsSnapshot detached = metrics.Snapshot();
  size_t hits = cache.hits();
  exercise();
  ASSERT_TRUE(rig.repl->Promote(0, 0).ok());
  rig.Pump();
  Bytes log = rig.db->shard_wal(0)->durable();
  ASSERT_TRUE(rig.repl->RecoverPrimary(0, log).ok());
  rig.Pump();
  EXPECT_GT(cache.hits(), hits);  // the cache still counts for itself
  EXPECT_EQ(metrics.Snapshot(), detached);
}

// --- ReadThroughCache -------------------------------------------------

TEST(CacheTest, ReadThroughHitsAfterFirstFetchAndWritesInvalidate) {
  Clock clock;
  ShardedDatabaseServer db(&clock);
  ReadThroughCache cache(&db, 1 << 20);
  ASSERT_TRUE(cache.RegisterStandardTypes().ok());
  Rng rng(41);
  Bytes blob = RandomBytes(5000, rng);
  ObjectRef ref =
      cache.Store("Image", ImageFields(1), {{"FLD_DATA", blob}}).value();
  EXPECT_EQ(cache.FetchBlob(ref, "FLD_DATA").value(), blob);  // miss
  EXPECT_EQ(cache.FetchBlob(ref, "FLD_DATA").value(), blob);  // hit
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  // Range reads slice from the cached full blob.
  EXPECT_EQ(cache.FetchBlobRange(ref, "FLD_DATA", 100, 50).value(),
            Bytes(blob.begin() + 100, blob.begin() + 150));
  EXPECT_EQ(cache.hits(), 2u);
  // A write-through invalidates: the next fetch misses and sees the new
  // payload, never the stale cached one.
  Bytes updated = RandomBytes(3000, rng);
  ASSERT_TRUE(cache.Modify(ref, {}, {{"FLD_DATA", updated}}).ok());
  EXPECT_EQ(cache.FetchBlob(ref, "FLD_DATA").value(), updated);
  EXPECT_EQ(cache.misses(), 2u);
  // Deleting drops the entry and the miss surfaces the store's error.
  ASSERT_TRUE(cache.Delete(ref).ok());
  EXPECT_TRUE(cache.FetchBlob(ref, "FLD_DATA").status().IsNotFound());
}

TEST(CacheTest, CapacityBoundEvictsLeastRecentlyUsed) {
  Clock clock;
  ShardedDatabaseServer db(&clock);
  ReadThroughCache cache(&db, 10 * 1024);
  ASSERT_TRUE(cache.RegisterStandardTypes().ok());
  Rng rng(43);
  std::vector<ObjectRef> refs;
  for (int i = 0; i < 8; ++i) {
    refs.push_back(cache
                       .Store("Image", ImageFields(i),
                              {{"FLD_DATA", RandomBytes(4096, rng)}})
                       .value());
  }
  for (const ObjectRef& ref : refs) cache.FetchBlob(ref, "FLD_DATA").value();
  EXPECT_GT(cache.evictions(), 0u);
  EXPECT_LE(cache.size_bytes(), 10u * 1024u);
  // The most recent fetch is resident, the oldest evicted.
  size_t hits_before = cache.hits();
  cache.FetchBlob(refs.back(), "FLD_DATA").value();
  EXPECT_EQ(cache.hits(), hits_before + 1);
  size_t misses_before = cache.misses();
  cache.FetchBlob(refs.front(), "FLD_DATA").value();
  EXPECT_EQ(cache.misses(), misses_before + 1);
}

TEST(CacheTest, HitRefreshesRecency) {
  Clock clock;
  ShardedDatabaseServer db(&clock);
  ReadThroughCache cache(&db, 10 * 1024);  // room for two 4 KiB blobs
  ASSERT_TRUE(cache.RegisterStandardTypes().ok());
  Rng rng(59);
  std::vector<ObjectRef> refs;
  for (int i = 0; i < 3; ++i) {
    refs.push_back(cache
                       .Store("Image", ImageFields(i),
                              {{"FLD_DATA", RandomBytes(4096, rng)}})
                       .value());
  }
  const ObjectRef& a = refs[0];
  const ObjectRef& b = refs[1];
  cache.FetchBlob(a, "FLD_DATA").value();
  cache.FetchBlob(b, "FLD_DATA").value();
  cache.FetchBlob(a, "FLD_DATA").value();  // hit: A is now most recent
  EXPECT_EQ(cache.hits(), 1u);
  cache.FetchBlob(refs[2], "FLD_DATA").value();  // forces one eviction
  EXPECT_EQ(cache.evictions(), 1u);
  size_t hits_before = cache.hits();
  cache.FetchBlob(a, "FLD_DATA").value();
  EXPECT_EQ(cache.hits(), hits_before + 1);  // A stayed
  size_t misses_before = cache.misses();
  cache.FetchBlob(b, "FLD_DATA").value();
  EXPECT_EQ(cache.misses(), misses_before + 1);  // B went
}

TEST(CacheTest, OversizedBlobIsServedButNotCached) {
  Clock clock;
  ShardedDatabaseServer db(&clock);
  ReadThroughCache cache(&db, 10 * 1024);
  ASSERT_TRUE(cache.RegisterStandardTypes().ok());
  Rng rng(61);
  Bytes small = RandomBytes(4096, rng);
  Bytes big = RandomBytes(16 * 1024, rng);
  ObjectRef small_ref =
      cache.Store("Image", ImageFields(1), {{"FLD_DATA", small}}).value();
  ObjectRef big_ref =
      cache.Store("Image", ImageFields(2), {{"FLD_DATA", big}}).value();
  EXPECT_EQ(cache.FetchBlob(small_ref, "FLD_DATA").value(), small);
  EXPECT_EQ(cache.FetchBlob(big_ref, "FLD_DATA").value(), big);
  EXPECT_EQ(cache.FetchBlob(big_ref, "FLD_DATA").value(), big);
  EXPECT_EQ(cache.misses(), 3u);  // the big blob misses every time
  EXPECT_EQ(cache.evictions(), 0u);
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.size_bytes(), small.size());
  EXPECT_EQ(cache.FetchBlob(small_ref, "FLD_DATA").value(), small);
  EXPECT_EQ(cache.hits(), 1u);  // the resident blob was not displaced
}

TEST(CacheTest, InvalidateShardDropsOnlyThatShardsEntries) {
  Clock clock;
  ShardedDatabaseServer::Options options;
  options.num_shards = 4;
  ShardedDatabaseServer db(&clock, options);
  ReadThroughCache cache(&db, 4 << 20);
  ASSERT_TRUE(cache.RegisterStandardTypes().ok());
  Rng rng(47);
  std::vector<ObjectRef> refs;
  for (int i = 0; i < 24; ++i) {
    refs.push_back(cache
                       .Store("Image", ImageFields(i),
                              {{"FLD_DATA", RandomBytes(512, rng)}})
                       .value());
    cache.FetchRecord(refs.back()).value();
    cache.FetchBlob(refs.back(), "FLD_DATA").value();
  }
  auto shard_of = [&db](const ObjectRef& ref) { return db.ShardOf(ref); };
  size_t on_zero = 0;
  for (const ObjectRef& ref : refs) {
    if (db.ShardOf(ref) == 0) ++on_zero;
  }
  ASSERT_GT(on_zero, 0u);
  cache.InvalidateShard(0, shard_of);
  // Refetching everything: shard-0 refs miss (record + blob each), the
  // rest hit.
  size_t misses_before = cache.misses();
  size_t hits_before = cache.hits();
  for (const ObjectRef& ref : refs) {
    cache.FetchRecord(ref).value();
    cache.FetchBlob(ref, "FLD_DATA").value();
  }
  EXPECT_EQ(cache.misses() - misses_before, 2 * on_zero);
  EXPECT_EQ(cache.hits() - hits_before, 2 * (refs.size() - on_zero));
  cache.InvalidateAll();
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.size_bytes(), 0u);
}

TEST(CacheTest, ZeroCapacityIsPurePassThrough) {
  Clock clock;
  ShardedDatabaseServer db(&clock);
  ReadThroughCache cache(&db, 0);
  ASSERT_TRUE(cache.RegisterStandardTypes().ok());
  Rng rng(53);
  Bytes blob = RandomBytes(256, rng);
  ObjectRef ref =
      cache.Store("Image", ImageFields(1), {{"FLD_DATA", blob}}).value();
  EXPECT_EQ(cache.FetchBlob(ref, "FLD_DATA").value(), blob);
  EXPECT_EQ(cache.FetchBlob(ref, "FLD_DATA").value(), blob);
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.List("Image").value(), db.List("Image").value());
}

}  // namespace
}  // namespace mmconf::storage
