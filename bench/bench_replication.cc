// Replication failover bench: primary/follower WAL shipping for the
// sharded durable tier (storage/replication) over the lossy simulated
// network. The sweep runs shard-count x drop-rate cells, each driving a
// seeded mutation workload with the shipper pumped between bursts, then
// measures the two failure modes that matter:
//
//  - drained kill (RPO = 0 by contract): the wire is drained, the
//    primary of shard 0 is lost, a follower is promoted, and the
//    promoted image must be byte-identical to a never-crashed control
//    (checkpoint + durable-log replay) — the zero-acked-write-loss
//    invariant, asserted per cell.
//  - abrupt kill (bounded RPO): extra mutations are group-committed but
//    never shipped before the primary of shard 1 dies; the recovery
//    point (acked-but-unshipped records lost) is reported.
//
// Checkpoint/compaction counts and the image bytes they re-ship, resync
// time after promotion (virtual time: the epoch snapshot + batch resync
// on the wire), and the read-through cache's hit rate across a failover
// invalidation are reported per cell; the last cell runs long enough
// for its shard image to outgrow the checkpoint floor. Everything
// asserted or written to JSON is virtual-time or count based, so
// BENCH_replication.json gates in CI like the other benches (--smoke
// exits nonzero when an invariant breaks). --json_out/--metrics_out/
// --trace_out as in the other benches.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"
#include "harness.h"
#include "net/network.h"
#include "net/reliable.h"
#include "storage/database.h"
#include "storage/replication.h"
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

struct ReplRow {
  size_t shards = 0;
  double drop = 0.0;
  size_t mutations = 0;
  size_t batches = 0;
  size_t batch_bytes = 0;
  size_t snapshots = 0;
  size_t snapshot_bytes = 0;
  size_t checkpoints = 0;
  size_t wire_bytes = 0;
  MicrosT end_micros = 0;
  // Drained kill of shard 0's primary.
  size_t drained_replayed = 0;
  bool drained_exact = false;
  MicrosT resync_micros = 0;  ///< wire time to resync followers after it
  // Abrupt kill of shard 1's primary (cells with >= 2 shards).
  size_t abrupt_rpo_records = 0;
  bool abrupt_clean = true;  ///< promoted prefix verified, no divergence
  // Read-through cache across the failover invalidation.
  size_t cache_hits = 0;
  size_t cache_misses = 0;

  bool Ok() const { return drained_exact && abrupt_clean; }
};

/// Drives transport + shipper to quiescence: every committed batch
/// shipped, every ack folded. The generous retry policy below makes
/// message failure (and thus shipper stalls) unreachable at the swept
/// drop rates, so quiescence means fully acked.
bool Pump(net::ReliableTransport& transport, storage::ReplicatedShardSet& repl,
          ReplRow& row) {
  while (true) {
    std::vector<net::Delivery> deliveries = transport.AdvanceUntilIdle();
    size_t consumed = 0;
    for (const net::Delivery& delivery : deliveries) {
      if (repl.HandleDelivery(delivery)) ++consumed;
    }
    Result<storage::ShipReport> shipped = repl.Ship();
    if (!shipped.ok()) return false;
    row.batches += shipped.value().batches;
    row.batch_bytes += shipped.value().batch_bytes;
    row.snapshots += shipped.value().snapshots;
    row.snapshot_bytes += shipped.value().snapshot_bytes;
    row.checkpoints += shipped.value().checkpoints;
    if (consumed == 0 && shipped.value().batches == 0 &&
        shipped.value().snapshots == 0) {
      return true;
    }
  }
}

ReplRow RunCell(size_t shards, double drop, size_t mutations,
                const bench::ObsSinks& sinks, int index) {
  ReplRow row;
  row.shards = shards;
  row.drop = drop;
  row.mutations = mutations;

  Clock clock;
  if (sinks.enabled()) sinks.BeginFleet(&clock, index);
  net::Network network(&clock, 0x5eed0e11ull);
  net::NodeId db_node = network.AddNode("db");
  storage::ShardedDatabaseServer::Options db_options;
  db_options.num_shards = shards;
  storage::ShardedDatabaseServer db(&clock, db_options);
  net::RetryPolicy retry{120000, 2.0, 1000000, 12, 1 << 16};
  net::ReliableTransport transport(&network, retry);
  storage::ReplicationOptions repl_options;
  repl_options.checkpoint_log_bytes = 96 * 1024;  // exercise compaction
  storage::ReplicatedShardSet repl(&db, &transport, &clock, db_node,
                                   repl_options);
  storage::ReadThroughCache cache(&db, 4 << 20);
  if (sinks.enabled()) {
    db.SetObserver(sinks.metrics, sinks.tracer, index);
    repl.SetObserver(sinks.metrics, sinks.tracer, index);
    cache.SetObserver(sinks.metrics);
  }
  if (drop > 0.0) {
    net::FaultSpec fault;
    fault.drop_probability = drop;
    fault.jitter_micros = 1500;
    for (size_t s = 0; s < shards; ++s) {
      network.SetDuplexFault(db_node, repl.follower_node(s, 0), fault).ok();
    }
  }
  cache.RegisterStandardTypes().ok();

  Rng rng(4242 + shards * 17 + static_cast<uint64_t>(drop * 1000));
  std::vector<ObjectRef> live;
  for (size_t step = 0; step < mutations; ++step) {
    uint64_t roll = rng.NextBelow(100);
    if (roll < 60 || live.empty()) {
      live.push_back(cache
                         .Store("Image",
                                {{"FLD_QUALITY", static_cast<int64_t>(step)},
                                 {"FLD_TEXTS", std::string("t")},
                                 {"FLD_CM", std::string("c")}},
                                {{"FLD_DATA",
                                  RandomBytes(rng.NextBelow(3000), rng)}})
                         .value());
    } else if (roll < 85) {
      cache
          .Modify(live[rng.NextBelow(live.size())],
                  {{"FLD_QUALITY", static_cast<int64_t>(step)}}, {})
          .ok();
    } else {
      size_t pick = rng.NextBelow(live.size());
      cache.Delete(live[pick]).ok();
      live.erase(live.begin() + pick);
    }
    clock.AdvanceMicros(2000 + static_cast<MicrosT>(rng.NextBelow(1000)));
    if (step % 8 == 7 && !Pump(transport, repl, row)) return row;
  }

  // Warm the cache: two fetch rounds over the live set (first misses,
  // second hits).
  for (int round = 0; round < 2; ++round) {
    for (const ObjectRef& ref : live) {
      cache.FetchBlob(ref, "FLD_DATA").ok();
    }
  }

  // Abrupt kill: group-commit a burst the shipper never sees, then lose
  // shard 1's primary. The recovery point is the acked-but-unshipped
  // tail the promoted follower cannot have.
  if (shards >= 2) {
    db.SyncAll();
    if (!Pump(transport, repl, row)) return row;
    for (int burst = 0; burst < 12; ++burst) {
      cache
          .Store("Image",
                 {{"FLD_QUALITY", int64_t{-burst}},
                  {"FLD_TEXTS", std::string("t")},
                  {"FLD_CM", std::string("c")}},
                 {{"FLD_DATA", RandomBytes(1024, rng)}})
          .ok();
      clock.AdvanceMicros(6000);
    }
    db.SyncAll();
    size_t durable = db.shard_wal(1)->durable_records();
    size_t held = repl.follower_records(1, 0);
    Result<storage::PromotionReport> promoted = repl.Promote(1, 0);
    row.abrupt_clean = promoted.ok() && !promoted.value().diverged;
    row.abrupt_rpo_records = durable - (held < durable ? held : durable);
    cache.InvalidateShard(1, [&db](const ObjectRef& ref) {
      return db.ShardOf(ref);
    });
    if (!Pump(transport, repl, row)) return row;
  }

  // Drained kill: settle the wire, then lose shard 0's primary. With
  // shipping drained, promotion must reproduce the never-crashed
  // control byte for byte — zero acked-write loss.
  db.SyncAll();
  if (!Pump(transport, repl, row)) return row;
  DatabaseServer control;
  bool control_ok = true;
  if (!repl.checkpoint(0).empty()) {
    control_ok = control.LoadFrom(repl.checkpoint(0)).ok();
  }
  Result<storage::WalReplayStats> control_replay =
      storage::ShardedDatabaseServer::ReplayLogInto(
          db.shard_wal(0)->durable(), &control);
  size_t acked = db.shard_wal(0)->durable_records();
  Result<storage::PromotionReport> promoted = repl.Promote(0, 0);
  control_ok = control_ok && db.HealSchema(&control, nullptr).ok();
  row.drained_replayed =
      promoted.ok() ? promoted.value().replayed_records : 0;
  row.drained_exact = control_ok && control_replay.ok() && promoted.ok() &&
                      !promoted.value().diverged &&
                      promoted.value().replayed_records == acked &&
                      db.shard(0)->Serialize() == control.Serialize();
  cache.InvalidateShard(0, [&db](const ObjectRef& ref) {
    return db.ShardOf(ref);
  });

  // Resync the remaining followers behind the new primary and measure
  // the wire time it takes (epoch snapshot + batches).
  MicrosT resync_start = clock.NowMicros();
  if (!Pump(transport, repl, row)) return row;
  row.resync_micros = clock.NowMicros() - resync_start;

  // Post-failover read traffic: shard-0 entries were invalidated, the
  // rest of the cache stays warm.
  for (const ObjectRef& ref : live) {
    cache.FetchBlob(ref, "FLD_DATA").ok();
  }
  row.cache_hits = cache.hits();
  row.cache_misses = cache.misses();
  row.wire_bytes = network.TotalBytesSent();
  row.end_micros = clock.NowMicros();
  return row;
}

std::vector<ReplRow> RunSweep(bool smoke, const bench::ObsSinks& sinks) {
  const size_t mutations = smoke ? 240 : 1200;
  std::printf("== replication: WAL shipping + failover, %zu mutations per "
              "cell, %zu in the last (%s) ==\n",
              mutations, 4 * mutations, smoke ? "smoke" : "full");
  std::printf("%-8s %-6s %-8s %-7s %-10s %-6s %-10s %-8s %-7s %-10s %s\n",
              "shards", "drop", "batches", "snaps", "snap(B)", "ckpts",
              "resync(ms)", "rpo", "cache%", "wire(B)", "drained");
  struct Cell {
    size_t shards;
    double drop;
    size_t mutations;
  };
  // The last cell grows one shard's image well past the 96 KiB
  // checkpoint floor, so the trigger's proportional rule decides when
  // it checkpoints and what it re-ships.
  const Cell cells[] = {{1, 0.0, mutations},
                        {2, 0.0, mutations},
                        {2, 0.02, mutations},
                        {4, 0.02, mutations},
                        {1, 0.0, 4 * mutations}};
  std::vector<ReplRow> rows;
  int index = 0;
  for (const Cell& cell : cells) {
    ReplRow row =
        RunCell(cell.shards, cell.drop, cell.mutations, sinks, index++);
    double hit_rate =
        row.cache_hits + row.cache_misses > 0
            ? 100.0 * static_cast<double>(row.cache_hits) /
                  static_cast<double>(row.cache_hits + row.cache_misses)
            : 0.0;
    std::printf("%-8zu %-6.2f %-8zu %-7zu %-10zu %-6zu %-10.1f %-7zu "
                "%-7.1f %-10zu %s\n",
                row.shards, row.drop, row.batches, row.snapshots,
                row.snapshot_bytes, row.checkpoints,
                static_cast<double>(row.resync_micros) / 1000.0,
                row.abrupt_rpo_records, hit_rate, row.wire_bytes,
                row.drained_exact ? "exact" : "LOST-WRITES");
    rows.push_back(row);
  }
  std::printf("\n");
  return rows;
}

std::string JsonRow(const ReplRow& row) {
  return bench::Format(
      "{\"shards\": %zu, \"drop\": %.2f, \"mutations\": %zu, "
      "\"batches\": %zu, \"batch_bytes\": %zu, \"snapshots\": %zu, "
      "\"snapshot_bytes\": %zu, \"checkpoints\": %zu, "
      "\"wire_bytes\": %zu, \"end_ms\": %.1f, "
      "\"drained_replayed\": %zu, \"drained_exact\": %s, "
      "\"resync_ms\": %.1f, \"abrupt_rpo_records\": %zu, "
      "\"abrupt_clean\": %s, \"cache_hits\": %zu, \"cache_misses\": %zu}",
      row.shards, row.drop, row.mutations, row.batches, row.batch_bytes,
      row.snapshots, row.snapshot_bytes, row.checkpoints, row.wire_bytes,
      static_cast<double>(row.end_micros) / 1000.0, row.drained_replayed,
      row.drained_exact ? "true" : "false",
      static_cast<double>(row.resync_micros) / 1000.0, row.abrupt_rpo_records,
      row.abrupt_clean ? "true" : "false", row.cache_hits, row.cache_misses);
}

void BM_ShipRound(benchmark::State& state) {
  // One mutation burst -> Ship -> settle round, the steady-state cost
  // the chaos driver pays between event batches.
  Clock clock;
  net::Network network(&clock, 7);
  net::NodeId db_node = network.AddNode("db");
  storage::ShardedDatabaseServer db(&clock);
  net::ReliableTransport transport(&network, {});
  storage::ReplicatedShardSet repl(&db, &transport, &clock, db_node);
  db.RegisterStandardTypes().ok();
  Rng rng(9);
  Bytes payload = RandomBytes(2048, rng);
  for (auto _ : state) {
    db.Store("Image",
             {{"FLD_QUALITY", int64_t{1}},
              {"FLD_TEXTS", std::string("t")},
              {"FLD_CM", std::string("c")}},
             {{"FLD_DATA", payload}})
        .value();
    clock.AdvanceMicros(6000);
    db.SyncAll();
    benchmark::DoNotOptimize(repl.Ship());
    for (const net::Delivery& d : transport.AdvanceUntilIdle()) {
      repl.HandleDelivery(d);
    }
  }
}
BENCHMARK(BM_ShipRound);

void BM_CacheFetchHit(benchmark::State& state) {
  Clock clock;
  storage::ShardedDatabaseServer db(&clock);
  storage::ReadThroughCache cache(&db, 16 << 20);
  cache.RegisterStandardTypes().ok();
  Rng rng(11);
  ObjectRef ref = cache
                      .Store("Image",
                             {{"FLD_QUALITY", int64_t{1}},
                              {"FLD_TEXTS", std::string("t")},
                              {"FLD_CM", std::string("c")}},
                             {{"FLD_DATA", RandomBytes(262144, rng)}})
                      .value();
  cache.FetchBlob(ref, "FLD_DATA").ok();  // populate
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.FetchBlob(ref, "FLD_DATA"));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 262144);
}
BENCHMARK(BM_CacheFetchHit);

}  // namespace

int main(int argc, char** argv) {
  bench::Harness harness(/*traced=*/true);
  if (!harness.Start(argc, argv)) return 1;
  std::vector<ReplRow> rows = RunSweep(harness.smoke(), harness.sinks());
  bool invariants = true;
  for (const ReplRow& row : rows) invariants = invariants && row.Ok();
  return harness.Finish(
      invariants,
      bench::MakeReport("replication_failover", "sweep", rows, JsonRow));
}
