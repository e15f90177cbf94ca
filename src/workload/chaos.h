#ifndef MMCONF_WORKLOAD_CHAOS_H_
#define MMCONF_WORKLOAD_CHAOS_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/clock.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "doc/document.h"
#include "fanout/director.h"
#include "federation/tier.h"
#include "net/network.h"
#include "net/reliable.h"
#include "obs/metrics.h"
#include "storage/replication.h"
#include "storage/sharded_db.h"
#include "storage/wal.h"
#include "workload/trace.h"

namespace mmconf::workload {

/// Shape of the stack a chaos run stands up, plus the background fault
/// pressure and the whole-run budgets the invariants assert.
struct ChaosOptions {
  size_t federation_nodes = 2;
  size_t storage_shards = 2;
  /// Background random faults on every client last mile, on top of the
  /// trace's scheduled link flaps. 0 disables them.
  double drop_probability = 0.005;
  MicrosT jitter_micros = 2000;
  net::LinkSpec backbone{50e6, 1000};
  /// Generous retry schedule: its total span must exceed the longest
  /// scheduled flap, or base-layer continuity cannot hold by design.
  net::RetryPolicy retry{120000, 2.0, 1000000, 12, 1 << 16};
  /// Whole-run tail budgets, asserted against the obs histograms. The
  /// t2c budget must sit above the retry policy's worst-case span
  /// (sum of its backoff schedule, ~9.9s for the default above): a
  /// message that exhausts every retry during a flap legitimately takes
  /// that long, and the budget bounds the tail *beyond* what the retry
  /// design already permits.
  MicrosT stall_budget_micros = 2'000'000;
  MicrosT t2c_budget_micros = 12'000'000;
  /// How many skipped-event samples the report keeps for debugging.
  size_t max_skip_samples = 5;
  /// Followers per primary shard. 0 (the default) runs without
  /// replication — existing traces and reports stay byte-identical.
  /// With followers, every shard's WAL is shipped between settle
  /// rounds, kNodeLoss events promote a follower, and kShardCrash
  /// recovery becomes checkpoint-aware (storage::ReplicatedShardSet).
  size_t replication_followers = 0;
  /// Checkpoint/compaction floor handed to the replica set
  /// (`ReplicationOptions::checkpoint_log_bytes`). Small by default so
  /// smoke-length runs exercise compaction + resync.
  size_t replication_checkpoint_bytes = 64 * 1024;
  /// Read-through object cache in front of the shard facade (bytes);
  /// only stood up when replication is on. 0 disables the cache.
  size_t replication_cache_bytes = 1 << 20;
};

/// Whole-run invariants of one chaos run. Every `false` comes with a
/// human-readable entry in `violations`.
struct InvariantReport {
  /// stream.aborts == 0: no base layer ever exhausted its retry budget —
  /// enhancements may shed, bases may stall, continuity never breaks.
  bool base_layers_intact = true;
  /// Every injected shard crash recovered byte-exactly: replaying the
  /// damaged log onto a fresh server reproduced the recovered shard's
  /// serialized image, record counts matched the crash image's clean
  /// prefix, and every blob page checksum verified.
  bool storage_recovery_exact = true;
  /// Every room still open at the end has all its reliable messages
  /// acked or failed (no propagation round left dangling).
  bool rooms_converged = true;
  /// Replaying each open room's action log against its pristine document
  /// reproduces the live room byte for byte (Room::Serialize equality) —
  /// the same convergence a live migration verifies, asserted at end of
  /// run across everything faults touched.
  bool serialize_converged = true;
  /// Max playout stall (stream.stall_micros) within budget.
  bool stalls_within_budget = true;
  /// Max per-node time-to-consistency (fed.node.<i>.t2c_micros) within
  /// budget.
  bool t2c_within_budget = true;
  /// Every kNodeLoss promoted a follower with zero acked-write loss:
  /// the promoted shard's serialized image is byte-identical to a
  /// never-crashed control (checkpoint + durable-log replay), the
  /// replayed record count matches the acked count, and the follower's
  /// received history verified clean. Trivially true when the run has
  /// no replication or no node losses.
  bool replication_failover_exact = true;
  std::vector<std::string> violations;

  bool AllHeld() const {
    return base_layers_intact && storage_recovery_exact && rooms_converged &&
           serialize_converged && stalls_within_budget && t2c_within_budget &&
           replication_failover_exact;
  }
};

/// What one chaos run did and found.
struct ChaosReport {
  size_t events_total = 0;
  size_t events_applied = 0;
  /// Events that could not apply because faults got there first (a
  /// choice by an evicted member, a join into a room whose document a
  /// shard crash rolled away). Expected under chaos; sampled below.
  size_t events_skipped = 0;
  std::vector<std::string> skip_samples;
  size_t rooms_opened = 0;
  size_t rooms_closed = 0;
  size_t migrations = 0;
  size_t migrations_failed = 0;  ///< aborted cleanly, room intact
  size_t shard_crashes = 0;
  size_t node_losses = 0;   ///< kNodeLoss events seen (applied or not)
  size_t promotions = 0;    ///< follower promotions performed
  size_t streams_opened = 0;
  size_t broadcast_frames = 0;
  size_t wire_bytes = 0;
  MicrosT end_micros = 0;
  int64_t max_stall_micros = 0;
  int64_t max_t2c_micros = 0;
  InvariantReport invariants;
};

/// Runs one workload trace against the full stack — federated
/// interaction tier over a sharded durable database, streams, broadcast
/// fan-out — while injecting the trace's scheduled faults (link flaps
/// installed as net::FaultSpec windows up front, shard crashes applied
/// at event time) plus background drop/jitter, and asserts the
/// whole-run invariants at the end.
///
/// One driver runs one trace: construct, Run, read the report. All
/// randomness descends from the trace seed, so a run is reproducible
/// bit for bit — including the metrics snapshot, which is how the
/// determinism tests compare two runs byte for byte.
class ChaosDriver {
 public:
  /// `metrics` may be null (the driver then uses an internal registry).
  /// It must outlive the driver and should be freshly reset: the
  /// invariant checks read absolute counter values.
  explicit ChaosDriver(const ChaosOptions& options,
                       obs::MetricsRegistry* metrics = nullptr);
  ~ChaosDriver();

  ChaosDriver(const ChaosDriver&) = delete;
  ChaosDriver& operator=(const ChaosDriver&) = delete;

  /// Executes the trace: events are applied in timestamp order, the
  /// stack is settled between timestamp batches, and the clock jumps to
  /// each batch's timestamp when the settle left it behind.
  /// FailedPrecondition on a second call.
  Result<ChaosReport> Run(const WorkloadTrace& trace);

  obs::MetricsRegistry* metrics() { return metrics_; }
  net::Network* network() { return network_.get(); }
  federation::FederatedInteractionTier* tier() { return tier_.get(); }

 private:
  struct RoomInfo {
    uint64_t doc_kind = 0;  ///< 0 medical, 1 timeline
    uint64_t segments = 0;
    bool hosted = false;  ///< has a broadcast session
    bool open = false;
  };

  /// The document a room of `kind` opens on, bandwidth tuning included.
  /// Deterministic: building twice yields identical documents — the
  /// pristine base the serialize-convergence check replays against.
  Result<doc::MultimediaDocument> BuildDocument(uint64_t kind,
                                                uint64_t segments);

  /// Creates the client's network node on first sight and (re)applies
  /// its context: last-mile link spec from the bandwidth class, fault
  /// spec carrying the background faults plus the slot's scheduled
  /// flaps.
  Status EnsureClient(int slot, const ClientContext& context);
  Status ApplyContext(int slot, const ClientContext& context);

  /// Pins the room's bandwidth-tuning variable at the client's
  /// effective level — the context-as-CP-net-evidence path.
  Status PinEvidence(const std::string& room, const std::string& viewer,
                     const ClientContext& context);

  Status RunEvent(const WorkloadEvent& event, ChaosReport& report);
  void SkipEvent(const WorkloadEvent& event, const Status& status,
                 ChaosReport& report);
  void CheckInvariants(ChaosReport& report);

  /// Settles the whole stack to quiescence: pumps the director/tier
  /// settle loop, forwards replication passthrough deliveries into the
  /// replica set and ships newly committed batches, repeating until a
  /// round neither consumes nor produces replication traffic. With
  /// replication off this is a single director settle.
  Status SettleStack();

  ChaosOptions options_;
  obs::MetricsRegistry owned_metrics_;
  obs::MetricsRegistry* metrics_;

  Clock clock_;
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<storage::ShardedDatabaseServer> db_;
  net::NodeId db_node_ = 0;
  /// Fronts db_ when replication is on; the tier reads through it.
  std::unique_ptr<storage::ReadThroughCache> cache_;
  std::unique_ptr<federation::FederatedInteractionTier> tier_;
  std::unique_ptr<fanout::BroadcastDirector> director_;
  std::unique_ptr<storage::ReplicatedShardSet> repl_;
  std::unique_ptr<storage::WalCrashInjector> injector_;
  Rng media_rng_{1};

  std::map<int, net::NodeId> client_nodes_;
  std::map<int, ClientContext> client_contexts_;
  std::map<int, std::vector<net::LinkFlap>> client_flaps_;
  std::map<std::string, RoomInfo> rooms_;
  std::vector<Bytes> media_pool_;  ///< pre-encoded layered stream objects
  bool ran_ = false;
};

}  // namespace mmconf::workload

#endif  // MMCONF_WORKLOAD_CHAOS_H_
