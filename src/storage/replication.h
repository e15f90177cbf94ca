#ifndef MMCONF_STORAGE_REPLICATION_H_
#define MMCONF_STORAGE_REPLICATION_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/clock.h"
#include "common/lru.h"
#include "common/result.h"
#include "common/status.h"
#include "net/network.h"
#include "net/reliable.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/object_store.h"
#include "storage/sharded_db.h"
#include "storage/wal.h"

namespace mmconf::storage {

/// Tuning for a ReplicatedShardSet.
struct ReplicationOptions {
  /// Followers per primary shard. Each follower gets its own network
  /// node ("shard<i>-follower<j>") with a duplex link to the primary.
  size_t followers_per_shard = 1;
  /// Checkpoint + compact a shard once its fully-shipped, fully-acked
  /// durable log reaches the larger of this many bytes and the size of
  /// the shard's last checkpoint image: the primary snapshots its
  /// serialized image, truncates the log behind it, bumps the shard
  /// epoch and resyncs followers from the snapshot. The value is a
  /// floor; past it the log grows in proportion to the image, so the
  /// image bytes shipped stay within twice the log bytes shipped, and a
  /// follower's log (the replay on promotion or RecoverPrimary) can
  /// reach one image's size. 0 disables.
  size_t checkpoint_log_bytes = 256 * 1024;
  /// Modeled wire size of the per-message shipping header, added to the
  /// payload size when billing the network.
  size_t header_bytes = 48;
  /// Primary->follower replication links (duplex, for acks).
  net::LinkSpec link{10e6, 5000};
  /// A follower whose in-flight traffic exhausted the transport's retry
  /// budget is stalled for this long before shipping resumes from its
  /// acked prefix (prevents a dead link from spinning the shipper).
  MicrosT stall_backoff_micros = 2'000'000;
};

/// One Ship() round's work, for callers that pump until quiescent.
struct ShipReport {
  size_t batches = 0;          ///< WAL batches handed to the transport
  size_t batch_bytes = 0;      ///< log bytes in those batches
  size_t snapshots = 0;        ///< checkpoint images handed to the transport
  size_t snapshot_bytes = 0;   ///< image bytes in those snapshots
  size_t acks_folded = 0;      ///< in-flight messages confirmed this round
  size_t checkpoints = 0;      ///< shards checkpointed this round
};

/// What a follower promotion produced.
struct PromotionReport {
  size_t shard = 0;
  size_t follower = 0;
  /// Records replayed from the follower's verified log prefix (on top
  /// of its snapshot, when it had one).
  size_t replayed_records = 0;
  size_t snapshot_bytes = 0;
  /// True when the follower's received history failed its (lsn, crc)
  /// check against the last shipped sync point — the promoted image is
  /// the longest verified prefix, not the full received log.
  bool diverged = false;
};

/// Replication lag of one shard, against its slowest follower.
struct ReplicationLag {
  size_t durable_records = 0;  ///< group-committed on the primary
  size_t shipped_records = 0;  ///< min over followers, handed to the wire
  size_t acked_records = 0;    ///< min over followers, confirmed received
};

/// Primary/follower replication for a ShardedDatabaseServer: ships each
/// shard's WAL to follower endpoints over the lossy network, batch per
/// group-commit boundary, and promotes a follower into the facade when
/// the primary machine is lost.
///
/// Wire protocol (DESIGN.md §16). Two reliable-transport tags:
///
///   "repl.batch": u32 shard | u64 epoch | u64 start | u64 end_records
///                 | u64 end_lsn | u32 cum_crc | bytes batch
///   "repl.snap":  u32 shard | u64 epoch | u64 base_records | u32 crc
///                 | bytes snapshot
///
/// A batch covers durable log bytes [start, start+batch.size()) of the
/// shard's current epoch; `cum_crc` is the CRC32C of the whole durable
/// prefix [0, end), chained batch over batch, so a follower verifies
/// every byte it has against the primary's history without rescanning.
/// Batches apply in order; out-of-order arrivals (retries reorder) are
/// buffered, duplicates dropped, wrong-epoch messages discarded. A crc
/// or lsn mismatch marks the follower diverged: it stops accepting
/// batches and promotion falls back to its last verified prefix.
///
/// Epochs change on checkpoint/compaction and on primary recovery (the
/// surviving log may have rolled back, so shipped history beyond the
/// surviving prefix must be disowned); each epoch starts with a
/// "repl.snap" carrying the image the epoch's log replays on top of.
///
/// The transport is shared with whatever else pumps the network (the
/// federation tier in the chaos stack): callers forward the unconsumed
/// passthrough deliveries from their settle loop into HandleDelivery
/// and call Ship() afterwards to fold acks and send newly committed
/// batches.
class ReplicatedShardSet {
 public:
  /// `primary`, `transport` and `clock` must outlive the set. Follower
  /// nodes and duplex links are created on `transport`'s network at
  /// construction. The shard count is fixed: Rebalance on the facade is
  /// not supported while a ReplicatedShardSet is attached.
  ReplicatedShardSet(ShardedDatabaseServer* primary,
                     net::ReliableTransport* transport, const Clock* clock,
                     net::NodeId primary_node,
                     ReplicationOptions options = {});

  ReplicatedShardSet(const ReplicatedShardSet&) = delete;
  ReplicatedShardSet& operator=(const ReplicatedShardSet&) = delete;

  size_t num_shards() const { return shards_.size(); }
  size_t followers_per_shard() const { return options_.followers_per_shard; }
  net::NodeId follower_node(size_t shard, size_t follower) const;

  /// Folds acks, ships every fully group-committed batch not yet handed
  /// to the transport, and checkpoints shards whose acked log has
  /// reached the threshold (see `checkpoint_log_bytes`). Call between
  /// settle rounds; idempotent when there is nothing to do (report all
  /// zeros).
  Result<ShipReport> Ship();

  /// Routes one transport passthrough delivery. Returns true when the
  /// delivery was replication traffic (consumed), false to let the
  /// caller keep routing it.
  bool HandleDelivery(const net::Delivery& delivery);

  /// Promotes `follower` to primary for `shard` after the primary
  /// machine (db + WAL + checkpoint) is lost: replays the follower's
  /// verified prefix on top of its snapshot, installs the result into
  /// the facade (routing takeover is inherent — the facade's shard slot
  /// now serves the promoted image), and starts a new epoch so the
  /// remaining followers resync behind the new primary.
  Result<PromotionReport> Promote(size_t shard, size_t follower = 0);

  /// Checkpoint-aware crash recovery of the primary itself (machine
  /// survived, log damaged): replays the damaged log's clean prefix on
  /// top of the shard's checkpoint, reinstalls, and starts a new epoch
  /// — shipped history beyond the surviving prefix is disowned and
  /// followers resync. Replaces facade-level RecoverShardFromLog once a
  /// shard has checkpointed (its WAL alone no longer rebuilds it).
  Result<WalReplayStats> RecoverPrimary(size_t shard, const Bytes& damaged_log);

  /// The image `shard`'s current-epoch log replays on top of (empty
  /// before the first checkpoint).
  const Bytes& checkpoint(size_t shard) const {
    return shards_[shard].checkpoint;
  }
  uint64_t epoch(size_t shard) const { return shards_[shard].epoch; }
  ReplicationLag LagOf(size_t shard) const;
  /// Verified records held by one follower (its promotable prefix).
  size_t follower_records(size_t shard, size_t follower) const {
    return shards_[shard].followers[follower].records;
  }
  bool follower_diverged(size_t shard, size_t follower) const {
    return shards_[shard].followers[follower].diverged;
  }

  /// `storage.repl.*` counters, per-shard lag gauges and checkpoint/
  /// promotion/recovery spans on the tracer lane `pid`:"replication".
  /// A null `metrics` detaches every handle from the previous registry.
  void SetObserver(obs::MetricsRegistry* metrics, obs::Tracer* tracer,
                   int pid = 0);

 private:
  /// Receiver + shipper state for one follower endpoint. Both sides
  /// live here: the follower is simulated in-process, the network in
  /// between is real (lossy, retried, reordered).
  struct Follower {
    net::NodeId node = 0;

    // --- receiver side: the follower machine's durable state ---
    uint64_t epoch = 0;
    Bytes snapshot;           ///< image the received log replays on
    size_t snapshot_records = 0;  ///< records folded into the snapshot
    Bytes log;                ///< verified received prefix
    size_t records = 0;       ///< records in `log`
    uint32_t crc = 0;         ///< chained CRC32C over `log`
    std::vector<WalSyncPoint> boundaries;  ///< one per applied batch
    bool diverged = false;
    /// Batches that arrived ahead of the contiguous prefix, keyed by
    /// (epoch, start offset); drained as the gap fills.
    std::map<std::pair<uint64_t, uint64_t>, Bytes> out_of_order;

    // --- shipper side: what the primary believes about this follower ---
    uint64_t shipped_epoch = 0;   ///< epoch the ship offsets refer to
    size_t shipped_bytes = 0;
    size_t shipped_records = 0;
    size_t acked_bytes = 0;
    size_t acked_records = 0;
    bool snap_acked = false;   ///< follower confirmed the current epoch
    bool snap_inflight = false;
    MicrosT stalled_until = 0;  ///< retry-budget backoff, 0 = healthy
    struct InFlight {
      net::MsgId id = 0;
      uint64_t epoch = 0;
      size_t end_bytes = 0;
      size_t end_records = 0;
      bool is_snap = false;
    };
    std::vector<InFlight> inflight;
  };

  struct ShardRepl {
    uint64_t epoch = 0;
    Bytes checkpoint;             ///< primary-side base image of the epoch
    size_t checkpoint_records = 0;  ///< records compacted away, cumulative
    std::vector<Follower> followers;
    /// Cumulative CRC32C per shipped sync point of the current epoch,
    /// aligned with prefix lengths (bytes -> crc of durable[0, bytes)).
    std::map<size_t, uint32_t> prefix_crc;
  };

  Status ShipTo(size_t shard_index, Follower& follower, ShipReport& report);
  size_t FoldAcks(size_t shard_index, Follower& follower);
  /// Starts a new epoch for `shard` based on the current checkpoint;
  /// all followers resync via a fresh snapshot send.
  void BeginEpoch(size_t shard_index);
  uint32_t PrefixCrc(size_t shard_index, size_t bytes);
  void ApplyBatch(size_t shard_index, Follower& follower,
                  const Bytes& payload);
  void ApplySnapshot(size_t shard_index, Follower& follower,
                     const Bytes& payload);
  void RefreshLagGauge(size_t shard_index);

  ShardedDatabaseServer* primary_;
  net::ReliableTransport* transport_;
  const Clock* clock_;
  net::NodeId primary_node_;
  ReplicationOptions options_;
  std::vector<ShardRepl> shards_;
  std::map<net::NodeId, std::pair<size_t, size_t>> node_index_;

  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  int trace_pid_ = 0;
  int trace_tid_ = 0;
  obs::Counter* m_batches_ = nullptr;
  obs::Counter* m_batch_bytes_ = nullptr;
  obs::Counter* m_snapshots_ = nullptr;
  obs::Counter* m_snapshot_bytes_ = nullptr;
  obs::Counter* m_acked_ = nullptr;
  obs::Counter* m_failed_ = nullptr;
  obs::Counter* m_duplicates_ = nullptr;
  obs::Counter* m_divergences_ = nullptr;
  obs::Counter* m_checkpoints_ = nullptr;
  obs::Counter* m_promotions_ = nullptr;
  obs::Counter* m_recoveries_ = nullptr;
  std::vector<obs::Gauge*> g_lag_;
};

/// Byte-bounded read-through LRU object cache in front of an
/// ObjectStore — the warm tier that keeps reads (the prefetcher's
/// FetchBlob/FetchBlobRange traffic included) off a freshly promoted
/// primary after failover. Records and blob payloads are cached on
/// first fetch; mutations write through and invalidate the touched
/// ref's entries; range reads are sliced from a cached full blob when
/// one is present.
///
/// Coherence on failover (DESIGN.md §16): promotion rolls a shard back
/// to its acked prefix, so entries populated from that shard may
/// describe unacked state — InvalidateShard drops exactly those; every
/// other shard's entries stay warm.
class ReadThroughCache : public ObjectStore {
 public:
  /// `store` must outlive the cache. `capacity_bytes` bounds the sum of
  /// cached payload sizes (metadata is not billed); 0 disables caching
  /// (pure pass-through).
  ReadThroughCache(ObjectStore* store, size_t capacity_bytes);

  ReadThroughCache(const ReadThroughCache&) = delete;
  ReadThroughCache& operator=(const ReadThroughCache&) = delete;

  // --- ObjectStore ---
  Status RegisterStandardTypes() override;
  Status RegisterType(const MediaTypeEntry& entry,
                      std::vector<FieldDef> table_schema) override;
  bool HasType(const std::string& type_name) const override;
  Result<ObjectRef> Store(
      const std::string& type, std::map<std::string, FieldValue> fields,
      const std::map<std::string, Bytes>& blob_payloads) override;
  Result<ObjectRecord> FetchRecord(const ObjectRef& ref) const override;
  Result<Bytes> FetchBlob(const ObjectRef& ref,
                          const std::string& blob_field) const override;
  Result<Bytes> FetchBlobRange(const ObjectRef& ref,
                               const std::string& blob_field, size_t offset,
                               size_t length) const override;
  Result<size_t> BlobSize(const ObjectRef& ref,
                          const std::string& blob_field) const override;
  Status Modify(const ObjectRef& ref,
                const std::map<std::string, FieldValue>& fields,
                const std::map<std::string, Bytes>& blob_payloads) override;
  Status Delete(const ObjectRef& ref) override;
  Result<std::vector<ObjectRef>> List(const std::string& type) const override;

  /// Drops every entry populated from refs `shard_of` maps to `shard` —
  /// the failover coherence hook (see class comment).
  void InvalidateShard(
      size_t shard,
      const std::function<size_t(const ObjectRef&)>& shard_of);
  void InvalidateAll();

  size_t size_bytes() const { return lru_.used_bytes(); }
  size_t entries() const { return lru_.size(); }
  size_t hits() const { return hits_; }
  size_t misses() const { return misses_; }
  size_t evictions() const { return evictions_; }

  /// `storage.cache.*` counters and the resident-bytes gauge; nullptr
  /// detaches them.
  void SetObserver(obs::MetricsRegistry* metrics);

 private:
  /// One cached record or blob; the key's kind byte says which.
  struct Entry {
    ObjectRef ref;
    Bytes blob;           ///< blob payload (empty for records)
    ObjectRecord record;  ///< valid for a record key
  };

  void Insert(std::string key, Entry entry, size_t bytes) const;
  void InvalidateRef(const ObjectRef& ref);
  void PublishBytes() const;
  void NoteHit() const;
  void NoteMiss() const;

  ObjectStore* store_;
  size_t capacity_bytes_;
  // Mutable: fetches are logically const but fill the cache and update
  // recency + stats. Each node bills its payload size.
  mutable LruIndex<Entry> lru_;
  mutable size_t hits_ = 0;
  mutable size_t misses_ = 0;
  mutable size_t evictions_ = 0;

  mutable obs::Counter* m_hits_ = nullptr;
  mutable obs::Counter* m_misses_ = nullptr;
  obs::Counter* m_evictions_ = nullptr;
  obs::Gauge* g_bytes_ = nullptr;
};

}  // namespace mmconf::storage

#endif  // MMCONF_STORAGE_REPLICATION_H_
