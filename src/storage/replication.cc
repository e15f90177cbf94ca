#include "storage/replication.h"

#include <algorithm>
#include <utility>

namespace mmconf::storage {

namespace {

constexpr char kBatchTag[] = "repl.batch";
constexpr char kSnapTag[] = "repl.snap";

Bytes EncodeBatch(uint32_t shard, uint64_t epoch, uint64_t start,
                  uint64_t end_records, uint64_t end_lsn, uint32_t cum_crc,
                  const Bytes& batch) {
  ByteWriter w;
  w.PutU32(shard);
  w.PutU64(epoch);
  w.PutU64(start);
  w.PutU64(end_records);
  w.PutU64(end_lsn);
  w.PutU32(cum_crc);
  w.PutBytes(batch);
  return w.Take();
}

Bytes EncodeSnapshot(uint32_t shard, uint64_t epoch, uint64_t base_records,
                     const Bytes& image) {
  ByteWriter w;
  w.PutU32(shard);
  w.PutU64(epoch);
  w.PutU64(base_records);
  w.PutU32(Crc32c(image));
  w.PutBytes(image);
  return w.Take();
}

}  // namespace

ReplicatedShardSet::ReplicatedShardSet(ShardedDatabaseServer* primary,
                                       net::ReliableTransport* transport,
                                       const Clock* clock,
                                       net::NodeId primary_node,
                                       ReplicationOptions options)
    : primary_(primary),
      transport_(transport),
      clock_(clock),
      primary_node_(primary_node),
      options_(options) {
  options_.followers_per_shard =
      std::max<size_t>(1, options_.followers_per_shard);
  net::Network* network = transport_->network();
  shards_.resize(primary_->num_shards());
  for (size_t s = 0; s < shards_.size(); ++s) {
    for (size_t f = 0; f < options_.followers_per_shard; ++f) {
      Follower follower;
      follower.node = network->AddNode("shard" + std::to_string(s) +
                                       "-follower" + std::to_string(f));
      network->SetDuplexLink(primary_node_, follower.node, options_.link);
      node_index_[follower.node] = {s, f};
      shards_[s].followers.push_back(std::move(follower));
    }
  }
}

net::NodeId ReplicatedShardSet::follower_node(size_t shard,
                                              size_t follower) const {
  return shards_[shard].followers[follower].node;
}

uint32_t ReplicatedShardSet::PrefixCrc(size_t shard_index, size_t bytes) {
  ShardRepl& shard = shards_[shard_index];
  if (bytes == 0) return 0;
  auto it = shard.prefix_crc.find(bytes);
  if (it != shard.prefix_crc.end()) return it->second;
  // Extend from the longest cached prefix below `bytes` — cumulative
  // CRC chaining means each new sync point costs only its own bytes.
  size_t base = 0;
  uint32_t crc = 0;
  auto below = shard.prefix_crc.lower_bound(bytes);
  if (below != shard.prefix_crc.begin()) {
    --below;
    base = below->first;
    crc = below->second;
  }
  const Bytes& durable = primary_->shard_wal(shard_index)->durable();
  crc = Crc32c(durable.data() + base, bytes - base, crc);
  shard.prefix_crc[bytes] = crc;
  return crc;
}

size_t ReplicatedShardSet::FoldAcks(size_t shard_index, Follower& follower) {
  size_t folded = 0;
  auto it = follower.inflight.begin();
  while (it != follower.inflight.end()) {
    Result<net::SendState> state = transport_->StateOf(it->id);
    net::SendState resolved =
        state.ok() ? *state : net::SendState::kFailed;
    if (resolved == net::SendState::kInFlight) {
      ++it;
      continue;
    }
    if (resolved == net::SendState::kAcked) {
      ++folded;
      if (m_acked_ != nullptr) m_acked_->Add(1);
      if (it->is_snap) {
        if (it->epoch == shards_[shard_index].epoch) {
          follower.snap_acked = true;
          follower.snap_inflight = false;
        }
      } else if (it->epoch == follower.shipped_epoch &&
                 it->end_bytes > follower.acked_bytes) {
        follower.acked_bytes = it->end_bytes;
        follower.acked_records = it->end_records;
      }
    } else {
      // Retry budget exhausted: everything past the acked prefix is in
      // doubt. Roll the ship cursor back and back off before reshipping
      // so a dead link cannot spin the shipper.
      if (m_failed_ != nullptr) m_failed_->Add(1);
      if (it->is_snap) follower.snap_inflight = false;
      follower.shipped_bytes = follower.acked_bytes;
      follower.shipped_records = follower.acked_records;
      follower.stalled_until =
          (clock_ != nullptr ? clock_->NowMicros() : 0) +
          options_.stall_backoff_micros;
    }
    transport_->Forget(it->id);
    it = follower.inflight.erase(it);
  }
  return folded;
}

Status ReplicatedShardSet::ShipTo(size_t shard_index, Follower& follower,
                                  ShipReport& report) {
  ShardRepl& shard = shards_[shard_index];
  MicrosT now = clock_ != nullptr ? clock_->NowMicros() : 0;
  if (follower.stalled_until != 0) {
    if (now < follower.stalled_until) return Status::OK();
    follower.stalled_until = 0;
  }
  // A follower on an older epoch resyncs from the epoch's base image
  // before any batch of the new epoch ships.
  if (follower.shipped_epoch != shard.epoch || !follower.snap_acked) {
    if (follower.shipped_epoch != shard.epoch) {
      follower.shipped_epoch = shard.epoch;
      follower.shipped_bytes = 0;
      follower.shipped_records = 0;
      follower.acked_bytes = 0;
      follower.acked_records = 0;
      follower.snap_acked = false;
      follower.snap_inflight = false;
    }
    if (!follower.snap_inflight) {
      Bytes payload = EncodeSnapshot(static_cast<uint32_t>(shard_index),
                                     shard.epoch, shard.checkpoint_records,
                                     shard.checkpoint);
      MMCONF_ASSIGN_OR_RETURN(
          net::SendHandle handle,
          transport_->Send(primary_node_, follower.node,
                           payload.size() + options_.header_bytes, kSnapTag,
                           payload));
      follower.inflight.push_back(
          {handle.id, shard.epoch, 0, 0, /*is_snap=*/true});
      follower.snap_inflight = true;
      ++report.snapshots;
      report.snapshot_bytes += shard.checkpoint.size();
      if (m_snapshots_ != nullptr) {
        m_snapshots_->Add(1);
        m_snapshot_bytes_->Add(shard.checkpoint.size());
      }
    }
    return Status::OK();
  }
  const WriteAheadLog* wal = primary_->shard_wal(shard_index);
  const Bytes& durable = wal->durable();
  for (const WalSyncPoint& point : wal->sync_points()) {
    if (point.bytes <= follower.shipped_bytes) continue;
    Bytes batch(durable.begin() + follower.shipped_bytes,
                durable.begin() + point.bytes);
    Bytes payload = EncodeBatch(
        static_cast<uint32_t>(shard_index), shard.epoch,
        follower.shipped_bytes, point.records, point.records,
        PrefixCrc(shard_index, point.bytes), batch);
    MMCONF_ASSIGN_OR_RETURN(
        net::SendHandle handle,
        transport_->Send(primary_node_, follower.node,
                         payload.size() + options_.header_bytes, kBatchTag,
                         payload));
    follower.inflight.push_back(
        {handle.id, shard.epoch, point.bytes, point.records,
         /*is_snap=*/false});
    follower.shipped_bytes = point.bytes;
    follower.shipped_records = point.records;
    ++report.batches;
    report.batch_bytes += batch.size();
    if (m_batches_ != nullptr) {
      m_batches_->Add(1);
      m_batch_bytes_->Add(batch.size());
    }
  }
  return Status::OK();
}

void ReplicatedShardSet::BeginEpoch(size_t shard_index) {
  ShardRepl& shard = shards_[shard_index];
  ++shard.epoch;
  shard.prefix_crc.clear();
  // Followers resync lazily: the epoch mismatch makes the next ShipTo
  // send the new base snapshot before any batch.
}

Result<ShipReport> ReplicatedShardSet::Ship() {
  ShipReport report;
  for (size_t s = 0; s < shards_.size(); ++s) {
    ShardRepl& shard = shards_[s];
    const WriteAheadLog* wal = primary_->shard_wal(s);
    for (Follower& follower : shard.followers) {
      report.acks_folded += FoldAcks(s, follower);
    }
    // Checkpoint + compaction: once every follower holds the entire
    // durable log of this epoch, snapshot the shard, truncate the
    // shipped history behind it and start the next epoch. Requiring a
    // fully-acked, nothing-in-flight log keeps the epoch switch trivial
    // — no batch of the old epoch is ever in doubt. The log must also
    // have grown as large as the last image: each image is at most the
    // previous one plus the log since, so the images shipped stay
    // within twice the log shipped, whatever the shard's size.
    if (options_.checkpoint_log_bytes > 0 &&
        wal->durable().size() >=
            std::max(options_.checkpoint_log_bytes,
                     shard.checkpoint.size()) &&
        wal->pending_records() == 0) {
      bool all_caught_up = true;
      for (const Follower& follower : shard.followers) {
        if (!follower.snap_acked || !follower.inflight.empty() ||
            follower.shipped_epoch != shard.epoch ||
            follower.acked_bytes != wal->durable().size()) {
          all_caught_up = false;
          break;
        }
      }
      if (all_caught_up) {
        obs::ScopedSpan span(tracer_, trace_pid_, trace_tid_, "checkpoint",
                             "replication");
        shard.checkpoint = primary_->shard(s)->Serialize();
        shard.checkpoint_records += wal->durable_records();
        primary_->shard_wal(s)->Truncate();
        BeginEpoch(s);
        ++report.checkpoints;
        if (m_checkpoints_ != nullptr) m_checkpoints_->Add(1);
      }
    }
    for (Follower& follower : shard.followers) {
      MMCONF_RETURN_IF_ERROR(ShipTo(s, follower, report));
    }
    RefreshLagGauge(s);
  }
  return report;
}

void ReplicatedShardSet::ApplySnapshot(size_t shard_index, Follower& follower,
                                       const Bytes& payload) {
  ByteReader r(payload);
  Result<uint32_t> shard = r.GetU32();
  Result<uint64_t> epoch = r.GetU64();
  Result<uint64_t> base_records = r.GetU64();
  Result<uint32_t> crc = r.GetU32();
  Result<Bytes> image = r.GetBytes();
  if (!shard.ok() || !epoch.ok() || !base_records.ok() || !crc.ok() ||
      !image.ok() || *shard != shard_index) {
    return;  // malformed or misrouted frame: drop
  }
  if (*epoch < follower.epoch) return;  // stale resync
  if (Crc32c(*image) != *crc) {
    follower.diverged = true;
    if (m_divergences_ != nullptr) m_divergences_->Add(1);
    return;
  }
  if (*epoch == follower.epoch && !follower.log.empty()) {
    // Duplicate of the snapshot that opened the current epoch, arriving
    // after batches already applied — keep the longer history.
    if (m_duplicates_ != nullptr) m_duplicates_->Add(1);
    return;
  }
  follower.epoch = *epoch;
  follower.snapshot = std::move(*image);
  follower.snapshot_records = *base_records;
  follower.log.clear();
  follower.records = 0;
  follower.crc = 0;
  follower.boundaries.clear();
  follower.diverged = false;
  // Batches of this epoch that raced ahead of the snapshot apply now.
  auto it = follower.out_of_order.begin();
  while (it != follower.out_of_order.end()) {
    if (it->first.first != follower.epoch) {
      it = follower.out_of_order.erase(it);
      continue;
    }
    if (it->first.second == follower.log.size()) {
      Bytes pending = std::move(it->second);
      follower.out_of_order.erase(it);
      ApplyBatch(shard_index, follower, pending);
      it = follower.out_of_order.begin();
      continue;
    }
    ++it;
  }
}

void ReplicatedShardSet::ApplyBatch(size_t shard_index, Follower& follower,
                                    const Bytes& payload) {
  ByteReader r(payload);
  Result<uint32_t> shard = r.GetU32();
  Result<uint64_t> epoch = r.GetU64();
  Result<uint64_t> start = r.GetU64();
  Result<uint64_t> end_records = r.GetU64();
  Result<uint64_t> end_lsn = r.GetU64();
  Result<uint32_t> cum_crc = r.GetU32();
  Result<Bytes> batch = r.GetBytes();
  if (!shard.ok() || !epoch.ok() || !start.ok() || !end_records.ok() ||
      !end_lsn.ok() || !cum_crc.ok() || !batch.ok() ||
      *shard != shard_index) {
    return;
  }
  if (follower.diverged) return;
  if (*epoch != follower.epoch) {
    if (*epoch > follower.epoch) {
      // Raced ahead of the epoch's snapshot: hold until it lands.
      follower.out_of_order[{*epoch, *start}] = payload;
    }
    return;
  }
  if (*start < follower.log.size()) {
    if (m_duplicates_ != nullptr) m_duplicates_->Add(1);
    return;
  }
  if (*start > follower.log.size()) {
    follower.out_of_order[{*epoch, *start}] = payload;
    return;
  }
  // Contiguous: verify the shipped history — the chained CRC over the
  // whole prefix and the lsn/record agreement with the sync point.
  uint32_t check = Crc32c(batch->data(), batch->size(), follower.crc);
  if (check != *cum_crc || *end_lsn != *end_records ||
      *end_records <= follower.records) {
    follower.diverged = true;
    if (m_divergences_ != nullptr) m_divergences_->Add(1);
    return;
  }
  follower.log.insert(follower.log.end(), batch->begin(), batch->end());
  follower.crc = check;
  follower.records = *end_records;
  follower.boundaries.push_back({follower.log.size(), follower.records});
  // Drain any buffered batch that is now contiguous.
  auto next = follower.out_of_order.find({follower.epoch, follower.log.size()});
  if (next != follower.out_of_order.end()) {
    Bytes pending = std::move(next->second);
    follower.out_of_order.erase(next);
    ApplyBatch(shard_index, follower, pending);
  }
}

bool ReplicatedShardSet::HandleDelivery(const net::Delivery& delivery) {
  if (delivery.tag != kBatchTag && delivery.tag != kSnapTag) return false;
  auto it = node_index_.find(delivery.to);
  if (it == node_index_.end()) return false;
  auto [shard_index, follower_index] = it->second;
  Follower& follower = shards_[shard_index].followers[follower_index];
  if (delivery.tag == kSnapTag) {
    ApplySnapshot(shard_index, follower, delivery.payload);
  } else {
    ApplyBatch(shard_index, follower, delivery.payload);
  }
  return true;
}

Result<PromotionReport> ReplicatedShardSet::Promote(size_t shard_index,
                                                    size_t follower_index) {
  if (shard_index >= shards_.size()) {
    return Status::InvalidArgument("no shard " + std::to_string(shard_index));
  }
  ShardRepl& shard = shards_[shard_index];
  if (follower_index >= shard.followers.size()) {
    return Status::InvalidArgument("no follower " +
                                   std::to_string(follower_index));
  }
  obs::ScopedSpan span(tracer_, trace_pid_, trace_tid_, "promote",
                       "replication");
  Follower& follower = shard.followers[follower_index];
  PromotionReport report;
  report.shard = shard_index;
  report.follower = follower_index;
  report.snapshot_bytes = follower.snapshot.size();
  report.diverged = follower.diverged;
  // Promotion-time divergence check: the verified prefix must replay
  // cleanly and agree, record for record, with the batch bookkeeping —
  // the (lsn, crc) contract against the last shipped sync point.
  auto promoted = std::make_unique<DatabaseServer>();
  if (!follower.snapshot.empty()) {
    MMCONF_RETURN_IF_ERROR(promoted->LoadFrom(follower.snapshot));
  }
  MMCONF_ASSIGN_OR_RETURN(
      WalReplayStats stats,
      ShardedDatabaseServer::ReplayLogInto(follower.log, promoted.get()));
  if (!stats.clean_end || stats.records_applied != follower.records) {
    report.diverged = true;
  }
  report.replayed_records = stats.records_applied;
  Bytes verified(follower.log.begin(),
                 follower.log.begin() + stats.bytes_scanned);
  MMCONF_RETURN_IF_ERROR(primary_->InstallShard(
      shard_index, std::move(promoted), std::move(verified),
      stats.records_applied, follower.boundaries));
  // The promoted image becomes the shard's new authority: its snapshot
  // is the epoch base, its log the epoch history. A new epoch resyncs
  // every follower (the promoted slot included — conceptually a fresh
  // machine takes it over) behind the new primary.
  shard.checkpoint = follower.snapshot;
  shard.checkpoint_records = follower.snapshot_records;
  for (Follower& f : shard.followers) {
    f.epoch = 0;
    f.snapshot.clear();
    f.snapshot_records = 0;
    f.log.clear();
    f.records = 0;
    f.crc = 0;
    f.boundaries.clear();
    f.diverged = false;
    f.out_of_order.clear();
    f.shipped_epoch = 0;
    f.shipped_bytes = 0;
    f.shipped_records = 0;
    f.acked_bytes = 0;
    f.acked_records = 0;
    f.snap_acked = false;
    f.snap_inflight = false;
    f.stalled_until = 0;
    for (const Follower::InFlight& msg : f.inflight) {
      transport_->Forget(msg.id);
    }
    f.inflight.clear();
  }
  BeginEpoch(shard_index);
  if (m_promotions_ != nullptr) m_promotions_->Add(1);
  RefreshLagGauge(shard_index);
  return report;
}

Result<WalReplayStats> ReplicatedShardSet::RecoverPrimary(
    size_t shard_index, const Bytes& damaged_log) {
  if (shard_index >= shards_.size()) {
    return Status::InvalidArgument("no shard " + std::to_string(shard_index));
  }
  obs::ScopedSpan span(tracer_, trace_pid_, trace_tid_, "recover-primary",
                       "replication");
  ShardRepl& shard = shards_[shard_index];
  auto recovered = std::make_unique<DatabaseServer>();
  if (!shard.checkpoint.empty()) {
    MMCONF_RETURN_IF_ERROR(recovered->LoadFrom(shard.checkpoint));
  }
  MMCONF_ASSIGN_OR_RETURN(
      WalReplayStats stats,
      ShardedDatabaseServer::ReplayLogInto(damaged_log, recovered.get()));
  Bytes clean(damaged_log.begin(), damaged_log.begin() + stats.bytes_scanned);
  // The pre-crash boundaries that survive inside the clean prefix keep
  // their batch structure for reshipping.
  std::vector<WalSyncPoint> boundaries =
      primary_->shard_wal(shard_index)->sync_points();
  MMCONF_RETURN_IF_ERROR(primary_->InstallShard(
      shard_index, std::move(recovered), std::move(clean),
      stats.records_applied, std::move(boundaries)));
  // The surviving log may be shorter than what was already shipped —
  // post-recovery appends would diverge from the shipped history at the
  // same offsets. A new epoch disowns everything shipped and resyncs
  // followers from the recovered base.
  BeginEpoch(shard_index);
  if (m_recoveries_ != nullptr) m_recoveries_->Add(1);
  RefreshLagGauge(shard_index);
  return stats;
}

ReplicationLag ReplicatedShardSet::LagOf(size_t shard_index) const {
  const ShardRepl& shard = shards_[shard_index];
  ReplicationLag lag;
  lag.durable_records = primary_->shard_wal(shard_index)->durable_records();
  lag.shipped_records = lag.durable_records;
  lag.acked_records = lag.durable_records;
  for (const Follower& follower : shard.followers) {
    size_t shipped = follower.shipped_epoch == shard.epoch
                         ? follower.shipped_records
                         : 0;
    size_t acked =
        follower.shipped_epoch == shard.epoch ? follower.acked_records : 0;
    lag.shipped_records = std::min(lag.shipped_records, shipped);
    lag.acked_records = std::min(lag.acked_records, acked);
  }
  return lag;
}

void ReplicatedShardSet::RefreshLagGauge(size_t shard_index) {
  if (g_lag_.empty()) return;
  ReplicationLag lag = LagOf(shard_index);
  g_lag_[shard_index]->Set(
      static_cast<int64_t>(lag.durable_records - lag.acked_records));
}

void ReplicatedShardSet::SetObserver(obs::MetricsRegistry* metrics,
                                     obs::Tracer* tracer, int pid) {
  metrics_ = metrics;
  tracer_ = tracer;
  trace_pid_ = pid;
  trace_tid_ = tracer_ != nullptr ? tracer_->Tid(pid, "replication") : 0;
  g_lag_.clear();
  if (metrics_ == nullptr) {
    m_batches_ = m_batch_bytes_ = m_snapshots_ = m_snapshot_bytes_ = nullptr;
    m_acked_ = m_failed_ = m_duplicates_ = m_divergences_ = nullptr;
    m_checkpoints_ = m_promotions_ = m_recoveries_ = nullptr;
    return;
  }
  m_batches_ = metrics_->GetCounter("storage.repl.batches");
  m_batch_bytes_ = metrics_->GetCounter("storage.repl.batch_bytes");
  m_snapshots_ = metrics_->GetCounter("storage.repl.snapshots");
  m_snapshot_bytes_ = metrics_->GetCounter("storage.repl.snapshot_bytes");
  m_acked_ = metrics_->GetCounter("storage.repl.acked");
  m_failed_ = metrics_->GetCounter("storage.repl.failed");
  m_duplicates_ = metrics_->GetCounter("storage.repl.duplicates");
  m_divergences_ = metrics_->GetCounter("storage.repl.divergences");
  m_checkpoints_ = metrics_->GetCounter("storage.repl.checkpoints");
  m_promotions_ = metrics_->GetCounter("storage.repl.promotions");
  m_recoveries_ = metrics_->GetCounter("storage.repl.primary_recoveries");
  for (size_t s = 0; s < shards_.size(); ++s) {
    g_lag_.push_back(metrics_->GetGauge(
        "storage.repl.shard." + std::to_string(s) + ".lag_records"));
  }
}

// --- ReadThroughCache ---

namespace {

std::string CacheKey(const ObjectRef& ref, const std::string& field,
                     char kind) {
  std::string key;
  key.reserve(ref.type.size() + field.size() + 24);
  key += kind;
  key += ref.type;
  key += '\0';
  key += std::to_string(ref.id);
  key += '\0';
  key += field;
  return key;
}

}  // namespace

ReadThroughCache::ReadThroughCache(ObjectStore* store, size_t capacity_bytes)
    : store_(store), capacity_bytes_(capacity_bytes) {}

Status ReadThroughCache::RegisterStandardTypes() {
  return store_->RegisterStandardTypes();
}

Status ReadThroughCache::RegisterType(const MediaTypeEntry& entry,
                                      std::vector<FieldDef> table_schema) {
  return store_->RegisterType(entry, std::move(table_schema));
}

bool ReadThroughCache::HasType(const std::string& type_name) const {
  return store_->HasType(type_name);
}

void ReadThroughCache::Insert(std::string key, Entry entry,
                              size_t bytes) const {
  if (capacity_bytes_ == 0 || bytes > capacity_bytes_) return;
  lru_.Erase(key);
  while (lru_.used_bytes() + bytes > capacity_bytes_) {
    lru_.Erase(lru_.LeastRecentFirst().front().key);
    ++evictions_;
    if (m_evictions_ != nullptr) m_evictions_->Add(1);
  }
  lru_.InsertFront(std::move(key), bytes, std::move(entry));
  PublishBytes();
}

void ReadThroughCache::PublishBytes() const {
  if (g_bytes_ != nullptr) {
    g_bytes_->Set(static_cast<int64_t>(lru_.used_bytes()));
  }
}

void ReadThroughCache::NoteHit() const {
  ++hits_;
  if (m_hits_ != nullptr) m_hits_->Add(1);
}

void ReadThroughCache::NoteMiss() const {
  ++misses_;
  if (m_misses_ != nullptr) m_misses_->Add(1);
}

Result<ObjectRef> ReadThroughCache::Store(
    const std::string& type, std::map<std::string, FieldValue> fields,
    const std::map<std::string, Bytes>& blob_payloads) {
  MMCONF_ASSIGN_OR_RETURN(ObjectRef ref,
                          store_->Store(type, std::move(fields),
                                        blob_payloads));
  InvalidateRef(ref);  // a reused id must not serve a stale entry
  return ref;
}

Result<ObjectRecord> ReadThroughCache::FetchRecord(const ObjectRef& ref) const {
  std::string key = CacheKey(ref, "", 'r');
  if (const Entry* hit = lru_.FindAndTouch(key)) {
    NoteHit();
    return hit->record;
  }
  NoteMiss();
  MMCONF_ASSIGN_OR_RETURN(ObjectRecord record, store_->FetchRecord(ref));
  // Bill records by a rough serialized size: field names + payloads.
  size_t bytes = 32;
  for (const auto& [name, value] : record.fields) {
    bytes += name.size() + 16;
    if (TypeOf(value) == FieldType::kString) {
      bytes += std::get<std::string>(value).size();
    }
  }
  Insert(std::move(key), {ref, {}, record}, bytes);
  return record;
}

Result<Bytes> ReadThroughCache::FetchBlob(const ObjectRef& ref,
                                          const std::string& blob_field) const {
  std::string key = CacheKey(ref, blob_field, 'b');
  if (const Entry* hit = lru_.FindAndTouch(key)) {
    NoteHit();
    return hit->blob;
  }
  NoteMiss();
  MMCONF_ASSIGN_OR_RETURN(Bytes payload, store_->FetchBlob(ref, blob_field));
  Insert(std::move(key), {ref, payload, {}}, payload.size());
  return payload;
}

Result<Bytes> ReadThroughCache::FetchBlobRange(const ObjectRef& ref,
                                               const std::string& blob_field,
                                               size_t offset,
                                               size_t length) const {
  std::string key = CacheKey(ref, blob_field, 'b');
  const Entry* hit = lru_.FindAndTouch(key, [&](const Entry& entry) {
    return offset <= entry.blob.size() &&
           length <= entry.blob.size() - offset;
  });
  if (hit != nullptr) {
    NoteHit();
    return Bytes(hit->blob.begin() + offset,
                 hit->blob.begin() + offset + length);
  }
  NoteMiss();
  return store_->FetchBlobRange(ref, blob_field, offset, length);
}

Result<size_t> ReadThroughCache::BlobSize(const ObjectRef& ref,
                                          const std::string& blob_field) const {
  std::string key = CacheKey(ref, blob_field, 'b');
  if (const Entry* hit = lru_.FindAndTouch(key)) {
    NoteHit();
    return hit->blob.size();
  }
  NoteMiss();
  return store_->BlobSize(ref, blob_field);
}

Status ReadThroughCache::Modify(
    const ObjectRef& ref, const std::map<std::string, FieldValue>& fields,
    const std::map<std::string, Bytes>& blob_payloads) {
  MMCONF_RETURN_IF_ERROR(store_->Modify(ref, fields, blob_payloads));
  InvalidateRef(ref);
  return Status::OK();
}

Status ReadThroughCache::Delete(const ObjectRef& ref) {
  MMCONF_RETURN_IF_ERROR(store_->Delete(ref));
  InvalidateRef(ref);
  return Status::OK();
}

Result<std::vector<ObjectRef>> ReadThroughCache::List(
    const std::string& type) const {
  return store_->List(type);
}

void ReadThroughCache::InvalidateRef(const ObjectRef& ref) {
  lru_.EraseIf([&](const auto& node) { return node.value.ref == ref; });
  PublishBytes();
}

void ReadThroughCache::InvalidateShard(
    size_t shard, const std::function<size_t(const ObjectRef&)>& shard_of) {
  lru_.EraseIf(
      [&](const auto& node) { return shard_of(node.value.ref) == shard; });
  PublishBytes();
}

void ReadThroughCache::InvalidateAll() {
  lru_ = {};
  PublishBytes();
}

void ReadThroughCache::SetObserver(obs::MetricsRegistry* metrics) {
  if (metrics == nullptr) {
    m_hits_ = m_misses_ = m_evictions_ = nullptr;
    g_bytes_ = nullptr;
    return;
  }
  m_hits_ = metrics->GetCounter("storage.cache.hits");
  m_misses_ = metrics->GetCounter("storage.cache.misses");
  m_evictions_ = metrics->GetCounter("storage.cache.evictions");
  g_bytes_ = metrics->GetGauge("storage.cache.bytes");
}

}  // namespace mmconf::storage
