#include "storage/sharded_db.h"

#include <algorithm>
#include <utility>

#include "common/rng.h"

namespace mmconf::storage {

namespace {

/// The routing hash: an FNV-1a-style pass over the type name, folded
/// with the id through Mix64. The offset basis is 1469598103934665603, not
/// FNV-1a's 14695981039346656037 (the one federation/placement.cc
/// uses); it is kept because shard routing, and with it every
/// persisted shard image and bench baseline, depends on it.
uint64_t HashRef(const std::string& type, ObjectId id) {
  uint64_t h = 1469598103934665603ull;
  for (char c : type) {
    h = (h ^ static_cast<uint8_t>(c)) * 1099511628211ull;
  }
  return Mix64(h ^ Mix64(id));
}

void PutFieldValue(ByteWriter& w, const FieldValue& value) {
  w.PutU8(static_cast<uint8_t>(TypeOf(value)));
  switch (TypeOf(value)) {
    case FieldType::kInt64:
      w.PutI64(std::get<int64_t>(value));
      break;
    case FieldType::kString:
      w.PutString(std::get<std::string>(value));
      break;
    case FieldType::kBlob:
      w.PutU64(std::get<BlobId>(value));
      break;
  }
}

Result<FieldValue> GetFieldValue(ByteReader& r) {
  MMCONF_ASSIGN_OR_RETURN(uint8_t tag, r.GetU8());
  switch (tag) {
    case 0: {
      MMCONF_ASSIGN_OR_RETURN(int64_t v, r.GetI64());
      return FieldValue{v};
    }
    case 1: {
      MMCONF_ASSIGN_OR_RETURN(std::string v, r.GetString());
      return FieldValue{std::move(v)};
    }
    case 2: {
      MMCONF_ASSIGN_OR_RETURN(uint64_t v, r.GetU64());
      return FieldValue{BlobId{v}};
    }
    default:
      return Status::Corruption("bad field value tag in WAL record");
  }
}

void PutFieldMap(ByteWriter& w,
                 const std::map<std::string, FieldValue>& fields) {
  w.PutVarint(fields.size());
  for (const auto& [name, value] : fields) {
    w.PutString(name);
    PutFieldValue(w, value);
  }
}

Result<std::map<std::string, FieldValue>> GetFieldMap(ByteReader& r) {
  MMCONF_ASSIGN_OR_RETURN(uint64_t count, r.GetVarint());
  std::map<std::string, FieldValue> fields;
  for (uint64_t i = 0; i < count; ++i) {
    MMCONF_ASSIGN_OR_RETURN(std::string name, r.GetString());
    MMCONF_ASSIGN_OR_RETURN(FieldValue value, GetFieldValue(r));
    fields.emplace(std::move(name), std::move(value));
  }
  return fields;
}

void PutBlobMap(ByteWriter& w, const std::map<std::string, Bytes>& blobs) {
  w.PutVarint(blobs.size());
  for (const auto& [name, payload] : blobs) {
    w.PutString(name);
    w.PutBytes(payload);
  }
}

Result<std::map<std::string, Bytes>> GetBlobMap(ByteReader& r) {
  MMCONF_ASSIGN_OR_RETURN(uint64_t count, r.GetVarint());
  std::map<std::string, Bytes> blobs;
  for (uint64_t i = 0; i < count; ++i) {
    MMCONF_ASSIGN_OR_RETURN(std::string name, r.GetString());
    MMCONF_ASSIGN_OR_RETURN(Bytes payload, r.GetBytes());
    blobs.emplace(std::move(name), std::move(payload));
  }
  return blobs;
}

Bytes EncodeRegisterType(const MediaTypeEntry& entry,
                         const std::vector<FieldDef>& schema) {
  ByteWriter w;
  w.PutString(entry.type_name);
  w.PutString(entry.mime);
  w.PutString(entry.access_type);
  w.PutString(entry.table_name);
  w.PutString(entry.description);
  w.PutVarint(schema.size());
  for (const FieldDef& def : schema) {
    w.PutString(def.name);
    w.PutU8(static_cast<uint8_t>(def.type));
  }
  return w.Take();
}

Bytes EncodeStore(const std::string& type, ObjectId id,
                  const std::map<std::string, FieldValue>& fields,
                  const std::map<std::string, Bytes>& blobs) {
  ByteWriter w;
  w.PutString(type);
  w.PutU64(id);
  PutFieldMap(w, fields);
  PutBlobMap(w, blobs);
  return w.Take();
}

Bytes EncodeDelete(const ObjectRef& ref) {
  ByteWriter w;
  w.PutString(ref.type);
  w.PutU64(ref.id);
  return w.Take();
}

/// Applies one decoded WAL record to `db`. Shared by crash recovery and
/// anything else replaying a storage log.
Status ApplyWalRecord(WalOp op, const Bytes& payload, DatabaseServer* db) {
  ByteReader r(payload);
  switch (op) {
    case WalOp::kRegisterStandardTypes:
      return db->RegisterStandardTypes();
    case WalOp::kRegisterType: {
      MediaTypeEntry entry;
      MMCONF_ASSIGN_OR_RETURN(entry.type_name, r.GetString());
      MMCONF_ASSIGN_OR_RETURN(entry.mime, r.GetString());
      MMCONF_ASSIGN_OR_RETURN(entry.access_type, r.GetString());
      MMCONF_ASSIGN_OR_RETURN(entry.table_name, r.GetString());
      MMCONF_ASSIGN_OR_RETURN(entry.description, r.GetString());
      MMCONF_ASSIGN_OR_RETURN(uint64_t num_fields, r.GetVarint());
      std::vector<FieldDef> schema;
      for (uint64_t i = 0; i < num_fields; ++i) {
        FieldDef def;
        MMCONF_ASSIGN_OR_RETURN(def.name, r.GetString());
        MMCONF_ASSIGN_OR_RETURN(uint8_t type, r.GetU8());
        if (type > 2) return Status::Corruption("bad field type in WAL");
        def.type = static_cast<FieldType>(type);
        schema.push_back(std::move(def));
      }
      return db->RegisterType(entry, std::move(schema));
    }
    case WalOp::kStore: {
      MMCONF_ASSIGN_OR_RETURN(std::string type, r.GetString());
      MMCONF_ASSIGN_OR_RETURN(uint64_t id, r.GetU64());
      MMCONF_ASSIGN_OR_RETURN(auto fields, GetFieldMap(r));
      MMCONF_ASSIGN_OR_RETURN(auto blobs, GetBlobMap(r));
      return db->StoreWithId(type, id, std::move(fields), blobs).status();
    }
    case WalOp::kModify: {
      MMCONF_ASSIGN_OR_RETURN(std::string type, r.GetString());
      MMCONF_ASSIGN_OR_RETURN(uint64_t id, r.GetU64());
      MMCONF_ASSIGN_OR_RETURN(auto fields, GetFieldMap(r));
      MMCONF_ASSIGN_OR_RETURN(auto blobs, GetBlobMap(r));
      return db->Modify(ObjectRef{std::move(type), id}, fields, blobs);
    }
    case WalOp::kDelete: {
      MMCONF_ASSIGN_OR_RETURN(std::string type, r.GetString());
      MMCONF_ASSIGN_OR_RETURN(uint64_t id, r.GetU64());
      return db->Delete(ObjectRef{std::move(type), id});
    }
  }
  return Status::Corruption("unknown WAL op");
}

}  // namespace

ShardedDatabaseServer::ShardedDatabaseServer(const Clock* clock)
    : ShardedDatabaseServer(clock, Options()) {}

ShardedDatabaseServer::ShardedDatabaseServer(const Clock* clock,
                                             Options options)
    : clock_(clock), wal_options_(options.wal) {
  size_t count = std::max<size_t>(1, options.num_shards);
  for (size_t i = 0; i < count; ++i) {
    shards_.push_back(std::make_unique<Shard>(clock_, wal_options_));
  }
}

size_t ShardedDatabaseServer::ShardOf(const ObjectRef& ref) const {
  return static_cast<size_t>(HashRef(ref.type, ref.id) % shards_.size());
}

void ShardedDatabaseServer::Log(size_t index, WalOp op,
                                const Bytes& payload) {
  Shard& shard = *shards_[index];
  size_t syncs_before = shard.wal.sync_count();
  shard.wal.Append(op, payload);
  if (m_appends_ != nullptr) {
    m_appends_->Add(1);
    m_append_bytes_->Add(payload.size());
    m_syncs_->Add(shard.wal.sync_count() - syncs_before);
  }
  RefreshShardGauges(index);
}

void ShardedDatabaseServer::RefreshShardGauges(size_t index) {
  Shard& shard = *shards_[index];
  if (shard.g_objects == nullptr) return;
  int64_t objects = 0;
  for (const MediaTypeEntry& entry : shard.db->catalog().ListTypes()) {
    objects += static_cast<int64_t>(
        shard.db->catalog().TableFor(entry.type_name).value()->size());
  }
  shard.g_objects->Set(objects);
  shard.g_bytes->Set(
      static_cast<int64_t>(shard.db->blob_store().allocated_bytes()));
}

Status ShardedDatabaseServer::RegisterStandardTypes() {
  for (size_t i = 0; i < shards_.size(); ++i) {
    MMCONF_RETURN_IF_ERROR(shards_[i]->db->RegisterStandardTypes());
    Log(i, WalOp::kRegisterStandardTypes, Bytes{});
  }
  return Status::OK();
}

Status ShardedDatabaseServer::RegisterType(const MediaTypeEntry& entry,
                                           std::vector<FieldDef> schema) {
  Bytes payload = EncodeRegisterType(entry, schema);
  for (size_t i = 0; i < shards_.size(); ++i) {
    MMCONF_RETURN_IF_ERROR(shards_[i]->db->RegisterType(entry, schema));
    Log(i, WalOp::kRegisterType, payload);
  }
  return Status::OK();
}

bool ShardedDatabaseServer::HasType(const std::string& type_name) const {
  return shards_[0]->db->HasType(type_name);
}

Result<ObjectRef> ShardedDatabaseServer::Store(
    const std::string& type, std::map<std::string, FieldValue> fields,
    const std::map<std::string, Bytes>& blob_payloads) {
  if (!HasType(type)) {
    return Status::NotFound("no media type \"" + type + "\"");
  }
  auto it = next_ids_.try_emplace(type, 1).first;
  ObjectId id = it->second;
  ObjectRef ref{type, id};
  size_t index = ShardOf(ref);
  MMCONF_ASSIGN_OR_RETURN(
      ObjectRef stored,
      shards_[index]->db->StoreWithId(type, id, fields, blob_payloads));
  it->second = id + 1;
  Log(index, WalOp::kStore, EncodeStore(type, id, fields, blob_payloads));
  return stored;
}

Result<ObjectRecord> ShardedDatabaseServer::FetchRecord(
    const ObjectRef& ref) const {
  return shards_[ShardOf(ref)]->db->FetchRecord(ref);
}

Result<Bytes> ShardedDatabaseServer::FetchBlob(
    const ObjectRef& ref, const std::string& blob_field) const {
  return shards_[ShardOf(ref)]->db->FetchBlob(ref, blob_field);
}

Result<Bytes> ShardedDatabaseServer::FetchBlobRange(
    const ObjectRef& ref, const std::string& blob_field, size_t offset,
    size_t length) const {
  return shards_[ShardOf(ref)]->db->FetchBlobRange(ref, blob_field, offset,
                                                   length);
}

Result<size_t> ShardedDatabaseServer::BlobSize(
    const ObjectRef& ref, const std::string& blob_field) const {
  return shards_[ShardOf(ref)]->db->BlobSize(ref, blob_field);
}

Status ShardedDatabaseServer::Modify(
    const ObjectRef& ref, const std::map<std::string, FieldValue>& fields,
    const std::map<std::string, Bytes>& blob_payloads) {
  size_t index = ShardOf(ref);
  MMCONF_RETURN_IF_ERROR(
      shards_[index]->db->Modify(ref, fields, blob_payloads));
  Log(index, WalOp::kModify,
      EncodeStore(ref.type, ref.id, fields, blob_payloads));
  return Status::OK();
}

Status ShardedDatabaseServer::Delete(const ObjectRef& ref) {
  size_t index = ShardOf(ref);
  MMCONF_RETURN_IF_ERROR(shards_[index]->db->Delete(ref));
  Log(index, WalOp::kDelete, EncodeDelete(ref));
  return Status::OK();
}

Result<std::vector<ObjectRef>> ShardedDatabaseServer::List(
    const std::string& type) const {
  if (!HasType(type)) {
    return Status::NotFound("no media type \"" + type + "\"");
  }
  std::vector<ObjectRef> merged;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    MMCONF_ASSIGN_OR_RETURN(std::vector<ObjectRef> refs,
                            shard->db->List(type));
    merged.insert(merged.end(), refs.begin(), refs.end());
  }
  std::sort(merged.begin(), merged.end());
  return merged;
}

void ShardedDatabaseServer::SyncAll() {
  for (size_t i = 0; i < shards_.size(); ++i) {
    size_t before = shards_[i]->wal.sync_count();
    shards_[i]->wal.Sync();
    if (m_syncs_ != nullptr) {
      m_syncs_->Add(shards_[i]->wal.sync_count() - before);
    }
  }
}

std::vector<std::pair<MediaTypeEntry, std::vector<FieldDef>>>
ShardedDatabaseServer::TypeSpecs() const {
  std::vector<std::pair<MediaTypeEntry, std::vector<FieldDef>>> specs;
  const DatabaseServer& db = *shards_[0]->db;
  for (const MediaTypeEntry& entry : db.catalog().ListTypes()) {
    specs.emplace_back(entry,
                       db.catalog().TableFor(entry.type_name).value()->schema());
  }
  return specs;
}

Status ShardedDatabaseServer::RebuildIdCounters() {
  // The type universe is the union across shards so that asymmetry in
  // either direction — a recovered image rolled back past a
  // registration, or a replicated image ahead of the survivors — is
  // caught here instead of asserting inside Result::value().
  std::vector<std::string> universe;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    for (const MediaTypeEntry& entry : shard->db->catalog().ListTypes()) {
      if (std::find(universe.begin(), universe.end(), entry.type_name) ==
          universe.end()) {
        universe.push_back(entry.type_name);
      }
    }
  }
  std::map<std::string, ObjectId> rebuilt;
  for (const std::string& type : universe) {
    ObjectId next = 1;
    for (size_t i = 0; i < shards_.size(); ++i) {
      Result<const ObjectTable*> table =
          shards_[i]->db->catalog().TableFor(type);
      if (!table.ok()) {
        return Status::NotFound("shard " + std::to_string(i) +
                                " has no table for registered type '" + type +
                                "': shard catalogs disagree");
      }
      std::vector<ObjectId> ids = (*table)->Ids();
      if (!ids.empty()) next = std::max(next, ids.back() + 1);
    }
    rebuilt[type] = next;
  }
  next_ids_ = std::move(rebuilt);
  return Status::OK();
}

Status ShardedDatabaseServer::Rebalance(size_t new_num_shards) {
  new_num_shards = std::max<size_t>(1, new_num_shards);
  obs::ScopedSpan span(tracer_, trace_pid_, trace_tid_, "rebalance",
                       "storage");
  SyncAll();
  std::vector<std::pair<MediaTypeEntry, std::vector<FieldDef>>> specs =
      TypeSpecs();
  std::vector<std::unique_ptr<Shard>> fresh;
  for (size_t i = 0; i < new_num_shards; ++i) {
    fresh.push_back(std::make_unique<Shard>(clock_, wal_options_));
  }
  auto route = [&](const ObjectRef& ref) {
    return static_cast<size_t>(HashRef(ref.type, ref.id) % new_num_shards);
  };
  for (const auto& [entry, schema] : specs) {
    Bytes reg_payload = EncodeRegisterType(entry, schema);
    for (std::unique_ptr<Shard>& shard : fresh) {
      MMCONF_RETURN_IF_ERROR(shard->db->RegisterType(entry, schema));
      shard->wal.Append(WalOp::kRegisterType, reg_payload);
    }
  }
  for (const auto& [entry, schema] : specs) {
    MMCONF_ASSIGN_OR_RETURN(std::vector<ObjectRef> refs,
                            List(entry.type_name));
    for (const ObjectRef& ref : refs) {
      MMCONF_ASSIGN_OR_RETURN(ObjectRecord record, FetchRecord(ref));
      std::map<std::string, FieldValue> scalars;
      std::map<std::string, Bytes> blobs;
      for (const auto& [name, value] : record.fields) {
        if (TypeOf(value) == FieldType::kBlob) {
          MMCONF_ASSIGN_OR_RETURN(Bytes payload, FetchBlob(ref, name));
          blobs.emplace(name, std::move(payload));
        } else {
          scalars.emplace(name, value);
        }
      }
      Shard& target = *fresh[route(ref)];
      MMCONF_RETURN_IF_ERROR(
          target.db->StoreWithId(ref.type, ref.id, scalars, blobs).status());
      target.wal.Append(WalOp::kStore,
                        EncodeStore(ref.type, ref.id, scalars, blobs));
    }
  }
  for (std::unique_ptr<Shard>& shard : fresh) shard->wal.Sync();
  // Gauges of shards that no longer exist must not report stale values.
  if (metrics_ != nullptr) {
    for (size_t i = new_num_shards; i < shards_.size(); ++i) {
      shards_[i]->g_objects->Set(0);
      shards_[i]->g_bytes->Set(0);
    }
    if (m_truncations_ != nullptr) {
      m_truncations_->Add(shards_.size());  // old logs are retired
    }
  }
  shards_ = std::move(fresh);
  if (metrics_ != nullptr) {
    for (size_t i = 0; i < shards_.size(); ++i) {
      const std::string prefix = "storage.shard." + std::to_string(i) + ".";
      shards_[i]->g_objects = metrics_->GetGauge(prefix + "objects");
      shards_[i]->g_bytes = metrics_->GetGauge(prefix + "bytes");
      RefreshShardGauges(i);
    }
    metrics_->GetGauge("storage.num_shards")
        ->Set(static_cast<int64_t>(shards_.size()));
  }
  MMCONF_RETURN_IF_ERROR(RebuildIdCounters());
  if (m_rebalances_ != nullptr) m_rebalances_->Add(1);
  return Status::OK();
}

Result<WalReplayStats> ShardedDatabaseServer::ReplayLogInto(
    const Bytes& log, DatabaseServer* fresh) {
  return WriteAheadLog::Replay(log, [fresh](WalOp op, const Bytes& payload) {
    return ApplyWalRecord(op, payload, fresh);
  });
}

Status ShardedDatabaseServer::HealSchema(DatabaseServer* db,
                                         WriteAheadLog* wal) const {
  if (db == nullptr) {
    return Status::InvalidArgument("HealSchema: null database");
  }
  for (const std::unique_ptr<Shard>& shard : shards_) {
    for (const MediaTypeEntry& entry : shard->db->catalog().ListTypes()) {
      if (db->HasType(entry.type_name)) continue;
      MMCONF_ASSIGN_OR_RETURN(
          const ObjectTable* table,
          shard->db->catalog().TableFor(entry.type_name));
      std::vector<FieldDef> schema = table->schema();
      MMCONF_RETURN_IF_ERROR(db->RegisterType(entry, schema));
      if (wal != nullptr) {
        wal->Append(WalOp::kRegisterType, EncodeRegisterType(entry, schema));
      }
    }
  }
  return Status::OK();
}

Result<WalReplayStats> ShardedDatabaseServer::RecoverShardFromLog(
    size_t index, const Bytes& log) {
  if (index >= shards_.size()) {
    return Status::InvalidArgument("no shard " + std::to_string(index));
  }
  obs::ScopedSpan span(tracer_, trace_pid_, trace_tid_, "recover", "storage");
  auto recovered = std::make_unique<DatabaseServer>();
  MMCONF_ASSIGN_OR_RETURN(WalReplayStats stats,
                          ReplayLogInto(log, recovered.get()));
  // A type the image knows but the facade does not cannot come from
  // this facade's history and cannot be healed from the survivors:
  // refuse before mutating anything (the facade keeps serving its
  // pre-recovery state).
  for (const MediaTypeEntry& entry : recovered->catalog().ListTypes()) {
    if (!HasType(entry.type_name)) {
      return Status::NotFound("recovered image carries type '" +
                              entry.type_name +
                              "' the facade never registered");
    }
  }
  Shard& shard = *shards_[index];
  shard.db = std::move(recovered);
  // The WAL restarts from the clean prefix: post-recovery mutations
  // extend the surviving history, not the damaged image. Pre-crash
  // group-commit boundaries that survive in the prefix are kept.
  Bytes clean(log.begin(), log.begin() + stats.bytes_scanned);
  std::vector<WalSyncPoint> boundaries = shard.wal.sync_points();
  shard.wal.RestoreDurable(std::move(clean), stats.records_applied,
                           std::move(boundaries));
  // Registrations the image rolled back past (or that never group-
  // committed on a quiet shard) are re-pushed: schema is facade-global
  // bootstrap metadata, not lost data. The healed records land in the
  // restored WAL so the image stays replayable.
  MMCONF_RETURN_IF_ERROR(HealSchema(shard.db.get(), &shard.wal));
  MMCONF_RETURN_IF_ERROR(RebuildIdCounters());
  if (m_recoveries_ != nullptr) {
    m_recoveries_->Add(1);
    m_replayed_records_->Add(stats.records_applied);
    if (!stats.clean_end) m_truncations_->Add(1);
  }
  RefreshShardGauges(index);
  return stats;
}

Status ShardedDatabaseServer::InstallShard(
    size_t index, std::unique_ptr<DatabaseServer> db, Bytes wal_log,
    size_t records, std::vector<WalSyncPoint> boundaries) {
  if (index >= shards_.size()) {
    return Status::InvalidArgument("no shard " + std::to_string(index));
  }
  if (db == nullptr) {
    return Status::InvalidArgument("InstallShard: null database");
  }
  obs::ScopedSpan span(tracer_, trace_pid_, trace_tid_, "install-shard",
                      "storage");
  Shard& shard = *shards_[index];
  shard.db = std::move(db);
  shard.wal.RestoreDurable(std::move(wal_log), records, std::move(boundaries));
  // Registrations the installed image never received (e.g. the primary
  // lost its machine before a registration group-committed and shipped)
  // are re-pushed from the surviving shards, WAL records included.
  MMCONF_RETURN_IF_ERROR(HealSchema(shard.db.get(), &shard.wal));
  RefreshShardGauges(index);
  if (m_recoveries_ != nullptr) m_recoveries_->Add(1);
  // A takeover has no old primary to fall back to: the image stays
  // installed even when the id-counter rebuild finds it incomplete
  // (a type the facade never registered cannot be healed away), and
  // the error surfaces to the replication tier.
  return RebuildIdCounters();
}

void ShardedDatabaseServer::SetObserver(obs::MetricsRegistry* metrics,
                                        obs::Tracer* tracer, int pid) {
  metrics_ = metrics;
  tracer_ = tracer;
  trace_pid_ = pid;
  trace_tid_ = tracer_ != nullptr ? tracer_->Tid(pid, "storage") : 0;
  if (metrics_ != nullptr) {
    m_appends_ = metrics_->GetCounter("storage.wal.appends");
    m_append_bytes_ = metrics_->GetCounter("storage.wal.append_bytes");
    m_syncs_ = metrics_->GetCounter("storage.wal.syncs");
    m_truncations_ = metrics_->GetCounter("storage.wal.truncations");
    m_replayed_records_ =
        metrics_->GetCounter("storage.wal.replayed_records");
    m_recoveries_ = metrics_->GetCounter("storage.recoveries");
    m_rebalances_ = metrics_->GetCounter("storage.rebalances");
    metrics_->GetGauge("storage.num_shards")
        ->Set(static_cast<int64_t>(shards_.size()));
    for (size_t i = 0; i < shards_.size(); ++i) {
      const std::string prefix = "storage.shard." + std::to_string(i) + ".";
      shards_[i]->g_objects = metrics_->GetGauge(prefix + "objects");
      shards_[i]->g_bytes = metrics_->GetGauge(prefix + "bytes");
      RefreshShardGauges(i);
    }
  } else {
    m_appends_ = nullptr;
    m_append_bytes_ = nullptr;
    m_syncs_ = nullptr;
    m_truncations_ = nullptr;
    m_replayed_records_ = nullptr;
    m_recoveries_ = nullptr;
    m_rebalances_ = nullptr;
    for (std::unique_ptr<Shard>& shard : shards_) {
      shard->g_objects = nullptr;
      shard->g_bytes = nullptr;
    }
  }
}

}  // namespace mmconf::storage
