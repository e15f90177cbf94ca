#include "storage/database.h"

#include <tuple>

namespace mmconf::storage {

bool operator==(const ObjectRef& a, const ObjectRef& b) {
  return a.type == b.type && a.id == b.id;
}

bool operator<(const ObjectRef& a, const ObjectRef& b) {
  return std::tie(a.type, a.id) < std::tie(b.type, b.id);
}

Status DatabaseServer::RegisterStandardTypes() {
  struct Spec {
    MediaTypeEntry entry;
    std::vector<FieldDef> schema;
  };
  const Spec specs[] = {
      {{"Image", "image/x-mm-raster", "read-write", "IMAGE_OBJECTS_TABLE",
        "raster images (CT, X-ray) with annotation overlays"},
       {{"FLD_QUALITY", FieldType::kInt64},
        {"FLD_TEXTS", FieldType::kString},
        {"FLD_CM", FieldType::kString},
        {"FLD_DATA", FieldType::kBlob}}},
      {{"Audio", "audio/x-mm-pcm", "read-write", "AUDIO_OBJECTS_TABLE",
        "voice fragments and consultation recordings"},
       {{"FLD_FILENAME", FieldType::kString},
        {"FLD_SECTORS", FieldType::kInt64},
        {"FLD_DATA", FieldType::kBlob}}},
      {{"Cmp", "application/x-mm-layered", "read-write", "CMP_OBJECTS_TABLE",
        "multi-layer compressed image payloads for progressive transfer"},
       {{"FLD_FILENAME", FieldType::kString},
        {"FLD_FILESIZE", FieldType::kInt64},
        {"FLD_CURRENTPOSITION", FieldType::kInt64},
        {"FLD_HEADER", FieldType::kBlob},
        {"FLD_DATA", FieldType::kBlob}}},
      {{"Text", "text/plain", "read-write", "TEXT_OBJECTS_TABLE",
        "textual notes and test results"},
       {{"FLD_TITLE", FieldType::kString},
        {"FLD_DATA", FieldType::kBlob}}},
  };
  for (const Spec& spec : specs) {
    if (catalog_.HasType(spec.entry.type_name)) continue;
    MMCONF_RETURN_IF_ERROR(catalog_.RegisterType(spec.entry, spec.schema));
  }
  return Status::OK();
}

Status DatabaseServer::RegisterType(const MediaTypeEntry& entry,
                                    std::vector<FieldDef> table_schema) {
  return catalog_.RegisterType(entry, std::move(table_schema));
}

Result<ObjectRef> DatabaseServer::Store(
    const std::string& type, std::map<std::string, FieldValue> fields,
    const std::map<std::string, Bytes>& blob_payloads) {
  MMCONF_ASSIGN_OR_RETURN(ObjectTable * table, catalog_.TableFor(type));
  std::vector<BlobId> written;
  for (const auto& [name, payload] : blob_payloads) {
    Result<BlobId> id = blobs_.Put(payload);
    if (!id.ok()) {
      for (BlobId b : written) blobs_.Delete(b).ok();
      return id.status();
    }
    written.push_back(*id);
    fields[name] = *id;
  }
  Result<ObjectId> row = table->Insert(std::move(fields));
  if (!row.ok()) {
    for (BlobId b : written) blobs_.Delete(b).ok();
    return row.status();
  }
  return ObjectRef{type, *row};
}

Result<ObjectRef> DatabaseServer::StoreWithId(
    const std::string& type, ObjectId id,
    std::map<std::string, FieldValue> fields,
    const std::map<std::string, Bytes>& blob_payloads) {
  MMCONF_ASSIGN_OR_RETURN(ObjectTable * table, catalog_.TableFor(type));
  std::vector<BlobId> written;
  for (const auto& [name, payload] : blob_payloads) {
    Result<BlobId> blob = blobs_.Put(payload);
    if (!blob.ok()) {
      for (BlobId b : written) blobs_.Delete(b).ok();
      return blob.status();
    }
    written.push_back(*blob);
    fields[name] = *blob;
  }
  ObjectRecord record;
  record.id = id;
  record.fields = std::move(fields);
  Status restored = table->RestoreRow(std::move(record));
  if (!restored.ok()) {
    for (BlobId b : written) blobs_.Delete(b).ok();
    return restored;
  }
  return ObjectRef{type, id};
}

Result<ObjectRecord> DatabaseServer::FetchRecord(const ObjectRef& ref) const {
  MMCONF_ASSIGN_OR_RETURN(const ObjectTable* table,
                          catalog_.TableFor(ref.type));
  return table->Get(ref.id);
}

Result<BlobId> DatabaseServer::BlobIdOf(const ObjectRef& ref,
                                        const std::string& blob_field) const {
  MMCONF_ASSIGN_OR_RETURN(ObjectRecord record, FetchRecord(ref));
  auto it = record.fields.find(blob_field);
  if (it == record.fields.end()) {
    return Status::NotFound("object has no column \"" + blob_field + "\"");
  }
  if (TypeOf(it->second) != FieldType::kBlob) {
    return Status::InvalidArgument("column \"" + blob_field +
                                   "\" is not a blob");
  }
  return std::get<BlobId>(it->second);
}

Result<Bytes> DatabaseServer::FetchBlob(const ObjectRef& ref,
                                        const std::string& blob_field) const {
  MMCONF_ASSIGN_OR_RETURN(BlobId id, BlobIdOf(ref, blob_field));
  return blobs_.Get(id);
}

Result<Bytes> DatabaseServer::FetchBlobRange(const ObjectRef& ref,
                                             const std::string& blob_field,
                                             size_t offset,
                                             size_t length) const {
  MMCONF_ASSIGN_OR_RETURN(BlobId id, BlobIdOf(ref, blob_field));
  return blobs_.GetRange(id, offset, length);
}

Result<size_t> DatabaseServer::BlobSize(const ObjectRef& ref,
                                        const std::string& blob_field) const {
  MMCONF_ASSIGN_OR_RETURN(BlobId id, BlobIdOf(ref, blob_field));
  return blobs_.SizeOf(id);
}

Status DatabaseServer::Modify(const ObjectRef& ref,
                              const std::map<std::string, FieldValue>& fields,
                              const std::map<std::string, Bytes>& payloads) {
  MMCONF_ASSIGN_OR_RETURN(ObjectTable * table, catalog_.TableFor(ref.type));
  for (const auto& [name, payload] : payloads) {
    MMCONF_ASSIGN_OR_RETURN(BlobId id, BlobIdOf(ref, name));
    MMCONF_RETURN_IF_ERROR(blobs_.Update(id, payload));
  }
  if (!fields.empty()) {
    MMCONF_RETURN_IF_ERROR(table->Update(ref.id, fields));
  }
  return Status::OK();
}

Status DatabaseServer::Delete(const ObjectRef& ref) {
  MMCONF_ASSIGN_OR_RETURN(ObjectTable * table, catalog_.TableFor(ref.type));
  MMCONF_ASSIGN_OR_RETURN(ObjectRecord record, table->Get(ref.id));
  for (const auto& [name, value] : record.fields) {
    if (TypeOf(value) == FieldType::kBlob) {
      MMCONF_RETURN_IF_ERROR(blobs_.Delete(std::get<BlobId>(value)));
    }
  }
  return table->Delete(ref.id);
}

namespace {

constexpr uint32_t kSnapshotMagic = 0x4d4d4442;  // "MMDB"

// A blob column is written as its payload, not its BlobId: ids are
// local to one BlobStore (LoadFrom allocates fresh ones), so leaving
// them out keeps Serialize(LoadFrom(image)) == image.
void WriteFieldValue(ByteWriter& w, const FieldValue& value,
                     const BlobStore& blobs) {
  w.PutU8(static_cast<uint8_t>(TypeOf(value)));
  switch (TypeOf(value)) {
    case FieldType::kInt64:
      w.PutI64(std::get<int64_t>(value));
      break;
    case FieldType::kString:
      w.PutString(std::get<std::string>(value));
      break;
    case FieldType::kBlob: {
      Result<Bytes> payload = blobs.Get(std::get<BlobId>(value));
      w.PutBytes(payload.ok() ? *payload : Bytes{});
      break;
    }
  }
}

Result<FieldValue> ReadFieldValue(ByteReader& r, BlobStore& blobs) {
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
      MMCONF_ASSIGN_OR_RETURN(Bytes payload, r.GetBytes());
      MMCONF_ASSIGN_OR_RETURN(BlobId id, blobs.Put(payload));
      return FieldValue{id};
    }
    default:
      return Status::Corruption("bad field value tag");
  }
}

}  // namespace

Bytes DatabaseServer::Serialize() const {
  ByteWriter w;
  w.PutU32(kSnapshotMagic);
  std::vector<MediaTypeEntry> types = catalog_.ListTypes();
  w.PutVarint(types.size());
  for (const MediaTypeEntry& entry : types) {
    w.PutString(entry.type_name);
    w.PutString(entry.mime);
    w.PutString(entry.access_type);
    w.PutString(entry.table_name);
    w.PutString(entry.description);
    const ObjectTable* table = catalog_.TableFor(entry.type_name).value();
    w.PutVarint(table->schema().size());
    for (const FieldDef& def : table->schema()) {
      w.PutString(def.name);
      w.PutU8(static_cast<uint8_t>(def.type));
    }
    std::vector<ObjectId> ids = table->Ids();
    w.PutVarint(ids.size());
    for (ObjectId id : ids) {
      ObjectRecord record = table->Get(id).value();
      w.PutU64(record.id);
      w.PutVarint(record.fields.size());
      for (const auto& [name, value] : record.fields) {
        w.PutString(name);
        WriteFieldValue(w, value, blobs_);
      }
    }
  }
  Bytes body = w.Take();
  ByteWriter framed;
  framed.PutU32(Crc32c(body));
  framed.PutRaw(body.data(), body.size());
  return framed.Take();
}

Status DatabaseServer::LoadFrom(const Bytes& snapshot) {
  if (!catalog_.ListTypes().empty()) {
    return Status::FailedPrecondition(
        "LoadFrom requires a freshly constructed database");
  }
  ByteReader framing(snapshot);
  MMCONF_ASSIGN_OR_RETURN(uint32_t expected_crc, framing.GetU32());
  if (snapshot.size() < 4 ||
      Crc32c(snapshot.data() + 4, snapshot.size() - 4) != expected_crc) {
    return Status::Corruption("database snapshot failed checksum");
  }
  ByteReader r(snapshot.data() + 4, snapshot.size() - 4);
  MMCONF_ASSIGN_OR_RETURN(uint32_t magic, r.GetU32());
  if (magic != kSnapshotMagic) {
    return Status::Corruption("bad database snapshot magic");
  }
  MMCONF_ASSIGN_OR_RETURN(uint64_t num_types, r.GetVarint());
  for (uint64_t t = 0; t < num_types; ++t) {
    MediaTypeEntry entry;
    MMCONF_ASSIGN_OR_RETURN(entry.type_name, r.GetString());
    MMCONF_ASSIGN_OR_RETURN(entry.mime, r.GetString());
    MMCONF_ASSIGN_OR_RETURN(entry.access_type, r.GetString());
    MMCONF_ASSIGN_OR_RETURN(entry.table_name, r.GetString());
    MMCONF_ASSIGN_OR_RETURN(entry.description, r.GetString());
    MMCONF_ASSIGN_OR_RETURN(uint64_t num_fields, r.GetVarint());
    std::vector<FieldDef> schema;
    for (uint64_t f = 0; f < num_fields; ++f) {
      FieldDef def;
      MMCONF_ASSIGN_OR_RETURN(def.name, r.GetString());
      MMCONF_ASSIGN_OR_RETURN(uint8_t type, r.GetU8());
      if (type > 2) return Status::Corruption("bad field type");
      def.type = static_cast<FieldType>(type);
      schema.push_back(std::move(def));
    }
    MMCONF_RETURN_IF_ERROR(catalog_.RegisterType(entry, std::move(schema)));
    MMCONF_ASSIGN_OR_RETURN(ObjectTable * table,
                            catalog_.TableFor(entry.type_name));
    MMCONF_ASSIGN_OR_RETURN(uint64_t num_rows, r.GetVarint());
    for (uint64_t row = 0; row < num_rows; ++row) {
      ObjectRecord record;
      MMCONF_ASSIGN_OR_RETURN(record.id, r.GetU64());
      MMCONF_ASSIGN_OR_RETURN(uint64_t field_count, r.GetVarint());
      for (uint64_t f = 0; f < field_count; ++f) {
        MMCONF_ASSIGN_OR_RETURN(std::string name, r.GetString());
        MMCONF_ASSIGN_OR_RETURN(FieldValue value, ReadFieldValue(r, blobs_));
        record.fields.emplace(std::move(name), std::move(value));
      }
      MMCONF_RETURN_IF_ERROR(table->RestoreRow(std::move(record)));
    }
  }
  return Status::OK();
}

Result<std::vector<ObjectRef>> DatabaseServer::List(
    const std::string& type) const {
  MMCONF_ASSIGN_OR_RETURN(const ObjectTable* table, catalog_.TableFor(type));
  std::vector<ObjectRef> refs;
  for (ObjectId id : table->Ids()) refs.push_back({type, id});
  return refs;
}

}  // namespace mmconf::storage
