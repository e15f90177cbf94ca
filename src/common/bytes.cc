#include "common/bytes.h"

#include <array>
#include <cstring>

namespace mmconf {

void ByteWriter::PutU16(uint16_t v) {
  PutU8(static_cast<uint8_t>(v));
  PutU8(static_cast<uint8_t>(v >> 8));
}

void ByteWriter::PutU32(uint32_t v) {
  PutU16(static_cast<uint16_t>(v));
  PutU16(static_cast<uint16_t>(v >> 16));
}

void ByteWriter::PutU64(uint64_t v) {
  PutU32(static_cast<uint32_t>(v));
  PutU32(static_cast<uint32_t>(v >> 32));
}

void ByteWriter::PutF32(float v) {
  uint32_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU32(bits);
}

void ByteWriter::PutF64(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(bits);
}

void ByteWriter::PutVarint(uint64_t v) {
  while (v >= 0x80) {
    PutU8(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  PutU8(static_cast<uint8_t>(v));
}

void ByteWriter::PutString(const std::string& s) {
  PutVarint(s.size());
  PutRaw(s.data(), s.size());
}

void ByteWriter::PutBytes(const Bytes& b) {
  PutVarint(b.size());
  PutRaw(b.data(), b.size());
}

void ByteWriter::PutRaw(const void* data, size_t n) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  buf_.insert(buf_.end(), p, p + n);
}

Status ByteReader::Need(size_t n) {
  if (size_ - pos_ < n) {
    return Status::Corruption("truncated input: need " + std::to_string(n) +
                              " bytes, have " + std::to_string(size_ - pos_));
  }
  return Status::OK();
}

Result<uint8_t> ByteReader::GetU8() {
  MMCONF_RETURN_IF_ERROR(Need(1));
  return data_[pos_++];
}

Result<uint16_t> ByteReader::GetU16() {
  MMCONF_RETURN_IF_ERROR(Need(2));
  uint16_t v = static_cast<uint16_t>(data_[pos_]) |
               static_cast<uint16_t>(data_[pos_ + 1]) << 8;
  pos_ += 2;
  return v;
}

Result<uint32_t> ByteReader::GetU32() {
  MMCONF_RETURN_IF_ERROR(Need(4));
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | data_[pos_ + i];
  pos_ += 4;
  return v;
}

Result<uint64_t> ByteReader::GetU64() {
  MMCONF_RETURN_IF_ERROR(Need(8));
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | data_[pos_ + i];
  pos_ += 8;
  return v;
}

Result<int32_t> ByteReader::GetI32() {
  MMCONF_ASSIGN_OR_RETURN(uint32_t v, GetU32());
  return static_cast<int32_t>(v);
}

Result<int64_t> ByteReader::GetI64() {
  MMCONF_ASSIGN_OR_RETURN(uint64_t v, GetU64());
  return static_cast<int64_t>(v);
}

Result<float> ByteReader::GetF32() {
  MMCONF_ASSIGN_OR_RETURN(uint32_t bits, GetU32());
  float v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

Result<double> ByteReader::GetF64() {
  MMCONF_ASSIGN_OR_RETURN(uint64_t bits, GetU64());
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

Result<uint64_t> ByteReader::GetVarint() {
  uint64_t v = 0;
  int shift = 0;
  while (true) {
    MMCONF_ASSIGN_OR_RETURN(uint8_t byte, GetU8());
    if (shift >= 64) return Status::Corruption("varint overflow");
    v |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if (!(byte & 0x80)) break;
    shift += 7;
  }
  return v;
}

Result<std::string> ByteReader::GetString() {
  MMCONF_ASSIGN_OR_RETURN(uint64_t n, GetVarint());
  MMCONF_RETURN_IF_ERROR(Need(n));
  std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
  pos_ += n;
  return s;
}

Result<Bytes> ByteReader::GetBytes() {
  MMCONF_ASSIGN_OR_RETURN(uint64_t n, GetVarint());
  MMCONF_RETURN_IF_ERROR(Need(n));
  Bytes b(data_ + pos_, data_ + pos_ + n);
  pos_ += n;
  return b;
}

namespace {

using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

/// tables[0] is the classic byte-at-a-time table; tables[k] maps a byte
/// k positions deeper into the window for slicing-by-8.
CrcTables MakeCrcTables() {
  CrcTables tables{};
  const uint32_t poly = 0x82f63b78;  // Castagnoli, reflected.
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? (poly ^ (c >> 1)) : (c >> 1);
    tables[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = tables[0][i];
    for (size_t k = 1; k < 8; ++k) {
      c = tables[0][c & 0xff] ^ (c >> 8);
      tables[k][i] = c;
    }
  }
  return tables;
}

const CrcTables& GetCrcTables() {
  static const CrcTables tables = MakeCrcTables();
  return tables;
}

uint32_t Crc32cTable(const uint8_t* data, size_t n, uint32_t seed) {
  const CrcTables& t = GetCrcTables();
  uint32_t c = seed ^ 0xffffffffu;
  for (size_t i = 0; i < n; ++i) c = t[0][(c ^ data[i]) & 0xff] ^ (c >> 8);
  return c ^ 0xffffffffu;
}

uint32_t Crc32cSlice8(const uint8_t* data, size_t n, uint32_t seed) {
  const CrcTables& t = GetCrcTables();
  uint32_t c = seed ^ 0xffffffffu;
  const uint8_t* p = data;
  // Eight bytes per iteration: fold the running CRC into the first
  // little-endian word, then look every byte up in its own table. The
  // byte-assembled loads compile to plain 32-bit loads on little-endian
  // targets while staying endian-correct everywhere.
  while (n >= 8) {
    uint32_t lo = static_cast<uint32_t>(p[0]) |
                  static_cast<uint32_t>(p[1]) << 8 |
                  static_cast<uint32_t>(p[2]) << 16 |
                  static_cast<uint32_t>(p[3]) << 24;
    uint32_t hi = static_cast<uint32_t>(p[4]) |
                  static_cast<uint32_t>(p[5]) << 8 |
                  static_cast<uint32_t>(p[6]) << 16 |
                  static_cast<uint32_t>(p[7]) << 24;
    lo ^= c;
    c = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^ t[5][(lo >> 16) & 0xff] ^
        t[4][lo >> 24] ^ t[3][hi & 0xff] ^ t[2][(hi >> 8) & 0xff] ^
        t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  for (; n > 0; --n) c = t[0][(c ^ *p++) & 0xff] ^ (c >> 8);
  return c ^ 0xffffffffu;
}

#if defined(__x86_64__) && defined(__GNUC__) && !defined(MMCONF_FORCE_SCALAR)
#define MMCONF_HW_CRC32C 1

__attribute__((target("sse4.2"))) uint32_t Crc32cHardware(
    const uint8_t* data, size_t n, uint32_t seed) {
  uint64_t c = seed ^ 0xffffffffu;
  const uint8_t* p = data;
  while (n >= 8) {
    uint64_t v;
    std::memcpy(&v, p, 8);
    c = __builtin_ia32_crc32di(c, v);
    p += 8;
    n -= 8;
  }
  uint32_t c32 = static_cast<uint32_t>(c);
  if (n >= 4) {
    uint32_t v;
    std::memcpy(&v, p, 4);
    c32 = __builtin_ia32_crc32si(c32, v);
    p += 4;
    n -= 4;
  }
  if (n >= 2) {
    uint16_t v;
    std::memcpy(&v, p, 2);
    c32 = __builtin_ia32_crc32hi(c32, v);
    p += 2;
    n -= 2;
  }
  if (n >= 1) c32 = __builtin_ia32_crc32qi(c32, *p);
  return c32 ^ 0xffffffffu;
}

bool HardwareCrcAvailable() { return __builtin_cpu_supports("sse4.2"); }

#endif  // MMCONF_HW_CRC32C

using CrcFn = uint32_t (*)(const uint8_t*, size_t, uint32_t);

struct CrcDispatch {
  CrcFn fn;
  Crc32cImpl impl;
};

/// kAuto resolves to the fastest available engine; kHardware resolves to
/// {nullptr} when this build/CPU cannot run it.
CrcDispatch ResolveCrc(Crc32cImpl impl) {
  switch (impl) {
    case Crc32cImpl::kTable:
      return {Crc32cTable, Crc32cImpl::kTable};
    case Crc32cImpl::kSlice8:
      return {Crc32cSlice8, Crc32cImpl::kSlice8};
    case Crc32cImpl::kHardware:
#ifdef MMCONF_HW_CRC32C
      if (HardwareCrcAvailable()) {
        return {Crc32cHardware, Crc32cImpl::kHardware};
      }
#endif
      return {nullptr, Crc32cImpl::kHardware};
    case Crc32cImpl::kAuto:
      break;
  }
#ifdef MMCONF_HW_CRC32C
  if (HardwareCrcAvailable()) {
    return {Crc32cHardware, Crc32cImpl::kHardware};
  }
#endif
  return {Crc32cSlice8, Crc32cImpl::kSlice8};
}

CrcDispatch& GlobalCrcDispatch() {
  static CrcDispatch dispatch = ResolveCrc(Crc32cImpl::kAuto);
  return dispatch;
}

}  // namespace

uint32_t Crc32c(const uint8_t* data, size_t n, uint32_t seed) {
  return GlobalCrcDispatch().fn(data, n, seed);
}

bool SetCrc32cImpl(Crc32cImpl impl) {
  CrcDispatch resolved = ResolveCrc(impl);
  if (resolved.fn == nullptr) return false;
  GlobalCrcDispatch() = resolved;
  return true;
}

Crc32cImpl ActiveCrc32cImpl() { return GlobalCrcDispatch().impl; }

}  // namespace mmconf
