#ifndef MMCONF_COMMON_BYTES_H_
#define MMCONF_COMMON_BYTES_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace mmconf {

/// Owned byte payload. BLOBs, encoded images, and network message bodies
/// are all `Bytes`.
using Bytes = std::vector<uint8_t>;

/// Appends primitive values to a byte buffer in little-endian order.
/// Companion to `ByteReader`; together they define the library's on-disk
/// and on-wire record encoding.
class ByteWriter {
 public:
  ByteWriter() = default;

  void PutU8(uint8_t v) { buf_.push_back(v); }
  void PutU16(uint16_t v);
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutI32(int32_t v) { PutU32(static_cast<uint32_t>(v)); }
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }
  void PutF32(float v);
  void PutF64(double v);
  /// Unsigned LEB128.
  void PutVarint(uint64_t v);
  /// Varint length prefix followed by raw bytes.
  void PutString(const std::string& s);
  void PutBytes(const Bytes& b);
  void PutRaw(const void* data, size_t n);

  const Bytes& data() const { return buf_; }
  Bytes Take() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  Bytes buf_;
};

/// Reads primitive values written by `ByteWriter`. All reads are
/// bounds-checked and return `Status::Corruption` on truncated input.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit ByteReader(const Bytes& b) : ByteReader(b.data(), b.size()) {}

  Result<uint8_t> GetU8();
  Result<uint16_t> GetU16();
  Result<uint32_t> GetU32();
  Result<uint64_t> GetU64();
  Result<int32_t> GetI32();
  Result<int64_t> GetI64();
  Result<float> GetF32();
  Result<double> GetF64();
  Result<uint64_t> GetVarint();
  Result<std::string> GetString();
  Result<Bytes> GetBytes();

  size_t remaining() const { return size_ - pos_; }
  size_t position() const { return pos_; }
  bool exhausted() const { return pos_ >= size_; }

 private:
  Status Need(size_t n);

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

/// CRC32 (Castagnoli polynomial) used for WAL frames, BLOB page
/// checksums, reliable-transport verification, and corruption detection
/// tests. Dispatches at runtime to the fastest implementation the CPU
/// offers (see Crc32cImpl); every implementation computes the identical
/// checksum, so stored and on-wire values stay valid regardless of which
/// one produced them.
uint32_t Crc32c(const uint8_t* data, size_t n, uint32_t seed = 0);
inline uint32_t Crc32c(const Bytes& b) { return Crc32c(b.data(), b.size()); }

/// Selectable Crc32c engine. All engines produce byte-identical
/// checksums; the choice only trades speed.
enum class Crc32cImpl {
  kAuto,      ///< kHardware when the CPU supports SSE4.2, else kSlice8
  kTable,     ///< byte-at-a-time single-table software (the oracle)
  kSlice8,    ///< slicing-by-8: eight parallel table lookups per 8 bytes
  kHardware,  ///< SSE4.2 crc32 instruction (x86-64, runtime-detected)
};

/// Repoints Crc32c() at `impl`. Returns false — leaving the current
/// selection unchanged — when the requested engine is unavailable
/// (kHardware without SSE4.2 support, or in a forced-scalar build). Not
/// synchronized: call during startup or single-threaded tests. The
/// initial selection is kAuto.
bool SetCrc32cImpl(Crc32cImpl impl);
/// The engine Crc32c() currently dispatches to (never kAuto).
Crc32cImpl ActiveCrc32cImpl();

}  // namespace mmconf

#endif  // MMCONF_COMMON_BYTES_H_
