#ifndef MMCONF_COMPRESS_BITSTREAM_H_
#define MMCONF_COMPRESS_BITSTREAM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "common/status.h"

namespace mmconf::compress {

/// Bit-level writer used by the coefficient coder. Bits collect in a
/// 64-bit accumulator and leave it as whole 32-bit words, so a code of
/// up to 32 bits costs one shift and no per-bit or per-byte work.
class BitWriter {
 public:
  BitWriter() = default;

  void PutBit(bool bit) { Put(bit ? 1 : 0, 1); }
  /// Writes `count` (0..32) low bits of `value`, most significant first.
  void PutBits(uint32_t value, int count) {
    Put(value & ((uint64_t{1} << count) - 1), count);
  }
  /// Unsigned Exp-Golomb code.
  void PutUExpGolomb(uint32_t value);
  /// Signed Exp-Golomb code (zigzag mapping).
  void PutSExpGolomb(int32_t value);

  /// Flushes partial byte (zero padded) and returns the stream.
  Bytes Finish();

  size_t bit_count() const { return bytes_.size() * 8 + acc_bits_; }

 private:
  /// Appends the `count` (0..32) low bits of `bits`; no bit above them
  /// may be set.
  void Put(uint64_t bits, int count) {
    acc_ = (acc_ << count) | bits;
    acc_bits_ += count;
    if (acc_bits_ >= 32) FlushWord();
  }
  void FlushWord();

  Bytes bytes_;
  uint64_t acc_ = 0;  // pending bits, right-aligned; only the low
  int acc_bits_ = 0;  // acc_bits_ (< 32 between calls) are meaningful
};

/// Bit-level reader; all reads are bounds-checked. Codes are decoded from
/// a 64-bit window over the stream rather than bit by bit. On a
/// Corruption the position is where a bit-at-a-time reader would have
/// stopped: the end of the stream when it ran out, 33 bits on when an
/// Exp-Golomb prefix ran past 32 zeros.
class BitReader {
 public:
  BitReader(const uint8_t* data, size_t size)
      : data_(data), size_(size), total_bits_(size * 8) {}
  explicit BitReader(const Bytes& bytes)
      : BitReader(bytes.data(), bytes.size()) {}

  Result<bool> GetBit();
  /// Reads `count` (0..32) bits, most significant first.
  Result<uint32_t> GetBits(int count);
  Result<uint32_t> GetUExpGolomb();
  Result<int32_t> GetSExpGolomb();

  size_t bits_consumed() const { return pos_; }

 private:
  /// The next 64 bits from the current position, most significant
  /// first, zero-filled past the end of the stream.
  uint64_t Peek() const;
  Status Exhausted() {
    pos_ = total_bits_;
    return Status::Corruption("bitstream exhausted");
  }

  const uint8_t* data_;
  size_t size_;
  size_t total_bits_;
  size_t pos_ = 0;  // bit position
};

/// Encodes a coefficient array with zero-run + Exp-Golomb coding: a run
/// length of zeros (unsigned EG) followed by the next nonzero value
/// (signed EG), terminated by the array length in the header. This is the
/// library's stand-in for the arithmetic coders production codecs use —
/// simple, deterministic, and strictly decodable.
Bytes EncodeCoefficients(const std::vector<int32_t>& coefficients);
/// Decodes a stream written by EncodeCoefficients. The count in its
/// header must equal `expected_count` (the caller's plane size); it is
/// checked before anything is allocated, so a corrupted count cannot ask
/// for gigabytes.
Result<std::vector<int32_t>> DecodeCoefficients(const uint8_t* data,
                                                size_t size,
                                                size_t expected_count);
inline Result<std::vector<int32_t>> DecodeCoefficients(
    const Bytes& bytes, size_t expected_count) {
  return DecodeCoefficients(bytes.data(), bytes.size(), expected_count);
}

}  // namespace mmconf::compress

#endif  // MMCONF_COMPRESS_BITSTREAM_H_
