#include "compress/bitstream.h"

#include <bit>
#include <string>

namespace mmconf::compress {

void BitWriter::FlushWord() {
  acc_bits_ -= 32;
  const uint32_t word = static_cast<uint32_t>(acc_ >> acc_bits_);
  const uint8_t out[4] = {
      static_cast<uint8_t>(word >> 24), static_cast<uint8_t>(word >> 16),
      static_cast<uint8_t>(word >> 8), static_cast<uint8_t>(word)};
  bytes_.insert(bytes_.end(), out, out + 4);
}

void BitWriter::PutUExpGolomb(uint32_t value) {
  // code(v) = unary(len(v+1)-1) ++ binary(v+1 without leading 1), which
  // is v+1 written in a field of 2*len+1 bits.
  const uint64_t v = static_cast<uint64_t>(value) + 1;
  const int len = static_cast<int>(std::bit_width(v)) - 1;
  if (len < 16) {
    Put(v, 2 * len + 1);
    return;
  }
  // 33 to 65 bits (65 for UINT32_MAX, whose v+1 is 2^32).
  Put(0, len);
  Put(v >> 1, len);
  Put(v & 1, 1);
}

void BitWriter::PutSExpGolomb(int32_t value) {
  uint32_t zigzag = value >= 0 ? static_cast<uint32_t>(value) << 1
                               : (static_cast<uint32_t>(-(value + 1)) << 1) | 1;
  PutUExpGolomb(zigzag);
}

Bytes BitWriter::Finish() {
  const int pad = (8 - acc_bits_ % 8) % 8;
  acc_ <<= pad;
  acc_bits_ += pad;
  while (acc_bits_ > 0) {
    acc_bits_ -= 8;
    bytes_.push_back(static_cast<uint8_t>(acc_ >> acc_bits_));
  }
  return std::move(bytes_);
}

uint64_t BitReader::Peek() const {
  const size_t byte = pos_ >> 3;
  uint64_t window = 0;
  if (byte + 8 <= size_) {
    for (size_t i = 0; i < 8; ++i) window = (window << 8) | data_[byte + i];
  } else {
    for (size_t i = byte; i < byte + 8; ++i) {
      window = (window << 8) | (i < size_ ? data_[i] : 0);
    }
  }
  // At least 57 of the 64 bits are the stream's (or its zero fill).
  return window << (pos_ & 7);
}

Result<bool> BitReader::GetBit() {
  if (pos_ >= total_bits_) return Exhausted();
  bool bit = (data_[pos_ >> 3] >> (7 - (pos_ & 7))) & 1;
  ++pos_;
  return bit;
}

Result<uint32_t> BitReader::GetBits(int count) {
  if (count == 0) return 0u;
  if (static_cast<size_t>(count) > total_bits_ - pos_) return Exhausted();
  const uint32_t value = static_cast<uint32_t>(Peek() >> (64 - count));
  pos_ += static_cast<size_t>(count);
  return value;
}

Result<uint32_t> BitReader::GetUExpGolomb() {
  const size_t left = total_bits_ - pos_;
  const uint64_t window = Peek();
  const int zeros = std::countl_zero(window);
  if (zeros > 32) {
    // Past the end the window reads zeros, so fewer than 33 bits left
    // means the stream ran out inside the prefix.
    if (left < 33) return Exhausted();
    pos_ += 33;
    return Status::Corruption("exp-golomb code too long");
  }
  // The prefix's terminating one is a stream bit, so it lies in the window.
  const int length = 2 * zeros + 1;
  if (static_cast<size_t>(length) > left) return Exhausted();
  uint64_t v;
  if (length <= 57) {
    v = window >> (64 - length);
    pos_ += static_cast<size_t>(length);
  } else {
    // A 59- to 65-bit code: its suffix comes from a second window.
    pos_ += static_cast<size_t>(zeros) + 1;
    v = (uint64_t{1} << zeros) | (Peek() >> (64 - zeros));
    pos_ += static_cast<size_t>(zeros);
  }
  return static_cast<uint32_t>(v - 1);
}

Result<int32_t> BitReader::GetSExpGolomb() {
  MMCONF_ASSIGN_OR_RETURN(uint32_t zigzag, GetUExpGolomb());
  if (zigzag & 1) {
    return -static_cast<int32_t>(zigzag >> 1) - 1;
  }
  return static_cast<int32_t>(zigzag >> 1);
}

Bytes EncodeCoefficients(const std::vector<int32_t>& coefficients) {
  BitWriter w;
  w.PutBits(static_cast<uint32_t>(coefficients.size()), 32);
  size_t i = 0;
  while (i < coefficients.size()) {
    uint32_t run = 0;
    while (i < coefficients.size() && coefficients[i] == 0) {
      ++run;
      ++i;
    }
    w.PutUExpGolomb(run);
    if (i < coefficients.size()) {
      // Nonzero value, biased away from zero since zero is run-coded.
      int32_t v = coefficients[i++];
      w.PutSExpGolomb(v > 0 ? v - 1 : v + 1);
      w.PutBit(v > 0);
    }
  }
  return w.Finish();
}

Result<std::vector<int32_t>> DecodeCoefficients(const uint8_t* data,
                                                size_t size,
                                                size_t expected_count) {
  BitReader r(data, size);
  MMCONF_ASSIGN_OR_RETURN(uint32_t n, r.GetBits(32));
  if (n != expected_count) {
    return Status::Corruption("stream declares " + std::to_string(n) +
                              " coefficients, expected " +
                              std::to_string(expected_count));
  }
  std::vector<int32_t> out(n);
  size_t i = 0;
  while (i < n) {
    MMCONF_ASSIGN_OR_RETURN(uint32_t run, r.GetUExpGolomb());
    if (run > n - i) return Status::Corruption("zero run overflow");
    i += run;
    if (i == n) break;
    MMCONF_ASSIGN_OR_RETURN(int32_t biased, r.GetSExpGolomb());
    MMCONF_ASSIGN_OR_RETURN(bool positive, r.GetBit());
    // Unsigned arithmetic: a corrupted stream may bias past INT32_MIN or
    // INT32_MAX, which must wrap rather than overflow.
    const uint32_t magnitude = static_cast<uint32_t>(biased);
    out[i++] = static_cast<int32_t>(positive ? magnitude + 1 : magnitude - 1);
  }
  return out;
}

}  // namespace mmconf::compress
