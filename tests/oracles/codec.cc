// The layered codec's kernels as they were before the word-at-a-time
// bit coder, the truncating quantiser, the hoisted local-cosine block and
// the reused encode scratch: the reference those fast paths must match
// byte for byte.

#include <array>
#include <cmath>

#include "compress/local_cosine.h"
#include "compress/wavelet_packet.h"
#include "oracles/oracles.h"

namespace mmconf::oracles {

using compress::CodecOptions;
using compress::LayerBasis;
using compress::LayerSpec;
using compress::Plane;

void TextbookBitWriter::PutBit(bool bit) {
  current_ = static_cast<uint8_t>((current_ << 1) | (bit ? 1 : 0));
  if (++bit_pos_ == 8) {
    bytes_.push_back(current_);
    current_ = 0;
    bit_pos_ = 0;
  }
}

void TextbookBitWriter::PutBits(uint32_t value, int count) {
  for (int i = count - 1; i >= 0; --i) PutBit((value >> i) & 1);
}

void TextbookBitWriter::PutUExpGolomb(uint32_t value) {
  // code(v) = unary(len(v+1)-1) ++ binary(v+1 without leading 1)
  uint64_t v = static_cast<uint64_t>(value) + 1;
  int len = 0;
  for (uint64_t t = v; t > 1; t >>= 1) ++len;
  for (int i = 0; i < len; ++i) PutBit(false);
  PutBit(true);
  for (int i = len - 1; i >= 0; --i) PutBit((v >> i) & 1);
}

void TextbookBitWriter::PutSExpGolomb(int32_t value) {
  uint32_t zigzag = value >= 0 ? static_cast<uint32_t>(value) << 1
                               : (static_cast<uint32_t>(-(value + 1)) << 1) | 1;
  PutUExpGolomb(zigzag);
}

Bytes TextbookBitWriter::Finish() {
  while (bit_pos_ != 0) PutBit(false);
  return std::move(bytes_);
}

Result<bool> TextbookBitReader::GetBit() {
  size_t byte = pos_ >> 3;
  if (byte >= bytes_.size()) {
    return Status::Corruption("bitstream exhausted");
  }
  bool bit = (bytes_[byte] >> (7 - (pos_ & 7))) & 1;
  ++pos_;
  return bit;
}

Result<uint32_t> TextbookBitReader::GetBits(int count) {
  uint32_t value = 0;
  for (int i = 0; i < count; ++i) {
    MMCONF_ASSIGN_OR_RETURN(bool bit, GetBit());
    value = (value << 1) | (bit ? 1 : 0);
  }
  return value;
}

Result<uint32_t> TextbookBitReader::GetUExpGolomb() {
  int zeros = 0;
  while (true) {
    MMCONF_ASSIGN_OR_RETURN(bool bit, GetBit());
    if (bit) break;
    if (++zeros > 32) return Status::Corruption("exp-golomb code too long");
  }
  uint64_t v = 1;
  for (int i = 0; i < zeros; ++i) {
    MMCONF_ASSIGN_OR_RETURN(bool bit, GetBit());
    v = (v << 1) | (bit ? 1 : 0);
  }
  return static_cast<uint32_t>(v - 1);
}

Result<int32_t> TextbookBitReader::GetSExpGolomb() {
  MMCONF_ASSIGN_OR_RETURN(uint32_t zigzag, GetUExpGolomb());
  if (zigzag & 1) {
    return -static_cast<int32_t>(zigzag >> 1) - 1;
  }
  return static_cast<int32_t>(zigzag >> 1);
}

Bytes TextbookEncodeCoefficients(const std::vector<int32_t>& coefficients) {
  TextbookBitWriter w;
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

Result<std::vector<int32_t>> TextbookDecodeCoefficients(
    const Bytes& bytes, size_t expected_count) {
  TextbookBitReader r(bytes);
  MMCONF_ASSIGN_OR_RETURN(uint32_t n, r.GetBits(32));
  if (n != expected_count) {
    return Status::Corruption("coefficient count mismatch");
  }
  std::vector<int32_t> out;
  out.reserve(n);
  while (out.size() < n) {
    MMCONF_ASSIGN_OR_RETURN(uint32_t run, r.GetUExpGolomb());
    if (run > n - out.size()) return Status::Corruption("zero run overflow");
    out.insert(out.end(), run, 0);
    if (out.size() == n) break;
    MMCONF_ASSIGN_OR_RETURN(int32_t biased, r.GetSExpGolomb());
    MMCONF_ASSIGN_OR_RETURN(bool positive, r.GetBit());
    out.push_back(positive ? biased + 1 : biased - 1);
  }
  return out;
}

std::vector<int32_t> TextbookQuantize(const Plane& plane, double step) {
  std::vector<int32_t> out(plane.data.size());
  for (size_t i = 0; i < plane.data.size(); ++i) {
    double v = plane.data[i] / step;
    out[i] = static_cast<int32_t>(v < 0 ? -std::floor(-v) : std::floor(v));
  }
  return out;
}

Result<Plane> TextbookDequantize(const std::vector<int32_t>& coefficients,
                                 int width, int height, double step) {
  if (coefficients.size() != static_cast<size_t>(width) * height) {
    return Status::InvalidArgument("coefficient count does not match plane");
  }
  Plane plane(width, height);
  for (size_t i = 0; i < coefficients.size(); ++i) {
    int32_t q = coefficients[i];
    if (q == 0) {
      plane.data[i] = 0;
    } else if (q > 0) {
      plane.data[i] = (q + 0.5) * step;
    } else {
      plane.data[i] = (q - 0.5) * step;
    }
  }
  return plane;
}

namespace {

constexpr int kN = compress::kLocalCosineBlock;

const std::array<std::array<double, kN>, kN>& DctMatrix() {
  static const std::array<std::array<double, kN>, kN> matrix = [] {
    std::array<std::array<double, kN>, kN> m{};
    for (int k = 0; k < kN; ++k) {
      double scale = k == 0 ? std::sqrt(1.0 / kN) : std::sqrt(2.0 / kN);
      for (int n = 0; n < kN; ++n) {
        m[k][n] = scale * std::cos(M_PI * (n + 0.5) * k / kN);
      }
    }
    return m;
  }();
  return matrix;
}

void TransformBlock(Plane& plane, int bx, int by, bool forward) {
  const auto& dct = DctMatrix();
  std::array<std::array<double, kN>, kN> tmp{}, out{};
  // Rows: tmp = (D * block^T)^T i.e. apply along x.
  for (int y = 0; y < kN; ++y) {
    for (int k = 0; k < kN; ++k) {
      double acc = 0;
      for (int n = 0; n < kN; ++n) {
        acc += (forward ? dct[k][n] : dct[n][k]) * plane.at(bx + n, by + y);
      }
      tmp[y][k] = acc;
    }
  }
  // Columns.
  for (int x = 0; x < kN; ++x) {
    for (int k = 0; k < kN; ++k) {
      double acc = 0;
      for (int n = 0; n < kN; ++n) {
        acc += (forward ? dct[k][n] : dct[n][k]) * tmp[n][x];
      }
      out[k][x] = acc;
    }
  }
  for (int y = 0; y < kN; ++y) {
    for (int x = 0; x < kN; ++x) plane.at(bx + x, by + y) = out[y][x];
  }
}

void AnalyzeLayer(Plane& plane, const LayerSpec& spec,
                  compress::WaveletBasis wavelet) {
  switch (spec.basis) {
    case LayerBasis::kWavelet:
      TextbookDwt2D(plane, spec.levels, /*forward=*/true, wavelet);
      return;
    case LayerBasis::kWaveletPacket:
      compress::WaveletPacket2D(plane, spec.levels, wavelet).ok();
      return;
    case LayerBasis::kLocalCosine:
      TextbookLocalCosine2D(plane, /*forward=*/true);
      return;
  }
}

void SynthesizeLayer(Plane& plane, const LayerSpec& spec,
                     compress::WaveletBasis wavelet) {
  switch (spec.basis) {
    case LayerBasis::kWavelet:
      TextbookDwt2D(plane, spec.levels, /*forward=*/false, wavelet);
      return;
    case LayerBasis::kWaveletPacket:
      compress::InverseWaveletPacket2D(plane, spec.levels, wavelet).ok();
      return;
    case LayerBasis::kLocalCosine:
      TextbookLocalCosine2D(plane, /*forward=*/false);
      return;
  }
}

}  // namespace

void TextbookLocalCosine2D(Plane& plane, bool forward) {
  for (int by = 0; by < plane.height; by += kN) {
    for (int bx = 0; bx < plane.width; bx += kN) {
      TransformBlock(plane, bx, by, forward);
    }
  }
}

Bytes TextbookEncode(const media::Image& image, const CodecOptions& options) {
  constexpr uint32_t kMagic = 0x4d4c4352;  // "MLCR"
  Plane residual = compress::PlaneFromImage(image);
  ByteWriter header;
  header.PutU32(kMagic);
  header.PutI32(image.width());
  header.PutI32(image.height());
  header.PutU8(static_cast<uint8_t>(options.wavelet));
  header.PutVarint(options.layers.size());
  std::vector<Bytes> payloads;
  for (const LayerSpec& spec : options.layers) {
    Plane analyzed = residual;
    AnalyzeLayer(analyzed, spec, options.wavelet);
    std::vector<int32_t> coefficients =
        TextbookQuantize(analyzed, spec.quant_step);
    payloads.push_back(TextbookEncodeCoefficients(coefficients));
    Plane reconstructed = TextbookDequantize(coefficients, image.width(),
                                             image.height(), spec.quant_step)
                              .value();
    SynthesizeLayer(reconstructed, spec, options.wavelet);
    for (size_t i = 0; i < residual.data.size(); ++i) {
      residual.data[i] -= reconstructed.data[i];
    }
    header.PutU8(static_cast<uint8_t>(spec.basis));
    header.PutU8(static_cast<uint8_t>(spec.levels));
    header.PutF64(spec.quant_step);
    header.PutVarint(payloads.back().size());
  }
  Bytes out = header.Take();
  for (const Bytes& payload : payloads) {
    out.insert(out.end(), payload.begin(), payload.end());
  }
  return out;
}

Result<Bytes> TextbookEncodeToBudget(const media::Image& image,
                                     const CodecOptions& options,
                                     size_t byte_budget, int iterations) {
  auto encode_scaled = [&](double scale) {
    CodecOptions scaled = options;
    for (LayerSpec& layer : scaled.layers) layer.quant_step *= scale;
    return TextbookEncode(image, scaled);
  };
  Bytes at_unit = encode_scaled(1.0);
  if (at_unit.size() <= byte_budget) return at_unit;

  double lo = 1.0, hi = 1.0;
  Bytes best;
  while (hi < 4096.0) {
    hi *= 2.0;
    Bytes attempt = encode_scaled(hi);
    if (attempt.size() <= byte_budget) {
      best = std::move(attempt);
      break;
    }
    lo = hi;
  }
  if (best.empty()) {
    return Status::ResourceExhausted("budget unreachable");
  }
  for (int i = 0; i < iterations; ++i) {
    double mid = (lo + hi) / 2.0;
    Bytes attempt = encode_scaled(mid);
    if (attempt.size() <= byte_budget) {
      hi = mid;
      best = std::move(attempt);
    } else {
      lo = mid;
    }
  }
  return best;
}

}  // namespace mmconf::oracles
