#include "compress/layered_codec.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "compress/bitstream.h"
#include "compress/local_cosine.h"
#include "compress/quantizer.h"
#include "compress/wavelet_packet.h"

namespace mmconf::compress {

namespace {

constexpr uint32_t kMagic = 0x4d4c4352;  // "MLCR"

Status AnalyzeLayer(Plane& plane, const LayerSpec& spec,
                    WaveletBasis wavelet) {
  switch (spec.basis) {
    case LayerBasis::kWavelet:
      return Dwt2D(plane, spec.levels, wavelet);
    case LayerBasis::kWaveletPacket:
      return WaveletPacket2D(plane, spec.levels, wavelet);
    case LayerBasis::kLocalCosine:
      return LocalCosine2D(plane);
  }
  return Status::InvalidArgument("unknown layer basis");
}

Status SynthesizeLayer(Plane& plane, const LayerSpec& spec,
                       WaveletBasis wavelet) {
  switch (spec.basis) {
    case LayerBasis::kWavelet:
      return Idwt2D(plane, spec.levels, wavelet);
    case LayerBasis::kWaveletPacket:
      return InverseWaveletPacket2D(plane, spec.levels, wavelet);
    case LayerBasis::kLocalCosine:
      return InverseLocalCosine2D(plane);
  }
  return Status::InvalidArgument("unknown layer basis");
}

/// Decodes one layer's payload into its synthesised residual, written
/// over `plane`.
Status DecodeLayerPayload(const uint8_t* payload, size_t size,
                          const LayerSpec& spec, WaveletBasis wavelet,
                          Plane& plane) {
  MMCONF_ASSIGN_OR_RETURN(std::vector<int32_t> coefficients,
                          DecodeCoefficients(payload, size, plane.data.size()));
  MMCONF_RETURN_IF_ERROR(Dequantize(coefficients, spec.quant_step, plane));
  return SynthesizeLayer(plane, spec, wavelet);
}

}  // namespace

const char* LayerBasisToString(LayerBasis basis) {
  switch (basis) {
    case LayerBasis::kWavelet:
      return "wavelet";
    case LayerBasis::kWaveletPacket:
      return "wavelet-packet";
    case LayerBasis::kLocalCosine:
      return "local-cosine";
  }
  return "unknown";
}

LayeredCodec::LayeredCodec(CodecOptions options)
    : options_(std::move(options)) {}

Result<Bytes> LayeredCodec::Encode(const media::Image& image) const {
  if (options_.layers.empty()) {
    return Status::InvalidArgument("codec needs at least one layer");
  }
  if (options_.layers.front().basis != LayerBasis::kWavelet) {
    return Status::InvalidArgument(
        "the main approximation layer must use the wavelet basis");
  }
  for (const LayerSpec& spec : options_.layers) {
    if (!(spec.quant_step > 0) || !std::isfinite(spec.quant_step)) {
      return Status::InvalidArgument(
          "quantization step must be positive and finite");
    }
    if (spec.basis != LayerBasis::kLocalCosine &&
        spec.levels > MaxDwtLevels(image.width(), image.height())) {
      return Status::InvalidArgument(
          "image " + std::to_string(image.width()) + "x" +
          std::to_string(image.height()) + " cannot support " +
          std::to_string(spec.levels) + " decomposition levels");
    }
    if (spec.basis == LayerBasis::kLocalCosine &&
        (image.width() % kLocalCosineBlock != 0 ||
         image.height() % kLocalCosineBlock != 0)) {
      return Status::InvalidArgument(
          "local-cosine layer needs dimensions divisible by 8");
    }
  }

  Plane residual = PlaneFromImage(image);
  ByteWriter header;
  header.PutU32(kMagic);
  header.PutI32(image.width());
  header.PutI32(image.height());
  header.PutU8(static_cast<uint8_t>(options_.wavelet));
  header.PutVarint(options_.layers.size());
  std::vector<Bytes> payloads;
  // One scratch plane and one coefficient buffer serve every layer:
  // analyse -> quantise -> dequantise -> synthesise -> subtract.
  Plane scratch(image.width(), image.height());
  std::vector<int32_t> coefficients;
  for (size_t k = 0; k < options_.layers.size(); ++k) {
    const LayerSpec& spec = options_.layers[k];
    scratch.data = residual.data;
    MMCONF_RETURN_IF_ERROR(AnalyzeLayer(scratch, spec, options_.wavelet));
    Quantize(scratch, spec.quant_step, coefficients);
    payloads.push_back(EncodeCoefficients(coefficients));
    header.PutU8(static_cast<uint8_t>(spec.basis));
    header.PutU8(static_cast<uint8_t>(spec.levels));
    header.PutF64(spec.quant_step);
    header.PutVarint(payloads.back().size());
    // No layer follows the last one to encode what it leaves.
    if (k + 1 == options_.layers.size()) break;
    // Reconstruct what the decoder will see and subtract it, so the next
    // layer encodes (and compensates for) this layer's quantization
    // artifacts.
    MMCONF_RETURN_IF_ERROR(Dequantize(coefficients, spec.quant_step, scratch));
    MMCONF_RETURN_IF_ERROR(SynthesizeLayer(scratch, spec, options_.wavelet));
    for (size_t i = 0; i < residual.data.size(); ++i) {
      residual.data[i] -= scratch.data[i];
    }
  }
  Bytes out = header.Take();
  for (const Bytes& payload : payloads) {
    out.insert(out.end(), payload.begin(), payload.end());
  }
  return out;
}

Result<Bytes> LayeredCodec::EncodeToBudget(const media::Image& image,
                                           size_t byte_budget,
                                           int iterations) const {
  // Scale 1.0 = configured quality; larger scale = coarser steps =
  // smaller stream. Find the smallest sufficient scale.
  auto encode_scaled = [&](double scale) -> Result<Bytes> {
    CodecOptions scaled = options_;
    for (LayerSpec& layer : scaled.layers) layer.quant_step *= scale;
    return LayeredCodec(scaled).Encode(image);
  };
  MMCONF_ASSIGN_OR_RETURN(Bytes at_unit, encode_scaled(1.0));
  if (at_unit.size() <= byte_budget) return at_unit;

  double lo = 1.0, hi = 1.0;
  Bytes best;
  // Grow hi until the stream fits (cap the search at 4096x coarser).
  while (hi < 4096.0) {
    hi *= 2.0;
    MMCONF_ASSIGN_OR_RETURN(Bytes attempt, encode_scaled(hi));
    if (attempt.size() <= byte_budget) {
      best = std::move(attempt);
      break;
    }
    lo = hi;
  }
  if (best.empty()) {
    return Status::ResourceExhausted(
        "budget of " + std::to_string(byte_budget) +
        " bytes unreachable even at coarsest quantization");
  }
  for (int i = 0; i < iterations; ++i) {
    double mid = (lo + hi) / 2.0;
    MMCONF_ASSIGN_OR_RETURN(Bytes attempt, encode_scaled(mid));
    if (attempt.size() <= byte_budget) {
      hi = mid;
      best = std::move(attempt);
    } else {
      lo = mid;
    }
  }
  return best;
}

Result<StreamInfo> LayeredCodec::Inspect(const Bytes& stream) {
  ByteReader r(stream);
  MMCONF_ASSIGN_OR_RETURN(uint32_t magic, r.GetU32());
  if (magic != kMagic) return Status::Corruption("bad layered-codec magic");
  StreamInfo info;
  MMCONF_ASSIGN_OR_RETURN(info.width, r.GetI32());
  MMCONF_ASSIGN_OR_RETURN(info.height, r.GetI32());
  if (info.width <= 0 || info.height <= 0) {
    return Status::Corruption("bad stream dimensions");
  }
  MMCONF_ASSIGN_OR_RETURN(uint8_t wavelet, r.GetU8());
  if (wavelet > 1) return Status::Corruption("bad wavelet basis");
  info.wavelet = static_cast<WaveletBasis>(wavelet);
  MMCONF_ASSIGN_OR_RETURN(uint64_t num_layers, r.GetVarint());
  if (num_layers == 0 || num_layers > 255) {
    return Status::Corruption("bad layer count");
  }
  std::vector<uint64_t> payload_sizes;
  for (uint64_t i = 0; i < num_layers; ++i) {
    LayerSpec spec;
    MMCONF_ASSIGN_OR_RETURN(uint8_t basis, r.GetU8());
    if (basis > 2) return Status::Corruption("bad layer basis");
    spec.basis = static_cast<LayerBasis>(basis);
    MMCONF_ASSIGN_OR_RETURN(uint8_t levels, r.GetU8());
    spec.levels = levels;
    MMCONF_ASSIGN_OR_RETURN(spec.quant_step, r.GetF64());
    if (!(spec.quant_step > 0) || !std::isfinite(spec.quant_step)) {
      return Status::Corruption("bad quantization step");
    }
    MMCONF_ASSIGN_OR_RETURN(uint64_t payload_size, r.GetVarint());
    info.layers.push_back(spec);
    payload_sizes.push_back(payload_size);
  }
  info.header_bytes = r.position();
  size_t offset = r.position();
  for (uint64_t size : payload_sizes) {
    // A wrapped sum would put a layer's end below the header.
    if (size > std::numeric_limits<size_t>::max() - offset) {
      return Status::Corruption("layer payload sizes overflow");
    }
    offset += size;
    info.layer_end.push_back(offset);
  }
  // A stream shorter than the declared payloads is a valid *prefix* (the
  // progressive-transfer case): the header stays authoritative and
  // Decode guards that requested layers are physically present.
  info.total_bytes = offset;
  return info;
}

Result<media::Image> LayeredCodec::Decode(const Bytes& stream,
                                          int max_layers) {
  MMCONF_ASSIGN_OR_RETURN(StreamInfo info, Inspect(stream));
  size_t use = info.layers.size();
  if (max_layers >= 0) {
    use = std::min(use, static_cast<size_t>(max_layers));
  }
  if (use == 0) {
    return Status::InvalidArgument("must decode at least the base layer");
  }
  Plane sum(info.width, info.height);
  Plane plane(info.width, info.height);
  size_t begin = info.header_bytes;
  for (size_t k = 0; k < use; ++k) {
    size_t end = info.layer_end[k];
    if (end > stream.size()) {
      return Status::FailedPrecondition(
          "layer " + std::to_string(k) +
          " is not fully present in this stream prefix");
    }
    MMCONF_RETURN_IF_ERROR(DecodeLayerPayload(stream.data() + begin,
                                              end - begin, info.layers[k],
                                              info.wavelet, plane));
    for (size_t i = 0; i < sum.data.size(); ++i) {
      sum.data[i] += plane.data[i];
    }
    begin = end;
  }
  return ImageFromPlane(sum);
}

Result<int> LayeredCodec::LayersWithinBudget(const Bytes& stream,
                                             size_t byte_budget) {
  MMCONF_ASSIGN_OR_RETURN(StreamInfo info, Inspect(stream));
  // A layer counts only when it fits the budget AND is physically
  // present (the stream may itself be a prefix).
  size_t effective = std::min(byte_budget, stream.size());
  int layers = 0;
  for (size_t k = 0; k < info.layer_end.size(); ++k) {
    if (info.layer_end[k] <= effective) layers = static_cast<int>(k) + 1;
  }
  return layers;
}

Result<media::Image> LayeredCodec::DecodePrefix(const Bytes& stream,
                                                size_t byte_budget) {
  MMCONF_ASSIGN_OR_RETURN(int layers, LayersWithinBudget(stream, byte_budget));
  if (layers == 0) {
    return Status::FailedPrecondition(
        "byte budget " + std::to_string(byte_budget) +
        " cannot cover the base layer");
  }
  return Decode(stream, layers);
}

Result<media::Image> LayeredCodec::DecodeThumbnail(const Bytes& stream,
                                                   int scale_log2) {
  MMCONF_ASSIGN_OR_RETURN(StreamInfo info, Inspect(stream));
  const LayerSpec& base = info.layers.front();
  if (scale_log2 < 0 || scale_log2 > base.levels) {
    return Status::InvalidArgument("thumbnail scale must be in [0, " +
                                   std::to_string(base.levels) + "]");
  }
  // Base payload bounds: header end .. layer_end[0].
  if (info.layer_end[0] > stream.size()) {
    return Status::FailedPrecondition(
        "base layer is not fully present in this stream prefix");
  }
  const uint8_t* payload = stream.data() + info.header_bytes;
  const size_t payload_size = info.layer_end[0] - info.header_bytes;
  Plane analyzed(info.width, info.height);
  MMCONF_ASSIGN_OR_RETURN(
      std::vector<int32_t> coefficients,
      DecodeCoefficients(payload, payload_size, analyzed.data.size()));
  MMCONF_RETURN_IF_ERROR(Dequantize(coefficients, base.quant_step, analyzed));
  MMCONF_ASSIGN_OR_RETURN(
      Plane thumb,
      ReconstructAtScale(analyzed, base.levels, scale_log2, info.wavelet));
  return ImageFromPlane(thumb);
}

}  // namespace mmconf::compress
