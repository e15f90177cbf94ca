#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <utility>

#include "common/rng.h"
#include "compress/best_basis.h"
#include "compress/bitstream.h"
#include "compress/layered_codec.h"
#include "compress/local_cosine.h"
#include "compress/plane.h"
#include "compress/quantizer.h"
#include "compress/wavelet.h"
#include "compress/wavelet_packet.h"
#include "media/synthetic.h"
#include "obs/metrics.h"
#include "oracles/oracles.h"

namespace mmconf::compress {
namespace {

TEST(BitstreamTest, BitsRoundTrip) {
  BitWriter w;
  w.PutBit(true);
  w.PutBits(0b1011, 4);
  w.PutBits(0xdead, 16);
  Bytes data = w.Finish();
  BitReader r(data);
  EXPECT_TRUE(r.GetBit().value());
  EXPECT_EQ(r.GetBits(4).value(), 0b1011u);
  EXPECT_EQ(r.GetBits(16).value(), 0xdeadu);
}

TEST(BitstreamTest, ExpGolombRoundTrip) {
  BitWriter w;
  for (uint32_t v : {0u, 1u, 2u, 7u, 8u, 100u, 65535u, 1000000u}) {
    w.PutUExpGolomb(v);
  }
  for (int32_t v : {0, 1, -1, 5, -5, 1000, -100000}) {
    w.PutSExpGolomb(v);
  }
  Bytes data = w.Finish();
  BitReader r(data);
  for (uint32_t v : {0u, 1u, 2u, 7u, 8u, 100u, 65535u, 1000000u}) {
    EXPECT_EQ(r.GetUExpGolomb().value(), v);
  }
  for (int32_t v : {0, 1, -1, 5, -5, 1000, -100000}) {
    EXPECT_EQ(r.GetSExpGolomb().value(), v);
  }
}

TEST(BitstreamTest, ReaderDetectsExhaustion) {
  Bytes empty;
  BitReader r(empty);
  EXPECT_TRUE(r.GetBit().status().IsCorruption());
}

TEST(BitstreamTest, CoefficientsRoundTrip) {
  Rng rng(1);
  std::vector<int32_t> coefficients(5000, 0);
  for (size_t i = 0; i < coefficients.size(); ++i) {
    if (rng.Chance(0.1)) {
      coefficients[i] = static_cast<int32_t>(rng.UniformInt(-500, 500));
      if (coefficients[i] == 0) coefficients[i] = 1;
    }
  }
  Bytes encoded = EncodeCoefficients(coefficients);
  EXPECT_EQ(DecodeCoefficients(encoded, coefficients.size()).value(),
            coefficients);
  // Sparse data compresses well below 4 bytes/coefficient.
  EXPECT_LT(encoded.size(), coefficients.size());
}

TEST(BitstreamTest, EmptyAndAllZeroCoefficients) {
  EXPECT_TRUE(DecodeCoefficients(EncodeCoefficients({}), 0).value().empty());
  std::vector<int32_t> zeros(100, 0);
  EXPECT_EQ(DecodeCoefficients(EncodeCoefficients(zeros), 100).value(), zeros);
}

class WaveletPrTest
    : public ::testing::TestWithParam<std::tuple<WaveletBasis, int>> {};

TEST_P(WaveletPrTest, PerfectReconstruction1D) {
  auto [basis, size] = GetParam();
  Rng rng(42);
  std::vector<double> signal(static_cast<size_t>(size));
  for (double& s : signal) s = rng.Uniform(-100, 100);
  std::vector<double> original = signal;
  ASSERT_TRUE(DwtStep(signal, basis).ok());
  ASSERT_TRUE(IdwtStep(signal, basis).ok());
  for (size_t i = 0; i < signal.size(); ++i) {
    EXPECT_NEAR(signal[i], original[i], 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    BasesAndSizes, WaveletPrTest,
    ::testing::Combine(::testing::Values(WaveletBasis::kHaar,
                                         WaveletBasis::kDaub4),
                       ::testing::Values(4, 8, 16, 64, 256)));

TEST(WaveletTest, RejectsOddLength) {
  std::vector<double> signal(5, 1.0);
  EXPECT_TRUE(DwtStep(signal, WaveletBasis::kHaar).IsInvalidArgument());
}

TEST(WaveletTest, PerfectReconstruction2DMultiLevel) {
  Rng rng(7);
  for (WaveletBasis basis : {WaveletBasis::kHaar, WaveletBasis::kDaub4}) {
    Plane plane(32, 16);
    for (double& v : plane.data) v = rng.Uniform(0, 255);
    Plane original = plane;
    int levels = MaxDwtLevels(32, 16);
    EXPECT_EQ(levels, 4);
    ASSERT_TRUE(Dwt2D(plane, levels, basis).ok());
    ASSERT_TRUE(Idwt2D(plane, levels, basis).ok());
    for (size_t i = 0; i < plane.data.size(); ++i) {
      EXPECT_NEAR(plane.data[i], original.data[i], 1e-8);
    }
  }
}

TEST(WaveletTest, EnergyPreserved) {
  // Orthonormal transform: sum of squares is invariant.
  Rng rng(8);
  Plane plane(16, 16);
  for (double& v : plane.data) v = rng.Uniform(-10, 10);
  double energy_before = 0;
  for (double v : plane.data) energy_before += v * v;
  ASSERT_TRUE(Dwt2D(plane, 2, WaveletBasis::kDaub4).ok());
  double energy_after = 0;
  for (double v : plane.data) energy_after += v * v;
  EXPECT_NEAR(energy_before, energy_after, 1e-6 * energy_before);
}

TEST(WaveletTest, RoundTripPropertyAcrossBasesAndLevels) {
  // Property sweep: every basis x every feasible level count x two plane
  // shapes must reconstruct the original within tolerance.
  Rng rng(2026);
  const int shapes[][2] = {{64, 32}, {16, 16}};
  for (const auto& shape : shapes) {
    const int w = shape[0], h = shape[1];
    for (WaveletBasis basis : {WaveletBasis::kHaar, WaveletBasis::kDaub4}) {
      for (int levels = 0; levels <= MaxDwtLevels(w, h); ++levels) {
        Plane plane(w, h);
        for (double& v : plane.data) v = rng.Uniform(-255, 255);
        Plane original = plane;
        ASSERT_TRUE(Dwt2D(plane, levels, basis).ok());
        ASSERT_TRUE(Idwt2D(plane, levels, basis).ok());
        for (size_t i = 0; i < plane.data.size(); ++i) {
          ASSERT_NEAR(plane.data[i], original.data[i], 1e-8)
              << "basis " << static_cast<int>(basis) << " levels " << levels
              << " shape " << w << "x" << h << " i " << i;
        }
      }
    }
  }
}

TEST(WaveletTest, FlatKernelsMatchRuntimeFilterReference) {
  // The production kernels use static tap tables and split
  // interior/boundary loops; this pins them bit-for-bit against the
  // textbook formulation (oracles/oracles.h).
  Rng rng(17);
  for (WaveletBasis basis : {WaveletBasis::kHaar, WaveletBasis::kDaub4}) {
    const oracles::TapSet taps = oracles::TextbookTaps(basis);
    for (size_t n : {2u, 4u, 6u, 64u, 130u}) {
      std::vector<double> signal(n);
      for (double& v : signal) v = rng.Uniform(-100, 100);
      std::vector<double> expected = signal;
      oracles::TextbookLine(expected, taps, /*forward=*/true);
      std::vector<double> forward = signal;
      ASSERT_TRUE(DwtStep(forward, basis).ok());
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(forward[i], expected[i]) << "fwd n=" << n << " i=" << i;
      }
      std::vector<double> inverse_expected = forward;
      oracles::TextbookLine(inverse_expected, taps, /*forward=*/false);
      std::vector<double> inverse = forward;
      ASSERT_TRUE(IdwtStep(inverse, basis).ok());
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(inverse[i], inverse_expected[i])
            << "inv n=" << n << " i=" << i;
      }
    }
  }
}

TEST(WaveletTest, RegionKernelMatchesPerColumnReference) {
  // The vectorized column pass of Transform2DRegion must equal per-column
  // 1D transforms exactly, and everything outside the region must stay
  // untouched byte for byte.
  Rng rng(23);
  for (WaveletBasis basis : {WaveletBasis::kHaar, WaveletBasis::kDaub4}) {
    for (bool forward : {true, false}) {
      Plane plane(32, 24);
      for (double& v : plane.data) v = rng.Uniform(-50, 50);
      const int x0 = 8, y0 = 4, w = 16, h = 8;
      Plane reference = plane;
      // Reference: rows then gathered columns through the 1D steps.
      std::vector<double> line(static_cast<size_t>(w));
      for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) line[x] = reference.at(x0 + x, y0 + y);
        ASSERT_TRUE((forward ? DwtStep(line, basis)
                             : IdwtStep(line, basis))
                        .ok());
        for (int x = 0; x < w; ++x) reference.at(x0 + x, y0 + y) = line[x];
      }
      line.resize(static_cast<size_t>(h));
      for (int x = 0; x < w; ++x) {
        for (int y = 0; y < h; ++y) line[y] = reference.at(x0 + x, y0 + y);
        ASSERT_TRUE((forward ? DwtStep(line, basis)
                             : IdwtStep(line, basis))
                        .ok());
        for (int y = 0; y < h; ++y) reference.at(x0 + x, y0 + y) = line[y];
      }
      Plane actual = plane;
      ASSERT_TRUE(
          Transform2DRegion(actual, x0, y0, w, h, basis, forward).ok());
      for (int y = 0; y < plane.height; ++y) {
        for (int x = 0; x < plane.width; ++x) {
          ASSERT_EQ(actual.at(x, y), reference.at(x, y))
              << "basis " << static_cast<int>(basis) << " fwd " << forward
              << " at " << x << "," << y;
        }
      }
    }
  }
}

TEST(WaveletTest, RegionKernelValidatesArguments) {
  Plane plane(16, 16);
  EXPECT_TRUE(Transform2DRegion(plane, 0, 0, 15, 16, WaveletBasis::kHaar,
                                true)
                  .IsInvalidArgument());
  EXPECT_TRUE(Transform2DRegion(plane, 0, 0, 16, 0, WaveletBasis::kHaar,
                                true)
                  .IsInvalidArgument());
  EXPECT_TRUE(Transform2DRegion(plane, 8, 0, 16, 16, WaveletBasis::kHaar,
                                true)
                  .IsInvalidArgument());
  EXPECT_TRUE(Transform2DRegion(plane, -2, 0, 4, 4, WaveletBasis::kHaar,
                                true)
                  .IsInvalidArgument());
}

TEST(WaveletTest, KernelCountersAndScratchSteadyState) {
  obs::MetricsRegistry metrics;
  SetKernelObserver(&metrics);
  Rng rng(31);
  Plane plane(32, 32);
  for (double& v : plane.data) v = rng.Uniform(0, 255);
  Plane warm = plane;
  ASSERT_TRUE(Dwt2D(warm, 3, WaveletBasis::kDaub4).ok());
  obs::MetricsSnapshot snap = metrics.Snapshot();
  EXPECT_GT(snap.counters.at("compress.kernel.line_steps"), 0u);
  EXPECT_GT(snap.counters.at("compress.kernel.region_passes"), 0u);
  EXPECT_GT(snap.gauges.at("compress.kernel.scratch_bytes"), 0);
  // Steady state: a second identical transform must not grow the
  // per-thread scratch arena (the kernels are allocation-free once warm).
  const size_t warm_capacity = ThreadKernelScratch().capacity_bytes();
  Plane again = plane;
  ASSERT_TRUE(Dwt2D(again, 3, WaveletBasis::kDaub4).ok());
  EXPECT_EQ(ThreadKernelScratch().capacity_bytes(), warm_capacity);
  for (size_t i = 0; i < warm.data.size(); ++i) {
    ASSERT_EQ(again.data[i], warm.data[i]);
  }
  SetKernelObserver(nullptr);
}

TEST(WaveletTest, LevelsValidated) {
  Plane plane(16, 16);
  EXPECT_TRUE(Dwt2D(plane, 5, WaveletBasis::kHaar).IsInvalidArgument());
  EXPECT_TRUE(Dwt2D(plane, -1, WaveletBasis::kHaar).IsInvalidArgument());
}

TEST(WaveletTest, ThumbnailApproximatesDownscale) {
  Rng rng(9);
  media::Image img = media::MakePhantomCt({64, 64, 3, 0.0}, rng);
  Plane plane = PlaneFromImage(img);
  ASSERT_TRUE(Dwt2D(plane, 3, WaveletBasis::kHaar).ok());
  Plane thumb = ReconstructAtScale(plane, 3, 1, WaveletBasis::kHaar).value();
  EXPECT_EQ(thumb.width, 32);
  EXPECT_EQ(thumb.height, 32);
  // Mean intensity should match the original's (box-average property).
  double original_mean = 0;
  for (uint8_t p : img.pixels()) original_mean += p;
  original_mean /= static_cast<double>(img.pixels().size());
  double thumb_mean = 0;
  for (double v : thumb.data) thumb_mean += v;
  thumb_mean /= static_cast<double>(thumb.data.size());
  EXPECT_NEAR(thumb_mean, original_mean, 2.0);
}

TEST(WaveletPacketTest, PerfectReconstruction) {
  Rng rng(10);
  Plane plane(32, 32);
  for (double& v : plane.data) v = rng.Uniform(-50, 50);
  Plane original = plane;
  ASSERT_TRUE(WaveletPacket2D(plane, 3, WaveletBasis::kDaub4).ok());
  ASSERT_TRUE(InverseWaveletPacket2D(plane, 3, WaveletBasis::kDaub4).ok());
  for (size_t i = 0; i < plane.data.size(); ++i) {
    EXPECT_NEAR(plane.data[i], original.data[i], 1e-8);
  }
}

TEST(WaveletPacketTest, DiffersFromPyramid) {
  Rng rng(11);
  Plane a(16, 16);
  for (double& v : a.data) v = rng.Uniform(-50, 50);
  Plane b = a;
  ASSERT_TRUE(Dwt2D(a, 2, WaveletBasis::kHaar).ok());
  ASSERT_TRUE(WaveletPacket2D(b, 2, WaveletBasis::kHaar).ok());
  double diff = 0;
  for (size_t i = 0; i < a.data.size(); ++i) {
    diff += std::abs(a.data[i] - b.data[i]);
  }
  EXPECT_GT(diff, 1.0);  // Packet re-analyzes detail bands.
}

TEST(LocalCosineTest, PerfectReconstruction) {
  Rng rng(12);
  Plane plane(24, 16);
  for (double& v : plane.data) v = rng.Uniform(-100, 100);
  Plane original = plane;
  ASSERT_TRUE(LocalCosine2D(plane).ok());
  ASSERT_TRUE(InverseLocalCosine2D(plane).ok());
  for (size_t i = 0; i < plane.data.size(); ++i) {
    EXPECT_NEAR(plane.data[i], original.data[i], 1e-9);
  }
}

TEST(LocalCosineTest, RequiresBlockMultiple) {
  Plane plane(20, 16);
  EXPECT_TRUE(LocalCosine2D(plane).IsInvalidArgument());
}

TEST(QuantizerTest, RoundTripWithinStep) {
  Rng rng(13);
  Plane plane(8, 8);
  for (double& v : plane.data) v = rng.Uniform(-200, 200);
  const double step = 4.0;
  std::vector<int32_t> q;
  Quantize(plane, step, q);
  Plane restored(8, 8);
  ASSERT_TRUE(Dequantize(q, step, restored).ok());
  for (size_t i = 0; i < plane.data.size(); ++i) {
    EXPECT_LE(std::abs(restored.data[i] - plane.data[i]), step);
  }
}

TEST(QuantizerTest, DeadZoneMapsSmallToZero) {
  Plane plane(2, 1);
  plane.data = {0.4, -0.9};
  std::vector<int32_t> q;
  Quantize(plane, 1.0, q);
  EXPECT_EQ(q[0], 0);
  EXPECT_EQ(q[1], 0);
}

class CodecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(99);
    image_ = media::MakePhantomCt({128, 128, 5, 2.0}, rng);
  }
  media::Image image_;
};

TEST_F(CodecTest, RoundTripQualityImprovesWithLayers) {
  LayeredCodec codec;
  Bytes stream = codec.Encode(image_).value();
  StreamInfo info = LayeredCodec::Inspect(stream).value();
  ASSERT_EQ(info.layers.size(), 3u);
  double previous_psnr = 0;
  for (int layers = 1; layers <= 3; ++layers) {
    media::Image decoded = LayeredCodec::Decode(stream, layers).value();
    double psnr = media::Image::Psnr(image_, decoded).value();
    EXPECT_GT(psnr, previous_psnr)
        << "layer " << layers << " should refine the approximation";
    previous_psnr = psnr;
  }
  EXPECT_GT(previous_psnr, 30.0);  // all layers: good reconstruction
}

TEST_F(CodecTest, LaterLayersCorrectEarlierArtifacts) {
  LayeredCodec codec;
  Bytes stream = codec.Encode(image_).value();
  media::Image base = LayeredCodec::Decode(stream, 1).value();
  media::Image full = LayeredCodec::Decode(stream, -1).value();
  EXPECT_LT(media::Image::MeanAbsDifference(image_, full).value(),
            media::Image::MeanAbsDifference(image_, base).value());
}

TEST_F(CodecTest, DecodePrefixUsesOnlyFittingLayers) {
  LayeredCodec codec;
  Bytes stream = codec.Encode(image_).value();
  StreamInfo info = LayeredCodec::Inspect(stream).value();
  // Budget exactly covering the base layer.
  size_t budget = info.layer_end[0];
  EXPECT_EQ(LayeredCodec::LayersWithinBudget(stream, budget).value(), 1);
  media::Image prefix = LayeredCodec::DecodePrefix(stream, budget).value();
  media::Image base = LayeredCodec::Decode(stream, 1).value();
  EXPECT_EQ(prefix.pixels(), base.pixels());
  // Too-small budget fails loudly.
  EXPECT_TRUE(LayeredCodec::DecodePrefix(stream, 10)
                  .status()
                  .IsFailedPrecondition());
  // Full budget decodes everything.
  EXPECT_EQ(LayeredCodec::LayersWithinBudget(stream, stream.size()).value(),
            3);
}

TEST_F(CodecTest, BudgetDecodeEdgeCases) {
  LayeredCodec codec;
  Bytes stream = codec.Encode(image_).value();
  StreamInfo info = LayeredCodec::Inspect(stream).value();

  // A budget inside the header cannot cover any layer: a Status, never
  // an empty image.
  ASSERT_GT(info.header_bytes, 1u);
  EXPECT_EQ(
      LayeredCodec::LayersWithinBudget(stream, info.header_bytes - 1).value(),
      0);
  EXPECT_TRUE(LayeredCodec::DecodePrefix(stream, info.header_bytes - 1)
                  .status()
                  .IsFailedPrecondition());
  EXPECT_TRUE(
      LayeredCodec::DecodePrefix(stream, 0).status().IsFailedPrecondition());

  // A budget exactly on a layer boundary includes that layer; one byte
  // less excludes it.
  for (size_t k = 0; k < info.layer_end.size(); ++k) {
    EXPECT_EQ(
        LayeredCodec::LayersWithinBudget(stream, info.layer_end[k]).value(),
        static_cast<int>(k) + 1)
        << "boundary of layer " << k;
    EXPECT_EQ(LayeredCodec::LayersWithinBudget(stream, info.layer_end[k] - 1)
                  .value(),
              static_cast<int>(k))
        << "one byte short of layer " << k;
  }
  media::Image at_boundary =
      LayeredCodec::DecodePrefix(stream, info.layer_end[1]).value();
  media::Image two_layers = LayeredCodec::Decode(stream, 2).value();
  EXPECT_EQ(at_boundary.pixels(), two_layers.pixels());

  // Decoding zero layers is a request error, not an empty image.
  EXPECT_TRUE(LayeredCodec::Decode(stream, 0).status().IsInvalidArgument());
}

TEST_F(CodecTest, ThumbnailScales) {
  LayeredCodec codec;
  Bytes stream = codec.Encode(image_).value();
  media::Image thumb = LayeredCodec::DecodeThumbnail(stream, 2).value();
  EXPECT_EQ(thumb.width(), 32);
  EXPECT_EQ(thumb.height(), 32);
  EXPECT_TRUE(
      LayeredCodec::DecodeThumbnail(stream, 9).status().IsInvalidArgument());
}

TEST_F(CodecTest, InspectRejectsCorruptHeader) {
  LayeredCodec codec;
  Bytes stream = codec.Encode(image_).value();
  stream[0] ^= 0xff;
  EXPECT_TRUE(LayeredCodec::Inspect(stream).status().IsCorruption());
}

TEST_F(CodecTest, TruncatedStreamRejected) {
  LayeredCodec codec;
  Bytes stream = codec.Encode(image_).value();
  // Truncation inside the header is corruption.
  Bytes broken_header(stream.begin(), stream.begin() + 20);
  EXPECT_TRUE(
      LayeredCodec::Inspect(broken_header).status().IsCorruption());
  // Truncation inside the payload is a valid stream *prefix* (the
  // progressive-transfer case): the header still parses, present layers
  // decode, absent layers are refused loudly.
  StreamInfo info = LayeredCodec::Inspect(stream).value();
  Bytes prefix(stream.begin(),
               stream.begin() + static_cast<long>(info.layer_end[0] + 10));
  StreamInfo prefix_info = LayeredCodec::Inspect(prefix).value();
  EXPECT_EQ(prefix_info.total_bytes, info.total_bytes);  // declared total
  EXPECT_EQ(
      LayeredCodec::LayersWithinBudget(prefix, prefix.size()).value(), 1);
  EXPECT_TRUE(LayeredCodec::Decode(prefix, 1).ok());
  EXPECT_TRUE(LayeredCodec::Decode(prefix, 2).status()
                  .IsFailedPrecondition());
}

TEST_F(CodecTest, SmallerQuantStepCostsMoreBytes) {
  CodecOptions coarse;
  coarse.layers = {{LayerBasis::kWavelet, 4, 32.0}};
  CodecOptions fine;
  fine.layers = {{LayerBasis::kWavelet, 4, 4.0}};
  Bytes coarse_stream = LayeredCodec(coarse).Encode(image_).value();
  Bytes fine_stream = LayeredCodec(fine).Encode(image_).value();
  EXPECT_LT(coarse_stream.size(), fine_stream.size());
  double coarse_psnr =
      media::Image::Psnr(image_,
                         LayeredCodec::Decode(coarse_stream).value())
          .value();
  double fine_psnr =
      media::Image::Psnr(image_, LayeredCodec::Decode(fine_stream).value())
          .value();
  EXPECT_GT(fine_psnr, coarse_psnr);
}

TEST_F(CodecTest, EncodeToBudgetHitsTarget) {
  LayeredCodec codec;
  Bytes full = codec.Encode(image_).value();
  ASSERT_GT(full.size(), 4000u);
  Bytes constrained = codec.EncodeToBudget(image_, 4000).value();
  EXPECT_LE(constrained.size(), 4000u);
  // Still decodable, and coarser than the unconstrained stream.
  media::Image decoded = LayeredCodec::Decode(constrained).value();
  double constrained_psnr = media::Image::Psnr(image_, decoded).value();
  double full_psnr =
      media::Image::Psnr(image_, LayeredCodec::Decode(full).value())
          .value();
  EXPECT_LT(constrained_psnr, full_psnr);
  EXPECT_GT(constrained_psnr, 20.0);  // but still a usable image
}

TEST_F(CodecTest, EncodeToBudgetReturnsFullQualityWhenItFits) {
  LayeredCodec codec;
  Bytes full = codec.Encode(image_).value();
  Bytes roomy = codec.EncodeToBudget(image_, full.size() + 1000).value();
  EXPECT_EQ(roomy, full);
}

TEST_F(CodecTest, EncodeToBudgetImpossibleBudgetFails) {
  LayeredCodec codec;
  EXPECT_TRUE(
      codec.EncodeToBudget(image_, 16).status().IsResourceExhausted());
}

TEST_F(CodecTest, OptionValidation) {
  CodecOptions no_layers;
  no_layers.layers.clear();
  EXPECT_TRUE(
      LayeredCodec(no_layers).Encode(image_).status().IsInvalidArgument());
  CodecOptions wrong_base;
  wrong_base.layers = {{LayerBasis::kLocalCosine, 0, 8.0}};
  EXPECT_TRUE(
      LayeredCodec(wrong_base).Encode(image_).status().IsInvalidArgument());
  for (double step : {0.0, -1.0, std::numeric_limits<double>::infinity(),
                      std::numeric_limits<double>::quiet_NaN()}) {
    CodecOptions bad_step;
    bad_step.layers = {{LayerBasis::kWavelet, 4, step}};
    EXPECT_TRUE(
        LayeredCodec(bad_step).Encode(image_).status().IsInvalidArgument())
        << step;
  }
}

class BestBasisTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(31);
    media::Image img = media::MakePhantomCt({64, 64, 4, 2.0}, rng);
    smooth_ = PlaneFromImage(img);
    // Oscillatory texture: a high-frequency checkerboard-ish pattern
    // where packets beat the pyramid.
    texture_ = Plane(64, 64);
    for (int y = 0; y < 64; ++y) {
      for (int x = 0; x < 64; ++x) {
        texture_.at(x, y) =
            100.0 * std::sin(2.0 * M_PI * x * 13 / 64.0) *
            std::sin(2.0 * M_PI * y * 11 / 64.0);
      }
    }
  }
  Plane smooth_;
  Plane texture_;
};

TEST_F(BestBasisTest, PerfectReconstruction) {
  for (const Plane* input : {&smooth_, &texture_}) {
    BasisNode tree =
        BestBasisSearch(*input, 4, WaveletBasis::kDaub4).value();
    Plane work = *input;
    ASSERT_TRUE(ApplyBestBasis(work, tree, WaveletBasis::kDaub4).ok());
    ASSERT_TRUE(InvertBestBasis(work, tree, WaveletBasis::kDaub4).ok());
    for (size_t i = 0; i < work.data.size(); ++i) {
      EXPECT_NEAR(work.data[i], input->data[i], 1e-7);
    }
  }
}

TEST_F(BestBasisTest, CostMatchesAppliedTransform) {
  BasisNode tree = BestBasisSearch(smooth_, 4, WaveletBasis::kHaar).value();
  Plane work = smooth_;
  ASSERT_TRUE(ApplyBestBasis(work, tree, WaveletBasis::kHaar).ok());
  EXPECT_NEAR(L1Cost(work), tree.cost, 1e-6 * tree.cost);
}

TEST_F(BestBasisTest, BeatsEveryUniformDepthAndPyramid) {
  for (const Plane* input : {&smooth_, &texture_}) {
    BasisNode tree =
        BestBasisSearch(*input, 4, WaveletBasis::kDaub4).value();
    for (int depth = 0; depth <= 4; ++depth) {
      EXPECT_LE(tree.cost,
                UniformPacketCost(*input, depth, WaveletBasis::kDaub4)
                        .value() +
                    1e-6);
    }
    for (int levels = 1; levels <= 4; ++levels) {
      EXPECT_LE(
          tree.cost,
          PyramidCost(*input, levels, WaveletBasis::kDaub4).value() + 1e-6);
    }
  }
}

TEST_F(BestBasisTest, SmoothImagePrefersDeepLLSplits) {
  // On smooth content the best basis splits (pyramid-like); on pure
  // oscillation the chosen tree differs from the smooth one's shape.
  BasisNode smooth_tree =
      BestBasisSearch(smooth_, 4, WaveletBasis::kDaub4).value();
  EXPECT_TRUE(smooth_tree.split);
  EXPECT_GE(smooth_tree.MaxDepth(), 2);
}

TEST_F(BestBasisTest, DepthZeroIsIdentity) {
  BasisNode tree = BestBasisSearch(smooth_, 0, WaveletBasis::kHaar).value();
  EXPECT_FALSE(tree.split);
  EXPECT_EQ(tree.LeafCount(), 1u);
  EXPECT_NEAR(tree.cost, L1Cost(smooth_), 1e-9);
}

TEST_F(BestBasisTest, InfeasibleDepthRejected) {
  EXPECT_TRUE(BestBasisSearch(smooth_, 10, WaveletBasis::kHaar)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(BestBasisSearch(smooth_, -1, WaveletBasis::kHaar)
                  .status()
                  .IsInvalidArgument());
}

// --- Fast codec kernels against tests/oracles ------------------------

// Bit patterns, so -0.0 against +0.0 and NaN payloads count as
// differences.
bool BitIdentical(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// A coefficient-like value: mostly small, sometimes any int32, sometimes
// an extreme.
int32_t RandomCoefficient(Rng& rng) {
  switch (rng.NextBelow(8)) {
    case 0:
      return std::numeric_limits<int32_t>::min();
    case 1:
      return std::numeric_limits<int32_t>::max();
    case 2:
      return static_cast<int32_t>(static_cast<uint32_t>(rng.Next()));
    case 3:
      return static_cast<int32_t>(rng.UniformInt(-70000, 70000));
    default:
      return static_cast<int32_t>(rng.UniformInt(-40, 40));
  }
}

// One write or read of each BitWriter/BitReader method.
struct BitOp {
  int kind = 0;  // 0 bit, 1 bits, 2 unsigned EG, 3 signed EG
  uint32_t value = 0;
  int count = 0;
};

std::vector<BitOp> RandomBitOps(Rng& rng, int n) {
  std::vector<BitOp> ops(static_cast<size_t>(n));
  for (BitOp& op : ops) {
    op.kind = static_cast<int>(rng.NextBelow(4));
    op.value = static_cast<uint32_t>(RandomCoefficient(rng));
    if (rng.Chance(0.1)) op.value = std::numeric_limits<uint32_t>::max();
    op.count = static_cast<int>(rng.NextBelow(33));
  }
  return ops;
}

template <typename Writer>
Bytes WriteBitOps(const std::vector<BitOp>& ops,
                  std::vector<size_t>* bit_counts) {
  Writer w;
  for (const BitOp& op : ops) {
    switch (op.kind) {
      case 0:
        w.PutBit(op.value & 1);
        break;
      case 1:
        w.PutBits(op.value, op.count);
        break;
      case 2:
        w.PutUExpGolomb(op.value);
        break;
      default:
        w.PutSExpGolomb(static_cast<int32_t>(op.value));
    }
    bit_counts->push_back(w.bit_count());
  }
  return w.Finish();
}

// Replays `ops` as reads and logs every value or status with the position
// after it; reading goes on after an error, as a decoder's caller might.
template <typename Reader>
std::string ReadBitOps(const Bytes& bytes, const std::vector<BitOp>& ops) {
  Reader r(bytes);
  std::string log;
  auto note = [&](const auto& result) {
    log += result.ok() ? std::to_string(*result) : result.status().ToString();
    log += "@" + std::to_string(r.bits_consumed()) + ";";
  };
  for (const BitOp& op : ops) {
    switch (op.kind) {
      case 0:
        note(r.GetBit());
        break;
      case 1:
        note(r.GetBits(op.count));
        break;
      case 2:
        note(r.GetUExpGolomb());
        break;
      default:
        note(r.GetSExpGolomb());
    }
  }
  return log;
}

TEST(FastKernelTest, BitWriterMatchesBitAtATimeWriter) {
  Rng rng(401);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<BitOp> ops = RandomBitOps(rng, 1 + trial % 60);
    std::vector<size_t> fast_counts, oracle_counts;
    Bytes fast = WriteBitOps<BitWriter>(ops, &fast_counts);
    Bytes oracle = WriteBitOps<oracles::TextbookBitWriter>(ops, &oracle_counts);
    ASSERT_EQ(fast, oracle) << "trial " << trial;
    ASSERT_EQ(fast_counts, oracle_counts) << "trial " << trial;
  }
}

TEST(FastKernelTest, CoefficientCoderMatchesOracle) {
  Rng rng(402);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<int32_t> coefficients(rng.NextBelow(3000));
    const double density = rng.NextDouble();
    for (int32_t& c : coefficients) {
      if (rng.Chance(density)) c = RandomCoefficient(rng);
    }
    Bytes fast = EncodeCoefficients(coefficients);
    ASSERT_EQ(fast, oracles::TextbookEncodeCoefficients(coefficients))
        << "trial " << trial;
    ASSERT_EQ(DecodeCoefficients(fast, coefficients.size()).value(),
              coefficients)
        << "trial " << trial;
  }
}

TEST(FastKernelTest, BitReaderMatchesOracleOnValidTruncatedAndFlipped) {
  Rng rng(403);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<BitOp> ops = RandomBitOps(rng, 1 + trial % 40);
    std::vector<size_t> counts;
    Bytes stream = WriteBitOps<BitWriter>(ops, &counts);
    if (trial % 3 == 1 && !stream.empty()) {
      stream.resize(rng.NextBelow(stream.size()));
    } else if (trial % 3 == 2 && !stream.empty()) {
      for (int flips = 0; flips < 1 + trial % 4; ++flips) {
        stream[rng.NextBelow(stream.size())] ^=
            static_cast<uint8_t>(1u << rng.NextBelow(8));
      }
    }
    ASSERT_EQ(ReadBitOps<BitReader>(stream, ops),
              ReadBitOps<oracles::TextbookBitReader>(stream, ops))
        << "trial " << trial;
  }
}

TEST(FastKernelTest, ReaderCorruptionMatchesOracle) {
  // 33 leading zeros, then a one: too long. 20 zeros and the end: ran out.
  // A 65-bit code with its last bit missing: ran out inside the suffix.
  Bytes too_long(6, 0);
  too_long[4] = 0x40;
  Bytes short_zeros(3, 0);
  BitWriter w;
  w.PutUExpGolomb(std::numeric_limits<uint32_t>::max());
  Bytes full = w.Finish();
  ASSERT_EQ(full.size(), 9u);  // 65 bits
  Bytes cut(full.begin(), full.end() - 1);
  for (const Bytes& stream : {too_long, short_zeros, cut}) {
    BitReader fast(stream);
    oracles::TextbookBitReader oracle(stream);
    Result<uint32_t> a = fast.GetUExpGolomb();
    Result<uint32_t> b = oracle.GetUExpGolomb();
    ASSERT_TRUE(a.status().IsCorruption());
    EXPECT_EQ(a.status().ToString(), b.status().ToString());
    EXPECT_EQ(fast.bits_consumed(), oracle.bits_consumed());
  }
  // A zero run longer than the declared count.
  BitWriter runs;
  runs.PutBits(4, 32);
  runs.PutUExpGolomb(5);
  Bytes overflow = runs.Finish();
  EXPECT_EQ(DecodeCoefficients(overflow, 4).status().ToString(),
            oracles::TextbookDecodeCoefficients(overflow, 4)
                .status()
                .ToString());
}

TEST(FastKernelTest, DecodeCoefficientsMatchesOracleOnDamagedStreams) {
  Rng rng(404);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<int32_t> coefficients(1 + rng.NextBelow(500));
    for (int32_t& c : coefficients) {
      if (rng.Chance(0.3)) c = static_cast<int32_t>(rng.UniformInt(-99, 99));
    }
    Bytes stream = EncodeCoefficients(coefficients);
    if (trial % 2 == 0) {
      stream.resize(4 + rng.NextBelow(stream.size() - 3));
    } else {
      stream[4 + rng.NextBelow(stream.size() - 4)] ^=
          static_cast<uint8_t>(1u << rng.NextBelow(8));
    }
    auto fast = DecodeCoefficients(stream, coefficients.size());
    auto oracle =
        oracles::TextbookDecodeCoefficients(stream, coefficients.size());
    ASSERT_EQ(fast.ok(), oracle.ok()) << "trial " << trial;
    if (fast.ok()) {
      ASSERT_EQ(*fast, *oracle) << "trial " << trial;
    } else {
      ASSERT_EQ(fast.status().ToString(), oracle.status().ToString())
          << "trial " << trial;
    }
  }
}

TEST(FastKernelTest, ExpGolombExtremesRoundTrip) {
  const uint32_t umax = std::numeric_limits<uint32_t>::max();
  const int32_t imin = std::numeric_limits<int32_t>::min();
  const int32_t imax = std::numeric_limits<int32_t>::max();
  BitWriter w;
  w.PutUExpGolomb(umax);
  EXPECT_EQ(w.bit_count(), 65u);
  w.PutSExpGolomb(imin);  // zigzags to UINT32_MAX: 65 bits again
  EXPECT_EQ(w.bit_count(), 130u);
  w.PutSExpGolomb(imax);
  w.PutUExpGolomb(umax - 1);
  Bytes stream = w.Finish();
  BitReader r(stream);
  EXPECT_EQ(r.GetUExpGolomb().value(), umax);
  EXPECT_EQ(r.GetSExpGolomb().value(), imin);
  EXPECT_EQ(r.GetSExpGolomb().value(), imax);
  EXPECT_EQ(r.GetUExpGolomb().value(), umax - 1);
  // The same values as coefficients, through the zero-run coder.
  std::vector<int32_t> extremes = {imin, 0, imax, -1, 1, imin + 1, imax - 1};
  EXPECT_EQ(DecodeCoefficients(EncodeCoefficients(extremes), extremes.size())
                .value(),
            extremes);
}

TEST(FastKernelTest, QuantizeMatchesFloorOracle) {
  Rng rng(405);
  for (double step : {0.3, 1.0, 4.0, 7.5, 16.0, 1e-3}) {
    Plane plane(37, 11);
    for (double& v : plane.data) v = rng.Uniform(-1e4, 1e4);
    plane.data[0] = 0.0;
    plane.data[1] = -0.0;
    for (int k = 1; k <= 6; ++k) {
      plane.data[1 + static_cast<size_t>(k)] = k * step;
      plane.data[10 + static_cast<size_t>(k)] = -k * step;
    }
    std::vector<int32_t> fast;
    Quantize(plane, step, fast);
    EXPECT_EQ(fast, oracles::TextbookQuantize(plane, step)) << step;
  }
  // Exact multiples of a power-of-two step land on their integer, and
  // both zeros (and anything inside the dead zone) on 0.
  Plane plane(8, 1);
  plane.data = {0.0, -0.0, 12.0, -12.0, 4.0, -4.0, 3.999, -3.999};
  std::vector<int32_t> q;
  Quantize(plane, 4.0, q);
  EXPECT_EQ(q, (std::vector<int32_t>{0, 0, 3, -3, 1, -1, 0, 0}));
}

TEST(FastKernelTest, DequantizeMatchesBranchyOracle) {
  Rng rng(406);
  std::vector<int32_t> coefficients(500);
  for (int32_t& c : coefficients) {
    c = rng.Chance(0.4) ? 0 : RandomCoefficient(rng);
  }
  for (double step : {0.3, 1.0, 4.0, 16.0, 1e-300, 1e300}) {
    Plane fast(25, 20);
    for (double& v : fast.data) v = 123.0;  // stale scratch is overwritten
    ASSERT_TRUE(Dequantize(coefficients, step, fast).ok());
    Plane oracle =
        oracles::TextbookDequantize(coefficients, 25, 20, step).value();
    EXPECT_TRUE(BitIdentical(fast.data, oracle.data)) << step;
  }
  Plane wrong(4, 4);
  EXPECT_TRUE(Dequantize(coefficients, 1.0, wrong).IsInvalidArgument());
}

TEST(FastKernelTest, LocalCosineMatchesSelectInLoopOracle) {
  Rng rng(407);
  for (auto [w, h] : std::vector<std::pair<int, int>>{
           {8, 8}, {16, 8}, {24, 40}, {64, 64}, {192, 192}}) {
    Plane input(w, h);
    for (double& v : input.data) v = rng.Uniform(-300, 300);
    Plane fast = input;
    Plane oracle = input;
    ASSERT_TRUE(LocalCosine2D(fast).ok());
    oracles::TextbookLocalCosine2D(oracle, /*forward=*/true);
    EXPECT_TRUE(BitIdentical(fast.data, oracle.data)) << w << "x" << h;
    ASSERT_TRUE(InverseLocalCosine2D(fast).ok());
    oracles::TextbookLocalCosine2D(oracle, /*forward=*/false);
    EXPECT_TRUE(BitIdentical(fast.data, oracle.data)) << w << "x" << h;
  }
}

// The base layer's depth and each residual basis, as deep as the side
// allows.
CodecOptions OptionsFor(int side, LayerBasis residual) {
  const int max_levels = MaxDwtLevels(side, side);
  CodecOptions options;
  options.layers = {{LayerBasis::kWavelet, std::min(4, max_levels), 16.0},
                    {residual, std::min(2, max_levels), 8.0},
                    {residual, std::min(1, max_levels), 3.0}};
  return options;
}

TEST(FastKernelTest, EncodeIsByteIdenticalToOraclePath) {
  for (int side : {8, 16, 24, 40, 64, 96, 128, 192, 256}) {
    Rng rng(static_cast<uint64_t>(side));
    media::Image image = media::MakePhantomCt({side, side, 4, 2.0}, rng);
    for (LayerBasis residual : {LayerBasis::kWavelet,
                                LayerBasis::kWaveletPacket,
                                LayerBasis::kLocalCosine}) {
      CodecOptions options = OptionsFor(side, residual);
      options.wavelet =
          side % 16 == 0 ? WaveletBasis::kDaub4 : WaveletBasis::kHaar;
      Bytes fast = LayeredCodec(options).Encode(image).value();
      EXPECT_EQ(fast, oracles::TextbookEncode(image, options))
          << side << " " << LayerBasisToString(residual);
    }
    if (side % 16 == 0) {
      EXPECT_EQ(LayeredCodec().Encode(image).value(),
                oracles::TextbookEncode(image, CodecOptions{}))
          << side;
    }
  }
}

TEST(FastKernelTest, EncodeToBudgetIsByteIdenticalToOraclePath) {
  for (int side : {16, 64, 192}) {
    Rng rng(static_cast<uint64_t>(side) + 1);
    media::Image image = media::MakePhantomCt({side, side, 5, 2.0}, rng);
    for (LayerBasis residual : {LayerBasis::kWavelet,
                                LayerBasis::kWaveletPacket,
                                LayerBasis::kLocalCosine}) {
      CodecOptions options = OptionsFor(side, residual);
      const size_t full = LayeredCodec(options).Encode(image).value().size();
      for (size_t budget : {full, full / 2, full / 5}) {
        auto fast = LayeredCodec(options).EncodeToBudget(image, budget);
        auto oracle = oracles::TextbookEncodeToBudget(image, options, budget);
        ASSERT_EQ(fast.ok(), oracle.ok()) << side << " " << budget;
        if (fast.ok()) {
          EXPECT_EQ(*fast, *oracle) << side << " " << budget;
        }
      }
    }
  }
}

// --- Corrupted headers ------------------------------------------------

// A 64x64 stream whose header is rewritten to declare `sizes` as the
// payload sizes of its three layers; the payload bytes are kept.
Bytes WithPayloadSizes(const std::vector<uint64_t>& sizes) {
  Rng rng(408);
  media::Image image = media::MakePhantomCt({64, 64, 3, 2.0}, rng);
  CodecOptions options;
  Bytes stream = LayeredCodec(options).Encode(image).value();
  StreamInfo info = LayeredCodec::Inspect(stream).value();
  ByteWriter header;
  header.PutU32(0x4d4c4352);
  header.PutI32(64);
  header.PutI32(64);
  header.PutU8(static_cast<uint8_t>(options.wavelet));
  header.PutVarint(options.layers.size());
  for (size_t k = 0; k < options.layers.size(); ++k) {
    header.PutU8(static_cast<uint8_t>(options.layers[k].basis));
    header.PutU8(static_cast<uint8_t>(options.layers[k].levels));
    header.PutF64(options.layers[k].quant_step);
    header.PutVarint(sizes[k]);
  }
  Bytes out = header.Take();
  out.insert(out.end(), stream.begin() + static_cast<long>(info.header_bytes),
             stream.end());
  return out;
}

TEST(CorruptHeaderTest, WrappedPayloadSizesAreCorruption) {
  // 2^64 - 6 wraps layer 0's end to 6 bytes below the header.
  for (const Bytes& bad :
       {WithPayloadSizes({~uint64_t{0} - 5, 100, 100}),
        WithPayloadSizes({100, ~uint64_t{0} - 50, 100}),
        WithPayloadSizes({~uint64_t{0}, ~uint64_t{0}, ~uint64_t{0}})}) {
    EXPECT_TRUE(LayeredCodec::Inspect(bad).status().IsCorruption());
    EXPECT_TRUE(
        LayeredCodec::LayersWithinBudget(bad, 1000).status().IsCorruption());
    EXPECT_TRUE(LayeredCodec::Decode(bad).status().IsCorruption());
    EXPECT_TRUE(LayeredCodec::Decode(bad, 2).status().IsCorruption());
    EXPECT_TRUE(LayeredCodec::DecodePrefix(bad, 1000).status().IsCorruption());
    EXPECT_TRUE(LayeredCodec::DecodeThumbnail(bad, 1).status().IsCorruption());
  }
}

TEST(CorruptHeaderTest, NonPositiveOrNonFiniteStepIsCorruption) {
  Bytes good = WithPayloadSizes({0, 0, 0});
  ASSERT_TRUE(LayeredCodec::Inspect(good).ok());
  // magic, width, height, wavelet, layer count, then layer 0's basis and
  // levels: its step is bytes 16..23.
  ASSERT_EQ(LayeredCodec::Inspect(good).value().layers[0].quant_step, 16.0);
  for (double step : {0.0, -16.0, std::numeric_limits<double>::infinity(),
                      std::numeric_limits<double>::quiet_NaN()}) {
    Bytes bad = good;
    std::memcpy(bad.data() + 16, &step, sizeof(step));
    EXPECT_TRUE(LayeredCodec::Inspect(bad).status().IsCorruption()) << step;
  }
}

TEST(CorruptHeaderTest, CoefficientCountIsCheckedBeforeAllocating) {
  Rng rng(409);
  media::Image image = media::MakePhantomCt({64, 64, 3, 2.0}, rng);
  Bytes stream = LayeredCodec().Encode(image).value();
  StreamInfo info = LayeredCodec::Inspect(stream).value();
  // Layer 0's coder declares 2^32 - 1 coefficients for a 64x64 plane.
  for (size_t i = 0; i < 4; ++i) stream[info.header_bytes + i] = 0xff;
  EXPECT_TRUE(LayeredCodec::Decode(stream).status().IsCorruption());
  EXPECT_TRUE(LayeredCodec::DecodePrefix(stream, stream.size())
                  .status()
                  .IsCorruption());
  EXPECT_TRUE(LayeredCodec::DecodeThumbnail(stream, 2).status().IsCorruption());
  Bytes count_only = {0xff, 0xff, 0xff, 0xff};
  EXPECT_TRUE(DecodeCoefficients(count_only, 64 * 64).status().IsCorruption());
}

}  // namespace
}  // namespace mmconf::compress
