#include <gtest/gtest.h>

#include <cmath>

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
  EXPECT_EQ(DecodeCoefficients(encoded).value(), coefficients);
  // Sparse data compresses well below 4 bytes/coefficient.
  EXPECT_LT(encoded.size(), coefficients.size());
}

TEST(BitstreamTest, EmptyAndAllZeroCoefficients) {
  EXPECT_TRUE(DecodeCoefficients(EncodeCoefficients({})).value().empty());
  std::vector<int32_t> zeros(100, 0);
  EXPECT_EQ(DecodeCoefficients(EncodeCoefficients(zeros)).value(), zeros);
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
  std::vector<int32_t> q = Quantize(plane, step);
  Plane restored = Dequantize(q, 8, 8, step).value();
  for (size_t i = 0; i < plane.data.size(); ++i) {
    EXPECT_LE(std::abs(restored.data[i] - plane.data[i]), step);
  }
}

TEST(QuantizerTest, DeadZoneMapsSmallToZero) {
  Plane plane(2, 1);
  plane.data = {0.4, -0.9};
  std::vector<int32_t> q = Quantize(plane, 1.0);
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
  CodecOptions bad_step;
  bad_step.layers = {{LayerBasis::kWavelet, 4, 0.0}};
  EXPECT_TRUE(
      LayeredCodec(bad_step).Encode(image_).status().IsInvalidArgument());
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

}  // namespace
}  // namespace mmconf::compress
