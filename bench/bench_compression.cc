// F9 — Multi-resolution views (the paper's Fig. 9) and the
// image-compression-transfer module: rate-distortion of the multi-layered
// hybrid codec (wavelet base + wavelet-packet + local-cosine residuals),
// progressive prefix decoding, per-bandwidth adaptation, and the
// single-basis-vs-hybrid ablation the Meyer-Averbuch-Coifman scheme
// argues for.
//
// Plus the kernel ablation: the allocation-free flat DWT kernels against
// the textbook formulation in tests/oracles (runtime filter vectors,
// per-call scratch, modulo indexing) as the "before", the word-at-a-time
// zero-run coder, truncating quantiser and hoisted local-cosine block
// against their bit-at-a-time, libm-floor and select-in-loop oracles, and
// the dispatched CRC32C engine against the portable table engine — with
// bit-identity / engine-agreement checks. Results are printed and
// written as JSON (to --json_out=PATH). --smoke shrinks the inputs for a
// ctest-able perf smoke run and skips the figures and google-benchmark
// sweeps.
//
// --metrics_out=PATH dumps the obs MetricsRegistry snapshot (the
// compress.kernel.* work counters accumulated by the check pass;
// byte-identical across runs).

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "compress/best_basis.h"
#include "compress/bitstream.h"
#include "compress/layered_codec.h"
#include "compress/local_cosine.h"
#include "compress/quantizer.h"
#include "harness.h"
#include "media/synthetic.h"
#include "obs/metrics.h"
#include "oracles/oracles.h"

namespace {

using namespace mmconf;
using compress::CodecOptions;
using compress::LayerBasis;
using compress::LayeredCodec;
using compress::StreamInfo;

media::Image TestImage() {
  Rng rng(77);
  return media::MakePhantomCt({256, 256, 6, 3.0}, rng);
}

void PrintFigure9() {
  media::Image ct = TestImage();
  LayeredCodec codec;
  Bytes stream = codec.Encode(ct).value();
  StreamInfo info = LayeredCodec::Inspect(stream).value();

  std::printf("== F9: PSNR vs stream prefix (progressive layers) ==\n");
  std::printf("%-8s %-16s %-12s %-12s %-10s\n", "layers", "basis", "bytes",
              "bpp", "PSNR(dB)");
  const double pixels = 256.0 * 256.0;
  for (size_t k = 0; k < info.layers.size(); ++k) {
    media::Image decoded =
        LayeredCodec::Decode(stream, static_cast<int>(k) + 1).value();
    std::printf("%-8zu %-16s %-12zu %-12.3f %-10.2f\n", k + 1,
                compress::LayerBasisToString(info.layers[k].basis),
                info.layer_end[k],
                8.0 * static_cast<double>(info.layer_end[k]) / pixels,
                media::Image::Psnr(ct, decoded).value());
  }

  std::printf("\n== F9: per-partner resolution adaptation "
              "(2 s deadline) ==\n");
  std::printf("%-24s %-14s %-10s %-10s\n", "partner", "budget(B)",
              "layers", "PSNR(dB)");
  struct Partner {
    const char* name;
    double bandwidth;
  };
  for (Partner partner : std::vector<Partner>{{"workstation-10MB/s", 10e6},
                                              {"dsl-16KB/s", 16e3},
                                              {"isdn-4KB/s", 4e3},
                                              {"gsm-1.2KB/s", 1.2e3}}) {
    size_t budget = static_cast<size_t>(partner.bandwidth * 2.0);
    int layers = LayeredCodec::LayersWithinBudget(stream, budget).value();
    if (layers > 0) {
      media::Image view = LayeredCodec::Decode(stream, layers).value();
      std::printf("%-24s %-14zu %-10d %-10.2f\n", partner.name, budget,
                  layers, media::Image::Psnr(ct, view).value());
    } else {
      media::Image thumb = LayeredCodec::DecodeThumbnail(stream, 2).value();
      std::printf("%-24s %-14zu %-10s %dx%d thumb\n", partner.name, budget,
                  "0", thumb.width(), thumb.height());
    }
  }

  std::printf("\n== ablation: hybrid residual bases vs wavelet-only at "
              "matched rate ==\n");
  std::printf("%-28s %-12s %-10s\n", "configuration", "bytes", "PSNR(dB)");
  struct Config {
    const char* name;
    CodecOptions options;
  };
  std::vector<Config> configs;
  configs.push_back({"hybrid (wav+packet+lct)", CodecOptions{}});
  CodecOptions wavelet_only;
  wavelet_only.layers = {{LayerBasis::kWavelet, 4, 16.0},
                         {LayerBasis::kWavelet, 4, 8.0},
                         {LayerBasis::kWavelet, 4, 4.0}};
  configs.push_back({"wavelet-only residuals", wavelet_only});
  CodecOptions single;
  single.layers = {{LayerBasis::kWavelet, 4, 4.0}};
  configs.push_back({"single layer (step 4)", single});
  for (const Config& config : configs) {
    Bytes encoded = LayeredCodec(config.options).Encode(ct).value();
    media::Image decoded = LayeredCodec::Decode(encoded).value();
    std::printf("%-28s %-12zu %-10.2f\n", config.name, encoded.size(),
                media::Image::Psnr(ct, decoded).value());
  }

  std::printf("\n== rate control: EncodeToBudget ==\n");
  std::printf("%-12s %-12s %-10s\n", "budget(B)", "actual(B)", "PSNR(dB)");
  LayeredCodec rc;
  for (size_t budget : {size_t{20000}, size_t{8000}, size_t{3000}}) {
    auto constrained = rc.EncodeToBudget(ct, budget);
    if (!constrained.ok()) {
      std::printf("%-12zu (unreachable)\n", budget);
      continue;
    }
    media::Image decoded = LayeredCodec::Decode(*constrained).value();
    std::printf("%-12zu %-12zu %-10.2f\n", budget, constrained->size(),
                media::Image::Psnr(ct, decoded).value());
  }

  std::printf("\n== best-basis search (l1 cost, Daub4, depth 4) ==\n");
  std::printf("%-12s %-12s %-12s %-12s %-12s %s\n", "content", "identity",
              "pyramid-4", "uniform-4", "best", "best-leaves");
  compress::Plane smooth = compress::PlaneFromImage(ct);
  compress::Plane texture(256, 256);
  for (int y = 0; y < 256; ++y) {
    for (int x = 0; x < 256; ++x) {
      texture.at(x, y) = 100.0 * std::sin(2.0 * M_PI * x * 37 / 256.0) *
                         std::sin(2.0 * M_PI * y * 41 / 256.0);
    }
  }
  struct Content {
    const char* name;
    const compress::Plane* plane;
  };
  for (Content content : std::vector<Content>{{"ct-phantom", &smooth},
                                              {"oscillatory", &texture}}) {
    compress::BasisNode best =
        compress::BestBasisSearch(*content.plane, 4,
                                  compress::WaveletBasis::kDaub4)
            .value();
    std::printf(
        "%-12s %-12.0f %-12.0f %-12.0f %-12.0f %zu\n", content.name,
        compress::L1Cost(*content.plane),
        compress::PyramidCost(*content.plane, 4,
                              compress::WaveletBasis::kDaub4)
            .value(),
        compress::UniformPacketCost(*content.plane, 4,
                                    compress::WaveletBasis::kDaub4)
            .value(),
        best.cost, best.LeafCount());
  }
  std::printf("\n");
}

void BM_Encode(benchmark::State& state) {
  media::Image ct = TestImage();
  LayeredCodec codec;
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec.Encode(ct));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(ct.pixels().size()));
}
BENCHMARK(BM_Encode);

void BM_DecodeLayers(benchmark::State& state) {
  media::Image ct = TestImage();
  Bytes stream = LayeredCodec().Encode(ct).value();
  int layers = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(LayeredCodec::Decode(stream, layers));
  }
  state.counters["layers"] = layers;
}
BENCHMARK(BM_DecodeLayers)->Arg(1)->Arg(2)->Arg(3);

void BM_EncodeToBudget(benchmark::State& state) {
  media::Image ct = TestImage();
  LayeredCodec codec;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        codec.EncodeToBudget(ct, static_cast<size_t>(state.range(0))));
  }
}
BENCHMARK(BM_EncodeToBudget)->Arg(8000);

void BM_BestBasisSearch(benchmark::State& state) {
  media::Image ct = TestImage();
  compress::Plane plane = compress::PlaneFromImage(ct);
  for (auto _ : state) {
    benchmark::DoNotOptimize(compress::BestBasisSearch(
        plane, static_cast<int>(state.range(0)),
        compress::WaveletBasis::kDaub4));
  }
}
BENCHMARK(BM_BestBasisSearch)->Arg(2)->Arg(4);

void BM_DecodeThumbnail(benchmark::State& state) {
  media::Image ct = TestImage();
  Bytes stream = LayeredCodec().Encode(ct).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        LayeredCodec::DecodeThumbnail(stream,
                                      static_cast<int>(state.range(0))));
  }
}
BENCHMARK(BM_DecodeThumbnail)->Arg(1)->Arg(3);

// --- Kernel ablation ------------------------------------------------

struct ScenarioResult {
  std::string name;
  size_t bytes = 0;        ///< workload size (plane/buffer/encoded bytes)
  double baseline_us = 0;  ///< textbook kernel / table CRC (0: no baseline)
  double fast_us = 0;      ///< flat kernel / dispatched CRC
  bool ok = false;         ///< bit-identity / engine-agreement check
  double Speedup() const {
    return fast_us > 0 && baseline_us > 0 ? baseline_us / fast_us : 0;
  }
};

ScenarioResult RunDwtScenario(compress::WaveletBasis basis, int size,
                              int reps) {
  ScenarioResult result;
  result.name = basis == compress::WaveletBasis::kHaar ? "dwt2d-haar"
                                                       : "dwt2d-daub4";
  result.bytes =
      static_cast<size_t>(size) * static_cast<size_t>(size) * 8;
  const int levels = 3;
  Rng rng(19);
  compress::Plane input(size, size);
  for (double& v : input.data) v = rng.Uniform(-100, 100);

  // Bit-identity: the flat region kernel against the textbook pyramid,
  // forward and inverse.
  compress::Plane fast = input;
  compress::Dwt2D(fast, levels, basis).ok();
  compress::Plane reference = input;
  oracles::TextbookDwt2D(reference, levels, /*forward=*/true, basis);
  result.ok = fast.data == reference.data;
  compress::Idwt2D(fast, levels, basis).ok();
  oracles::TextbookDwt2D(reference, levels, /*forward=*/false, basis);
  result.ok = result.ok && fast.data == reference.data;

  result.baseline_us = bench::MeanWallMicros(reps, [&] {
    compress::Plane plane = input;
    oracles::TextbookDwt2D(plane, levels, true, basis);
    oracles::TextbookDwt2D(plane, levels, false, basis);
    benchmark::DoNotOptimize(plane.data.data());
  });
  result.fast_us = bench::MeanWallMicros(reps, [&] {
    compress::Plane plane = input;
    compress::Dwt2D(plane, levels, basis).ok();
    compress::Idwt2D(plane, levels, basis).ok();
    benchmark::DoNotOptimize(plane.data.data());
  });
  return result;
}

ScenarioResult RunCrcScenario(size_t buffer_bytes, int reps) {
  ScenarioResult result;
  result.name = "crc32c";
  result.bytes = buffer_bytes;
  Rng rng(29);
  std::vector<uint8_t> buffer(buffer_bytes);
  for (uint8_t& b : buffer) {
    b = static_cast<uint8_t>(rng.NextBelow(256));
  }

  // Engine agreement across every available engine, short lengths with
  // unaligned offsets plus the full buffer.
  std::vector<Crc32cImpl> engines = {Crc32cImpl::kTable,
                                     Crc32cImpl::kSlice8};
  if (SetCrc32cImpl(Crc32cImpl::kHardware)) {
    engines.push_back(Crc32cImpl::kHardware);
  }
  result.ok = true;
  for (size_t offset : {size_t{0}, size_t{3}}) {
    for (size_t n = 0; n + offset <= 260 && n + offset <= buffer_bytes;
         ++n) {
      SetCrc32cImpl(engines[0]);
      uint32_t expected = Crc32c(buffer.data() + offset, n, 0x1234);
      for (size_t e = 1; e < engines.size(); ++e) {
        SetCrc32cImpl(engines[e]);
        if (Crc32c(buffer.data() + offset, n, 0x1234) != expected) {
          result.ok = false;
        }
      }
    }
  }
  SetCrc32cImpl(engines[0]);
  uint32_t expected_full = Crc32c(buffer.data(), buffer.size());
  for (size_t e = 1; e < engines.size(); ++e) {
    SetCrc32cImpl(engines[e]);
    if (Crc32c(buffer.data(), buffer.size()) != expected_full) {
      result.ok = false;
    }
  }

  SetCrc32cImpl(Crc32cImpl::kTable);
  auto crc_buffer = [&] {
    benchmark::DoNotOptimize(Crc32c(buffer.data(), buffer.size()));
  };
  result.baseline_us = bench::MeanWallMicros(reps, crc_buffer);
  SetCrc32cImpl(Crc32cImpl::kAuto);
  result.fast_us = bench::MeanWallMicros(reps, crc_buffer);
  return result;
}

ScenarioResult RunCodecScenario(int size, int reps) {
  ScenarioResult result;
  result.name = "codec-roundtrip";
  Rng rng(77);
  media::Image ct =
      media::MakePhantomCt({size, size, 6, 3.0}, rng);
  LayeredCodec codec;
  Bytes stream = codec.Encode(ct).value();
  result.bytes = stream.size();
  media::Image decoded = LayeredCodec::Decode(stream).value();
  result.ok = media::Image::Psnr(ct, decoded).value() > 28.0;

  // No "before" codec is carried; only the current pipeline is timed.
  result.fast_us = bench::MeanWallMicros(reps, [&] {
    Bytes encoded = codec.Encode(ct).value();
    benchmark::DoNotOptimize(LayeredCodec::Decode(encoded));
  });
  return result;
}

// The coefficients a codec layer hands the entropy coder: a phantom's
// 4-level Daub4 pyramid quantised at step 8 (the base layer's shape).
std::vector<int32_t> LayerCoefficients(int size) {
  Rng rng(41);
  compress::Plane plane =
      compress::PlaneFromImage(media::MakePhantomCt({size, size, 6, 3.0}, rng));
  compress::Dwt2D(plane, 4, compress::WaveletBasis::kDaub4).ok();
  std::vector<int32_t> coefficients;
  compress::Quantize(plane, 8.0, coefficients);
  return coefficients;
}

ScenarioResult RunEntropyEncodeScenario(
    const std::vector<int32_t>& coefficients, int reps) {
  ScenarioResult result;
  result.name = "entropy-encode";
  result.bytes = coefficients.size() * sizeof(int32_t);
  result.ok = compress::EncodeCoefficients(coefficients) ==
              oracles::TextbookEncodeCoefficients(coefficients);
  result.baseline_us = bench::MeanWallMicros(reps, [&] {
    benchmark::DoNotOptimize(oracles::TextbookEncodeCoefficients(coefficients));
  });
  result.fast_us = bench::MeanWallMicros(reps, [&] {
    benchmark::DoNotOptimize(compress::EncodeCoefficients(coefficients));
  });
  return result;
}

ScenarioResult RunEntropyDecodeScenario(
    const std::vector<int32_t>& coefficients, int reps) {
  ScenarioResult result;
  result.name = "entropy-decode";
  const Bytes stream = compress::EncodeCoefficients(coefficients);
  const size_t n = coefficients.size();
  result.bytes = stream.size();
  auto fast = compress::DecodeCoefficients(stream, n);
  auto oracle = oracles::TextbookDecodeCoefficients(stream, n);
  result.ok = fast.ok() && oracle.ok() && *fast == coefficients &&
              *oracle == coefficients;
  result.baseline_us = bench::MeanWallMicros(reps, [&] {
    benchmark::DoNotOptimize(oracles::TextbookDecodeCoefficients(stream, n));
  });
  result.fast_us = bench::MeanWallMicros(reps, [&] {
    benchmark::DoNotOptimize(compress::DecodeCoefficients(stream, n));
  });
  return result;
}

// Bit patterns, so a zero of the wrong sign counts as a difference.
bool BitIdentical(const compress::Plane& a, const compress::Plane& b) {
  return a.data.size() == b.data.size() &&
         std::memcmp(a.data.data(), b.data.data(),
                     a.data.size() * sizeof(double)) == 0;
}

// Quantise then dequantise one plane, as each encoded layer does.
ScenarioResult RunQuantizeScenario(int size, int reps) {
  ScenarioResult result;
  result.name = "quantize";
  result.bytes = static_cast<size_t>(size) * static_cast<size_t>(size) * 8;
  const double step = 4.0;
  Rng rng(43);
  compress::Plane input(size, size);
  for (double& v : input.data) v = rng.Uniform(-100, 100);
  std::vector<int32_t> coefficients;
  compress::Quantize(input, step, coefficients);
  compress::Plane fast(size, size);
  compress::Dequantize(coefficients, step, fast).ok();
  const std::vector<int32_t> oracle_coefficients =
      oracles::TextbookQuantize(input, step);
  result.ok = coefficients == oracle_coefficients &&
              BitIdentical(fast, oracles::TextbookDequantize(
                                     oracle_coefficients, size, size, step)
                                     .value());
  result.baseline_us = bench::MeanWallMicros(reps, [&] {
    std::vector<int32_t> q = oracles::TextbookQuantize(input, step);
    benchmark::DoNotOptimize(oracles::TextbookDequantize(q, size, size, step));
  });
  result.fast_us = bench::MeanWallMicros(reps, [&] {
    compress::Quantize(input, step, coefficients);
    compress::Dequantize(coefficients, step, fast).ok();
    benchmark::DoNotOptimize(fast.data.data());
  });
  return result;
}

ScenarioResult RunLocalCosineScenario(int size, int reps) {
  ScenarioResult result;
  result.name = "local-cosine";
  result.bytes = static_cast<size_t>(size) * static_cast<size_t>(size) * 8;
  Rng rng(47);
  compress::Plane input(size, size);
  for (double& v : input.data) v = rng.Uniform(-100, 100);
  compress::Plane fast = input;
  compress::Plane reference = input;
  compress::LocalCosine2D(fast).ok();
  oracles::TextbookLocalCosine2D(reference, /*forward=*/true);
  result.ok = BitIdentical(fast, reference);
  compress::InverseLocalCosine2D(fast).ok();
  oracles::TextbookLocalCosine2D(reference, /*forward=*/false);
  result.ok = result.ok && BitIdentical(fast, reference);
  result.baseline_us = bench::MeanWallMicros(reps, [&] {
    compress::Plane plane = input;
    oracles::TextbookLocalCosine2D(plane, true);
    oracles::TextbookLocalCosine2D(plane, false);
    benchmark::DoNotOptimize(plane.data.data());
  });
  result.fast_us = bench::MeanWallMicros(reps, [&] {
    compress::Plane plane = input;
    compress::LocalCosine2D(plane).ok();
    compress::InverseLocalCosine2D(plane).ok();
    benchmark::DoNotOptimize(plane.data.data());
  });
  return result;
}

std::vector<ScenarioResult> RunKernelAblation(
    bool smoke, obs::MetricsRegistry* metrics) {
  // Deterministic work counters: the check passes run observed, the
  // timing loops do not (the flags are read per call inside the
  // kernels, so attach/detach order is what keeps snapshots stable).
  compress::SetKernelObserver(metrics);
  const int plane = smoke ? 64 : 256;
  const int reps = smoke ? 2 : 20;
  std::vector<ScenarioResult> results;
  results.push_back(
      RunDwtScenario(compress::WaveletBasis::kHaar, plane, reps));
  results.push_back(
      RunDwtScenario(compress::WaveletBasis::kDaub4, plane, reps));
  results.push_back(
      RunCrcScenario(smoke ? size_t{256} << 10 : size_t{4} << 20,
                     smoke ? 4 : 40));
  results.push_back(RunCodecScenario(smoke ? 64 : 256, smoke ? 1 : 5));
  compress::SetKernelObserver(nullptr);
  // The codec kernels outside the DWT run unobserved: building their
  // input transforms a plane, which must not move the DWT counters.
  const std::vector<int32_t> coefficients = LayerCoefficients(plane);
  results.push_back(RunEntropyEncodeScenario(coefficients, reps));
  results.push_back(RunEntropyDecodeScenario(coefficients, reps));
  results.push_back(RunQuantizeScenario(plane, reps));
  results.push_back(RunLocalCosineScenario(plane, reps));

  const char* impl = "table";
  if (ActiveCrc32cImpl() == Crc32cImpl::kHardware) impl = "hardware";
  if (ActiveCrc32cImpl() == Crc32cImpl::kSlice8) impl = "slice8";
  std::printf("== Codec kernels: flat/allocation-free vs textbook, "
              "CRC32C %s vs table (%s) ==\n",
              impl, smoke ? "smoke" : "full");
  std::printf("%-16s %-12s %-14s %-12s %-9s %s\n", "scenario", "bytes",
              "baseline(us)", "fast(us)", "speedup", "ok");
  for (const ScenarioResult& result : results) {
    std::printf("%-16s %-12zu %-14.1f %-12.1f %-9.1f %s\n",
                result.name.c_str(), result.bytes, result.baseline_us,
                result.fast_us, result.Speedup(),
                result.ok ? "yes" : "NO");
  }
  std::printf("\n");
  return results;
}

std::string JsonRow(const ScenarioResult& result) {
  return bench::Format(
      "{\"name\": \"%s\", \"bytes\": %zu, \"baseline_us\": %.3f, "
      "\"fast_us\": %.3f, \"speedup\": %.2f, \"ok\": %s}",
      result.name.c_str(), result.bytes, result.baseline_us, result.fast_us,
      result.Speedup(), result.ok ? "true" : "false");
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness harness(/*traced=*/false);
  if (!harness.Start(argc, argv)) return 1;
  std::vector<ScenarioResult> results =
      RunKernelAblation(harness.smoke(), harness.metrics());
  bool checks_ok = true;
  for (const ScenarioResult& result : results) {
    checks_ok = checks_ok && result.ok;
  }
  return harness.Finish(
      checks_ok,
      bench::MakeReport("compression_kernels", "scenarios", results,
                        JsonRow),
      PrintFigure9);
}
