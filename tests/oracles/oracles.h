#ifndef MMCONF_TESTS_ORACLES_ORACLES_H_
#define MMCONF_TESTS_ORACLES_ORACLES_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "compress/layered_codec.h"
#include "compress/plane.h"
#include "compress/wavelet.h"
#include "cpnet/assignment.h"
#include "cpnet/cpnet.h"
#include "doc/document.h"
#include "prefetch/predictor.h"

namespace mmconf::oracles {

// --- CP-net ----------------------------------------------------------
// Intentionally exhaustive: the paper's argument for CP-nets is exactly
// that the topological sweep avoids this enumeration ("support fast
// algorithms for optimal configuration determination"); the ablation
// bench A1 measures the gap.

/// Enumerates every outcome consistent with `evidence` (every full
/// assignment extending it), in lexicographic order. The configuration
/// space must fit in memory — callers should check
/// ConfigurationSpaceSize() first.
Result<std::vector<cpnet::Assignment>> EnumerateCompletions(
    const cpnet::CpNet& net, const cpnet::Assignment& evidence);

/// Finds the optimal completion of `evidence` by scanning every
/// consistent outcome for the one with no improving flip among
/// non-evidence variables. For a validated acyclic CP-net this outcome
/// exists and is unique, so the result always equals
/// CpNet::OptimalCompletion — the sweep's test oracle.
Result<cpnet::Assignment> BruteForceOptimalCompletion(
    const cpnet::CpNet& net, const cpnet::Assignment& evidence);

/// Oracle for CpNet::RecompleteFrom: the brute-force optimal completion
/// of `evidence` with `pinned` additionally frozen at `value`. When
/// `evidence` assigns nothing inside pinned's descendant cone, this must
/// agree with RecompleteFrom(OptimalCompletion(evidence), pinned, value).
Result<cpnet::Assignment> BruteForceRecompleteFrom(
    const cpnet::CpNet& net, const cpnet::Assignment& evidence,
    cpnet::VarId pinned, cpnet::ValueId value);

// --- Prefetch ranking ------------------------------------------------

/// The straightforward ranker: a full optimal completion and
/// per-component string queries for every hypothetical choice.
/// PrefetchPredictor::RankCandidates must return the same candidates
/// byte for byte. `document` must be finalized.
Result<std::vector<prefetch::PrefetchCandidate>> RankCandidatesBaseline(
    const doc::MultimediaDocument& document,
    const cpnet::Assignment& current);

// --- Wavelet transform -----------------------------------------------
// The textbook DWT the flat production kernels replaced.

/// A wavelet's analysis filters.
struct TapSet {
  std::vector<double> low, high;
};

/// Filters recomputed from their defining sqrt expressions.
TapSet TextbookTaps(compress::WaveletBasis basis);

/// One 1-D step: circular `% n` indexing, incremental accumulation and a
/// fresh output vector per call. Forward leaves approximations in the
/// first half of `line` and details in the second; inverse undoes it.
void TextbookLine(std::vector<double>& line, const TapSet& taps,
                  bool forward);

/// The pyramid over the top-left `width >> level` x `height >> level`
/// region of each level: rows through TextbookLine, then columns
/// gathered and scattered one at a time, the pass order the region
/// kernel uses. Forward runs levels 0, 1, ...; inverse runs them back.
void TextbookDwt2D(compress::Plane& plane, int levels, bool forward,
                   compress::WaveletBasis basis);

// --- Layered codec kernels -------------------------------------------
// The kernels the fast codec path replaced (codec.cc): a writer and a
// reader that move one bit per call, the libm-floor quantiser, the
// three-way dequantiser and the local-cosine block that picks its matrix
// entry inside the inner loop. Production must match them bit for bit.

/// Writes one bit per call and one byte per push_back.
class TextbookBitWriter {
 public:
  void PutBit(bool bit);
  void PutBits(uint32_t value, int count);
  void PutUExpGolomb(uint32_t value);
  void PutSExpGolomb(int32_t value);
  Bytes Finish();
  size_t bit_count() const { return bytes_.size() * 8 + bit_pos_; }

 private:
  Bytes bytes_;
  uint8_t current_ = 0;
  int bit_pos_ = 0;
};

/// Returns one Result<bool> per bit.
class TextbookBitReader {
 public:
  explicit TextbookBitReader(const Bytes& bytes) : bytes_(bytes) {}
  Result<bool> GetBit();
  Result<uint32_t> GetBits(int count);
  Result<uint32_t> GetUExpGolomb();
  Result<int32_t> GetSExpGolomb();
  size_t bits_consumed() const { return pos_; }

 private:
  const Bytes& bytes_;
  size_t pos_ = 0;
};

/// The zero-run coder over TextbookBitWriter.
Bytes TextbookEncodeCoefficients(const std::vector<int32_t>& coefficients);
/// The zero-run decoder over TextbookBitReader; a count other than
/// `expected_count` is Corruption, before anything is reserved.
Result<std::vector<int32_t>> TextbookDecodeCoefficients(
    const Bytes& bytes, size_t expected_count);

/// Sign-conditional libm floor of plane/step.
std::vector<int32_t> TextbookQuantize(const compress::Plane& plane,
                                      double step);
/// Zero, (q + 0.5) * step or (q - 0.5) * step, by branch.
Result<compress::Plane> TextbookDequantize(
    const std::vector<int32_t>& coefficients, int width, int height,
    double step);

/// Blockwise 8x8 DCT-II (or its inverse) with `forward ? D[k][n] :
/// D[n][k]` chosen per product and a bounds-checked plane access.
/// Dimensions must be multiples of 8.
void TextbookLocalCosine2D(compress::Plane& plane, bool forward);

/// LayeredCodec::Encode over the kernels above (and TextbookDwt2D for
/// the wavelet layers), with a fresh plane, coefficient vector and
/// reconstruction per layer. `options` must be valid for `image`.
Bytes TextbookEncode(const media::Image& image,
                     const compress::CodecOptions& options);
/// LayeredCodec::EncodeToBudget's search over TextbookEncode.
Result<Bytes> TextbookEncodeToBudget(const media::Image& image,
                                     const compress::CodecOptions& options,
                                     size_t byte_budget, int iterations = 8);

}  // namespace mmconf::oracles

#endif  // MMCONF_TESTS_ORACLES_ORACLES_H_
