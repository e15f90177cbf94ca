#ifndef MMCONF_TESTS_ORACLES_ORACLES_H_
#define MMCONF_TESTS_ORACLES_ORACLES_H_

#include <vector>

#include "common/result.h"
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

}  // namespace mmconf::oracles

#endif  // MMCONF_TESTS_ORACLES_ORACLES_H_
