#ifndef MMCONF_PREFETCH_PREDICTOR_H_
#define MMCONF_PREFETCH_PREDICTOR_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "cpnet/assignment.h"
#include "doc/document.h"
#include "obs/metrics.h"

namespace mmconf::prefetch {

/// A (component, presentation) pair worth having in the client's buffer,
/// with its predicted usefulness and delivery cost.
struct PrefetchCandidate {
  std::string component;
  std::string presentation;
  double score = 0;       ///< higher = more likely to be needed next
  size_t cost_bytes = 0;  ///< bytes to deliver this presentation
};

/// Preference-based prediction of likely components (the paper's Section
/// 4.4 / [12] "Predicting Likely Components in CP-net based Multimedia
/// Systems"): "we download components most likely to be requested by the
/// user, using the user's buffer as a cache."
///
/// Model: the viewer's next action is an explicit choice (component c
/// pinned to value v). The author's CPT rankings act as the prior — a
/// choice of a highly-ranked presentation (given the current
/// configuration's parent values) is more likely than a poorly-ranked
/// one. For each hypothetical next choice, the optimal completion
/// determines what becomes visible; every visible primitive presentation
/// accumulates the choice's prior weight. The accumulated weight ranks
/// prefetch candidates.
class PrefetchPredictor {
 public:
  /// `document` must be finalized and outlive the predictor.
  explicit PrefetchPredictor(const doc::MultimediaDocument* document)
      : document_(document) {}

  /// Ranks candidates given the current shared configuration. Items the
  /// current configuration already shows are excluded (the client holds
  /// them). Returns candidates sorted by descending score.
  ///
  /// Hot path: one unconstrained optimum is computed up front, each
  /// hypothetical choice re-sweeps only the chosen variable's descendant
  /// cone (CpNet::RecompleteInto into a reused scratch assignment),
  /// visibility is answered by one bulk pass per completion, and weights
  /// accumulate in a dense (variable, value)-indexed table resolved to
  /// names once at the end. Produces byte-identical output to the
  /// straightforward baseline ranker (full optimal completion and
  /// per-component string queries per hypothetical choice) that the
  /// tests and the prefetch bench keep as its oracle.
  Result<std::vector<PrefetchCandidate>> RankCandidates(
      const cpnet::Assignment& current) const;

  /// Publishes ranking work into `prefetch.rank.*`: a call counter and a
  /// candidates-per-call histogram (a deterministic work proxy — wall
  /// time would break seed-for-seed metric reproducibility). May be null
  /// to detach; must outlive the predictor.
  void SetObserver(obs::MetricsRegistry* metrics);

 private:
  const doc::MultimediaDocument* document_;
  /// Mutable: RankCandidates is logically const; observation is not a
  /// semantic mutation.
  mutable obs::Counter* m_rank_calls_ = nullptr;
  mutable obs::Histogram* m_rank_candidates_ = nullptr;
};

/// The one candidate order: score descending, then (component,
/// presentation) ascending. It is a total order over distinct keys, so
/// every ranker that collects the same candidates returns the same
/// sequence, however it collected them.
void SortCandidates(std::vector<PrefetchCandidate>* candidates);

/// Greedy plan: the highest-score candidates that fit a byte budget
/// (knapsack-by-rank, the natural policy when scores are likelihoods and
/// the buffer drains in rank order). Zero-cost candidates are skipped —
/// there is nothing to deliver, and admitting them would make plans for
/// tied budgets depend on incidental rank order.
std::vector<PrefetchCandidate> PlanWithinBudget(
    std::vector<PrefetchCandidate> ranked, size_t budget_bytes);

}  // namespace mmconf::prefetch

#endif  // MMCONF_PREFETCH_PREDICTOR_H_
