#include "prefetch/predictor.h"

#include <algorithm>

namespace mmconf::prefetch {

using cpnet::Assignment;
using cpnet::ValueId;
using cpnet::VarId;

void SortCandidates(std::vector<PrefetchCandidate>* candidates) {
  std::sort(candidates->begin(), candidates->end(),
            [](const PrefetchCandidate& a, const PrefetchCandidate& b) {
              if (a.score != b.score) return a.score > b.score;
              if (a.component != b.component) return a.component < b.component;
              return a.presentation < b.presentation;
            });
}

void PrefetchPredictor::SetObserver(obs::MetricsRegistry* metrics) {
  if (metrics != nullptr) {
    m_rank_calls_ = metrics->GetCounter("prefetch.rank.calls");
    m_rank_candidates_ = metrics->GetHistogram("prefetch.rank.candidates",
                                               {4, 16, 64, 256, 1024});
  } else {
    m_rank_calls_ = nullptr;
    m_rank_candidates_ = nullptr;
  }
  // The ranking hot loop is RecompleteInto on the document's CP-net;
  // surface its per-phase counters (cpnet.recomplete.*) alongside the
  // predictor's own.
  if (document_ != nullptr) document_->net().SetObserver(metrics);
}

Result<std::vector<PrefetchCandidate>> PrefetchPredictor::RankCandidates(
    const Assignment& current) const {
  const doc::MultimediaDocument& document = *document_;
  const cpnet::CpNet& net = document.net();
  if (current.size() != net.num_variables() || !current.IsComplete()) {
    return Status::InvalidArgument(
        "current configuration must be a full assignment");
  }
  const size_t num_components = document.num_components();

  // Resolve each component to its primitive form once (composites map to
  // nullptr); every inner-loop query below is then a plain index.
  std::vector<const doc::PrimitiveMultimediaComponent*> primitives(
      num_components);
  for (size_t j = 0; j < num_components; ++j) {
    primitives[j] = document.ComponentAt(static_cast<VarId>(j))->AsPrimitive();
  }

  // Dense weight table over (component variable, domain value):
  // offsets[j] is component j's base slot. Accumulation happens in the
  // same outer (variable, rank position) order as the baseline's map, so
  // the floating-point sums come out bit-identical.
  std::vector<size_t> offsets(num_components + 1, 0);
  for (size_t j = 0; j < num_components; ++j) {
    offsets[j + 1] =
        offsets[j] + static_cast<size_t>(net.DomainSize(static_cast<VarId>(j)));
  }
  std::vector<double> weights(offsets[num_components], 0.0);

  // All hypothetical single-choice completions share the unconstrained
  // optimum as their base: pinning one variable only re-sweeps its
  // descendant cone.
  MMCONF_ASSIGN_OR_RETURN(Assignment base,
                          net.OptimalCompletion(Assignment(
                              net.num_variables())));

  std::vector<char> current_visible;
  MMCONF_RETURN_IF_ERROR(document.ComputeVisibility(current,
                                                    &current_visible));

  Assignment completion(net.num_variables());  // reused scratch
  std::vector<char> visible;                   // reused scratch

  for (size_t i = 0; i < num_components; ++i) {
    VarId var = static_cast<VarId>(i);
    // Prior over the viewer's next choice on this component: the
    // author's ranking given the *current* parent values (position decay
    // 1, 1/2, 1/3, ...).
    MMCONF_ASSIGN_OR_RETURN(size_t row, net.RowFor(var, current));
    const cpnet::PreferenceRanking* ranking =
        net.CptOf(var).RankingOrNull(row);
    if (ranking == nullptr) {
      return net.CptOf(var).Ranking(row).status();  // cold: same error
    }
    for (size_t position = 0; position < ranking->size(); ++position) {
      ValueId value = (*ranking)[position];
      if (value == current.Get(var)) continue;  // Already displayed.
      double choice_weight = 1.0 / static_cast<double>(position + 1);
      // Hypothetical next choice: pin this component to `value` and
      // re-sweep only its descendant cone over the shared base optimum.
      MMCONF_RETURN_IF_ERROR(
          net.RecompleteInto(base, var, value, &completion));
      MMCONF_RETURN_IF_ERROR(document.ComputeVisibility(completion,
                                                        &visible));
      // Everything visible under the completion but not under the
      // current configuration is a prefetch candidate.
      for (size_t j = 0; j < num_components; ++j) {
        const doc::PrimitiveMultimediaComponent* primitive = primitives[j];
        if (primitive == nullptr) continue;
        if (!visible[j]) continue;
        VarId target_var = static_cast<VarId>(j);
        ValueId completed = completion.Get(target_var);
        if (completed == current.Get(target_var) && current_visible[j]) {
          continue;  // Client already has it.
        }
        const doc::MMPresentation& presentation =
            primitive->presentations()[static_cast<size_t>(completed)];
        if (presentation.kind == doc::PresentationKind::kHidden) continue;
        weights[offsets[j] + static_cast<size_t>(completed)] +=
            choice_weight;
      }
    }
  }

  // Resolve touched slots to names once, at the end. Slots only ever
  // receive strictly positive weight, so zero means untouched.
  std::vector<PrefetchCandidate> candidates;
  for (size_t j = 0; j < num_components; ++j) {
    const doc::PrimitiveMultimediaComponent* primitive = primitives[j];
    if (primitive == nullptr) continue;
    const std::vector<doc::MMPresentation>& options =
        primitive->presentations();
    for (size_t v = 0; v < options.size(); ++v) {
      double score = weights[offsets[j] + v];
      if (score <= 0.0) continue;
      PrefetchCandidate candidate;
      candidate.component = primitive->name();
      candidate.presentation = options[v].name;
      candidate.score = score;
      candidate.cost_bytes = doc::PresentationCostBytes(
          options[v], primitive->content().content_bytes);
      candidates.push_back(std::move(candidate));
    }
  }
  SortCandidates(&candidates);
  if (m_rank_calls_ != nullptr) {
    m_rank_calls_->Add();
    m_rank_candidates_->Observe(static_cast<int64_t>(candidates.size()));
  }
  return candidates;
}

std::vector<PrefetchCandidate> PlanWithinBudget(
    std::vector<PrefetchCandidate> ranked, size_t budget_bytes) {
  std::vector<PrefetchCandidate> plan;
  size_t used = 0;
  for (PrefetchCandidate& candidate : ranked) {
    // Nothing to deliver: admitting free candidates would let rank-order
    // noise decide plans, so they are dropped outright.
    if (candidate.cost_bytes == 0) continue;
    if (used + candidate.cost_bytes > budget_bytes) continue;
    used += candidate.cost_bytes;
    plan.push_back(std::move(candidate));
  }
  return plan;
}

}  // namespace mmconf::prefetch
