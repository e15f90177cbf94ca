#include "oracles/oracles.h"

#include <cmath>
#include <map>
#include <string>
#include <utility>

namespace mmconf::oracles {

using cpnet::Assignment;
using cpnet::CpNet;
using cpnet::Flip;
using cpnet::ValueId;
using cpnet::VarId;
using prefetch::PrefetchCandidate;

Result<std::vector<Assignment>> EnumerateCompletions(
    const CpNet& net, const Assignment& evidence) {
  if (evidence.size() != net.num_variables()) {
    return Status::InvalidArgument("evidence size mismatch");
  }
  std::vector<VarId> free_vars;
  for (size_t v = 0; v < net.num_variables(); ++v) {
    if (!evidence.IsAssigned(static_cast<VarId>(v))) {
      free_vars.push_back(static_cast<VarId>(v));
    }
  }
  std::vector<Assignment> outcomes;
  Assignment current = evidence;
  // Odometer enumeration over the free variables.
  std::vector<ValueId> digits(free_vars.size(), 0);
  while (true) {
    for (size_t i = 0; i < free_vars.size(); ++i) {
      current.Set(free_vars[i], digits[i]);
    }
    outcomes.push_back(current);
    size_t pos = free_vars.size();
    while (pos > 0) {
      --pos;
      if (++digits[pos] < net.DomainSize(free_vars[pos])) break;
      digits[pos] = 0;
      if (pos == 0) return outcomes;
    }
    if (free_vars.empty()) return outcomes;
  }
}

Result<Assignment> BruteForceOptimalCompletion(const CpNet& net,
                                               const Assignment& evidence) {
  MMCONF_ASSIGN_OR_RETURN(std::vector<Assignment> outcomes,
                          EnumerateCompletions(net, evidence));
  for (const Assignment& outcome : outcomes) {
    MMCONF_ASSIGN_OR_RETURN(std::vector<Flip> flips,
                            net.ImprovingFlips(outcome));
    bool blocked = false;
    for (const Flip& flip : flips) {
      // Flips on evidence variables are not available to the optimizer —
      // the viewer pinned those values.
      if (!evidence.IsAssigned(flip.var)) {
        blocked = true;
        break;
      }
    }
    if (!blocked) return outcome;
  }
  return Status::Internal(
      "no flip-free completion found; CP-net is not consistent");
}

Result<Assignment> BruteForceRecompleteFrom(const CpNet& net,
                                            const Assignment& evidence,
                                            VarId pinned, ValueId value) {
  if (evidence.size() != net.num_variables()) {
    return Status::InvalidArgument("evidence size mismatch");
  }
  if (pinned < 0 || static_cast<size_t>(pinned) >= net.num_variables()) {
    return Status::OutOfRange("no variable with id " +
                              std::to_string(pinned));
  }
  if (value < 0 || value >= net.DomainSize(pinned)) {
    return Status::OutOfRange("value " + std::to_string(value) +
                              " outside domain of \"" +
                              net.VariableName(pinned) + "\"");
  }
  Assignment extended = evidence;
  extended.Set(pinned, value);
  return BruteForceOptimalCompletion(net, extended);
}

Result<std::vector<PrefetchCandidate>> RankCandidatesBaseline(
    const doc::MultimediaDocument& document, const Assignment& current) {
  const cpnet::CpNet& net = document.net();
  if (current.size() != net.num_variables() || !current.IsComplete()) {
    return Status::InvalidArgument(
        "current configuration must be a full assignment");
  }
  // Accumulated weight per (component, presentation-name).
  std::map<std::pair<std::string, std::string>, double> weights;

  for (size_t i = 0; i < document.num_components(); ++i) {
    VarId var = static_cast<VarId>(i);
    // Prior over the viewer's next choice on this component: the
    // author's ranking given the *current* parent values (position decay
    // 1, 1/2, 1/3, ...).
    size_t row;
    {
      std::vector<ValueId> parent_values;
      for (VarId parent : net.Parents(var)) {
        parent_values.push_back(current.Get(parent));
      }
      MMCONF_ASSIGN_OR_RETURN(row, net.CptOf(var).RowIndex(parent_values));
    }
    MMCONF_ASSIGN_OR_RETURN(cpnet::PreferenceRanking ranking,
                            net.CptOf(var).Ranking(row));
    for (size_t position = 0; position < ranking.size(); ++position) {
      ValueId value = ranking[position];
      if (value == current.Get(var)) continue;  // Already displayed.
      double choice_weight = 1.0 / static_cast<double>(position + 1);
      // Hypothetical next choice: pin this component to `value`.
      Assignment evidence(net.num_variables());
      evidence.Set(var, value);
      MMCONF_ASSIGN_OR_RETURN(Assignment completion,
                              net.OptimalCompletion(evidence));
      // Everything visible under the completion but not under the
      // current configuration is a prefetch candidate.
      for (size_t j = 0; j < document.num_components(); ++j) {
        const doc::MultimediaComponent* target = document.components()[j];
        if (target->IsComposite()) continue;
        VarId target_var = static_cast<VarId>(j);
        MMCONF_ASSIGN_OR_RETURN(bool visible,
                                document.IsVisible(completion,
                                                   target->name()));
        if (!visible) continue;
        bool already_shown =
            completion.Get(target_var) == current.Get(target_var);
        if (already_shown) {
          MMCONF_ASSIGN_OR_RETURN(
              bool currently_visible,
              document.IsVisible(current, target->name()));
          if (currently_visible) continue;  // Client already has it.
        }
        MMCONF_ASSIGN_OR_RETURN(
            doc::MMPresentation presentation,
            document.PresentationFor(completion, target->name()));
        if (presentation.kind == doc::PresentationKind::kHidden) continue;
        weights[{target->name(), presentation.name}] += choice_weight;
      }
    }
  }

  std::vector<PrefetchCandidate> candidates;
  candidates.reserve(weights.size());
  for (const auto& [key, score] : weights) {
    PrefetchCandidate candidate;
    candidate.component = key.first;
    candidate.presentation = key.second;
    candidate.score = score;
    MMCONF_ASSIGN_OR_RETURN(const doc::MultimediaComponent* component,
                            document.Find(key.first));
    const doc::PrimitiveMultimediaComponent* primitive =
        component->AsPrimitive();
    // Find the presentation option by name for the cost model.
    bool priced = false;
    for (const doc::MMPresentation& option : primitive->presentations()) {
      if (option.name == key.second) {
        candidate.cost_bytes = doc::PresentationCostBytes(
            option, primitive->content().content_bytes);
        priced = true;
        break;
      }
    }
    if (!priced) {
      return Status::Internal("component \"" + key.first +
                              "\" has no presentation named \"" +
                              key.second + "\"");
    }
    candidates.push_back(std::move(candidate));
  }
  prefetch::SortCandidates(&candidates);
  return candidates;
}

TapSet TextbookTaps(compress::WaveletBasis basis) {
  if (basis == compress::WaveletBasis::kHaar) {
    const double s = 1.0 / std::sqrt(2.0);
    return {{s, s}, {s, -s}};
  }
  const double s3 = std::sqrt(3.0);
  const double norm = 4.0 * std::sqrt(2.0);
  TapSet taps;
  taps.low = {(1 + s3) / norm, (3 + s3) / norm, (3 - s3) / norm,
              (1 - s3) / norm};
  taps.high.resize(4);
  for (size_t k = 0; k < 4; ++k) {
    taps.high[k] = (k % 2 == 0 ? 1.0 : -1.0) * taps.low[3 - k];
  }
  return taps;
}

void TextbookLine(std::vector<double>& line, const TapSet& taps,
                  bool forward) {
  const size_t n = line.size();
  const size_t half = n / 2;
  if (forward) {
    std::vector<double> out(n);
    for (size_t k = 0; k < half; ++k) {
      double a = 0, d = 0;
      for (size_t m = 0; m < taps.low.size(); ++m) {
        double x = line[(2 * k + m) % n];
        a += taps.low[m] * x;
        d += taps.high[m] * x;
      }
      out[k] = a;
      out[half + k] = d;
    }
    line = out;
  } else {
    std::vector<double> out(n, 0.0);
    for (size_t k = 0; k < half; ++k) {
      for (size_t m = 0; m < taps.low.size(); ++m) {
        out[(2 * k + m) % n] +=
            taps.low[m] * line[k] + taps.high[m] * line[half + k];
      }
    }
    line = out;
  }
}

void TextbookDwt2D(compress::Plane& plane, int levels, bool forward,
                   compress::WaveletBasis basis) {
  std::vector<int> order(static_cast<size_t>(levels));
  for (int i = 0; i < levels; ++i) order[static_cast<size_t>(i)] = i;
  if (!forward) {
    for (int i = 0; i < levels; ++i) {
      order[static_cast<size_t>(i)] = levels - 1 - i;
    }
  }
  for (int level : order) {
    TapSet taps = TextbookTaps(basis);  // recomputed per level
    const int w = plane.width >> level;
    const int h = plane.height >> level;
    // Rows then gathered columns, both directions — the pass order the
    // region kernel uses, so outputs stay comparable bit for bit.
    std::vector<double> line(static_cast<size_t>(w));
    for (int y = 0; y < h; ++y) {
      for (int x = 0; x < w; ++x) {
        line[static_cast<size_t>(x)] = plane.at(x, y);
      }
      TextbookLine(line, taps, forward);
      for (int x = 0; x < w; ++x) {
        plane.at(x, y) = line[static_cast<size_t>(x)];
      }
    }
    line.resize(static_cast<size_t>(h));
    for (int x = 0; x < w; ++x) {
      for (int y = 0; y < h; ++y) {
        line[static_cast<size_t>(y)] = plane.at(x, y);
      }
      TextbookLine(line, taps, forward);
      for (int y = 0; y < h; ++y) {
        plane.at(x, y) = line[static_cast<size_t>(y)];
      }
    }
  }
}

}  // namespace mmconf::oracles
