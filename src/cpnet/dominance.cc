#include "cpnet/dominance.h"

#include <algorithm>
#include <deque>
#include <map>
#include <set>

namespace mmconf::cpnet {

Result<OutcomeRelation> CompareOutcomes(const CpNet& net,
                                        const Assignment& a,
                                        const Assignment& b,
                                        size_t max_nodes) {
  if (a == b) return OutcomeRelation::kEqual;
  MMCONF_ASSIGN_OR_RETURN(Dominance a_over_b,
                          DominanceQuery(net, a, b, max_nodes));
  if (a_over_b == Dominance::kDominates) {
    return OutcomeRelation::kFirstPreferred;
  }
  MMCONF_ASSIGN_OR_RETURN(Dominance b_over_a,
                          DominanceQuery(net, b, a, max_nodes));
  if (b_over_a == Dominance::kDominates) {
    return OutcomeRelation::kSecondPreferred;
  }
  if (a_over_b == Dominance::kAborted || b_over_a == Dominance::kAborted) {
    return OutcomeRelation::kUnknown;
  }
  return OutcomeRelation::kIncomparable;
}

Result<std::vector<Assignment>> FindImprovingSequence(
    const CpNet& net, const Assignment& better, const Assignment& worse,
    size_t max_nodes) {
  if (!better.IsComplete() || !worse.IsComplete() ||
      better.size() != net.num_variables() ||
      worse.size() != net.num_variables()) {
    return Status::InvalidArgument(
        "improving-sequence query requires two full outcomes");
  }
  if (better == worse) {
    return Status::NotFound("outcomes are equal; strict dominance fails");
  }
  std::deque<Assignment> frontier{worse};
  std::map<Assignment, Assignment> predecessor;  // child -> parent
  predecessor.emplace(worse, worse);
  while (!frontier.empty()) {
    if (predecessor.size() > max_nodes) {
      return Status::ResourceExhausted("flip-search node budget exhausted");
    }
    Assignment current = std::move(frontier.front());
    frontier.pop_front();
    MMCONF_ASSIGN_OR_RETURN(std::vector<Flip> flips,
                            net.ImprovingFlips(current));
    for (const Flip& flip : flips) {
      Assignment next = current;
      next.Set(flip.var, flip.better);
      if (predecessor.count(next) > 0) continue;
      predecessor.emplace(next, current);
      if (next == better) {
        std::vector<Assignment> path{next};
        Assignment walk = current;
        while (!(predecessor.at(walk) == walk)) {
          path.push_back(walk);
          walk = predecessor.at(walk);
        }
        path.push_back(worse);
        std::reverse(path.begin(), path.end());
        return path;
      }
      frontier.push_back(std::move(next));
    }
  }
  return Status::NotFound("no improving flip sequence exists");
}

Result<Dominance> DominanceQuery(const CpNet& net, const Assignment& better,
                                 const Assignment& worse,
                                 size_t max_nodes) {
  if (!better.IsComplete() || !worse.IsComplete() ||
      better.size() != net.num_variables() ||
      worse.size() != net.num_variables()) {
    return Status::InvalidArgument(
        "dominance query requires two full outcomes");
  }
  if (better == worse) return Dominance::kNotDominates;  // Strict order.
  std::deque<Assignment> frontier{worse};
  std::set<Assignment> visited{worse};
  while (!frontier.empty()) {
    if (visited.size() > max_nodes) return Dominance::kAborted;
    Assignment current = std::move(frontier.front());
    frontier.pop_front();
    MMCONF_ASSIGN_OR_RETURN(std::vector<Flip> flips,
                            net.ImprovingFlips(current));
    for (const Flip& flip : flips) {
      Assignment next = current;
      next.Set(flip.var, flip.better);
      if (next == better) return Dominance::kDominates;
      if (visited.insert(next).second) frontier.push_back(std::move(next));
    }
  }
  return Dominance::kNotDominates;
}

}  // namespace mmconf::cpnet
