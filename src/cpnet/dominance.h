#ifndef MMCONF_CPNET_DOMINANCE_H_
#define MMCONF_CPNET_DOMINANCE_H_

#include <cstddef>
#include <vector>

#include "common/result.h"
#include "cpnet/assignment.h"
#include "cpnet/cpnet.h"

namespace mmconf::cpnet {

/// Result of a dominance query.
enum class Dominance {
  kDominates,     ///< `better` is reachable from `worse` by improving flips
  kNotDominates,  ///< exhaustive search found no flip path
  kAborted,       ///< node budget exhausted before an answer
};

/// Ceteris-paribus dominance: does the CP-net entail `better` > `worse`?
/// Performs breadth-first search over improving flips starting at `worse`,
/// looking for `better`. Worst case exponential (dominance testing in
/// CP-nets is hard, cf. Domshlak & Brafman 2002); `max_nodes` bounds the
/// search.
Result<Dominance> DominanceQuery(const CpNet& net, const Assignment& better,
                                 const Assignment& worse,
                                 size_t max_nodes = 1 << 20);

/// Relation between two outcomes under the CP-net's partial order.
enum class OutcomeRelation {
  kEqual,
  kFirstPreferred,   ///< a > b is entailed
  kSecondPreferred,  ///< b > a is entailed
  kIncomparable,     ///< neither dominance is entailed
  kUnknown,          ///< a search aborted on the node budget
};

/// Compares two full outcomes with two dominance searches. CP-nets induce
/// a *partial* order — incomparable pairs are common and meaningful (the
/// paper's author preferences deliberately leave most presentation pairs
/// unordered).
Result<OutcomeRelation> CompareOutcomes(const CpNet& net,
                                        const Assignment& a,
                                        const Assignment& b,
                                        size_t max_nodes = 1 << 20);

/// A dominance *proof*: the shortest improving-flip sequence from `worse`
/// to `better` (inclusive of both endpoints), or NotFound when `better`
/// does not dominate `worse`, or ResourceExhausted when the node budget
/// runs out first. Each adjacent pair differs in exactly one variable,
/// flipped to a value the CPT ranks higher given its parents — the
/// standard certificate that the preference order entails better > worse.
Result<std::vector<Assignment>> FindImprovingSequence(
    const CpNet& net, const Assignment& better, const Assignment& worse,
    size_t max_nodes = 1 << 20);

}  // namespace mmconf::cpnet

#endif  // MMCONF_CPNET_DOMINANCE_H_
