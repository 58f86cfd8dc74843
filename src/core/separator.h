#ifndef MONDET_CORE_SEPARATOR_H_
#define MONDET_CORE_SEPARATOR_H_

#include "datalog/program.h"
#include "views/view_set.h"

namespace mondet {

/// Separators (Sec. 2 / Sec. 7): functions over view-schema instances that
/// agree with Q ∘ V^{-1} on view images. Rewritings are separators in a
/// logic; these are the complexity-theoretic ones the paper discusses.

/// The NP separator for (bounded) Datalog queries over views: accepts J
/// iff some quotient of some CQ approximation of Q (depth-bounded) has its
/// view image contained in J — the "small preimage" guess. Exact on view
/// images of instances whose witnessing expansions fit the bounds.
bool NpSeparatorAccepts(const DatalogQuery& query, const ViewSet& views,
                        const Instance& j, int expansion_depth,
                        size_t max_expansions = 200,
                        size_t max_quotients = 2000);

/// The co-NP-style separator via chasing with inverse view rules: J is
/// expanded into base instances by replacing every J-fact with a choice of
/// view-definition expansion (depth <= `view_depth`) over fresh nulls;
/// accepts iff the Boolean Q holds under EVERY choice (a failing choice is
/// the co-NP refutation certificate). For CQ views there is exactly one
/// choice and this is the PTime certain-answer separator. The choices are
/// canonical tests, walked as one block of the checker's trie
/// (TestBlockWalk, core/test_walk.h) over J's facts in insertion order:
/// only the first `max_choices` are tried (each view keeps at most
/// `max_choices` expansions), and a J-fact whose view has no expansion
/// within `view_depth` leaves none, so J is accepted.
bool ChaseSeparatorAccepts(const DatalogQuery& query, const ViewSet& views,
                           const Instance& j, int view_depth,
                           size_t max_choices = 5000);

}  // namespace mondet

#endif  // MONDET_CORE_SEPARATOR_H_
