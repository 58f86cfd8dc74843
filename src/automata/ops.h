#ifndef MONDET_AUTOMATA_OPS_H_
#define MONDET_AUTOMATA_OPS_H_

#include <optional>
#include <unordered_set>

#include "automata/nta.h"

namespace mondet {

/// Intersection: accepts exactly the codes accepted by both automata.
Nta Product(const Nta& a, const Nta& b);

/// Union of languages (disjoint union of automata).
Nta UnionNta(const Nta& a, const Nta& b);

/// Projection onto a subsignature (Prop. 5): relabels every transition by
/// dropping atom labels whose predicate is outside `keep`. Captures the
/// class of restricted instances; same size.
Nta ProjectLabels(const Nta& a, const std::unordered_set<PredId>& keep);

/// Emptiness test (least fixpoint of inhabited states).
bool IsEmpty(const Nta& a);

/// A witness code for non-emptiness (minimal-height derivation), or
/// nullopt when the language is empty.
std::optional<TreeCode> EmptinessWitness(const Nta& a);

/// The symbol universe of an automaton or code: the node/edge label
/// combinations appearing in its transitions. Determinization and
/// complementation are relative to such a universe.
struct SymbolUniverse {
  struct UnSym {
    NodeLabel label;
    EdgeLabel edge;
    bool operator<(const UnSym& o) const {
      if (!(label == o.label)) return label < o.label;
      return edge < o.edge;
    }
  };
  struct BinSym {
    NodeLabel label;
    EdgeLabel edge1;
    EdgeLabel edge2;
    bool operator<(const BinSym& o) const {
      if (!(label == o.label)) return label < o.label;
      if (!(edge1 == o.edge1)) return edge1 < o.edge1;
      return edge2 < o.edge2;
    }
  };
  std::set<NodeLabel> leaves;
  std::set<UnSym> unaries;
  std::set<BinSym> binaries;

  void Merge(const SymbolUniverse& o);
};

SymbolUniverse SymbolsOf(const Nta& a);
SymbolUniverse SymbolsOf(const TreeCode& code);

/// Subset-construction determinization relative to `universe`. The result
/// is a deterministic, complete automaton over exactly those symbols that
/// accepts the same codes built from the universe.
Nta Determinize(const Nta& a, const SymbolUniverse& universe);

/// Complement relative to `universe` (determinize, then flip finals).
/// It materializes every reachable subset up front, which is exponential
/// in the worst case. Inclusion checks should use `NtaIncluded`, which
/// explores the same subsets lazily with antichain subsumption pruning;
/// IsEmpty(Product(a, Complement(b, universe))) is the exact reference
/// the `antichain-inclusion` oracle checks it against.
Nta Complement(const Nta& a, const SymbolUniverse& universe);

/// Outcome of NtaIncluded. Counters describe the lazy search; `witness`
/// is populated exactly when the inclusion fails.
struct NtaInclusionResult {
  bool included = true;
  /// (a-state, b-macrostate) pairs interned by the search.
  size_t pairs_explored = 0;
  /// Distinct b-macrostates among the interned pairs — directly
  /// comparable to Determinize(b, universe).num_states(), and never
  /// larger.
  size_t macrostates_visited = 0;
  /// Candidate pairs discarded because a ⊆-smaller macrostate was
  /// already visited for the same a-state.
  size_t subsumption_prunes = 0;
  size_t transition_visits = 0;
  /// When !included: a code accepted by `a` and rejected by `b`.
  std::optional<TreeCode> witness;
};

/// Decides L(a) ⊆ L(b) over codes built from `universe` symbols, without
/// materializing Determinize(b): runs ProductWalk (automata/product_walk.h)
/// over a and an on-demand subset construction of b, pruning ⊆-dominated
/// macrostates (per a-state only the ⊆-minimal ones are kept: successors
/// are monotone and rejection is downward closed), and stops at the first
/// pair witnessing non-inclusion (final in `a`, no final of `b` in the
/// macrostate). Equivalent to IsEmpty(Product(a, Complement(b,
/// universe))); transitions of `a` whose symbols fall outside `universe`
/// do not participate, matching the explicit route.
NtaInclusionResult NtaIncluded(const Nta& a, const Nta& b,
                               const SymbolUniverse& universe);

/// Removes states that are not inhabited (bottom-up reachable) or not
/// co-reachable from a final state. Language-preserving.
Nta Trim(const Nta& a);

}  // namespace mondet

#endif  // MONDET_AUTOMATA_OPS_H_
