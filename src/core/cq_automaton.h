#ifndef MONDET_CORE_CQ_AUTOMATON_H_
#define MONDET_CORE_CQ_AUTOMATON_H_

#include <map>
#include <vector>

#include "automata/nta.h"
#include "cq/cq.h"
#include "cq/ucq.h"

namespace mondet {

/// A deterministic bottom-up evaluator deciding whether a Boolean CQ
/// embeds homomorphically into the decoding D(T) of a tree code, one node
/// at a time. This realizes the "recognizing" direction of the paper's
/// forward machinery (Props. 4/6 for the nonrecursive case) without
/// materializing the doubly-exponential transition table: transitions are
/// computed on demand and states are interned.
///
/// A DP state is a set of matches (A, h), where A is the set of CQ atoms
/// already witnessed in the subtree and h places every variable that some
/// unsatisfied atom still needs at a bag position (matches whose needed
/// variables fall out of scope are dropped — such embeddings can never
/// complete above).
class CqMatchAutomaton {
 public:
  using DpState = uint32_t;

  /// The CQ must be Boolean (no free variables) and have at most 64 atoms.
  CqMatchAutomaton(const CQ& cq, int width);

  DpState Leaf(const NodeLabel& label);
  DpState Unary(DpState child, const NodeLabel& label, const EdgeLabel& edge);
  DpState Binary(DpState child1, DpState child2, const NodeLabel& label,
                 const EdgeLabel& edge1, const EdgeLabel& edge2);

  /// True iff some match has witnessed every atom (the CQ holds on the
  /// decoded instance of the subtree).
  bool Accepting(DpState state) const;

  /// True iff s's match set is a subset of t's. Leaf/Unary/Binary are
  /// monotone in this order and Accepting is upward closed along it, so
  /// rejection propagates downward — the partial order the product walk's
  /// antichain prune relies on (automata/product_walk.h).
  bool SubsetOf(DpState s, DpState t) const;

  size_t num_states() const { return states_.size(); }

 private:
  // One match: satisfied-atom bitmask + position per variable
  // (kUnseen = not yet placed, otherwise a bag position).
  static constexpr int8_t kUnseen = -1;
  struct Match {
    uint64_t atoms = 0;
    std::vector<int8_t> pos;

    bool operator<(const Match& o) const {
      if (atoms != o.atoms) return atoms < o.atoms;
      return pos < o.pos;
    }
    bool operator==(const Match& o) const {
      return atoms == o.atoms && pos == o.pos;
    }
  };
  using MatchSet = std::vector<Match>;  // sorted, unique

  const CQ cq_;
  int width_;
  uint64_t all_atoms_;
  std::map<MatchSet, DpState> intern_;
  std::vector<MatchSet> states_;
  std::vector<bool> accepting_;

  DpState Intern(MatchSet set);
  /// Drops need-tracking for variables whose atoms are all satisfied and
  /// kills matches whose needed variables are unplaced forever.
  bool Canonicalize(Match* m) const;  // false = match dead (never here)
  /// Lifts a match through an edge label (child -> parent positions);
  /// false if a needed variable's element does not survive.
  bool Lift(const EdgeLabel& edge, Match* m) const;
  /// Closes a match set under satisfying atoms at a node with `label`.
  void Saturate(const NodeLabel& label, MatchSet* set) const;
  static void InsertMatch(MatchSet* set, Match m);
};

/// Disjunction of CqMatchAutomaton runs (accepts iff any disjunct embeds).
class UcqMatchAutomaton {
 public:
  using DpState = uint32_t;

  UcqMatchAutomaton(const UCQ& ucq, int width);

  DpState Leaf(const NodeLabel& label);
  DpState Unary(DpState child, const NodeLabel& label, const EdgeLabel& edge);
  DpState Binary(DpState child1, DpState child2, const NodeLabel& label,
                 const EdgeLabel& edge1, const EdgeLabel& edge2);
  bool Accepting(DpState state) const;

  /// Componentwise CqMatchAutomaton::SubsetOf over the disjunct tuple.
  bool SubsetOf(DpState s, DpState t) const;

  /// Distinct DP states interned so far (macrostates materialized).
  size_t num_states() const { return states_.size(); }

 private:
  std::vector<CqMatchAutomaton> parts_;
  std::map<std::vector<uint32_t>, DpState> intern_;
  std::vector<std::vector<uint32_t>> states_;

  DpState Intern(std::vector<uint32_t> tuple);
};

}  // namespace mondet

#endif  // MONDET_CORE_CQ_AUTOMATON_H_
