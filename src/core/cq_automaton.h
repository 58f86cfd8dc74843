#ifndef MONDET_CORE_CQ_AUTOMATON_H_
#define MONDET_CORE_CQ_AUTOMATON_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "automata/nta.h"
#include "cq/cq.h"
#include "cq/ucq.h"

namespace mondet {

/// Interns strings of 64-bit words: each distinct key is stored once in a
/// flat arena under the next dense id, and an open-addressing table
/// (linear probing, power-of-two capacity) indexes the ids by hash.
class WordInterner {
 public:
  /// The id of `key`, interning a copy of it first if it is new.
  uint32_t Intern(std::span<const uint64_t> key);
  std::span<const uint64_t> operator[](uint32_t id) const {
    return {words_.data() + begin_[id], words_.data() + begin_[id + 1]};
  }
  size_t size() const { return hashes_.size(); }

 private:
  static constexpr uint32_t kEmpty = UINT32_MAX;
  std::vector<uint64_t> words_;
  std::vector<size_t> begin_{0};
  std::vector<uint64_t> hashes_;  // id -> hash, for rehashing
  std::vector<uint32_t> slots_;   // id, or kEmpty
};

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
/// complete above). Each distinct match is interned once per automaton
/// into a match universe with dense ids, and a DP state is a bitset over
/// those ids, trimmed of trailing zero words so that every set has one
/// encoding; inclusion is a word-wise AND-NOT.
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
  using MatchId = uint32_t;
  // A match is interned as the words [atoms, pos bytes...]: the
  // satisfied-atom bitmask, then one position byte per variable, copied
  // into the following words and zero-padded (kUnseen = not yet placed,
  // kGone = placed on an element that left the bag, otherwise a bag
  // position).
  static constexpr int8_t kUnseen = -1;
  static constexpr int8_t kGone = -2;

  const CQ cq_;
  int width_;
  size_t num_vars_;
  uint64_t all_atoms_;
  /// Per variable, the atoms that mention it.
  std::vector<uint64_t> var_atoms_;
  WordInterner matches_;
  WordInterner states_;  // trimmed bitsets over match ids
  std::vector<bool> accepting_;

  // Scratch reused across transitions.
  std::vector<uint64_t> bits_;      // the match set being built
  std::vector<uint64_t> key_;       // one match's words
  std::vector<MatchId> work_;       // Saturate's worklist
  std::vector<int8_t> pos_, next_;  // decoded positions
  std::vector<int8_t> to_parent_;   // child position -> parent position
  std::vector<std::pair<size_t, const AtomLabel*>> unifiable_;
  std::vector<MatchId> lifted1_;        // Binary: child 1's lifts
  std::vector<uint64_t> lifted_atoms_;  // Binary: child 2's lifts, decoded
  std::vector<int8_t> lifted_pos_;

  /// Copies match `id`'s positions into `pos` and returns its atoms.
  uint64_t Decode(MatchId id, int8_t* pos) const;
  MatchId InternMatch(uint64_t atoms, const int8_t* pos);
  /// False iff some unsatisfied atom mentions a kGone variable: that
  /// atom's witness bag can never materialize above this subtree.
  bool Alive(uint64_t atoms, const int8_t* pos) const;
  /// Adds `id` to bits_; false if it was there already.
  bool AddToSet(MatchId id);
  /// Adds to bits_ the matches of `state` lifted through `edge` (child
  /// positions -> parent positions) that stay alive.
  void LiftInto(DpState state, const EdgeLabel& edge);
  /// Closes bits_ under satisfying atoms at a node with `label`.
  void Saturate(const NodeLabel& label);
  /// Interns bits_ (trimmed) as a DP state.
  DpState InternSet();
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
  size_t num_states() const { return tuples_.size(); }

 private:
  std::vector<CqMatchAutomaton> parts_;
  WordInterner tuples_;        // one word per disjunct: its DP state
  std::vector<uint64_t> key_;  // scratch tuple
};

}  // namespace mondet

#endif  // MONDET_CORE_CQ_AUTOMATON_H_
