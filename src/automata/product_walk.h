#ifndef MONDET_AUTOMATA_PRODUCT_WALK_H_
#define MONDET_AUTOMATA_PRODUCT_WALK_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "automata/nta.h"
#include "base/check.h"

namespace mondet {

/// How a node of a bottom-up search was first reached: the NTA transition
/// applied (`kind` 0 leaf, 1 unary, 2 binary; `trans` indexes that kind's
/// transition list) and the node ids of its children (-1 when absent).
struct Derivation {
  int kind = -1;
  size_t trans = 0;
  int child1 = -1;
  int child2 = -1;
};

/// Rebuilds the code derived at node `root` from derivation records whose
/// transitions index into `nta`: nodes in preorder, child 1's subtree
/// before child 2's, each labelled with its transition's symbol.
inline TreeCode BuildDerivedCode(const Nta& nta,
                                 const std::vector<Derivation>& derivs,
                                 int root) {
  TreeCode code;
  code.width = nta.width();
  struct Emitter {
    const Nta& nta;
    const std::vector<Derivation>& derivs;
    TreeCode& code;
    int Emit(int node, int parent) {
      const Derivation& d = derivs[node];
      MONDET_CHECK(d.kind >= 0);
      const int id = static_cast<int>(code.nodes.size());
      code.nodes.emplace_back();
      code.nodes[id].parent = parent;
      auto add_child = [&](int child, const EdgeLabel& edge) {
        const int c = Emit(child, id);
        code.nodes[id].children.push_back(c);
        code.nodes[id].edge_labels.push_back(edge);
      };
      if (d.kind == 0) {
        const auto& t = nta.leaf_transitions()[d.trans];
        code.nodes[id].atoms.insert(t.label.begin(), t.label.end());
      } else if (d.kind == 1) {
        const auto& t = nta.unary_transitions()[d.trans];
        code.nodes[id].atoms.insert(t.label.begin(), t.label.end());
        add_child(d.child1, t.edge);
      } else {
        const auto& t = nta.binary_transitions()[d.trans];
        code.nodes[id].atoms.insert(t.label.begin(), t.label.end());
        add_child(d.child1, t.edge1);
        add_child(d.child2, t.edge2);
      }
      return id;
    }
  };
  Emitter{nta, derivs, code}.Emit(root, -1);
  return code;
}

/// Outcome of ProductWalk: the interned (NTA state, right state) pairs in
/// intern order with their derivations, the work counters, and the first
/// interned pair whose NTA state is final and whose right state rejects
/// (-1 if none); the walk stops there.
struct ProductWalkResult {
  std::vector<std::pair<State, uint32_t>> pairs;
  std::vector<Derivation> derivs;
  /// One per (transition, pair) for leaves and unary transitions, one per
  /// (transition, pair, partner pair) for binary ones.
  size_t transition_visits = 0;
  /// Candidate pairs discarded by the antichain prune.
  size_t subsumption_prunes = 0;
  int first_bad = -1;
};

/// The lazy bottom-up product of `nta` with a deterministic automaton
/// `right` computed on demand: reachable (NTA state, right state) pairs
/// are interned from the leaves up, so neither the product nor `right`'s
/// transition table is ever materialized. A pair is bad when its NTA
/// state is final and its right state rejects; a bad pair exists iff
/// some code accepted by `nta` is rejected by `right`.
///
/// `Right` provides, over dense uint32_t state ids,
///   Leaf(label), Unary(child, label, edge),
///   Binary(child1, child2, label, edge1, edge2)  -> state,
///   Accepting(state), SubsetOf(s, t)              -> bool,
/// with Leaf/Unary/Binary monotone along SubsetOf and Accepting upward
/// closed along it, so rejection is downward closed.
///
/// With `prune`, each NTA state keeps an antichain of the ⊆-minimal right
/// states interned with it, and a candidate pair whose right state
/// contains a kept one is discarded: every continuation of the candidate
/// rejects whenever the kept pair's does, so no bad pair is lost (a
/// pruned bad pair's kept pair was already bad when interned). The walk
/// stops at its first bad pair, or runs to saturation when there is none.
///
/// MONDET_FAULT=skip-antichain-prune makes the prune also discard
/// candidates whose right state is a subset of a kept one, which is
/// unsound (scripts/check_fuzz_fault.sh).
template <typename Right>
ProductWalkResult ProductWalk(const Nta& nta, Right& right, bool prune) {
  ProductWalkResult w;
  const bool fault = FaultInjected("skip-antichain-prune");
  std::map<std::pair<State, uint32_t>, int> pair_id;
  std::map<State, std::vector<int>> pairs_by_state;
  // Per NTA state, the kept pairs whose right states are currently
  // ⊆-minimal. Dominated entries leave the frontier but stay in `pairs`
  // (their derivations may already be referenced).
  std::map<State, std::vector<int>> frontier;
  std::vector<int> worklist;  // FIFO; grows as pairs are discovered
  bool stop = false;
  auto intern = [&](State q, uint32_t d, Derivation deriv) {
    auto key = std::make_pair(q, d);
    if (pair_id.count(key)) return;
    if (prune) {
      for (int old : frontier[q]) {
        const uint32_t seen = w.pairs[old].second;
        if (right.SubsetOf(seen, d) || (fault && right.SubsetOf(d, seen))) {
          ++w.subsumption_prunes;
          return;
        }
      }
    }
    const int id = static_cast<int>(w.pairs.size());
    pair_id.emplace(key, id);
    w.pairs.push_back(key);
    w.derivs.push_back(deriv);
    pairs_by_state[q].push_back(id);
    if (prune) {
      auto& fr = frontier[q];
      fr.erase(std::remove_if(fr.begin(), fr.end(),
                              [&](int old) {
                                return right.SubsetOf(d, w.pairs[old].second);
                              }),
               fr.end());
      fr.push_back(id);
    }
    worklist.push_back(id);
    if (w.first_bad < 0 && nta.finals().count(q) > 0 && !right.Accepting(d)) {
      w.first_bad = id;
      stop = true;
    }
  };

  // Transition indexes keyed by child state: popping a pair consults only
  // the transitions it can feed, joining against the pairs already known
  // for the sibling state — the delta-against-saturated shape of
  // semi-naive rule evaluation, instead of a full rescan per round.
  std::map<State, std::vector<size_t>> unary_by_child;
  for (size_t ti = 0; ti < nta.unary_transitions().size(); ++ti) {
    unary_by_child[nta.unary_transitions()[ti].child].push_back(ti);
  }
  std::map<State, std::vector<size_t>> binary_by_child1, binary_by_child2;
  for (size_t ti = 0; ti < nta.binary_transitions().size(); ++ti) {
    binary_by_child1[nta.binary_transitions()[ti].child1].push_back(ti);
    binary_by_child2[nta.binary_transitions()[ti].child2].push_back(ti);
  }

  for (size_t ti = 0; ti < nta.leaf_transitions().size() && !stop; ++ti) {
    const auto& t = nta.leaf_transitions()[ti];
    ++w.transition_visits;
    intern(t.to, right.Leaf(t.label), Derivation{0, ti, -1, -1});
  }
  // Binary joins pair the popped pair with every known pair of the
  // sibling state. The partner list is snapshotted by size: partners
  // interned later re-pair with the popped one when they pop (it is
  // already in pairs_by_state), so every combination is applied at least
  // once and O(1) times.
  auto join = [&](const std::map<State, std::vector<size_t>>& by_child,
                  bool popped_is_child1, int pi) {
    auto it = by_child.find(w.pairs[pi].first);
    if (it == by_child.end()) return;
    for (size_t ti : it->second) {
      if (stop) return;
      const auto& t = nta.binary_transitions()[ti];
      auto pit =
          pairs_by_state.find(popped_is_child1 ? t.child2 : t.child1);
      if (pit == pairs_by_state.end()) continue;
      const size_t n = pit->second.size();
      for (size_t k = 0; k < n && !stop; ++k) {
        const int partner = pit->second[k];
        const int p1 = popped_is_child1 ? pi : partner;
        const int p2 = popped_is_child1 ? partner : pi;
        ++w.transition_visits;
        intern(t.to,
               right.Binary(w.pairs[p1].second, w.pairs[p2].second, t.label,
                            t.edge1, t.edge2),
               Derivation{2, ti, p1, p2});
      }
    }
  };
  for (size_t wi = 0; wi < worklist.size() && !stop; ++wi) {
    const int pi = worklist[wi];
    if (auto it = unary_by_child.find(w.pairs[pi].first);
        it != unary_by_child.end()) {
      for (size_t ti : it->second) {
        if (stop) break;
        const auto& t = nta.unary_transitions()[ti];
        ++w.transition_visits;
        intern(t.to, right.Unary(w.pairs[pi].second, t.label, t.edge),
               Derivation{1, ti, pi, -1});
      }
    }
    if (!stop) join(binary_by_child1, /*popped_is_child1=*/true, pi);
    if (!stop) join(binary_by_child2, /*popped_is_child1=*/false, pi);
  }
  return w;
}

}  // namespace mondet

#endif  // MONDET_AUTOMATA_PRODUCT_WALK_H_
