#include "automata/ops.h"

#include <algorithm>
#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include "automata/product_walk.h"
#include "base/check.h"

namespace mondet {

Nta Product(const Nta& a, const Nta& b) {
  MONDET_CHECK(a.width() == b.width());
  Nta out(a.width());
  size_t nb = b.num_states();
  auto pair_state = [&](State qa, State qb) {
    return static_cast<State>(qa * nb + qb);
  };
  for (size_t i = 0; i < a.num_states() * b.num_states(); ++i) out.AddState();
  for (State qa : a.finals()) {
    for (State qb : b.finals()) out.AddFinal(pair_state(qa, qb));
  }
  for (const auto& ta : a.leaf_transitions()) {
    for (const auto& tb : b.leaf_transitions()) {
      if (ta.label == tb.label) {
        out.AddLeaf(ta.label, pair_state(ta.to, tb.to));
      }
    }
  }
  for (const auto& ta : a.unary_transitions()) {
    for (const auto& tb : b.unary_transitions()) {
      if (ta.label == tb.label && ta.edge == tb.edge) {
        out.AddUnary(ta.label, ta.edge, pair_state(ta.child, tb.child),
                     pair_state(ta.to, tb.to));
      }
    }
  }
  for (const auto& ta : a.binary_transitions()) {
    for (const auto& tb : b.binary_transitions()) {
      if (ta.label == tb.label && ta.edge1 == tb.edge1 &&
          ta.edge2 == tb.edge2) {
        out.AddBinary(ta.label, ta.edge1, ta.edge2,
                      pair_state(ta.child1, tb.child1),
                      pair_state(ta.child2, tb.child2),
                      pair_state(ta.to, tb.to));
      }
    }
  }
  return out;
}

Nta UnionNta(const Nta& a, const Nta& b) {
  MONDET_CHECK(a.width() == b.width());
  Nta out(a.width());
  for (size_t i = 0; i < a.num_states() + b.num_states(); ++i) out.AddState();
  State off = static_cast<State>(a.num_states());
  for (State q : a.finals()) out.AddFinal(q);
  for (State q : b.finals()) out.AddFinal(q + off);
  for (const auto& t : a.leaf_transitions()) out.AddLeaf(t.label, t.to);
  for (const auto& t : a.unary_transitions()) {
    out.AddUnary(t.label, t.edge, t.child, t.to);
  }
  for (const auto& t : a.binary_transitions()) {
    out.AddBinary(t.label, t.edge1, t.edge2, t.child1, t.child2, t.to);
  }
  for (const auto& t : b.leaf_transitions()) out.AddLeaf(t.label, t.to + off);
  for (const auto& t : b.unary_transitions()) {
    out.AddUnary(t.label, t.edge, t.child + off, t.to + off);
  }
  for (const auto& t : b.binary_transitions()) {
    out.AddBinary(t.label, t.edge1, t.edge2, t.child1 + off, t.child2 + off,
                  t.to + off);
  }
  return out;
}

namespace {
NodeLabel FilterLabel(const NodeLabel& label,
                      const std::unordered_set<PredId>& keep) {
  NodeLabel out;
  for (const AtomLabel& a : label) {
    if (keep.count(a.pred)) out.insert(a);
  }
  return out;
}
}  // namespace

Nta ProjectLabels(const Nta& a, const std::unordered_set<PredId>& keep) {
  Nta out(a.width());
  for (size_t i = 0; i < a.num_states(); ++i) out.AddState();
  for (State q : a.finals()) out.AddFinal(q);
  for (const auto& t : a.leaf_transitions()) {
    out.AddLeaf(FilterLabel(t.label, keep), t.to);
  }
  for (const auto& t : a.unary_transitions()) {
    out.AddUnary(FilterLabel(t.label, keep), t.edge, t.child, t.to);
  }
  for (const auto& t : a.binary_transitions()) {
    out.AddBinary(FilterLabel(t.label, keep), t.edge1, t.edge2, t.child1,
                  t.child2, t.to);
  }
  return out;
}

namespace {

/// Computes the inhabited (bottom-up reachable) states.
std::vector<bool> Inhabited(const Nta& a) {
  std::vector<bool> in(a.num_states(), false);
  for (const auto& t : a.leaf_transitions()) in[t.to] = true;
  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto& t : a.unary_transitions()) {
      if (!in[t.to] && in[t.child]) {
        in[t.to] = true;
        changed = true;
      }
    }
    for (const auto& t : a.binary_transitions()) {
      if (!in[t.to] && in[t.child1] && in[t.child2]) {
        in[t.to] = true;
        changed = true;
      }
    }
  }
  return in;
}

}  // namespace

bool IsEmpty(const Nta& a) {
  std::vector<bool> in = Inhabited(a);
  for (State q : a.finals()) {
    if (in[q]) return false;
  }
  return true;
}

std::optional<TreeCode> EmptinessWitness(const Nta& a) {
  // Per inhabited state, the first derivation found, indexed by state;
  // its child ids are the child states.
  std::vector<Derivation> deriv(a.num_states());
  std::vector<bool> in(a.num_states(), false);
  for (size_t i = 0; i < a.leaf_transitions().size(); ++i) {
    State q = a.leaf_transitions()[i].to;
    if (!in[q]) {
      in[q] = true;
      deriv[q] = {0, i, -1, -1};
    }
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t i = 0; i < a.unary_transitions().size(); ++i) {
      const auto& t = a.unary_transitions()[i];
      if (!in[t.to] && in[t.child]) {
        in[t.to] = true;
        deriv[t.to] = {1, i, static_cast<int>(t.child), -1};
        changed = true;
      }
    }
    for (size_t i = 0; i < a.binary_transitions().size(); ++i) {
      const auto& t = a.binary_transitions()[i];
      if (!in[t.to] && in[t.child1] && in[t.child2]) {
        in[t.to] = true;
        deriv[t.to] = {2, i, static_cast<int>(t.child1),
                       static_cast<int>(t.child2)};
        changed = true;
      }
    }
  }
  for (State q : a.finals()) {
    if (in[q]) return BuildDerivedCode(a, deriv, static_cast<int>(q));
  }
  return std::nullopt;
}

void SymbolUniverse::Merge(const SymbolUniverse& o) {
  leaves.insert(o.leaves.begin(), o.leaves.end());
  unaries.insert(o.unaries.begin(), o.unaries.end());
  binaries.insert(o.binaries.begin(), o.binaries.end());
}

SymbolUniverse SymbolsOf(const Nta& a) {
  SymbolUniverse u;
  for (const auto& t : a.leaf_transitions()) u.leaves.insert(t.label);
  for (const auto& t : a.unary_transitions()) {
    u.unaries.insert({t.label, t.edge});
  }
  for (const auto& t : a.binary_transitions()) {
    u.binaries.insert({t.label, t.edge1, t.edge2});
  }
  return u;
}

SymbolUniverse SymbolsOf(const TreeCode& code) {
  SymbolUniverse u;
  for (const CodeNode& n : code.nodes) {
    NodeLabel label(n.atoms.begin(), n.atoms.end());
    if (n.children.empty()) {
      u.leaves.insert(label);
    } else if (n.children.size() == 1) {
      u.unaries.insert({label, n.edge_labels[0]});
    } else {
      u.binaries.insert({label, n.edge_labels[0], n.edge_labels[1]});
    }
  }
  return u;
}

Nta Determinize(const Nta& a, const SymbolUniverse& universe) {
  Nta out(a.width());
  std::map<std::set<State>, State> subset_id;
  std::vector<std::set<State>> subsets;
  auto intern = [&](const std::set<State>& s) {
    auto it = subset_id.find(s);
    if (it != subset_id.end()) return it->second;
    State q = out.AddState();
    subset_id.emplace(s, q);
    subsets.push_back(s);
    return q;
  };

  // Leaf transitions, one per leaf symbol (deterministic, complete).
  for (const NodeLabel& sym : universe.leaves) {
    std::set<State> s;
    for (const auto& t : a.leaf_transitions()) {
      if (t.label == sym) s.insert(t.to);
    }
    out.AddLeaf(sym, intern(s));
  }
  // Saturate unary/binary transitions over discovered subsets, emitting
  // each (children, symbol) combination exactly once.
  std::set<std::pair<size_t, size_t>> done_unary;  // (subset, symbol idx)
  std::set<std::tuple<size_t, size_t, size_t>> done_binary;
  std::vector<SymbolUniverse::UnSym> unaries(universe.unaries.begin(),
                                             universe.unaries.end());
  std::vector<SymbolUniverse::BinSym> binaries(universe.binaries.begin(),
                                               universe.binaries.end());
  bool changed = true;
  while (changed) {
    changed = false;
    size_t n = subsets.size();
    for (size_t si = 0; si < n; ++si) {
      for (size_t yi = 0; yi < unaries.size(); ++yi) {
        if (!done_unary.insert({si, yi}).second) continue;
        const auto& sym = unaries[yi];
        std::set<State> to;
        for (const auto& t : a.unary_transitions()) {
          if (t.label == sym.label && t.edge == sym.edge &&
              subsets[si].count(t.child)) {
            to.insert(t.to);
          }
        }
        State from = subset_id.at(subsets[si]);
        size_t before = subsets.size();
        out.AddUnary(sym.label, sym.edge, from, intern(to));
        if (before != subsets.size()) changed = true;
      }
    }
    for (size_t s1 = 0; s1 < n; ++s1) {
      for (size_t s2 = 0; s2 < n; ++s2) {
        for (size_t yi = 0; yi < binaries.size(); ++yi) {
          if (!done_binary.insert({s1, s2, yi}).second) continue;
          const auto& sym = binaries[yi];
          std::set<State> to;
          for (const auto& t : a.binary_transitions()) {
            if (t.label == sym.label && t.edge1 == sym.edge1 &&
                t.edge2 == sym.edge2 && subsets[s1].count(t.child1) &&
                subsets[s2].count(t.child2)) {
              to.insert(t.to);
            }
          }
          State f1 = subset_id.at(subsets[s1]);
          State f2 = subset_id.at(subsets[s2]);
          size_t before = subsets.size();
          out.AddBinary(sym.label, sym.edge1, sym.edge2, f1, f2, intern(to));
          if (before != subsets.size()) changed = true;
        }
      }
    }
    if (subsets.size() != n) changed = true;
  }
  for (const auto& [s, q] : subset_id) {
    for (State f : a.finals()) {
      if (s.count(f)) {
        out.AddFinal(q);
        break;
      }
    }
  }
  return out;
}

Nta Complement(const Nta& a, const SymbolUniverse& universe) {
  Nta det = Determinize(a, universe);
  Nta out(det.width());
  for (size_t i = 0; i < det.num_states(); ++i) out.AddState();
  for (State q = 0; q < det.num_states(); ++q) {
    if (!det.finals().count(q)) out.AddFinal(q);
  }
  for (const auto& t : det.leaf_transitions()) out.AddLeaf(t.label, t.to);
  for (const auto& t : det.unary_transitions()) {
    out.AddUnary(t.label, t.edge, t.child, t.to);
  }
  for (const auto& t : det.binary_transitions()) {
    out.AddBinary(t.label, t.edge1, t.edge2, t.child1, t.child2, t.to);
  }
  return out;
}

namespace {

/// A b-macrostate: a sorted, duplicate-free set of b-states.
using Macro = std::vector<State>;

void SortUnique(Macro* m) {
  std::sort(m->begin(), m->end());
  m->erase(std::unique(m->begin(), m->end()), m->end());
}

/// The subset construction of `b`, built on demand as ProductWalk's right
/// automaton: successor macrostates are computed against b's transitions
/// bucketed by symbol, and each is interned on first use.
class LazySubsets {
 public:
  explicit LazySubsets(const Nta& b) : b_(b) {
    for (const auto& t : b.leaf_transitions()) leaf_[t.label].push_back(t.to);
    for (auto& [sym, m] : leaf_) SortUnique(&m);
    for (const auto& t : b.unary_transitions()) {
      unary_[{t.label, t.edge}].push_back({t.child, t.to});
    }
    for (const auto& t : b.binary_transitions()) {
      binary_[{t.label, t.edge1, t.edge2}].push_back(
          {t.child1, t.child2, t.to});
    }
  }

  uint32_t Leaf(const NodeLabel& label) {
    auto it = leaf_.find(label);
    return Intern(it == leaf_.end() ? Macro{} : it->second);
  }
  uint32_t Unary(uint32_t child, const NodeLabel& label,
                 const EdgeLabel& edge) {
    Macro out;
    if (auto it = unary_.find({label, edge}); it != unary_.end()) {
      const Macro& s = macros_[child];
      for (const auto& [c, to] : it->second) {
        if (std::binary_search(s.begin(), s.end(), c)) out.push_back(to);
      }
    }
    return Intern(std::move(out));
  }
  uint32_t Binary(uint32_t child1, uint32_t child2, const NodeLabel& label,
                  const EdgeLabel& edge1, const EdgeLabel& edge2) {
    Macro out;
    if (auto it = binary_.find({label, edge1, edge2}); it != binary_.end()) {
      const Macro& s1 = macros_[child1];
      const Macro& s2 = macros_[child2];
      for (const auto& [c1, c2, to] : it->second) {
        if (std::binary_search(s1.begin(), s1.end(), c1) &&
            std::binary_search(s2.begin(), s2.end(), c2)) {
          out.push_back(to);
        }
      }
    }
    return Intern(std::move(out));
  }
  bool Accepting(uint32_t s) const { return accepting_[s]; }
  bool SubsetOf(uint32_t s, uint32_t t) const {
    return std::includes(macros_[t].begin(), macros_[t].end(),
                         macros_[s].begin(), macros_[s].end());
  }

 private:
  uint32_t Intern(Macro m) {
    SortUnique(&m);
    if (auto it = id_.find(m); it != id_.end()) return it->second;
    const uint32_t id = static_cast<uint32_t>(macros_.size());
    bool fin = false;
    for (State q : m) fin = fin || b_.finals().count(q) > 0;
    id_.emplace(m, id);
    accepting_.push_back(fin);
    macros_.push_back(std::move(m));
    return id;
  }

  const Nta& b_;
  std::map<NodeLabel, Macro> leaf_;
  std::map<SymbolUniverse::UnSym, std::vector<std::pair<State, State>>>
      unary_;
  std::map<SymbolUniverse::BinSym,
           std::vector<std::tuple<State, State, State>>>
      binary_;
  std::map<Macro, uint32_t> id_;
  std::vector<Macro> macros_;
  std::vector<bool> accepting_;
};

/// `a` without the transitions whose symbols lie outside `universe`,
/// order preserved: those cannot fire in Product(a, Complement(b,
/// universe)). Nullopt when there are none to drop, so the common case
/// does not copy `a`.
std::optional<Nta> DropOutsideUniverse(const Nta& a,
                                       const SymbolUniverse& universe) {
  auto in_leaf = [&](const Nta::LeafTransition& t) {
    return universe.leaves.count(t.label) > 0;
  };
  auto in_unary = [&](const Nta::UnaryTransition& t) {
    return universe.unaries.count({t.label, t.edge}) > 0;
  };
  auto in_binary = [&](const Nta::BinaryTransition& t) {
    return universe.binaries.count({t.label, t.edge1, t.edge2}) > 0;
  };
  if (std::all_of(a.leaf_transitions().begin(), a.leaf_transitions().end(),
                  in_leaf) &&
      std::all_of(a.unary_transitions().begin(),
                  a.unary_transitions().end(), in_unary) &&
      std::all_of(a.binary_transitions().begin(),
                  a.binary_transitions().end(), in_binary)) {
    return std::nullopt;
  }
  Nta out(a.width());
  for (size_t i = 0; i < a.num_states(); ++i) out.AddState();
  for (State q : a.finals()) out.AddFinal(q);
  for (const auto& t : a.leaf_transitions()) {
    if (in_leaf(t)) out.AddLeaf(t.label, t.to);
  }
  for (const auto& t : a.unary_transitions()) {
    if (in_unary(t)) out.AddUnary(t.label, t.edge, t.child, t.to);
  }
  for (const auto& t : a.binary_transitions()) {
    if (in_binary(t)) {
      out.AddBinary(t.label, t.edge1, t.edge2, t.child1, t.child2, t.to);
    }
  }
  return out;
}

}  // namespace

NtaInclusionResult NtaIncluded(const Nta& a, const Nta& b,
                               const SymbolUniverse& universe,
                               const NtaInclusionOptions& options) {
  MONDET_CHECK(a.width() == b.width());
  const std::optional<Nta> restricted = DropOutsideUniverse(a, universe);
  const Nta& left = restricted ? *restricted : a;
  LazySubsets subsets(b);
  ProductWalkResult w = ProductWalk(left, subsets, options.antichain_prune);
  NtaInclusionResult result;
  result.pairs_explored = w.pairs.size();
  result.transition_visits = w.transition_visits;
  result.subsumption_prunes = w.subsumption_prunes;
  std::set<uint32_t> kept;  // macrostates of kept pairs only
  for (const auto& [q, m] : w.pairs) kept.insert(m);
  result.macrostates_visited = kept.size();
  result.included = w.first_bad < 0;
  if (!result.included) {
    result.witness = BuildDerivedCode(left, w.derivs, w.first_bad);
  }
  return result;
}

Nta Trim(const Nta& a) {
  std::vector<bool> in = Inhabited(a);
  std::vector<bool> useful(a.num_states(), false);
  for (State q : a.finals()) {
    if (in[q]) useful[q] = true;
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto& t : a.unary_transitions()) {
      if (useful[t.to] && in[t.child] && !useful[t.child]) {
        useful[t.child] = true;
        changed = true;
      }
    }
    for (const auto& t : a.binary_transitions()) {
      if (useful[t.to] && in[t.child1] && in[t.child2]) {
        if (!useful[t.child1]) {
          useful[t.child1] = true;
          changed = true;
        }
        if (!useful[t.child2]) {
          useful[t.child2] = true;
          changed = true;
        }
      }
    }
  }
  std::vector<State> remap(a.num_states(), kNoElem);
  Nta out(a.width());
  for (State q = 0; q < a.num_states(); ++q) {
    if (in[q] && useful[q]) remap[q] = out.AddState();
  }
  for (State q : a.finals()) {
    if (remap[q] != kNoElem) out.AddFinal(remap[q]);
  }
  auto live = [&](State q) { return remap[q] != kNoElem; };
  for (const auto& t : a.leaf_transitions()) {
    if (live(t.to)) out.AddLeaf(t.label, remap[t.to]);
  }
  for (const auto& t : a.unary_transitions()) {
    if (live(t.to) && live(t.child)) {
      out.AddUnary(t.label, t.edge, remap[t.child], remap[t.to]);
    }
  }
  for (const auto& t : a.binary_transitions()) {
    if (live(t.to) && live(t.child1) && live(t.child2)) {
      out.AddBinary(t.label, t.edge1, t.edge2, remap[t.child1],
                    remap[t.child2], remap[t.to]);
    }
  }
  return out;
}

}  // namespace mondet
