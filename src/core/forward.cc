#include "core/forward.h"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_set>

#include "base/check.h"

namespace mondet {

DatalogQuery LimitIdbAtomsPerRule(const DatalogQuery& query, int max_idb) {
  MONDET_CHECK(max_idb >= 1);
  const Program& prog = query.program;
  VocabularyPtr vocab = prog.vocab();
  Program out(vocab);
  int aux_counter = 0;
  // Iterate to a fixpoint: each pass folds the tail of over-full rules.
  std::vector<Rule> worklist(prog.rules().begin(), prog.rules().end());
  // IDB predicates: the original program's plus the fold auxiliaries
  // introduced below (a folded rule can need further folding).
  std::unordered_set<PredId> idbs(prog.Idbs().begin(), prog.Idbs().end());
  auto is_idb = [&idbs](PredId p) { return idbs.count(p) > 0; };
  while (!worklist.empty()) {
    Rule rule = std::move(worklist.back());
    worklist.pop_back();
    std::vector<int> idb_atoms;
    for (int i = 0; i < static_cast<int>(rule.body.size()); ++i) {
      if (is_idb(rule.body[i].pred)) idb_atoms.push_back(i);
    }
    if (static_cast<int>(idb_atoms.size()) <= max_idb) {
      out.AddRule(std::move(rule));
      continue;
    }
    // Fold the last two IDB atoms into a fresh auxiliary predicate whose
    // arguments are the union of their variables.
    int i1 = idb_atoms[idb_atoms.size() - 2];
    int i2 = idb_atoms[idb_atoms.size() - 1];
    std::vector<VarId> aux_vars;
    for (VarId v : rule.body[i1].args) {
      if (std::find(aux_vars.begin(), aux_vars.end(), v) == aux_vars.end()) {
        aux_vars.push_back(v);
      }
    }
    for (VarId v : rule.body[i2].args) {
      if (std::find(aux_vars.begin(), aux_vars.end(), v) == aux_vars.end()) {
        aux_vars.push_back(v);
      }
    }
    // The name carries the arity: folds of different queries over one
    // vocabulary share a name only when they share an arity.
    const int aux_arity = static_cast<int>(aux_vars.size());
    PredId aux = vocab->AddPredicate(
        "Fold" + std::to_string(aux_counter++) + "/" +
            std::to_string(aux_arity) + "." + vocab->name(query.goal),
        aux_arity);
    idbs.insert(aux);
    // Auxiliary rule: Aux(vars) ← I1, I2 (variables renumbered densely).
    Rule aux_rule;
    std::map<VarId, VarId> remap;
    auto mapped = [&](VarId v) {
      auto it = remap.find(v);
      if (it != remap.end()) return it->second;
      VarId nv = static_cast<VarId>(aux_rule.var_names.size());
      aux_rule.var_names.push_back(rule.var_names[v]);
      remap.emplace(v, nv);
      return nv;
    };
    std::vector<VarId> aux_head;
    for (VarId v : aux_vars) aux_head.push_back(mapped(v));
    aux_rule.head = QAtom(aux, aux_head);
    for (int i : {i1, i2}) {
      std::vector<VarId> args;
      for (VarId v : rule.body[i].args) args.push_back(mapped(v));
      aux_rule.body.push_back(QAtom(rule.body[i].pred, args));
    }
    // This auxiliary rule is final (exactly two IDB atoms when max_idb>=2,
    // or refolded later since aux preds count as IDB in `out`)…
    // Replace the two atoms with the auxiliary atom in the original rule.
    Rule folded = rule;
    std::vector<QAtom> new_body;
    for (int i = 0; i < static_cast<int>(folded.body.size()); ++i) {
      if (i == i1) {
        new_body.push_back(QAtom(aux, aux_vars));
      } else if (i != i2) {
        new_body.push_back(folded.body[i]);
      }
    }
    folded.body = std::move(new_body);
    worklist.push_back(std::move(folded));
    out.AddRule(std::move(aux_rule));
  }
  return DatalogQuery(std::move(out), query.goal);
}

ForwardResult ApproximationAutomaton(const DatalogQuery& query_in) {
  DatalogQuery query = LimitIdbAtomsPerRule(query_in, 2);
  const Program& prog = query.program;

  // Canonical bag order per rule: deduplicated head variables first, then
  // remaining variables ascending. Only variables that occur in the rule
  // participate.
  std::vector<std::vector<VarId>> bag_order;
  int width = 0;
  for (const Rule& rule : prog.rules()) {
    std::vector<VarId> order;
    for (VarId v : rule.head.args) {
      if (std::find(order.begin(), order.end(), v) == order.end()) {
        order.push_back(v);
      }
    }
    for (VarId v = 0; v < rule.num_vars(); ++v) {
      bool used = false;
      for (const QAtom& a : rule.body) {
        for (VarId av : a.args) used = used || av == v;
      }
      for (VarId hv : rule.head.args) used = used || hv == v;
      if (used &&
          std::find(order.begin(), order.end(), v) == order.end()) {
        order.push_back(v);
      }
    }
    width = std::max(width, static_cast<int>(order.size()));
    bag_order.push_back(std::move(order));
  }

  // Sanity requirements for the standard-code construction.
  for (const Rule& rule : prog.rules()) {
    std::set<VarId> head_set(rule.head.args.begin(), rule.head.args.end());
    MONDET_CHECK(head_set.size() == rule.head.args.size());
    for (const QAtom& a : rule.body) {
      if (!prog.IsIdb(a.pred)) continue;
      std::set<VarId> args(a.args.begin(), a.args.end());
      MONDET_CHECK(args.size() == a.args.size());
    }
  }

  Nta nta(width);
  // One state per IDB predicate: "this subtree derives P with P's head
  // variables at positions 0..arity-1 of its root bag".
  std::map<PredId, State> state_of;
  for (PredId p : prog.Idbs()) state_of[p] = nta.AddState();
  nta.AddFinal(state_of.at(query.goal));

  for (size_t ri = 0; ri < prog.rules().size(); ++ri) {
    const Rule& rule = prog.rules()[ri];
    const std::vector<VarId>& order = bag_order[ri];
    auto pos_of = [&](VarId v) {
      for (size_t i = 0; i < order.size(); ++i) {
        if (order[i] == v) return static_cast<int>(i);
      }
      MONDET_CHECK(false);
      return -1;
    };
    NodeLabel label;
    std::vector<const QAtom*> idb_atoms;
    for (const QAtom& a : rule.body) {
      if (prog.IsIdb(a.pred)) {
        idb_atoms.push_back(&a);
        continue;
      }
      AtomLabel al;
      al.pred = a.pred;
      for (VarId v : a.args) al.positions.push_back(pos_of(v));
      label.insert(std::move(al));
    }
    auto edge_for = [&](const QAtom& atom) {
      // Child bag starts with the child's head variables at positions
      // 0..arity-1, matching atom argument order.
      EdgeLabel edge;
      for (size_t i = 0; i < atom.args.size(); ++i) {
        edge.same.emplace_back(pos_of(atom.args[i]), static_cast<int>(i));
      }
      std::sort(edge.same.begin(), edge.same.end());
      return edge;
    };
    State head = state_of.at(rule.head.pred);
    MONDET_CHECK(idb_atoms.size() <= 2);
    if (idb_atoms.empty()) {
      nta.AddLeaf(label, head);
    } else if (idb_atoms.size() == 1) {
      nta.AddUnary(label, edge_for(*idb_atoms[0]),
                   state_of.at(idb_atoms[0]->pred), head);
    } else {
      nta.AddBinary(label, edge_for(*idb_atoms[0]), edge_for(*idb_atoms[1]),
                    state_of.at(idb_atoms[0]->pred),
                    state_of.at(idb_atoms[1]->pred), head);
    }
  }
  return ForwardResult{std::move(nta), width, std::move(bag_order)};
}

}  // namespace mondet
