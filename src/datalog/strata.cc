#include "datalog/strata.h"

#include <algorithm>

#include "base/scc.h"

namespace mondet {

Stratification Stratify(const Program& program) {
  // Dense node ids for the IDB predicates, sorted for determinism.
  std::vector<PredId> idbs(program.Idbs().begin(), program.Idbs().end());
  std::sort(idbs.begin(), idbs.end());
  std::unordered_map<PredId, int> node_of;
  for (size_t i = 0; i < idbs.size(); ++i) {
    node_of[idbs[i]] = static_cast<int>(i);
  }
  std::vector<std::vector<int>> adj(idbs.size());
  for (const Rule& rule : program.rules()) {
    const int from = node_of.at(rule.head.pred);
    for (const QAtom& a : rule.body) {
      auto it = node_of.find(a.pred);
      if (it != node_of.end()) adj[from].push_back(it->second);
    }
  }
  // SccIds gives every component a node depends on a smaller id, so
  // ascending component order is dependency-first.
  int num_sccs = 0;
  const std::vector<int> scc = SccIds(idbs.size(), adj, &num_sccs);

  Stratification out;
  out.strata.resize(static_cast<size_t>(num_sccs));
  // idbs is sorted, so every stratum's preds come out sorted.
  for (size_t i = 0; i < idbs.size(); ++i) {
    out.strata[scc[i]].preds.push_back(idbs[i]);
    out.stratum_of[idbs[i]] = static_cast<size_t>(scc[i]);
  }
  out.recursive_atoms.resize(program.rules().size());
  for (size_t ri = 0; ri < program.rules().size(); ++ri) {
    const Rule& rule = program.rules()[ri];
    const size_t si = out.stratum_of.at(rule.head.pred);
    Stratification::Stratum& st = out.strata[si];
    st.rules.push_back(static_cast<uint32_t>(ri));
    for (size_t ai = 0; ai < rule.body.size(); ++ai) {
      auto it = out.stratum_of.find(rule.body[ai].pred);
      if (it != out.stratum_of.end() && it->second == si) {
        out.recursive_atoms[ri].push_back(static_cast<int>(ai));
      }
    }
    if (!out.recursive_atoms[ri].empty()) st.recursive = true;
  }
  return out;
}

}  // namespace mondet
