#ifndef MONDET_TESTS_TEST_UTIL_H_
#define MONDET_TESTS_TEST_UTIL_H_

#include <vector>

#include "base/check.h"
#include "base/instance.h"
#include "base/symbol_table.h"
#include "cq/cq.h"
#include "datalog/parser.h"
#include "testing/generator.h"
#include "views/view_set.h"

namespace mondet {

/// Builds a directed R-path a0 → a1 → ... → an over a binary predicate.
inline Instance MakePath(const VocabularyPtr& vocab, PredId edge, int n) {
  Instance inst(vocab);
  std::vector<ElemId> nodes;
  for (int i = 0; i <= n; ++i) nodes.push_back(inst.AddElement());
  for (int i = 0; i < n; ++i) inst.AddFact(edge, {nodes[i], nodes[i + 1]});
  return inst;
}

/// Builds a directed cycle of length n.
inline Instance MakeCycle(const VocabularyPtr& vocab, PredId edge, int n) {
  Instance inst(vocab);
  std::vector<ElemId> nodes;
  for (int i = 0; i < n; ++i) nodes.push_back(inst.AddElement());
  for (int i = 0; i < n; ++i) {
    inst.AddFact(edge, {nodes[i], nodes[(i + 1) % n]});
  }
  return inst;
}

/// Random instance over the given predicates with `elems` elements and
/// roughly `facts` facts (deduplicated). Forwards to the shared
/// randomized-testing library; the historical draw order is preserved
/// there (tests/testing_golden_test.cc pins it).
inline Instance RandomInstance(const VocabularyPtr& vocab,
                               const std::vector<PredId>& preds, int elems,
                               int facts, unsigned seed) {
  return testing::RandomInstance(vocab, preds, elems, facts, seed);
}

/// bench_table2's Thm 5 family on `vocab`: the Boolean CQ
/// R(x0,x1), ..., R(x_{n-1},x_n), U(x_n) over the recursive view VReach
/// (R-reachability into U) and the atomic view VR. Determined at every n.
struct PathPlusU {
  CQ query;
  ViewSet views;
};
inline PathPlusU MakePathPlusU(const VocabularyPtr& vocab, int n) {
  PredId r = vocab->AddPredicate("R", 2);
  PredId u = vocab->AddPredicate("U", 1);
  CQ q(vocab);
  std::vector<VarId> vars;
  for (int i = 0; i <= n; ++i) vars.push_back(q.AddVar());
  for (int i = 0; i < n; ++i) q.AddAtom(r, {vars[i], vars[i + 1]});
  q.AddAtom(u, {vars[n]});
  q.SetFreeVars({});
  std::vector<Diagnostic> diags;
  auto def = ParseQuery(
      "Reach(x) :- R(x,y), U(y).\nReach(x) :- R(x,y), Reach(y).", "Reach",
      vocab, &diags);
  MONDET_CHECK(def.has_value());
  ViewSet views(vocab);
  views.AddView("VReach", *def);
  views.AddAtomicView("VR", r);
  return {std::move(q), std::move(views)};
}

}  // namespace mondet

#endif  // MONDET_TESTS_TEST_UTIL_H_
