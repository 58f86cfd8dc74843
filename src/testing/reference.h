#ifndef MONDET_TESTING_REFERENCE_H_
#define MONDET_TESTING_REFERENCE_H_

#include <vector>

#include "base/homomorphism.h"
#include "base/instance.h"
#include "core/mondet_check.h"
#include "datalog/program.h"

namespace mondet {

/// Naive reference evaluation: fire every rule against the full instance
/// until no new facts appear. Slow but obviously correct — the oracle the
/// differential tests and the fuzz harness compare the semi-naive
/// evaluator against. Lives in src/testing (not tests/) so the mondet-fuzz
/// CLI can link it; kept in namespace mondet because it predates the
/// testing library and is reference semantics, not generation.
inline Instance NaiveFpEval(const Program& program, const Instance& inst) {
  Instance result = inst;
  bool changed = true;
  while (changed) {
    changed = false;
    std::vector<Fact> pending;
    for (const Rule& rule : program.rules()) {
      if (rule.body.empty()) {
        pending.push_back(Fact(rule.head.pred, {}));
        continue;
      }
      Instance pattern(result.vocab());
      pattern.EnsureElements(rule.num_vars());
      for (const QAtom& a : rule.body) {
        pattern.AddFact(a.pred,
                        std::vector<ElemId>(a.args.begin(), a.args.end()));
      }
      HomSearch search(pattern, result);
      search.ForEach({}, [&](const std::vector<ElemId>& map) {
        std::vector<ElemId> args;
        for (VarId v : rule.head.args) args.push_back(map[v]);
        pending.push_back(Fact(rule.head.pred, std::move(args)));
        return true;
      });
    }
    for (Fact& f : pending) {
      if (result.AddFact(f)) changed = true;
    }
  }
  return result;
}

namespace testing {

/// Reference for CheckMonotonicDeterminacy's test walk: the same canonical
/// tests in the same order, scanned one at a time with a full Eval each
/// and no pruning, on the calling thread, through its own D' assembly.
/// Its verdict, counterexample, tests_run and expansions_tried are what
/// the walk must reproduce (the mondet-parallel oracle); `evaluations` is
/// the number of D' built and evaluated. Checks only the vocabulary and
/// goal preconditions, not the optional fragment requirements.
MonDetResult FlatMonDetReference(const DatalogQuery& query,
                                 const ViewSet& views,
                                 const MonDetOptions& options);

}  // namespace testing
}  // namespace mondet

#endif  // MONDET_TESTING_REFERENCE_H_
