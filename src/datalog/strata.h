#ifndef MONDET_DATALOG_STRATA_H_
#define MONDET_DATALOG_STRATA_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "datalog/program.h"

namespace mondet {

/// The stratification of a program: the SCCs of its IDB dependency graph
/// (an edge P -> Q when Q occurs in the body of a rule with head P), in
/// dependency-first order. One stratum per SCC; the evaluator (FPEval),
/// the dataflow analyses, the recursion report and the non-recursive
/// fragment check all read this one computation.
struct Stratification {
  struct Stratum {
    std::vector<uint32_t> rules;  // rule indices, program order
    std::vector<PredId> preds;    // the SCC's predicates, sorted
    bool recursive = false;       // some rule has a same-stratum body atom
  };
  /// Every stratum only reads IDBs of itself and of earlier strata.
  std::vector<Stratum> strata;
  /// IDB predicate -> index of its stratum.
  std::unordered_map<PredId, size_t> stratum_of;
  /// Per rule: the indices of its body atoms over its own stratum's
  /// predicates (its recursive atoms, the semi-naive delta seats), in body
  /// order. A rule has some iff the program recurses through it.
  std::vector<std::vector<int>> recursive_atoms;
};

/// Stratifies `program`. Node ids are the IDBs in sorted order, so the
/// strata and their order are a function of the program alone.
Stratification Stratify(const Program& program);

}  // namespace mondet

#endif  // MONDET_DATALOG_STRATA_H_
