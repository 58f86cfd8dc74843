#ifndef MONDET_DATALOG_EVAL_H_
#define MONDET_DATALOG_EVAL_H_

#include <set>

#include "base/instance.h"
#include "datalog/eval_plan.h"
#include "datalog/program.h"

namespace mondet {

/// FPEval(Π, I): the minimal IDB-extension of I satisfying Π (Sec. 2),
/// computed by stratified, delta-indexed semi-naive fixpoint iteration
/// (see CompiledProgram). The result contains all facts of `inst` plus
/// the derived IDB facts, over the same element ids.
///
/// One-shot convenience: compiles the program on every call. Callers that
/// evaluate the same program repeatedly should hold a CompiledProgram.
Instance FpEval(const Program& program, const Instance& inst);

/// As above, accumulating run counters into `stats` and honoring
/// `options` (planner and kernel knobs).
Instance FpEval(const Program& program, const Instance& inst,
                EvalStats* stats, const EvalOptions& options = {});

/// Output(Q, I): the set of goal tuples of the Datalog query on `inst`.
std::set<std::vector<ElemId>> EvaluateDatalog(const DatalogQuery& query,
                                              const Instance& inst);

/// Boolean evaluation (true iff the goal relation is non-empty).
bool DatalogHoldsOn(const DatalogQuery& query, const Instance& inst);

/// True iff the given tuple is in Output(Q, inst).
bool DatalogHoldsOn(const DatalogQuery& query, const Instance& inst,
                    const std::vector<ElemId>& tuple);

}  // namespace mondet

#endif  // MONDET_DATALOG_EVAL_H_
