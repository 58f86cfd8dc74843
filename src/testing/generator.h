#ifndef MONDET_TESTING_GENERATOR_H_
#define MONDET_TESTING_GENERATOR_H_

#include <random>
#include <string>
#include <vector>

#include "automata/nta.h"
#include "base/instance.h"
#include "base/symbol_table.h"
#include "datalog/program.h"
#include "views/view_set.h"

namespace mondet {
namespace testing {

/// The knobs of one random-program family: predicate pools, rule shape
/// (variable / atom / rule counts) and instance size. The five historical
/// differential oracles are instances of this one scheme; their exact RNG
/// draw orders are preserved (tests/testing_golden_test.cc pins them), so
/// a (profile, seed) pair regenerates the same program bit for bit that
/// the pre-refactor test files generated.
struct GenProfile {
  /// Stable profile name ("eval", "plan", "dataflow", "query") — the key
  /// corpus files use to rebuild the vocabulary.
  std::string name;
  VocabularyPtr vocab;
  /// Predicate pools for rule generation.
  std::vector<PredId> body_preds;
  std::vector<PredId> head_preds;
  /// The distinguished 0-ary goal (used by goal-headed rules).
  PredId goal = kNoPred;
  /// Instance seeding pools: `base_preds` always participate,
  /// `rare_preds` only when seed % 3 == 0 (often-empty EDBs, so dead
  /// rules actually occur), `idb_preds` only when seed % 2 == 1 (FPEval
  /// is defined on instances that may mention IDB predicates, Prop. 4).
  std::vector<PredId> base_preds;
  std::vector<PredId> rare_preds;
  std::vector<PredId> idb_preds;
  /// Rule shape: variable pool and body length.
  int min_vars = 2, max_vars = 4;
  int min_atoms = 1, max_atoms = 3;
  /// Program shape.
  int min_rules = 2, max_rules = 6;
  /// Instance shape.
  int elems = 5, facts = 10;
};

/// The eval/maintenance family: EDBs E1/1, E2/2; IDBs I1/1, I2/2, G0/0.
GenProfile EvalProfile();
/// The planner family: adds the ternary EDB E3/3 and widens rules to
/// 2–5 variables / 1–4 atoms so join order genuinely matters.
GenProfile PlanProfile();
/// The dataflow family: adds the often-empty EDB Z1/1 and the IDB J2/2.
GenProfile DataflowProfile();
/// The mondet query family: eval schema with 1–4 rules plus a goal rule.
GenProfile QueryProfile();

/// Looks a profile factory up by its stable name; aborts on unknown names
/// (corpus files are the only caller and validate first).
GenProfile ProfileByName(const std::string& name);
/// All registered profile names.
std::vector<std::string> ProfileNames();

/// A random safe rule: min_atoms..max_atoms body atoms over `body_preds`
/// with variables from a pool of min_vars..max_vars, head over
/// `head_preds` (or the goal, when `goal_head`) with arguments drawn from
/// the variables the body actually used. Variable ids are compacted so
/// they are dense per rule (required by Rule::num_vars).
Rule RandomRule(const GenProfile& p, std::mt19937& rng,
                bool goal_head = false);

/// min_rules..max_rules random rules from a fresh mt19937(seed).
Program RandomProgram(const GenProfile& p, unsigned seed);

/// RandomProgram plus one final goal-headed rule (the mondet query shape).
Program RandomGoalProgram(const GenProfile& p, unsigned seed);

/// The instance predicate pool for `seed` (see GenProfile field docs).
std::vector<PredId> SeededPreds(const GenProfile& p, unsigned seed);

/// Random instance over the given predicates with `elems` elements and at
/// most `facts` facts (duplicates collapse). Draw order matches the
/// historical tests/test_util.h helper.
Instance RandomInstance(const VocabularyPtr& vocab,
                        const std::vector<PredId>& preds, int elems,
                        int facts, unsigned seed);

/// A random fact over `preds`, from a small element pool so duplicate
/// inserts and re-deletions are frequent.
Fact RandomBaseFact(const GenProfile& p, const std::vector<PredId>& preds,
                    size_t elems, std::mt19937& rng);

/// One raw insert/delete batch of a maintenance schedule, deliberately
/// unnormalized: duplicate inserts, deletes of absent facts and facts on
/// both sides are all legal (ApplyBatch normalizes it into the FactDelta
/// contract of CompiledProgram::Maintain).
struct RawBatch {
  std::vector<Fact> inserts;
  std::vector<Fact> deletes;
};

/// `steps` raw batches drawn against the *evolving* base: each batch is
/// applied (ApplyBatch) to a working copy of `base` before the next is
/// drawn (deletes sample live base facts), exactly as the historical
/// maintenance oracle interleaved them.
std::vector<RawBatch> RandomSchedule(const GenProfile& p,
                                     const std::vector<PredId>& churn_preds,
                                     const Instance& base, int steps,
                                     std::mt19937& rng);

/// A view definition the generator can serialize: either an atomic view
/// over `atomic_base`, or a parsed Datalog definition (`text` + `goal`).
struct ViewSpec {
  std::string name;
  PredId atomic_base = kNoPred;
  std::string text;
  std::string goal;
};

/// One of three view-set shapes over {E1, E2} (keyed by seed % 3):
/// all-atomic (lossless), a projection CQ plus an atomic view (lossy), or
/// a recursive MDL reachability view plus an atomic one.
std::vector<ViewSpec> RandomViewSpecs(const GenProfile& p, unsigned seed);

/// Materializes view specs into a ViewSet over `vocab`.
ViewSet BuildViews(const VocabularyPtr& vocab,
                   const std::vector<ViewSpec>& specs);

/// A random width-1 tree automaton over the two-label alphabet the
/// automata_ops tests enumerate (A = pred 0, B = pred 1 on position 0):
/// 1–3 states, random leaf/unary/binary transitions, random finals. Used
/// by the language-enumeration oracle arm for Determinize / Complement /
/// Product round-trips.
Nta RandomNta(unsigned seed);

/// The two node labels RandomNta draws from (shared with the tests'
/// enumeration of small codes).
NodeLabel NtaLabelA();
NodeLabel NtaLabelB();

/// The enumerable code universe of the automata_ops tests: every chain
/// over {A, B} of length 1..3 plus the binary-over-leaves shapes (both
/// root labels). The antichain-inclusion oracle's brute-force arm sweeps
/// exactly these codes against the decision procedures.
std::vector<TreeCode> NtaEnumerationCodes();

/// The exponential inclusion family: accepts the chains over {A, B}
/// whose node k levels below the root is labeled A. Nondeterministic
/// with k + 2 states; determinizing over the chain universe materializes
/// ~2^(k+1) subset states, while the antichain walk against a
/// single-chain left side visits O(k) macrostates.
Nta NthBelowRootIsANta(int k);

/// Accepts exactly the chain of `len` nodes all labeled A (deterministic,
/// `len` states). NthBelowRootIsANta(k) includes ChainOfANta(k + 1).
Nta ChainOfANta(int len);

}  // namespace testing
}  // namespace mondet

#endif  // MONDET_TESTING_GENERATOR_H_
