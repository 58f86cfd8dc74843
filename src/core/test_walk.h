#ifndef MONDET_CORE_TEST_WALK_H_
#define MONDET_CORE_TEST_WALK_H_

#include <cstddef>
#include <map>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "base/instance.h"
#include "datalog/approximation.h"
#include "datalog/eval_plan.h"
#include "views/view_set.h"

namespace mondet {

// The canonical-test walk: replace every view fact by an expansion of its
// view's definition and evaluate Q on the resulting D'. Lemma 5's checker
// (CheckMonotonicDeterminacy) runs it once per query approximation, on the
// approximation's view image; the Sec. 7 chase separator
// (ChaseSeparatorAccepts) runs it once, on J.

/// Every view's expansions up to `depth` by view predicate, at most `cap`
/// per view. The flag is true when these are all of them: no view hit the
/// cap, and every definition is non-recursive with `depth` >= its number
/// of IDBs (a non-recursive derivation path visits distinct IDBs, so that
/// depth reaches every expansion).
std::pair<std::map<PredId, std::vector<Expansion>>, bool> ViewExpansions(
    const ViewSet& views, int depth, size_t cap);

/// The number of tests a sequential lexicographic walk over these per-fact
/// choices counts: min(Π |*options[i]|, cap), or 0 when some fact has no
/// expansion. When that leaves some test unbuilt (a cut product or a fact
/// without expansions), clears `*all_built` if it is non-null.
size_t TestBlockSize(const std::vector<const std::vector<Expansion>*>& options,
                     size_t cap, bool* all_built = nullptr);

inline constexpr size_t kNoTest = static_cast<size_t>(-1);

/// One block of canonical tests, walked as a trie. A depth-k node fixes
/// the view expansions of facts 0..k-1; its leaves are the tests numbered
/// in mixed radix with fact 0 most significant, cut off at `size` tests;
/// every fact has a choice and `size` is positive (TestBlockSize).
///
/// A test passes when its D' satisfies Q(c) for the frontier tuple c, a
/// tuple over the base elements (empty for a Boolean Q). The walk is
/// depth-first in test order and evaluates Q on the D' prefix of every
/// node with two or more children in range. Q is monotone and a prefix is
/// a sub-instance of every D' below it with the same element ids — the
/// base elements, c's among them, come first — so when the prefix
/// satisfies Q(c) every test below passes, and when the prefix cannot be
/// built no test below can. Either way the subtree is skipped. The first
/// failing leaf met is therefore the lowest failing test index.
///
/// The prefixes live in one working instance: a child appends its fact's
/// expansion, is walked, and is rolled back. An evaluation continues Q's
/// fixpoint from the last evaluated ancestor's (CompiledProgram::EvalFrom)
/// over the facts appended since.
class TestBlockWalk {
 public:
  /// `compiled` is Q's program; every D' is built over its vocabulary.
  TestBlockWalk(const std::vector<Fact>& facts, size_t base_elems,
                std::span<const ElemId> frontier, PredId goal,
                const CompiledProgram& compiled,
                std::vector<const std::vector<Expansion>*> options,
                size_t size);

  /// The lowest failing test index, or kNoTest.
  size_t Run() { return Visit(0, 0, 0); }

  size_t evaluations() const { return evaluations_; }
  /// The D' of the failing test Run returned.
  Instance TakeFailure() { return std::move(*failure_); }

 private:
  /// Does the working D' satisfy Q(c)? Its facts below `fixpoint_end`
  /// are a fixpoint of Q (none at the first evaluation). (The paper
  /// states the Boolean case; the tuple version is the natural
  /// non-Boolean extension.)
  bool Holds(uint32_t fixpoint_end) {
    ++evaluations_;
    compiled_.EvalFrom(work_, fixpoint_end);
    return work_.HasFact(goal_, frontier_);
  }

  /// The lowest failing test index under the depth-`depth` node whose
  /// first leaf is test `first`, or kNoTest. The working instance holds
  /// the node's prefix, a fixpoint of Q below `fixpoint_end`.
  size_t Visit(size_t depth, size_t first, uint32_t fixpoint_end);

  const std::vector<Fact>& facts_;
  const size_t base_elems_;
  const std::span<const ElemId> frontier_;
  const PredId goal_;
  const CompiledProgram& compiled_;
  const std::vector<const std::vector<Expansion>*> options_;
  const size_t size_;
  std::vector<size_t> span_;
  std::vector<const Expansion*> choice_;
  Instance work_;               // the current prefix, plus derived facts
  std::vector<ElemId> map_;     // AppendExpansion's scratch
  size_t evaluations_ = 0;
  std::optional<Instance> failure_;
};

}  // namespace mondet

#endif  // MONDET_CORE_TEST_WALK_H_
