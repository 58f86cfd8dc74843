#ifndef MONDET_VIEWS_VIEW_SET_H_
#define MONDET_VIEWS_VIEW_SET_H_

#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "analysis/analyzer.h"
#include "cq/cq.h"
#include "datalog/program.h"

namespace mondet {

class CompiledProgram;
struct EvalOptions;
struct EvalStats;

/// One view (V, Q_V): a view predicate together with its Datalog definition
/// over the base schema. The definition's goal predicate is the view
/// predicate itself (the paper's convention in Thm 1); IDB predicates are
/// renamed apart per view on insertion.
struct View {
  PredId pred = kNoPred;
  DatalogQuery definition;

  /// True if the definition is a single non-recursive rule over EDBs.
  bool IsCq() const;

  /// The definition as a CQ; the view must satisfy IsCq().
  CQ AsCq() const;
};

/// A collection of views over a shared base schema (Sec. 2).
class ViewSet {
 public:
  explicit ViewSet(VocabularyPtr vocab) : vocab_(std::move(vocab)) {}

  const VocabularyPtr& vocab() const { return vocab_; }

  /// Adds a view named `name` defined by `def` (arity = def goal arity).
  /// The definition's IDB predicates (including the goal) are renamed to
  /// fresh "name.P" predicates so different views never share IDBs.
  PredId AddView(const std::string& name, const DatalogQuery& def);

  /// Validating variant of AddView for user-reachable paths: runs the
  /// definition through the static analyzer (vocabulary, goal, arity,
  /// safety) and, when `required` is set, checks membership in the
  /// fragment. On any error nothing is added and nullopt is returned,
  /// with the witnesses appended to `diags` (may be null).
  std::optional<PredId> TryAddView(
      const std::string& name, const DatalogQuery& def,
      std::vector<Diagnostic>* diags,
      std::optional<Fragment> required = std::nullopt);

  /// Adds a CQ-defined view.
  PredId AddCqView(const std::string& name, const CQ& def);

  /// Adds the atomic view name(x1..xn) ← base(x1..xn) (Thm 6's VYSucc etc).
  PredId AddAtomicView(const std::string& name, PredId base);

  const std::vector<View>& views() const { return views_; }
  const View* FindView(PredId pred) const;

  /// The view schema Σ_V.
  std::unordered_set<PredId> ViewPreds() const;

  /// The view image V(I): an instance over the same elements whose facts
  /// are exactly the view-predicate outputs. Evaluated with the cached
  /// compiled view program; pass `stats` to collect evaluation counters.
  Instance Image(const Instance& inst) const;
  Instance Image(const Instance& inst, EvalStats* stats) const;
  /// As above with caller-chosen evaluation options. No library caller
  /// passes any; kept only because perfbench/cpp/check_workload.cc calls
  /// it, and it goes with the next benchmark change (ROADMAP.md).
  Instance Image(const Instance& inst, EvalStats* stats,
                 const EvalOptions& options) const;

  /// Π_V: the union of all view definition rules (goal = view predicate).
  Program CombinedProgram() const;

  /// The combined view program compiled for repeated evaluation. Cached;
  /// rebuilt lazily after view insertions.
  const CompiledProgram& Compiled() const;

  /// Classification helpers for picking decision procedures.
  bool AllCq() const;
  bool AllFrontierGuarded() const;
  bool AllMonadicOrCq() const;

  /// Largest radius of a CQ view definition (Lemma 3's r); CQ views only.
  int MaxCqRadius() const;

 private:
  VocabularyPtr vocab_;
  std::vector<View> views_;
  // Shared so ViewSet stays copyable. Copies share one compiled program:
  // its plans are fixed, and Eval only adds to its kernel cache.
  mutable std::shared_ptr<const CompiledProgram> compiled_;
};

/// Rewrites `program` replacing every occurrence (head and body) of
/// predicate `from` with `to` (same arity).
Program RenamePredicate(const Program& program, PredId from, PredId to);

/// The Thm 2 preprocessing (appendix): replaces every *disconnected* CQ
/// view by connected ones. A view V(x̄) = Q1(x̄1) ∧ Q2(x̄2) ∧ ... over
/// disjoint components becomes one view per component,
/// Vi(x̄i) = Qi(x̄i) ∧ (∃-closure of every other component), so that the
/// original view is the join of the replacements and each replacement is
/// a projection of the original: the two view sets determine the same
/// queries. Views that are already connected (or not CQs) are kept.
/// New view predicates are named "<name>#<component>".
ViewSet SplitDisconnectedCqViews(const ViewSet& views);

}  // namespace mondet

#endif  // MONDET_VIEWS_VIEW_SET_H_
