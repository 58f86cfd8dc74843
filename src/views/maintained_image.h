#ifndef MONDET_VIEWS_MAINTAINED_IMAGE_H_
#define MONDET_VIEWS_MAINTAINED_IMAGE_H_

#include <cstddef>
#include <string>
#include <unordered_set>
#include <vector>

#include "base/instance.h"
#include "datalog/eval_plan.h"
#include "views/view_set.h"

namespace mondet {

// Forward-declared (core/ layers above views/): the verdict re-check
// overloads are defined in maintained_image.cc.
struct MonDetOptions;
struct MonDetResult;

/// Net view-image changes produced by one ApplyDelta batch: the facts
/// the view image gained and lost, in the maintenance engine's
/// deterministic order, plus the DRed counters of the underlying
/// fixpoint maintenance.
struct ImageDelta {
  std::vector<Fact> inserts;
  std::vector<Fact> deletes;
  size_t overdeleted = 0;  // DRed provisional deletions (all strata)
  size_t rederived = 0;    // provisional deletions that came back

  bool empty() const { return inserts.empty() && deletes.empty(); }
};

/// A view image V(I) maintained under an insert/delete stream.
///
/// Holds the base instance I, the materialized fixpoint of the combined
/// view program (with derivation counts and statistics, see
/// Materialization), and the projection of that fixpoint to the view
/// predicates — kept current incrementally by CompiledProgram::Maintain
/// rather than recomputed per batch. The correctness contract is
/// inherited from Maintain: after every batch, image() is bit-identical
/// to ViewSet::Image of the current base (FreshImage() recomputes it
/// from scratch for cross-checking), so any verdict or rewriting
/// computed over the maintained image agrees with one computed over a
/// fresh evaluation.
class MaintainedImage {
 public:
  /// Materializes the initial fixpoint of `base` under the combined view
  /// program.
  MaintainedImage(ViewSet views, Instance base);

  const ViewSet& views() const { return views_; }
  const Instance& base() const { return base_; }

  /// The maintained view image V(base), over the same elements as base().
  const Instance& image() const { return image_; }

  /// The maintained full fixpoint (view image plus per-view auxiliary
  /// IDBs), with derivation counts and statistics.
  const Materialization& materialization() const { return fix_; }

  /// Creates a fresh element in the base (and image), as Instance does.
  ElemId AddElement(std::string name = "");

  /// Applies one raw batch of base-fact mutations and maintains the
  /// image. The batch need not be normalized: duplicate inserts, inserts
  /// of present facts, and deletes of absent facts drop out, and a fact
  /// appearing on both sides is treated as inserted (new base =
  /// (old ∖ deletes) ∪ inserts). Facts may be over any predicate —
  /// base-level IDB facts follow the FPEval convention (Prop. 4) — but
  /// must use existing elements. Returns the net change of the view
  /// image; `stats` (optional) accumulates the maintenance counters.
  ImageDelta ApplyDelta(const std::vector<Fact>& raw_inserts,
                        const std::vector<Fact>& raw_deletes,
                        EvalStats* stats = nullptr);

  /// From-scratch recomputation of the view image of the current base
  /// (ViewSet::Image); the oracle the maintained image() is checked
  /// against.
  Instance FreshImage() const;

  /// Re-runs the monotonic-determinacy check for `query` against the
  /// views. The check is static — it depends on the query and view
  /// definitions, not the maintained data — so this is how a stream
  /// consumer re-validates that the maintained image still determines
  /// the query answer after schema-visible churn.
  MonDetResult RecheckVerdict(const DatalogQuery& query) const;
  MonDetResult RecheckVerdict(const DatalogQuery& query,
                              const MonDetOptions& options) const;

 private:
  ViewSet views_;
  std::unordered_set<PredId> view_preds_;
  Instance base_;
  Materialization fix_;
  Instance image_;
};

}  // namespace mondet

#endif  // MONDET_VIEWS_MAINTAINED_IMAGE_H_
