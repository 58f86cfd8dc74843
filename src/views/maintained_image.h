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

/// Net view-image changes produced by one ApplyDelta batch: the facts
/// the view image gained and lost, in the maintenance engine's
/// deterministic order, plus the Backward/Forward counters of the
/// underlying fixpoint maintenance (see MaintainResult).
struct ImageDelta {
  std::vector<Fact> inserts;
  std::vector<Fact> deletes;
  size_t overdeleted = 0;  // facts disproved and removed (all strata)
  size_t rederived = 0;    // of those, put back by the continuation

  bool empty() const { return inserts.empty() && deletes.empty(); }
};

/// A view image V(I) maintained under an insert/delete stream.
///
/// Holds the base instance I, the fixpoint of the combined view program
/// (CompiledProgram::Eval), and the projection of that fixpoint to the
/// view predicates — kept current incrementally by
/// CompiledProgram::Maintain rather than recomputed per batch. The
/// correctness contract is inherited from Maintain: after every batch,
/// image() equals ViewSet::Image of the current base as a fact set
/// (FreshImage() recomputes it from scratch for cross-checking), so any
/// verdict or rewriting computed over the maintained image agrees with
/// one computed over a fresh evaluation.
class MaintainedImage {
 public:
  /// Evaluates the initial fixpoint of `base` under the combined view
  /// program.
  MaintainedImage(ViewSet views, Instance base);

  const ViewSet& views() const { return views_; }
  const Instance& base() const { return base_; }

  /// The maintained view image V(base), over the same elements as base().
  const Instance& image() const { return image_; }

  /// The maintained full fixpoint (the base, the view image and the
  /// per-view auxiliary IDBs).
  const Instance& fixpoint() const { return fix_; }

  /// Creates a fresh element in the base (and image), as Instance does.
  ElemId AddElement(std::string name = "");

  /// Applies one raw batch of base-fact mutations (ApplyBatch: it need
  /// not be normalized, and a fact on both sides counts as inserted) and
  /// maintains the image. Facts may be over any predicate —
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

 private:
  ViewSet views_;
  std::unordered_set<PredId> view_preds_;
  Instance base_;
  Instance fix_;
  Instance image_;
};

}  // namespace mondet

#endif  // MONDET_VIEWS_MAINTAINED_IMAGE_H_
