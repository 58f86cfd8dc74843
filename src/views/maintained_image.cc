#include "views/maintained_image.h"

#include <unordered_set>
#include <utility>

#include "base/check.h"
#include "core/mondet_check.h"

namespace mondet {

MaintainedImage::MaintainedImage(ViewSet views, Instance base)
    : views_(std::move(views)),
      view_preds_(views_.ViewPreds()),
      base_(std::move(base)),
      fix_(views_.Compiled().Materialize(base_)),
      image_(fix_.RestrictTo(view_preds_)) {}

ElemId MaintainedImage::AddElement(std::string name) {
  ElemId e = base_.AddElement(name);
  ElemId ef = fix_.AddElement(name);
  ElemId ei = image_.AddElement(std::move(name));
  MONDET_CHECK(e == ef && e == ei &&
               "MaintainedImage: element ids drifted out of sync");
  return e;
}

ImageDelta MaintainedImage::ApplyDelta(const std::vector<Fact>& raw_inserts,
                                       const std::vector<Fact>& raw_deletes,
                                       EvalStats* stats) {
  // Normalize the raw batch into Maintain's FactDelta contract:
  // new base = (old ∖ deletes) ∪ inserts, so inserts win over deletes
  // (checked against the *raw* insert set — a present fact listed on
  // both sides is a no-op, not a deletion), duplicates collapse, inserts
  // of present facts and deletes of absent facts drop out.
  std::unordered_set<Fact, FactHash> raw_ins_set(raw_inserts.begin(),
                                                 raw_inserts.end());
  FactDelta delta;
  std::unordered_set<Fact, FactHash> seen_ins, seen_del;
  for (const Fact& f : raw_inserts) {
    if (!base_.HasFact(f) && seen_ins.insert(f).second) {
      delta.inserts.push_back(f);
    }
  }
  for (const Fact& f : raw_deletes) {
    if (base_.HasFact(f) && !raw_ins_set.count(f) &&
        seen_del.insert(f).second) {
      delta.deletes.push_back(f);
    }
  }
  for (const Fact& f : delta.inserts) {
    MONDET_CHECK(base_.AddFact(f) && "MaintainedImage: insert not applied");
  }
  for (const Fact& f : delta.deletes) {
    MONDET_CHECK(base_.RemoveFact(f) &&
                 "MaintainedImage: delete not applied");
  }

  MaintainResult res = views_.Compiled().Maintain(fix_, base_, delta, stats);

  // Project the fixpoint's net changes onto the view schema.
  image_.EnsureElements(fix_.num_elements());
  ImageDelta out;
  out.overdeleted = res.overdeleted;
  out.rederived = res.rederived;
  for (const Fact& f : res.inserts) {
    if (!view_preds_.count(f.pred)) continue;
    MONDET_CHECK(image_.AddFact(f) &&
                 "MaintainedImage: image insert already present");
    out.inserts.push_back(f);
  }
  for (const Fact& f : res.deletes) {
    if (!view_preds_.count(f.pred)) continue;
    MONDET_CHECK(image_.RemoveFact(f) &&
                 "MaintainedImage: image delete already absent");
    out.deletes.push_back(f);
  }
  return out;
}

Instance MaintainedImage::FreshImage() const { return views_.Image(base_); }

MonDetResult MaintainedImage::RecheckVerdict(const DatalogQuery& query) const {
  return CheckMonotonicDeterminacy(query, views_);
}

MonDetResult MaintainedImage::RecheckVerdict(
    const DatalogQuery& query, const MonDetOptions& options) const {
  return CheckMonotonicDeterminacy(query, views_, options);
}

}  // namespace mondet
