#include "views/maintained_image.h"

#include <utility>

#include "base/check.h"

namespace mondet {

MaintainedImage::MaintainedImage(ViewSet views, Instance base)
    : views_(std::move(views)),
      view_preds_(views_.ViewPreds()),
      base_(std::move(base)),
      fix_(views_.Compiled().Eval(base_)),
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
  const FactDelta delta = ApplyBatch(raw_inserts, raw_deletes, base_);
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

}  // namespace mondet
