#include "base/stats.h"

#include <algorithm>
#include <span>

namespace mondet {

Stats Stats::Collect(const Instance& inst) {
  Stats s;
  const size_t n = inst.vocab()->size();
  s.by_pred_.resize(n);
  std::vector<ElemId> scratch;
  for (PredId p = 0; p < n; ++p) s.CountPred(inst, p, scratch);
  return s;
}

void Stats::Refresh(const Instance& inst, const std::vector<PredId>& preds) {
  std::vector<ElemId> scratch;
  for (PredId p : preds) CountPred(inst, p, scratch);
}

void Stats::CountPred(const Instance& inst, PredId p,
                      std::vector<ElemId>& scratch) {
  if (p >= by_pred_.size()) by_pred_.resize(p + 1);
  PredicateStats& ps = by_pred_[p];
  const uint32_t rows = inst.NumRows(p);
  const int arity = inst.vocab()->arity(p);
  ps.cardinality = rows;
  ps.distinct.assign(arity, 0);
  // Sort each column and count its runs: the distinct counts the planner
  // reads.
  const std::span<const ElemId> flat = inst.FlatArgs(p);
  for (int pos = 0; pos < arity; ++pos) {
    scratch.clear();
    for (uint32_t row = 0; row < rows; ++row) {
      scratch.push_back(flat[static_cast<size_t>(row) * arity + pos]);
    }
    std::sort(scratch.begin(), scratch.end());
    ps.distinct[pos] = static_cast<size_t>(
        std::unique(scratch.begin(), scratch.end()) - scratch.begin());
  }
}

double Stats::EstimateMatches(PredId p, const std::vector<ElemId>& args,
                              const std::vector<bool>& bound_var) const {
  if (p >= by_pred_.size()) return 0.0;
  const PredicateStats& ps = by_pred_[p];
  if (ps.cardinality == 0) return 0.0;
  double est = static_cast<double>(ps.cardinality);
  const size_t n = std::min(args.size(), ps.distinct.size());
  for (size_t i = 0; i < n; ++i) {
    if (args[i] < bound_var.size() && bound_var[args[i]]) {
      est /= static_cast<double>(std::max<size_t>(1, ps.distinct[i]));
    }
  }
  return est;
}

}  // namespace mondet
