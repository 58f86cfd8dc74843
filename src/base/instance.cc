#include "base/instance.h"

#include <algorithm>
#include <sstream>

#include "base/check.h"

namespace mondet {

Instance::Instance(const Instance& o)
    : vocab_(o.vocab_),
      num_elements_(o.num_elements_),
      names_(o.names_),
      preds_(o.preds_),
      index_(o.preds_.size()),
      order_(o.order_),
      table_(o.table_),
      table_live_(o.table_live_),
      table_used_(o.table_used_),
      degree_(o.degree_) {
  // index_ mirrors preds_ in shape (EnsurePred sizes them together) but
  // every PosIndex starts unbuilt; see the header note on copy semantics.
  for (size_t p = 0; p < preds_.size(); ++p) index_[p].resize(preds_[p].arity);
}

Instance& Instance::operator=(const Instance& o) {
  if (this != &o) {
    Instance tmp(o);
    *this = std::move(tmp);
  }
  return *this;
}

ElemId Instance::AddElement(std::string name) {
  ElemId id = static_cast<ElemId>(num_elements_++);
  // Unnamed elements store ""; element_name synthesizes "e<id>" on read.
  names_.push_back(std::move(name));
  degree_.push_back(0);
  return id;
}

void Instance::EnsureElements(size_t n) {
  while (num_elements_ < n) AddElement();
}

Instance::PredStore& Instance::EnsurePred(PredId pred) {
  if (preds_.size() <= pred) {
    preds_.resize(vocab_->size());
    index_.resize(vocab_->size());
  }
  PredStore& st = preds_[pred];
  if (st.counts.empty() && st.arity == 0) {
    st.arity = static_cast<uint32_t>(vocab_->arity(pred));
    index_[pred].resize(st.arity);
  }
  return st;
}

size_t Instance::FindSlot(PredId pred, std::span<const ElemId> args,
                          uint64_t hash) const {
  const size_t mask = table_.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    const TableSlot& s = table_[i];
    if (s.gid == kEmptySlot) return kNoSlot;
    if (s.gid == kTombSlot || s.hash != hash) continue;
    const auto [p, row] = Locate(s.gid);
    if (FactEq::Same(p, Args(p, row), pred, args)) return i;
  }
}

void Instance::RehashTable(size_t min_live) {
  size_t cap = 16;
  while (cap * 3 < min_live * 4 * 2) cap <<= 1;  // target load <= 0.375
  std::vector<TableSlot> fresh(cap);
  const size_t mask = cap - 1;
  for (const TableSlot& s : table_) {
    if (s.gid == kEmptySlot || s.gid == kTombSlot) continue;
    size_t i = s.hash & mask;
    while (fresh[i].gid != kEmptySlot) i = (i + 1) & mask;
    fresh[i] = s;
  }
  table_ = std::move(fresh);
  table_used_ = table_live_;
}

void Instance::RepointTableGid(PredId pred, std::span<const ElemId> args,
                               uint32_t gid) {
  const size_t slot = FindSlot(pred, args, HashFactKey(pred, args));
  MONDET_CHECK(slot != kNoSlot && "Instance: repointing an absent fact");
  table_[slot].gid = gid;
}

bool Instance::AddFact(PredId pred, std::span<const ElemId> args) {
  MONDET_CHECK(pred < vocab_->size());
  MONDET_CHECK(static_cast<int>(args.size()) == vocab_->arity(pred));
  for (ElemId a : args) MONDET_CHECK(a < num_elements_);
  // Keep the table under 3/4 load counting tombstones; rehashing drops
  // them and keeps probe chains short.
  if (table_.empty() || (table_used_ + 1) * 4 > table_.size() * 3) {
    RehashTable(table_live_ + 1);
  }
  const uint64_t hash = HashFactKey(pred, args);
  const size_t mask = table_.size() - 1;
  size_t insert_at = kNoSlot;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    const TableSlot& s = table_[i];
    if (s.gid == kEmptySlot) {
      if (insert_at == kNoSlot) {
        insert_at = i;
        ++table_used_;
      }
      break;
    }
    if (s.gid == kTombSlot) {
      if (insert_at == kNoSlot) insert_at = i;
      continue;
    }
    if (s.hash == hash) {
      const auto [p, row] = Locate(s.gid);
      if (FactEq::Same(p, Args(p, row), pred, args)) return false;
    }
  }
  const uint32_t gid = static_cast<uint32_t>(order_.size());
  table_[insert_at] = {hash, gid};
  ++table_live_;

  PredStore& st = EnsurePred(pred);
  const uint32_t row = static_cast<uint32_t>(st.counts.size());
  st.data.insert(st.data.end(), args.begin(), args.end());
  st.counts.push_back(1);
  st.global_of.push_back(gid);
  order_.push_back((static_cast<uint64_t>(pred) << 32) | row);
  for (ElemId a : args) degree_[a]++;
  // Keep built positional indexes current, so a fixpoint loop probing
  // between insertions never rebuilds.
  std::vector<PosIndex>& pix = index_[pred];
  for (uint32_t pos = 0; pos < st.arity; ++pos) {
    PosIndex& ix = pix[pos];
    if (!ix.built) continue;
    const ElemId val = args[pos];
    if (val >= ix.buckets.size()) ix.buckets.resize(val + 1);
    ix.slots.push_back(static_cast<uint32_t>(ix.buckets[val].size()));
    ix.buckets[val].push_back(row);
  }
  return true;
}

bool Instance::HasFact(PredId pred, std::span<const ElemId> args) const {
  if (table_.empty()) return false;
  return FindSlot(pred, args, HashFactKey(pred, args)) != kNoSlot;
}

bool Instance::RemoveFact(PredId pred, std::span<const ElemId> args) {
  if (table_.empty()) return false;
  const size_t slot = FindSlot(pred, args, HashFactKey(pred, args));
  if (slot == kNoSlot) return false;
  const uint32_t gid = table_[slot].gid;
  const auto [p, row] = Locate(gid);
  PredStore& st = preds_[pred];
  const uint32_t arity = st.arity;
  const uint32_t rlast = static_cast<uint32_t>(st.counts.size()) - 1;

  // 1. Unhook `row` from every built positional index: O(1) swap-and-pop
  //    inside its bucket via the row -> bucket-slot map.
  std::vector<PosIndex>& pix = index_[pred];
  for (uint32_t pos = 0; pos < arity; ++pos) {
    PosIndex& ix = pix[pos];
    if (!ix.built) continue;
    const ElemId val = st.data[static_cast<size_t>(row) * arity + pos];
    std::vector<uint32_t>& b = ix.buckets[val];
    const uint32_t i = ix.slots[row];
    b[i] = b.back();
    ix.slots[b[i]] = i;
    b.pop_back();
  }
  for (ElemId a : args) degree_[a]--;
  table_[slot].gid = kTombSlot;
  --table_live_;

  // 2. Compact the predicate's rows: move the last row into the freed one
  //    and re-point its index entries, global id and row coordinates.
  if (row != rlast) {
    for (uint32_t pos = 0; pos < arity; ++pos) {
      PosIndex& ix = pix[pos];
      if (!ix.built) continue;
      const ElemId val = st.data[static_cast<size_t>(rlast) * arity + pos];
      const uint32_t i = ix.slots[rlast];
      ix.buckets[val][i] = row;
      ix.slots[row] = i;
    }
    std::copy_n(st.data.begin() + static_cast<size_t>(rlast) * arity, arity,
                st.data.begin() + static_cast<size_t>(row) * arity);
    st.counts[row] = st.counts[rlast];
    const uint32_t moved_gid = st.global_of[rlast];
    st.global_of[row] = moved_gid;
    order_[moved_gid] = (static_cast<uint64_t>(pred) << 32) | row;
  }
  st.data.resize(st.data.size() - arity);
  st.counts.pop_back();
  st.global_of.pop_back();
  for (uint32_t pos = 0; pos < arity; ++pos) {
    if (pix[pos].built) pix[pos].slots.pop_back();
  }

  // 3. Compact the global order: the last global id moves into the freed
  //    one; its (pred,row) coordinates and table entry follow.
  const uint32_t glast = static_cast<uint32_t>(order_.size()) - 1;
  if (gid != glast) {
    const uint64_t packed = order_[glast];
    order_[gid] = packed;
    const PredId mp = static_cast<PredId>(packed >> 32);
    const uint32_t mr = static_cast<uint32_t>(packed);
    preds_[mp].global_of[mr] = gid;
    RepointTableGid(mp, Args(mp, mr), gid);
  }
  order_.pop_back();
  return true;
}

uint64_t Instance::FactCount(const Fact& f) const {
  if (table_.empty()) return 0;
  const size_t slot = FindSlot(f.pred, f.args, HashFactKey(f.pred, f.args));
  if (slot == kNoSlot) return 0;
  const auto [p, row] = Locate(table_[slot].gid);
  return preds_[p].counts[row];
}

void Instance::SetFactCount(const Fact& f, uint64_t count) {
  MONDET_CHECK(!table_.empty());
  const size_t slot = FindSlot(f.pred, f.args, HashFactKey(f.pred, f.args));
  MONDET_CHECK(slot != kNoSlot);
  MONDET_CHECK(count > 0);
  const auto [p, row] = Locate(table_[slot].gid);
  preds_[p].counts[row] = count;
}

void Instance::SetCountAt(PredId pred, uint32_t row, uint64_t count) {
  MONDET_CHECK(count > 0);
  preds_[pred].counts[row] = count;
}

std::vector<Fact> Instance::AllFacts() const {
  std::vector<Fact> out;
  out.reserve(order_.size());
  for (uint32_t g = 0; g < order_.size(); ++g) out.push_back(FactAt(g));
  return out;
}

void Instance::BuildPosIndex(PredId pred, int pos) const {
  const PredStore& st = preds_[pred];
  PosIndex& ix = index_[pred][pos];
  ix.built = true;
  const uint32_t rows = static_cast<uint32_t>(st.counts.size());
  const uint32_t arity = st.arity;
  const ElemId* col = st.data.data() + pos;
  // Counting-sort build: count per-value occurrences, reserve each bucket
  // exactly, then scatter rows in row order (so bucket order == insertion
  // order, the order the determinism contracts rely on).
  ElemId max_val = 0;
  for (uint32_t r = 0; r < rows; ++r) {
    max_val = std::max(max_val, col[static_cast<size_t>(r) * arity]);
  }
  std::vector<uint32_t> cnt(rows == 0 ? 0 : max_val + 1, 0);
  for (uint32_t r = 0; r < rows; ++r) {
    ++cnt[col[static_cast<size_t>(r) * arity]];
  }
  ix.buckets.assign(cnt.size(), {});
  for (ElemId v = 0; v < cnt.size(); ++v) {
    if (cnt[v] > 0) ix.buckets[v].reserve(cnt[v]);
  }
  ix.slots.resize(rows);
  for (uint32_t r = 0; r < rows; ++r) {
    std::vector<uint32_t>& b = ix.buckets[col[static_cast<size_t>(r) * arity]];
    ix.slots[r] = static_cast<uint32_t>(b.size());
    b.push_back(r);
  }
}

std::span<const uint32_t> Instance::BuildAndProbe(PredId pred, int pos,
                                                  ElemId val) const {
  if (pred >= preds_.size() || preds_[pred].counts.empty()) return {};
  if (!index_[pred][pos].built) BuildPosIndex(pred, pos);
  const PosIndex& ix = index_[pred][pos];
  if (val >= ix.buckets.size()) return {};
  const std::vector<uint32_t>& b = ix.buckets[val];
  return {b.data(), b.size()};
}

std::vector<ElemId> Instance::ActiveDomain() const {
  std::vector<ElemId> out;
  for (ElemId e = 0; e < num_elements_; ++e) {
    if (degree_[e] > 0) out.push_back(e);
  }
  return out;
}

bool Instance::InActiveDomain(ElemId e) const {
  return e < num_elements_ && degree_[e] > 0;
}

size_t Instance::Degree(ElemId e) const {
  MONDET_CHECK(e < num_elements_);
  return degree_[e];
}

std::vector<ElemId> Instance::DisjointUnionWith(const Instance& other) {
  MONDET_CHECK(vocab_.get() == other.vocab_.get());
  std::vector<ElemId> translation(other.num_elements());
  for (ElemId e = 0; e < other.num_elements(); ++e) {
    translation[e] = AddElement(other.element_name(e) + "'");
  }
  std::vector<ElemId> args;
  for (uint32_t g = 0; g < other.num_facts(); ++g) {
    const FactView f = other.ViewAt(g);
    args.clear();
    for (ElemId a : f.args) args.push_back(translation[a]);
    AddFact(f.pred, args);
  }
  return translation;
}

Instance Instance::RestrictTo(const std::unordered_set<PredId>& preds) const {
  Instance out(vocab_);
  out.EnsureElements(num_elements_);
  for (ElemId e = 0; e < num_elements_; ++e) out.names_[e] = names_[e];
  for (uint32_t g = 0; g < num_facts(); ++g) {
    const FactView f = ViewAt(g);
    if (preds.count(f.pred)) out.AddFact(f.pred, f.args);
  }
  return out;
}

namespace {
std::string FactToStringImpl(const Instance& inst, PredId pred,
                             std::span<const ElemId> args) {
  std::ostringstream os;
  os << inst.vocab()->name(pred) << "(";
  for (size_t i = 0; i < args.size(); ++i) {
    if (i) os << ",";
    os << inst.element_name(args[i]);
  }
  os << ")";
  return os.str();
}
}  // namespace

std::string Instance::DebugString() const {
  std::ostringstream os;
  os << "{";
  for (uint32_t g = 0; g < num_facts(); ++g) {
    if (g) os << ", ";
    const FactView f = ViewAt(g);
    os << FactToStringImpl(*this, f.pred, f.args);
  }
  os << "}";
  return os.str();
}

std::string FactToString(const Instance& inst, const Fact& f) {
  return FactToStringImpl(inst, f.pred, f.args);
}

std::string FactToString(const Instance& inst, const FactView& f) {
  return FactToStringImpl(inst, f.pred, f.args);
}

}  // namespace mondet
