#include "core/cq_automaton.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "base/check.h"

namespace mondet {

namespace {

uint64_t HashWords(std::span<const uint64_t> key) {
  uint64_t h = 0x243f6a8885a308d3ull ^ key.size();
  for (uint64_t w : key) h = (std::rotl(h, 23) ^ w) * 0x9e3779b97f4a7c15ull;
  h ^= h >> 29;
  h *= 0xbf58476d1ce4e5b9ull;
  return h ^ (h >> 32);
}

/// Calls f(id) for every set bit of a bitset, in increasing order.
template <typename F>
void ForEachBit(std::span<const uint64_t> bits, F f) {
  for (size_t w = 0; w < bits.size(); ++w) {
    for (uint64_t word = bits[w]; word != 0; word &= word - 1) {
      f(static_cast<uint32_t>(w * 64 + std::countr_zero(word)));
    }
  }
}

}  // namespace

uint32_t WordInterner::Intern(std::span<const uint64_t> key) {
  const uint64_t h = HashWords(key);
  if (!slots_.empty()) {
    const size_t mask = slots_.size() - 1;
    for (size_t i = h & mask; slots_[i] != kEmpty; i = (i + 1) & mask) {
      const uint32_t id = slots_[i];
      if (hashes_[id] == h && std::ranges::equal((*this)[id], key)) return id;
    }
  }
  const uint32_t id = static_cast<uint32_t>(hashes_.size());
  MONDET_CHECK(id != kEmpty);
  words_.insert(words_.end(), key.begin(), key.end());
  begin_.push_back(words_.size());
  hashes_.push_back(h);
  auto place = [&](uint32_t x) {
    const size_t mask = slots_.size() - 1;
    size_t i = hashes_[x] & mask;
    while (slots_[i] != kEmpty) i = (i + 1) & mask;
    slots_[i] = x;
  };
  if (2 * hashes_.size() > slots_.size()) {
    // Rehash at half load into twice the capacity (16 to start).
    slots_.assign(std::max<size_t>(16, 2 * slots_.size()), kEmpty);
    for (uint32_t old = 0; old < id; ++old) place(old);
  }
  place(id);
  return id;
}

CqMatchAutomaton::CqMatchAutomaton(const CQ& cq, int width)
    : cq_(cq), width_(width), num_vars_(cq.num_vars()) {
  MONDET_CHECK(cq_.free_vars().empty());
  MONDET_CHECK(cq_.atoms().size() <= 64);
  MONDET_CHECK(width_ <= 120);
  all_atoms_ = cq_.atoms().size() == 64
                   ? ~uint64_t{0}
                   : ((uint64_t{1} << cq_.atoms().size()) - 1);
  var_atoms_.assign(num_vars_, 0);
  for (size_t ai = 0; ai < cq_.atoms().size(); ++ai) {
    for (VarId v : cq_.atoms()[ai].args) var_atoms_[v] |= uint64_t{1} << ai;
  }
  key_.assign(1 + (num_vars_ + 7) / 8, 0);
  pos_.assign(num_vars_, kUnseen);
  next_.assign(num_vars_, kUnseen);
  to_parent_.assign(width_, kGone);
}

uint64_t CqMatchAutomaton::Decode(MatchId id, int8_t* pos) const {
  std::span<const uint64_t> words = matches_[id];
  if (num_vars_ > 0) std::memcpy(pos, &words[1], num_vars_);
  return words[0];
}

CqMatchAutomaton::MatchId CqMatchAutomaton::InternMatch(uint64_t atoms,
                                                        const int8_t* pos) {
  key_.back() = 0;  // zero the padding of the last position word
  key_[0] = atoms;
  if (num_vars_ > 0) std::memcpy(&key_[1], pos, num_vars_);
  return matches_.Intern(key_);
}

bool CqMatchAutomaton::Alive(uint64_t atoms, const int8_t* pos) const {
  for (size_t v = 0; v < num_vars_; ++v) {
    if (pos[v] == kGone && (var_atoms_[v] & ~atoms) != 0) return false;
  }
  return true;
}

bool CqMatchAutomaton::AddToSet(MatchId id) {
  const size_t w = id / 64;
  if (w >= bits_.size()) bits_.resize(w + 1, 0);
  const uint64_t bit = uint64_t{1} << (id % 64);
  if (bits_[w] & bit) return false;
  bits_[w] |= bit;
  return true;
}

void CqMatchAutomaton::LiftInto(DpState state, const EdgeLabel& edge) {
  // child position -> parent position
  std::fill(to_parent_.begin(), to_parent_.end(), kGone);
  for (const auto& [pi, ci] : edge.same) {
    to_parent_[ci] = static_cast<int8_t>(pi);
  }
  ForEachBit(states_[state], [&](MatchId id) {
    const uint64_t atoms = Decode(id, pos_.data());
    for (size_t v = 0; v < num_vars_; ++v) {
      if (pos_[v] >= 0) pos_[v] = to_parent_[pos_[v]];
    }
    if (Alive(atoms, pos_.data())) AddToSet(InternMatch(atoms, pos_.data()));
  });
}

void CqMatchAutomaton::Saturate(const NodeLabel& label) {
  // The (query atom, label atom) pairs that can unify at all.
  unifiable_.clear();
  for (size_t ai = 0; ai < cq_.atoms().size(); ++ai) {
    for (const AtomLabel& la : label) {
      if (la.pred == cq_.atoms()[ai].pred) unifiable_.emplace_back(ai, &la);
    }
  }
  if (unifiable_.empty()) return;
  // Worklist closure: satisfy one more atom at this node.
  work_.clear();
  ForEachBit(bits_, [&](MatchId id) { work_.push_back(id); });
  while (!work_.empty()) {
    const MatchId id = work_.back();
    work_.pop_back();
    const uint64_t atoms = Decode(id, pos_.data());
    for (const auto& [ai, la] : unifiable_) {
      const uint64_t bit = uint64_t{1} << ai;
      if (atoms & bit) continue;
      // Unify the atom's variables with the label's positions.
      const std::vector<VarId>& args = cq_.atoms()[ai].args;
      next_ = pos_;
      bool ok = true;
      for (size_t j = 0; j < args.size() && ok; ++j) {
        const int8_t p = static_cast<int8_t>(la->positions[j]);
        int8_t& slot = next_[args[j]];
        if (slot == kUnseen) {
          slot = p;
        } else if (slot != p) {
          ok = false;
        }
      }
      if (!ok) continue;
      const MatchId next = InternMatch(atoms | bit, next_.data());
      if (AddToSet(next)) work_.push_back(next);
    }
  }
}

CqMatchAutomaton::DpState CqMatchAutomaton::InternSet() {
  size_t n = bits_.size();
  while (n > 0 && bits_[n - 1] == 0) --n;
  const size_t before = states_.size();
  const DpState id = states_.Intern(std::span(bits_.data(), n));
  if (states_.size() != before) {
    bool accepting = false;
    ForEachBit(states_[id], [&](MatchId m) {
      accepting = accepting || matches_[m][0] == all_atoms_;
    });
    accepting_.push_back(accepting);
  }
  return id;
}

CqMatchAutomaton::DpState CqMatchAutomaton::Leaf(const NodeLabel& label) {
  bits_.clear();
  std::fill(pos_.begin(), pos_.end(), kUnseen);
  AddToSet(InternMatch(0, pos_.data()));
  Saturate(label);
  return InternSet();
}

CqMatchAutomaton::DpState CqMatchAutomaton::Unary(DpState child,
                                                  const NodeLabel& label,
                                                  const EdgeLabel& edge) {
  bits_.clear();
  LiftInto(child, edge);
  Saturate(label);
  return InternSet();
}

CqMatchAutomaton::DpState CqMatchAutomaton::Binary(DpState child1,
                                                   DpState child2,
                                                   const NodeLabel& label,
                                                   const EdgeLabel& edge1,
                                                   const EdgeLabel& edge2) {
  // Each child's distinct live lifts, then their pairwise combinations.
  // Child 2's lifts are decoded once, child 1's once per outer step.
  bits_.clear();
  LiftInto(child1, edge1);
  lifted1_.clear();
  ForEachBit(bits_, [&](MatchId id) { lifted1_.push_back(id); });
  bits_.clear();
  LiftInto(child2, edge2);
  lifted_atoms_.clear();
  lifted_pos_.clear();
  ForEachBit(bits_, [&](MatchId id) {
    lifted_pos_.resize(lifted_pos_.size() + num_vars_);
    lifted_atoms_.push_back(
        Decode(id, lifted_pos_.data() + lifted_pos_.size() - num_vars_));
  });
  const size_t n2 = lifted_atoms_.size();
  bits_.clear();
  for (MatchId id1 : lifted1_) {
    const uint64_t atoms1 = Decode(id1, pos_.data());
    for (size_t j = 0; j < n2; ++j) {
      const int8_t* pos2 = lifted_pos_.data() + j * num_vars_;
      bool ok = true;
      for (size_t v = 0; v < num_vars_ && ok; ++v) {
        const int8_t a = pos_[v];
        const int8_t b = pos2[v];
        if (a == kUnseen) {
          next_[v] = b;
        } else if (b == kUnseen) {
          next_[v] = a;
        } else if (a >= 0 && a == b) {
          next_[v] = a;
        } else {
          // Gone/Gone, Gone/placed or mismatched placements: two distinct
          // elements were used for v in the two subtrees.
          ok = false;
        }
      }
      const uint64_t atoms = atoms1 | lifted_atoms_[j];
      if (ok && Alive(atoms, next_.data())) {
        AddToSet(InternMatch(atoms, next_.data()));
      }
    }
  }
  Saturate(label);
  return InternSet();
}

bool CqMatchAutomaton::Accepting(DpState state) const {
  return accepting_[state];
}

bool CqMatchAutomaton::SubsetOf(DpState s, DpState t) const {
  std::span<const uint64_t> sub = states_[s];
  std::span<const uint64_t> sup = states_[t];
  const size_t common = std::min(sub.size(), sup.size());
  for (size_t w = 0; w < common; ++w) {
    if (sub[w] & ~sup[w]) return false;
  }
  for (size_t w = common; w < sub.size(); ++w) {
    if (sub[w] != 0) return false;
  }
  return true;
}

UcqMatchAutomaton::UcqMatchAutomaton(const UCQ& ucq, int width) {
  for (const CQ& cq : ucq.disjuncts()) parts_.emplace_back(cq, width);
  MONDET_CHECK(!parts_.empty());
  key_.resize(parts_.size());
}

UcqMatchAutomaton::DpState UcqMatchAutomaton::Leaf(const NodeLabel& label) {
  for (size_t i = 0; i < parts_.size(); ++i) key_[i] = parts_[i].Leaf(label);
  return tuples_.Intern(key_);
}

UcqMatchAutomaton::DpState UcqMatchAutomaton::Unary(DpState child,
                                                    const NodeLabel& label,
                                                    const EdgeLabel& edge) {
  for (size_t i = 0; i < parts_.size(); ++i) {
    const auto c = static_cast<uint32_t>(tuples_[child][i]);
    key_[i] = parts_[i].Unary(c, label, edge);
  }
  return tuples_.Intern(key_);
}

UcqMatchAutomaton::DpState UcqMatchAutomaton::Binary(DpState child1,
                                                     DpState child2,
                                                     const NodeLabel& label,
                                                     const EdgeLabel& edge1,
                                                     const EdgeLabel& edge2) {
  for (size_t i = 0; i < parts_.size(); ++i) {
    const auto c1 = static_cast<uint32_t>(tuples_[child1][i]);
    const auto c2 = static_cast<uint32_t>(tuples_[child2][i]);
    key_[i] = parts_[i].Binary(c1, c2, label, edge1, edge2);
  }
  return tuples_.Intern(key_);
}

bool UcqMatchAutomaton::Accepting(DpState state) const {
  for (size_t i = 0; i < parts_.size(); ++i) {
    if (parts_[i].Accepting(static_cast<uint32_t>(tuples_[state][i]))) {
      return true;
    }
  }
  return false;
}

bool UcqMatchAutomaton::SubsetOf(DpState s, DpState t) const {
  for (size_t i = 0; i < parts_.size(); ++i) {
    if (!parts_[i].SubsetOf(static_cast<uint32_t>(tuples_[s][i]),
                            static_cast<uint32_t>(tuples_[t][i]))) {
      return false;
    }
  }
  return true;
}

}  // namespace mondet
