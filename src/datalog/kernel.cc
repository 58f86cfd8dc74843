#include "datalog/kernel.h"

#include <algorithm>
#include <iterator>
#include <span>

#include "base/check.h"

namespace mondet {

namespace {

/// How many trailing rows every kernel candidate enumeration drops: 0, or
/// 1 with MONDET_FAULT=skip-kernel-row — the classic off-by-one a
/// hand-rolled loop nest invites — which the eval-differential oracle
/// must catch and shrink against the naive reference (NaiveFpEval). It
/// reaches Maintain's Backward/Forward joins as well.
size_t FaultSkipKernelRow() {
  return FaultInjected("skip-kernel-row") ? 1 : 0;
}

struct RunCtx {
  const JoinKernel& k;
  const Instance& inst;
  ElemId* frame;
  ElemId* scratch;  // k.scratch_size ElemIds for head / membership tuples
  size_t* probes;
  size_t fault_trim;
};

/// A kernel's frame, then its tuple scratch: on the stack when both fit
/// in 64 ElemIds, on the heap otherwise.
class FrameBuffer {
 public:
  explicit FrameBuffer(const JoinKernel& k) {
    const size_t need = size_t{k.num_slots} + k.scratch_size;
    if (need > std::size(stack_)) {
      heap_.resize(need);
      data_ = heap_.data();
    }
  }
  FrameBuffer(const FrameBuffer&) = delete;
  FrameBuffer& operator=(const FrameBuffer&) = delete;
  ElemId* data() { return data_; }

 private:
  ElemId stack_[64];
  std::vector<ElemId> heap_;
  ElemId* data_ = stack_;
};

/// Copies the frame slots of ops [first, end), one per tuple position,
/// into their positions in the scratch area and returns the tuple.
std::span<const ElemId> Gather(const RunCtx& ctx, size_t first, size_t end) {
  for (size_t i = first; i < end; ++i) {
    const KernelOp& op = ctx.k.ops[i];
    ctx.scratch[op.pos] = ctx.frame[op.slot];
  }
  return {ctx.scratch, end - first};
}

/// Applies ops [first, end) to a candidate row: equality checks against
/// the frame for bound positions, frame writes for binding ones. Returns
/// false on the first failed check. Writes need no undo — every slot a
/// kernel reads at depth d was deterministically written before it, so
/// stale values below d are simply overwritten on the next candidate.
inline bool ApplyOps(const KernelOp* first, const KernelOp* end,
                     const ElemId* row, ElemId* frame) {
  for (const KernelOp* op = first; op != end; ++op) {
    if (op->check) {
      if (frame[op->slot] != row[op->pos]) return false;
    } else {
      frame[op->slot] = row[op->pos];
    }
  }
  return true;
}

/// The step walker both entry points share: matches the join steps from
/// `depth` on and calls `leaf()` once per complete match. Returns false,
/// having stopped, as soon as a leaf returns false.
template <class Leaf>
bool RunSteps(const RunCtx& ctx, size_t depth, Leaf& leaf) {
  if (depth == ctx.k.steps.size()) return leaf();
  const KernelStep& st = ctx.k.steps[depth];
  const Instance& inst = ctx.inst;
  const KernelOp* ops = ctx.k.ops.data();

  if (st.kind == KernelStep::kMembership) {
    // Every position is pre-bound: one hash probe replaces a bucket
    // enumeration.
    ++*ctx.probes;
    return !inst.HasFact(st.pred, Gather(ctx, st.first, st.end)) ||
           RunSteps(ctx, depth + 1, leaf);
  }

  auto bucket = [&](size_t i) {
    return inst.RowsWith(st.pred, static_cast<int>(ops[i].pos),
                         ctx.frame[ops[i].slot]);
  };
  std::span<const uint32_t> rows;
  size_t scan_rows = 0;
  // The bucket pins the kProbe1 anchor, so its check is skipped.
  const KernelOp* check_from = ops + st.first;
  switch (st.kind) {
    case KernelStep::kProbe1:
      rows = bucket(st.first);
      ++check_from;
      break;
    case KernelStep::kProbe2: {
      const std::span<const uint32_t> a = bucket(st.first);
      const std::span<const uint32_t> b = bucket(st.first + 1);
      rows = b.size() < a.size() ? b : a;
      break;
    }
    case KernelStep::kProbeN: {
      rows = bucket(st.first);
      for (size_t i = st.first + 1; i < st.probe_end; ++i) {
        const std::span<const uint32_t> r = bucket(i);
        // Strict <: the first minimum wins (candidate *order* is
        // insertion order either way).
        if (r.size() < rows.size()) rows = r;
      }
      break;
    }
    case KernelStep::kScan:
      scan_rows = inst.NumRows(st.pred);
      break;
    case KernelStep::kMembership:
      break;  // handled above
  }

  const KernelOp* ops_end = ops + st.end;
  const ElemId* base = inst.FlatArgs(st.pred).data();
  const size_t arity = st.arity;
  if (st.kind == KernelStep::kScan) {
    *ctx.probes += scan_rows;
    const size_t end =
        scan_rows > ctx.fault_trim ? scan_rows - ctx.fault_trim : 0;
    for (size_t r = 0; r < end; ++r) {
      if (ApplyOps(check_from, ops_end, base + r * arity, ctx.frame) &&
          !RunSteps(ctx, depth + 1, leaf)) {
        return false;
      }
    }
    return true;
  }
  *ctx.probes += rows.size();
  const size_t end =
      rows.size() > ctx.fault_trim ? rows.size() - ctx.fault_trim : 0;
  for (size_t i = 0; i < end; ++i) {
    const ElemId* rp = base + static_cast<size_t>(rows[i]) * arity;
    if (ApplyOps(check_from, ops_end, rp, ctx.frame) &&
        !RunSteps(ctx, depth + 1, leaf)) {
      return false;
    }
  }
  return true;
}

}  // namespace

JoinKernel BuildKernel(const QAtom& head, const std::vector<QAtom>& body,
                       size_t num_vars, const QAtom* seat,
                       const std::vector<uint32_t>& order) {
  JoinKernel k;
  k.head_pred = head.pred;
  k.head_arity = static_cast<uint32_t>(head.args.size());
  k.num_slots = static_cast<uint32_t>(num_vars);
  k.scratch_size = k.head_arity;
  // One op per head, seat and step position.
  size_t num_ops = head.args.size();
  if (seat != nullptr) num_ops += seat->args.size();
  for (uint32_t bi : order) num_ops += body[bi].args.size();
  k.ops.reserve(num_ops);
  for (size_t pos = 0; pos < head.args.size(); ++pos) {
    k.ops.push_back({static_cast<uint32_t>(pos), head.args[pos], false});
  }

  std::vector<bool> bound(num_vars, false);
  if (seat != nullptr) {
    const QAtom& a = *seat;
    k.seat_pred = a.pred;
    k.seat_arity = static_cast<uint32_t>(a.args.size());
    for (size_t pos = 0; pos < a.args.size(); ++pos) {
      const VarId v = a.args[pos];
      // Repeated seat variable: later occurrences must agree.
      k.ops.push_back({static_cast<uint32_t>(pos), v, bound[v]});
      bound[v] = true;
    }
  }

  k.steps.reserve(order.size());
  std::vector<bool> pre(num_vars);
  for (uint32_t bi : order) {
    const QAtom& a = body[bi];
    KernelStep st;
    st.pred = a.pred;
    st.arity = static_cast<uint32_t>(a.args.size());
    st.first = static_cast<uint32_t>(k.ops.size());
    pre = bound;  // bound-at-step-start snapshot: probes come from here
    for (size_t pos = 0; pos < a.args.size(); ++pos) {
      if (pre[a.args[pos]]) {
        k.ops.push_back({static_cast<uint32_t>(pos), a.args[pos], true});
      }
    }
    st.probe_end = static_cast<uint32_t>(k.ops.size());
    const size_t probes = st.probe_end - st.first;
    for (size_t pos = 0; pos < a.args.size(); ++pos) {
      const VarId v = a.args[pos];
      if (pre[v]) continue;  // a probe
      // The first occurrence writes; a repeat within the atom checks.
      k.ops.push_back({static_cast<uint32_t>(pos), v, bound[v]});
      bound[v] = true;
    }
    st.end = static_cast<uint32_t>(k.ops.size());
    if (probes == a.args.size()) {
      st.kind = KernelStep::kMembership;
      k.scratch_size = std::max(k.scratch_size, st.arity);
    } else if (probes == 1) {
      st.kind = KernelStep::kProbe1;
    } else if (probes == 2) {
      st.kind = KernelStep::kProbe2;
    } else if (probes > 0) {
      st.kind = KernelStep::kProbeN;
    } else {
      st.kind = KernelStep::kScan;
    }
    k.steps.push_back(st);
  }
  return k;
}

void RunKernel(const JoinKernel& k, const Instance& target, uint32_t first,
               uint32_t end, size_t* probes, DerivedBuffer* out) {
  FrameBuffer buf(k);
  const RunCtx ctx{k, target, buf.data(), buf.data() + k.num_slots, probes,
                   FaultSkipKernelRow()};
  auto emit_head = [&] {
    const std::span<const ElemId> head = Gather(ctx, 0, k.head_arity);
    // Facts already in the target are filtered here (one hash probe, no
    // allocation); duplicates derived within the same round are
    // deduplicated at the merge barrier.
    if (!target.HasFact(k.head_pred, head)) {
      out->args.insert(out->args.end(), head.begin(), head.end());
      ++out->count;
    }
    return true;
  };
  if (k.seat_pred == kNoPred) {
    RunSteps(ctx, 0, emit_head);
    return;
  }
  const KernelOp* seat = k.ops.data() + k.head_arity;
  const ElemId* base = target.FlatArgs(k.seat_pred).data();
  for (uint32_t row = first; row < end; ++row) {
    if (ApplyOps(seat, seat + k.seat_arity,
                 base + size_t{row} * k.seat_arity, ctx.frame)) {
      RunSteps(ctx, 0, emit_head);
    }
  }
}

bool MatchKernel(const JoinKernel& k, const Instance& inst,
                 std::span<const ElemId> seed, size_t* probes, MatchFn fn) {
  MONDET_CHECK(seed.size() == k.seat_arity);
  FrameBuffer buf(k);
  const RunCtx ctx{k, inst, buf.data(), buf.data() + k.num_slots, probes,
                   FaultSkipKernelRow()};
  const KernelOp* seat = k.ops.data() + k.head_arity;
  if (!ApplyOps(seat, seat + k.seat_arity, seed.data(), ctx.frame)) {
    return true;
  }
  auto report = [&] {
    return fn(std::span<const ElemId>(ctx.frame, k.num_slots));
  };
  return RunSteps(ctx, 0, report);
}

}  // namespace mondet
