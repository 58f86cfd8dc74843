#include "datalog/kernel.h"

#include "base/check.h"

namespace mondet {

namespace {

/// Upper bound on atom arity for the fixed stack buffers below; enforced
/// at build time so the runners never bounds-check.
constexpr size_t kMaxKernelArity = 16;

/// How many trailing rows every kernel candidate enumeration drops: 0, or
/// 1 with MONDET_FAULT=skip-kernel-row — the classic off-by-one a
/// hand-rolled loop nest invites — which only the compiled path exhibits,
/// so the kernel-differential oracle must catch and shrink it against the
/// generic interpreter.
size_t FaultSkipKernelRow() {
  return FaultInjected("skip-kernel-row") ? 1 : 0;
}

struct RunCtx {
  const JoinKernel& k;
  const Instance& inst;
  ElemId* frame;
  size_t* probes;
  DerivedBuffer* out;
  size_t fault_trim;
};

void EmitHead(RunCtx& ctx) {
  ElemId buf[kMaxKernelArity];
  const size_t n = ctx.k.head_slots.size();
  for (size_t i = 0; i < n; ++i) buf[i] = ctx.frame[ctx.k.head_slots[i]];
  // Facts already in the target are filtered here (one hash probe, no
  // allocation); duplicates derived within the same round are
  // deduplicated at the merge barrier.
  if (!ctx.inst.HasFact(ctx.k.head_pred, std::span<const ElemId>(buf, n))) {
    ctx.out->args.insert(ctx.out->args.end(), buf, buf + n);
    ++ctx.out->count;
  }
}

/// Applies one step's ops to a candidate row: equality checks against the
/// frame for bound positions, frame writes for binding ones. Returns
/// false on the first failed check. Writes need no undo — every slot a
/// kernel reads at depth d was deterministically written before it, so
/// stale values below d are simply overwritten on the next candidate.
inline bool ApplyOps(const KernelStep& st, const ElemId* row, ElemId* frame) {
  for (const KernelOp& op : st.ops) {
    if (op.check) {
      if (frame[op.slot] != row[op.pos]) return false;
    } else {
      frame[op.slot] = row[op.pos];
    }
  }
  return true;
}

void RunSteps(RunCtx& ctx, size_t depth) {
  if (depth == ctx.k.steps.size()) {
    EmitHead(ctx);
    return;
  }
  const KernelStep& st = ctx.k.steps[depth];
  const Instance& inst = ctx.inst;

  if (st.kind == KernelStep::kMembership) {
    // Every position is pre-bound: one hash probe replaces the bucket
    // enumeration the interpreter would do.
    ElemId buf[kMaxKernelArity];
    for (const KernelOp& op : st.ops) buf[op.pos] = ctx.frame[op.slot];
    ++*ctx.probes;
    if (inst.HasFact(st.pred, std::span<const ElemId>(buf, st.arity))) {
      RunSteps(ctx, depth + 1);
    }
    return;
  }

  std::span<const uint32_t> rows;
  size_t scan_rows = 0;
  switch (st.kind) {
    case KernelStep::kProbe1:
      rows = inst.RowsWith(st.pred, st.probes[0].pos,
                           ctx.frame[st.probes[0].slot]);
      break;
    case KernelStep::kProbe2: {
      const std::span<const uint32_t> a = inst.RowsWith(
          st.pred, st.probes[0].pos, ctx.frame[st.probes[0].slot]);
      const std::span<const uint32_t> b = inst.RowsWith(
          st.pred, st.probes[1].pos, ctx.frame[st.probes[1].slot]);
      rows = b.size() < a.size() ? b : a;
      break;
    }
    case KernelStep::kProbeN: {
      rows = inst.RowsWith(st.pred, st.probes[0].pos,
                           ctx.frame[st.probes[0].slot]);
      for (size_t i = 1; i < st.probes.size(); ++i) {
        const std::span<const uint32_t> r = inst.RowsWith(
            st.pred, st.probes[i].pos, ctx.frame[st.probes[i].slot]);
        // Strict <: the first minimum wins, matching the interpreter's
        // anchor scan (candidate *order* is insertion order either way).
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

  const ElemId* base = inst.FlatArgs(st.pred).data();
  const size_t arity = st.arity;
  if (st.kind == KernelStep::kScan) {
    *ctx.probes += scan_rows;
    const size_t end =
        scan_rows > ctx.fault_trim ? scan_rows - ctx.fault_trim : 0;
    for (size_t r = 0; r < end; ++r) {
      if (ApplyOps(st, base + r * arity, ctx.frame)) RunSteps(ctx, depth + 1);
    }
    return;
  }
  *ctx.probes += rows.size();
  const size_t end =
      rows.size() > ctx.fault_trim ? rows.size() - ctx.fault_trim : 0;
  for (size_t i = 0; i < end; ++i) {
    const ElemId* rp = base + static_cast<size_t>(rows[i]) * arity;
    if (ApplyOps(st, rp, ctx.frame)) RunSteps(ctx, depth + 1);
  }
}

}  // namespace

bool KernelSupported(const QAtom& head, const std::vector<QAtom>& body,
                     size_t num_vars) {
  if (num_vars > 0xFFFF) return false;
  if (head.args.size() > kMaxKernelArity) return false;
  for (const QAtom& a : body) {
    if (a.args.size() > kMaxKernelArity) return false;
  }
  return true;
}

JoinKernel BuildKernel(const QAtom& head, const std::vector<QAtom>& body,
                       size_t num_vars, int seat,
                       const std::vector<uint32_t>& order) {
  MONDET_CHECK(num_vars <= 0xFFFF);
  MONDET_CHECK(head.args.size() <= kMaxKernelArity);
  JoinKernel k;
  k.head_pred = head.pred;
  k.num_slots = static_cast<uint16_t>(num_vars);
  k.head_slots.reserve(head.args.size());
  for (VarId v : head.args) k.head_slots.push_back(static_cast<uint16_t>(v));

  std::vector<bool> bound(num_vars, false);
  if (seat >= 0) {
    const QAtom& a = body[seat];
    MONDET_CHECK(a.args.size() <= kMaxKernelArity);
    k.seat_pred = a.pred;
    k.seat_arity = static_cast<uint8_t>(a.args.size());
    for (size_t pos = 0; pos < a.args.size(); ++pos) {
      const VarId v = a.args[pos];
      if (bound[v]) {
        // Repeated seat variable: later occurrences must agree.
        k.seat_ops.push_back({static_cast<uint8_t>(pos), 1,
                              static_cast<uint16_t>(v)});
      } else {
        k.seat_ops.push_back({static_cast<uint8_t>(pos), 0,
                              static_cast<uint16_t>(v)});
        bound[v] = true;
      }
    }
  }

  std::vector<bool> pre(num_vars);
  for (uint32_t bi : order) {
    const QAtom& a = body[bi];
    MONDET_CHECK(a.args.size() <= kMaxKernelArity);
    KernelStep st;
    st.pred = a.pred;
    st.arity = static_cast<uint8_t>(a.args.size());
    pre = bound;  // bound-at-step-start snapshot: probes come from here
    for (size_t pos = 0; pos < a.args.size(); ++pos) {
      const VarId v = a.args[pos];
      const auto p8 = static_cast<uint8_t>(pos);
      const auto s16 = static_cast<uint16_t>(v);
      if (pre[v]) {
        st.probes.push_back({p8, s16});
        st.ops.push_back({p8, 1, s16});
      } else if (bound[v]) {
        st.ops.push_back({p8, 1, s16});  // repeated within this atom
      } else {
        st.ops.push_back({p8, 0, s16});
        bound[v] = true;
      }
    }
    if (st.probes.size() == a.args.size()) {
      st.kind = KernelStep::kMembership;
    } else if (st.probes.size() == 1) {
      st.kind = KernelStep::kProbe1;
      // The anchor's equality check is guaranteed by the bucket; drop it.
      for (size_t i = 0; i < st.ops.size(); ++i) {
        if (st.ops[i].check && st.ops[i].pos == st.probes[0].pos) {
          st.ops.erase(st.ops.begin() + static_cast<ptrdiff_t>(i));
          break;
        }
      }
    } else if (st.probes.size() == 2) {
      st.kind = KernelStep::kProbe2;
    } else if (!st.probes.empty()) {
      st.kind = KernelStep::kProbeN;
    } else {
      st.kind = KernelStep::kScan;
    }
    k.steps.push_back(std::move(st));
  }
  return k;
}

void RunKernelFull(const JoinKernel& k, const Instance& target,
                   size_t* probes, DerivedBuffer* out) {
  ElemId frame_buf[64];
  std::vector<ElemId> frame_heap;
  ElemId* frame = frame_buf;
  if (k.num_slots > 64) {
    frame_heap.resize(k.num_slots);
    frame = frame_heap.data();
  }
  RunCtx ctx{k, target, frame, probes, out, FaultSkipKernelRow()};
  RunSteps(ctx, 0);
}

void RunKernelDelta(const JoinKernel& k, const Instance& target,
                    std::span<const uint32_t> delta_rows, size_t* probes,
                    DerivedBuffer* out) {
  ElemId frame_buf[64];
  std::vector<ElemId> frame_heap;
  ElemId* frame = frame_buf;
  if (k.num_slots > 64) {
    frame_heap.resize(k.num_slots);
    frame = frame_heap.data();
  }
  RunCtx ctx{k, target, frame, probes, out, FaultSkipKernelRow()};
  const ElemId* base = target.FlatArgs(k.seat_pred).data();
  const size_t arity = k.seat_arity;
  for (uint32_t row : delta_rows) {
    const ElemId* rp = base + static_cast<size_t>(row) * arity;
    bool ok = true;
    for (const KernelOp& op : k.seat_ops) {
      if (op.check) {
        if (frame[op.slot] != rp[op.pos]) {
          ok = false;
          break;
        }
      } else {
        frame[op.slot] = rp[op.pos];
      }
    }
    if (!ok) continue;
    RunSteps(ctx, 0);
  }
}

}  // namespace mondet
