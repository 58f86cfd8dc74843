// Workload "churn": writes beside reads on the same join engine. Set-up
// builds four MaintainedImages, each over two atomic views (VR, VU:
// counting path) and a recursive transitive-closure view (VT: DRed path)
// on a seeded random graph of 50 nodes in which every node has in- and
// out-degree 3 (strongly connected, so the closure holds all 2,500 pairs
// and a deleted edge overdeletes most of it). The graphs are small so that
// the working set stays in a core's own cache: at 8 graphs of 100 nodes,
// writes ran up to twice as slow for seconds at a time, following the
// host's shared-cache load. With out-degree 3 alone, the closure and the
// cost of a write differed by a fifth from seed to seed.
// Operations, closed loop, in the fixed pattern write, write, write, read,
// one graph after the other:
//   - write: one raw batch of 4-6 facts applied with
//     MaintainedImage::ApplyDelta: one edge swap ((a,b), (c,d) become
//     (a,d), (c,b)), sometimes with a duplicate insert or a delete of an
//     absent edge, so the batches are unnormalized like
//     testing::RandomSchedule's while every node keeps its in- and
//     out-degree for the whole run;
//   - read: one CompiledProgram::Eval of a fixed query over image().
// Both kinds count as operations in op_ms; the traced run reports them
// apart (views.maintain_ms, datalog.eval.read_ms).
//
// Reference, within a verification budget and at the end of the run: the
// maintained image() equals NaiveFpEval of ViewSet::CombinedProgram on the
// current base, projected to the view predicates; a read equals
// NaiveFpEval of the query over the image.

#include <algorithm>
#include <deque>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <vector>

#include "datalog/eval_plan.h"
#include "datalog/parser.h"
#include "harness.h"
#include "testing/reference.h"
#include "views/maintained_image.h"
#include "views/view_set.h"

namespace perfbench {
namespace {

using namespace mondet;

constexpr int kGraphs = 4;
constexpr size_t kNodes = 50;
constexpr size_t kDegree = 3;

/// One maintained graph and its read query.
struct Graph {
  std::optional<MaintainedImage> image;
  std::optional<CompiledProgram> read;
  double materialize_ms = 0;
};

struct ChurnState {
  VocabularyPtr vocab;
  PredId r = kNoPred, u = kNoPred;
  std::optional<ViewSet> views;
  std::optional<Program> read_program;
  std::unordered_set<PredId> view_preds;
  size_t nodes = 0;
  std::deque<Graph> graphs;
};

ChurnState Build(const Options& o, std::mt19937_64& rng) {
  ChurnState st;
  st.vocab = MakeVocabulary();
  st.r = st.vocab->AddPredicate("R", 2);
  st.u = st.vocab->AddPredicate("U", 1);
  st.views.emplace(st.vocab);
  st.views->AddAtomicView("VR", st.r);
  st.views->AddAtomicView("VU", st.u);
  std::vector<Diagnostic> diags;
  std::optional<DatalogQuery> vt = ParseQuery(
      "VT0(x,y) :- R(x,y).\nVT0(x,z) :- R(x,y), VT0(y,z).", "VT0", st.vocab,
      &diags);
  if (!vt) throw std::runtime_error("closure view does not parse");
  st.views->AddView("VT", *vt);
  st.view_preds = st.views->ViewPreds();
  std::optional<DatalogQuery> q =
      ParseQuery("Hit(x) :- VT(x,y), VU(y).", "Hit", st.vocab, &diags);
  if (!q) throw std::runtime_error("read query does not parse");
  st.read_program.emplace(q->program);

  st.nodes = o.smoke ? 12 : kNodes;
  const size_t degree = o.smoke ? 2 : kDegree;
  std::uniform_int_distribution<ElemId> node(
      0, static_cast<ElemId>(st.nodes - 1));
  for (int gi = 0; gi < kGraphs; ++gi) {
    Instance base(st.vocab);
    base.EnsureElements(st.nodes);
    // The union of `degree` random permutations that share no edge: every
    // node gets the same in- and out-degree, so the graphs (and the cost
    // of maintaining their closure) differ little from one another.
    std::vector<ElemId> target(st.nodes);
    for (size_t k = 0; k < degree; ++k) {
      bool clash = true;
      while (clash) {
        std::iota(target.begin(), target.end(), ElemId{0});
        std::shuffle(target.begin(), target.end(), rng);
        clash = false;
        for (ElemId x = 0; x < st.nodes && !clash; ++x) {
          clash = base.HasFact(Fact(st.r, {x, target[x]}));
        }
      }
      for (ElemId x = 0; x < st.nodes; ++x) base.AddFact(st.r, {x, target[x]});
    }
    while (base.NumRows(st.u) < st.nodes / 8 + 2) {
      base.AddFact(st.u, {node(rng)});
    }
    Graph& g = st.graphs.emplace_back();
    const Clock::time_point t0 = Clock::now();
    g.image.emplace(*st.views, std::move(base));
    g.materialize_ms = MsSince(t0);
    g.read.emplace(*st.read_program);
  }
  return st;
}

struct Batch {
  std::vector<Fact> inserts;
  std::vector<Fact> deletes;
};

/// One raw batch: one edge swap, live edges (a,b) and (c,d) replaced by the
/// absent edges (a,d) and (c,b), which keeps every in- and out-degree;
/// plus, each with probability 1/4, a duplicate of one insert and a delete
/// of an absent edge.
Batch DrawBatch(const ChurnState& st, const Instance& base,
                std::mt19937_64& rng) {
  std::uniform_int_distribution<ElemId> node(
      0, static_cast<ElemId>(st.nodes - 1));
  Batch b;
  auto live_edge = [&] {
    const std::span<const ElemId> e = base.Args(
        st.r, static_cast<uint32_t>(rng() % base.NumRows(st.r)));
    return Fact(st.r, std::vector<ElemId>(e.begin(), e.end()));
  };
  for (;;) {
    Fact ab = live_edge(), cd = live_edge();
    const ElemId a = ab.args[0], bb = ab.args[1];
    const ElemId c = cd.args[0], d = cd.args[1];
    Fact ad(st.r, {a, d}), cb(st.r, {c, bb});
    if (a == c || bb == d || base.HasFact(ad) || base.HasFact(cb)) continue;
    b.deletes = {std::move(ab), std::move(cd)};
    b.inserts = {std::move(ad), std::move(cb)};
    break;
  }
  auto absent_edge = [&] {
    for (;;) {
      Fact f(st.r, {node(rng), node(rng)});
      if (!base.HasFact(f) &&
          std::find(b.inserts.begin(), b.inserts.end(), f) ==
              b.inserts.end()) {
        return f;
      }
    }
  };
  if (rng() % 4 == 0) b.inserts.push_back(b.inserts.front());
  if (rng() % 4 == 0) b.deletes.push_back(absent_edge());
  return b;
}

/// The number of base facts the batch really changes (inserts of absent
/// facts, deletes of present facts not also inserted, duplicates once).
size_t Normalized(const Batch& b, const Instance& base) {
  std::unordered_set<Fact, FactHash> ins(b.inserts.begin(), b.inserts.end());
  std::unordered_set<Fact, FactHash> seen;
  size_t n = 0;
  for (const Fact& f : b.inserts) {
    if (!base.HasFact(f) && seen.insert(f).second) ++n;
  }
  for (const Fact& f : b.deletes) {
    if (base.HasFact(f) && ins.count(f) == 0 && seen.insert(f).second) ++n;
  }
  return n;
}

std::optional<std::string> VerifyImage(const ChurnState& st,
                                       const MaintainedImage& image) {
  const Instance want = NaiveFpEval(st.views->CombinedProgram(), image.base());
  if (!(FingerprintOf(want, &st.view_preds) ==
        FingerprintOf(image.image(), &st.view_preds))) {
    return "maintained image differs from the naive recompute";
  }
  return std::nullopt;
}

}  // namespace

void RunChurn(const Options& o, Tracer& tr, Result* r) {
  std::mt19937_64 rng(o.seed);
  ChurnState st;
  std::vector<double> materialize_ms;
  while (r->MoreSetUps()) {
    rng.seed(o.seed);
    st = ChurnState();  // the last set-up's teardown is not timed
    const Clock::time_point t0 = Clock::now();
    st = Build(o, rng);
    r->AddSetUp(MsSince(t0));
    for (const Graph& g : st.graphs) materialize_ms.push_back(g.materialize_ms);
  }

  size_t writes = 0;
  size_t overdeleted = 0, rederived = 0, changes = 0;
  TraceSplit split;
  std::vector<size_t> since_verify(st.graphs.size(), 0);

  // Every graph once: three writes and a read each.
  r->window = 4 * st.graphs.size();
  Loop loop(o, r);
  auto verify = [&](size_t gi, bool force) {
    if (!force && (since_verify[gi] < 8 || !loop.VerifyBudget(0.25))) return;
    since_verify[gi] = 0;
    std::optional<std::string> err;
    loop.Verify([&] { err = VerifyImage(st, *st.graphs[gi].image); });
    if (err) r->Fail(*err);
  };
  while (loop.More()) {
    const uint64_t i = loop.ops();
    // Four operations per graph (three writes, one read), then the next.
    const size_t gi = (i / 4) % st.graphs.size();
    Graph& g = st.graphs[gi];
    // Traced and untraced graphs alternate, shifting by one every round of
    // the graphs, so that every graph is traced as often as not.
    const bool traced = o.trace && (i / 4 + i / r->window) % 2 == 0;
    tr.set_active(traced);
    tr.set_op(i, "graph" + std::to_string(gi) + (i % 4 == 3 ? "/read" : "/write"));
    double ms = 0;
    const double c0 = o.trace ? CpuSeconds() : 0;
    if (i % 4 == 3) {
      std::optional<Instance> out;
      {
        Tracer::Scope s(tr, "datalog.eval.read");
        ms = loop.Time([&] { out.emplace(g.read->Eval(g.image->image())); });
      }
      if (loop.VerifyBudget(0.25)) {
        std::optional<std::string> err;
        loop.Verify([&] {
          const Instance want =
              NaiveFpEval(*st.read_program, g.image->image());
          if (!(FingerprintOf(want) == FingerprintOf(*out))) {
            err = "read result differs from the naive evaluation";
          }
        });
        if (err) r->Fail(*err);
      }
    } else {
      const Batch b = DrawBatch(st, g.image->base(), rng);
      const size_t changed = Normalized(b, g.image->base());
      ImageDelta d;
      {
        Tracer::Scope s(tr, "views.maintain");
        ms = loop.Time([&] { d = g.image->ApplyDelta(b.inserts, b.deletes); });
      }
      ++writes;
      r->Work(static_cast<double>(changed), ms);
      overdeleted += d.overdeleted;
      rederived += d.rederived;
      changes += d.inserts.size() + d.deletes.size();
      ++since_verify[gi];
      verify(gi, false);
    }
    if (o.trace) split.Add(traced, ms, CpuSeconds() - c0);
  }
  for (size_t gi = 0; gi < st.graphs.size(); ++gi) verify(gi, true);
  tr.set_active(true);

  if (o.trace) {
    const double w = std::max<double>(1, writes);
    auto& L = r->layers;
    L["views.materialize_ms"] = Median(materialize_ms);
    L["views.maintain_ms"] = tr.MeanMs("views.maintain");
    L["datalog.maintain.overdeleted_per_batch"] = overdeleted / w;
    L["datalog.maintain.rederived_per_batch"] = rederived / w;
    L["datalog.maintain.rederive_ratio"] =
        overdeleted > 0 ? static_cast<double>(rederived) / overdeleted : 0;
    L["views.maintain.image_changes_per_batch"] = changes / w;
    L["datalog.eval.read_ms"] = tr.MeanMs("datalog.eval.read");
    split.Report(&L);
  }
}

}  // namespace perfbench
