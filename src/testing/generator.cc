#include "testing/generator.h"

#include <limits>

#include "base/check.h"
#include "datalog/eval_plan.h"
#include "datalog/parser.h"

namespace mondet {
namespace testing {

GenProfile EvalProfile() {
  GenProfile p;
  p.name = "eval";
  p.vocab = MakeVocabulary();
  PredId e1 = p.vocab->AddPredicate("E1", 1);
  PredId e2 = p.vocab->AddPredicate("E2", 2);
  PredId i1 = p.vocab->AddPredicate("I1", 1);
  PredId i2 = p.vocab->AddPredicate("I2", 2);
  p.goal = p.vocab->AddPredicate("G0", 0);
  p.body_preds = {e1, e2, i1, i2};
  p.head_preds = {i1, i2, p.goal};
  p.base_preds = {e1, e2};
  p.idb_preds = {i1, i2};
  p.min_vars = 2;
  p.max_vars = 4;
  p.min_atoms = 1;
  p.max_atoms = 3;
  p.min_rules = 2;
  p.max_rules = 6;
  p.elems = 5;
  p.facts = 10;
  return p;
}

GenProfile PlanProfile() {
  GenProfile p;
  p.name = "plan";
  p.vocab = MakeVocabulary();
  PredId e1 = p.vocab->AddPredicate("E1", 1);
  PredId e2 = p.vocab->AddPredicate("E2", 2);
  PredId e3 = p.vocab->AddPredicate("E3", 3);
  PredId i1 = p.vocab->AddPredicate("I1", 1);
  PredId i2 = p.vocab->AddPredicate("I2", 2);
  p.goal = p.vocab->AddPredicate("G0", 0);
  p.body_preds = {e1, e2, e3, i1, i2};
  p.head_preds = {i1, i2, p.goal};
  p.base_preds = {e1, e2, e3};
  p.idb_preds = {i1, i2};
  p.min_vars = 2;
  p.max_vars = 5;
  p.min_atoms = 1;
  p.max_atoms = 4;
  p.min_rules = 2;
  p.max_rules = 6;
  p.elems = 5;
  p.facts = 12;
  return p;
}

GenProfile DataflowProfile() {
  GenProfile p;
  p.name = "dataflow";
  p.vocab = MakeVocabulary();
  PredId e1 = p.vocab->AddPredicate("E1", 1);
  PredId e2 = p.vocab->AddPredicate("E2", 2);
  PredId z1 = p.vocab->AddPredicate("Z1", 1);
  PredId i1 = p.vocab->AddPredicate("I1", 1);
  PredId i2 = p.vocab->AddPredicate("I2", 2);
  PredId j2 = p.vocab->AddPredicate("J2", 2);
  p.goal = p.vocab->AddPredicate("G0", 0);
  p.body_preds = {e1, e2, z1, i1, i2, j2};
  p.head_preds = {i1, i2, j2, p.goal};
  p.base_preds = {e1, e2};
  p.rare_preds = {z1};
  p.idb_preds = {i1, i2};
  p.min_vars = 2;
  p.max_vars = 4;
  p.min_atoms = 1;
  p.max_atoms = 3;
  p.min_rules = 2;
  p.max_rules = 6;
  p.elems = 4;
  p.facts = 8;
  return p;
}

GenProfile QueryProfile() {
  GenProfile p = EvalProfile();
  p.name = "query";
  p.min_rules = 1;
  p.max_rules = 4;
  return p;
}

GenProfile ProfileByName(const std::string& name) {
  if (name == "eval") return EvalProfile();
  if (name == "plan") return PlanProfile();
  if (name == "dataflow") return DataflowProfile();
  if (name == "query") return QueryProfile();
  MONDET_CHECK(false && "unknown generator profile");
  return EvalProfile();
}

std::vector<std::string> ProfileNames() {
  return {"eval", "plan", "dataflow", "query"};
}

Rule RandomRule(const GenProfile& p, std::mt19937& rng, bool goal_head) {
  // The draw order below — nvars, natoms, then per body atom the
  // predicate followed by one variable per argument, then the head
  // predicate (not drawn when the goal is forced) and one body variable
  // per head argument — is the historical order of all five differential
  // tests. Do not reorder: testing_golden_test.cc pins it.
  std::uniform_int_distribution<int> nvars_dist(p.min_vars, p.max_vars);
  std::uniform_int_distribution<int> natoms_dist(p.min_atoms, p.max_atoms);
  const int nvars = nvars_dist(rng);
  const int natoms = natoms_dist(rng);
  std::uniform_int_distribution<int> var_dist(0, nvars - 1);
  std::uniform_int_distribution<size_t> body_pred_dist(
      0, p.body_preds.size() - 1);

  constexpr VarId kUnmapped = std::numeric_limits<VarId>::max();
  Rule rule;
  std::vector<VarId> remap(nvars, kUnmapped);
  auto used = [&](int raw) {
    if (remap[raw] == kUnmapped) {
      remap[raw] = static_cast<VarId>(rule.var_names.size());
      rule.var_names.push_back("v" + std::to_string(raw));
    }
    return remap[raw];
  };
  for (int a = 0; a < natoms; ++a) {
    PredId pred = p.body_preds[body_pred_dist(rng)];
    std::vector<VarId> args;
    for (int j = 0; j < p.vocab->arity(pred); ++j) {
      args.push_back(used(var_dist(rng)));
    }
    rule.body.push_back(QAtom(pred, args));
  }
  std::uniform_int_distribution<size_t> head_pred_dist(
      0, p.head_preds.size() - 1);
  PredId hp = goal_head ? p.goal : p.head_preds[head_pred_dist(rng)];
  std::uniform_int_distribution<size_t> body_var_dist(
      0, rule.var_names.size() - 1);
  std::vector<VarId> head_args;
  for (int j = 0; j < p.vocab->arity(hp); ++j) {
    head_args.push_back(static_cast<VarId>(body_var_dist(rng)));
  }
  rule.head = QAtom(hp, head_args);
  return rule;
}

Program RandomProgram(const GenProfile& p, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> nrules_dist(p.min_rules, p.max_rules);
  Program program(p.vocab);
  const int nrules = nrules_dist(rng);
  for (int i = 0; i < nrules; ++i) program.AddRule(RandomRule(p, rng));
  return program;
}

Program RandomGoalProgram(const GenProfile& p, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> nrules_dist(p.min_rules, p.max_rules);
  Program program(p.vocab);
  const int nrules = nrules_dist(rng);
  for (int i = 0; i < nrules; ++i) {
    program.AddRule(RandomRule(p, rng, /*goal_head=*/false));
  }
  // At least one rule derives the goal.
  program.AddRule(RandomRule(p, rng, /*goal_head=*/true));
  return program;
}

std::vector<PredId> SeededPreds(const GenProfile& p, unsigned seed) {
  std::vector<PredId> preds = p.base_preds;
  if (!p.rare_preds.empty() && seed % 3 == 0) {
    preds.insert(preds.end(), p.rare_preds.begin(), p.rare_preds.end());
  }
  if (seed % 2 == 1) {
    preds.insert(preds.end(), p.idb_preds.begin(), p.idb_preds.end());
  }
  return preds;
}

Instance RandomInstance(const VocabularyPtr& vocab,
                        const std::vector<PredId>& preds, int elems,
                        int facts, unsigned seed) {
  std::mt19937 rng(seed);
  Instance inst(vocab);
  for (int i = 0; i < elems; ++i) inst.AddElement();
  std::uniform_int_distribution<int> elem_dist(0, elems - 1);
  std::uniform_int_distribution<size_t> pred_dist(0, preds.size() - 1);
  for (int i = 0; i < facts; ++i) {
    PredId p = preds[pred_dist(rng)];
    std::vector<ElemId> args;
    for (int j = 0; j < vocab->arity(p); ++j) {
      args.push_back(static_cast<ElemId>(elem_dist(rng)));
    }
    inst.AddFact(p, args);
  }
  return inst;
}

Fact RandomBaseFact(const GenProfile& p, const std::vector<PredId>& preds,
                    size_t elems, std::mt19937& rng) {
  std::uniform_int_distribution<size_t> pred_dist(0, preds.size() - 1);
  std::uniform_int_distribution<ElemId> elem_dist(
      0, static_cast<ElemId>(elems - 1));
  PredId pred = preds[pred_dist(rng)];
  std::vector<ElemId> args;
  for (int j = 0; j < p.vocab->arity(pred); ++j) args.push_back(elem_dist(rng));
  return Fact(pred, std::move(args));
}

std::vector<RawBatch> RandomSchedule(const GenProfile& p,
                                     const std::vector<PredId>& churn_preds,
                                     const Instance& base, int steps,
                                     std::mt19937& rng) {
  // Draw order per batch: insert count, one RandomBaseFact per insert,
  // delete count, then per delete one rng() coin (and one rng() index
  // into the live base facts on heads) or a RandomBaseFact on tails —
  // with the normalized batch applied to the working base before the
  // next batch is drawn. Historical order; do not reorder.
  Instance work = base;
  std::vector<RawBatch> schedule;
  std::uniform_int_distribution<int> batch_dist(0, 4);
  for (int step = 0; step < steps; ++step) {
    RawBatch raw;
    for (int i = batch_dist(rng); i > 0; --i) {
      raw.inserts.push_back(RandomBaseFact(p, churn_preds, p.elems, rng));
    }
    for (int i = batch_dist(rng); i > 0; --i) {
      if (work.num_facts() > 0 && rng() % 2 == 0) {
        raw.deletes.push_back(
            work.FactAt(static_cast<uint32_t>(rng() % work.num_facts())));
      } else {
        raw.deletes.push_back(RandomBaseFact(p, churn_preds, p.elems, rng));
      }
    }
    ApplyBatch(raw.inserts, raw.deletes, work);
    schedule.push_back(std::move(raw));
  }
  return schedule;
}

std::vector<ViewSpec> RandomViewSpecs(const GenProfile& p, unsigned seed) {
  auto pred = [&](const char* name) {
    auto id = p.vocab->FindPredicate(name);
    MONDET_CHECK(id.has_value());
    return *id;
  };
  std::vector<ViewSpec> specs;
  switch (seed % 3) {
    case 0:
      specs.push_back({"VA1", pred("E1"), "", ""});
      specs.push_back({"VA2", pred("E2"), "", ""});
      break;
    case 1:
      specs.push_back({"VProj", kNoPred, "VP(x) :- E2(x,y).", "VP"});
      specs.push_back({"VA1", pred("E1"), "", ""});
      break;
    default:
      specs.push_back({"VReach", kNoPred,
                       "VR(x) :- E1(x).\nVR(x) :- E2(x,y), VR(y).", "VR"});
      specs.push_back({"VA2", pred("E2"), "", ""});
      break;
  }
  return specs;
}

ViewSet BuildViews(const VocabularyPtr& vocab,
                   const std::vector<ViewSpec>& specs) {
  ViewSet views(vocab);
  for (const ViewSpec& spec : specs) {
    if (spec.atomic_base != kNoPred) {
      views.AddAtomicView(spec.name, spec.atomic_base);
    } else {
      std::vector<Diagnostic> diags;
      auto query = ParseQuery(spec.text, spec.goal, vocab, &diags);
      MONDET_CHECK(query.has_value());
      views.AddView(spec.name, *query);
    }
  }
  return views;
}

NodeLabel NtaLabelA() { return {AtomLabel{0, {0}}}; }
NodeLabel NtaLabelB() { return {AtomLabel{1, {0}}}; }

Nta RandomNta(unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> nstates_dist(1, 3);
  Nta m(1);
  const int nstates = nstates_dist(rng);
  for (int i = 0; i < nstates; ++i) m.AddState();
  const NodeLabel labels[] = {NtaLabelA(), NtaLabelB()};
  std::uniform_int_distribution<size_t> label_dist(0, 1);
  std::uniform_int_distribution<State> state_dist(0, nstates - 1);
  std::uniform_int_distribution<int> nleaf_dist(1, 3);
  std::uniform_int_distribution<int> nunary_dist(0, 3);
  std::uniform_int_distribution<int> nbinary_dist(0, 2);
  for (int i = nleaf_dist(rng); i > 0; --i) {
    m.AddLeaf(labels[label_dist(rng)], state_dist(rng));
  }
  for (int i = nunary_dist(rng); i > 0; --i) {
    m.AddUnary(labels[label_dist(rng)], EdgeLabel{}, state_dist(rng),
               state_dist(rng));
  }
  for (int i = nbinary_dist(rng); i > 0; --i) {
    m.AddBinary(labels[label_dist(rng)], EdgeLabel{}, EdgeLabel{},
                state_dist(rng), state_dist(rng), state_dist(rng));
  }
  // Random finals: each state flips a coin, so some seeds produce the
  // empty language (a valid — and easy to get wrong — input to
  // Complement and Product).
  for (State q = 0; q < static_cast<State>(nstates); ++q) {
    if (rng() % 2 == 0) m.AddFinal(q);
  }
  return m;
}

namespace {

TreeCode NtaChainCode(const std::vector<NodeLabel>& top_down) {
  TreeCode code;
  code.width = 1;
  code.nodes.resize(top_down.size());
  for (size_t i = 0; i < top_down.size(); ++i) {
    code.nodes[i].atoms = top_down[i];
    if (i + 1 < top_down.size()) {
      code.nodes[i].children = {static_cast<int>(i) + 1};
      code.nodes[i].edge_labels = {EdgeLabel{}};
      code.nodes[i + 1].parent = static_cast<int>(i);
    }
  }
  return code;
}

TreeCode NtaBinaryCode(const NodeLabel& root, const NodeLabel& left,
                       const NodeLabel& right) {
  TreeCode code;
  code.width = 1;
  code.nodes.resize(3);
  code.nodes[0].atoms = root;
  code.nodes[0].children = {1, 2};
  code.nodes[0].edge_labels = {EdgeLabel{}, EdgeLabel{}};
  code.nodes[1].atoms = left;
  code.nodes[1].parent = 0;
  code.nodes[2].atoms = right;
  code.nodes[2].parent = 0;
  return code;
}

}  // namespace

std::vector<TreeCode> NtaEnumerationCodes() {
  const std::vector<NodeLabel> alphabet = {NtaLabelA(), NtaLabelB()};
  std::vector<TreeCode> codes;
  for (const NodeLabel& l0 : alphabet) {
    codes.push_back(NtaChainCode({l0}));
    for (const NodeLabel& l1 : alphabet) {
      codes.push_back(NtaChainCode({l0, l1}));
      for (const NodeLabel& l2 : alphabet) {
        codes.push_back(NtaChainCode({l0, l1, l2}));
      }
    }
  }
  for (const NodeLabel& root : alphabet) {
    for (const NodeLabel& l : alphabet) {
      for (const NodeLabel& r : alphabet) {
        codes.push_back(NtaBinaryCode(root, l, r));
      }
    }
  }
  return codes;
}

Nta NthBelowRootIsANta(int k) {
  Nta m(1);
  // State 0 = "don't care below the guessed A node"; states 1..k+1 =
  // "the A was guessed i - 1 levels below the current node".
  State dont_care = m.AddState();
  std::vector<State> count;
  for (int i = 0; i <= k; ++i) count.push_back(m.AddState());
  for (const NodeLabel& l : {NtaLabelA(), NtaLabelB()}) {
    m.AddLeaf(l, dont_care);
    m.AddUnary(l, EdgeLabel{}, dont_care, dont_care);
  }
  // Guess that the current node is the one k below the root.
  m.AddLeaf(NtaLabelA(), count[0]);
  m.AddUnary(NtaLabelA(), EdgeLabel{}, dont_care, count[0]);
  // Count the k levels up to the root.
  for (int i = 0; i < k; ++i) {
    for (const NodeLabel& l : {NtaLabelA(), NtaLabelB()}) {
      m.AddUnary(l, EdgeLabel{}, count[i], count[i + 1]);
    }
  }
  m.AddFinal(count[k]);
  return m;
}

Nta ChainOfANta(int len) {
  MONDET_CHECK(len >= 1);
  Nta m(1);
  std::vector<State> states;
  for (int i = 0; i < len; ++i) states.push_back(m.AddState());
  m.AddLeaf(NtaLabelA(), states[0]);
  for (int i = 0; i + 1 < len; ++i) {
    m.AddUnary(NtaLabelA(), EdgeLabel{}, states[i], states[i + 1]);
  }
  m.AddFinal(states[len - 1]);
  return m;
}

}  // namespace testing
}  // namespace mondet
