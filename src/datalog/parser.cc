#include "datalog/parser.h"

#include <cctype>
#include <sstream>
#include <unordered_map>

#include "analysis/analyzer.h"

namespace mondet {

namespace {

/// 1-based line/column of byte offset `pos` in `text`.
void LineColAt(const std::string& text, size_t pos, int* line, int* col) {
  *line = 1;
  *col = 1;
  for (size_t i = 0; i < pos && i < text.size(); ++i) {
    if (text[i] == '\n') {
      ++*line;
      *col = 1;
    } else {
      ++*col;
    }
  }
}

/// Minimal recursive-descent tokenizer/parser for the rule syntax.
class Parser {
 public:
  Parser(const std::string& text, VocabularyPtr vocab)
      : text_(text), vocab_(std::move(vocab)) {}

  std::optional<std::vector<Rule>> Parse(std::vector<Diagnostic>* diags) {
    std::vector<Rule> rules;
    SkipWs();
    while (pos_ < text_.size()) {
      auto rule = ParseRule(static_cast<int>(rules.size()));
      if (!rule) {
        diags->insert(diags->end(), diags_.begin(), diags_.end());
        return std::nullopt;
      }
      rules.push_back(std::move(*rule));
      SkipWs();
    }
    return rules;
  }

 private:
  void SkipWs() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == '#') {
        while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
      } else if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_;
      } else {
        break;
      }
    }
  }

  bool Eat(char c) {
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool EatArrow() {
    SkipWs();
    if (text_.compare(pos_, 2, ":-") == 0) {
      pos_ += 2;
      return true;
    }
    if (text_.compare(pos_, 2, "<-") == 0) {
      pos_ += 2;
      return true;
    }
    return false;
  }

  std::optional<std::string> Identifier() {
    SkipWs();
    size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '_' || text_[pos_] == '\'')) {
      ++pos_;
    }
    if (pos_ == start) return std::nullopt;
    return text_.substr(start, pos_ - start);
  }

  bool Fail(const std::string& msg, const std::string& check = "parse") {
    return FailAt(pos_, msg, check);
  }

  bool FailAt(size_t at, const std::string& msg,
              const std::string& check = "parse") {
    SourceLoc loc;
    LineColAt(text_, at, &loc.line, &loc.col);
    diags_.push_back(MakeDiagnostic(Severity::kError, check, msg, loc));
    return false;
  }

  /// Parses "Pred(v1,...,vn)" or a bare "Pred" (0-ary). Interns the
  /// predicate and returns the atom; nullopt on error.
  std::optional<QAtom> ParseAtom(RuleBuilder* builder,
                                 std::vector<std::string>* arg_names) {
    SkipWs();
    const size_t name_pos = pos_;
    auto name = Identifier();
    if (!name) {
      Fail("expected predicate name");
      return std::nullopt;
    }
    // An argument list cut off by the end of input is reported at the
    // atom it belongs to: the end-of-input position names no useful line.
    auto fail_args = [&](const std::string& msg) {
      if (pos_ < text_.size()) return Fail(msg);
      return FailAt(name_pos, "unterminated atom " + *name + ": " + msg);
    };
    arg_names->clear();
    if (Eat('(')) {
      if (!Eat(')')) {
        while (true) {
          auto var = Identifier();
          if (!var) {
            fail_args("expected variable name");
            return std::nullopt;
          }
          arg_names->push_back(*var);
          if (Eat(')')) break;
          if (!Eat(',')) {
            fail_args("expected ',' or ')'");
            return std::nullopt;
          }
        }
      }
    }
    auto existing = vocab_->FindPredicate(*name);
    if (existing && vocab_->arity(*existing) !=
                        static_cast<int>(arg_names->size())) {
      Fail("arity mismatch for predicate " + *name + ": declared with " +
               std::to_string(vocab_->arity(*existing)) + ", used with " +
               std::to_string(arg_names->size()),
           "arity");
      return std::nullopt;
    }
    PredId pred =
        vocab_->AddPredicate(*name, static_cast<int>(arg_names->size()));
    std::vector<VarId> args;
    for (const std::string& v : *arg_names) args.push_back(builder->Var(v));
    return QAtom(pred, args);
  }

  std::optional<Rule> ParseRule(int rule_index) {
    SkipWs();
    int line = 0, col = 0;
    LineColAt(text_, pos_, &line, &col);
    RuleBuilder builder(vocab_);
    std::vector<std::string> arg_names;
    auto head = ParseAtom(&builder, &arg_names);
    if (!head) return std::nullopt;
    std::vector<std::string> head_vars = arg_names;
    if (Eat('.')) {
      // Fact-style rule with empty body (only legal for 0-ary heads).
      if (!head->args.empty()) {
        Fail("rule with variables must have a body");
        return std::nullopt;
      }
      builder.Head(head->pred, {});
      Rule fact = builder.Build();
      fact.line = line;
      fact.col = col;
      return fact;
    }
    if (!EatArrow()) {
      Fail("expected ':-'");
      return std::nullopt;
    }
    std::vector<std::pair<PredId, std::vector<std::string>>> body;
    while (true) {
      std::vector<std::string> body_args;
      auto atom = ParseAtom(&builder, &body_args);
      if (!atom) return std::nullopt;
      body.emplace_back(atom->pred, body_args);
      if (Eat('.')) break;
      if (!Eat(',')) {
        Fail("expected ',' or '.'");
        return std::nullopt;
      }
    }
    builder.Head(head->pred, head_vars);
    for (const auto& [pred, vars] : body) builder.Atom(pred, vars);
    // Safety check mirrors Program::AddRule but reports (with source
    // positions, via the analyzer) instead of dying.
    Rule built = builder.Build();
    built.line = line;
    built.col = col;
    size_t before = diags_.size();
    CheckRuleSafety(built, rule_index, &diags_);
    if (diags_.size() != before) return std::nullopt;
    return built;
  }

  const std::string& text_;
  VocabularyPtr vocab_;
  size_t pos_ = 0;
  std::vector<Diagnostic> diags_;
};

}  // namespace

ParseResult ParseProgram(const std::string& text,
                         const VocabularyPtr& vocab) {
  ParseResult result;
  Parser parser(text, vocab);
  auto rules = parser.Parse(&result.diagnostics);
  if (!rules) {
    result.error = result.diagnostics.empty()
                       ? "parse error"
                       : FormatDiagnostic(result.diagnostics.front());
    return result;
  }
  Program program(vocab);
  for (Rule& r : *rules) program.AddRule(std::move(r));
  result.program = std::move(program);
  return result;
}

std::optional<DatalogQuery> ParseQuery(const std::string& text,
                                       const std::string& goal_name,
                                       const VocabularyPtr& vocab,
                                       std::vector<Diagnostic>* diagnostics) {
  ParseResult result = ParseProgram(text, vocab);
  if (!result.ok()) {
    if (diagnostics) {
      diagnostics->insert(diagnostics->end(), result.diagnostics.begin(),
                          result.diagnostics.end());
    }
    return std::nullopt;
  }
  auto goal = vocab->FindPredicate(goal_name);
  if (!goal || !result.program->IsIdb(*goal)) {
    if (diagnostics) {
      // Point at the first occurrence of the goal predicate in some rule
      // body (the usual mistake: the goal only ever appears extensionally)
      // so the failure carries a source position when one exists.
      SourceLoc loc;
      if (goal) {
        const auto& rules = result.program->rules();
        for (int ri = 0; ri < static_cast<int>(rules.size()) && loc.rule < 0;
             ++ri) {
          const Rule& r = rules[ri];
          for (int ai = 0; ai < static_cast<int>(r.body.size()); ++ai) {
            if (r.body[ai].pred == *goal) {
              loc.rule = ri;
              loc.atoms = {ai};
              loc.line = r.line;
              loc.col = r.col;
              break;
            }
          }
        }
      }
      diagnostics->push_back(MakeDiagnostic(
          Severity::kError, "goal",
          "goal predicate " + goal_name + " has no rules", loc));
    }
    return std::nullopt;
  }
  return DatalogQuery(std::move(*result.program), *goal);
}

std::optional<UCQ> ParseUcq(const std::string& text,
                            const VocabularyPtr& vocab, std::string* error) {
  ParseResult result = ParseProgram(text, vocab);
  if (!result.ok()) {
    if (error) *error = result.error;
    return std::nullopt;
  }
  const Program& prog = *result.program;
  if (prog.rules().empty()) {
    if (error) *error = "no rules";
    return std::nullopt;
  }
  PredId head = prog.rules().front().head.pred;
  UCQ ucq(vocab);
  for (const Rule& r : prog.rules()) {
    if (r.head.pred != head) {
      if (error) *error = "UCQ rules must share one head predicate";
      return std::nullopt;
    }
    for (const QAtom& a : r.body) {
      if (prog.IsIdb(a.pred)) {
        if (error) *error = "UCQ body uses an intensional predicate";
        return std::nullopt;
      }
    }
    CQ cq(vocab);
    for (size_t v = 0; v < r.num_vars(); ++v) cq.AddVar(r.var_names[v]);
    for (const QAtom& a : r.body) cq.AddAtom(a);
    cq.SetFreeVars(r.head.args);
    ucq.AddDisjunct(std::move(cq));
  }
  return ucq;
}

std::optional<CQ> ParseCq(const std::string& text, const VocabularyPtr& vocab,
                          std::string* error) {
  auto ucq = ParseUcq(text, vocab, error);
  if (!ucq) return std::nullopt;
  if (ucq->disjuncts().size() != 1) {
    if (error) *error = "expected exactly one rule";
    return std::nullopt;
  }
  return ucq->disjuncts().front();
}

std::optional<Instance> ParseInstance(const std::string& text,
                                      const VocabularyPtr& vocab,
                                      std::vector<Diagnostic>* diagnostics) {
  // Reuse the rule parser: each fact is a bodiless "rule head". The rule
  // grammar requires a body, so parse fact statements manually with the
  // same token shapes.
  Instance inst(vocab);
  std::unordered_map<std::string, ElemId> elems;
  size_t pos = 0;
  auto skip_ws = [&]() {
    while (pos < text.size()) {
      if (text[pos] == '#') {
        while (pos < text.size() && text[pos] != '\n') ++pos;
      } else if (std::isspace(static_cast<unsigned char>(text[pos]))) {
        ++pos;
      } else {
        break;
      }
    }
  };
  auto ident = [&]() -> std::optional<std::string> {
    skip_ws();
    size_t start = pos;
    while (pos < text.size() &&
           (std::isalnum(static_cast<unsigned char>(text[pos])) ||
            text[pos] == '_' || text[pos] == '\'')) {
      ++pos;
    }
    if (pos == start) return std::nullopt;
    return text.substr(start, pos - start);
  };
  auto eat = [&](char c) {
    skip_ws();
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  };
  auto fail_at = [&](size_t at, const std::string& check,
                     const std::string& msg) {
    if (diagnostics) {
      SourceLoc loc;
      LineColAt(text, at, &loc.line, &loc.col);
      diagnostics->push_back(
          MakeDiagnostic(Severity::kError, check, msg, loc));
    }
    return std::optional<Instance>();
  };
  auto fail = [&](const std::string& check, const std::string& msg) {
    return fail_at(pos, check, msg);
  };
  skip_ws();
  while (pos < text.size()) {
    const size_t name_pos = pos;
    auto pred_name = ident();
    if (!pred_name) return fail("parse", "expected predicate name");
    // As in the rule parser: a fact cut off by the end of input is
    // reported at its predicate name.
    auto fail_args = [&](const std::string& msg) {
      if (pos < text.size()) return fail("parse", msg);
      return fail_at(name_pos, "parse",
                     "unterminated atom " + *pred_name + ": " + msg);
    };
    std::vector<ElemId> args;
    if (eat('(')) {
      if (!eat(')')) {
        while (true) {
          auto elem_name = ident();
          if (!elem_name) return fail_args("expected element name");
          auto it = elems.find(*elem_name);
          if (it == elems.end()) {
            it = elems.emplace(*elem_name, inst.AddElement(*elem_name)).first;
          }
          args.push_back(it->second);
          if (eat(')')) break;
          if (!eat(',')) return fail_args("expected ',' or ')'");
        }
      }
    }
    auto existing = vocab->FindPredicate(*pred_name);
    if (existing &&
        vocab->arity(*existing) != static_cast<int>(args.size())) {
      return fail("arity", "arity mismatch for predicate " + *pred_name);
    }
    PredId pred =
        vocab->AddPredicate(*pred_name, static_cast<int>(args.size()));
    inst.AddFact(pred, args);
    if (!eat('.')) return fail("parse", "expected '.'");
    skip_ws();
  }
  return inst;
}

std::optional<StreamParse> ParseStream(const std::string& text,
                                       const VocabularyPtr& vocab,
                                       const Instance& base,
                                       std::vector<Diagnostic>* diagnostics) {
  StreamParse out;
  std::unordered_map<std::string, ElemId> elems;
  for (ElemId e = 0; e < base.num_elements(); ++e) {
    const std::string& name = base.element_name(e);
    if (!name.empty()) elems.emplace(name, e);
  }
  ElemId next_elem = static_cast<ElemId>(base.num_elements());

  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  size_t pos = 0;
  auto skip_ws = [&]() {
    while (pos < line.size()) {
      if (line[pos] == '#') {
        pos = line.size();
      } else if (std::isspace(static_cast<unsigned char>(line[pos]))) {
        ++pos;
      } else {
        break;
      }
    }
  };
  auto ident = [&]() -> std::optional<std::string> {
    skip_ws();
    size_t start = pos;
    while (pos < line.size() &&
           (std::isalnum(static_cast<unsigned char>(line[pos])) ||
            line[pos] == '_' || line[pos] == '\'')) {
      ++pos;
    }
    if (pos == start) return std::nullopt;
    return line.substr(start, pos - start);
  };
  auto eat = [&](char c) {
    skip_ws();
    if (pos < line.size() && line[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  };
  auto fail = [&](const std::string& check, const std::string& msg) {
    if (diagnostics) {
      SourceLoc loc;
      loc.line = lineno;
      loc.col = static_cast<int>(pos) + 1;
      diagnostics->push_back(
          MakeDiagnostic(Severity::kError, check, msg, loc));
    }
    return std::optional<StreamParse>();
  };

  while (std::getline(in, line)) {
    ++lineno;
    pos = 0;
    skip_ws();
    if (pos >= line.size()) continue;
    StreamBatch batch;
    batch.line = lineno;
    while (pos < line.size()) {
      char sign = line[pos];
      if (sign != '+' && sign != '-') {
        return fail("parse", "expected '+' or '-'");
      }
      ++pos;
      auto pred_name = ident();
      if (!pred_name) return fail("parse", "expected predicate name");
      std::vector<ElemId> args;
      if (eat('(')) {
        if (!eat(')')) {
          while (true) {
            auto elem_name = ident();
            if (!elem_name) return fail("parse", "expected element name");
            auto it = elems.find(*elem_name);
            if (it == elems.end()) {
              it = elems.emplace(*elem_name, next_elem++).first;
              out.new_elements.push_back(*elem_name);
            }
            args.push_back(it->second);
            if (eat(')')) break;
            if (!eat(',')) return fail("parse", "expected ',' or ')'");
          }
        }
      }
      auto existing = vocab->FindPredicate(*pred_name);
      if (existing &&
          vocab->arity(*existing) != static_cast<int>(args.size())) {
        return fail("arity", "arity mismatch for predicate " + *pred_name);
      }
      PredId pred =
          vocab->AddPredicate(*pred_name, static_cast<int>(args.size()));
      (sign == '+' ? batch.inserts : batch.deletes)
          .push_back(Fact(pred, std::move(args)));
      if (!eat('.')) return fail("parse", "expected '.'");
      skip_ws();
    }
    out.batches.push_back(std::move(batch));
  }
  return out;
}

}  // namespace mondet
