// Lint <=> engine differential: lint reports a per-rule safety error
// (L001-L005, or L030 when the engine cannot classify a literal) exactly
// when CompileRule rejects the rule. The rules come from the golden
// corpus, the seeded-bad lint fixtures and the shipped example policies,
// plus rules on which an AST-level copy of the scheduler used to disagree
// with the engine (variables inside quoted code, 65-column literals).
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "datalog/eval.h"
#include "datalog/lint.h"
#include "datalog/parser.h"
#include "datalog/pretty.h"
#include "datalog/workspace.h"
#include "golden_programs.h"
#include "sendlog/sendlog.h"

namespace lbtrust::datalog {
namespace {

const BuiltinRegistry& Builtins() {
  static const BuiltinRegistry* reg = [] {
    auto* r = new BuiltinRegistry;
    RegisterStandardBuiltins(r);
    return r;
  }();
  return *reg;
}

bool EngineRejects(const Rule& rule) {
  return !CompileRule(rule, Builtins()).ok();
}

/// The per-rule safety verdict, linting the rule on its own so that
/// cross-rule findings (arity drift, stratification) stay out of it.
bool LintRejects(const Rule& rule) {
  LintOptions opts;
  opts.builtins = &Builtins();
  for (const Diagnostic& d : LintRules({&rule}, opts).diagnostics) {
    if (d.severity != LintSeverity::kError) continue;
    if (d.code == "L001" || d.code == "L002" || d.code == "L003" ||
        d.code == "L004" || d.code == "L005" || d.code == "L030") {
      return true;
    }
  }
  return false;
}

struct Tally {
  size_t rules = 0;
  size_t rejected = 0;
};

/// Routes `program` as Workspace::Load does and checks every rule the
/// engine would compile (ground facts go to the EDB instead).
void ExpectAgreement(const std::string& where, const std::string& program,
                     const std::string& principal, Tally* tally) {
  auto clauses = ParseProgram(program);
  if (!clauses.ok()) return;  // L000: nothing reaches either side
  for (const RoutedClause& item : RouteClauses(*clauses, principal)) {
    if (item.kind != RoutedClause::Kind::kRule || IsGroundFact(item.rule)) {
      continue;
    }
    const bool engine = EngineRejects(item.rule);
    EXPECT_EQ(LintRejects(item.rule), engine)
        << where << ": " << PrintRule(item.rule) << " (engine "
        << (engine ? "rejects" : "accepts") << ")";
    ++tally->rules;
    if (engine) ++tally->rejected;
  }
}

std::string ReadFile(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::vector<std::filesystem::path> SourceFiles(const std::string& dir,
                                               const std::string& ext) {
  std::vector<std::filesystem::path> out;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::filesystem::path(LBTRUST_SOURCE_DIR) / dir)) {
    if (entry.path().extension() == ext) out.push_back(entry.path());
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(LintEngineDifferentialTest, GoldenCorpusAgrees) {
  Tally tally;
  for (size_t i = 0; i < lbtrust::testing::kNumGoldenPrograms; ++i) {
    const auto& gp = lbtrust::testing::kGoldenPrograms[i];
    ExpectAgreement(gp.name, gp.program, gp.principal, &tally);
  }
  EXPECT_GT(tally.rules, 10u);
  EXPECT_EQ(tally.rejected, 0u);
}

TEST(LintEngineDifferentialTest, LintFixturesAgree) {
  Tally tally;
  for (const auto& path : SourceFiles("tests/lint_fixtures", ".lb")) {
    ExpectAgreement(path.filename().string(), ReadFile(path), "local",
                    &tally);
  }
  // The L001-L005 fixtures are engine rejections; the rest compile.
  EXPECT_EQ(tally.rejected, 5u);
  EXPECT_GT(tally.rules, tally.rejected);
}

TEST(LintEngineDifferentialTest, ExamplePoliciesAgree) {
  Tally tally;
  for (const auto& path : SourceFiles("examples/policies", ".lb")) {
    ExpectAgreement(path.filename().string(), ReadFile(path), "local",
                    &tally);
  }
  for (const auto& path : SourceFiles("examples/policies", ".sdl")) {
    auto core = sendlog::CompileSendlog(ReadFile(path));
    ASSERT_TRUE(core.ok()) << path << ": " << core.status().message();
    ExpectAgreement(path.filename().string(), *core, "local", &tally);
  }
  EXPECT_GT(tally.rules, 0u);
}

// Quoted-code variables share the rule's scope (§3.3): the says pattern
// binds X, so the engine accepts the rule and lint must not flag it.
TEST(LintEngineDifferentialTest, QuotedPatternBindsHeadVariable) {
  auto rule = ParseRuleText("p(X) <- says(U, alice, [| r(X). |]).");
  ASSERT_TRUE(rule.ok()) << rule.status().message();
  EXPECT_FALSE(EngineRejects(*rule));
  EXPECT_FALSE(LintRejects(*rule));
  EXPECT_TRUE(LintProgram("p(X) <- says(U, me, [| r(X). |]).", "alice")
                  .diagnostics.empty());
}

// Z = [| r(W). |] needs one side ground; W inside the quote is unbound,
// so no order exists and lint must say so.
TEST(LintEngineDifferentialTest, UnboundQuotedVariableBlocksEquality) {
  auto rule = ParseRuleText("p(Y) <- q(Y), Z = [| r(W). |].");
  ASSERT_TRUE(rule.ok()) << rule.status().message();
  EXPECT_TRUE(EngineRejects(*rule));
  EXPECT_TRUE(LintRejects(*rule));
  LintReport report = LintProgram(PrintRule(*rule), "alice");
  ASSERT_FALSE(report.diagnostics.empty());
  EXPECT_EQ(report.diagnostics[0].code, "L003") << report.ToText();
  EXPECT_EQ(report.ToStatus().code(), util::StatusCode::kUnsafeProgram);
}

TEST(LintEngineDifferentialTest, WideLiteralIsRejected) {
  std::string text = "p(X) <- q(X";
  for (int i = 0; i < 64; ++i) text += ", A" + std::to_string(i);
  text += ").";
  auto rule = ParseRuleText(text);
  ASSERT_TRUE(rule.ok()) << rule.status().message();
  EXPECT_TRUE(EngineRejects(*rule));
  EXPECT_TRUE(LintRejects(*rule));
  LintReport report = LintProgram(text, "alice");
  EXPECT_EQ(report.ToStatus().code(), util::StatusCode::kTypeError)
      << report.ToText();
}

TEST(LintEngineDifferentialTest, EnforcedLoadAcceptsQuotedPatternRule) {
  Workspace::Options options;
  options.principal = "alice";
  options.lint = Workspace::Options::LintMode::kEnforce;
  Workspace ws(options);
  util::Status loaded = ws.Load("p(X) <- says(U, me, [| r(X). |]).");
  ASSERT_TRUE(loaded.ok()) << loaded.message();
  ASSERT_TRUE(ws.Load("says(bob, alice, [| r(b). |]).").ok());
  ASSERT_TRUE(ws.Fixpoint().ok());
  auto rows = ws.Query("p(X)");
  ASSERT_TRUE(rows.ok()) << rows.status().message();
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0][0], Value::Sym("b"));
}

}  // namespace
}  // namespace lbtrust::datalog
