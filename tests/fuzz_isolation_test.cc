// The fuzz harness survives an engine abort (testing/fuzz.h). A test-only
// oracle whose Check trips MONDET_CHECK on every case of two or more
// rules runs through RunCase, mondet-fuzz's per-case step, over
// consecutive seeds. Each aborting case must be reported as a FAIL with
// its signal and the MONDET_CHECK line, and shrunk to a repro of exactly
// two rules; the cases after it must still run and pass.

#include <gtest/gtest.h>

#include <csignal>
#include <filesystem>
#include <optional>
#include <string>

#include "base/check.h"
#include "testing/corpus.h"
#include "testing/fuzz.h"
#include "testing/generator.h"

namespace mondet {
namespace {

/// Seed s keeps the first 1 + s % 3 rules of a random program, so seeds
/// 0 and 3 pass and the others abort.
class AbortOnTwoRules : public testing::Oracle {
 public:
  std::string name() const override { return "abort-on-two-rules"; }
  testing::GenProfile Profile() const override {
    return testing::EvalProfile();
  }
  testing::FuzzCase Generate(unsigned seed) const override {
    testing::FuzzCase c;
    c.oracle = name();
    c.seed = seed;
    c.profile = Profile();
    const Program full = testing::RandomProgram(c.profile, seed);
    Program kept(c.profile.vocab);
    for (size_t i = 0; i < 1 + seed % 3 && i < full.rules().size(); ++i) {
      kept.AddRule(full.rules()[i]);
    }
    c.program = std::move(kept);
    return c;
  }
  testing::OracleOutcome Check(const testing::FuzzCase& c) const override {
    MONDET_CHECK(c.program->rules().size() < 2 && "test oracle: two rules");
    return {};
  }
};

TEST(FuzzIsolation, AbortIsReportedShrunkAndTheRunGoesOn) {
  const AbortOnTwoRules oracle;
  const std::string out_dir = ::testing::TempDir() + "fuzz_isolation_test";
  std::filesystem::create_directories(out_dir);
  size_t passed = 0, failed = 0, shrunk_from_three = 0;
  for (unsigned seed = 0; seed < 6; ++seed) {
    const testing::FuzzCase c = oracle.Generate(seed);
    const size_t rules = c.program->rules().size();
    ::testing::internal::CaptureStderr();
    const bool ok = testing::RunCase(oracle, c, /*shrink=*/true, out_dir);
    const std::string err = ::testing::internal::GetCapturedStderr();
    const std::string tag = "seed " + std::to_string(seed);
    if (rules < 2) {
      EXPECT_TRUE(ok) << tag << "\n" << err;
      ++passed;
      continue;
    }
    EXPECT_FALSE(ok) << tag;
    ++failed;
    EXPECT_NE(err.find("FAIL abort-on-two-rules " + tag), std::string::npos)
        << err;
    EXPECT_NE(err.find("died on signal " + std::to_string(SIGABRT)),
              std::string::npos)
        << err;
    EXPECT_NE(err.find("MONDET_CHECK failed at"), std::string::npos) << err;
    std::string error;
    const std::optional<testing::FuzzCase> repro = testing::LoadCaseFile(
        out_dir + "/abort-on-two-rules-seed" + std::to_string(seed) + ".repro",
        &error);
    ASSERT_TRUE(repro.has_value()) << tag << ": " << error;
    EXPECT_EQ(repro->program->rules().size(), 2u) << tag;
    if (rules >= 3) ++shrunk_from_three;
  }
  EXPECT_EQ(passed, 2u);
  EXPECT_EQ(failed, 4u);
  EXPECT_GT(shrunk_from_three, 0u);
}

}  // namespace
}  // namespace mondet
