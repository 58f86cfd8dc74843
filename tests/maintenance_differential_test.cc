// Differential test for retraction + incremental view maintenance
// (CompiledProgram::Materialize / Maintain): on randomized programs and
// randomized insert/delete schedules, the maintained materialization must
// be bit-identical — fact set, per-fact derivation counts, statistics —
// to a from-scratch Materialize of the current base after *every* prefix
// of the schedule. Raw batches deliberately contain duplicate inserts and
// deletes of absent facts (normalization is the caller contract).
//
// The generator and checker live in the shared randomized-testing
// library (testing/oracle.h, oracle `maintenance-differential`);
// `mondet-fuzz` drives the same property with shrinking, and failure
// messages carry the full generated case for `.repro` replay.

#include <gtest/gtest.h>

#include "testing/oracle.h"

namespace mondet {
namespace {

class MaintenanceDifferential : public ::testing::TestWithParam<unsigned> {};

TEST_P(MaintenanceDifferential, MaintainedEqualsRecomputedAtEveryPrefix) {
  const testing::Oracle* oracle =
      testing::FindOracle("maintenance-differential");
  ASSERT_NE(oracle, nullptr);
  testing::OracleOutcome out = oracle->Check(oracle->Generate(GetParam()));
  EXPECT_TRUE(out.ok) << out.message;
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaintenanceDifferential,
                         ::testing::Range(0u, 220u));

}  // namespace
}  // namespace mondet
