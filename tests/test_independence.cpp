// Tests for the CI tester that backs Cheng's phases (MI-threshold and G-test
// decisions against data with known structure).
#include <gtest/gtest.h>

#include "bn/repository.hpp"
#include "bn/sampling.hpp"
#include "core/wait_free_builder.hpp"
#include "data/generators.hpp"
#include "learn/independence.hpp"
#include "util/error.hpp"

namespace wfbn {
namespace {

PotentialTable build(const Dataset& data) {
  WaitFreeBuilderOptions options;
  options.threads = 4;
  WaitFreeBuilder builder(options);
  return builder.build(data);
}

TEST(CiTester, DetectsMarginalDependenceOnChainData) {
  const Dataset data = generate_chain_correlated(30000, 4, 2, 0.9, 61);
  const PotentialTable table = build(data);
  const CiTester tester(table, CiOptions{});
  EXPECT_FALSE(tester.test(0, 1, {}).independent);
  EXPECT_FALSE(tester.test(0, 3, {}).independent);  // transitively dependent
  EXPECT_GT(tester.pair_mi(0, 1), tester.pair_mi(0, 3));
}

TEST(CiTester, DetectsIndependenceOnUniformData) {
  const Dataset data = generate_uniform(30000, 4, 2, 62);
  const PotentialTable table = build(data);
  const CiTester tester(table, CiOptions{});
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = i + 1; j < 4; ++j) {
      EXPECT_TRUE(tester.test(i, j, {}).independent);
    }
  }
}

TEST(CiTester, ConditioningScreensOffChain) {
  const Dataset data = generate_chain_correlated(60000, 3, 2, 0.85, 63);
  const PotentialTable table = build(data);
  const CiTester tester(table, CiOptions{});
  const std::size_t middle[] = {1};
  EXPECT_FALSE(tester.test(0, 2, {}).independent);
  EXPECT_TRUE(tester.test(0, 2, middle).independent);
}

TEST(CiTester, GTestMethodAgreesOnClearCases) {
  const Dataset data = generate_chain_correlated(60000, 3, 2, 0.85, 64);
  const PotentialTable table = build(data);
  CiOptions options;
  options.method = CiMethod::kGTest;
  options.alpha = 0.01;
  const CiTester tester(table, options);
  const CiDecision dependent = tester.test(0, 1, {});
  EXPECT_FALSE(dependent.independent);
  EXPECT_LT(dependent.p_value, 1e-6);
  const std::size_t middle[] = {1};
  const CiDecision screened = tester.test(0, 2, middle);
  EXPECT_TRUE(screened.independent);
  EXPECT_GT(screened.p_value, 0.01);
}

TEST(CiTester, ColliderSignatureOnSampledData) {
  // X → Z ← Y: marginally independent, dependent given Z.
  Dag dag(3);
  dag.add_edge(0, 2);
  dag.add_edge(1, 2);
  BayesianNetwork bn(std::move(dag), {2, 2, 2});
  bn.set_cpt(2, Cpt::from_probabilities(
                    2, {2, 2},
                    {0.95, 0.05, 0.10, 0.90, 0.10, 0.90, 0.95, 0.05}));
  const Dataset data = forward_sample(bn, 80000, 65);
  const PotentialTable table = build(data);
  const CiTester tester(table, CiOptions{});
  const std::size_t z[] = {2};
  EXPECT_TRUE(tester.test(0, 1, {}).independent);
  EXPECT_FALSE(tester.test(0, 1, z).independent);
}

TEST(CiTester, CountsTests) {
  const Dataset data = generate_uniform(1000, 3, 2, 66);
  const PotentialTable table = build(data);
  const CiTester tester(table, CiOptions{});
  EXPECT_EQ(tester.tests_performed(), 0u);
  (void)tester.test(0, 1, {});
  (void)tester.test(0, 2, {});
  EXPECT_EQ(tester.tests_performed(), 2u);
}

TEST(CiTester, ValidatesArguments) {
  const Dataset data = generate_uniform(1000, 4, 2, 67);
  const PotentialTable table = build(data);
  const CiTester tester(table, CiOptions{});
  const std::size_t z_with_x[] = {0};
  EXPECT_THROW((void)tester.test(0, 0, {}), PreconditionError);
  EXPECT_THROW((void)tester.test(0, 1, z_with_x), PreconditionError);
  CiOptions bad;
  bad.mi_threshold = -0.1;
  EXPECT_THROW(CiTester(table, bad), PreconditionError);
  CiOptions bad_alpha;
  bad_alpha.alpha = 1.5;
  EXPECT_THROW(CiTester(table, bad_alpha), PreconditionError);
}

TEST(CiTester, ThresholdControlsSensitivity) {
  const Dataset data = generate_chain_correlated(30000, 2, 2, 0.6, 68);
  const PotentialTable table = build(data);
  CiOptions strict;
  strict.mi_threshold = 1.0;  // absurdly high: everything "independent"
  EXPECT_TRUE(CiTester(table, strict).test(0, 1, {}).independent);
  CiOptions loose;
  loose.mi_threshold = 1e-6;
  EXPECT_FALSE(CiTester(table, loose).test(0, 1, {}).independent);
}

}  // namespace
}  // namespace wfbn
