// Tests for BIC family scoring and sparse-candidate hill climbing (the
// score-based paradigm of paper §III).
#include <gtest/gtest.h>

#include <cmath>

#include "bn/metrics.hpp"
#include "bn/repository.hpp"
#include "bn/sampling.hpp"
#include "core/wait_free_builder.hpp"
#include "data/generators.hpp"
#include "learn/score.hpp"
#include "util/error.hpp"

namespace wfbn {
namespace {

PotentialTable build(const Dataset& data) {
  WaitFreeBuilderOptions options;
  options.threads = 4;
  WaitFreeBuilder builder(options);
  return builder.build(data);
}

TEST(FamilyScorer, RootScoreMatchesHandComputation) {
  // 10 rows of a binary variable: 4 zeros, 6 ones.
  std::vector<State> cells = {0, 0, 0, 0, 1, 1, 1, 1, 1, 1};
  const Dataset data(10, {2}, std::move(cells));
  const PotentialTable table = build(data);
  const FamilyScorer scorer(table);
  const double expected_ll = 4 * std::log(0.4) + 6 * std::log(0.6);
  const double expected = expected_ll - 0.5 * std::log(10.0) * 1.0;  // r−1 = 1
  EXPECT_NEAR(scorer.family_score(0, {}), expected, 1e-12);
}

TEST(FamilyScorer, ParentImprovesScoreOfDependentChild) {
  const Dataset data = generate_chain_correlated(50000, 2, 2, 0.9, 501);
  const PotentialTable table = build(data);
  const FamilyScorer scorer(table);
  EXPECT_GT(scorer.family_score(1, {0}), scorer.family_score(1, {}));
}

TEST(FamilyScorer, ParentHurtsScoreOfIndependentChild) {
  // BIC penalty must reject a useless parent.
  const Dataset data = generate_uniform(50000, 2, 2, 502);
  const PotentialTable table = build(data);
  const FamilyScorer scorer(table);
  EXPECT_LT(scorer.family_score(1, {0}), scorer.family_score(1, {}));
}

TEST(FamilyScorer, CacheAvoidsRecomputation) {
  const Dataset data = generate_uniform(5000, 4, 2, 503);
  const PotentialTable table = build(data);
  ThreadPool pool(2);
  const FamilyScorer scorer(table, pool);
  const double first = scorer.family_score(2, {0, 3});
  const double second = scorer.family_score(2, {3, 0});  // same set, reordered
  EXPECT_DOUBLE_EQ(first, second);
  EXPECT_EQ(scorer.families_evaluated(), 1u);
  EXPECT_EQ(scorer.cache_hits(), 1u);
}

TEST(FamilyScorer, TotalScoreDecomposes) {
  const Dataset data = generate_chain_correlated(20000, 4, 2, 0.8, 504);
  const PotentialTable table = build(data);
  ThreadPool pool(2);
  const FamilyScorer scorer(table, pool);
  Dag chain(4);
  chain.add_edge(0, 1);
  chain.add_edge(1, 2);
  chain.add_edge(2, 3);
  double manual = scorer.family_score(0, {});
  manual += scorer.family_score(1, {0});
  manual += scorer.family_score(2, {1});
  manual += scorer.family_score(3, {2});
  EXPECT_NEAR(scorer.total_score(chain), manual, 1e-9);
}

TEST(FamilyScorer, TrueStructureOutscoresAlternatives) {
  const BayesianNetwork truth = load_network(RepositoryNetwork::kCancer);
  const Dataset data = forward_sample(truth, 150000, 505, 4);
  const PotentialTable table = build(data);
  ThreadPool pool(4);
  const FamilyScorer scorer(table, pool);

  const double true_score = scorer.total_score(truth.dag());
  EXPECT_GT(true_score, scorer.total_score(Dag(5)));  // vs empty
  Dag wrong(5);  // a chain unrelated to the truth
  wrong.add_edge(0, 3);
  wrong.add_edge(3, 1);
  wrong.add_edge(1, 4);
  wrong.add_edge(4, 2);
  EXPECT_GT(true_score, scorer.total_score(wrong));
}

TEST(FamilyScorer, ValidatesArguments) {
  const Dataset data = generate_uniform(1000, 3, 2, 506);
  const PotentialTable table = build(data);
  const FamilyScorer scorer(table);
  EXPECT_THROW((void)scorer.family_score(0, {0}), PreconditionError);   // self
  EXPECT_THROW((void)scorer.family_score(0, {1, 1}), PreconditionError);
  EXPECT_THROW((void)scorer.family_score(9, {}), PreconditionError);
}

TEST(HillClimb, RecoversChainSkeleton) {
  const Dataset data = generate_chain_correlated(60000, 6, 2, 0.85, 507);
  const PotentialTable table = build(data);
  HillClimbOptions options;
  options.threads = 4;
  const HillClimbResult result = hill_climb(table, options);
  UndirectedGraph expected(6);
  for (NodeId v = 0; v + 1 < 6; ++v) expected.add_edge(v, v + 1);
  const SkeletonMetrics m = compare_skeletons(result.dag.skeleton(), expected);
  EXPECT_DOUBLE_EQ(m.f1, 1.0) << "precision=" << m.precision
                              << " recall=" << m.recall;
  EXPECT_GT(result.moves, 0u);

  // Scoring inline (threads = 1, no pool) reaches the same DAG with the
  // same score bits: family counts are exact whichever way they are swept.
  HillClimbOptions inline_options = options;
  inline_options.threads = 1;
  const HillClimbResult serial = hill_climb(table, inline_options);
  EXPECT_EQ(serial.dag.edges(), result.dag.edges());
  EXPECT_EQ(serial.score, result.score);
  EXPECT_EQ(serial.moves, result.moves);
  EXPECT_EQ(serial.families_evaluated, result.families_evaluated);
}

TEST(HillClimb, EmptyGraphOnIndependentData) {
  const Dataset data = generate_uniform(30000, 6, 2, 508);
  const PotentialTable table = build(data);
  const HillClimbResult result = hill_climb(table, HillClimbOptions{});
  EXPECT_EQ(result.dag.edge_count(), 0u);
  EXPECT_EQ(result.moves, 0u);
}

TEST(HillClimb, ScoreNeverDecreasesAndBeatsEmpty) {
  const BayesianNetwork truth = load_network(RepositoryNetwork::kSurvey);
  const Dataset data = forward_sample(truth, 80000, 509, 4);
  const PotentialTable table = build(data);
  HillClimbOptions options;
  options.threads = 4;
  const HillClimbResult result = hill_climb(table, options);
  ThreadPool pool(4);
  const FamilyScorer scorer(table, pool);
  EXPECT_GT(result.score, scorer.total_score(Dag(truth.node_count())));
  EXPECT_NEAR(result.score, scorer.total_score(result.dag), 1e-9);
}

TEST(HillClimb, SparseCandidatesPruneWithoutQualityLoss) {
  const BayesianNetwork truth = load_network(RepositoryNetwork::kCancer);
  const Dataset data = forward_sample(truth, 120000, 510, 4);

  HillClimbOptions unpruned;
  unpruned.threads = 4;
  const PotentialTable table = build(data);
  const HillClimbResult full = hill_climb(table, unpruned);

  HillClimbOptions pruned_options;
  pruned_options.threads = 4;
  const HillClimbResult pruned = hill_climb_sparse(data, 3, pruned_options);
  // One pool per call carries the build, the MI sweep and the scorer; the
  // serial call (no scorer pool) must land on the same DAG and score bits.
  pruned_options.threads = 1;
  const HillClimbResult pruned_serial =
      hill_climb_sparse(data, 3, pruned_options);
  EXPECT_EQ(pruned_serial.dag.edges(), pruned.dag.edges());
  EXPECT_EQ(pruned_serial.score, pruned.score);

  // Pruning evaluates fewer families but lands on an equally good skeleton.
  EXPECT_LE(pruned.families_evaluated, full.families_evaluated);
  const SkeletonMetrics m_full =
      compare_skeletons(full.dag.skeleton(), truth.dag().skeleton());
  const SkeletonMetrics m_pruned =
      compare_skeletons(pruned.dag.skeleton(), truth.dag().skeleton());
  EXPECT_GE(m_pruned.f1, m_full.f1 - 0.05);
  EXPECT_GE(m_pruned.f1, 0.8);
}

TEST(HillClimb, MaxParentsIsRespected) {
  // Star data: many variables copy variable 0.
  Dag star(5);
  for (NodeId v = 1; v < 5; ++v) star.add_edge(0, v);
  BayesianNetwork bn(std::move(star), std::vector<std::uint32_t>(5, 2));
  bn.randomize_cpts(511, 0.3);
  const Dataset data = forward_sample(bn, 50000, 512, 2);
  const PotentialTable table = build(data);
  HillClimbOptions options;
  options.threads = 2;
  options.max_parents = 1;
  const HillClimbResult result = hill_climb(table, options);
  for (NodeId v = 0; v < 5; ++v) {
    EXPECT_LE(result.dag.parents(v).size(), 1u);
  }
}

TEST(HillClimb, AgreesWithChengOnChain) {
  const Dataset data = generate_chain_correlated(60000, 5, 2, 0.8, 513);
  const PotentialTable table = build(data);
  const HillClimbResult hc = hill_climb(table, HillClimbOptions{});
  UndirectedGraph expected(5);
  for (NodeId v = 0; v + 1 < 5; ++v) expected.add_edge(v, v + 1);
  EXPECT_EQ(hc.dag.skeleton().edges(), expected.edges());
}

}  // namespace
}  // namespace wfbn
