// Tests for the probability-query engine over potential tables.
#include <gtest/gtest.h>

#include "bn/repository.hpp"
#include "bn/sampling.hpp"
#include "core/query.hpp"
#include "core/wait_free_builder.hpp"
#include "data/generators.hpp"
#include "util/error.hpp"

namespace wfbn {
namespace {

PotentialTable build(const Dataset& data, std::size_t threads = 4) {
  WaitFreeBuilderOptions options;
  options.threads = threads;
  WaitFreeBuilder builder(options);
  return builder.build(data);
}

/// Hand-built dataset over (X0: r=2, X1: r=2) with exact known counts.
Dataset tiny_dataset() {
  // Rows: (0,0)×4, (1,0)×2, (0,1)×1, (1,1)×3 → m = 10.
  std::vector<State> cells;
  auto push = [&](State a, State b, int times) {
    for (int i = 0; i < times; ++i) {
      cells.push_back(a);
      cells.push_back(b);
    }
  };
  push(0, 0, 4);
  push(1, 0, 2);
  push(0, 1, 1);
  push(1, 1, 3);
  return Dataset(10, {2, 2}, std::move(cells));
}

TEST(QueryEngine, MarginalMatchesHandCounts) {
  const PotentialTable table = build(tiny_dataset(), 2);
  ThreadPool pool(2);
  const QueryEngine engine(table, pool);
  const std::size_t v0[] = {0};
  const std::vector<double> p0 = engine.marginal(v0);
  EXPECT_NEAR(p0[0], 0.5, 1e-12);  // X0 = 0: 4 + 1 = 5 of 10
  EXPECT_NEAR(p0[1], 0.5, 1e-12);
  const std::size_t v1[] = {1};
  const std::vector<double> p1 = engine.marginal(v1);
  EXPECT_NEAR(p1[0], 0.6, 1e-12);  // X1 = 0: 4 + 2 = 6 of 10
  EXPECT_NEAR(p1[1], 0.4, 1e-12);
}

TEST(QueryEngine, JointMarginalLayout) {
  const PotentialTable table = build(tiny_dataset(), 2);
  const QueryEngine engine(table);
  const std::size_t vars[] = {0, 1};
  const std::vector<double> joint = engine.marginal(vars);
  ASSERT_EQ(joint.size(), 4u);
  EXPECT_NEAR(joint[0], 0.4, 1e-12);  // (0,0)
  EXPECT_NEAR(joint[1], 0.2, 1e-12);  // (1,0)
  EXPECT_NEAR(joint[2], 0.1, 1e-12);  // (0,1)
  EXPECT_NEAR(joint[3], 0.3, 1e-12);  // (1,1)
}

TEST(QueryEngine, ConditionalMatchesBayesRule) {
  const PotentialTable table = build(tiny_dataset(), 2);
  ThreadPool pool(2);
  const QueryEngine engine(table, pool);
  const std::size_t vars[] = {0};
  const Evidence e[] = {{1, 0}};  // X1 = 0
  const std::vector<double> p = engine.conditional(vars, e);
  // P(X0=0 | X1=0) = 4/6, P(X0=1 | X1=0) = 2/6.
  EXPECT_NEAR(p[0], 4.0 / 6.0, 1e-12);
  EXPECT_NEAR(p[1], 2.0 / 6.0, 1e-12);
}

TEST(QueryEngine, EvidenceProbability) {
  const PotentialTable table = build(tiny_dataset(), 2);
  ThreadPool pool(2);
  const QueryEngine engine(table, pool);
  const Evidence e1[] = {{1, 1}};
  EXPECT_NEAR(engine.evidence_probability(e1), 0.4, 1e-12);
  const Evidence e2[] = {{0, 1}, {1, 1}};
  EXPECT_NEAR(engine.evidence_probability(e2), 0.3, 1e-12);
}

TEST(QueryEngine, EvidenceProbabilityChecksTheFirstTermToo) {
  // The first term's state indexes the marginal of its variable: state 7 of
  // a binary variable is refused, not read past the two cells.
  const PotentialTable table = build(tiny_dataset(), 2);
  const QueryEngine engine(table);
  const Evidence first_out_of_range[] = {{0, 7}};
  EXPECT_THROW((void)engine.evidence_probability(first_out_of_range),
               PreconditionError);
  const Evidence first_var_out_of_range[] = {{9, 0}, {1, 1}};
  EXPECT_THROW((void)engine.evidence_probability(first_var_out_of_range),
               PreconditionError);
  const Evidence later_out_of_range[] = {{0, 1}, {1, 2}};
  EXPECT_THROW((void)engine.evidence_probability(later_out_of_range),
               PreconditionError);
}

TEST(QueryEngine, MostProbableState) {
  const PotentialTable table = build(tiny_dataset(), 2);
  ThreadPool pool(2);
  const QueryEngine engine(table, pool);
  const std::size_t vars[] = {0, 1};
  const QueryEngine::MapResult map = engine.most_probable(vars);
  EXPECT_EQ(map.states, (std::vector<State>{0, 0}));
  EXPECT_NEAR(map.probability, 0.4, 1e-12);
  const Evidence e[] = {{1, 1}};  // given X1 = 1, (1,1) dominates
  const std::size_t v0[] = {0};
  const QueryEngine::MapResult cond = engine.most_probable(v0, e);
  EXPECT_EQ(cond.states, (std::vector<State>{1}));
  EXPECT_NEAR(cond.probability, 0.75, 1e-12);
}

TEST(QueryEngine, BorrowedPoolAndInlinePathsMatchOwnedPool) {
  // The serving layer relies on every evaluation mode — inline, a
  // one-worker pool, and a pool narrower than the table's partitions —
  // producing bit-identical distributions.
  const Dataset data = generate_chain_correlated(5000, 8, 2, 0.8, 0x99);
  const PotentialTable table = build(data, 4);
  const QueryEngine inline_engine(table);
  ThreadPool one(1);
  const QueryEngine owned(table, one);
  ThreadPool pool(3);
  const QueryEngine borrowed(table, pool);

  const std::size_t vars[] = {0, 2};
  const Evidence e[] = {{1, 0}};
  EXPECT_EQ(inline_engine.marginal(vars), owned.marginal(vars));
  EXPECT_EQ(inline_engine.marginal(vars), borrowed.marginal(vars));
  EXPECT_EQ(inline_engine.conditional(vars, e), owned.conditional(vars, e));
  EXPECT_EQ(inline_engine.conditional(vars, e), borrowed.conditional(vars, e));
  // A borrowed pool is reusable across queries and engines.
  EXPECT_EQ(QueryEngine(table, pool).evidence_probability(e),
            inline_engine.evidence_probability(e));
}

TEST(QueryEngine, ZeroSupportEvidenceThrows) {
  // All rows have X0 ∈ {0,1}; evidence on an unobserved *combination*.
  std::vector<State> cells = {0, 0, 0, 0};  // two rows of (0,0)
  const Dataset data(2, {2, 2}, std::move(cells));
  const PotentialTable table = build(data, 1);
  const QueryEngine engine(table);
  const std::size_t vars[] = {0};
  const Evidence impossible[] = {{1, 1}};
  EXPECT_THROW((void)engine.conditional(vars, impossible), DataError);
  EXPECT_DOUBLE_EQ(engine.evidence_probability(impossible), 0.0);
}

TEST(QueryEngine, ValidatesArguments) {
  const PotentialTable table = build(tiny_dataset(), 2);
  ThreadPool pool(2);
  const QueryEngine engine(table, pool);
  const std::size_t vars[] = {0};
  const Evidence overlapping[] = {{0, 0}};
  EXPECT_THROW((void)engine.conditional(vars, overlapping), PreconditionError);
  const Evidence bad_var[] = {{7, 0}};
  EXPECT_THROW((void)engine.conditional(vars, bad_var), PreconditionError);
  const Evidence bad_state[] = {{1, 5}};
  EXPECT_THROW((void)engine.conditional(vars, bad_state), PreconditionError);
  const std::size_t duplicate[] = {0, 0};
  EXPECT_THROW((void)engine.marginal(duplicate), PreconditionError);
}

TEST(QueryEngine, ThreadCountDoesNotChangeAnswers) {
  const Dataset data = generate_chain_correlated(20000, 8, 2, 0.7, 121);
  const PotentialTable table = build(data);
  const std::size_t vars[] = {2, 5};
  const Evidence e[] = {{0, 1}, {7, 0}};
  const std::vector<double> p1 = QueryEngine(table).conditional(vars, e);
  ThreadPool pool(8);
  const std::vector<double> p8 = QueryEngine(table, pool).conditional(vars, e);
  ASSERT_EQ(p1.size(), p8.size());
  for (std::size_t c = 0; c < p1.size(); ++c) {
    EXPECT_DOUBLE_EQ(p1[c], p8[c]);
  }
}

TEST(QueryEngine, AgreesWithNetworkPosteriorOnAsia) {
  // Data-estimated P(dysp | smoke=yes) should be close to the analytic value
  // from the generating network (large-sample consistency).
  const BayesianNetwork asia = load_network(RepositoryNetwork::kAsia);
  const Dataset data = forward_sample(asia, 300000, 122, 4);
  const PotentialTable table = build(data);
  ThreadPool pool(4);
  const QueryEngine engine(table, pool);

  const NodeId S = asia.node_by_name("smoke");
  const NodeId D = asia.node_by_name("dysp");
  const std::size_t vars[] = {D};
  const Evidence smoke_yes[] = {{S, 0}};
  const std::vector<double> posterior = engine.conditional(vars, smoke_yes);

  // Analytic P(dysp = yes | smoke = yes) by brute-force enumeration.
  double joint_yes = 0.0;
  double evidence = 0.0;
  std::vector<State> states(8);
  for (std::uint32_t assignment = 0; assignment < 256; ++assignment) {
    for (std::size_t j = 0; j < 8; ++j) {
      states[j] = static_cast<State>((assignment >> j) & 1);
    }
    if (states[S] != 0) continue;
    const double p = asia.joint_probability(states);
    evidence += p;
    if (states[D] == 0) joint_yes += p;
  }
  EXPECT_NEAR(posterior[0], joint_yes / evidence, 0.01);
}

}  // namespace
}  // namespace wfbn
