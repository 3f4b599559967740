// Tests for d-separation (paper §II-A): the three canonical triplets, the
// textbook ASIA independencies, and consistency between graph-derived
// independence and data-estimated conditional MI.
#include <gtest/gtest.h>

#include "bn/d_separation.hpp"
#include "bn/repository.hpp"
#include "bn/sampling.hpp"
#include "core/marginalizer.hpp"
#include "core/info_theory.hpp"
#include "core/wait_free_builder.hpp"

namespace wfbn {
namespace {

TEST(DSeparation, ChainBlocksThroughObservedMiddle) {
  Dag chain(3);  // 0 → 1 → 2
  chain.add_edge(0, 1);
  chain.add_edge(1, 2);
  EXPECT_FALSE(d_separated(chain, 0, 2, {}));
  EXPECT_TRUE(d_separated(chain, 0, 2, {1}));
}

TEST(DSeparation, ForkBlocksThroughObservedCause) {
  Dag fork(3);  // 0 ← 1 → 2
  fork.add_edge(1, 0);
  fork.add_edge(1, 2);
  EXPECT_FALSE(d_separated(fork, 0, 2, {}));
  EXPECT_TRUE(d_separated(fork, 0, 2, {1}));
}

TEST(DSeparation, ColliderOpensWhenObserved) {
  Dag collider(3);  // 0 → 1 ← 2
  collider.add_edge(0, 1);
  collider.add_edge(2, 1);
  EXPECT_TRUE(d_separated(collider, 0, 2, {}));
  EXPECT_FALSE(d_separated(collider, 0, 2, {1}));
}

TEST(DSeparation, ColliderOpensThroughObservedDescendant) {
  Dag g(4);  // 0 → 1 ← 2, 1 → 3
  g.add_edge(0, 1);
  g.add_edge(2, 1);
  g.add_edge(1, 3);
  EXPECT_TRUE(d_separated(g, 0, 2, {}));
  EXPECT_FALSE(d_separated(g, 0, 2, {3}));  // descendant of the collider
}

TEST(DSeparation, LongerTrailCombinations) {
  // 0 → 1 → 2 ← 3 → 4
  Dag g(5);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(3, 2);
  g.add_edge(3, 4);
  EXPECT_TRUE(d_separated(g, 0, 4, {}));        // blocked at collider 2
  EXPECT_FALSE(d_separated(g, 0, 4, {2}));      // collider observed → open
  EXPECT_TRUE(d_separated(g, 0, 4, {2, 3}));    // re-blocked at fork 3
  EXPECT_TRUE(d_separated(g, 0, 4, {2, 1}));    // re-blocked at chain 1
}

TEST(DSeparation, SetArguments) {
  Dag g(5);
  g.add_edge(0, 2);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(2, 4);
  EXPECT_FALSE(d_separated(g, {0, 1}, {3, 4}, {}));
  EXPECT_TRUE(d_separated(g, {0, 1}, {3, 4}, {2}));
  EXPECT_TRUE(d_separated(g, {3}, {4}, {2}));
  EXPECT_FALSE(d_separated(g, {3}, {4}, {}));  // common cause 2 unobserved
}

TEST(DSeparation, ValidatesInputs) {
  Dag g(3);
  g.add_edge(0, 1);
  EXPECT_THROW((void)d_separated(g, {0}, {0}, {}), PreconditionError);  // X∩Y
  EXPECT_THROW((void)d_separated(g, {0}, {1}, {0}), PreconditionError); // X∩Z
  EXPECT_THROW(
      (void)d_separated(g, std::vector<NodeId>{}, std::vector<NodeId>{1}, {}),
      PreconditionError);
}

TEST(DSeparation, AsiaTextbookIndependencies) {
  const BayesianNetwork asia = load_network(RepositoryNetwork::kAsia);
  const Dag& g = asia.dag();
  const NodeId A = asia.node_by_name("asia");
  const NodeId T = asia.node_by_name("tub");
  const NodeId S = asia.node_by_name("smoke");
  const NodeId L = asia.node_by_name("lung");
  const NodeId B = asia.node_by_name("bronc");
  const NodeId E = asia.node_by_name("either");
  const NodeId X = asia.node_by_name("xray");
  const NodeId D = asia.node_by_name("dysp");

  EXPECT_TRUE(d_separated(g, A, S, {}));        // disconnected roots
  EXPECT_FALSE(d_separated(g, A, S, {E}));      // collider either opens
  EXPECT_TRUE(d_separated(g, X, D, {E, B}));    // xray ⟂ dysp | either, bronc
  EXPECT_FALSE(d_separated(g, X, D, {}));
  EXPECT_TRUE(d_separated(g, T, L, {}));        // tub ⟂ lung marginally
  EXPECT_FALSE(d_separated(g, T, L, {E}));      // explaining away
  EXPECT_TRUE(d_separated(g, S, X, {E}));       // smoke ⟂ xray | either
  EXPECT_FALSE(d_separated(g, S, X, {}));
  EXPECT_TRUE(d_separated(g, B, L, {S}));       // common cause observed
}

TEST(DSeparation, AgreesWithSampledConditionalMi) {
  // Graph independencies must show ≈0 conditional MI in forward-sampled data
  // and graph dependencies must show clearly positive CMI.
  const BayesianNetwork asia = load_network(RepositoryNetwork::kAsia);
  const Dataset data = forward_sample(asia, 200000, 404, 4);
  WaitFreeBuilderOptions options;
  options.threads = 4;
  WaitFreeBuilder builder(options);
  const PotentialTable table = builder.build(data);
  ThreadPool pool(4);

  const NodeId S = asia.node_by_name("smoke");
  const NodeId L = asia.node_by_name("lung");
  const NodeId B = asia.node_by_name("bronc");
  const NodeId D = asia.node_by_name("dysp");
  const NodeId E = asia.node_by_name("either");

  // bronc ⟂ lung | smoke (d-separated) → CMI ≈ 0.
  {
    const std::size_t vars[] = {B, L, S};
    const MarginalTable joint = marginalize(table, vars, {}, pool);
    EXPECT_LT(conditional_mutual_information(joint, B, L), 2e-4);
  }
  // dysp depends on bronc even given either (direct edge) → CMI ≫ 0.
  {
    const std::size_t vars[] = {D, B, E};
    const MarginalTable joint = marginalize(table, vars, {}, pool);
    EXPECT_GT(conditional_mutual_information(joint, D, B), 0.05);
  }
  // smoke ⟂ xray | either → CMI ≈ 0.
  {
    const NodeId X = asia.node_by_name("xray");
    const std::size_t vars[] = {S, X, E};
    const MarginalTable joint = marginalize(table, vars, {}, pool);
    EXPECT_LT(conditional_mutual_information(joint, S, X), 2e-4);
  }
}

}  // namespace
}  // namespace wfbn
