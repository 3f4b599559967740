// Tests for exact inference by variable elimination: factor algebra, VE
// against brute-force enumeration, and consistency with the data-driven
// QueryEngine on sampled data.
#include <gtest/gtest.h>

#include <cmath>

#include "bn/inference.hpp"
#include "bn/repository.hpp"
#include "bn/sampling.hpp"
#include "core/wait_free_builder.hpp"
#include "util/error.hpp"

namespace wfbn {
namespace {

// Brute-force posterior by enumerating every joint assignment.
std::vector<double> enumerate_posterior(const BayesianNetwork& bn,
                                        std::span<const std::size_t> query,
                                        std::span<const Evidence> evidence) {
  std::size_t query_cells = 1;
  for (const std::size_t q : query) query_cells *= bn.cardinality(q);
  std::vector<double> out(query_cells, 0.0);
  double normalizer = 0.0;

  std::vector<State> states(bn.node_count(), 0);
  for (;;) {
    bool consistent = true;
    for (const Evidence& e : evidence) {
      if (states[e.variable] != e.state) consistent = false;
    }
    if (consistent) {
      const double p = bn.joint_probability(states);
      normalizer += p;
      std::size_t cell = 0;
      std::size_t stride = 1;
      for (const std::size_t q : query) {
        cell += states[q] * stride;
        stride *= bn.cardinality(q);
      }
      out[cell] += p;
    }
    // Odometer over all joint assignments.
    std::size_t d = 0;
    while (d < bn.node_count()) {
      if (++states[d] < bn.cardinality(d)) break;
      states[d] = 0;
      ++d;
    }
    if (d == bn.node_count()) break;
  }
  for (double& v : out) v /= normalizer;
  return out;
}

// ------------------------------------------------------------------- factors

TEST(Factor, MultiplyDisjointScopesIsOuterProduct) {
  Factor a({0}, {2});
  a.set_value(0, 0.3);
  a.set_value(1, 0.7);
  Factor b({1}, {3});
  b.set_value(0, 0.2);
  b.set_value(1, 0.5);
  b.set_value(2, 0.3);
  const Factor product = a.multiply(b);
  EXPECT_EQ(product.cell_count(), 6u);
  // Layout: variables (0, 1), first fastest.
  EXPECT_NEAR(product.value_at(0), 0.3 * 0.2, 1e-12);
  EXPECT_NEAR(product.value_at(1), 0.7 * 0.2, 1e-12);
  EXPECT_NEAR(product.value_at(4), 0.3 * 0.3, 1e-12);
}

TEST(Factor, MultiplySharedVariableAlignsCells) {
  Factor a({0, 1}, {2, 2});
  for (std::size_t c = 0; c < 4; ++c) a.set_value(c, static_cast<double>(c + 1));
  Factor b({1}, {2});
  b.set_value(0, 10.0);
  b.set_value(1, 100.0);
  const Factor product = a.multiply(b);
  EXPECT_EQ(product.cell_count(), 4u);
  EXPECT_NEAR(product.value_at(0), 1 * 10.0, 1e-12);   // (0,0)
  EXPECT_NEAR(product.value_at(1), 2 * 10.0, 1e-12);   // (1,0)
  EXPECT_NEAR(product.value_at(2), 3 * 100.0, 1e-12);  // (0,1)
  EXPECT_NEAR(product.value_at(3), 4 * 100.0, 1e-12);  // (1,1)
}

TEST(Factor, SumOutCollapsesOneDimension) {
  Factor f({4, 9}, {2, 3});
  for (std::size_t c = 0; c < 6; ++c) f.set_value(c, static_cast<double>(c));
  const Factor summed = f.sum_out(4);
  ASSERT_EQ(summed.variables(), (std::vector<std::size_t>{9}));
  EXPECT_NEAR(summed.value_at(0), 0 + 1, 1e-12);
  EXPECT_NEAR(summed.value_at(1), 2 + 3, 1e-12);
  EXPECT_NEAR(summed.value_at(2), 4 + 5, 1e-12);
}

TEST(Factor, RestrictSelectsSlice) {
  Factor f({0, 1}, {2, 2});
  for (std::size_t c = 0; c < 4; ++c) f.set_value(c, static_cast<double>(c + 1));
  const Factor restricted = f.restrict_to(0, 1);
  ASSERT_EQ(restricted.variables(), (std::vector<std::size_t>{1}));
  EXPECT_NEAR(restricted.value_at(0), 2.0, 1e-12);  // (x0=1, x1=0)
  EXPECT_NEAR(restricted.value_at(1), 4.0, 1e-12);  // (x0=1, x1=1)
}

TEST(Factor, SumOutToScalar) {
  Factor f({3}, {4});
  for (std::size_t c = 0; c < 4; ++c) f.set_value(c, 0.25);
  const Factor scalar = f.sum_out(3);
  EXPECT_EQ(scalar.cell_count(), 1u);
  EXPECT_NEAR(scalar.value_at(0), 1.0, 1e-12);
}

TEST(Factor, UnknownVariableRejected) {
  Factor f({0}, {2});
  EXPECT_THROW((void)f.sum_out(5), PreconditionError);
  EXPECT_THROW((void)f.restrict_to(5, 0), PreconditionError);
}

// ------------------------------------------------------------------------ VE

class VeAgainstEnumeration : public ::testing::TestWithParam<RepositoryNetwork> {};

TEST_P(VeAgainstEnumeration, PosteriorsMatchBruteForce) {
  const BayesianNetwork bn = load_network(GetParam());
  // Evidence on the last node, query on the first — arbitrary but fixed.
  const std::size_t query[] = {0};
  const Evidence evidence[] = {{bn.node_count() - 1, 0}};
  const std::vector<double> ve = exact_posterior(bn, query, evidence);
  const std::vector<double> brute = enumerate_posterior(bn, query, evidence);
  ASSERT_EQ(ve.size(), brute.size());
  for (std::size_t c = 0; c < ve.size(); ++c) {
    EXPECT_NEAR(ve[c], brute[c], 1e-10);
  }
}

INSTANTIATE_TEST_SUITE_P(SmallNetworks, VeAgainstEnumeration,
                         ::testing::Values(RepositoryNetwork::kAsia,
                                           RepositoryNetwork::kCancer,
                                           RepositoryNetwork::kEarthquake,
                                           RepositoryNetwork::kSurvey,
                                           RepositoryNetwork::kSachs),
                         [](const auto& param_info) {
                           return repository_network_name(param_info.param);
                         });

TEST(VariableElimination, MultiVariableQueryMatchesEnumeration) {
  const BayesianNetwork asia = load_network(RepositoryNetwork::kAsia);
  const NodeId lung = asia.node_by_name("lung");
  const NodeId bronc = asia.node_by_name("bronc");
  const NodeId xray = asia.node_by_name("xray");
  const std::size_t query[] = {lung, bronc};
  const Evidence evidence[] = {{xray, 0}};
  const std::vector<double> ve = exact_posterior(asia, query, evidence);
  const std::vector<double> brute = enumerate_posterior(asia, query, evidence);
  ASSERT_EQ(ve.size(), 4u);
  for (std::size_t c = 0; c < 4; ++c) EXPECT_NEAR(ve[c], brute[c], 1e-10);
  // Posterior normalizes.
  EXPECT_NEAR(ve[0] + ve[1] + ve[2] + ve[3], 1.0, 1e-10);
}

TEST(VariableElimination, NoEvidenceGivesPriorMarginal) {
  const BayesianNetwork eq = load_network(RepositoryNetwork::kEarthquake);
  const std::size_t query[] = {eq.node_by_name("Alarm")};
  const std::vector<double> prior = exact_posterior(eq, query);
  const std::vector<double> brute = enumerate_posterior(eq, query, {});
  EXPECT_NEAR(prior[0], brute[0], 1e-12);
  EXPECT_NEAR(prior[0] + prior[1], 1.0, 1e-12);
}

TEST(VariableElimination, ScalesToAlarm) {
  // 37 nodes — enumeration is infeasible, VE with min-degree must be fast.
  const BayesianNetwork alarm = load_network(RepositoryNetwork::kAlarm);
  const std::size_t query[] = {alarm.node_by_name("BP")};
  const Evidence evidence[] = {{alarm.node_by_name("HRBP"), 0},
                               {alarm.node_by_name("FIO2"), 0}};
  const std::vector<double> posterior = exact_posterior(alarm, query, evidence);
  double total = 0.0;
  for (const double p : posterior) {
    EXPECT_GE(p, 0.0);
    total += p;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(VariableElimination, EvidenceProbabilityMatchesEnumeration) {
  const BayesianNetwork cancer = load_network(RepositoryNetwork::kCancer);
  const NodeId smoker = cancer.node_by_name("Smoker");
  const NodeId xray = cancer.node_by_name("Xray");
  const Evidence evidence[] = {{smoker, 0}, {xray, 0}};
  // Brute force P(smoker=yes, xray=pos).
  double expected = 0.0;
  std::vector<State> states(5, 0);
  for (int a = 0; a < 32; ++a) {
    for (std::size_t j = 0; j < 5; ++j) {
      states[j] = static_cast<State>((a >> j) & 1);
    }
    if (states[smoker] == 0 && states[xray] == 0) {
      expected += cancer.joint_probability(states);
    }
  }
  EXPECT_NEAR(exact_evidence_probability(cancer, evidence), expected, 1e-12);
}

TEST(VariableElimination, ImpossibleEvidenceThrows) {
  // ASIA's "either" is a deterministic OR; either=no with lung=yes is
  // impossible.
  const BayesianNetwork asia = load_network(RepositoryNetwork::kAsia);
  const std::size_t query[] = {asia.node_by_name("xray")};
  const Evidence impossible[] = {{asia.node_by_name("lung"), 0},
                                 {asia.node_by_name("either"), 1}};
  EXPECT_THROW((void)exact_posterior(asia, query, impossible), DataError);
}

TEST(VariableElimination, ValidatesArguments) {
  const BayesianNetwork asia = load_network(RepositoryNetwork::kAsia);
  const std::size_t query[] = {0};
  const Evidence on_query[] = {{0, 0}};
  EXPECT_THROW((void)exact_posterior(asia, query, on_query), PreconditionError);
  const std::size_t duplicate[] = {1, 1};
  EXPECT_THROW((void)exact_posterior(asia, duplicate), PreconditionError);
  EXPECT_THROW((void)exact_posterior(asia, {}), PreconditionError);
}

TEST(VariableElimination, AgreesWithDataEstimates) {
  // The end-to-end consistency triangle: network → samples → potential table
  // → QueryEngine estimate ≈ exact VE posterior.
  const BayesianNetwork asia = load_network(RepositoryNetwork::kAsia);
  const Dataset data = forward_sample(asia, 250000, 401, 4);
  WaitFreeBuilderOptions options;
  options.threads = 4;
  WaitFreeBuilder builder(options);
  const PotentialTable table = builder.build(data);
  ThreadPool pool(4);
  const QueryEngine engine(table, pool);

  const NodeId lung = asia.node_by_name("lung");
  const NodeId smoke = asia.node_by_name("smoke");
  const NodeId xray = asia.node_by_name("xray");
  const std::size_t query[] = {lung};
  const Evidence evidence[] = {{smoke, 0}, {xray, 0}};
  const std::vector<double> estimated = engine.conditional(query, evidence);
  const std::vector<double> exact = exact_posterior(asia, query, evidence);
  EXPECT_NEAR(estimated[0], exact[0], 0.02);
  EXPECT_NEAR(estimated[1], exact[1], 0.02);
}

}  // namespace
}  // namespace wfbn
