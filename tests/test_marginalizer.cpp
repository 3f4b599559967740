// Correctness tests for the marginalization kernel (Algorithm 3): the inline
// sweep and the pool sweep must both equal a brute-force count over the raw
// dataset rows — for every pool width, table partitioning, evidence filter,
// variable subset and key width.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "bn/repository.hpp"
#include "bn/sampling.hpp"
#include "core/marginalizer.hpp"
#include "core/wait_free_builder.hpp"
#include "data/generators.hpp"
#include "util/error.hpp"
#include "util/simd.hpp"

namespace wfbn {
namespace {

PotentialTable build_table(const Dataset& data, std::size_t threads = 4) {
  WaitFreeBuilderOptions options;
  options.threads = threads;
  WaitFreeBuilder builder(options);
  return builder.build(data);
}

/// Row counts of `vars` over the rows of `data` matching every evidence
/// term — an oracle that never touches a potential table.
MarginalTable brute_force(const Dataset& data,
                          std::span<const std::size_t> vars,
                          std::span<const Evidence> evidence = {}) {
  std::vector<std::uint32_t> cards;
  for (const std::size_t v : vars) cards.push_back(data.cardinalities()[v]);
  MarginalTable out(std::vector<std::size_t>(vars.begin(), vars.end()), cards);
  std::vector<State> sub(vars.size());
  for (std::size_t i = 0; i < data.sample_count(); ++i) {
    const auto row = data.row(i);
    const bool match = std::all_of(
        evidence.begin(), evidence.end(),
        [&](const Evidence& e) { return row[e.variable] == e.state; });
    if (!match) continue;
    for (std::size_t k = 0; k < vars.size(); ++k) sub[k] = row[vars[k]];
    out.add(out.index_of(sub), 1);
  }
  return out;
}

void expect_same(const MarginalTable& a, const MarginalTable& b) {
  ASSERT_EQ(a.cell_count(), b.cell_count());
  ASSERT_EQ(a.variables(), b.variables());
  for (std::uint64_t cell = 0; cell < a.cell_count(); ++cell) {
    EXPECT_EQ(a.count_at(cell), b.count_at(cell)) << "cell " << cell;
  }
}

TEST(Marginalizer, SingleVariableMatchesBruteForce) {
  const Dataset data = generate_uniform(15000, 8, 3, 21);
  const PotentialTable table = build_table(data);
  ThreadPool pool(4);
  for (std::size_t v = 0; v < 8; ++v) {
    const std::size_t vars[] = {v};
    expect_same(marginalize(table, vars, {}, pool), brute_force(data, vars));
  }
}

TEST(Marginalizer, PairMatchesBruteForce) {
  const Dataset data = generate_chain_correlated(20000, 10, 2, 0.8, 22);
  const PotentialTable table = build_table(data);
  ThreadPool pool(3);
  const std::size_t pairs[][2] = {{0, 1}, {3, 7}, {9, 0}, {5, 4}};
  for (const auto& p : pairs) {
    const std::size_t vars[] = {p[0], p[1]};
    expect_same(marginalize(table, vars, {}, pool), brute_force(data, vars));
  }
}

TEST(Marginalizer, TripleWithMixedCardinalities) {
  const Dataset data =
      generate_uniform(12000, std::vector<std::uint32_t>{2, 4, 3, 5, 2}, 23);
  const PotentialTable table = build_table(data, 5);
  ThreadPool pool(2);
  const std::size_t vars[] = {4, 1, 2};
  expect_same(marginalize(table, vars, {}, pool), brute_force(data, vars));
}

class MarginalizerThreads : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MarginalizerThreads, ParallelEqualsSequentialForAnyThreadCount) {
  const std::size_t threads = GetParam();
  const Dataset data = generate_uniform(25000, 12, 2, 24);
  const PotentialTable table = build_table(data, 8);
  ThreadPool pool(threads);
  const std::size_t vars[] = {2, 9, 11};
  const MarginalTable parallel = marginalize(table, vars, {}, pool);
  expect_same(parallel, marginalize(table, vars));
  // Every table entry was swept exactly once across the workers.
  EXPECT_EQ(parallel.total(), table.sample_count());
}

INSTANTIATE_TEST_SUITE_P(ThreadSweep, MarginalizerThreads,
                         ::testing::Values(1, 2, 3, 4, 8, 16, 32),
                         [](const auto& param_info) {
                           return std::to_string(param_info.param) + "threads";
                         });

TEST(Marginalizer, WorksAfterRebalance) {
  const Dataset data = generate_skewed(20000, 12, 2, 1e-4, 0.9, 25);
  PotentialTable table = build_table(data, 8);
  const std::size_t vars[] = {0, 5};
  ThreadPool pool(8);
  const MarginalTable before = marginalize(table, vars, {}, pool);
  // Rebalancing may break construction-time ownership, which marginalization
  // does not rely on (paper §IV-C).
  table.rebalance();
  const MarginalTable after = marginalize(table, vars, {}, pool);
  expect_same(before, after);
}

TEST(Marginalizer, FullJointRecoversAllCounts) {
  const Dataset data = generate_uniform(5000, 4, 3, 26);
  const PotentialTable table = build_table(data);
  const std::size_t vars[] = {0, 1, 2, 3};
  ThreadPool pool(4);
  const MarginalTable joint = marginalize(table, vars, {}, pool);
  EXPECT_EQ(joint.total(), 5000u);
  std::vector<State> states(4);
  table.partitions().for_each([&](Key key, std::uint64_t c) {
    table.codec().decode_all(key, states);
    EXPECT_EQ(joint.count_of(states), c);
  });
}

TEST(Marginalizer, MarginalTotalsAlwaysEqualSampleCount) {
  const Dataset data = generate_chain_correlated(8000, 6, 3, 0.5, 27);
  const PotentialTable table = build_table(data);
  ThreadPool pool(2);
  for (std::size_t v = 0; v < 6; ++v) {
    const std::size_t vars[] = {v};
    EXPECT_EQ(marginalize(table, vars, {}, pool).total(), 8000u);
  }
}

TEST(Marginalizer, InvalidArgumentsRejected) {
  const Dataset data = generate_uniform(100, 4, 2, 28);
  const PotentialTable table = build_table(data, 2);
  ThreadPool pool(2);
  EXPECT_THROW((void)marginalize(table, {}, {}, pool), PreconditionError);
  const std::size_t out_of_range[] = {9};
  EXPECT_THROW((void)marginalize(table, out_of_range, {}, pool),
               PreconditionError);
  const std::size_t duplicate[] = {1, 1};
  EXPECT_THROW((void)marginalize(table, duplicate), PreconditionError);
  const std::size_t vars[] = {0};
  const Evidence on_query_var[] = {{0, 1}};
  EXPECT_THROW((void)marginalize(table, vars, on_query_var), PreconditionError);
  const Evidence bad_variable[] = {{9, 0}};
  EXPECT_THROW((void)marginalize(table, vars, bad_variable, pool),
               PreconditionError);
  const Evidence bad_state[] = {{2, 2}};
  EXPECT_THROW((void)marginalize(table, vars, bad_state), PreconditionError);
}

// ---------------------------------------------------------------------------
// The one-kernel sweep: key width × {inline, pool 1, 2, 3, 8} × table
// partitions {1, P} × evidence {none, 1 term, 2 terms} × subsets {single,
// pair, full joint, reversed order}, every result against brute_force().

/// A dataset and the evidence terms to filter it by. The narrow key sees a
/// mixed-cardinality set small enough for a full joint; the wide key also
/// sees 70 binary variables, which spill into the second key word.
struct SweepData {
  Dataset data;
  std::vector<Evidence> evidence;  ///< the 2-term filter; prefixes are used
};

template <typename K>
std::vector<SweepData> sweep_datasets() {
  std::vector<SweepData> out;
  out.push_back(SweepData{
      generate_uniform(3000, std::vector<std::uint32_t>{2, 3, 4, 2, 5, 3}, 31),
      {{1, 2}, {3, 0}}});
  if constexpr (std::is_same_v<K, WideKey>) {
    out.push_back(SweepData{generate_chain_correlated(3000, 70, 2, 0.8, 32),
                            {{66, 1}, {2, 0}}});
  }
  return out;
}

/// The subsets of the variables not under evidence: single, pair (first and
/// last, so the wide set spans both words), full joint (when dense enough)
/// and three variables in reversed order.
std::vector<std::vector<std::size_t>> sweep_subsets(
    const Dataset& data, std::span<const Evidence> evidence) {
  std::vector<std::size_t> free;
  for (std::size_t v = 0; v < data.variable_count(); ++v) {
    const bool observed =
        std::any_of(evidence.begin(), evidence.end(),
                    [&](const Evidence& e) { return e.variable == v; });
    if (!observed) free.push_back(v);
  }
  std::vector<std::vector<std::size_t>> out;
  out.push_back({free.back()});
  out.push_back({free.front(), free.back()});
  std::uint64_t cells = 1;
  for (const std::size_t v : free) {
    if (cells <= (1u << 20)) cells *= data.cardinalities()[v];
  }
  if (cells <= (1u << 20)) out.push_back(free);
  out.push_back({free.back(), free[free.size() / 2], free.front()});
  return out;
}

template <typename K>
class KernelSweep : public ::testing::Test {};

using KeyWidths = ::testing::Types<Key, WideKey>;
TYPED_TEST_SUITE(KernelSweep, KeyWidths);

TYPED_TEST(KernelSweep, InlineAndPoolSweepsMatchBruteForceRowCounts) {
  using K = TypeParam;
  constexpr std::size_t kInline = 0;
  const std::size_t modes[] = {kInline, 1, 2, 3, 8};
  std::map<std::size_t, std::unique_ptr<ThreadPool>> pools;
  for (const std::size_t w : modes) {
    if (w != kInline) pools[w] = std::make_unique<ThreadPool>(w);
  }

  for (const SweepData& set : sweep_datasets<K>()) {
    // Tables built with 1, 2, 3 and 8 partitions.
    std::map<std::size_t, BasicPotentialTable<K>> tables;
    for (const std::size_t parts : {1u, 2u, 3u, 8u}) {
      WaitFreeBuilderOptions options;
      options.threads = parts;
      tables.emplace(parts, BasicWaitFreeBuilder<K>(options).build(set.data));
    }
    std::size_t checked = 0;
    for (const std::size_t mode : modes) {
      const std::size_t wide_parts = mode == kInline || mode == 1 ? 8 : mode;
      for (const std::size_t parts : {std::size_t{1}, wide_parts}) {
        const BasicPotentialTable<K>& table = tables.at(parts);
        for (std::size_t terms = 0; terms <= 2; ++terms) {
          const std::span<const Evidence> evidence(set.evidence.data(), terms);
          for (const auto& vars : sweep_subsets(set.data, evidence)) {
            SCOPED_TRACE("n=" + std::to_string(set.data.variable_count()) +
                         " mode=" + std::to_string(mode) +
                         " parts=" + std::to_string(parts) +
                         " terms=" + std::to_string(terms) +
                         " |V|=" + std::to_string(vars.size()));
            const MarginalTable swept =
                mode == kInline
                    ? marginalize(table, vars, evidence)
                    : marginalize(table, vars, evidence, *pools.at(mode));
            expect_same(swept, brute_force(set.data, vars, evidence));
            ++checked;
          }
        }
      }
    }
    EXPECT_GE(checked, 5u * 2u * 3u * 3u);
  }
}

// ---------------------------------------------------------------------------
// The frozen view's two read paths: key width × r ∈ {2, 3, 8} (and the wide
// 70-variable case) × both simd levels × {inline, pool 1, 2, 8} × evidence
// {none, 1 term, 2 terms, a last-state term}, each path forced and the cost
// rule's own pick, every result against brute_force().

template <typename K>
std::vector<SweepData> frozen_datasets() {
  std::vector<SweepData> out;
  for (const std::uint32_t r : {2u, 3u, 8u}) {
    Dataset data = generate_chain_correlated(4000, 6, r, 0.7, 40 + r);
    // Terms on variables 1 and 4; the second observes the last state.
    out.push_back(SweepData{std::move(data),
                            {{1, 0}, {4, static_cast<State>(r - 1)}}});
  }
  if constexpr (std::is_same_v<K, WideKey>) {
    out.push_back(SweepData{generate_chain_correlated(3000, 70, 2, 0.8, 44),
                            {{66, 1}, {2, 0}}});
  }
  return out;
}

template <typename K>
class FrozenSweep : public ::testing::Test {};
TYPED_TEST_SUITE(FrozenSweep, KeyWidths);

TYPED_TEST(FrozenSweep, BothPathsAndTheRuleMatchBruteForceRowCounts) {
  using K = TypeParam;
  constexpr std::size_t kInline = 0;
  const std::size_t modes[] = {kInline, 1, 2, 8};
  std::map<std::size_t, std::unique_ptr<ThreadPool>> pools;
  for (const std::size_t w : modes) {
    if (w != kInline) pools[w] = std::make_unique<ThreadPool>(w);
  }
  std::map<MarginalPath, std::size_t> ruled;
  std::size_t checked = 0;
  for (const SweepData& set : frozen_datasets<K>()) {
    WaitFreeBuilderOptions options;
    options.threads = 3;
    const BasicPotentialTable<K> table =
        BasicWaitFreeBuilder<K>(options).build(set.data);
    ASSERT_TRUE(table.validate());
    // Evidence: none, the first term, both terms, the last-state term alone.
    std::vector<std::vector<Evidence>> filters = {
        {}, {set.evidence[0]}, set.evidence, {set.evidence[1]}};
    for (const simd::Level cap : {simd::detected(), simd::Level::kScalar}) {
      const simd::ScopedForceLevel force(cap);
      for (const std::vector<Evidence>& evidence : filters) {
        for (const auto& vars : sweep_subsets(set.data, evidence)) {
          SCOPED_TRACE("n=" + std::to_string(set.data.variable_count()) +
                       " r=" + std::to_string(set.data.cardinalities()[0]) +
                       " simd=" + simd::level_name(cap) +
                       " terms=" + std::to_string(evidence.size()) +
                       " |V|=" + std::to_string(vars.size()));
          const MarginalTable expected = brute_force(set.data, vars, evidence);
          for (const MarginalPath path :
               {MarginalPath::kPopcount, MarginalPath::kProjector}) {
            expect_same(detail::marginalize_on(path, table, vars, evidence),
                        expected);
          }
          ++ruled[marginal_path(table, vars, evidence)];
          for (const std::size_t mode : modes) {
            expect_same(mode == kInline
                            ? marginalize(table, vars, evidence)
                            : marginalize(table, vars, evidence,
                                          *pools.at(mode)),
                        expected);
            ++checked;
          }
        }
      }
    }
  }
  EXPECT_GE(checked, 3u * 2u * 4u * 3u * 4u);
  // The rule itself took both paths somewhere in the sweep.
  EXPECT_GT(ruled[MarginalPath::kPopcount], 0u);
  EXPECT_GT(ruled[MarginalPath::kProjector], 0u);
}

TEST(MarginalCostRule, AlarmSizedMarginalTakesTheProjectorPath) {
  // ALARM's largest CI marginal spans 27,648 cells (five 4-state and three
  // 3-state variables); its 1-2 variable marginals are tiny.
  const BayesianNetwork alarm = load_network(RepositoryNetwork::kAlarm);
  const Dataset data = forward_sample(alarm, std::size_t{1} << 16, 45);
  const PotentialTable table = build_table(data, 2);
  std::vector<std::size_t> vars;
  std::size_t fours = 0;
  std::size_t threes = 0;
  for (std::size_t v = 0; v < data.variable_count(); ++v) {
    const std::uint32_t r = data.cardinalities()[v];
    if (r == 4 && fours < 5) {
      vars.push_back(v);
      ++fours;
    } else if (r == 3 && threes < 3) {
      vars.push_back(v);
      ++threes;
    }
  }
  ASSERT_EQ(vars.size(), 8u);
  const MarginalTable wide = marginalize(table, vars);
  ASSERT_EQ(wide.cell_count(), 27648u);
  EXPECT_EQ(marginal_path(table, vars), MarginalPath::kProjector);
  expect_same(wide, brute_force(data, vars));

  const std::size_t one[] = {vars[0]};
  const std::size_t two[] = {vars[0], vars[5]};
  EXPECT_EQ(marginal_path(table, one), MarginalPath::kPopcount);
  EXPECT_EQ(marginal_path(table, two), MarginalPath::kPopcount);
  expect_same(marginalize(table, two), brute_force(data, two));
}

TEST(FrozenView, AppendShadowAndRebalanceRefreezeTheTable) {
  // After every way a table changes, its view equals a fresh freeze of its
  // partitions (validate() checks it) and its marginals match the rows.
  const Dataset base = generate_skewed(6000, 10, 3, 1e-3, 0.8, 46);
  const Dataset batch = generate_skewed(2500, 10, 3, 1e-3, 0.8, 47);
  std::vector<State> rows(base.raw().begin(), base.raw().end());
  rows.insert(rows.end(), batch.raw().begin(), batch.raw().end());
  const Dataset both(base.sample_count() + batch.sample_count(),
                     base.cardinalities(), std::move(rows));
  const std::size_t vars[] = {2, 7};
  const Evidence evidence[] = {{5, 2}};

  WaitFreeBuilderOptions options;
  options.threads = 4;
  WaitFreeBuilder builder(options);
  PotentialTable table = builder.build(base);
  const PotentialTable shadow = builder.append_shadow(batch, table);
  ASSERT_TRUE(shadow.validate());
  EXPECT_EQ(shadow.frozen(), *FrozenTable::freeze<Key>(
                                 shadow.codec(), shadow.partitions(), nullptr));
  expect_same(marginalize(shadow, vars, evidence),
              brute_force(both, vars, evidence));
  // The base still serves its own view.
  ASSERT_TRUE(table.validate());
  expect_same(marginalize(table, vars), brute_force(base, vars));

  builder.append(batch, table);
  ASSERT_TRUE(table.validate());
  expect_same(marginalize(table, vars, evidence),
              brute_force(both, vars, evidence));

  table.rebalance();
  ASSERT_TRUE(table.validate());
  expect_same(marginalize(table, vars, evidence),
              brute_force(both, vars, evidence));
}

}  // namespace
}  // namespace wfbn
