// Tests for the all-pairs MI pass (Algorithm 4): both scheduling strategies
// must agree with each other bit for bit and with per-pair reference
// computation, for every thread count.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>

#include "core/all_pairs_mi.hpp"
#include "core/info_theory.hpp"
#include "core/marginalizer.hpp"
#include "core/wait_free_builder.hpp"
#include "data/generators.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace wfbn {
namespace {

PotentialTable build_table(const Dataset& data) {
  WaitFreeBuilderOptions options;
  options.threads = 4;
  WaitFreeBuilder builder(options);
  return builder.build(data);
}

/// Reference MI through info_theory's mutual_information, at any key width.
template <typename K>
MiMatrix reference_mi(const BasicPotentialTable<K>& table) {
  const std::size_t n = table.codec().variable_count();
  MiMatrix out(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const std::size_t vars[] = {i, j};
      out.set(i, j, mutual_information(marginalize(table, vars)));
    }
  }
  return out;
}

void expect_same(const MiMatrix& a, const MiMatrix& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t j = 0; j < a.size(); ++j) {
      EXPECT_NEAR(a.at(i, j), b.at(i, j), 1e-10) << i << "," << j;
    }
  }
}

struct MiConfig {
  AllPairsStrategy strategy;
  std::size_t threads;
};

class AllPairsStrategies : public ::testing::TestWithParam<MiConfig> {};

TEST_P(AllPairsStrategies, MatchesSequentialReference) {
  const auto [strategy, threads] = GetParam();
  const Dataset data = generate_chain_correlated(15000, 9, 2, 0.7, 31);
  const PotentialTable table = build_table(data);
  AllPairsMi all_pairs(AllPairsOptions{threads, strategy});
  expect_same(all_pairs.compute(table), reference_mi(table));
  EXPECT_EQ(all_pairs.stats().pair_count, 9u * 8 / 2);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AllPairsStrategies,
    ::testing::Values(MiConfig{AllPairsStrategy::kPairParallel, 1},
                      MiConfig{AllPairsStrategy::kPairParallel, 4},
                      MiConfig{AllPairsStrategy::kPairParallel, 16},
                      MiConfig{AllPairsStrategy::kFused, 1},
                      MiConfig{AllPairsStrategy::kFused, 4},
                      MiConfig{AllPairsStrategy::kFused, 16}),
    [](const auto& param_info) {
      const char* name =
          param_info.param.strategy == AllPairsStrategy::kPairParallel
              ? "pair"
              : "fused";
      return std::string(name) + "_" + std::to_string(param_info.param.threads) +
             "threads";
    });

TEST(AllPairsMi, MixedCardinalitiesAgreeAcrossStrategies) {
  const Dataset data =
      generate_uniform(10000, std::vector<std::uint32_t>{2, 3, 4, 2, 5}, 32);
  const PotentialTable table = build_table(data);
  const MiMatrix pair =
      AllPairsMi(AllPairsOptions{3, AllPairsStrategy::kPairParallel})
          .compute(table);
  const MiMatrix fused =
      AllPairsMi(AllPairsOptions{3, AllPairsStrategy::kFused}).compute(table);
  expect_same(pair, fused);
}

TEST(AllPairsMi, IndependentDataHasNearZeroMiEverywhere) {
  const Dataset data = generate_uniform(50000, 8, 2, 33);
  const PotentialTable table = build_table(data);
  const MiMatrix mi =
      AllPairsMi(AllPairsOptions{4, AllPairsStrategy::kFused}).compute(table);
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t j = i + 1; j < 8; ++j) {
      // Finite-sample MI bias is ~(r-1)^2/(2m) ≈ 1e-5 here.
      EXPECT_LT(mi.at(i, j), 5e-4);
    }
  }
}

TEST(AllPairsMi, ChainDataOrdersPairsByDistance) {
  const Dataset data = generate_chain_correlated(40000, 6, 2, 0.9, 34);
  const PotentialTable table = build_table(data);
  const MiMatrix mi =
      AllPairsMi(AllPairsOptions{2, AllPairsStrategy::kFused}).compute(table);
  for (std::size_t i = 0; i + 2 < 6; ++i) {
    EXPECT_GT(mi.at(i, i + 1), mi.at(i, i + 2));
  }
}

TEST(AllPairsMi, MatrixIsSymmetricWithZeroDiagonal) {
  const Dataset data = generate_uniform(5000, 5, 3, 35);
  const PotentialTable table = build_table(data);
  const MiMatrix mi =
      AllPairsMi(AllPairsOptions{2, AllPairsStrategy::kPairParallel})
          .compute(table);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(mi.at(i, i), 0.0);
    for (std::size_t j = 0; j < 5; ++j) {
      EXPECT_DOUBLE_EQ(mi.at(i, j), mi.at(j, i));
    }
  }
}

TEST(MiMatrix, PairsAboveSortsDescendingAndFilters) {
  MiMatrix mi(4);
  mi.set(0, 1, 0.5);
  mi.set(0, 2, 0.1);
  mi.set(1, 3, 0.9);
  mi.set(2, 3, 0.005);
  const auto pairs = mi.pairs_above(0.01);
  ASSERT_EQ(pairs.size(), 3u);
  EXPECT_EQ(pairs[0].i, 1u);
  EXPECT_EQ(pairs[0].j, 3u);
  EXPECT_EQ(pairs[1].i, 0u);
  EXPECT_EQ(pairs[1].j, 1u);
  EXPECT_EQ(pairs[2].i, 0u);
  EXPECT_EQ(pairs[2].j, 2u);
}

TEST(AllPairsMi, StatsTrackWorkerActivity) {
  const Dataset data = generate_uniform(8000, 6, 2, 36);
  const PotentialTable table = build_table(data);
  AllPairsMi all_pairs(AllPairsOptions{4, AllPairsStrategy::kFused});
  (void)all_pairs.compute(table);
  const AllPairsStats& stats = all_pairs.stats();
  EXPECT_GT(stats.total_seconds, 0.0);
  ASSERT_EQ(stats.worker_entries_visited.size(), 4u);
  std::uint64_t visited = 0;
  for (const std::uint64_t v : stats.worker_entries_visited) visited += v;
  EXPECT_EQ(visited, table.distinct_keys());
}

TEST(AllPairsMi, RejectsDegenerateInputs) {
  const Dataset data = generate_uniform(100, 1, 2, 37);
  const PotentialTable table = build_table(data);
  AllPairsMi all_pairs;
  EXPECT_THROW((void)all_pairs.compute(table), PreconditionError);
  EXPECT_THROW(AllPairsMi(AllPairsOptions{0, AllPairsStrategy::kFused}),
               PreconditionError);
}

// ---- Gram oracle: the fused (bit-sliced Gram) kernel against pair-parallel

/// Random keys over `cards` with counts that are mostly small, some with
/// bits far above the low plane (2^40 + 3), spread over `partitions`
/// hashtables by the table's own ownership function.
template <typename K>
BasicPotentialTable<K> random_table(const std::vector<std::uint32_t>& cards,
                                    std::size_t rows, std::size_t partitions,
                                    std::uint64_t seed) {
  using Traits = KeyTraits<K>;
  typename Traits::Codec codec = Traits::make_codec(cards);
  BasicPartitionedTable<K> parts(partitions, Traits::state_space_bound(codec));
  Xoshiro256 rng(seed);
  std::vector<State> states(cards.size());
  std::uint64_t samples = 0;
  for (std::size_t row = 0; row < rows; ++row) {
    for (std::size_t v = 0; v < cards.size(); ++v) {
      states[v] = static_cast<State>(rng() % cards[v]);
    }
    const K key = codec.encode(states);
    const std::uint64_t pick = rng() % 16;
    const std::uint64_t count =
        pick == 0 ? (1ULL << 40) + 3 : (pick < 4 ? 1 + rng() % 300 : 1);
    parts.partition(parts.owner_of(key)).increment(key, count);
    samples += count;
  }
  return BasicPotentialTable<K>(std::move(codec), std::move(parts), samples);
}

void expect_bit_identical(const MiMatrix& a, const MiMatrix& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t j = 0; j < a.size(); ++j) {
      const double x = a.at(i, j);
      const double y = b.at(i, j);
      EXPECT_EQ(std::memcmp(&x, &y, sizeof x), 0)
          << i << "," << j << ": " << x << " vs " << y;
    }
  }
}

struct GramCase {
  const char* name;
  std::vector<std::uint32_t> cards;
  std::size_t rows;
};

template <typename K>
void run_gram_oracle(const std::vector<GramCase>& cases) {
  for (const GramCase& gram_case : cases) {
    for (const std::size_t pool_size : {std::size_t{1}, std::size_t{2},
                                         std::size_t{3}, std::size_t{8}}) {
      std::vector<std::size_t> partition_counts = {1};
      if (pool_size > 1) partition_counts.push_back(pool_size);
      for (const std::size_t parts : partition_counts) {
        const BasicPotentialTable<K> table =
            random_table<K>(gram_case.cards, gram_case.rows, parts,
                            1000 + pool_size * 10 + parts);
        ThreadPool pool(pool_size);
        const MiMatrix pair =
            BasicAllPairsMi<K>(
                AllPairsOptions{pool_size, AllPairsStrategy::kPairParallel})
                .compute(table, pool);
        const MiMatrix reference = reference_mi(table);
        for (const simd::Level cap : {simd::detected(), simd::Level::kScalar}) {
          SCOPED_TRACE(::testing::Message()
                       << gram_case.name << " pool=" << pool_size
                       << " parts=" << parts
                       << " simd=" << simd::level_name(cap));
          const simd::ScopedForceLevel force(cap);
          BasicAllPairsMi<K> fused(
              AllPairsOptions{pool_size, AllPairsStrategy::kFused});
          const MiMatrix got = fused.compute(table, pool);
          expect_bit_identical(got, pair);
          expect_same(got, reference);
          const std::vector<std::uint64_t>& visited =
              fused.stats().worker_entries_visited;
          EXPECT_EQ(std::accumulate(visited.begin(), visited.end(),
                                    std::uint64_t{0}),
                    table.distinct_keys());
        }
      }
    }
  }
}

std::vector<GramCase> shared_gram_cases() {
  return {
      // 1000 rows: distinct-key counts that are not multiples of 64.
      GramCase{"all2", std::vector<std::uint32_t>(9, 2), 1000},
      GramCase{"mixed1to8", {1, 8, 3, 1, 5, 2, 7, 4, 6, 2}, 1000},
      GramCase{"n2", {3, 5}, 45},
      // A handful of keys over 8 partitions leaves partitions empty.
      GramCase{"sparse", {4, 4, 4}, 5},
      // More occupied slots than one work item holds.
      GramCase{"many_items", std::vector<std::uint32_t>(16, 2), 40000},
  };
}

TEST(GramOracle, NarrowFusedIsBitIdenticalToPairParallel) {
  run_gram_oracle<Key>(shared_gram_cases());
}

TEST(GramOracle, WideFusedIsBitIdenticalToPairParallel) {
  std::vector<GramCase> cases = shared_gram_cases();
  std::vector<std::uint32_t> wide_cards;
  for (std::uint32_t v = 0; v < 100; ++v) wide_cards.push_back(1 + v % 3);
  cases.push_back(GramCase{"n100", wide_cards, 700});
  run_gram_oracle<WideKey>(cases);
}

TEST(GramOracle, OnePartitionTableSpreadsOverThePool) {
  // A table built at P=1 has one partition; its slot ranges still go to
  // every worker.
  const Dataset data = generate_uniform(200000, 20, 2, 38);
  WaitFreeBuilder builder(WaitFreeBuilderOptions{});
  const PotentialTable table = builder.build(data);
  ASSERT_EQ(table.partition_count(), 1u);
  AllPairsMi all_pairs(AllPairsOptions{4, AllPairsStrategy::kFused});
  const MiMatrix fused = all_pairs.compute(table);
  std::size_t busy = 0;
  for (const std::uint64_t v : all_pairs.stats().worker_entries_visited) {
    busy += v > 0 ? 1 : 0;
  }
  EXPECT_GE(busy, 2u);
  expect_bit_identical(
      fused, AllPairsMi(AllPairsOptions{4, AllPairsStrategy::kPairParallel})
                 .compute(table));
}

TEST(GramOracle, AppendedTableIsBitIdenticalToFreshBuild) {
  // The view an append freezes reads the same integers as the view of one
  // build over the same rows, though their slots differ.
  const Dataset base = generate_chain_correlated(9000, 12, 3, 0.6, 39);
  const Dataset batch = generate_chain_correlated(4000, 12, 3, 0.6, 40);
  std::vector<State> rows(base.raw().begin(), base.raw().end());
  rows.insert(rows.end(), batch.raw().begin(), batch.raw().end());
  const Dataset both(base.sample_count() + batch.sample_count(),
                     base.cardinalities(), std::move(rows));
  WaitFreeBuilderOptions options;
  options.threads = 3;
  WaitFreeBuilder builder(options);
  PotentialTable appended = builder.build(base);
  builder.append(batch, appended);
  const PotentialTable fresh = builder.build(both);
  ASSERT_TRUE(appended.validate());
  EXPECT_EQ(appended.frozen().entries(), fresh.frozen().entries());
  for (const AllPairsStrategy strategy :
       {AllPairsStrategy::kFused, AllPairsStrategy::kPairParallel}) {
    expect_bit_identical(AllPairsMi(AllPairsOptions{2, strategy}).compute(appended),
                         AllPairsMi(AllPairsOptions{2, strategy}).compute(fresh));
  }
}

}  // namespace
}  // namespace wfbn
