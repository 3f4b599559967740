// Quickstart: build a potential table from data with the wait-free primitive,
// marginalize it, and score pairwise dependence — the paper's phase-1
// pipeline in ~40 lines.
#include <cstdio>

#include "core/all_pairs_mi.hpp"
#include "core/info_theory.hpp"
#include "core/marginalizer.hpp"
#include "core/wait_free_builder.hpp"
#include "data/generators.hpp"

int main() {
  using namespace wfbn;

  // 1. Training data: 100k observations of 8 binary variables where each
  //    variable copies its predecessor 85% of the time (a noisy chain).
  const Dataset data = generate_chain_correlated(100000, 8, 2, 0.85, 2024);
  std::printf("dataset: m=%zu samples, n=%zu variables\n", data.sample_count(),
              data.variable_count());

  // 2. Potential table via the wait-free construction primitive (4 workers).
  WaitFreeBuilderOptions options;
  options.threads = 4;
  WaitFreeBuilder builder(options);
  const PotentialTable table = builder.build(data);
  std::printf("potential table: %zu distinct state strings across %zu partitions\n",
              table.distinct_keys(), table.partitions().partition_count());
  std::printf("stage-1 foreign keys routed through SPSC queues: %llu\n",
              static_cast<unsigned long long>(
                  builder.stats().total_foreign_pushes()));

  // 3. Marginalization primitive: P(X0, X1) and its entropy.
  ThreadPool pool(4);
  const std::size_t pair[] = {0, 1};
  const MarginalTable joint = marginalize(table, pair, {}, pool);
  std::printf("H(X0,X1) = %.4f nats, I(X0;X1) = %.4f nats\n", entropy(joint),
              mutual_information(joint));

  // 4. All-pairs MI (the drafting-phase statistics pass).
  AllPairsMi all_pairs(AllPairsOptions{4, AllPairsStrategy::kFused});
  const MiMatrix mi = all_pairs.compute(table);
  std::printf("\npairwise MI (adjacent chain pairs should dominate):\n");
  for (std::size_t i = 0; i < data.variable_count(); ++i) {
    for (std::size_t j = i + 1; j < data.variable_count(); ++j) {
      if (mi.at(i, j) > 0.05) {
        std::printf("  I(X%zu;X%zu) = %.4f\n", i, j, mi.at(i, j));
      }
    }
  }
  return 0;
}
