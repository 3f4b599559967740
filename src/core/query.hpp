// Probability queries over a potential table: normalized marginals,
// conditionals given evidence, and MAP states — the "use the table you just
// built" layer. The paper's footnote 2 observes that counts are normalized
// lazily at marginalization time; this module is where that happens.
//
// Every query is one evidence-filtered sweep of the marginalization kernel
// (core/marginalizer.hpp), so conditioning costs the same O(#entries/P) as a
// marginal.
//
// Engines are cheap, stateless views: construction is O(1) and evaluation
// either runs inline on the calling thread (no pool is ever spawned) or on a
// caller-provided ThreadPool. That is what lets the serving layer
// (src/serve) construct a fresh engine per query over whatever snapshot it
// just pinned, with per-query cost going entirely to the table sweep.
//
// A template over the key type: QueryEngine (narrow) and WideQueryEngine
// answer the same query set at either key width.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "concurrent/thread_pool.hpp"
#include "core/marginalizer.hpp"
#include "table/marginal_table.hpp"
#include "table/potential_table.hpp"

namespace wfbn {

template <typename K>
class BasicQueryEngine {
 public:
  using Table = BasicPotentialTable<K>;

  /// The engine borrows `table`; it must outlive the engine. Every query
  /// evaluates inline on the calling thread.
  explicit BasicQueryEngine(const Table& table);

  /// Serving constructor: sweeps run on `pool` (borrowed, not owned), so
  /// repeated queries reuse the same workers instead of spawning threads.
  /// Both `table` and `pool` must outlive the engine.
  BasicQueryEngine(const Table& table, ThreadPool& pool);

  /// Normalized marginal distribution P(V) as probabilities in the layout of
  /// MarginalTable::index_of over `variables`.
  [[nodiscard]] std::vector<double> marginal(
      std::span<const std::size_t> variables) const;

  /// Conditional distribution P(V | evidence). Throws DataError if the
  /// evidence has zero support in the data. Evidence variables must be
  /// disjoint from `variables`.
  [[nodiscard]] std::vector<double> conditional(
      std::span<const std::size_t> variables,
      std::span<const Evidence> evidence) const;

  /// P(evidence): fraction of observations consistent with the evidence.
  [[nodiscard]] double evidence_probability(
      std::span<const Evidence> evidence) const;

  /// Most probable joint state of `variables` (optionally given evidence),
  /// with its probability. Ties break toward the lower cell index.
  struct MapResult {
    std::vector<State> states;
    double probability = 0.0;
  };
  [[nodiscard]] MapResult most_probable(
      std::span<const std::size_t> variables,
      std::span<const Evidence> evidence = {}) const;

  [[nodiscard]] const Table& table() const noexcept { return *table_; }

 private:
  /// Count table of `variables` restricted to rows matching `evidence`.
  [[nodiscard]] MarginalTable filtered_marginal(
      std::span<const std::size_t> variables,
      std::span<const Evidence> evidence) const;

  const Table* table_;
  ThreadPool* pool_;  ///< borrowed evaluation pool; nullptr = inline
};

extern template class BasicQueryEngine<Key>;
extern template class BasicQueryEngine<WideKey>;

using QueryEngine = BasicQueryEngine<Key>;
using WideQueryEngine = BasicQueryEngine<WideKey>;

}  // namespace wfbn
