// All-pairs mutual information (paper Algorithm 4): the statistics pass of
// the drafting phase. For every pair (i, j) the pair marginal P(x_i, x_j) is
// built from the potential table, and I(X_i;X_j) is evaluated from it (the
// single-variable marginals are derived from the pair table — Eq. 1's three
// marginalizations collapse into one, as §IV-C describes).
//
// Two scheduling strategies (DESIGN.md ablation ABL-MI):
//  - kPairParallel   pairs are block-distributed over the workers; each
//                    worker sweeps the frozen keys once per pair
//                    (Algorithm 4's round-robin pair scheduling).
//  - kFused          one parallel pass over the table's frozen view
//                    (table/frozen_table.hpp) as a bit-sliced Gram kernel.
//                    Work items are the view's items. Each item's stored
//                    one-hot column words (variable v, state a < r_v − 1)
//                    and excess bit-planes are folded into the worker's
//                    upper-triangle accumulator N(c1, c2) =
//                    popcount(col_c1 & col_c2) +
//                    Σ_k popcount(col_c1 & col_c2 & plane_k) << k; nothing is
//                    transposed per pass. After an exact sum across workers,
//                    each pair's full r_i × r_j table follows from its Gram
//                    cells, the marginals (the diagonal) and the total by
//                    subtraction. The counts are the integers kPairParallel
//                    scatters, so the two strategies' MI matrices are
//                    bit-identical.
//
// A template over the key type; the pair-parallel sweep decodes single
// variables of the frozen keys through KeyTraits' VarLeg recipe, so both
// strategies work at both key widths.
#pragma once

#include <cstdint>
#include <vector>

#include "concurrent/thread_pool.hpp"
#include "table/potential_table.hpp"

namespace wfbn {

/// Symmetric n×n matrix of pair statistics with a zero diagonal.
class MiMatrix {
 public:
  explicit MiMatrix(std::size_t n) : n_(n), cells_(n * n, 0.0) {}

  [[nodiscard]] std::size_t size() const noexcept { return n_; }

  [[nodiscard]] double at(std::size_t i, std::size_t j) const {
    return cells_[i * n_ + j];
  }
  void set(std::size_t i, std::size_t j, double value) {
    cells_[i * n_ + j] = value;
    cells_[j * n_ + i] = value;
  }

  /// Pairs with MI above `threshold`, sorted by descending MI — the candidate
  /// edge list the drafting phase consumes.
  struct ScoredPair {
    std::size_t i, j;
    double mi;
  };
  [[nodiscard]] std::vector<ScoredPair> pairs_above(double threshold) const;

 private:
  std::size_t n_;
  std::vector<double> cells_;
};

/// Explicit values keep each strategy's id stable as strategies are retired.
enum class AllPairsStrategy { kPairParallel = 0, kFused = 2 };

struct AllPairsOptions {
  std::size_t threads = 1;
  AllPairsStrategy strategy = AllPairsStrategy::kPairParallel;
};

struct AllPairsStats {
  double total_seconds = 0.0;
  std::uint64_t pair_count = 0;
  /// Per-worker busy time; max over workers is the simulated-makespan input.
  std::vector<double> worker_seconds;
  std::vector<std::uint64_t> worker_entries_visited;
};

template <typename K>
class BasicAllPairsMi {
 public:
  using Traits = KeyTraits<K>;
  using Table = BasicPotentialTable<K>;

  explicit BasicAllPairsMi(AllPairsOptions options = {});

  /// MI of every unordered variable pair of `table`.
  [[nodiscard]] MiMatrix compute(const Table& table);
  [[nodiscard]] MiMatrix compute(const Table& table, ThreadPool& pool);

  [[nodiscard]] const AllPairsStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const AllPairsOptions& options() const noexcept { return options_; }

 private:
  MiMatrix compute_pair_parallel(const Table& table, ThreadPool& pool);
  MiMatrix compute_fused(const Table& table, ThreadPool& pool);

  AllPairsOptions options_;
  AllPairsStats stats_;
};

extern template class BasicAllPairsMi<Key>;
extern template class BasicAllPairsMi<WideKey>;

using AllPairsMi = BasicAllPairsMi<Key>;
using WideAllPairsMi = BasicAllPairsMi<WideKey>;

/// Historical free-function spelling of the wide all-pairs pass (fused
/// single-sweep schedule, the right default for n = 100-scale tables).
[[nodiscard]] MiMatrix wide_all_pairs_mi(const WidePotentialTable& table,
                                         std::size_t threads = 1);

}  // namespace wfbn
