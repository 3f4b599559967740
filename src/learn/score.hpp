// Score-based structure learning — the *first* paradigm of paper §III
// (Chow–Liu [6], Cooper–Herskovits [7], Heckerman [12], Friedman's sparse
// candidate [9]): BIC-scored greedy hill climbing whose search space is
// pruned by the all-pairs-MI candidate-parent sets, exactly the use the
// paper's related-work section proposes for the primitives ("a parallel and
// efficient tool to help reduce the search space of other structure learning
// algorithms").
//
// The BIC score decomposes over families (node + parent set); family scores
// are computed by marginalizing the potential table with the parallel
// primitive and cached, so the climb never touches the raw data twice for
// the same family. Templated over KeyTraits like the rest of the learner
// layer: FamilyScorer / hill_climb work on narrow tables, the Wide aliases
// and explicit <WideKey> calls on two-word tables.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "bn/dag.hpp"
#include "concurrent/thread_pool.hpp"
#include "core/all_pairs_mi.hpp"
#include "data/dataset.hpp"
#include "table/marginal_table.hpp"
#include "table/potential_table.hpp"

namespace wfbn {

/// Decomposable family score: log-likelihood of X_v given its parents minus
/// the BIC complexity penalty (0.5 · log m · #free parameters).
template <typename K>
class BasicFamilyScorer {
 public:
  using Table = BasicPotentialTable<K>;

  /// Borrows `table`; it must outlive the scorer. Family counts are
  /// marginalized inline on the calling thread.
  explicit BasicFamilyScorer(const Table& table);

  /// Borrowed-pool constructor: family-count marginalizations run across
  /// `pool`, which must outlive the scorer.
  BasicFamilyScorer(const Table& table, ThreadPool& pool);

  /// BIC score of the family (v | parents). Parents need not be sorted;
  /// results are cached under the sorted set.
  [[nodiscard]] double family_score(std::size_t v,
                                    std::vector<std::size_t> parents) const;

  /// Total BIC of a DAG = Σ_v family_score(v, parents(v)).
  [[nodiscard]] double total_score(const Dag& dag) const;

  [[nodiscard]] std::uint64_t families_evaluated() const noexcept {
    return evaluations_;
  }
  [[nodiscard]] std::uint64_t cache_hits() const noexcept { return cache_hits_; }

 private:
  [[nodiscard]] MarginalTable sweep(std::span<const std::size_t> vars) const;

  const Table& table_;
  ThreadPool* pool_ = nullptr;  ///< borrowed; null → inline sweeps
  mutable std::map<std::pair<std::size_t, std::vector<std::size_t>>, double>
      cache_;
  mutable std::uint64_t evaluations_ = 0;
  mutable std::uint64_t cache_hits_ = 0;
};

extern template class BasicFamilyScorer<Key>;
extern template class BasicFamilyScorer<WideKey>;

using FamilyScorer = BasicFamilyScorer<Key>;
using WideFamilyScorer = BasicFamilyScorer<WideKey>;

struct HillClimbOptions {
  /// Workers of the one pool a call runs on; 1 scores inline, no pool.
  std::size_t threads = 1;
  /// Cap on parents per node (keeps family tables dense and counts honest).
  std::size_t max_parents = 3;
  /// Per-node candidate parents (e.g. from sparse_candidates()); empty means
  /// every other node is a candidate (the unpruned search of §III).
  std::vector<std::vector<std::size_t>> candidate_parents;
  /// Stop after this many accepted moves (safety valve; greedy search on
  /// decomposable scores terminates on its own).
  std::size_t max_moves = 1000;
};

struct HillClimbResult {
  Dag dag;
  double score = 0.0;
  std::size_t moves = 0;               ///< accepted add/remove/reverse moves
  std::uint64_t families_evaluated = 0;
  std::uint64_t cache_hits = 0;
};

/// Greedy hill climbing over add-edge / remove-edge / reverse-edge moves,
/// starting from the empty graph. K is deduced from the table.
template <typename K>
[[nodiscard]] HillClimbResult hill_climb(const BasicPotentialTable<K>& table,
                                         const HillClimbOptions& options = {});

/// Convenience: builds the table with the wait-free primitive, derives
/// candidate parents from all-pairs MI (top-k per node), then climbs.
/// Narrow by default; call hill_climb_sparse<WideKey>(...) for wide tables.
template <typename K = Key>
[[nodiscard]] HillClimbResult hill_climb_sparse(const Dataset& data,
                                                std::size_t candidates_per_node,
                                                HillClimbOptions options = {});

extern template HillClimbResult hill_climb<Key>(const BasicPotentialTable<Key>&,
                                                const HillClimbOptions&);
extern template HillClimbResult hill_climb<WideKey>(
    const BasicPotentialTable<WideKey>&, const HillClimbOptions&);
extern template HillClimbResult hill_climb_sparse<Key>(const Dataset&,
                                                       std::size_t,
                                                       HillClimbOptions);
extern template HillClimbResult hill_climb_sparse<WideKey>(const Dataset&,
                                                           std::size_t,
                                                           HillClimbOptions);

}  // namespace wfbn
