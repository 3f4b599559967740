// The potential table: the joint occurrence-count representation of a
// training dataset (paper §IV-A), i.e. the codec plus the P partitioned
// hashtables plus the sample count, plus the frozen columnar view
// (table/frozen_table.hpp) every read sweeps.
//
// This is the object the construction primitives produce and the
// marginalization and all-pairs MI primitives consume. A table is finished
// when it is constructed: the constructor freezes the partitions once, and
// every copy of the table shares that immutable view. The partitions stay
// readable for point lookups, the persist writer and the builder's append,
// which folds a batch into a copy and constructs a new table from it.
// A template over the key type — PotentialTable (64-bit keys, joint spaces
// up to 2^63) and WidePotentialTable (two-word keys, up to 2^126) are the
// same class instantiated over KeyTraits.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>

#include "concurrent/thread_pool.hpp"
#include "table/frozen_table.hpp"
#include "table/key_traits.hpp"
#include "table/partitioned_table.hpp"

namespace wfbn {

template <typename K>
class BasicPotentialTable {
 public:
  using Traits = KeyTraits<K>;
  using Codec = typename Traits::Codec;
  using Partitions = BasicPartitionedTable<K>;


  /// Takes the finished partitions and freezes them on the calling thread.
  BasicPotentialTable(Codec codec, Partitions partitions,
                      std::uint64_t sample_count);
  /// Same, freezing on `pool` (the builders' path).
  BasicPotentialTable(Codec codec, Partitions partitions,
                      std::uint64_t sample_count, ThreadPool& pool);

  [[nodiscard]] const Codec& codec() const noexcept { return codec_; }
  [[nodiscard]] const Partitions& partitions() const noexcept {
    return partitions_;
  }
  /// The columnar view every marginal and MI pass reads.
  [[nodiscard]] const FrozenTable& frozen() const noexcept { return *frozen_; }

  /// Number of observations the table represents (m).
  [[nodiscard]] std::uint64_t sample_count() const noexcept { return samples_; }

  /// Number of distinct observed state strings. O(P).
  [[nodiscard]] std::size_t distinct_keys() const noexcept {
    return partitions_.size();
  }

  /// Total observation count across partitions. O(P) via the per-table cached
  /// totals; equals sample_count() on a consistent table.
  [[nodiscard]] std::uint64_t total_count() const noexcept {
    return partitions_.total_count();
  }

  /// Partition access shorthands (the data-parallel primitives sweep these).
  [[nodiscard]] std::size_t partition_count() const noexcept {
    return partitions_.partition_count();
  }
  [[nodiscard]] const BasicOpenHashTable<K>& partition(std::size_t p) const {
    return partitions_.partition(p);
  }

  /// Visits all (key, count) pairs across all partitions (single-threaded).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    partitions_.for_each(std::forward<Fn>(fn));
  }

  /// Occurrence count of a full state string.
  [[nodiscard]] std::uint64_t count_of(std::span<const State> states) const;

  /// Moves entries between partitions so their populations differ by at
  /// most one (paper §IV-C; see BasicPartitionedTable::rebalance) and
  /// refreezes. Returns the number of moved entries.
  std::size_t rebalance();

  /// Internal consistency checks: counts sum to m, keys lie within the state
  /// space, and the frozen view equals a fresh freeze of the partitions.
  /// Used by tests and debug assertions; O(#entries · n).
  [[nodiscard]] bool validate() const;

 private:
  Codec codec_;
  Partitions partitions_;
  std::uint64_t samples_;
  std::shared_ptr<const FrozenTable> frozen_;
};

extern template class BasicPotentialTable<Key>;
extern template class BasicPotentialTable<WideKey>;

using PotentialTable = BasicPotentialTable<Key>;
using WidePotentialTable = BasicPotentialTable<WideKey>;

}  // namespace wfbn
