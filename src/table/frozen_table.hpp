// The frozen view of a finished potential table: the one layout every read
// of the table sweeps — the marginals of paper Algorithm 3 and the all-pairs
// MI pass of Algorithm 4.
//
// A finished table is read many times (one marginal per CI test or served
// query, one Gram pass per learn) and never written again, so it is
// transposed once, when it is finished, into an immutable columnar layout
// that every copy of the table shares:
//
//   * work items: fixed slot ranges (kItemSlots) of each partition, so a
//     parallel reader spreads over any pool whatever the partition count;
//   * per item, its entries counting-sorted by the bit width of their excess
//     (count − 1). The wide prefix (count > 1) comes first and only it
//     stores counts: every later entry counts exactly 1;
//   * per item and 64-entry block, one word per one-hot column (variable v,
//     state a < r_v − 1; the last state is the entries the others leave) and
//     one word per bit-plane of the excess, stored only over the blocks where
//     that plane can be non-zero.
//
// The freeze decodes every variable of every key once (paper Eq. 4); no key
// is stored. A reader recovers an entry's state of variable v from v's
// column bits, and the weight (sum of counts) of an entry set given as a bit
// mask m is
//   popcount(m) + Σ_k 2^k · popcount(m & plane_k),
// an exact integer. Readers that AND columns (the popcount marginal, the
// Gram kernel) and readers that decode states from them (the projector
// marginal) therefore count the same numbers the hash tables hold. The view
// costs Σ_v (r_v − 1) bits per entry, plus the counts and planes of the wide
// prefix.
//
// The mutable hash tables stay where writes happen (builder stage 2, append,
// the persist writer) and serve point lookups; no marginal or MI pass reads
// them after the freeze.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "concurrent/thread_pool.hpp"
#include "table/key_traits.hpp"
#include "table/partitioned_table.hpp"

namespace wfbn {

/// Where each variable's one-hot columns live: column first(v) + a is state
/// a < r_v − 1 of variable v. Also the upper-triangle cell layout of the Gram
/// matrix over those columns.
class OneHotColumns {
 public:
  explicit OneHotColumns(std::span<const std::uint32_t> cardinalities);

  /// Number of columns, Σ_v (r_v − 1).
  [[nodiscard]] std::size_t count() const noexcept {
    return next_variable_.size();
  }
  [[nodiscard]] std::size_t first(std::size_t v) const { return first_[v]; }
  [[nodiscard]] std::uint32_t cardinality(std::size_t v) const {
    return static_cast<std::uint32_t>(first_[v + 1] - first_[v] + 1);
  }
  /// First column of the variable after column c's: pairs of two states of
  /// one variable are never needed.
  [[nodiscard]] std::size_t next_variable(std::size_t c) const {
    return next_variable_[c];
  }

  /// Upper triangle (diagonal included) of the Gram matrix, row-major.
  [[nodiscard]] std::size_t gram_cells() const noexcept {
    return count() * (count() + 1) / 2;
  }
  /// Cell (c1, c2), c1 <= c2, is at row_offset(c1) + c2: row c1 holds
  /// count() - c1 cells and starts at row_offset(c1) + c1.
  [[nodiscard]] std::size_t row_offset(std::size_t c1) const noexcept {
    return c1 * (2 * count() - c1 + 1) / 2 - c1;
  }
  [[nodiscard]] std::size_t cell(std::size_t c1, std::size_t c2) const noexcept {
    return row_offset(c1) + c2;
  }

  /// Rebuilds the full r_i x r_j count table of pair (i < j), laid out as
  /// cell = s_i + r_i * s_j, from the (r_i-1)(r_j-1) Gram cells, the
  /// marginals on the diagonal and the total. Exact in uint64 arithmetic:
  /// every subtraction leaves a true (non-negative) count.
  void pair_counts(const std::vector<std::uint64_t>& gram, std::uint64_t total,
                   std::size_t i, std::size_t j,
                   std::vector<std::uint64_t>& out) const;

  bool operator==(const OneHotColumns&) const = default;

 private:
  std::vector<std::size_t> first_;  ///< n + 1 entries
  std::vector<std::size_t> next_variable_;
};

/// One item's bit-sliced words, as the popcount readers take them.
struct ItemBits {
  std::size_t words = 0;   ///< 64-entry blocks
  std::size_t planes = 0;  ///< excess bit-planes
  const std::uint32_t* plane_words = nullptr;   ///< plane k: its first words
  const std::uint32_t* plane_offset = nullptr;  ///< plane k: at plane_bits + it
  const std::uint64_t* columns = nullptr;  ///< column c at columns + c*words
  const std::uint64_t* plane_bits = nullptr;

  [[nodiscard]] const std::uint64_t* column(std::size_t c) const noexcept {
    return columns + c * words;
  }
  [[nodiscard]] const std::uint64_t* plane(std::size_t k) const noexcept {
    return plane_bits + plane_offset[k];
  }
};

/// The immutable view of one finished table; the layout is in the file
/// comment.
class FrozenTable {
 public:
  /// Hash-table slots per work item.
  static constexpr std::size_t kItemSlots = std::size_t{1} << 14;
  /// Bit widths of a uint64 excess, 0 ..= 64.
  static constexpr std::size_t kWidths = 65;

  struct Item {
    std::size_t entries = 0;
    std::size_t wide = 0;         ///< leading entries whose count exceeds 1
    std::size_t first_count = 0;  ///< into the count array (wide entries)
    std::size_t first_word = 0;   ///< into the bit array: columns, planes
    std::size_t words = 0;        ///< (entries + 63) / 64
    std::size_t planes = 0;       ///< bit width of the widest excess
    std::uint64_t total = 0;      ///< sum of the item's counts
    std::array<std::uint32_t, 64> plane_words{};
    std::array<std::uint32_t, 64> plane_offset{};

    bool operator==(const Item&) const = default;
  };

  /// Freezes `partitions` (a table over `codec`), spread over `pool` when
  /// one is given and inline otherwise. The fault point `table.freeze` fires
  /// once per item; a throw leaves nothing behind.
  template <typename K>
  [[nodiscard]] static std::shared_ptr<const FrozenTable> freeze(
      const typename KeyTraits<K>::Codec& codec,
      const BasicPartitionedTable<K>& partitions, ThreadPool* pool);

  [[nodiscard]] const OneHotColumns& columns() const noexcept {
    return columns_;
  }
  [[nodiscard]] const std::vector<Item>& items() const noexcept {
    return items_;
  }
  /// Distinct keys over every item.
  [[nodiscard]] std::size_t entries() const noexcept { return entries_; }
  /// Widest item, in 64-entry blocks.
  [[nodiscard]] std::size_t max_words() const noexcept { return max_words_; }
  /// Words one popcount pass over every item reads per mask: the column
  /// words plus the plane words.
  [[nodiscard]] std::size_t mask_words() const noexcept { return mask_words_; }

  [[nodiscard]] ItemBits bits(const Item& item) const noexcept {
    const std::uint64_t* base = bits_.get() + item.first_word;
    return ItemBits{item.words,
                    item.planes,
                    item.plane_words.data(),
                    item.plane_offset.data(),
                    base,
                    base + columns_.count() * item.words};
  }
  /// Counts of the item's wide prefix; every later entry counts 1.
  [[nodiscard]] const std::uint64_t* wide_counts(const Item& item) const noexcept {
    return counts_.get() + item.first_count;
  }

  /// Same items, counts and bits.
  bool operator==(const FrozenTable& other) const;

 private:
  explicit FrozenTable(OneHotColumns columns) : columns_(std::move(columns)) {}

  OneHotColumns columns_;
  std::vector<Item> items_;
  std::unique_ptr<std::uint64_t[]> counts_;
  std::unique_ptr<std::uint64_t[]> bits_;
  std::size_t entries_ = 0;
  std::size_t counts_size_ = 0;
  std::size_t bits_size_ = 0;
  std::size_t max_words_ = 0;
  std::size_t mask_words_ = 0;
};

extern template std::shared_ptr<const FrozenTable> FrozenTable::freeze<Key>(
    const KeyCodec&, const BasicPartitionedTable<Key>&, ThreadPool*);
extern template std::shared_ptr<const FrozenTable>
FrozenTable::freeze<WideKey>(const WideKeyCodec&,
                             const BasicPartitionedTable<WideKey>&,
                             ThreadPool*);

}  // namespace wfbn
