#include "core/all_pairs_mi.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>

#include "util/error.hpp"
#include "util/fault_injection.hpp"
#include "util/simd.hpp"
#include "util/timer.hpp"

namespace wfbn {

std::vector<MiMatrix::ScoredPair> MiMatrix::pairs_above(double threshold) const {
  std::vector<ScoredPair> out;
  for (std::size_t i = 0; i < n_; ++i) {
    for (std::size_t j = i + 1; j < n_; ++j) {
      const double mi = at(i, j);
      if (mi > threshold) out.push_back(ScoredPair{i, j, mi});
    }
  }
  std::sort(out.begin(), out.end(), [](const ScoredPair& a, const ScoredPair& b) {
    if (a.mi != b.mi) return a.mi > b.mi;
    return std::tie(a.i, a.j) < std::tie(b.i, b.j);
  });
  return out;
}

namespace {

/// Unordered pairs (i, j), i < j, in a flat deterministic order.
std::vector<std::pair<std::size_t, std::size_t>> enumerate_pairs(std::size_t n) {
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  pairs.reserve(n * (n - 1) / 2);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) pairs.emplace_back(i, j);
  }
  return pairs;
}

/// MI from a dense pair count table laid out as cell = s_i + r_i * s_j.
double mi_from_pair_counts(const std::uint64_t* counts, std::uint32_t r_i,
                           std::uint32_t r_j) {
  std::uint64_t total = 0;
  for (std::size_t c = 0; c < static_cast<std::size_t>(r_i) * r_j; ++c) {
    total += counts[c];
  }
  if (total == 0) return 0.0;
  const double m = static_cast<double>(total);

  // Derive the single-variable marginals from the pair table (paper §IV-C).
  std::vector<std::uint64_t> row(r_i, 0);
  std::vector<std::uint64_t> col(r_j, 0);
  for (std::uint32_t b = 0; b < r_j; ++b) {
    for (std::uint32_t a = 0; a < r_i; ++a) {
      const std::uint64_t c = counts[a + static_cast<std::size_t>(r_i) * b];
      row[a] += c;
      col[b] += c;
    }
  }
  double mi = 0.0;
  for (std::uint32_t b = 0; b < r_j; ++b) {
    if (col[b] == 0) continue;
    for (std::uint32_t a = 0; a < r_i; ++a) {
      const std::uint64_t c = counts[a + static_cast<std::size_t>(r_i) * b];
      if (c == 0 || row[a] == 0) continue;
      const double p_ab = static_cast<double>(c) / m;
      const double p_a = static_cast<double>(row[a]) / m;
      const double p_b = static_cast<double>(col[b]) / m;
      mi += p_ab * std::log(p_ab / (p_a * p_b));
    }
  }
  return std::max(0.0, mi);
}

// ---- Bit-sliced Gram kernel (the kFused strategy) ------------------------
//
// Pair counts as a Gram matrix over one-hot columns: with column c = [x_v ==
// a] for variable v and state a < r_v - 1, and each entry's count c_e split
// into bit-planes, N(c1, c2) = sum_k 2^k * popcount(col_c1 & col_c2 &
// plane_k) over the entries, 64 per word. The last state of each variable is
// left out and recovered by subtraction from the marginals (the diagonal)
// and the total, so every cell is the same integer the scatter sweep counts.

/// Table slots per work item: a slice of at most kItemSlots / 64 words per
/// column.
constexpr std::size_t kItemSlots = std::size_t{1} << 14;
constexpr std::size_t kWidths = 65;  ///< bit widths of a uint64, 0 ..= 64

/// Where each variable's states live. Gram column first_column[v] + a is
/// state a < r_v - 1 of variable v. The transpose scratch gives every state,
/// the last one included, a word (scratch_base[v] + a), so it sets bits
/// without a branch and drops the last word.
class OneHotColumns {
 public:
  explicit OneHotColumns(const std::vector<std::uint32_t>& cardinalities) {
    first_column_.push_back(0);
    for (const std::uint32_t r : cardinalities) {
      scratch_base_.push_back(scratch_words_);
      for (std::uint32_t a = 0; a + 1 < r; ++a) {
        scratch_of_.push_back(scratch_words_ + a);
        next_variable_.push_back(first_column_.back() + r - 1);
      }
      scratch_words_ += r;
      first_column_.push_back(first_column_.back() + r - 1);
    }
  }

  [[nodiscard]] std::size_t count() const noexcept {
    return scratch_of_.size();
  }
  [[nodiscard]] std::size_t scratch_words() const noexcept {
    return scratch_words_;
  }
  [[nodiscard]] std::size_t scratch_base(std::size_t v) const {
    return scratch_base_[v];
  }
  [[nodiscard]] std::size_t scratch_of(std::size_t c) const {
    return scratch_of_[c];
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
                   std::vector<std::uint64_t>& out) const {
    const std::size_t ri = first_column_[i + 1] - first_column_[i] + 1;
    const std::size_t rj = first_column_[j + 1] - first_column_[j] + 1;
    const std::size_t ci = first_column_[i];
    const std::size_t cj = first_column_[j];
    out.assign(ri * rj, 0);
    for (std::size_t a = 0; a + 1 < ri; ++a) {
      std::uint64_t last = gram[cell(ci + a, ci + a)];
      for (std::size_t b = 0; b + 1 < rj; ++b) {
        out[a + ri * b] = gram[cell(ci + a, cj + b)];
        last -= out[a + ri * b];
      }
      out[a + ri * (rj - 1)] = last;
    }
    std::uint64_t last_j = total;
    for (std::size_t b = 0; b < rj; ++b) {
      std::uint64_t marginal = last_j;
      if (b + 1 < rj) {
        marginal = gram[cell(cj + b, cj + b)];
        last_j -= marginal;
      }
      for (std::size_t a = 0; a + 1 < ri; ++a) marginal -= out[a + ri * b];
      out[(ri - 1) + ri * b] = marginal;
    }
  }

 private:
  std::vector<std::size_t> first_column_;
  std::vector<std::size_t> scratch_base_;
  std::vector<std::size_t> scratch_of_;
  std::vector<std::size_t> next_variable_;
  std::size_t scratch_words_ = 0;
};

/// One work item's entries, bit-sliced: `words` words per column and per
/// plane. Entries are ordered by descending count bit width, so plane k can
/// be non-zero only in its first plane_words[k] words.
struct SliceView {
  std::size_t words = 0;
  std::size_t planes = 0;
  const std::size_t* plane_words = nullptr;
  const std::uint64_t* columns = nullptr;  ///< column c at columns + c*words
  const std::uint64_t* plane_bits = nullptr;  ///< plane k at + k*words
};

/// Folds one slice into the upper-triangle accumulator `acc`. `masked` holds
/// kWidths * words scratch words (col_c1 & plane_k, reused across c2).
inline void gram_accumulate_body(const OneHotColumns& columns,
                                 const SliceView& s, std::uint64_t* masked,
                                 std::uint64_t* acc) {
  const std::size_t count = columns.count();
  for (std::size_t c1 = 0; c1 < count; ++c1) {
    const std::uint64_t* col1 = s.columns + c1 * s.words;
    std::uint64_t* row = acc + columns.row_offset(c1);
    std::uint64_t diagonal = 0;
    for (std::size_t k = 0; k < s.planes; ++k) {
      const std::uint64_t* plane = s.plane_bits + k * s.words;
      std::uint64_t* m = masked + k * s.words;
      std::uint64_t ones = 0;
      for (std::size_t w = 0; w < s.plane_words[k]; ++w) {
        m[w] = col1[w] & plane[w];
        ones += static_cast<std::uint64_t>(std::popcount(m[w]));
      }
      diagonal += ones << k;
    }
    row[c1] += diagonal;
    for (std::size_t c2 = columns.next_variable(c1); c2 < count; ++c2) {
      const std::uint64_t* col2 = s.columns + c2 * s.words;
      std::uint64_t sum = 0;
      for (std::size_t k = 0; k < s.planes; ++k) {
        const std::uint64_t* m = masked + k * s.words;
        std::uint64_t ones = 0;
        for (std::size_t w = 0; w < s.plane_words[k]; ++w) {
          ones += static_cast<std::uint64_t>(std::popcount(m[w] & col2[w]));
        }
        sum += ones << k;
      }
      row[c2] += sum;
    }
  }
}

using GramFn = void (*)(const OneHotColumns&, const SliceView&, std::uint64_t*,
                        std::uint64_t*);

/// Portable level: std::popcount as the target baseline compiles it.
void gram_accumulate_scalar(const OneHotColumns& columns, const SliceView& s,
                            std::uint64_t* masked, std::uint64_t* acc) {
  gram_accumulate_body(columns, s, masked, acc);
}

/// avx2 level: the same loop compiled for AVX2 hosts, where std::popcount
/// becomes the POPCNT instruction.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
__attribute__((target("avx2,popcnt"), flatten))
#endif
void gram_accumulate_avx2(const OneHotColumns& columns, const SliceView& s,
                          std::uint64_t* masked, std::uint64_t* acc) {
  gram_accumulate_body(columns, s, masked, acc);
}

/// A worker's reusable buffers: one work item's entries ordered by count
/// bit width, and their bit-sliced form. Grow to the largest item seen,
/// never shrink.
template <typename K>
class SliceBuffers {
 public:
  using Traits = KeyTraits<K>;

  /// Gathers the entries of slots [lo, hi) of `part` in descending count
  /// bit width (a counting sort: one pass for the histogram, one to place
  /// them) and transposes them, 64 at a time, into one word per one-hot
  /// column and per bit-plane. Adds the entries' counts to `total` and
  /// returns the entry count; view() stays valid until the next slice().
  std::size_t slice(const BasicOpenHashTable<K>& part, std::size_t lo,
                    std::size_t hi, const OneHotColumns& columns,
                    const std::vector<typename Traits::VarLeg>& legs,
                    std::uint64_t& total) {
    std::array<std::size_t, kWidths> next{};
    part.for_each_in_slots(lo, hi, [&](K, std::uint64_t c) {
      ++next[static_cast<std::size_t>(std::bit_width(c))];
      total += c;
    });
    std::size_t planes = 0;
    std::size_t wider = 0;  // entries with a bit width above the current one
    for (std::size_t b = kWidths; b-- > 0;) {
      if (planes == 0 && next[b] > 0) planes = b;
      const std::size_t here = next[b];
      next[b] = wider;  // first sorted position of width b
      wider += here;
      if (b > 0) plane_words_[b - 1] = (wider + 63) / 64;
    }
    const std::size_t entries = wider;
    const std::size_t words = (entries + 63) / 64;
    keys_.resize(entries);
    counts_.resize(entries);
    part.for_each_in_slots(lo, hi, [&](K key, std::uint64_t c) {
      const auto width = static_cast<std::size_t>(std::bit_width(c));
      const std::size_t at = next[width]++;
      keys_[at] = key;
      counts_[at] = c;
    });

    const std::size_t count = columns.count();
    bits_.resize((count + planes) * words);
    masked_.resize(planes * words);
    scratch_.resize(columns.scratch_words());
    std::uint64_t* column_bits = bits_.data();
    std::uint64_t* plane_bits = bits_.data() + count * words;
    for (std::size_t g = 0; g < words; ++g) {
      const std::size_t e0 = g * 64;
      const std::size_t group = std::min<std::size_t>(64, entries - e0);
      std::fill(scratch_.begin(), scratch_.end(), 0);
      for (std::size_t i = 0; i < group; ++i) {
        const K key = keys_[e0 + i];
        const std::uint64_t bit = std::uint64_t{1} << i;
        for (std::size_t v = 0; v < legs.size(); ++v) {
          const std::uint64_t state = Traits::decode_leg(legs[v], key);
          scratch_[columns.scratch_base(v) + state] |= bit;
        }
      }
      for (std::size_t c = 0; c < count; ++c) {
        column_bits[c * words + g] = scratch_[columns.scratch_of(c)];
      }
      // The group's first entry has its widest count.
      const auto group_planes =
          static_cast<std::size_t>(std::bit_width(counts_[e0]));
      for (std::size_t k = 0; k < group_planes; ++k) {
        std::uint64_t word = 0;
        for (std::size_t i = 0; i < group; ++i) {
          word |= ((counts_[e0 + i] >> k) & 1) << i;
        }
        plane_bits[k * words + g] = word;
      }
    }
    view_ = SliceView{words, planes, plane_words_.data(), column_bits,
                      plane_bits};
    return entries;
  }

  [[nodiscard]] const SliceView& view() const noexcept { return view_; }
  [[nodiscard]] std::uint64_t* masked() noexcept { return masked_.data(); }

 private:
  SliceView view_;
  std::vector<K> keys_;
  std::vector<std::uint64_t> counts_;
  std::array<std::size_t, kWidths> plane_words_{};
  std::vector<std::uint64_t> bits_;
  std::vector<std::uint64_t> masked_;
  std::vector<std::uint64_t> scratch_;
};

}  // namespace

template <typename K>
BasicAllPairsMi<K>::BasicAllPairsMi(AllPairsOptions options)
    : options_(options) {
  WFBN_EXPECT(options_.threads >= 1, "need at least one thread");
}

template <typename K>
MiMatrix BasicAllPairsMi<K>::compute(const Table& table) {
  ThreadPool pool(options_.threads);
  return compute(table, pool);
}

template <typename K>
MiMatrix BasicAllPairsMi<K>::compute(const Table& table, ThreadPool& pool) {
  const std::size_t n = table.codec().variable_count();
  WFBN_EXPECT(n >= 2, "all-pairs MI needs at least two variables");
  stats_ = AllPairsStats{};
  stats_.pair_count = n * (n - 1) / 2;
  stats_.worker_seconds.assign(pool.size(), 0.0);
  stats_.worker_entries_visited.assign(pool.size(), 0);

  Timer timer;
  MiMatrix out(n);
  switch (options_.strategy) {
    case AllPairsStrategy::kPairParallel:
      out = compute_pair_parallel(table, pool);
      break;
    case AllPairsStrategy::kFused:
      out = compute_fused(table, pool);
      break;
  }
  stats_.total_seconds = timer.seconds();
  return out;
}

template <typename K>
MiMatrix BasicAllPairsMi<K>::compute_pair_parallel(const Table& table,
                                                   ThreadPool& pool) {
  const typename Traits::Codec& codec = table.codec();
  const std::size_t n = codec.variable_count();
  const auto pairs = enumerate_pairs(n);
  MiMatrix out(n);

  pool.parallel_for(0, pairs.size(), [&](std::size_t w, std::size_t lo,
                                         std::size_t hi) {
    Timer timer;
    std::uint64_t visited = 0;
    for (std::size_t k = lo; k < hi; ++k) {
      WFBN_FAULT_POINT(fault::Point::kMiSweep);
      const auto [i, j] = pairs[k];
      const std::uint32_t r_i = codec.cardinality(i);
      const std::uint32_t r_j = codec.cardinality(j);
      // Decode-of-interest recipes (Eq. 4) from the trait: the sweep never
      // decodes more than the two variables of the pair.
      const typename Traits::VarLeg leg_i = Traits::leg_of(codec, i);
      const typename Traits::VarLeg leg_j = Traits::leg_of(codec, j);
      std::vector<std::uint64_t> counts(static_cast<std::size_t>(r_i) * r_j, 0);
      table.partitions().for_each([&](K key, std::uint64_t c) {
        const auto a = static_cast<std::size_t>(Traits::decode_leg(leg_i, key));
        const auto b = static_cast<std::size_t>(Traits::decode_leg(leg_j, key));
        counts[a + static_cast<std::size_t>(r_i) * b] += c;
        ++visited;
      });
      out.set(i, j, mi_from_pair_counts(counts.data(), r_i, r_j));
    }
    stats_.worker_seconds[w] = timer.seconds();
    stats_.worker_entries_visited[w] = visited;
  });
  return out;
}

template <typename K>
MiMatrix BasicAllPairsMi<K>::compute_fused(const Table& table,
                                           ThreadPool& pool) {
  const typename Traits::Codec& codec = table.codec();
  const std::size_t n = codec.variable_count();
  const OneHotColumns columns(codec.cardinalities());
  std::vector<typename Traits::VarLeg> legs;
  legs.reserve(n);
  for (std::size_t v = 0; v < n; ++v) legs.push_back(Traits::leg_of(codec, v));

  // Work items: fixed slot ranges of every partition, so a table with fewer
  // partitions than workers still spreads over the whole pool.
  struct Item {
    std::size_t partition, lo, hi;
  };
  std::vector<Item> items;
  for (std::size_t p = 0; p < table.partitions().partition_count(); ++p) {
    const std::size_t slots = table.partitions().partition(p).capacity();
    for (std::size_t lo = 0; lo < slots; lo += kItemSlots) {
      items.push_back(Item{p, lo, std::min(slots, lo + kItemSlots)});
    }
  }

  const GramFn gram = simd::detected() >= simd::Level::kAvx2
                          ? &gram_accumulate_avx2
                          : &gram_accumulate_scalar;
  std::vector<std::vector<std::uint64_t>> worker_gram(pool.size());
  std::vector<std::uint64_t> worker_total(pool.size(), 0);

  pool.parallel_for(0, items.size(), [&](std::size_t w, std::size_t first,
                                         std::size_t last) {
    if (first == last) return;
    Timer timer;
    std::uint64_t visited = 0;
    std::uint64_t total = 0;
    std::vector<std::uint64_t>& acc = worker_gram[w];
    acc.assign(columns.gram_cells(), 0);
    SliceBuffers<K> buffers;
    for (std::size_t it = first; it < last; ++it) {
      WFBN_FAULT_POINT(fault::Point::kMiSweep);
      const Item& item = items[it];
      visited += buffers.slice(table.partitions().partition(item.partition),
                               item.lo, item.hi, columns, legs, total);
      gram(columns, buffers.view(), buffers.masked(), acc.data());
    }
    worker_total[w] = total;
    stats_.worker_seconds[w] = timer.seconds();
    stats_.worker_entries_visited[w] = visited;
  });

  // Exact integer sum across workers: the result is independent of the
  // partition count, the pool size and the item order.
  std::vector<std::uint64_t> gram_sum(columns.gram_cells(), 0);
  std::uint64_t total = 0;
  for (std::size_t w = 0; w < pool.size(); ++w) {
    total += worker_total[w];
    const std::vector<std::uint64_t>& acc = worker_gram[w];
    for (std::size_t c = 0; c < acc.size(); ++c) gram_sum[c] += acc[c];
  }

  MiMatrix out(n);
  std::vector<std::uint64_t> counts;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      columns.pair_counts(gram_sum, total, i, j, counts);
      out.set(i, j, mi_from_pair_counts(counts.data(), codec.cardinality(i),
                                        codec.cardinality(j)));
    }
  }
  return out;
}

template class BasicAllPairsMi<Key>;
template class BasicAllPairsMi<WideKey>;

MiMatrix wide_all_pairs_mi(const WidePotentialTable& table,
                           std::size_t threads) {
  AllPairsOptions options;
  options.threads = threads;
  options.strategy = AllPairsStrategy::kFused;
  return WideAllPairsMi(options).compute(table);
}

}  // namespace wfbn
