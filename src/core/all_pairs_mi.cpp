#include "core/all_pairs_mi.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "core/marginalizer.hpp"
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
// Pair counts as a Gram matrix over the frozen view's one-hot columns (table/
// frozen_table.hpp): with column c = [x_v == a] for variable v and state
// a < r_v - 1, N(c1, c2) = popcount(col_c1 & col_c2) + sum_k 2^k *
// popcount(col_c1 & col_c2 & plane_k) over the entries, 64 per word, where
// plane k holds bit k of each entry's excess (count - 1). The last state of
// each variable is left out and recovered by subtraction from the marginals
// (the diagonal) and the total, so every cell is the same integer the
// scatter sweep counts.

/// Folds one frozen item into the upper-triangle accumulator `acc`.
/// `masked` holds one item's plane words (col_c1 & plane_k, reused across c2).
inline void gram_accumulate_body(const OneHotColumns& columns,
                                 const ItemBits& s, std::uint64_t* masked,
                                 std::uint64_t* acc) {
  const std::size_t count = columns.count();
  for (std::size_t c1 = 0; c1 < count; ++c1) {
    const std::uint64_t* col1 = s.column(c1);
    std::uint64_t* row = acc + columns.row_offset(c1);
    std::uint64_t diagonal = 0;
    for (std::size_t w = 0; w < s.words; ++w) {
      diagonal += static_cast<std::uint64_t>(std::popcount(col1[w]));
    }
    for (std::size_t k = 0; k < s.planes; ++k) {
      const std::uint64_t* plane = s.plane(k);
      std::uint64_t* m = masked + s.plane_offset[k];
      std::uint64_t ones = 0;
      for (std::size_t w = 0; w < s.plane_words[k]; ++w) {
        m[w] = col1[w] & plane[w];
        ones += static_cast<std::uint64_t>(std::popcount(m[w]));
      }
      diagonal += ones << k;
    }
    row[c1] += diagonal;
    for (std::size_t c2 = columns.next_variable(c1); c2 < count; ++c2) {
      const std::uint64_t* col2 = s.column(c2);
      std::uint64_t sum = 0;
      for (std::size_t w = 0; w < s.words; ++w) {
        sum += static_cast<std::uint64_t>(std::popcount(col1[w] & col2[w]));
      }
      for (std::size_t k = 0; k < s.planes; ++k) {
        const std::uint64_t* m = masked + s.plane_offset[k];
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

using GramFn = void (*)(const OneHotColumns&, const ItemBits&, std::uint64_t*,
                        std::uint64_t*);

/// Portable level: std::popcount as the target baseline compiles it.
void gram_accumulate_scalar(const OneHotColumns& columns, const ItemBits& s,
                            std::uint64_t* masked, std::uint64_t* acc) {
  gram_accumulate_body(columns, s, masked, acc);
}

/// avx2 level: the same loop compiled for AVX2 hosts, where std::popcount
/// becomes the POPCNT instruction.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
__attribute__((target("avx2,popcnt"), flatten))
#endif
void gram_accumulate_avx2(const OneHotColumns& columns, const ItemBits& s,
                          std::uint64_t* masked, std::uint64_t* acc) {
  gram_accumulate_body(columns, s, masked, acc);
}

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
      // One full sweep per pair that decodes only the pair's two variables
      // (Eq. 4's decode of interest): the marginal kernel's projector path.
      const std::size_t vars[] = {i, j};
      const MarginalTable counts =
          detail::marginalize_on(MarginalPath::kProjector, table, vars);
      visited += table.frozen().entries();
      out.set(i, j, mi_from_pair_counts(counts.raw_counts().data(),
                                        codec.cardinality(i),
                                        codec.cardinality(j)));
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
  // Work items: the frozen view's items, fixed slot ranges of every
  // partition, so a table with fewer partitions than workers still spreads
  // over the whole pool.
  const FrozenTable& frozen = table.frozen();
  const OneHotColumns& columns = frozen.columns();
  const auto& items = frozen.items();

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
    std::vector<std::uint64_t> masked;
    for (std::size_t it = first; it < last; ++it) {
      WFBN_FAULT_POINT(fault::Point::kMiSweep);
      const ItemBits bits = frozen.bits(items[it]);
      const std::size_t plane_words =
          bits.planes == 0
              ? 0
              : bits.plane_offset[bits.planes - 1] +
                    bits.plane_words[bits.planes - 1];
      if (masked.size() < plane_words) masked.resize(plane_words);
      gram(columns, bits, masked.data(), acc.data());
      visited += items[it].entries;
      total += items[it].total;
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
