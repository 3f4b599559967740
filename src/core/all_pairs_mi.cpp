#include "core/all_pairs_mi.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"
#include "util/fault_injection.hpp"
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
  const auto pairs = enumerate_pairs(n);
  const std::size_t parts = table.partitions().partition_count();

  // Flat per-worker buffer holding all pair tables back to back.
  std::vector<std::size_t> offsets(pairs.size() + 1, 0);
  for (std::size_t k = 0; k < pairs.size(); ++k) {
    const auto [i, j] = pairs[k];
    offsets[k + 1] = offsets[k] + static_cast<std::size_t>(codec.cardinality(i)) *
                                      codec.cardinality(j);
  }
  std::vector<std::vector<std::uint64_t>> worker_counts(
      pool.size(), std::vector<std::uint64_t>(offsets.back(), 0));

  // Decode-of-interest recipes (Eq. 4) for every variable, hoisted out of
  // the sweep. decode_leg extracts each variable independently of the others
  // ((key / stride) % r), so the n extractions per key pipeline instead of
  // forming decode_all's chain of dependent divisions.
  std::vector<typename Traits::VarLeg> legs;
  legs.reserve(n);
  for (std::size_t v = 0; v < n; ++v) legs.push_back(Traits::leg_of(codec, v));

  pool.run([&](std::size_t w) {
    Timer timer;
    std::uint64_t visited = 0;
    std::vector<std::uint64_t>& counts = worker_counts[w];
    std::vector<State> states(n);
    const auto [lo, hi] = ThreadPool::block_range(parts, pool.size(), w);
    for (std::size_t p = lo; p < hi; ++p) {
      WFBN_FAULT_POINT(fault::Point::kMiSweep);
      table.partitions().partition(p).for_each([&](K key, std::uint64_t c) {
        for (std::size_t v = 0; v < n; ++v) {
          states[v] = static_cast<State>(Traits::decode_leg(legs[v], key));
        }
        ++visited;
        for (std::size_t k = 0; k < pairs.size(); ++k) {
          const auto [i, j] = pairs[k];
          counts[offsets[k] + states[i] +
                 static_cast<std::size_t>(codec.cardinality(i)) * states[j]] += c;
        }
      });
    }
    stats_.worker_seconds[w] = timer.seconds();
    stats_.worker_entries_visited[w] = visited;
  });

  // Merge worker buffers into worker 0's, the pool splitting the cell range:
  // each worker folds a disjoint block of cells across all buffers, so the
  // merge parallelizes without any two workers writing the same word.
  std::vector<std::uint64_t>& merged = worker_counts[0];
  pool.parallel_for(0, merged.size(),
                    [&](std::size_t, std::size_t lo, std::size_t hi) {
                      for (std::size_t w = 1; w < worker_counts.size(); ++w) {
                        const std::vector<std::uint64_t>& src = worker_counts[w];
                        for (std::size_t c = lo; c < hi; ++c) {
                          merged[c] += src[c];
                        }
                      }
                    });
  MiMatrix out(n);
  for (std::size_t k = 0; k < pairs.size(); ++k) {
    const auto [i, j] = pairs[k];
    out.set(i, j, mi_from_pair_counts(merged.data() + offsets[k],
                                      codec.cardinality(i), codec.cardinality(j)));
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
