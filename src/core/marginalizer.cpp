#include "core/marginalizer.hpp"

#include <algorithm>
#include <bit>
#include <utility>
#include <vector>

#include "table/key_projector.hpp"
#include "util/error.hpp"
#include "util/fault_injection.hpp"
#include "util/simd.hpp"

namespace wfbn {

void check_evidence(std::span<const std::uint32_t> cardinalities,
                    std::span<const std::size_t> variables,
                    std::span<const Evidence> evidence) {
  for (const Evidence& e : evidence) {
    WFBN_EXPECT(e.variable < cardinalities.size(),
                "evidence variable out of range");
    WFBN_EXPECT(e.state < cardinalities[e.variable],
                "evidence state out of range");
    WFBN_EXPECT(std::find(variables.begin(), variables.end(), e.variable) ==
                    variables.end(),
                "evidence variables must be disjoint from the query set");
  }
}

namespace {

// ---- Popcount path kernels ----------------------------------------------

/// Weight of a & b over one item: the entries in both masks, each counted
/// with its count (popcount plus the excess planes). Stores a & b into `out`
/// when kStore.
template <bool kStore>
inline std::uint64_t and_weight(const ItemBits& bits, const std::uint64_t* a,
                                const std::uint64_t* b, std::uint64_t* out) {
  std::uint64_t weight = 0;
  for (std::size_t w = 0; w < bits.words; ++w) {
    const std::uint64_t m = a[w] & b[w];
    if constexpr (kStore) out[w] = m;
    weight += static_cast<std::uint64_t>(std::popcount(m));
  }
  for (std::size_t k = 0; k < bits.planes; ++k) {
    const std::uint64_t* plane = bits.plane(k);
    std::uint64_t ones = 0;
    for (std::size_t w = 0; w < bits.plane_words[k]; ++w) {
      ones += static_cast<std::uint64_t>(std::popcount(a[w] & b[w] & plane[w]));
    }
    weight += ones << k;
  }
  return weight;
}

using AndWeightFn = std::uint64_t (*)(const ItemBits&, const std::uint64_t*,
                                      const std::uint64_t*, std::uint64_t*);

/// Portable level: std::popcount as the target baseline compiles it.
std::uint64_t and_store_scalar(const ItemBits& bits, const std::uint64_t* a,
                               const std::uint64_t* b, std::uint64_t* out) {
  return and_weight<true>(bits, a, b, out);
}
std::uint64_t and_weigh_scalar(const ItemBits& bits, const std::uint64_t* a,
                               const std::uint64_t* b, std::uint64_t* out) {
  return and_weight<false>(bits, a, b, out);
}

/// avx2 level: the same loops compiled for AVX2 hosts, where std::popcount
/// becomes the POPCNT instruction.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define WFBN_POPCNT_TARGET __attribute__((target("avx2,popcnt"), flatten))
#else
#define WFBN_POPCNT_TARGET
#endif
WFBN_POPCNT_TARGET std::uint64_t and_store_avx2(const ItemBits& bits,
                                                const std::uint64_t* a,
                                                const std::uint64_t* b,
                                                std::uint64_t* out) {
  return and_weight<true>(bits, a, b, out);
}
WFBN_POPCNT_TARGET std::uint64_t and_weigh_avx2(const ItemBits& bits,
                                                const std::uint64_t* a,
                                                const std::uint64_t* b,
                                                std::uint64_t* out) {
  return and_weight<false>(bits, a, b, out);
}
#undef WFBN_POPCNT_TARGET

/// One call's plan, made once: the validated variables (by the key
/// projector, which also fixes the output layout), the evidence filters,
/// each kept variable's columns and output stride, and the path the cost
/// rule picks.
template <typename K>
class Sweep {
 public:
  Sweep(const BasicPotentialTable<K>& table,
        std::span<const std::size_t> variables,
        std::span<const Evidence> evidence)
      : frozen_(table.frozen()), projector_(table.codec(), variables) {
    check_evidence(table.codec().cardinalities(), variables, evidence);
    const OneHotColumns& columns = frozen_.columns();
    filters_.reserve(evidence.size());
    for (const Evidence& e : evidence) {
      filters_.push_back(Filter{e.state, columns.first(e.variable),
                                columns.cardinality(e.variable)});
    }
    double masks = static_cast<double>(evidence.size());
    double cells = 1.0;
    std::uint64_t stride = 1;
    for (const std::size_t v : variables) {
      const std::uint32_t r = columns.cardinality(v);
      levels_.push_back(Level{columns.first(v), r, stride});
      stride *= r;
      cells *= r;
      masks += cells;
    }
    const double terms = static_cast<double>(variables.size() + evidence.size());
    const double popcount_cost =
        masks * static_cast<double>(frozen_.mask_words());
    const double projector_cost = static_cast<double>(kProjectorWordsPerKeyTerm) *
                                  static_cast<double>(frozen_.entries()) * terms;
    path_ = popcount_cost < projector_cost ? MarginalPath::kPopcount
                                           : MarginalPath::kProjector;
  }

  [[nodiscard]] MarginalPath path() const noexcept { return path_; }
  void force(MarginalPath path) noexcept { path_ = path; }

  [[nodiscard]] MarginalTable empty_table() const {
    return MarginalTable(projector_.variables(), projector_.cardinalities());
  }

  /// Adds every entry of items [lo, hi) that matches the evidence to its
  /// cell of `out`.
  void run(std::size_t lo, std::size_t hi, MarginalTable& out) const {
    if (path_ == MarginalPath::kPopcount) {
      PopcountWalk walk(*this, out);
      for (std::size_t it = lo; it < hi; ++it) walk.item(frozen_.items()[it]);
      return;
    }
    for (std::size_t it = lo; it < hi; ++it) project(frozen_.items()[it], out);
  }

 private:
  struct Filter {
    std::uint64_t state;
    std::size_t first_column;
    std::uint32_t cardinality;
  };
  struct Level {
    std::size_t first_column;
    std::uint32_t cardinality;
    std::uint64_t out_stride;
  };

  /// The projector path over one item, 64 entries a block: each entry's
  /// cell starts at every level's last state and moves down by the state
  /// its column bits name; the entries that match the evidence then add
  /// their counts.
  void project(const FrozenTable::Item& item, MarginalTable& out) const {
    const ItemBits bits = frozen_.bits(item);
    const std::uint64_t* wide_counts = frozen_.wide_counts(item);
    std::uint64_t last_cell = 0;
    for (const Level& level : levels_) {
      last_cell += (level.cardinality - 1) * level.out_stride;
    }
    std::uint64_t cell[64];
    for (std::size_t g = 0; g < bits.words; ++g) {
      const std::size_t e0 = g * 64;
      const std::size_t group = std::min<std::size_t>(64, item.entries - e0);
      std::uint64_t match =
          group == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << group) - 1;
      for (const Filter& f : filters_) {
        std::uint64_t others = 0;
        for (std::uint32_t a = 0; a + 1 < f.cardinality; ++a) {
          const std::uint64_t word = bits.column(f.first_column + a)[g];
          if (a == f.state) match &= word;
          others |= word;
        }
        if (f.state + 1 == f.cardinality) match &= ~others;
      }
      if (match == 0) continue;
      std::fill(cell, cell + group, last_cell);
      for (const Level& level : levels_) {
        for (std::uint32_t a = 0; a + 1 < level.cardinality; ++a) {
          const std::uint64_t down =
              (level.cardinality - 1 - a) * level.out_stride;
          for (std::uint64_t word = bits.column(level.first_column + a)[g] &
                                    match;
               word != 0; word &= word - 1) {
            cell[std::countr_zero(word)] -= down;
          }
        }
      }
      for (std::uint64_t word = match; word != 0; word &= word - 1) {
        const auto i = static_cast<std::size_t>(std::countr_zero(word));
        const std::size_t e = e0 + i;
        out.add(cell[i], e < item.wide ? wide_counts[e] : 1);
      }
    }
  }

  /// The popcount path over one item at a time: a depth-first walk over the
  /// levels' states with one child and one last-state mask per inner level.
  class PopcountWalk {
   public:
    PopcountWalk(const Sweep& sweep, MarginalTable& out)
        : sweep_(sweep),
          out_(out),
          words_(sweep.frozen_.max_words()),
          scratch_((2 + 2 * sweep.levels_.size()) * words_) {
      const bool avx2 = simd::detected() >= simd::Level::kAvx2;
      and_store_ = avx2 ? &and_store_avx2 : &and_store_scalar;
      and_weigh_ = avx2 ? &and_weigh_avx2 : &and_weigh_scalar;
    }

    void item(const FrozenTable::Item& item) {
      bits_ = sweep_.frozen_.bits(item);
      std::uint64_t* root = buffer(0);
      std::fill(root, root + bits_.words, ~std::uint64_t{0});
      if (item.entries % 64 != 0) {
        root[bits_.words - 1] = (std::uint64_t{1} << (item.entries % 64)) - 1;
      }
      std::uint64_t weight = item.total;
      for (const Filter& f : sweep_.filters_) {
        const std::uint64_t* term = evidence_mask(f, root);
        weight = and_store_(bits_, root, term, root);
        if (weight == 0) return;
      }
      visit(0, root, weight, 0);
    }

   private:
    /// Buffer 0 is the root, 1 a term scratch, then child and last per level.
    std::uint64_t* buffer(std::size_t i) { return scratch_.data() + i * words_; }

    /// The entries whose evidence variable is in the observed state: its
    /// column, or for a last state the valid entries no column claims.
    const std::uint64_t* evidence_mask(const Filter& f,
                                       const std::uint64_t* valid) {
      if (f.state + 1 < f.cardinality) {
        return bits_.column(f.first_column + f.state);
      }
      std::uint64_t* term = buffer(1);
      std::copy(valid, valid + bits_.words, term);
      for (std::uint32_t a = 0; a + 1 < f.cardinality; ++a) {
        const std::uint64_t* column = bits_.column(f.first_column + a);
        for (std::size_t w = 0; w < bits_.words; ++w) term[w] &= ~column[w];
      }
      return term;
    }

    void visit(std::size_t depth, const std::uint64_t* mask,
               std::uint64_t weight, std::uint64_t cell) {
      const Level& level = sweep_.levels_[depth];
      const std::uint32_t last_state = level.cardinality - 1;
      std::uint64_t rest = weight;
      if (depth + 1 == sweep_.levels_.size()) {
        for (std::uint32_t a = 0; a < last_state; ++a) {
          const std::uint64_t c = and_weigh_(
              bits_, mask, bits_.column(level.first_column + a), nullptr);
          if (c == 0) continue;
          out_.add(cell + a * level.out_stride, c);
          rest -= c;
        }
        if (rest != 0) out_.add(cell + last_state * level.out_stride, rest);
        return;
      }
      std::uint64_t* child = buffer(2 + 2 * depth);
      std::uint64_t* last = buffer(3 + 2 * depth);
      std::copy(mask, mask + bits_.words, last);
      for (std::uint32_t a = 0; a < last_state; ++a) {
        // Every entry counts at least 1, so weight 0 means an empty mask.
        const std::uint64_t c = and_store_(
            bits_, mask, bits_.column(level.first_column + a), child);
        if (c == 0) continue;
        for (std::size_t w = 0; w < bits_.words; ++w) last[w] ^= child[w];
        visit(depth + 1, child, c, cell + a * level.out_stride);
        rest -= c;
      }
      if (rest != 0) {
        visit(depth + 1, last, rest, cell + last_state * level.out_stride);
      }
    }

    const Sweep& sweep_;
    MarginalTable& out_;
    std::size_t words_;
    std::vector<std::uint64_t> scratch_;
    ItemBits bits_;
    AndWeightFn and_store_;
    AndWeightFn and_weigh_;
  };

  const FrozenTable& frozen_;
  BasicKeyProjector<K> projector_;
  std::vector<Filter> filters_;
  std::vector<Level> levels_;
  MarginalPath path_ = MarginalPath::kProjector;
};

template <typename K>
MarginalTable run_inline(const Sweep<K>& sweep,
                         const BasicPotentialTable<K>& table) {
  MarginalTable out = sweep.empty_table();
  sweep.run(0, table.frozen().items().size(), out);
  return out;
}

}  // namespace

template <typename K>
MarginalTable marginalize(const BasicPotentialTable<K>& table,
                          std::span<const std::size_t> variables,
                          std::span<const Evidence> evidence) {
  return run_inline(Sweep<K>(table, variables, evidence), table);
}

template <typename K>
MarginalTable marginalize(const BasicPotentialTable<K>& table,
                          std::span<const std::size_t> variables,
                          std::span<const Evidence> evidence,
                          ThreadPool& pool) {
  const Sweep<K> sweep(table, variables, evidence);
  const std::size_t workers = pool.size();
  const std::size_t items = table.frozen().items().size();

  // One private partial table per worker (Algorithm 3 lines 5–14).
  std::vector<MarginalTable> partials(workers, sweep.empty_table());
  pool.run([&](std::size_t w) {
    const auto [lo, hi] = ThreadPool::block_range(items, workers, w);
    if (lo == hi) return;
    WFBN_FAULT_POINT(fault::Point::kMarginalizeSweep);
    sweep.run(lo, hi, partials[w]);
  });

  // Merge step (Algorithm 3 line 16): marginal tables are tiny, so a
  // sequential cell-wise sum is cheaper than a parallel reduction tree.
  MarginalTable out = std::move(partials[0]);
  for (std::size_t w = 1; w < workers; ++w) out.merge(partials[w]);
  return out;
}

template <typename K>
MarginalPath marginal_path(const BasicPotentialTable<K>& table,
                           std::span<const std::size_t> variables,
                           std::span<const Evidence> evidence) {
  return Sweep<K>(table, variables, evidence).path();
}

namespace detail {
template <typename K>
MarginalTable marginalize_on(MarginalPath path,
                             const BasicPotentialTable<K>& table,
                             std::span<const std::size_t> variables,
                             std::span<const Evidence> evidence) {
  Sweep<K> sweep(table, variables, evidence);
  sweep.force(path);
  return run_inline(sweep, table);
}

template MarginalTable marginalize_on<Key>(MarginalPath, const PotentialTable&,
                                           std::span<const std::size_t>,
                                           std::span<const Evidence>);
template MarginalTable marginalize_on<WideKey>(MarginalPath,
                                               const WidePotentialTable&,
                                               std::span<const std::size_t>,
                                               std::span<const Evidence>);
}  // namespace detail

template MarginalTable marginalize<Key>(const PotentialTable&,
                                        std::span<const std::size_t>,
                                        std::span<const Evidence>);
template MarginalTable marginalize<WideKey>(const WidePotentialTable&,
                                            std::span<const std::size_t>,
                                            std::span<const Evidence>);
template MarginalTable marginalize<Key>(const PotentialTable&,
                                        std::span<const std::size_t>,
                                        std::span<const Evidence>,
                                        ThreadPool&);
template MarginalTable marginalize<WideKey>(const WidePotentialTable&,
                                            std::span<const std::size_t>,
                                            std::span<const Evidence>,
                                            ThreadPool&);
template MarginalPath marginal_path<Key>(const PotentialTable&,
                                         std::span<const std::size_t>,
                                         std::span<const Evidence>);
template MarginalPath marginal_path<WideKey>(const WidePotentialTable&,
                                             std::span<const std::size_t>,
                                             std::span<const Evidence>);

}  // namespace wfbn
