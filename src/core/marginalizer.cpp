#include "core/marginalizer.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "table/key_projector.hpp"
#include "util/error.hpp"
#include "util/fault_injection.hpp"

namespace wfbn {

namespace {

/// What one sweep needs, precomputed once per call: the projector of the
/// kept variables and, per evidence term, its decode recipe and state.
template <typename K>
class Sweep {
 public:
  using Traits = KeyTraits<K>;

  Sweep(const BasicPotentialTable<K>& table,
        std::span<const std::size_t> variables,
        std::span<const Evidence> evidence)
      : table_(table), projector_(table.codec(), variables) {
    const typename Traits::Codec& codec = table.codec();
    filters_.reserve(evidence.size());
    for (const Evidence& e : evidence) {
      WFBN_EXPECT(e.variable < codec.variable_count(),
                  "evidence variable out of range");
      WFBN_EXPECT(e.state < codec.cardinality(e.variable),
                  "evidence state out of range");
      WFBN_EXPECT(std::find(variables.begin(), variables.end(), e.variable) ==
                      variables.end(),
                  "evidence variables must be disjoint from the query set");
      filters_.push_back(Filter{Traits::leg_of(codec, e.variable), e.state});
    }
  }

  [[nodiscard]] MarginalTable empty_table() const {
    return MarginalTable(projector_.variables(), projector_.cardinalities());
  }

  /// The range loop: adds every key of partitions [lo, hi) that matches the
  /// evidence to its cell of `out`.
  void run(std::size_t lo, std::size_t hi, MarginalTable& out) const {
    for (std::size_t p = lo; p < hi; ++p) {
      const BasicOpenHashTable<K>& partition = table_.partition(p);
      if (filters_.empty()) {
        partition.for_each([&](K key, std::uint64_t c) {
          out.add(projector_.project(key), c);
        });
        continue;
      }
      partition.for_each([&](K key, std::uint64_t c) {
        for (const Filter& f : filters_) {
          if (Traits::decode_leg(f.leg, key) != f.state) return;
        }
        out.add(projector_.project(key), c);
      });
    }
  }

 private:
  struct Filter {
    typename Traits::VarLeg leg;
    std::uint64_t state;
  };

  const BasicPotentialTable<K>& table_;
  BasicKeyProjector<K> projector_;
  std::vector<Filter> filters_;
};

}  // namespace

template <typename K>
MarginalTable marginalize(const BasicPotentialTable<K>& table,
                          std::span<const std::size_t> variables,
                          std::span<const Evidence> evidence) {
  const Sweep<K> sweep(table, variables, evidence);
  MarginalTable out = sweep.empty_table();
  sweep.run(0, table.partition_count(), out);
  return out;
}

template <typename K>
MarginalTable marginalize(const BasicPotentialTable<K>& table,
                          std::span<const std::size_t> variables,
                          std::span<const Evidence> evidence,
                          ThreadPool& pool) {
  const Sweep<K> sweep(table, variables, evidence);
  const std::size_t workers = pool.size();
  const std::size_t parts = table.partition_count();

  // One private partial table per worker (Algorithm 3 lines 5–14).
  std::vector<MarginalTable> partials(workers, sweep.empty_table());
  pool.run([&](std::size_t w) {
    const auto [lo, hi] = ThreadPool::block_range(parts, workers, w);
    for (std::size_t p = lo; p < hi; ++p) {
      WFBN_FAULT_POINT(fault::Point::kMarginalizeSweep);
      sweep.run(p, p + 1, partials[w]);
    }
  });

  // Merge step (Algorithm 3 line 16): marginal tables are tiny, so a
  // sequential cell-wise sum is cheaper than a parallel reduction tree.
  MarginalTable out = std::move(partials[0]);
  for (std::size_t w = 1; w < workers; ++w) out.merge(partials[w]);
  return out;
}

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

}  // namespace wfbn
