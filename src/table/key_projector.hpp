// Projection of full keys onto the cell index of a variable subset's marginal
// table (paper Eq. 4 per kept variable, never the whole state string). The
// marginalization primitive uses it to validate a variable list and fix the
// output layout; its sweeps decode states from the frozen view's columns
// instead. For a subset
// V = (v_1, ..., v_k), whose order defines the marginal table's layout:
//   project(key) = sum_i decode(key, v_i) * out_stride_i,
//   out_stride_1 = 1,  out_stride_{i+1} = out_stride_i * r_{v_i}.
//
// One class template for both key widths: the per-variable decode recipe is
// KeyTraits<K>::VarLeg, carried as exact reciprocals so a projection never
// divides. The dense-size bound (2^30 cells) is MarginalTable's to enforce.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_set>
#include <vector>

#include "table/key_traits.hpp"
#include "util/error.hpp"

namespace wfbn {

template <typename K>
class BasicKeyProjector {
 public:
  using Traits = KeyTraits<K>;

  /// Throws PreconditionError on an empty subset or a duplicate or
  /// out-of-range variable.
  BasicKeyProjector(const typename Traits::Codec& codec,
                    std::span<const std::size_t> variables)
      : variables_(variables.begin(), variables.end()) {
    WFBN_EXPECT(!variables.empty(), "projection needs at least one variable");
    std::unordered_set<std::size_t> seen;
    legs_.reserve(variables.size());
    cardinalities_.reserve(variables.size());
    for (const std::size_t v : variables) {
      WFBN_EXPECT(v < codec.variable_count(), "projection variable out of range");
      WFBN_EXPECT(seen.insert(v).second, "duplicate projection variable");
      legs_.push_back(Leg{Traits::leg_of(codec, v), range_});
      cardinalities_.push_back(codec.cardinality(v));
      range_ *= codec.cardinality(v);
    }
  }

  /// Index into the marginal table for this key. O(|V|) multiplies.
  [[nodiscard]] std::uint64_t project(K key) const noexcept {
    std::uint64_t out = 0;
    for (const Leg& leg : legs_) {
      out += Traits::decode_leg(leg.var, key) * leg.out_stride;
    }
    return out;
  }

  /// Joint state-space size of the subset (marginal table length).
  [[nodiscard]] std::uint64_t range_size() const noexcept { return range_; }

  [[nodiscard]] const std::vector<std::size_t>& variables() const noexcept {
    return variables_;
  }
  [[nodiscard]] const std::vector<std::uint32_t>& cardinalities() const noexcept {
    return cardinalities_;
  }

 private:
  struct Leg {
    typename Traits::VarLeg var;
    std::uint64_t out_stride;
  };
  std::vector<Leg> legs_;
  std::vector<std::size_t> variables_;
  std::vector<std::uint32_t> cardinalities_;
  std::uint64_t range_ = 1;
};

using KeyProjector = BasicKeyProjector<Key>;
using WideKeyProjector = BasicKeyProjector<WideKey>;

}  // namespace wfbn
