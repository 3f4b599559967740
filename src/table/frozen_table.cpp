#include "table/frozen_table.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <utility>

#include "util/fault_injection.hpp"

namespace wfbn {

OneHotColumns::OneHotColumns(std::span<const std::uint32_t> cardinalities) {
  first_.push_back(0);
  for (const std::uint32_t r : cardinalities) {
    const std::size_t next = first_.back() + r - 1;
    for (std::uint32_t a = 0; a + 1 < r; ++a) next_variable_.push_back(next);
    first_.push_back(next);
  }
}

void OneHotColumns::pair_counts(const std::vector<std::uint64_t>& gram,
                                std::uint64_t total, std::size_t i,
                                std::size_t j,
                                std::vector<std::uint64_t>& out) const {
  const std::size_t ri = cardinality(i);
  const std::size_t rj = cardinality(j);
  const std::size_t ci = first_[i];
  const std::size_t cj = first_[j];
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

namespace {

/// Runs body(lo, hi) over [0, count): block-split across `pool`, or inline.
template <typename Body>
void spread(ThreadPool* pool, std::size_t count, const Body& body) {
  if (pool == nullptr) {
    body(std::size_t{0}, count);
    return;
  }
  pool->parallel_for(0, count,
                     [&](std::size_t, std::size_t lo, std::size_t hi) {
                       if (lo < hi) body(lo, hi);
                     });
}

std::size_t excess_width(std::uint64_t count) {
  return static_cast<std::size_t>(std::bit_width(count - 1));
}

}  // namespace

template <typename K>
std::shared_ptr<const FrozenTable> FrozenTable::freeze(
    const typename KeyTraits<K>::Codec& codec,
    const BasicPartitionedTable<K>& partitions, ThreadPool* pool) {
  using Traits = KeyTraits<K>;
  std::shared_ptr<FrozenTable> out(
      new FrozenTable(OneHotColumns(codec.cardinalities())));
  const OneHotColumns& columns = out->columns_;
  const std::size_t n = codec.variable_count();

  // Work items: fixed slot ranges of every partition.
  struct Range {
    std::size_t partition, lo, hi;
  };
  std::vector<Range> ranges;
  for (std::size_t p = 0; p < partitions.partition_count(); ++p) {
    const std::size_t slots = partitions.partition(p).capacity();
    for (std::size_t lo = 0; lo < slots; lo += kItemSlots) {
      ranges.push_back(Range{p, lo, std::min(slots, lo + kItemSlots)});
    }
  }

  // Pass 1: a histogram of excess bit widths per range.
  using Histogram = std::array<std::size_t, kWidths>;
  std::vector<Histogram> histograms(ranges.size(), Histogram{});
  std::vector<std::uint64_t> totals(ranges.size(), 0);
  spread(pool, ranges.size(), [&](std::size_t first, std::size_t last) {
    for (std::size_t r = first; r < last; ++r) {
      const Range& range = ranges[r];
      Histogram& histogram = histograms[r];
      std::uint64_t total = 0;
      partitions.partition(range.partition)
          .for_each_in_slots(range.lo, range.hi, [&](K, std::uint64_t c) {
            ++histogram[excess_width(c)];
            total += c;
          });
      totals[r] = total;
    }
  });

  // The layout: every non-empty range becomes an item, its entries placed in
  // descending excess width; histograms become each width's first position.
  std::vector<std::size_t> item_range;
  std::size_t counts = 0;
  std::size_t bits = 0;
  for (std::size_t r = 0; r < ranges.size(); ++r) {
    Histogram& histogram = histograms[r];
    Item item;
    std::size_t wider = 0;  // entries with an excess width above b
    for (std::size_t b = kWidths; b-- > 0;) {
      if (item.planes == 0 && histogram[b] > 0) item.planes = b;
      const std::size_t here = histogram[b];
      histogram[b] = wider;
      wider += here;
      if (b > 0) {
        item.plane_words[b - 1] = static_cast<std::uint32_t>((wider + 63) / 64);
      }
    }
    if (wider == 0) continue;
    item.entries = wider;
    item.wide = histogram[0];  // width-0 entries start after the wide ones
    item.words = (wider + 63) / 64;
    item.total = totals[r];
    item.first_count = counts;
    item.first_word = bits;
    std::size_t plane_bits = 0;
    for (std::size_t k = 0; k < item.planes; ++k) {
      item.plane_offset[k] = static_cast<std::uint32_t>(plane_bits);
      plane_bits += item.plane_words[k];
    }
    out->entries_ += item.entries;
    counts += item.wide;
    bits += columns.count() * item.words + plane_bits;
    out->max_words_ = std::max(out->max_words_, item.words);
    out->mask_words_ += item.words + plane_bits;
    out->items_.push_back(item);
    item_range.push_back(r);
  }
  out->counts_ = std::make_unique_for_overwrite<std::uint64_t[]>(counts);
  out->bits_ = std::make_unique_for_overwrite<std::uint64_t[]>(bits);
  out->counts_size_ = counts;
  out->bits_size_ = bits;

  // Pass 2: sort each item's entries into a worker's scratch, then transpose
  // them 64 at a time. The transpose gives every state, the last one
  // included, a scratch word (state_of[v] + a), so it sets bits without a
  // branch; column c then copies scratch word column_state[c].
  std::vector<typename Traits::VarLeg> legs;
  std::vector<std::uint32_t> state_of;
  std::vector<std::uint32_t> column_state;
  for (std::size_t v = 0; v < n; ++v) {
    legs.push_back(Traits::leg_of(codec, v));
    state_of.push_back(static_cast<std::uint32_t>(columns.first(v) + v));
    for (std::size_t c = columns.first(v); c < columns.first(v + 1); ++c) {
      column_state.push_back(static_cast<std::uint32_t>(c + v));
    }
  }
  const std::size_t column_count = columns.count();
  spread(pool, out->items_.size(), [&](std::size_t first, std::size_t last) {
    std::vector<std::uint64_t> states(columns.first(n) + n);
    std::vector<K> keys(out->max_words_ * 64);
    for (std::size_t it = first; it < last; ++it) {
      WFBN_FAULT_POINT(fault::Point::kFreezeItem);
      const Item& item = out->items_[it];
      const std::size_t entries = item.entries;
      const std::size_t words = item.words;
      const std::size_t wide = item.wide;
      const Range& range = ranges[item_range[it]];
      Histogram& next = histograms[item_range[it]];
      std::uint64_t* wide_counts = out->counts_.get() + item.first_count;
      partitions.partition(range.partition)
          .for_each_in_slots(range.lo, range.hi, [&](K key, std::uint64_t c) {
            const std::size_t at = next[excess_width(c)]++;
            keys[at] = key;
            if (at < wide) wide_counts[at] = c;
          });

      std::uint64_t* column_bits = out->bits_.get() + item.first_word;
      std::uint64_t* plane_bits = column_bits + column_count * words;
      for (std::size_t g = 0; g < words; ++g) {
        const std::size_t e0 = g * 64;
        const std::size_t group = std::min<std::size_t>(64, entries - e0);
        std::fill(states.begin(), states.end(), 0);
        for (std::size_t i = 0; i < group; ++i) {
          const K key = keys[e0 + i];
          const std::uint64_t bit = std::uint64_t{1} << i;
          for (std::size_t v = 0; v < n; ++v) {
            states[state_of[v] + Traits::decode_leg(legs[v], key)] |= bit;
          }
        }
        for (std::size_t c = 0; c < column_count; ++c) {
          column_bits[c * words + g] = states[column_state[c]];
        }
        const std::size_t excess = wide > e0 ? std::min(group, wide - e0) : 0;
        for (std::size_t k = 0; k < item.planes && g < item.plane_words[k];
             ++k) {
          std::uint64_t word = 0;
          for (std::size_t i = 0; i < excess; ++i) {
            word |= (((wide_counts[e0 + i] - 1) >> k) & 1) << i;
          }
          plane_bits[item.plane_offset[k] + g] = word;
        }
      }
    }
  });
  return out;
}

bool FrozenTable::operator==(const FrozenTable& other) const {
  const auto same = [](const std::uint64_t* a, const std::uint64_t* b,
                       std::size_t size) {
    return size == 0 || std::memcmp(a, b, size * sizeof(*a)) == 0;
  };
  return columns_ == other.columns_ && items_ == other.items_ &&
         counts_size_ == other.counts_size_ &&
         bits_size_ == other.bits_size_ &&
         same(counts_.get(), other.counts_.get(), counts_size_) &&
         same(bits_.get(), other.bits_.get(), bits_size_);
}

template std::shared_ptr<const FrozenTable> FrozenTable::freeze<Key>(
    const KeyCodec&, const BasicPartitionedTable<Key>&, ThreadPool*);
template std::shared_ptr<const FrozenTable> FrozenTable::freeze<WideKey>(
    const WideKeyCodec&, const BasicPartitionedTable<WideKey>&, ThreadPool*);

}  // namespace wfbn
