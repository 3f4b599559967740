#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace perfbench {

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string Metrics::to_json() const {
  std::string out = "{";
  char buf[64];
  for (std::size_t i = 0; i < items_.size(); ++i) {
    const Item& item = items_[i];
    const double v = std::isfinite(item.value) ? item.value : 0.0;
    std::snprintf(buf, sizeof buf, "%.17g", v);
    if (i != 0) out += ", ";
    out += json_string(item.name) + ": {\"value\": " + buf +
           ", \"unit\": " + json_string(item.unit) + "}";
  }
  return out + "}";
}

namespace {

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace

TableDigest digest(const wfbn::PotentialTable& table, Mutation mutation) {
  TableDigest d;
  bool drop = mutation == Mutation::kTableEntry;
  table.for_each([&](wfbn::Key key, std::uint64_t count) {
    if (drop) {
      drop = false;
      return;
    }
    ++d.entries;
    d.total += count;
    d.mix += splitmix(key ^ splitmix(count));  // commutative: order-free
  });
  return d;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool same_bits(const wfbn::MiMatrix& a, const wfbn::MiMatrix& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t j = 0; j < a.size(); ++j) {
      const double x = a.at(i, j);
      const double y = b.at(i, j);
      if (std::memcmp(&x, &y, sizeof x) != 0) return false;
    }
  }
  return true;
}

}  // namespace perfbench
