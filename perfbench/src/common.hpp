// Shared pieces of the end-to-end benchmark harness: wall clocks, sample
// statistics, the ordered metric sink, output digests and the per-run
// operation ledger.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "wfbn.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Pool width of the parallel learn (time_to_dag_s), its per-layer split and
/// the data generators: half of the 4-vCPU hosts the benchmark was tuned on.
/// A learn at P=4 needs every vCPU at once, so CPU steal on any one of them
/// stalls the whole pass, and its run-to-run spread was two to three times
/// that at P=2 (perfbench/README.md). Scaling to P=4 stays in the traced run.
inline constexpr std::size_t kWidth = 2;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Linear-interpolated percentile (p in [0, 100]) of an unsorted sample.
double percentile(std::vector<double> values, double p);
inline double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

/// Peak resident set of this process, in MiB.
double peak_rss_mb();

/// Metrics in emission order; each with the unit BENCHMARK.json declares.
class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    items_.push_back({name, value, unit});
  }
  /// `{"name": {"value": v, "unit": "u"}, ...}` with full precision.
  [[nodiscard]] std::string to_json() const;

 private:
  struct Item {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Item> items_;
};

/// Operations attempted and failed in one run, plus the failed checks by
/// name. A failed check is a failed operation and makes the run incorrect.
struct Ledger {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failed_checks;

  void operation(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  void check(bool ok, const std::string& name) {
    operation(ok);
    if (!ok && std::find(failed_checks.begin(), failed_checks.end(), name) ==
                   failed_checks.end()) {
      failed_checks.push_back(name);
    }
  }
  [[nodiscard]] bool correct() const noexcept { return failed_checks.empty(); }
};

/// Which output check a self-test run deliberately breaks (the mutation
/// self-tests prove each check can fail).
enum class Mutation { kNone, kMiCell, kTableEntry, kWireAnswer };

/// Order-independent digest of a potential table's (key, count) multiset:
/// equal for equal tables however they are partitioned.
struct TableDigest {
  std::uint64_t entries = 0;
  std::uint64_t total = 0;
  std::uint64_t mix = 0;
  [[nodiscard]] bool operator==(const TableDigest&) const = default;
};
TableDigest digest(const wfbn::PotentialTable& table,
                   Mutation mutation = Mutation::kNone);

/// Bitwise equality of MI matrices and of answer vectors.
bool same_bits(const wfbn::MiMatrix& a, const wfbn::MiMatrix& b);
bool same_bits(const std::vector<double>& a, const std::vector<double>& b);

/// Escapes nothing: names and units are plain identifiers.
inline std::string json_string(const std::string& s) { return "\"" + s + "\""; }

}  // namespace perfbench
