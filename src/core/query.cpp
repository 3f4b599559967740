#include "core/query.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace wfbn {

template <typename K>
BasicQueryEngine<K>::BasicQueryEngine(const Table& table)
    : table_(&table), pool_(nullptr) {}

template <typename K>
BasicQueryEngine<K>::BasicQueryEngine(const Table& table, ThreadPool& pool)
    : table_(&table), pool_(&pool) {}

template <typename K>
MarginalTable BasicQueryEngine<K>::filtered_marginal(
    std::span<const std::size_t> variables,
    std::span<const Evidence> evidence) const {
  if (pool_ == nullptr) return marginalize(*table_, variables, evidence);
  return marginalize(*table_, variables, evidence, *pool_);
}

template <typename K>
std::vector<double> BasicQueryEngine<K>::marginal(
    std::span<const std::size_t> variables) const {
  return conditional(variables, {});
}

template <typename K>
std::vector<double> BasicQueryEngine<K>::conditional(
    std::span<const std::size_t> variables,
    std::span<const Evidence> evidence) const {
  const MarginalTable counts = filtered_marginal(variables, evidence);
  const std::uint64_t total = counts.total();
  if (total == 0) {
    throw DataError("evidence has zero support in the training data");
  }
  std::vector<double> out(counts.cell_count());
  for (std::uint64_t cell = 0; cell < counts.cell_count(); ++cell) {
    out[cell] =
        static_cast<double>(counts.count_at(cell)) / static_cast<double>(total);
  }
  return out;
}

template <typename K>
double BasicQueryEngine<K>::evidence_probability(
    std::span<const Evidence> evidence) const {
  WFBN_EXPECT(!evidence.empty(), "evidence must be non-empty");
  // Every term is checked, the first included: its state indexes the
  // marginal below.
  check_evidence(table_->codec().cardinalities(), {}, evidence);
  // Count matching rows by marginalizing the first evidence variable under
  // the remaining filters, then selecting its observed state.
  const std::size_t vars[] = {evidence.front().variable};
  const MarginalTable counts =
      filtered_marginal(vars, evidence.subspan(1));
  const std::uint64_t matching = counts.count_at(evidence.front().state);
  return static_cast<double>(matching) /
         static_cast<double>(table_->sample_count());
}

template <typename K>
typename BasicQueryEngine<K>::MapResult BasicQueryEngine<K>::most_probable(
    std::span<const std::size_t> variables,
    std::span<const Evidence> evidence) const {
  const std::vector<double> distribution = conditional(variables, evidence);
  const auto best = std::max_element(distribution.begin(), distribution.end());
  std::uint64_t cell =
      static_cast<std::uint64_t>(best - distribution.begin());

  MapResult result;
  result.probability = *best;
  result.states.reserve(variables.size());
  for (const std::size_t v : variables) {
    const std::uint32_t r = table_->codec().cardinality(v);
    result.states.push_back(static_cast<State>(cell % r));
    cell /= r;
  }
  return result;
}

template class BasicQueryEngine<Key>;
template class BasicQueryEngine<WideKey>;

}  // namespace wfbn
