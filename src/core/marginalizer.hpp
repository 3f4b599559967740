// The marginalization primitive (paper §IV-C, Algorithm 3) — the one kernel
// every marginal in the library goes through: CI tests, family scores,
// served marginals/conditionals and pair MI.
//
// It reads the table's frozen view (table/frozen_table.hpp) by one of two
// paths, picked per call by a fixed cost rule (marginal_path()):
//   * popcount: a depth-first walk over the kept variables' states that
//     ANDs one-hot column words, 64 entries per word. A cell's count is the
//     weight of its mask (popcount plus the excess bit-planes); a variable's
//     last state is the mask its other states leave, and its count comes by
//     subtraction. Evidence terms become column masks (a last state: the
//     complement of the variable's columns). Cost ∝ masks × words.
//   * projector: a sweep over the entries, 64 per block, that decodes only
//     the variables of interest (their states were decoded once, by Eq. 4,
//     when the table was frozen, and are read back from the column bits)
//     and adds each entry's count to its cell. Evidence terms filter the
//     block first. Cost ∝ keys × terms.
// The rule takes the popcount path when masks × words read per mask is
// below kProjectorWordsPerKeyTerm × keys × (variables + evidence terms);
// EXPERIMENTS.md has the measurement behind the constant.
//
// Two entry points share one item-range loop:
//   * marginalize(table, vars[, evidence]) runs inline on the calling thread
//     — the path of CI tests (parallelism comes from many tests in flight)
//     and of served queries (many queries in flight);
//   * marginalize(table, vars, evidence, pool) is Algorithm 3 proper: the
//     frozen items are block-assigned to the pool's workers, each worker
//     fills a private partial table, and the partials are merged
//     sequentially at the end.
// Counts are exact integers, so both entry points and both paths return
// bit-identical tables.
#pragma once

#include <cstdint>
#include <span>

#include "concurrent/thread_pool.hpp"
#include "table/marginal_table.hpp"
#include "table/potential_table.hpp"

namespace wfbn {

/// One observed variable: a filter term of a marginal sweep.
struct Evidence {
  std::size_t variable;
  State state;
};

/// Throws PreconditionError unless every evidence term names a variable in
/// range (of `cardinalities`), a state below its cardinality, and a
/// variable outside `variables`.
void check_evidence(std::span<const std::uint32_t> cardinalities,
                    std::span<const std::size_t> variables,
                    std::span<const Evidence> evidence);

/// The two read paths of the kernel.
enum class MarginalPath { kPopcount, kProjector };

/// The cost rule's constant: one key-term decode of the projector path costs
/// about as much as this many mask words of the popcount path.
inline constexpr std::uint64_t kProjectorWordsPerKeyTerm = 2;

/// Count table of `variables` (their order defines the output layout) over
/// the keys matching every `evidence` term, swept on the calling thread.
/// Throws PreconditionError on an empty, duplicate or out-of-range variable,
/// an out-of-range evidence variable or state, or evidence on a variable of
/// `variables`.
template <typename K>
[[nodiscard]] MarginalTable marginalize(
    const BasicPotentialTable<K>& table,
    std::span<const std::size_t> variables,
    std::span<const Evidence> evidence = {});

/// Same table, swept across `pool`. Each worker fires the
/// `marginalizer.sweep` fault point once for its range of items; workers
/// write only their private partials, so a throw leaves no output and the
/// table untouched.
template <typename K>
[[nodiscard]] MarginalTable marginalize(const BasicPotentialTable<K>& table,
                                        std::span<const std::size_t> variables,
                                        std::span<const Evidence> evidence,
                                        ThreadPool& pool);

/// The path marginalize() takes for these arguments (same preconditions).
template <typename K>
[[nodiscard]] MarginalPath marginal_path(
    const BasicPotentialTable<K>& table,
    std::span<const std::size_t> variables,
    std::span<const Evidence> evidence = {});

namespace detail {
/// marginalize() on a given path rather than the rule's: the measurement
/// hook of the rule's constant and the oracle tests of both paths.
template <typename K>
[[nodiscard]] MarginalTable marginalize_on(
    MarginalPath path, const BasicPotentialTable<K>& table,
    std::span<const std::size_t> variables,
    std::span<const Evidence> evidence = {});
}  // namespace detail

extern template MarginalTable marginalize<Key>(const PotentialTable&,
                                               std::span<const std::size_t>,
                                               std::span<const Evidence>);
extern template MarginalTable marginalize<WideKey>(
    const WidePotentialTable&, std::span<const std::size_t>,
    std::span<const Evidence>);
extern template MarginalTable marginalize<Key>(const PotentialTable&,
                                               std::span<const std::size_t>,
                                               std::span<const Evidence>,
                                               ThreadPool&);
extern template MarginalTable marginalize<WideKey>(
    const WidePotentialTable&, std::span<const std::size_t>,
    std::span<const Evidence>, ThreadPool&);
extern template MarginalPath marginal_path<Key>(const PotentialTable&,
                                                std::span<const std::size_t>,
                                                std::span<const Evidence>);
extern template MarginalPath marginal_path<WideKey>(
    const WidePotentialTable&, std::span<const std::size_t>,
    std::span<const Evidence>);

}  // namespace wfbn
