// The marginalization primitive (paper §IV-C, Algorithm 3) — the one sweep
// every marginal in the library goes through: CI tests, family scores,
// served marginals/conditionals and pair MI.
//
// The sweep visits the keys of the table partitions, decodes only the
// variables of interest via a precomputed projector (Eq. 4 per kept variable
// — never the whole state string), and adds each key's count to the marginal
// cell it projects to. Evidence terms filter the keys first; a sweep without
// evidence does no per-key filter work.
//
// Two entry points share one range loop:
//   * marginalize(table, vars[, evidence]) runs inline on the calling thread
//     — the path of CI tests (parallelism comes from many tests in flight)
//     and of served queries (many queries in flight);
//   * marginalize(table, vars, evidence, pool) is Algorithm 3 proper:
//     partitions are block-assigned to the pool's workers (with
//     pool.size() == partition_count this is the one-core-per-hashtable
//     mapping), each worker fills a private partial table, and the partials
//     are merged sequentially at the end. Workers touch disjoint partitions,
//     so the sweep is embarrassingly parallel.
// Counts are exact integers, so both paths return bit-identical tables.
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
/// `marginalizer.sweep` fault point once per partition it sweeps; workers
/// write only their private partials, so a throw leaves no output and the
/// table untouched.
template <typename K>
[[nodiscard]] MarginalTable marginalize(const BasicPotentialTable<K>& table,
                                        std::span<const std::size_t> variables,
                                        std::span<const Evidence> evidence,
                                        ThreadPool& pool);

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

}  // namespace wfbn
