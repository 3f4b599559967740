// The wait-free table-construction primitive (paper §IV-B, Algorithms 1–2).
//
// Key-space ownership is split across P cores. Stage 1: each core scans its
// block of the training data, encodes each row (Eq. 3), updates its own
// hashtable for keys it owns and pushes foreign keys onto the SPSC queue
// addressed to the owner. One barrier. Stage 2: each core drains the queues
// addressed to it into its own table. Every memory word has exactly one
// writer per stage, so no locks and no retries: both stages are wait-free,
// and the only synchronization is the single barrier crossing.
//
// The builder is a template over the key type (KeyTraits): WaitFreeBuilder
// produces narrow (64-bit key) tables, WideWaitFreeBuilder two-word tables
// for joint spaces up to 2^126. Both instantiations share every line of the
// kernel — including the incremental append() with its strong exception
// guarantee, the shadow-copy serving hook, degradation accounting, and all
// named fault points.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "concurrent/thread_pool.hpp"
#include "data/dataset.hpp"
#include "table/partitioned_table.hpp"
#include "table/potential_table.hpp"
#include "util/simd.hpp"

namespace wfbn {

struct WaitFreeBuilderOptions {
  std::size_t threads = 1;
  PartitionScheme scheme = PartitionScheme::kModulo;
  /// Pin worker p to core p when the OS allows it. A refused pin degrades
  /// (unpinned worker, counted in BuildStats::pin_failures) instead of
  /// failing the build.
  bool pin_threads = false;
  /// Pre-size per-partition hashtables; 0 derives an estimate from m.
  std::size_t expected_distinct_keys = 0;
  /// Stage-1 write-combining: keys staged per destination worker before the
  /// router flushes them into the SPSC fabric with one bulk publish
  /// (SpscQueue::push_block). 1 reproduces the pre-block behavior of one
  /// release store per key. Buffers are always flushed before the barrier —
  /// see docs/ALGORITHMS.md ("Block routing fast path").
  std::size_t route_buffer_keys = 64;
  /// Rows encoded per strip in stage 1 before any routing, so the codec's
  /// mixed-radix multiply chain pipelines instead of alternating with
  /// table/queue traffic. 1 reproduces the row-at-a-time behavior.
  std::size_t encode_block_rows = 32;
  /// Kernel dispatch for the stage-1 encode strips: kAuto resolves to the
  /// best level the host supports (util/simd.hpp — AVX2 SoA tiles on capable
  /// x86, the scalar reference loop otherwise); kScalar forces the reference
  /// loop; kAvx2 asks for the vector tiles and silently degrades when the
  /// host lacks them. Every level is bit-identical (oracle-gated). The
  /// effective level of the last build is reported in BuildStats::simd_level.
  simd::Policy simd = simd::Policy::kAuto;
};

/// Per-worker instrumentation. The counts feed the multicore scaling
/// simulator (src/sim): they are exactly the per-core work terms of the
/// paper's O(m·n/P) analysis.
struct WorkerStats {
  std::uint64_t rows_encoded = 0;    ///< stage-1 rows this worker scanned
  std::uint64_t local_updates = 0;   ///< stage-1 updates into its own table
  std::uint64_t foreign_pushes = 0;  ///< stage-1 keys routed to other owners
  std::uint64_t stage2_pops = 0;     ///< stage-2 keys drained into its table
  std::uint64_t route_flushes = 0;   ///< write-combining buffer flushes issued
  std::uint64_t bulk_pops = 0;       ///< published chunk spans consumed whole
  double stage1_seconds = 0.0;
  double stage2_seconds = 0.0;
};

struct BuildStats {
  std::vector<WorkerStats> workers;
  /// Whole build or append, the freeze of the finished table included.
  double total_seconds = 0.0;
  /// Barrier crossing cost: the max over workers of the time spent inside
  /// arrive_and_wait (the slowest worker's wait dominates the makespan).
  double barrier_seconds = 0.0;

  /// Requested vs. effective parallelism: the two differ when thread spawn
  /// failed mid-construction and the build degraded to fewer workers (see
  /// ThreadPool's DegradationReport). pin_failures counts workers that asked
  /// for a core pin and ran unpinned instead.
  std::size_t requested_workers = 0;
  std::size_t effective_workers = 0;
  std::size_t pin_failures = 0;

  /// Effective encode dispatch level of the build (options.simd resolved
  /// against the host; forced and env downgrades included).
  simd::Level simd_level = simd::Level::kScalar;

  [[nodiscard]] bool degraded() const noexcept {
    return effective_workers < requested_workers || pin_failures > 0;
  }

  [[nodiscard]] std::uint64_t total_foreign_pushes() const noexcept;
  [[nodiscard]] std::uint64_t total_local_updates() const noexcept;
  /// Routing efficiency counters of the block fast path: how many bulk
  /// flushes stage 1 issued and how many whole chunk spans stage 2 consumed.
  /// foreign_pushes / flushes ≈ keys per release store; stage2_pops /
  /// bulk_pops ≈ keys per acquire load.
  [[nodiscard]] std::uint64_t total_route_flushes() const noexcept;
  [[nodiscard]] std::uint64_t total_bulk_pops() const noexcept;
  /// max_p(stage1_p) + max_p(stage2_p): the makespan a P-core machine would
  /// observe if each worker ran on its own core.
  [[nodiscard]] double critical_path_seconds() const noexcept;
};

template <typename K>
class BasicWaitFreeBuilder {
 public:
  using Traits = KeyTraits<K>;
  using Codec = typename Traits::Codec;
  using Table = BasicPotentialTable<K>;

  explicit BasicWaitFreeBuilder(WaitFreeBuilderOptions options = {});

  /// Builds the potential table of `data` with options().threads workers on
  /// an internally managed pool.
  [[nodiscard]] Table build(const Dataset& data);

  /// Same, reusing an existing pool (pool.size() overrides options().threads).
  [[nodiscard]] Table build(const Dataset& data, ThreadPool& pool);

  /// Incremental update: folds additional observations into an existing
  /// table with the same two-stage wait-free procedure (training data often
  /// arrives in batches). Preconditions (checked): the dataset's
  /// cardinalities match the table's codec and the table has not been
  /// rebalance()d (ownership must still hold). Throws
  /// DataError/PreconditionError on violation.
  ///
  /// Strong exception-safety guarantee: the batch is staged into scratch
  /// partitions, merged into a copy of the table's partitions and frozen;
  /// only the finished table replaces `table` (a non-throwing move). If
  /// anything throws mid-append — a worker kernel, a queue allocation, the
  /// freeze, an injected fault — the table is bit-identical to its pre-call
  /// state, including its sample count and frozen view.
  void append(const Dataset& data, Table& table);

  /// Shadow-copy update — the publication hook of the serving layer
  /// (serve::TableStore): folds `data` into a copy of `base` with append()'s
  /// staged two-stage kernel and returns it, frozen. `base` itself is never
  /// written, so concurrent readers may keep sweeping it for the whole
  /// duration of the fold; the caller decides when (and whether) to publish
  /// the result. Same preconditions as append(); a throw discards the shadow.
  [[nodiscard]] Table append_shadow(const Dataset& data, const Table& base);

  /// Instrumentation from the most recent build().
  [[nodiscard]] const BuildStats& stats() const noexcept { return stats_; }

  [[nodiscard]] const WaitFreeBuilderOptions& options() const noexcept {
    return options_;
  }

 private:
  /// The two-stage kernel over an existing partitioned table (used by both
  /// build and append). Refreshes stats_ except total_seconds. The
  /// pool may hold fewer workers than the table has partitions (a degraded
  /// pool): partitions are then block-assigned to workers, preserving the
  /// one-writer-per-partition invariant at reduced parallelism.
  void run_phased(const Dataset& data, const Codec& codec,
                  BasicPartitionedTable<K>& table, ThreadPool& pool);
  /// append() and append_shadow(): `base` plus `data`, as a new table.
  [[nodiscard]] Table fold(const Dataset& data, const Table& base);
  [[nodiscard]] std::size_t expected_entries_per_partition(
      const Dataset& data, const Codec& codec, std::size_t threads) const;

  WaitFreeBuilderOptions options_;
  BuildStats stats_;
};

extern template class BasicWaitFreeBuilder<Key>;
extern template class BasicWaitFreeBuilder<WideKey>;

using WaitFreeBuilder = BasicWaitFreeBuilder<Key>;
using WideWaitFreeBuilder = BasicWaitFreeBuilder<WideKey>;

/// Options spelling for wide-builder call sites; both widths share one set.
using WideBuilderOptions = WaitFreeBuilderOptions;

}  // namespace wfbn
