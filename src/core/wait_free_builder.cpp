#include "core/wait_free_builder.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <utility>

#include "concurrent/affinity.hpp"
#include "concurrent/barrier.hpp"
#include "concurrent/spsc_queue.hpp"
#include "util/error.hpp"
#include "util/fault_injection.hpp"
#include "util/timer.hpp"

namespace wfbn {

namespace {

/// P×P queue fabric; cell (src, dst) carries keys produced by worker src for
/// owner dst. Diagonal cells are never used (own keys go straight into the
/// local table) but are allocated to keep indexing branch-free.
template <typename K>
class QueueFabric {
 public:
  using Queue = SpscQueue<K>;

  explicit QueueFabric(std::size_t workers) : workers_(workers) {
    cells_.reserve(workers * workers);
    for (std::size_t i = 0; i < workers * workers; ++i) {
      cells_.push_back(std::make_unique<Queue>());
    }
  }

  Queue& at(std::size_t src, std::size_t dst) {
    return *cells_[src * workers_ + dst];
  }

 private:
  std::size_t workers_;
  std::vector<std::unique_ptr<Queue>> cells_;
};

/// Per-worker software write-combining router (stage 1): a small staging
/// buffer per destination worker; a full buffer is flushed into the SPSC
/// fabric with one bulk publish (SpscQueue::push_block) instead of one
/// release store per key. The caller flushes the remainder before the
/// barrier (flush_all, ascending destination order). With
/// buffer_keys == 1 every route() flushes immediately, which is exactly the
/// pre-block scalar behavior.
template <typename K>
class KeyRouter {
 public:
  KeyRouter(QueueFabric<K>& queues, std::size_t src, std::size_t workers,
            std::size_t buffer_keys)
      : queues_(queues),
        src_(src),
        capacity_(buffer_keys),
        staging_(workers * buffer_keys),
        fill_(workers, 0) {}

  /// Stages `key` for `dst`; flushes that destination's buffer when full.
  /// Returns the number of flushes performed (0 or 1).
  std::uint64_t route(std::size_t dst, K key) {
    K* buffer = staging_.data() + dst * capacity_;
    buffer[fill_[dst]++] = key;
    if (fill_[dst] == capacity_) {
      queues_.at(src_, dst).push_block(buffer, capacity_);
      fill_[dst] = 0;
      return 1;
    }
    return 0;
  }

  /// Flushes every destination with staged keys, ascending dst order.
  /// Returns the number of (non-empty) flushes performed.
  std::uint64_t flush_all() {
    std::uint64_t flushes = 0;
    for (std::size_t dst = 0; dst < fill_.size(); ++dst) {
      if (fill_[dst] == 0) continue;
      queues_.at(src_, dst).push_block(staging_.data() + dst * capacity_,
                                       fill_[dst]);
      fill_[dst] = 0;
      ++flushes;
    }
    return flushes;
  }

 private:
  QueueFabric<K>& queues_;
  std::size_t src_;
  std::size_t capacity_;
  std::vector<K> staging_;
  std::vector<std::size_t> fill_;
};

/// Which worker writes each partition. With workers == partitions this is the
/// identity map (the paper's one-core-per-hashtable configuration); with a
/// degraded pool each worker owns a contiguous block of partitions, which
/// preserves the one-writer-per-memory-word invariant at reduced parallelism.
std::vector<std::size_t> partition_owners(std::size_t parts,
                                          std::size_t workers) {
  std::vector<std::size_t> owner(parts);
  for (std::size_t w = 0; w < workers; ++w) {
    const auto [lo, hi] = ThreadPool::block_range(parts, workers, w);
    for (std::size_t p = lo; p < hi; ++p) owner[p] = w;
  }
  return owner;
}

}  // namespace

std::uint64_t BuildStats::total_foreign_pushes() const noexcept {
  std::uint64_t total = 0;
  for (const WorkerStats& w : workers) total += w.foreign_pushes;
  return total;
}

std::uint64_t BuildStats::total_local_updates() const noexcept {
  std::uint64_t total = 0;
  for (const WorkerStats& w : workers) total += w.local_updates;
  return total;
}

std::uint64_t BuildStats::total_route_flushes() const noexcept {
  std::uint64_t total = 0;
  for (const WorkerStats& w : workers) total += w.route_flushes;
  return total;
}

std::uint64_t BuildStats::total_bulk_pops() const noexcept {
  std::uint64_t total = 0;
  for (const WorkerStats& w : workers) total += w.bulk_pops;
  return total;
}

double BuildStats::critical_path_seconds() const noexcept {
  double stage1 = 0.0;
  double stage2 = 0.0;
  for (const WorkerStats& w : workers) {
    stage1 = std::max(stage1, w.stage1_seconds);
    stage2 = std::max(stage2, w.stage2_seconds);
  }
  return stage1 + stage2;
}

template <typename K>
BasicWaitFreeBuilder<K>::BasicWaitFreeBuilder(WaitFreeBuilderOptions options)
    : options_(options) {
  WFBN_EXPECT(options_.threads >= 1, "builder needs at least one thread");
  WFBN_EXPECT(options_.route_buffer_keys >= 1,
              "route buffer must hold at least one key");
  WFBN_EXPECT(options_.encode_block_rows >= 1,
              "encode block must hold at least one row");
}

template <typename K>
std::size_t BasicWaitFreeBuilder<K>::expected_entries_per_partition(
    const Dataset& data, const Codec& codec, std::size_t threads) const {
  if (options_.expected_distinct_keys != 0) {
    return options_.expected_distinct_keys / threads + 1;
  }
  // Distinct keys are bounded by both m and the state space; for sparse data
  // (the paper's regime) m dominates. A quarter of the bound is a reasonable
  // starting size — the tables grow geometrically if it is exceeded.
  const std::uint64_t bound = std::min<std::uint64_t>(
      data.sample_count(), Traits::state_space_bound(codec));
  return static_cast<std::size_t>(bound / threads / 4 + 16);
}

template <typename K>
BasicPotentialTable<K> BasicWaitFreeBuilder<K>::build(const Dataset& data) {
  ThreadPool pool(options_.threads);
  return build(data, pool);
}

template <typename K>
BasicPotentialTable<K> BasicWaitFreeBuilder<K>::build(const Dataset& data,
                                                      ThreadPool& pool) {
  WFBN_EXPECT(data.sample_count() > 0, "cannot build a table from no data");
  const std::size_t P = pool.size();
  const Codec codec = Traits::make_codec(data.cardinalities());
  BasicPartitionedTable<K> table(
      P, Traits::state_space_bound(codec), options_.scheme,
      expected_entries_per_partition(data, codec, P));
  Timer total_timer;
  run_phased(data, codec, table, pool);
  Table out(codec, std::move(table),
            static_cast<std::uint64_t>(data.sample_count()), pool);
  stats_.total_seconds = total_timer.seconds();
  return out;
}

template <typename K>
void BasicWaitFreeBuilder<K>::append(const Dataset& data, Table& table) {
  table = fold(data, table);
}

template <typename K>
BasicPotentialTable<K> BasicWaitFreeBuilder<K>::append_shadow(
    const Dataset& data, const Table& base) {
  return fold(data, base);
}

template <typename K>
BasicPotentialTable<K> BasicWaitFreeBuilder<K>::fold(const Dataset& data,
                                                     const Table& base) {
  WFBN_EXPECT(data.sample_count() > 0, "cannot append an empty batch");
  if (data.cardinalities() != base.codec().cardinalities()) {
    throw DataError("batch cardinalities do not match the table's codec");
  }
  if (base.partitions().rebalanced()) {
    throw DataError(
        "table was rebalanced — construction-time ownership no longer holds, "
        "rebuild instead of appending");
  }
  const std::size_t parts = base.partitions().partition_count();
  Timer total_timer;
  // A degraded pool (spawn failures) yields fewer workers than partitions;
  // run_phased block-assigns partitions to whatever workers exist.
  ThreadPool pool(parts);

  // Stage the batch into scratch partitions with the same ownership geometry
  // (same P, scheme, and state space, so owner_of agrees with the table).
  BasicPartitionedTable<K> scratch(
      parts, base.partitions().state_space(), base.partitions().scheme(),
      expected_entries_per_partition(data, base.codec(), parts));
  run_phased(data, base.codec(), scratch, pool);

  WFBN_FAULT_POINT(fault::Point::kAppendCommit);

  // Commit into a copy of the partitions, sized up front so the merge never
  // rehashes mid-fold, then freeze the result as a new table.
  BasicPartitionedTable<K> merged = base.partitions();
  for (std::size_t p = 0; p < parts; ++p) {
    BasicOpenHashTable<K>& dst = merged.partition(p);
    dst.reserve(dst.size() + scratch.partition(p).size());
  }
  pool.run([&](std::size_t w) {
    const auto [lo, hi] = ThreadPool::block_range(parts, pool.size(), w);
    for (std::size_t p = lo; p < hi; ++p) {
      merged.partition(p).merge_from(scratch.partition(p));
    }
  });
  Table out(base.codec(), std::move(merged),
            base.sample_count() + data.sample_count(), pool);
  stats_.total_seconds = total_timer.seconds();
  return out;
}

template <typename K>
void BasicWaitFreeBuilder<K>::run_phased(const Dataset& data,
                                         const Codec& codec,
                                         BasicPartitionedTable<K>& table,
                                         ThreadPool& pool) {
  const std::size_t W = pool.size();
  const std::size_t parts = table.partition_count();
  QueueFabric<K> queues(W);
  SpinBarrier barrier(W);
  stats_ = BuildStats{};
  stats_.workers.assign(W, WorkerStats{});
  stats_.requested_workers = pool.degradation().requested_threads;
  stats_.effective_workers = W;
  const std::vector<std::size_t> part_owner = partition_owners(parts, W);
  std::atomic<std::size_t> pin_failures{0};
  std::vector<double> barrier_waits(W, 0.0);

  const std::size_t m = data.sample_count();
  const std::size_t strip = options_.encode_block_rows;
  // Resolved once per build: the whole kernel runs one dispatch level, and
  // the effective level (after host/env/forced downgrades) is reported.
  const simd::Level level = simd::resolve(options_.simd);
  stats_.simd_level = level;
  const std::uint64_t space = table.state_space();
  const PartitionScheme scheme = table.scheme();

  pool.run([&](std::size_t w) {
    if (options_.pin_threads && !pin_current_thread(w)) {
      pin_failures.fetch_add(1, std::memory_order_relaxed);
    }
    WorkerStats& ws = stats_.workers[w];
    const auto [my_lo, my_hi] = ThreadPool::block_range(parts, W, w);
    // Hoisted once per kernel so the disabled case costs a register test per
    // row instead of an atomic load (schedules are armed before the build).
    const bool inject = fault::enabled();

    // ---- Stage 1 (Algorithm 1): scan my block, route keys by ownership.
    // Rows are encoded in strips (the codec's multiply chain pipelines) and
    // foreign keys go through the write-combining router; the router is
    // fully flushed before the barrier so stage-2 emptiness stays final.
    // A throw here is caught and re-raised only after the barrier: every
    // worker must cross it exactly once or the others would spin forever.
    std::exception_ptr stage1_error;
    Timer stage_timer;
    KeyRouter<K> router(queues, w, W, options_.route_buffer_keys);
    std::vector<K> keys(strip);
    std::vector<std::size_t> owners(strip);
    try {
      const auto [lo, hi] = ThreadPool::block_range(m, W, w);
      for (std::size_t i = lo; i < hi;) {
        const std::size_t count = std::min(strip, hi - i);
        if (inject) {
          // Scalar fallback keeps the once-per-row fault-point semantics the
          // injection sweeps rely on.
          for (std::size_t r = 0; r < count; ++r) {
            fault::fire(fault::Point::kStage1Row);
            keys[r] = codec.encode(data.row(i + r));
            ++ws.rows_encoded;
          }
        } else {
          codec.encode_block(data.row(i).data(), count, keys.data(), level);
          ws.rows_encoded += count;
        }
        // Destinations for the whole strip before any route-buffer traffic
        // (one pipelined hash/divide pass instead of per-key detours).
        Traits::owner_block(keys.data(), count, parts, space, scheme,
                            owners.data());
        for (std::size_t r = 0; r < count; ++r) {
          const K key = keys[r];
          const std::size_t q = owners[r];
          const std::size_t dst = part_owner[q];
          if (dst == w) {
            table.partition(q).increment(key);
            ++ws.local_updates;
          } else {
            ws.route_flushes += router.route(dst, key);
            ++ws.foreign_pushes;
          }
        }
        i += count;
      }
      ws.route_flushes += router.flush_all();
      if (inject) fault::fire(fault::Point::kBarrier);
    } catch (...) {
      stage1_error = std::current_exception();
    }
    ws.stage1_seconds = stage_timer.seconds();

    // ---- The single synchronization step between the stages.
    Timer barrier_timer;
    barrier.arrive_and_wait();
    barrier_waits[w] = barrier_timer.seconds();
    if (stage1_error) std::rethrow_exception(stage1_error);

    // ---- Stage 2 (Algorithm 2): drain queues addressed to me, one whole
    // published chunk span per acquire load. A worker that owns exactly one
    // partition folds each span with multi-cursor probing; with faults armed
    // (once-per-drained-key fault-point semantics) or a degraded pool (several
    // partitions per worker) every key goes to its owning partition one at a
    // time. After a throw there is no further synchronization, so exceptions
    // propagate directly (the pool collects the first one).
    stage_timer.reset();
    if (my_lo < my_hi) {
      const bool batched = !inject && my_hi - my_lo == 1;
      BasicOpenHashTable<K>& sole = table.partition(my_lo);
      for (std::size_t src = 0; src < W; ++src) {
        if (src == w) continue;
        SpscQueue<K>& queue = queues.at(src, w);
        ws.stage2_pops += queue.consume([&](const K* span, std::size_t count) {
          ++ws.bulk_pops;
          if (batched) {
            sole.increment_block_batched(span, count);
            return;
          }
          for (std::size_t k = 0; k < count; ++k) {
            if (inject) fault::fire(fault::Point::kStage2Drain);
            table.partition(table.owner_of(span[k])).increment(span[k]);
          }
        });
      }
    }
    ws.stage2_seconds = stage_timer.seconds();
  });

  stats_.pin_failures = pin_failures.load(std::memory_order_relaxed);
  // The slowest worker's wait bounds what the barrier costs the makespan.
  stats_.barrier_seconds =
      *std::max_element(barrier_waits.begin(), barrier_waits.end());
}

template class BasicWaitFreeBuilder<Key>;
template class BasicWaitFreeBuilder<WideKey>;

}  // namespace wfbn
