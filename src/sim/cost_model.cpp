#include "sim/cost_model.hpp"

#include <algorithm>
#include <mutex>

#include "concurrent/barrier.hpp"
#include "concurrent/spsc_queue.hpp"
#include "data/generators.hpp"
#include "table/key_codec.hpp"
#include "table/key_projector.hpp"
#include "table/open_hash_table.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace wfbn {

namespace {

/// Keeps the optimizer from deleting calibration loops.
inline void keep_alive(std::uint64_t value) {
  asm volatile("" : : "r"(value) : "memory");
}

double time_per_op(std::uint64_t ops, double seconds) {
  return ops == 0 ? 0.0 : seconds / static_cast<double>(ops);
}

}  // namespace

MachineModel MachineModel::calibrate(std::size_t samples, std::uint64_t seed) {
  WFBN_EXPECT(samples >= 1000, "too few calibration samples for stable timing");
  MachineModel model;
  constexpr std::size_t kVars = 30;
  const Dataset data = generate_uniform(samples, kVars, 2, seed);
  const KeyCodec codec = data.codec();

  // --- encode: time the real Eq.-3 loop; cost is per variable.
  {
    Timer timer;
    std::uint64_t sink = 0;
    for (std::size_t i = 0; i < samples; ++i) sink += codec.encode(data.row(i));
    keep_alive(sink);
    model.t_encode_per_var = time_per_op(samples * kVars, timer.seconds());
  }

  // --- private table update (includes amortized growth).
  std::vector<Key> keys(samples);
  for (std::size_t i = 0; i < samples; ++i) keys[i] = codec.encode(data.row(i));
  {
    OpenHashTable table(samples);
    Timer timer;
    for (const Key key : keys) table.increment(key);
    model.t_update = time_per_op(samples, timer.seconds());
    keep_alive(table.size());
  }

  // --- SPSC push then pop.
  {
    SpscQueue<Key> queue;
    Timer timer;
    for (const Key key : keys) queue.push(key);
    model.t_push = time_per_op(samples, timer.seconds());
    timer.reset();
    Key out = 0;
    std::uint64_t sink = 0;
    while (queue.try_pop(out)) sink += out;
    model.t_pop = time_per_op(samples, timer.seconds());
    keep_alive(sink);
  }

  // --- projection (two-variable marginal, the drafting-phase hot path).
  {
    const std::size_t vars[] = {3, 17};
    const KeyProjector projector(codec, vars);
    Timer timer;
    std::uint64_t sink = 0;
    for (const Key key : keys) sink += projector.project(key);
    keep_alive(sink);
    model.t_project_per_var = time_per_op(samples * 2, timer.seconds());
  }

  // --- hash iteration overhead per entry.
  {
    OpenHashTable table(samples);
    for (const Key key : keys) table.increment(key);
    Timer timer;
    std::uint64_t sink = 0;
    for (int rep = 0; rep < 4; ++rep) {
      table.for_each([&](Key key, std::uint64_t c) { sink += key + c; });
    }
    keep_alive(sink);
    model.t_entry_visit = time_per_op(4 * table.size(), timer.seconds());
  }

  // --- uncontended mutex round trip.
  {
    std::mutex mutex;
    std::uint64_t sink = 0;
    Timer timer;
    for (std::size_t i = 0; i < samples; ++i) {
      std::lock_guard lock(mutex);
      sink += i;
    }
    keep_alive(sink);
    model.t_mutex = time_per_op(samples, timer.seconds());
  }

  // --- barrier crossing (single participant; per-core slope is the
  // fetch_sub + release store path, which is what we can observe here).
  {
    SpinBarrier barrier(1);
    constexpr std::size_t kCrossings = 20000;
    Timer timer;
    for (std::size_t i = 0; i < kCrossings; ++i) barrier.arrive_and_wait();
    model.t_barrier_per_core = time_per_op(kCrossings, timer.seconds());
  }

  return model;
}

double predict_wait_free_seconds(const MachineModel& model,
                                 const BuildStats& stats,
                                 std::size_t variables) {
  WFBN_EXPECT(!stats.workers.empty(), "no worker stats — run a build first");
  double stage1 = 0.0;
  double stage2 = 0.0;
  for (const WorkerStats& w : stats.workers) {
    const double s1 =
        static_cast<double>(w.rows_encoded) * static_cast<double>(variables) *
            model.t_encode_per_var +
        static_cast<double>(w.local_updates) * model.t_update +
        static_cast<double>(w.foreign_pushes) * model.t_push;
    const double s2 =
        static_cast<double>(w.stage2_pops) * (model.t_pop + model.t_update);
    stage1 = std::max(stage1, s1);
    stage2 = std::max(stage2, s2);
  }
  const double barrier =
      model.t_barrier_per_core * static_cast<double>(stats.workers.size());
  return stage1 + barrier + stage2;
}

namespace {

/// Extra cost per locked/atomic update caused by cache coherence when P
/// writers share the structure: with probability (P−1)/P the line was last
/// touched by another core (one transfer), plus a quadratic storm term.
double coherence_penalty(const MachineModel& model, std::size_t cores) {
  if (cores <= 1) return 0.0;
  const double p = static_cast<double>(cores);
  return (p - 1.0) / p * model.t_line_transfer +
         model.coherence_quadratic * (p - 1.0) * (p - 1.0);
}

}  // namespace

double predict_locked_seconds(const MachineModel& model, std::uint64_t rows,
                              std::size_t variables, std::size_t cores,
                              std::size_t stripes) {
  WFBN_EXPECT(cores >= 1, "cores must be >= 1");
  WFBN_EXPECT(stripes >= 1, "stripes must be >= 1");
  const double m = static_cast<double>(rows);
  const double per_update =
      model.t_mutex + model.t_update + coherence_penalty(model, cores);
  const double per_row = static_cast<double>(variables) * model.t_encode_per_var +
                         per_update;
  const double parallel_time = m / static_cast<double>(cores) * per_row;

  // Stripe saturation: the critical sections of one stripe serialize. With
  // uniform keys each stripe carries m/stripes updates whose exclusive
  // section is (t_mutex + t_update + line transfer); the build can never
  // finish faster than the busiest stripe.
  const double per_stripe_updates = m / static_cast<double>(stripes);
  const double stripe_service =
      model.t_mutex + model.t_update +
      (cores > 1 ? model.t_line_transfer : 0.0);
  const double saturation_floor =
      cores > 1 ? per_stripe_updates * stripe_service : 0.0;
  return std::max(parallel_time, saturation_floor);
}

double predict_atomic_seconds(const MachineModel& model, std::uint64_t rows,
                              std::size_t variables, std::size_t cores) {
  WFBN_EXPECT(cores >= 1, "cores must be >= 1");
  const double m = static_cast<double>(rows);
  // CAS/fetch_add avoids the mutex round trip but still pays coherence.
  const double per_row = static_cast<double>(variables) * model.t_encode_per_var +
                         model.t_update + coherence_penalty(model, cores);
  return m / static_cast<double>(cores) * per_row;
}

double predict_sweep_seconds(const MachineModel& model,
                             const std::vector<std::uint64_t>& per_core_entries,
                             std::size_t projected_vars, double sweeps) {
  WFBN_EXPECT(!per_core_entries.empty(), "no per-core entry counts");
  double makespan = 0.0;
  for (const std::uint64_t entries : per_core_entries) {
    const double t =
        static_cast<double>(entries) *
        (model.t_entry_visit +
         static_cast<double>(projected_vars) * model.t_project_per_var);
    makespan = std::max(makespan, t);
  }
  return makespan * sweeps;
}

}  // namespace wfbn
