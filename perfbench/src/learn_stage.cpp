#include "learn_stage.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace perfbench {

using namespace wfbn;

namespace {

/// The checks every learned result pair must pass; returns the SHD.
std::size_t check_pair(const ChengResult& pp, const ChengResult& p1,
                       const Dag& truth, Ledger& ledger) {
  ledger.check(same_bits(pp.mi, p1.mi), "learn.mi_parallel_equals_p1");
  ledger.check(pp.skeleton.edges() == p1.skeleton.edges(),
               "learn.skeleton_parallel_equals_p1");
  ledger.check(pp.oriented.edges() == p1.oriented.edges(),
               "learn.dag_parallel_equals_p1");
  // Sanity of the recomputed SHD: no spurious edge on independent data, and
  // on a real network closer to the truth than the empty graph is.
  const std::size_t shd = structural_hamming_distance(pp.oriented, truth);
  ledger.check(truth.edge_count() == 0 ? shd == 0 : shd < truth.edge_count(),
               "learn.shd_sane");
  return shd;
}

void perturb(MiMatrix& mi) {
  if (mi.size() >= 2) mi.set(0, 1, std::nextafter(mi.at(0, 1), 1.0));
}

double max_of(const std::vector<WorkerStats>& workers,
              double WorkerStats::*field) {
  double out = 0.0;
  for (const WorkerStats& w : workers) out = std::max(out, w.*field);
  return out;
}

/// Cost of one Clock::now(), averaged over many reads.
double clock_read_seconds() {
  constexpr int kReads = 10000;
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < kReads; ++i) (void)Clock::now();
  return seconds_since(start) / kReads;
}

double relative_error(double predicted, double measured) {
  return measured > 0.0 ? std::abs(predicted - measured) / measured : 0.0;
}

}  // namespace

void check_table(const Dataset& data, ThreadPool& pool, Ledger& ledger,
                 Mutation mutation) {
  const PotentialTable built = WaitFreeBuilder().build(data, pool);
  const PotentialTable oracle =
      make_builder(BuilderKind::kSequential, {})->build(data);
  ledger.check(digest(built, mutation) == digest(oracle),
               "core.table_equals_sequential");
}

void learn_pair(const Dataset& data, const Dag& truth, ThreadPool& pool,
                ThreadPool& pool1, LearnOutcome& out, Ledger& ledger,
                Mutation mutation) {
  const ChengOptions options;  // library defaults
  const Clock::time_point tp = Clock::now();
  ChengResult pp = ChengLearner(options, pool).learn(data);
  out.parallel_seconds.push_back(seconds_since(tp));
  const Clock::time_point t1 = Clock::now();
  const ChengResult p1 = ChengLearner(options, pool1).learn(data);
  out.p1_seconds.push_back(seconds_since(t1));
  ledger.operation(true);
  ledger.operation(true);

  if (mutation == Mutation::kMiCell) perturb(pp.mi);
  out.shd = check_pair(pp, p1, truth, ledger);
}

LayerReport run_learn_layers(const Dataset& data, const Dag& truth,
                             ThreadPool& pool, Metrics& m, Ledger& ledger,
                             Mutation mutation) {
  LayerReport report;
  const ChengOptions options;
  const std::size_t n = data.variable_count();
  const double pairs = static_cast<double>(n * (n - 1) / 2);
  const std::vector<std::size_t> widths = {1, 2, 4};
  const std::size_t at =  // index of kWidth in widths
      static_cast<std::size_t>(
          std::find(widths.begin(), widths.end(), kWidth) - widths.begin());

  check_table(data, pool, ledger, mutation);  // also warms the allocator

  // Untraced reference: the one-call path.
  const Clock::time_point ref_start = Clock::now();
  const ChengResult reference = ChengLearner(options, pool).learn(data);
  const double untraced_s = seconds_since(ref_start);
  ledger.operation(true);

  // Build and MI at P = 1, 2, 4, each MI over the table built at that P.
  std::vector<double> build_s;
  std::vector<double> mi_s;
  BuildStats build_stats;
  AllPairsStats mi_stats;
  std::size_t distinct = 0;
  double traced_s = 0.0;
  // Tracing overhead: what the traced P=kWidth pipeline adds around its
  // public calls — its clock reads and the stats and metric bookkeeping.
  double bookkeeping_s = 0.0;
  for (const std::size_t p : widths) {
    ThreadPool pool_p(p);
    WaitFreeBuilder builder;
    const Clock::time_point tb = Clock::now();
    const PotentialTable table = builder.build(data, pool_p);
    build_s.push_back(seconds_since(tb));

    AllPairsOptions ap;
    ap.threads = p;
    ap.strategy = options.all_pairs_strategy;
    AllPairsMi all_pairs(ap);
    const Clock::time_point tm = Clock::now();
    MiMatrix mi = all_pairs.compute(table, pool_p);
    mi_s.push_back(seconds_since(tm));
    ledger.operation(true);
    ledger.operation(true);
    if (p != kWidth) continue;

    if (mutation == Mutation::kMiCell) perturb(mi);
    ledger.check(same_bits(mi, reference.mi), "core.mi_equals_learner");
    const Clock::time_point tk = Clock::now();
    build_stats = builder.stats();
    mi_stats = all_pairs.stats();
    distinct = table.distinct_keys();
    bookkeeping_s += seconds_since(tk);

    // Learn from the pre-built table on the borrowed pool: the CI layer.
    const Clock::time_point tl = Clock::now();
    const ChengResult learned = ChengLearner(options, pool).learn(table);
    const double learn_s = seconds_since(tl);
    ledger.operation(true);
    ledger.check(learned.oriented.edges() == reference.oriented.edges(),
                 "learn.table_path_equals_data_path");
    traced_s = build_s.back() + learn_s;

    const Clock::time_point tk2 = Clock::now();
    const CiScheduleStats& ci = learned.schedule;
    const double lookups = static_cast<double>(ci.cache_hits + ci.cache_misses);
    m.add("learn.s", learn_s, "s");
    m.add("learn.draft_s", learned.timings.drafting, "s");
    m.add("learn.thicken_s", learned.timings.thickening, "s");
    m.add("learn.thin_s", learned.timings.thinning, "s");
    m.add("learn.ci_tests", static_cast<double>(learned.ci_tests), "count");
    m.add("learn.ci_busy_s", ci.total_busy_seconds, "s");
    m.add("learn.ci_critical_path_s", ci.critical_path_seconds, "s");
    m.add("learn.cache_hit_rate",
          lookups > 0 ? static_cast<double>(ci.cache_hits) / lookups : 0.0,
          "ratio");
    m.add("learn.shd",
          static_cast<double>(
              structural_hamming_distance(learned.oriented, truth)),
          "count");
    bookkeeping_s += seconds_since(tk2);

    // Self times: the learner's own MI pass is the MI layer's, not its own.
    const double build_self = build_s.back();
    const double mi_self = mi_s.back();
    const double learn_self = std::max(0.0, learn_s - mi_self);
    const double total = build_self + mi_self + learn_self;
    report.build_share = build_self / total;
    report.mi_share = mi_self / total;
    report.learn_share = learn_self / total;
  }

  const Clock::time_point tk = Clock::now();
  const auto& w = build_stats.workers;
  std::uint64_t pops = 0;
  for (const WorkerStats& s : w) pops += s.stage2_pops;
  const double flushes = static_cast<double>(build_stats.total_route_flushes());
  const double bulk = static_cast<double>(build_stats.total_bulk_pops());
  const double foreign =
      static_cast<double>(build_stats.total_foreign_pushes());
  m.add("core.build.s", build_s[at], "s");
  m.add("core.build.stage1_max_s", max_of(w, &WorkerStats::stage1_seconds), "s");
  m.add("core.build.stage2_max_s", max_of(w, &WorkerStats::stage2_seconds), "s");
  m.add("core.build.barrier_wait_s", build_stats.barrier_seconds, "s");
  m.add("core.build.foreign_keys", foreign, "count");
  m.add("core.build.keys_per_flush", flushes > 0 ? foreign / flushes : 0.0,
        "count");
  m.add("core.build.keys_per_bulk_pop",
        bulk > 0 ? static_cast<double>(pops) / bulk : 0.0, "count");
  m.add("core.build.distinct_keys", static_cast<double>(distinct), "count");
  m.add("core.build.speedup_p4", build_s[0] / build_s[2], "x");

  const double updates = static_cast<double>(distinct) * pairs;
  const std::vector<double>& ws = mi_stats.worker_seconds;
  const double mean_w =
      ws.empty() ? 0.0
                 : std::accumulate(ws.begin(), ws.end(), 0.0) /
                       static_cast<double>(ws.size());
  const double max_w = ws.empty() ? 0.0 : *std::max_element(ws.begin(), ws.end());
  m.add("core.mi.s", mi_s[at], "s");
  m.add("core.mi.pair_updates", updates, "count");
  m.add("core.mi.pair_updates_per_s", updates / mi_s[at], "1/s");
  m.add("core.mi.worker_imbalance", mean_w > 0 ? max_w / mean_w : 1.0, "x");
  m.add("core.mi.speedup_p4", mi_s[0] / mi_s[2], "x");
  bookkeeping_s += seconds_since(tk);
  // Six reads time the three calls, six more time the bookkeeping.
  const double clock_s = 12.0 * clock_read_seconds();

  // Scaling report beside the simulator's prediction for the same shapes.
  const ScalingSimulator sim(MachineModel::calibrate());
  const ScalingCurve sim_build = sim.wait_free_construction(data, widths);
  const ScalingCurve sim_mi = sim.all_pairs_mi(data, widths);
  double build_err = 0.0;
  double mi_err = 0.0;
  for (std::size_t i = 0; i < widths.size(); ++i) {
    const std::string p = std::to_string(widths[i]);
    m.add("scale.build_p" + p + "_s", build_s[i], "s");
    m.add("scale.mi_p" + p + "_s", mi_s[i], "s");
    report.sim_build_s.push_back(sim_build.points[i].seconds);
    report.sim_mi_s.push_back(sim_mi.points[i].seconds);
    build_err += relative_error(sim_build.points[i].seconds, build_s[i]);
    mi_err += relative_error(sim_mi.points[i].seconds, mi_s[i]);
  }
  m.add("sim.build_err", build_err / static_cast<double>(widths.size()), "ratio");
  m.add("sim.mi_err", mi_err / static_cast<double>(widths.size()), "ratio");
  m.add("trace.overhead_s", bookkeeping_s + clock_s, "s");
  report.traced_minus_untraced_s = traced_s - untraced_s;
  report.widths = widths;
  report.build_s = build_s;
  report.mi_s = mi_s;
  return report;
}

}  // namespace perfbench
