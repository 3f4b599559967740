// The learn side of a workload: time to an oriented DAG through the one-call
// path ChengLearner(options, pool).learn(data) at P=kWidth and P=1
// (untraced), and the per-layer split of the same pipeline through each
// layer's public calls (traced).
#pragma once

#include <vector>

#include "common.hpp"

namespace perfbench {

struct LearnOutcome {
  std::vector<double> parallel_seconds;  ///< P=kWidth, one per repetition
  std::vector<double> p1_seconds;
  std::size_t shd = 0;
};

/// Checks the pipeline's table against the sequential baseline builder
/// (digest of WaitFreeBuilder at the pool's width vs BuilderKind::kSequential).
void check_table(const wfbn::Dataset& data, wfbn::ThreadPool& pool,
                 Ledger& ledger, Mutation mutation);

/// One P=kWidth learn and one P=1 learn, each timed into `out`. Checks the
/// pair: MI matrix, skeleton and DAG bit-identical across P, SHD against
/// `truth` recomputed and sane.
void learn_pair(const wfbn::Dataset& data, const wfbn::Dag& truth,
                wfbn::ThreadPool& pool, wfbn::ThreadPool& pool1,
                LearnOutcome& out, Ledger& ledger, Mutation mutation);

/// What the traced run reports beside its metrics: layer self-time shares
/// and the scaling report with the simulator's predictions.
struct LayerReport {
  double build_share = 0.0;
  double mi_share = 0.0;
  double learn_share = 0.0;  ///< learn minus its own MI pass
  std::vector<std::size_t> widths;
  std::vector<double> build_s, mi_s, sim_build_s, sim_mi_s;
  double traced_minus_untraced_s = 0.0;  ///< ~0 plus noise; run details only
};

/// Traced run of the learn side: build, all-pairs MI and learn timed around
/// their public calls at P=kWidth on `pool` (build and MI also at P=1, 2
/// and 4, beside the src/sim prediction), plus the tracing overhead: the
/// harness's own clock reads and stats bookkeeping.
/// Appends the core.*, learn.*, scale.*, sim.* and trace.* metrics.
LayerReport run_learn_layers(const wfbn::Dataset& data, const wfbn::Dag& truth,
                             wfbn::ThreadPool& pool, Metrics& metrics,
                             Ledger& ledger, Mutation mutation);

}  // namespace perfbench
