// Bootstrap edge confidence (Friedman-style model averaging, the standard
// bnlearn workflow): learn the structure on `replicates` resampled datasets
// and report the fraction of replicates in which each edge appears. The
// per-replicate learns run the full wait-free phase-1 pipeline, so this is
// also a realistic heavy consumer of the primitives.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "bn/dag.hpp"
#include "data/dataset.hpp"
#include "learn/cheng.hpp"
#include "util/rng.hpp"

namespace wfbn {

struct BootstrapOptions {
  std::size_t replicates = 20;
  std::uint64_t seed = 1;
  std::size_t threads = 1;  ///< workers of the one pool every replicate's
                            ///< learner (bootstrap_cheng) runs on
};

struct BootstrapResult {
  std::size_t replicates = 0;
  /// confidence[i*n + j] = fraction of replicates whose learned skeleton
  /// contains the undirected edge {i, j} (symmetric, zero diagonal).
  std::vector<double> edge_confidence;
  std::size_t nodes = 0;

  [[nodiscard]] double confidence(std::size_t i, std::size_t j) const {
    return edge_confidence[i * nodes + j];
  }

  /// Edges with confidence >= threshold as an undirected consensus graph.
  [[nodiscard]] UndirectedGraph consensus(double threshold) const;
};

/// Resamples `data` with replacement (m rows each time) and invokes
/// `learn_skeleton` per replicate. The learner receives the resampled
/// dataset and must return the learned skeleton.
[[nodiscard]] BootstrapResult bootstrap_edges(
    const Dataset& data,
    const std::function<UndirectedGraph(const Dataset&)>& learn_skeleton,
    BootstrapOptions options = {});

/// Resampled copy of `data` (m rows drawn with replacement), deterministic
/// in `rng`.
[[nodiscard]] Dataset resample_with_replacement(const Dataset& data,
                                                Xoshiro256& rng);

/// Convenience: bootstrap_edges with a Cheng learner per replicate, at either
/// key width (narrow by default; bootstrap_cheng<WideKey> for wide tables).
/// Every replicate runs the learner's full parallel pipeline on one shared
/// pool of options.threads workers.
template <typename K = Key>
[[nodiscard]] BootstrapResult bootstrap_cheng(const Dataset& data,
                                              ChengOptions cheng = {},
                                              BootstrapOptions options = {});

extern template BootstrapResult bootstrap_cheng<Key>(const Dataset&,
                                                     ChengOptions,
                                                     BootstrapOptions);
extern template BootstrapResult bootstrap_cheng<WideKey>(const Dataset&,
                                                         ChengOptions,
                                                         BootstrapOptions);

}  // namespace wfbn
