// Hot-path sweep of the two-stage construction kernel: stage-1 + stage-2
// throughput as a function of the write-combining buffer (route_buffer_keys),
// the encode kernel dispatch (--simd: scalar reference loops vs.
// runtime-resolved AVX2 SoA tiles), and the workload cardinality
// (--cardinality, a sweep list — r shifts the distinct-key population and
// therefore the table/TLB pressure).
//
// Every swept configuration is verified to produce a table identical to the
// scalar baseline (route_buffer_keys = 1, encode_block_rows = 1,
// simd = scalar) on the same workload — same distinct keys, same total
// count, same order-independent content checksum — before its timing is
// reported; a faster build of a different table would be worthless.
//
// Reported per configuration: best-of-reps wall clock, the critical path
// max_p(stage1_p) + max_p(stage2_p) (the makespan a P-core machine would
// observe; on hosts with fewer cores than P the wall clock serializes the
// workers and stops being informative — the JSON records host_cores), rows/s
// on the critical path, speedup vs the scalar baseline, and the effective
// SIMD level.
//
// Machine-readable output: a BENCH_build_hot_path.json datapoint with one
// "sweeps" entry per cardinality (path configurable with --json-out, empty
// string disables), plus the same JSON on stdout.
//
//   ./build_hot_path --samples 1000000 --variables 30 --threads 8
//       --cardinality 2,4,8 --buffers 1,64 --simd scalar,auto
#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/wait_free_builder.hpp"
#include "data/generators.hpp"
#include "table/key_traits.hpp"
#include "util/cli.hpp"
#include "util/simd.hpp"
#include "util/table_printer.hpp"

namespace {

using namespace wfbn;

struct SweepConfig {
  std::size_t samples = 0;
  std::size_t variables = 0;
  std::size_t threads = 8;
  std::size_t reps = 2;
  std::uint64_t seed = 42;
};

struct TableDigest {
  std::uint64_t distinct = 0;
  std::uint64_t total = 0;
  std::uint64_t checksum = 0;  // order-independent content hash

  [[nodiscard]] bool operator==(const TableDigest&) const = default;
};

TableDigest digest_of(const PotentialTable& table) {
  TableDigest digest;
  table.partitions().for_each([&](Key key, std::uint64_t c) {
    ++digest.distinct;
    digest.total += c;
    // Commutative fold: summing per-entry mixes is insensitive to the sweep
    // order, which differs across partition geometries.
    std::uint64_t h = key * 0x9E3779B97F4A7C15ULL;
    h ^= h >> 29;
    h *= 0xBF58476D1CE4E5B9ULL;
    digest.checksum += h ^ (c * 0x94D049BB133111EBULL);
  });
  return digest;
}

struct Knobs {
  std::size_t buffer = 1;
  std::size_t strip = 1;
  simd::Policy simd = simd::Policy::kScalar;
};

struct ConfigResult {
  Knobs knobs;
  simd::Level level = simd::Level::kScalar;  // effective, from BuildStats
  double wall_seconds = 0.0;
  double critical_seconds = 0.0;
  bool identical = false;

  [[nodiscard]] double rows_per_sec(std::size_t m) const {
    return critical_seconds == 0.0
               ? 0.0
               : static_cast<double>(m) / critical_seconds;
  }
};

WaitFreeBuilderOptions options_for(const SweepConfig& config,
                                   const Knobs& knobs) {
  WaitFreeBuilderOptions options;
  options.threads = config.threads;
  options.route_buffer_keys = knobs.buffer;
  options.encode_block_rows = knobs.strip;
  options.simd = knobs.simd;
  return options;
}

ConfigResult run_config(const Dataset& data, const SweepConfig& config,
                        const Knobs& knobs, const TableDigest& reference) {
  ConfigResult result;
  result.knobs = knobs;
  result.wall_seconds = 1e300;
  result.critical_seconds = 1e300;
  WaitFreeBuilder builder(options_for(config, knobs));
  for (std::size_t rep = 0; rep < config.reps; ++rep) {
    const PotentialTable table = builder.build(data);
    const BuildStats& stats = builder.stats();
    result.wall_seconds = std::min(result.wall_seconds, stats.total_seconds);
    result.critical_seconds =
        std::min(result.critical_seconds, stats.critical_path_seconds());
    result.level = stats.simd_level;
    if (rep == 0) result.identical = digest_of(table) == reference;
  }
  return result;
}

std::vector<simd::Policy> parse_simd_list(const std::string& text) {
  std::vector<simd::Policy> out;
  std::size_t at = 0;
  while (at <= text.size()) {
    const std::size_t comma = std::min(text.find(',', at), text.size());
    const std::string token = text.substr(at, comma - at);
    simd::Policy policy;
    if (!token.empty() && simd::parse_policy(token.c_str(), policy)) {
      out.push_back(policy);
    } else {
      std::printf("unknown --simd value '%s' (want auto|scalar|avx2)\n",
                  token.c_str());
      std::exit(1);
    }
    at = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli(
      "build_hot_path — kernel-dispatch / write-combining sweep of the "
      "two-stage construction kernel");
  cli.add_option("samples", "1000000", "Training rows m");
  cli.add_option("variables", "30", "Variables n");
  cli.add_option("cardinality", "2",
                 "States per variable r — a sweep list (e.g. 2,4,8)");
  cli.add_option("threads", "8", "Workers (= partitions) P");
  cli.add_option("buffers", "1,64",
                 "route_buffer_keys values to sweep (1 = scalar routing)");
  cli.add_option("encode-rows", "32",
                 "encode_block_rows for swept configs (baseline always 1)");
  cli.add_option("simd", "scalar,auto",
                 "Kernel dispatch policies to sweep: auto|scalar|avx2");
  cli.add_option("reps", "2", "Repetitions per configuration (best-of)");
  cli.add_option("seed", "42", "Workload seed");
  cli.add_option("json-out", "BENCH_build_hot_path.json",
                 "JSON datapoint path (empty disables the file)");
  if (!cli.parse(argc, argv)) return 0;

  SweepConfig config;
  config.samples = static_cast<std::size_t>(cli.get_int("samples"));
  config.variables = static_cast<std::size_t>(cli.get_int("variables"));
  config.threads = static_cast<std::size_t>(cli.get_int("threads"));
  config.reps = static_cast<std::size_t>(cli.get_int("reps"));
  config.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const auto strip = static_cast<std::size_t>(cli.get_int("encode-rows"));
  const std::string json_out = cli.get("json-out");
  const std::vector<std::int64_t> cardinalities =
      cli.get_int_list("cardinality");
  const std::vector<simd::Policy> policies = parse_simd_list(cli.get("simd"));

  std::printf("host simd level: %s\n", simd::level_name(simd::detected()));

  std::string json = "{\n  \"bench\": \"build_hot_path\",\n";
  json += "  \"host_cores\": " +
          std::to_string(std::thread::hardware_concurrency()) + ",\n";
  json += "  \"host_simd\": \"" +
          std::string(simd::level_name(simd::detected())) + "\",\n";
  json += "  \"config\": {\"samples\": " + std::to_string(config.samples) +
          ", \"variables\": " + std::to_string(config.variables) +
          ", \"threads\": " + std::to_string(config.threads) +
          ", \"encode_block_rows\": " + std::to_string(strip) +
          ", \"reps\": " + std::to_string(config.reps) +
          ", \"seed\": " + std::to_string(config.seed) + "},\n";
  json += "  \"sweeps\": [\n";

  bool all_identical = true;
  for (std::size_t ci = 0; ci < cardinalities.size(); ++ci) {
    const auto r = static_cast<std::uint32_t>(cardinalities[ci]);
    std::printf("generating %zu x %zu (r=%u) workload...\n", config.samples,
                config.variables, r);
    const Dataset data =
        generate_uniform(config.samples, config.variables, r, config.seed);

    // Scalar baseline: block size 1 at every layer, reference kernels.
    WaitFreeBuilder scalar(options_for(config, Knobs{}));
    TableDigest reference;
    double scalar_wall = 1e300;
    double scalar_critical = 1e300;
    for (std::size_t rep = 0; rep < config.reps; ++rep) {
      const PotentialTable table = scalar.build(data);
      if (rep == 0) reference = digest_of(table);
      scalar_wall = std::min(scalar_wall, scalar.stats().total_seconds);
      scalar_critical =
          std::min(scalar_critical, scalar.stats().critical_path_seconds());
    }
    std::printf("r=%u scalar baseline: wall %.3fs, critical path %.3fs\n", r,
                scalar_wall, scalar_critical);

    std::vector<ConfigResult> results;
    for (const simd::Policy policy : policies) {
      for (const std::int64_t buffer : cli.get_int_list("buffers")) {
        Knobs knobs;
        knobs.buffer = static_cast<std::size_t>(buffer);
        knobs.strip = strip;
        knobs.simd = policy;
        results.push_back(run_config(data, config, knobs, reference));
      }
    }

    TablePrinter table({"simd", "buffer", "wall s", "critical s", "rows/s",
                        "speedup", "identical"});
    for (const ConfigResult& res : results) {
      table.add_row(
          {simd::level_name(res.level), std::to_string(res.knobs.buffer),
           TablePrinter::fmt(res.wall_seconds, 3),
           TablePrinter::fmt(res.critical_seconds, 3),
           TablePrinter::fmt(res.rows_per_sec(config.samples), 0),
           TablePrinter::fmt(scalar_critical / res.critical_seconds, 2),
           res.identical ? "yes" : "NO"});
    }
    table.print("build_hot_path — r=" + std::to_string(r) + " sweep (P=" +
                std::to_string(config.threads) + ")");

    json += "    {\"cardinality\": " + std::to_string(r) + ",\n";
    char baseline[160];
    std::snprintf(baseline, sizeof baseline,
                  "     \"scalar_baseline\": {\"wall_seconds\": %.6f, "
                  "\"critical_path_seconds\": %.6f},\n",
                  scalar_wall, scalar_critical);
    json += baseline;
    json += "     \"results\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
      const ConfigResult& res = results[i];
      char row[512];
      std::snprintf(
          row, sizeof row,
          "      {\"route_buffer_keys\": %zu, \"simd\": \"%s\", "
          "\"simd_level\": \"%s\", \"wall_seconds\": %.6f, "
          "\"critical_path_seconds\": %.6f, \"rows_per_sec\": %.1f, "
          "\"speedup_vs_scalar\": %.3f, \"identical_to_scalar\": %s}%s\n",
          res.knobs.buffer, simd::policy_name(res.knobs.simd),
          simd::level_name(res.level), res.wall_seconds, res.critical_seconds,
          res.rows_per_sec(config.samples),
          scalar_critical / res.critical_seconds,
          res.identical ? "true" : "false",
          i + 1 == results.size() ? "" : ",");
      json += row;
      all_identical &= res.identical;
    }
    json += "     ]}";
    json += (ci + 1 == cardinalities.size()) ? "\n" : ",\n";
  }
  json += "  ]\n}\n";

  std::printf("\n-- JSON --\n%s", json.c_str());
  if (!json_out.empty()) {
    if (std::FILE* f = std::fopen(json_out.c_str(), "w")) {
      std::fputs(json.c_str(), f);
      std::fclose(f);
      std::printf("wrote %s\n", json_out.c_str());
    } else {
      std::printf("could not write %s\n", json_out.c_str());
    }
  }

  if (!all_identical) {
    std::printf("ERROR: a swept configuration diverged from the scalar "
                "baseline table\n");
    return 1;
  }
  return 0;
}
