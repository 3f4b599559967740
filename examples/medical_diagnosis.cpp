// Medical-diagnosis workflow on the ASIA chest-clinic network: sample
// training records, build the potential table with the wait-free primitive,
// and answer diagnostic queries straight from data — then check them against
// the exact posterior from the generating network, and round-trip the
// network through the serialization layer.
//
//   ./medical_diagnosis --samples 300000 --threads 4
#include <cstdio>
#include <sstream>

#include "bn/inference.hpp"
#include "bn/io.hpp"
#include "bn/repository.hpp"
#include "bn/sampling.hpp"
#include "core/query.hpp"
#include "core/wait_free_builder.hpp"
#include "util/cli.hpp"

using namespace wfbn;

int main(int argc, char** argv) {
  CliParser cli("medical_diagnosis — data-driven queries on the ASIA network");
  cli.add_option("samples", "300000", "Patient records to simulate");
  cli.add_option("threads", "4", "Worker threads");
  cli.add_option("seed", "12", "Sampling seed");
  if (!cli.parse(argc, argv)) return 0;

  const BayesianNetwork asia = load_network(RepositoryNetwork::kAsia);
  const auto samples = static_cast<std::size_t>(cli.get_int("samples"));
  const auto threads = static_cast<std::size_t>(cli.get_int("threads"));

  std::printf("simulating %zu patient records from the chest clinic...\n",
              samples);
  const Dataset records = forward_sample(
      asia, samples, static_cast<std::uint64_t>(cli.get_int("seed")), threads);

  ThreadPool pool(threads);
  WaitFreeBuilder builder;
  const PotentialTable table = builder.build(records, pool);
  const QueryEngine engine(table, pool);

  const NodeId lung = asia.node_by_name("lung");
  const NodeId xray = asia.node_by_name("xray");
  const NodeId smoke = asia.node_by_name("smoke");
  const NodeId dysp = asia.node_by_name("dysp");

  struct Case {
    const char* description;
    std::vector<Evidence> evidence;
  };
  // State 0 = "yes" in the canonical ASIA encoding.
  const Case cases[] = {
      {"no evidence", {}},
      {"positive x-ray", {{xray, 0}}},
      {"positive x-ray, smoker", {{xray, 0}, {smoke, 0}}},
      {"positive x-ray, smoker, dyspnoea", {{xray, 0}, {smoke, 0}, {dysp, 0}}},
  };

  std::printf(
      "\nP(lung cancer = yes | evidence): data estimate vs exact "
      "(variable elimination)\n");
  for (const Case& c : cases) {
    const std::size_t vars[] = {lung};
    const std::vector<double> posterior = engine.conditional(vars, c.evidence);
    const std::vector<double> exact = exact_posterior(asia, vars, c.evidence);
    std::printf("  %-38s %.4f   (exact %.4f)\n", c.description, posterior[0],
                exact[0]);
  }

  // Most probable diagnosis pattern for a symptomatic smoker.
  const std::size_t diagnosis_vars[] = {lung, asia.node_by_name("bronc"),
                                        asia.node_by_name("tub")};
  const Evidence symptomatic[] = {{smoke, 0}, {dysp, 0}};
  const auto map = engine.most_probable(diagnosis_vars, symptomatic);
  std::printf(
      "\nmost probable (lung, bronc, tub) for a dyspnoeic smoker: "
      "(%s, %s, %s) with posterior %.3f\n",
      map.states[0] == 0 ? "yes" : "no", map.states[1] == 0 ? "yes" : "no",
      map.states[2] == 0 ? "yes" : "no", map.probability);

  // Round-trip the generating network through the text format.
  std::stringstream stream;
  write_network(asia, stream);
  const BayesianNetwork reloaded = read_network(stream);
  std::printf("\nnetwork serialization round-trip: %zu nodes, %zu edges, %s\n",
              reloaded.node_count(), reloaded.dag().edge_count(),
              reloaded.validate() ? "valid" : "INVALID");
  return 0;
}
