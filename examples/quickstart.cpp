// Quickstart: elect a leader among 50 agents with Optimal-Silent-SSR,
// starting from an adversarially corrupted configuration.
//
// Demonstrates the core public API:
//   1. construct a protocol for a known population size n,
//   2. build a starting configuration (here: adversarial),
//   3. run it under the uniform random scheduler,
//   4. read off the ranking / leader once stabilized.
#include <iostream>

#include "pp/convergence.hpp"
#include "pp/engine.hpp"
#include "protocols/adversary.hpp"
#include "protocols/optimal_silent.hpp"

int main() {
  using namespace ssr;
  constexpr std::uint32_t n = 50;

  optimal_silent_ssr protocol(n);

  // The adversary hands us a mid-reset configuration with no leader
  // candidate anywhere -- one of the hard cases for self-stabilization.
  rng_t adversary_rng(2024);
  auto initial = adversarial_configuration(
      protocol, optimal_silent_scenario::all_dormant_followers, adversary_rng);

  std::cout << "population: " << n << " agents, all dormant, no leader\n";

  direct_engine<optimal_silent_ssr> engine(protocol, std::move(initial),
                                           /*seed=*/7);
  const convergence_result result = measure_convergence_run(
      engine, {.max_parallel_time = 100'000'000.0 / n});

  if (!result.converged) {
    std::cerr << "did not stabilize within the interaction budget\n";
    return 1;
  }

  std::cout << "stabilized after " << engine.interactions()
            << " interactions (" << engine.parallel_time()
            << " parallel time units)\n";

  for (std::uint32_t i = 0; i < n; ++i) {
    const auto& s = engine.agents()[i];
    if (is_leader(protocol, s))
      std::cout << "agent #" << i << " is the unique leader (rank 1)\n";
  }
  std::cout << "all " << n << " agents hold distinct ranks 1.." << n
            << " -- ranking doubles as naming and leader election.\n";

  // Because the protocol is silent, the configuration is now frozen:
  const bool silent = is_silent_configuration(protocol, engine.agents());
  std::cout << "configuration is silent: " << (silent ? "yes" : "no") << "\n";
  return 0;
}
