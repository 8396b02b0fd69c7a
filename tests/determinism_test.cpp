// Determinism guarantees of the measurement stack:
//
//   * run_trials is bit-identical for the same base seed regardless of the
//     parallel flag (trials are seeded per index via derive_seed, so thread
//     count and scheduling order cannot leak into results) -- for the
//     legacy overload and for the engine-selecting overload under both
//     engines;
//   * direct_engine<P> trajectories replay exactly from a recorded seed;
//   * direct_engine<P> reproduces a recorded trajectory of the historical
//     per-step simulator (tests/data/determinism), the contract that keeps
//     every seed-pinned historical result valid;
//   * splitting one run into several run() calls (cancellation bursts, CLI
//     checkpoints) follows the unsplit trajectory on both batched paths.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "pp/convergence.hpp"
#include "pp/engine.hpp"
#include "pp/trial.hpp"
#include "protocols/adversary.hpp"
#include "protocols/optimal_silent.hpp"
#include "protocols/serialize.hpp"
#include "protocols/silent_n_state.hpp"
#include "protocols/sublinear.hpp"

namespace {

using namespace ssr;

double baseline_trial(std::uint64_t s, engine_kind k) {
  const std::uint32_t n = 16;
  silent_n_state_ssr p(n);
  rng_t rng(s);
  auto init = adversarial_configuration(p, rng);
  const auto r = measure_convergence_with(k, p, std::move(init), s ^ 0xabcd);
  return r.converged ? r.convergence_time : -1.0;
}

TEST(Determinism, RunTrialsLegacyOverloadParallelFlagInvariant) {
  const auto trial = [](std::uint64_t s) {
    return baseline_trial(s, engine_kind::direct);
  };
  const auto parallel = run_trials(32, 99, trial, /*parallel=*/true);
  const auto serial = run_trials(32, 99, trial, /*parallel=*/false);
  EXPECT_EQ(parallel, serial);
}

TEST(Determinism, RunTrialsEngineOverloadParallelFlagInvariant) {
  for (const engine_kind kind :
       {engine_kind::direct, engine_kind::batched}) {
    const auto parallel = run_trials(32, 123, baseline_trial,
                                     {.parallel = true, .engine = kind});
    const auto serial = run_trials(32, 123, baseline_trial,
                                   {.parallel = false, .engine = kind});
    EXPECT_EQ(parallel, serial) << "engine " << to_string(kind);
    // Same base seed => same per-trial seeds; repeated runs reproduce too.
    const auto again = run_trials(32, 123, baseline_trial,
                                  {.parallel = true, .engine = kind});
    EXPECT_EQ(parallel, again) << "engine " << to_string(kind);
  }
}

TEST(Determinism, SimulationStepReplaysExactly) {
  const std::uint32_t n = 24;
  optimal_silent_ssr p(n);
  rng_t config_rng(7);
  const auto initial = adversarial_configuration(
      p, optimal_silent_scenario::uniform_random, config_rng);
  const std::uint64_t seed = 4242;

  // First run: record configuration snapshots along the trajectory.
  direct_engine<optimal_silent_ssr> first(p, initial, seed);
  std::vector<std::string> snapshots;
  for (std::uint64_t chunk = 1; chunk <= 10; ++chunk) {
    first.run(chunk * 200, ignore_pair, never_stop);
    snapshots.push_back(to_text(p, first.agents()));
  }

  // Replay from the same recorded seed, one interaction per run() call:
  // every snapshot must match bit for bit.
  direct_engine<optimal_silent_ssr> replay(p, initial, seed);
  for (std::size_t chunk = 0; chunk < 10; ++chunk) {
    for (int i = 0; i < 200; ++i)
      replay.run(replay.interactions() + 1, ignore_pair, never_stop);
    EXPECT_EQ(snapshots[chunk], to_text(p, replay.agents()))
        << "diverged by interaction " << (chunk + 1) * 200;
  }
}

TEST(Determinism, DirectEngineMatchesSimulationTrajectory) {
  // The golden holds the configurations the historical per-step simulator
  // reached from this start and seed after 250, 500, ..., 2000
  // interactions, one serialized configuration each.
  const std::uint32_t n = 32;
  silent_n_state_ssr p(n);
  rng_t config_rng(11);
  const auto initial = adversarial_configuration(p, config_rng);
  std::ifstream golden(std::string(SSR_TEST_DATA_DIR) +
                       "/determinism/baseline_n32_seed31337.txt");
  ASSERT_TRUE(golden) << "missing trajectory golden";
  std::vector<std::string> expected;
  for (std::string line; std::getline(golden, line);) {
    if (line.rfind("ssr-config", 0) == 0) expected.emplace_back();
    ASSERT_FALSE(expected.empty());
    expected.back() += line + '\n';
  }
  ASSERT_EQ(expected.size(), 8u);

  direct_engine<silent_n_state_ssr> eng(p, initial, 31337);
  for (std::uint64_t chunk = 1; chunk <= 8; ++chunk) {
    eng.run(chunk * 250, ignore_pair, never_stop);
    EXPECT_EQ(expected[chunk - 1], to_text(p, eng.agents()))
        << "direct_engine diverged from the recorded trajectory by "
           "interaction "
        << eng.interactions();
  }
}

/// Runs `total` interactions in one run() call and in run() calls of
/// `chunk` interactions from the same start and seed; the two must end in
/// the same configuration.
template <class Engine, class P>
void expect_split_run_matches(const P& protocol,
                              const std::vector<typename P::agent_state>& initial,
                              std::uint64_t chunk, std::uint64_t total) {
  Engine whole(protocol, initial, 4242);
  whole.run(total, ignore_pair, never_stop);
  Engine split(protocol, initial, 4242);
  while (split.interactions() < total) {
    split.run(std::min(total, split.interactions() + chunk), ignore_pair,
              never_stop);
  }
  ASSERT_EQ(whole.interactions(), split.interactions());
  EXPECT_EQ(to_text(protocol, whole.agents()),
            to_text(protocol, split.agents()));
}

TEST(Determinism, SplitRunsFollowTheUnsplitTrajectory) {
  // Count path: the null skips near stabilization outrun every chunk.
  const silent_n_state_ssr baseline(64);
  rng_t rng(5);
  const auto baseline_start = adversarial_configuration(baseline, rng);
  expect_split_run_matches<batched_engine<silent_n_state_ssr>>(
      baseline, baseline_start, 997, 2'000'000);
  // Block path: the transition draws randomness (names after a reset), so
  // where a batch is drawn relative to it matters.
  const sublinear_time_ssr sublinear(8, 1);
  const auto sublinear_start = adversarial_configuration(
      sublinear, sublinear_scenario::all_same_name, rng);
  expect_split_run_matches<batched_engine<sublinear_time_ssr>>(
      sublinear, sublinear_start, 37, 20'000);
}

}  // namespace
