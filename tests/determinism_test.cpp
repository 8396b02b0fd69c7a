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
//   * Sublinear-Time-SSR follows recorded trajectories from every
//     adversarial scenario at H = 1..3 (tests/data/determinism), the wall
//     that keeps history-tree re-encodings exact;
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
#include "util/sha256.hpp"

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

constexpr sublinear_scenario kSublinearScenarios[] = {
    sublinear_scenario::uniform_random,   sublinear_scenario::all_same_name,
    sublinear_scenario::single_collision, sublinear_scenario::ghost_names,
    sublinear_scenario::missing_own_name, sublinear_scenario::planted_histories,
    sublinear_scenario::mid_reset,        sublinear_scenario::valid_ranking};

/// Serialized configurations of one Sublinear-Time-SSR run at every
/// 500-interaction checkpoint up to 5000 (the n = 16 runs spend the first
/// ~3500 interactions resetting, so the last checkpoints carry full trees).
std::vector<std::string> sublinear_checkpoints(std::uint32_t n,
                                               std::uint32_t h,
                                               sublinear_scenario scenario) {
  const sublinear_time_ssr p(n, h);
  const auto index = static_cast<std::uint64_t>(scenario);
  rng_t config_rng(derive_seed(1000 * n + 100 * h, index));
  const auto initial = adversarial_configuration(p, scenario, config_rng);
  direct_engine<sublinear_time_ssr> eng(
      p, initial, derive_seed(7000 * n + 100 * h, index));
  std::vector<std::string> texts;
  for (std::uint64_t t = 500; t <= 5000; t += 500) {
    eng.run(t, ignore_pair, never_stop);
    texts.push_back(to_text(p, eng.agents()));
  }
  return texts;
}

std::vector<std::string> golden_lines(const std::string& file) {
  std::ifstream in(std::string(SSR_TEST_DATA_DIR) + "/determinism/" + file);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

TEST(Determinism, SublinearTrajectoriesMatchGolden) {
  // One line per (n, H, scenario, checkpoint): the first 16 hex digits of
  // the SHA-256 of to_text(protocol, configuration).
  const std::vector<std::string> expected =
      golden_lines("sublinear_trajectories.txt");
  ASSERT_EQ(expected.size(), 2u * 3u * 8u * 10u) << "missing or short golden";
  std::size_t line = 0;
  for (const std::uint32_t n : {8u, 16u}) {
    for (const std::uint32_t h : {1u, 2u, 3u}) {
      for (const sublinear_scenario scenario : kSublinearScenarios) {
        const auto texts = sublinear_checkpoints(n, h, scenario);
        for (std::size_t c = 0; c < texts.size(); ++c) {
          const std::string actual =
              "n=" + std::to_string(n) + " h=" + std::to_string(h) +
              " scenario=" + to_string(scenario) +
              " t=" + std::to_string(500 * (c + 1)) +
              " sha256=" + util::sha256_hex(texts[c]).substr(0, 16);
          EXPECT_EQ(expected[line++], actual);
        }
      }
    }
  }
}

TEST(Determinism, SublinearPlantedHistoriesMatchGoldenText) {
  // The full configuration of one small case at its first checkpoint with
  // grown trees, so a mismatch in the hash wall can be read off as a diff.
  const std::vector<std::string> lines =
      golden_lines("sublinear_n8_h2_planted_histories_t1500.txt");
  ASSERT_FALSE(lines.empty()) << "missing trajectory golden";
  std::string expected;
  for (const std::string& line : lines) expected += line + '\n';
  EXPECT_EQ(expected, sublinear_checkpoints(
                          8, 2, sublinear_scenario::planted_histories)[2]);
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
