#include "pp/convergence.hpp"

#include <gtest/gtest.h>

#include "pp/cancellation.hpp"
#include "protocols/adversary.hpp"
#include "protocols/silent_n_state.hpp"

namespace ssr {
namespace {

TEST(RankTracker, DetectsPermutation) {
  rank_tracker t(3);
  t.add(1);
  t.add(2);
  t.add(3);
  EXPECT_TRUE(t.correct());
}

TEST(RankTracker, DuplicateBreaksCorrectness) {
  rank_tracker t(3);
  t.add(1);
  t.add(2);
  t.add(2);
  EXPECT_FALSE(t.correct());
  t.update(2, 3);
  EXPECT_TRUE(t.correct());
}

TEST(RankTracker, ZeroMeansUnranked) {
  rank_tracker t(2);
  t.add(0);
  t.add(1);
  EXPECT_FALSE(t.correct());
  t.update(0, 2);
  EXPECT_TRUE(t.correct());
}

TEST(RankTracker, OutOfRangeRanksArePooled) {
  rank_tracker t(2);
  t.add(7);  // clamped to "no rank"
  t.add(1);
  EXPECT_FALSE(t.correct());
  t.update(7, 2);
  EXPECT_TRUE(t.correct());
}

TEST(RankTracker, NoOpUpdateKeepsState) {
  rank_tracker t(2);
  t.add(1);
  t.add(2);
  t.update(1, 1);
  EXPECT_TRUE(t.correct());
}

TEST(MeasureConvergence, BaselineFromAllZero) {
  silent_n_state_ssr protocol(8);
  std::vector<silent_n_state_ssr::agent_state> init(8);
  const convergence_result r = measure_convergence(protocol, init, 42);
  EXPECT_TRUE(r.converged);
  EXPECT_GT(r.convergence_time, 0.0);
  EXPECT_EQ(r.correctness_losses, 0u);
}

TEST(MeasureConvergence, AlreadyCorrectConvergesImmediately) {
  silent_n_state_ssr protocol(8);
  std::vector<silent_n_state_ssr::agent_state> init(8);
  for (std::uint32_t i = 0; i < 8; ++i) init[i].rank = i;
  const convergence_result r = measure_convergence(protocol, init, 42);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.interactions, 0u);
}

TEST(MeasureConvergence, TimeCapFails) {
  silent_n_state_ssr protocol(16);
  std::vector<silent_n_state_ssr::agent_state> init(16);
  convergence_options opt;
  opt.max_parallel_time = 0.5;  // far below Theta(n^2)
  const convergence_result r = measure_convergence(protocol, init, 42, opt);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.interactions, 8u);  // 0.5 * 16
}

TEST(MeasureConvergence, ConfirmationWindowExtendsRun) {
  silent_n_state_ssr protocol(8);
  std::vector<silent_n_state_ssr::agent_state> init(8);
  convergence_options opt;
  opt.confirm_parallel_time = 10.0;
  const convergence_result r = measure_convergence(protocol, init, 7, opt);
  EXPECT_TRUE(r.converged);
  // The baseline is silent once correct, so the confirmation window adds
  // interactions but never a correctness loss.
  EXPECT_EQ(r.correctness_losses, 0u);
  EXPECT_GE(static_cast<double>(r.interactions),
            r.convergence_time * 8 + 10.0 * 8 - 1);
}

TEST(MeasureConvergence, FinalConfigurationIsReturned) {
  silent_n_state_ssr protocol(8);
  std::vector<silent_n_state_ssr::agent_state> init(8);
  std::vector<silent_n_state_ssr::agent_state> final_config;
  const convergence_result r =
      measure_convergence(protocol, init, 42, {}, &final_config);
  ASSERT_TRUE(r.converged);
  ASSERT_EQ(final_config.size(), 8u);
  EXPECT_TRUE(is_valid_ranking(protocol, final_config));
}

TEST(MeasureConvergence, DeterministicForSameSeed) {
  silent_n_state_ssr protocol(12);
  std::vector<silent_n_state_ssr::agent_state> init(12);
  const convergence_result a = measure_convergence(protocol, init, 1234);
  const convergence_result b = measure_convergence(protocol, init, 1234);
  EXPECT_EQ(a.interactions, b.interactions);
  EXPECT_DOUBLE_EQ(a.convergence_time, b.convergence_time);
}

// A cancel token makes the harness run the engine in bursts of
// max(64 n, 2^22) interactions.  A token that never fires must leave the
// result bit-identical on every engine: the batched engine carries a null
// skip that outruns one burst into the next instead of redrawing it.
class NeverFiredCancel : public ::testing::TestWithParam<engine_spec> {};

TEST_P(NeverFiredCancel, LeavesConvergenceResultBitIdentical) {
  // The baseline at n = 384 runs ~2.5e7 interactions: several bursts.
  constexpr std::uint32_t n = 384;
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    const silent_n_state_ssr protocol(n);
    rng_t rng(seed);
    const auto initial = adversarial_configuration(protocol, rng);
    convergence_options opt;
    const convergence_result plain =
        measure_convergence_with(GetParam(), protocol, initial, seed, opt);
    const cancel_token never;
    opt.cancel = &never;
    const convergence_result bursts =
        measure_convergence_with(GetParam(), protocol, initial, seed, opt);
    ASSERT_TRUE(plain.converged);
    ASSERT_GT(plain.interactions, std::uint64_t{2} << 22);
    EXPECT_EQ(plain.interactions, bursts.interactions) << "seed " << seed;
    EXPECT_EQ(plain.convergence_time, bursts.convergence_time)
        << "seed " << seed;
    EXPECT_EQ(plain.correctness_losses, bursts.correctness_losses);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Engines, NeverFiredCancel,
    ::testing::Values(engine_spec{engine_kind::direct},
                      engine_spec{engine_kind::batched},
                      engine_spec{engine_kind::sharded, 2}),
    [](const ::testing::TestParamInfo<engine_spec>& param) {
      return std::string(to_string(param.param.kind));
    });

}  // namespace
}  // namespace ssr
