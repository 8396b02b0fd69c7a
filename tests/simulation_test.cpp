// The direct engine under the uniform scheduler: interaction accounting,
// hooks, budgets, silence detection and fault injection.
#include "pp/engine.hpp"

#include <gtest/gtest.h>

#include "protocols/silent_n_state.hpp"

namespace ssr {
namespace {

std::vector<silent_n_state_ssr::agent_state> all_zero(std::uint32_t n) {
  return std::vector<silent_n_state_ssr::agent_state>(n);
}

TEST(Simulation, TracksInteractionsAndParallelTime) {
  silent_n_state_ssr protocol(10);
  direct_engine<silent_n_state_ssr> eng(protocol, all_zero(10), 1);
  eng.run(25, ignore_pair, never_stop);
  EXPECT_EQ(eng.interactions(), 25u);
  EXPECT_DOUBLE_EQ(eng.parallel_time(), 2.5);
}

TEST(Simulation, RejectsMismatchedConfigurationSize) {
  silent_n_state_ssr protocol(10);
  EXPECT_THROW(direct_engine<silent_n_state_ssr>(protocol, all_zero(9), 1),
               std::logic_error);
}

TEST(Simulation, DeterministicForSameSeed) {
  silent_n_state_ssr protocol(8);
  direct_engine<silent_n_state_ssr> eng1(protocol, all_zero(8), 99);
  direct_engine<silent_n_state_ssr> eng2(protocol, all_zero(8), 99);
  eng1.run(500, ignore_pair, never_stop);
  for (std::uint64_t i = 1; i <= 500; ++i) eng2.run(i, ignore_pair, never_stop);
  for (std::uint32_t i = 0; i < 8; ++i)
    EXPECT_EQ(eng1.agents()[i].rank, eng2.agents()[i].rank);
}

TEST(Simulation, RunUntilStopsOnPredicate) {
  silent_n_state_ssr protocol(6);
  direct_engine<silent_n_state_ssr> eng(protocol, all_zero(6), 3);
  std::uint64_t posts = 0;
  const bool stopped =
      eng.run(1'000'000, ignore_pair, [&](const agent_pair&, bool changed) {
        ++posts;
        return changed && is_valid_ranking(protocol, eng.agents());
      });
  EXPECT_TRUE(stopped);
  EXPECT_TRUE(is_valid_ranking(eng.protocol(), eng.agents()));
  EXPECT_EQ(posts, eng.interactions());  // post sees every interaction
}

TEST(Simulation, RunUntilHonorsInteractionCap) {
  silent_n_state_ssr protocol(6);
  direct_engine<silent_n_state_ssr> eng(protocol, all_zero(6), 3);
  EXPECT_FALSE(eng.run(100, ignore_pair, never_stop));
  EXPECT_EQ(eng.interactions(), 100u);
  // A budget at or below the count already reached executes nothing.
  EXPECT_FALSE(eng.run(100, ignore_pair, never_stop));
  EXPECT_EQ(eng.interactions(), 100u);
}

TEST(Simulation, SilenceDetection) {
  silent_n_state_ssr protocol(5);
  // Distinct ranks: the unique silent configuration.
  std::vector<silent_n_state_ssr::agent_state> distinct(5);
  for (std::uint32_t i = 0; i < 5; ++i) distinct[i].rank = i;
  EXPECT_TRUE(is_silent_configuration(protocol, distinct));
  EXPECT_FALSE(is_silent_configuration(protocol, all_zero(5)));
}

TEST(Simulation, FaultInjectionThroughMutableAgents) {
  silent_n_state_ssr protocol(5);
  std::vector<silent_n_state_ssr::agent_state> distinct(5);
  for (std::uint32_t i = 0; i < 5; ++i) distinct[i].rank = i;
  direct_engine<silent_n_state_ssr> eng(protocol, distinct, 1);
  eng.mutable_agents()[0].rank = 3;  // transient fault: duplicate rank 3
  EXPECT_FALSE(is_silent_configuration(protocol, eng.agents()));
}

TEST(ProtocolConcepts, ValidRankingPredicate) {
  silent_n_state_ssr protocol(4);
  std::vector<silent_n_state_ssr::agent_state> config(4);
  for (std::uint32_t i = 0; i < 4; ++i) config[i].rank = i;
  EXPECT_TRUE(is_valid_ranking(protocol, config));
  EXPECT_EQ(leader_count(protocol, config), 1u);

  config[2].rank = 1;  // duplicate
  EXPECT_FALSE(is_valid_ranking(protocol, config));
}

TEST(ProtocolConcepts, LeaderIsRankOne) {
  silent_n_state_ssr protocol(4);
  silent_n_state_ssr::agent_state s;
  s.rank = 0;  // rank_of maps to formal rank 1
  EXPECT_TRUE(is_leader(protocol, s));
  s.rank = 2;
  EXPECT_FALSE(is_leader(protocol, s));
}

}  // namespace
}  // namespace ssr
