// Fuzz wall for the sharded engine (pp/sharded_scheduler.hpp): randomized
// shard boundaries and the determinism contract.
//
// The contract under test:
//   - layout: contiguous shards cover [0, n), sizes differ by at most one,
//     and the tournament slots partition the unordered shard pairs into
//     shard-disjoint sets (that disjointness is what makes lock-free
//     parallel execution sound);
//   - plan: a round's multinomial class counts conserve the requested
//     total exactly, and task stream indices are unique per round;
//   - determinism: trajectories are a pure function of (seed, shard
//     count) -- the sequential hooked run() and the threaded
//     run_parallel() are bit-identical, reruns are bit-identical, and
//     shards=1 is bit-identical to the batched engine it delegates to;
//   - edge shapes: n not divisible by shards, n < shards, shards == n,
//     and budgets that are not round multiples all behave.
//
// The whole suite runs again under ThreadSanitizer via the
// `concurrency_suites` ctest target (tests/CMakeLists.txt), which is what
// certifies the worker pool, the shared counter merge, and the progress
// meter against data races -- so the parallel tests here deliberately push
// more threads than this machine has cores.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include "obs/engine_counters.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "pp/engine.hpp"
#include "pp/random.hpp"
#include "pp/rng.hpp"
#include "pp/sharded_scheduler.hpp"

namespace ssr {
namespace {

// A state-mixing protocol where every interaction both consumes RNG words
// and changes both agents: any divergence in pair choice, draw order, or
// stream assignment avalanches into the final configuration, so comparing
// configurations compares whole trajectories.
struct mix_protocol {
  struct agent_state {
    std::uint64_t v = 0;
    bool operator==(const agent_state&) const = default;
  };

  std::uint32_t n = 0;

  std::uint32_t population_size() const { return n; }
  bool interact(agent_state& x, agent_state& y, rng_t& rng) const {
    const std::uint64_t r = rng();
    x.v = x.v * 0x9e3779b97f4a7c15ULL + y.v + r;
    y.v ^= (x.v >> 13) + 0xd1b54a32d192ed03ULL;
    return true;
  }
};

std::vector<mix_protocol::agent_state> mix_init(std::uint32_t n) {
  std::vector<mix_protocol::agent_state> init(n);
  for (std::uint32_t i = 0; i < n; ++i) init[i].v = 0x100 + i;
  return init;
}

std::vector<mix_protocol::agent_state> agents_of(const auto& engine) {
  const auto view = engine.agents();
  return {view.begin(), view.end()};
}

// The fuzzed (n, shards) shapes: divisibility edge cases, n < shards,
// shards == n, single-agent shards, plus random draws.
std::vector<std::pair<std::uint32_t, std::uint32_t>> fuzz_shapes() {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> shapes = {
      {2, 1},  {2, 2},   {2, 8},  {3, 2},  {5, 8},   {7, 3},
      {8, 8},  {9, 4},   {17, 8}, {64, 8}, {65, 8},  {100, 7},
      {33, 2}, {256, 8}, {31, 5}, {12, 12},
  };
  rng_t rng(20260808);
  for (int i = 0; i < 24; ++i) {
    const auto n = static_cast<std::uint32_t>(2 + uniform_below(rng, 200));
    const auto s = static_cast<std::uint32_t>(1 + uniform_below(rng, 16));
    shapes.emplace_back(n, s);
  }
  return shapes;
}

TEST(ShardedSchedulerFuzz, LayoutInvariants) {
  for (const auto& [n, shards_requested] : fuzz_shapes()) {
    const std::uint32_t shards = std::min(shards_requested, n);
    const auto layout = detail::shard_layout::build(n, shards);
    ASSERT_EQ(layout.offset.size(), shards + 1u);
    EXPECT_EQ(layout.offset.front(), 0u);
    EXPECT_EQ(layout.offset.back(), n);
    std::uint32_t lo = n / shards, hi = lo;
    if (n % shards != 0) ++hi;
    for (std::uint32_t s = 0; s < shards; ++s) {
      ASSERT_LT(layout.offset[s], layout.offset[s + 1]);
      const std::uint32_t m = layout.size_of(s);
      EXPECT_GE(m, lo);
      EXPECT_LE(m, hi);
    }
    // Tournament slots: every unordered pair exactly once, and the pairs of
    // one slot touch pairwise-disjoint shards.
    std::set<std::pair<std::uint32_t, std::uint32_t>> seen;
    for (const auto& slot : layout.cross_slots) {
      std::set<std::uint32_t> touched;
      for (const auto& [a, b] : slot) {
        ASSERT_LT(a, b);
        ASSERT_LT(b, shards);
        EXPECT_TRUE(seen.emplace(a, b).second)
            << "pair (" << a << "," << b << ") scheduled twice";
        EXPECT_TRUE(touched.insert(a).second) << "slot reuses shard " << a;
        EXPECT_TRUE(touched.insert(b).second) << "slot reuses shard " << b;
      }
    }
    EXPECT_EQ(seen.size(), std::size_t{shards} * (shards - 1) / 2);
  }
}

TEST(ShardedSchedulerFuzz, PlanConservesTotalsAndStreams) {
  rng_t plan_rng(77);
  std::vector<std::uint64_t> weights, counts;
  std::vector<std::vector<detail::shard_task>> slots;
  for (const auto& [n, shards_requested] : fuzz_shapes()) {
    const std::uint32_t shards = std::min(shards_requested, n);
    if (shards < 2) continue;  // the engine delegates; no plan exists
    const auto layout = detail::shard_layout::build(n, shards);
    for (const std::uint64_t total : {std::uint64_t{1}, std::uint64_t{7},
                                      std::uint64_t{32},
                                      std::uint64_t{n} * 3 + 1}) {
      detail::plan_shard_round(layout, plan_rng, total, weights, counts,
                               slots);
      std::uint64_t planned = 0;
      std::set<std::uint64_t> streams;
      for (const auto& slot : slots) {
        for (const auto& task : slot) {
          planned += task.count_ab + task.count_ba;
          EXPECT_TRUE(streams.insert(task.stream).second)
              << "stream index " << task.stream << " reused within a round";
          if (task.diagonal) {
            EXPECT_EQ(task.a, task.b);
            EXPECT_GE(layout.size_of(task.a), 2u)
                << "diagonal task on a single-agent shard";
            EXPECT_EQ(task.count_ba, 0u);
          } else {
            ASSERT_LT(task.a, task.b);
          }
          EXPECT_GT(task.count_ab + task.count_ba, 0u)
              << "zero-count task not dropped";
        }
      }
      EXPECT_EQ(planned, total)
          << "n=" << n << " shards=" << shards
          << ": the multinomial draw did not conserve the round total";
    }
  }
}

TEST(ShardedSchedulerFuzz, SequentialMatchesParallelBitIdentical) {
  for (const auto& [n, shards] : fuzz_shapes()) {
    const mix_protocol p{n};
    const std::uint64_t seed = derive_seed(404, n * 31 + shards);
    const std::uint64_t budget = std::uint64_t{11} * n + 5;

    sharded_engine<mix_protocol> seq(p, mix_init(n), seed, {.shards = shards});
    obs::engine_counters seq_counters;
    seq.attach_counters(&seq_counters);
    seq.run(budget, ignore_pair, never_stop);

    sharded_engine<mix_protocol> par(p, mix_init(n), seed, {.shards = shards});
    obs::engine_counters par_counters;
    par.attach_counters(&par_counters);
    par.run_parallel(budget);

    ASSERT_EQ(seq.interactions(), budget);
    ASSERT_EQ(par.interactions(), budget);
    EXPECT_EQ(agents_of(seq), agents_of(par))
        << "n=" << n << " shards=" << shards
        << ": threaded trajectory diverged from the sequential one";
    EXPECT_EQ(seq_counters.interactions_executed,
              par_counters.interactions_executed);
    EXPECT_EQ(seq_counters.transitions_changed,
              par_counters.transitions_changed);
    EXPECT_EQ(seq_counters.shard_rounds, par_counters.shard_rounds);
  }
}

TEST(ShardedSchedulerFuzz, SameSeedRerunsBitIdenticalDifferentSeedsDiverge) {
  const std::uint32_t n = 97;
  const mix_protocol p{n};
  const std::uint64_t budget = 40 * n;
  for (const std::uint32_t shards : {2u, 3u, 8u}) {
    sharded_engine<mix_protocol> a(p, mix_init(n), 51, {.shards = shards});
    sharded_engine<mix_protocol> b(p, mix_init(n), 51, {.shards = shards});
    sharded_engine<mix_protocol> c(p, mix_init(n), 52, {.shards = shards});
    a.run_parallel(budget);
    b.run_parallel(budget);
    c.run_parallel(budget);
    EXPECT_EQ(agents_of(a), agents_of(b)) << "shards=" << shards;
    EXPECT_NE(agents_of(a), agents_of(c)) << "shards=" << shards;
  }
}

TEST(ShardedSchedulerFuzz, ShardsOneIsTheBatchedEngineBitForBit) {
  for (const std::uint32_t n : {2u, 9u, 64u}) {
    const mix_protocol p{n};
    const std::uint64_t seed = 1000 + n;
    const std::uint64_t budget = 23 * n;

    sharded_engine<mix_protocol> sharded(p, mix_init(n), seed, {.shards = 1});
    batched_engine<mix_protocol> batched(p, mix_init(n), seed);
    EXPECT_EQ(sharded.shards(), 1u);
    std::uint64_t sharded_pairs = 0, batched_pairs = 0;
    sharded.run(
        budget, [&](const agent_pair&) { ++sharded_pairs; },
        [](const agent_pair&, bool) { return false; });
    batched.run(
        budget, [&](const agent_pair&) { ++batched_pairs; },
        [](const agent_pair&, bool) { return false; });
    EXPECT_EQ(sharded_pairs, batched_pairs);
    EXPECT_EQ(sharded.interactions(), batched.interactions());
    EXPECT_EQ(agents_of(sharded), agents_of(batched)) << "n=" << n;
  }
}

TEST(ShardedSchedulerFuzz, PopulationSmallerThanShardCountClamps) {
  for (const std::uint32_t n : {2u, 3u, 5u}) {
    const mix_protocol p{n};
    sharded_engine<mix_protocol> eng(p, mix_init(n), 7, {.shards = 64});
    EXPECT_LE(eng.shards(), n);
    const std::uint64_t budget = 100;
    eng.run_parallel(budget);
    EXPECT_EQ(eng.interactions(), budget);
    EXPECT_DOUBLE_EQ(eng.parallel_time(),
                     static_cast<double>(budget) / static_cast<double>(n));
  }
}

TEST(ShardedSchedulerFuzz, BudgetHitExactlyAcrossOddBudgets) {
  const std::uint32_t n = 50;
  const mix_protocol p{n};
  // Budgets straddling round boundaries (round length is max(32, n/2)=32
  // here... n/2=25 -> 32): below, at, just above, and far beyond one round.
  for (const std::uint64_t budget : {1ull, 31ull, 32ull, 33ull, 1000ull}) {
    sharded_engine<mix_protocol> eng(p, mix_init(n), 3, {.shards = 4});
    const bool stopped = eng.run(budget, ignore_pair, never_stop);
    EXPECT_FALSE(stopped);
    EXPECT_EQ(eng.interactions(), budget);
  }
}

TEST(ShardedSchedulerFuzz, PostStopHaltsMidRound) {
  const std::uint32_t n = 64;
  const mix_protocol p{n};
  sharded_engine<mix_protocol> eng(p, mix_init(n), 11, {.shards = 4});
  std::uint64_t seen = 0;
  const bool stopped = eng.run(
      1'000'000, ignore_pair,
      [&](const agent_pair&, bool) { return ++seen == 100; });
  EXPECT_TRUE(stopped);
  EXPECT_EQ(seen, 100u);
  EXPECT_EQ(eng.interactions(), 100u);
}

TEST(ShardedSchedulerFuzz, HooksSeeInShardPairs) {
  const std::uint32_t n = 37;
  const mix_protocol p{n};
  const std::uint32_t shards = 5;
  sharded_engine<mix_protocol> eng(p, mix_init(n), 13, {.shards = shards});
  const auto layout = detail::shard_layout::build(n, shards);
  auto shard_of = [&](std::uint32_t agent) {
    std::uint32_t s = 0;
    while (layout.offset[s + 1] <= agent) ++s;
    return s;
  };
  std::uint64_t same_shard = 0, cross_shard = 0;
  eng.run(
      20 * n,
      [&](const agent_pair& pair) {
        ASSERT_NE(pair.initiator, pair.responder);
        ASSERT_LT(pair.initiator, n);
        ASSERT_LT(pair.responder, n);
      },
      [&](const agent_pair& pair, bool) {
        (shard_of(pair.initiator) == shard_of(pair.responder) ? same_shard
                                                              : cross_shard)++;
        return false;
      });
  // Under the uniform pair law both class groups have mass at these sizes
  // (cross weight dominates at 5 shards of ~7 agents).
  EXPECT_GT(same_shard, 0u);
  EXPECT_GT(cross_shard, 0u);
}

TEST(ShardedSchedulerFuzz, CountersAccountForEveryInteraction) {
  const std::uint32_t n = 80;
  const mix_protocol p{n};
  obs::engine_counters counters;
  sharded_engine<mix_protocol> eng(p, mix_init(n), 17, {.shards = 8});
  eng.attach_counters(&counters);
  const std::uint64_t budget = 10 * n;
  eng.run_parallel(budget);
  EXPECT_EQ(counters.interactions_executed, budget);
  // mix_protocol always reports a change.
  EXPECT_EQ(counters.transitions_changed, budget);
  EXPECT_GE(counters.shard_rounds, 1u);
  // round length = max(32, n/2) = 40 -> exactly budget/40 rounds here.
  EXPECT_EQ(counters.shard_rounds, budget / 40);
  // A second run keeps accumulating into the same sink.
  eng.run_parallel(budget + 5);
  EXPECT_EQ(counters.interactions_executed, budget + 5);
}

TEST(ShardedSchedulerFuzz, ManyEnginesRunParallelConcurrently) {
  // Engines on separate threads, each with its own worker pool: the
  // TSan-visible surface of executor setup/teardown and the shared counter
  // merge, crossed between unrelated engine instances.
  constexpr int kEngines = 4;
  std::vector<std::thread> drivers;
  std::vector<std::uint64_t> results(kEngines);
  for (int e = 0; e < kEngines; ++e) {
    drivers.emplace_back([e, &results] {
      const std::uint32_t n = 48 + static_cast<std::uint32_t>(e);
      const mix_protocol p{n};
      obs::engine_counters counters;
      sharded_engine<mix_protocol> eng(p, mix_init(n),
                                       static_cast<std::uint64_t>(e) + 1,
                                       {.shards = 4});
      eng.attach_counters(&counters);
      eng.run_parallel(std::uint64_t{25} * n);
      results[e] = counters.interactions_executed;
    });
  }
  for (auto& t : drivers) t.join();
  for (int e = 0; e < kEngines; ++e) {
    EXPECT_EQ(results[e], std::uint64_t{25} * (48 + e));
  }
}

// The plan's binomial sampler, both regimes: the waiting-time path
// (small mean) and BTRS transformed rejection (large mean) must both match
// Binomial(t, p) moments -- a drifting sampler would shift every class
// count in the multinomial plan.
TEST(BinomialDraw, MomentsMatchBothRegimes) {
  struct regime {
    std::uint64_t t;
    double p;
  };
  rng_t rng(2024);
  for (const auto& [t, p] : {regime{40, 0.05},    // small: waiting-time
                             regime{500, 0.004},  // small mean, large t
                             regime{400, 0.25},   // BTRS
                             regime{10'000, 0.5},  // BTRS at p = 1/2
                             regime{300, 0.9}}) {  // mirrored p > 1/2
    const int draws = 20'000;
    double sum = 0.0, sum_sq = 0.0;
    for (int i = 0; i < draws; ++i) {
      const auto x = static_cast<double>(binomial_draw(rng, t, p));
      ASSERT_LE(x, static_cast<double>(t));
      sum += x;
      sum_sq += x * x;
    }
    const double mean = sum / draws;
    const double expected_mean = static_cast<double>(t) * p;
    const double expected_var = expected_mean * (1.0 - p);
    const double var = sum_sq / draws - mean * mean;
    // 5-sigma band on the sample mean; ~10% band on the variance.
    EXPECT_NEAR(mean, expected_mean,
                5.0 * std::sqrt(expected_var / draws) + 1e-9)
        << "t=" << t << " p=" << p;
    EXPECT_NEAR(var, expected_var, 0.1 * expected_var + 0.05)
        << "t=" << t << " p=" << p;
  }
}

}  // namespace
}  // namespace ssr
