// Randomized property tests for pp/batch_scheduler.hpp, the block-sampling
// half of the batched engine.  Across random populations n in {2..17},
// capacities both below and far above the population size, and per-call
// limits both below and above the capacity, every emitted batch must be:
//
//   * valid    -- each pair an ordered pair of distinct agents in [0, n);
//   * prefix-independent -- only the final pair of a batch may revisit an
//                 agent used earlier in that batch, and exactly when the
//                 collision-truncation counter ticks;
//   * conserved -- batch sizes never exceed min(capacity, limit), at least
//                 one pair is emitted whenever limit >= 1, and the lifetime
//                 counters account for every pair.
//
// A final check runs the block engine end to end and verifies interaction
// budgets are hit exactly -- no drawn pair is dropped or double-counted at
// batch boundaries.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "pp/batch_scheduler.hpp"
#include "pp/engine.hpp"
#include "pp/random.hpp"
#include "pp/rng.hpp"
#include "protocols/loose_stabilizing.hpp"

namespace {

using namespace ssr;

TEST(BatchSchedulerFuzz, EmittedBatchesAreValidPrefixIndependentAndConserved) {
  rng_t meta(0xfeedfacecafef00dULL);
  for (int trial = 0; trial < 300; ++trial) {
    const auto n = static_cast<std::uint32_t>(2 + uniform_below(meta, 16));
    // Capacity sweeps from tiny to far beyond the population (a batch can
    // never hold more than ~n/2 independent pairs, so large capacities
    // always end in a truncation or a limit cut).
    const auto capacity =
        static_cast<std::uint32_t>(1 + uniform_below(meta, 4 * n));
    batch_scheduler sched(n, capacity);
    ASSERT_EQ(sched.population_size(), n);
    ASSERT_EQ(sched.capacity(), capacity);

    rng_t rng(derive_seed(991, static_cast<std::uint64_t>(trial)));
    std::uint64_t emitted = 0, truncations = 0;
    std::vector<bool> used(n);
    for (int b = 0; b < 40; ++b) {
      // Limits from 0 to twice the capacity: exercises the
      // remaining-budget-smaller-than-batch path and the unconstrained one.
      const std::uint64_t limit = uniform_below(meta, 2 * capacity + 2);
      const auto batch = sched.next_batch(rng, limit);
      const std::uint64_t want = std::min<std::uint64_t>(capacity, limit);

      const std::uint64_t cut = sched.collision_truncations() - truncations;
      truncations = sched.collision_truncations();
      ASSERT_LE(cut, 1u);

      ASSERT_LE(batch.size(), want);
      if (limit >= 1) {
        ASSERT_GE(batch.size(), 1u);
      }
      if (cut == 0) {
        // Only a collision may cut a batch short of its target size.
        ASSERT_EQ(batch.size(), want);
      }

      std::fill(used.begin(), used.end(), false);
      for (std::size_t i = 0; i < batch.size(); ++i) {
        const agent_pair pair = batch[i];
        ASSERT_LT(pair.initiator, n);
        ASSERT_LT(pair.responder, n);
        ASSERT_NE(pair.initiator, pair.responder);
        const bool collides = used[pair.initiator] || used[pair.responder];
        if (i + 1 < batch.size()) {
          ASSERT_FALSE(collides)
              << "non-final pair revisits an agent at index " << i;
        } else if (collides) {
          ASSERT_EQ(cut, 1u)
              << "final pair collides but no truncation was recorded";
        }
        used[pair.initiator] = true;
        used[pair.responder] = true;
      }

      emitted += batch.size();
      ASSERT_EQ(sched.pairs_issued(), emitted);
      ASSERT_EQ(sched.batches_issued(), static_cast<std::uint64_t>(b + 1));
    }
  }
}

TEST(BatchSchedulerFuzz, BlockEngineHitsInteractionBudgetsExactly) {
  // loose stabilizing LE is not batch-countable, so batched_engine uses the
  // batch_scheduler block path; budgets that are not multiples of the batch
  // capacity must still be hit exactly via the limit parameter.
  const std::uint32_t n = 16;
  loose_stabilizing_le p(n, 10);
  batched_engine<loose_stabilizing_le> eng(p, p.dead_configuration(), 77);
  std::uint64_t surfaced = 0;
  const auto count_post = [&](const agent_pair&, bool) {
    ++surfaced;
    return false;
  };
  for (const std::uint64_t budget : {1ull, 2ull, 255ull, 256ull, 257ull,
                                     1000ull, 1003ull, 5000ull}) {
    const bool stopped = eng.run(budget, ignore_pair, count_post);
    EXPECT_FALSE(stopped);
    EXPECT_EQ(eng.interactions(), budget);
    // Every interaction in the block path is surfaced to the hooks.
    EXPECT_EQ(surfaced, budget);
  }
}

}  // namespace
