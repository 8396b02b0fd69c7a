// Overhead guard for the engine instrumentation (ISSUE 2 acceptance: the
// disabled path must not tax the hot loop).  With no counter sink attached
// the per-interaction cost of instrumentation is one predictable
// `if (counters_)` branch; this test times the direct engine's hot loop
// detached and attached and checks that
//
//   * attaching counters costs at most a small constant factor, and
//   * the detached path is within noise of itself across repetitions
//     (sanity that the measurement is stable enough to mean anything).
//
// Timing assertions are deliberately generous (min-of-repetitions against a
// 2x bound) so the test stays deterministic on loaded CI machines; the
// per-interaction work here is an RNG draw plus a transition, both of which
// dwarf a counter increment.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <vector>

#include "obs/engine_counters.hpp"
#include "obs/trace.hpp"
#include "pp/convergence.hpp"
#include "pp/engine.hpp"
#include "protocols/adversary.hpp"
#include "protocols/optimal_silent.hpp"

namespace ssr {
namespace {

double seconds_for_run(obs::engine_counters* counters) {
  const std::uint32_t n = 256;
  optimal_silent_ssr p(n);
  rng_t rng(17);
  auto init = adversarial_configuration(
      p, optimal_silent_scenario::uniform_random, rng);
  direct_engine<optimal_silent_ssr> eng(p, std::move(init), 18);
  eng.attach_counters(counters);
  const auto start = std::chrono::steady_clock::now();
  eng.run(400'000, ignore_pair, never_stop);
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

double min_of(int repetitions, obs::engine_counters* counters) {
  double best = 1e9;
  for (int r = 0; r < repetitions; ++r)
    best = std::min(best, seconds_for_run(counters));
  return best;
}

TEST(ObsOverhead, DisabledCountersStayCheap) {
  // Warm-up: page in the code and let the clock settle.
  seconds_for_run(nullptr);

  const double detached = min_of(5, nullptr);
  obs::engine_counters counters;
  const double attached = min_of(5, &counters);

  ASSERT_GT(detached, 0.0);
  EXPECT_GT(counters.interactions_executed, 0u);
  // Generous bound: a counter increment per interaction must not double
  // the cost of an RNG draw + transition + hook dispatch.
  EXPECT_LT(attached, detached * 2.0)
      << "attached=" << attached << "s detached=" << detached << "s";
  const double detached_again = min_of(3, nullptr);
  EXPECT_LT(detached_again, detached * 2.0)
      << "measurement too noisy to interpret";
}

// The request-scoped variant of the same contract: a measurement with
// convergence_options::trace unset must pay only the single
// per-measurement pointer test -- the null tracer's hooks inline to
// nothing, so back-to-back detached timings agree within noise.  An
// *attached* sink is allowed real per-interaction work (the phase
// observer recomputes both agents' phases and maintains occupancy on
// every surfaced interaction, ~2x in practice); the bound below only
// pins that it stays a small constant factor rather than scaling with
// the event volume (sampling keeps the sink itself out of the picture).
double seconds_for_convergence(obs::trace_sink* trace) {
  // Several seeds per timing sample: one n=256 convergence is ~1ms,
  // too short for a stable min-of-repetitions on a loaded CI machine.
  const std::uint32_t n = 256;
  optimal_silent_ssr p(n);
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t seed = 24; seed < 32; ++seed) {
    rng_t rng(seed);
    auto init = adversarial_configuration(
        p, optimal_silent_scenario::uniform_random, rng);
    convergence_options opt;
    opt.trace = trace;
    measure_convergence(p, std::move(init), seed, opt);
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

double min_of_convergence(int repetitions, obs::trace_sink* trace) {
  double best = 1e9;
  for (int r = 0; r < repetitions; ++r)
    best = std::min(best, seconds_for_convergence(trace));
  return best;
}

TEST(ObsOverhead, DetachedRequestTraceStaysCheap) {
  seconds_for_convergence(nullptr);  // warm-up

  const double detached = min_of_convergence(5, nullptr);
  // Heavy sampling: the sink sees every offer but keeps few events, so
  // this times the hook dispatch itself, not the event buffering.
  obs::trace_sink sink(obs::trace_options{.sample_every = 1u << 20});
  const double attached = min_of_convergence(5, &sink);

  ASSERT_GT(detached, 0.0);
  EXPECT_GT(sink.offered(), 0u);
  EXPECT_LT(attached, detached * 4.0)
      << "attached=" << attached << "s detached=" << detached << "s";
  const double detached_again = min_of_convergence(3, nullptr);
  EXPECT_LT(detached_again, detached * 2.0)
      << "measurement too noisy to interpret";
}

}  // namespace
}  // namespace ssr
