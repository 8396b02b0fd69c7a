// The trial kinds the workloads are built from: one protocol, its
// adversarial start, its engine and its convergence options, constructed
// exactly as the library's own front ends construct them (same seed
// salts, so a trial with seed s here is the trial serve::run_simulation
// runs for a request whose derived trial seed is s).
//
// `cancel` matters beyond cancellation: with a token attached the harness
// steps the engine in bounded bursts, and the batched engine redraws its
// null skip at every burst boundary, so its trajectory then differs from
// an uncancellable run of the same seed.  serve always attaches a token.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "pp/cancellation.hpp"
#include "pp/convergence.hpp"
#include "pp/engine.hpp"
#include "protocols/adversary.hpp"
#include "protocols/optimal_silent.hpp"
#include "protocols/silent_n_state.hpp"
#include "protocols/sublinear.hpp"

namespace perfbench {

/// Optimal-Silent-SSR from a named scenario on the direct engine.
struct optimal_kind {
  using protocol = ssr::optimal_silent_ssr;
  template <class Q>
  using engine = ssr::direct_engine<Q>;
  static constexpr std::uint64_t salt = 0x9747b28c;

  std::uint32_t n = 0;
  ssr::optimal_silent_scenario scenario =
      ssr::optimal_silent_scenario::uniform_random;
  double max_parallel_time = 1e9;
  const ssr::cancel_token* cancel = nullptr;

  protocol make() const { return protocol(n); }
  std::vector<protocol::agent_state> initial(const protocol& p,
                                             ssr::rng_t& rng) const {
    return ssr::adversarial_configuration(p, scenario, rng);
  }
  ssr::convergence_options options() const {
    ssr::convergence_options opt;
    opt.max_parallel_time = max_parallel_time;
    opt.cancel = cancel;
    return opt;
  }
};

/// The Silent-n-state baseline from uniformly random ranks on the batched
/// (count-based, null-skipping) engine.
struct baseline_kind {
  using protocol = ssr::silent_n_state_ssr;
  template <class Q>
  using engine = ssr::batched_engine<Q>;
  static constexpr std::uint64_t salt = 0x5bd1e995;

  std::uint32_t n = 0;
  double max_parallel_time = 1e9;
  const ssr::cancel_token* cancel = nullptr;

  protocol make() const { return protocol(n); }
  std::vector<protocol::agent_state> initial(const protocol& p,
                                             ssr::rng_t& rng) const {
    return ssr::adversarial_configuration(p, rng);
  }
  ssr::convergence_options options() const {
    ssr::convergence_options opt;
    opt.max_parallel_time = max_parallel_time;
    opt.cancel = cancel;
    return opt;
  }
};

/// Sublinear-Time-SSR (history trees of depth h) on the direct engine,
/// held correct for a confirmation window before it counts as stable.
struct sublinear_kind {
  using protocol = ssr::sublinear_time_ssr;
  template <class Q>
  using engine = ssr::direct_engine<Q>;
  static constexpr std::uint64_t salt = 0x85ebca6b;

  std::uint32_t n = 0;
  std::uint32_t h = 1;
  ssr::sublinear_scenario scenario = ssr::sublinear_scenario::uniform_random;
  double confirm_parallel_time = 0.0;
  double max_parallel_time = 1e8;
  const ssr::cancel_token* cancel = nullptr;

  protocol make() const { return protocol(n, h); }
  std::vector<protocol::agent_state> initial(const protocol& p,
                                             ssr::rng_t& rng) const {
    return ssr::adversarial_configuration(p, scenario, rng);
  }
  ssr::convergence_options options() const {
    ssr::convergence_options opt;
    opt.max_parallel_time = max_parallel_time;
    opt.cancel = cancel;
    opt.confirm_parallel_time = confirm_parallel_time;
    return opt;
  }
};

/// The confirmation window serve::run_simulation holds sublinear runs for.
inline double serve_sublinear_confirm(std::uint32_t n) {
  return 8.0 * std::log2(static_cast<double>(n) + 1.0);
}

}  // namespace perfbench
