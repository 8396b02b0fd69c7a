// The protocol catalog: one entry per protocol the front ends can run.
//
// An entry holds everything ssr_cli, the benches, ssr_serve and run
// bundles need to know about a protocol:
//
//   * its name, the --list-protocols blurb, and the spec parameters it
//     reads (h, t_max);
//   * its scenario names and the adversarial_configuration generators
//     behind them (named as adversary.cpp's to_string prints them);
//   * the salt that turns a trial seed into its engine seed;
//   * the default confirmation window;
//   * the protocol-lint registry entries that cover it;
//   * how a run counts as stabilized: a valid ranking (measured by
//     measure_convergence_run) or a unique leader.
//
// run_trial() executes one trial of a request from its entry; serve jobs,
// run bundles and the bench sweeps all go through it.  Front ends that need
// the typed protocol (ssr_cli's single-run driver) reach the entry with
// with_catalog_entry().  The name-level view (protocol_catalog(),
// find_protocol()) serves request validation and the listings.
//
// Adding a protocol is one entry type here plus its place in
// catalog_entries (docs/protocol_map.md, "Adding a protocol").
//
// sim_request_spec (util/request_spec.hpp) is only read here as a plain
// value; the validation code in ssr_util sits above this library.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "obs/engine_counters.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"
#include "pp/cancellation.hpp"
#include "pp/rng.hpp"
#include "protocols/adversary.hpp"
#include "protocols/loose_stabilizing.hpp"
#include "util/request_spec.hpp"

namespace ssr {

/// What a run waits for before it counts as stabilized.
enum class stabilization { ranking, unique_leader };

/// Everything one trial takes besides the spec and its seed: measurement
/// overrides a bench sweep chooses, cancellation, and telemetry sinks.
/// None of it changes the trajectory except `confirm`.
struct trial_context {
  /// Confirmation window (parallel time); nullopt = the entry's default.
  std::optional<double> confirm;
  const cancel_token* cancel = nullptr;
  obs::trace_sink* trace = nullptr;
  obs::timeline_profiler* profiler = nullptr;
  /// Filled with the protocol's phase-name table when `trace` is set.
  std::vector<std::string_view>* phase_names = nullptr;
  obs::engine_counters* counters = nullptr;
};

namespace catalog {

/// Scenarios that are enumerators of an adversarial_configuration
/// overload, named as to_string prints them.
template <const auto& Values>
struct enumerated_scenarios {
  static std::span<const std::string_view> scenarios() {
    static const std::vector<std::string> owned = [] {
      std::vector<std::string> out;
      for (const auto s : Values) out.push_back(to_string(s));
      return out;
    }();
    static const std::vector<std::string_view> views(owned.begin(),
                                                     owned.end());
    return views;
  }
  template <class P>
  static auto initial(const P& p, std::string_view scenario, rng_t& rng) {
    for (const auto s : Values)
      if (to_string(s) == scenario) return adversarial_configuration(p, s, rng);
    throw std::runtime_error("unvalidated scenario: " + std::string(scenario));
  }
};

/// What an entry has unless it says otherwise.
struct entry_defaults {
  static constexpr bool uses_h = false;
  static constexpr bool uses_t_max = false;
  static constexpr bool complete_graph_only = false;
  static constexpr std::uint32_t max_n = UINT32_MAX;
  static constexpr stabilization measure = stabilization::ranking;
  /// Silent protocols: correctness implies silence, so no window.
  static double confirm(std::uint32_t) { return 0.0; }
};

inline constexpr optimal_silent_scenario optimal_scenarios[] = {
    optimal_silent_scenario::uniform_random,
    optimal_silent_scenario::all_settled_rank_one,
    optimal_silent_scenario::no_leader,
    optimal_silent_scenario::all_unsettled_expired,
    optimal_silent_scenario::all_dormant_followers,
    optimal_silent_scenario::duplicated_ranks,
    optimal_silent_scenario::valid_ranking,
};

inline constexpr sublinear_scenario sublinear_scenarios[] = {
    sublinear_scenario::uniform_random,
    sublinear_scenario::all_same_name,
    sublinear_scenario::single_collision,
    sublinear_scenario::ghost_names,
    sublinear_scenario::missing_own_name,
    sublinear_scenario::planted_histories,
    sublinear_scenario::mid_reset,
    sublinear_scenario::valid_ranking,
};

/// Protocol 1, the Cai-Izumi-Wada baseline.
struct baseline : entry_defaults {
  using protocol = silent_n_state_ssr;
  static constexpr std::string_view name = "baseline";
  static constexpr std::string_view blurb =
      "Silent-n-state-SSR (Theta(n^2) time, n states; Table 1 row 1)";
  static constexpr std::string_view label = "baseline";  // in errors
  static constexpr std::uint64_t salt = 0x5bd1e995;

  static std::span<const std::string_view> scenarios() {
    static constexpr std::string_view names[] = {"uniform_random"};
    return names;
  }
  static protocol make(const util::sim_request_spec& spec) {
    return protocol(spec.n);
  }
  static auto initial(const protocol& p, std::string_view, rng_t& rng) {
    return adversarial_configuration(p, rng);
  }
  static std::vector<std::string> lint_entries(std::uint32_t) {
    return {"baseline"};
  }
  /// "direct" for the baseline has always meant the protocol-specialized
  /// exact jump simulator (accelerated_silent_n_state): truly direct
  /// stepping of a Theta(n^2)-time protocol is Theta(n^3) interactions.
  /// Returns the stabilization time from `initial` on the direct engine,
  /// nullopt on the others, which measure as every entry does.
  static std::optional<double> jump_time(
      engine_spec engine, const std::vector<protocol::agent_state>& initial,
      std::uint64_t engine_seed, const trial_context& context);
};

/// Optimal-Silent-SSR (Section 4).
struct optimal : entry_defaults, enumerated_scenarios<optimal_scenarios> {
  using protocol = optimal_silent_ssr;
  static constexpr std::string_view name = "optimal";
  static constexpr std::string_view blurb =
      "Optimal-Silent-SSR (O(n) time, O(n) states; Theorem 4.1)";
  static constexpr std::string_view label = "optimal-silent";
  static constexpr std::uint64_t salt = 0x9747b28c;

  static protocol make(const util::sim_request_spec& spec) {
    return protocol(spec.n);
  }
  static std::vector<std::string> lint_entries(std::uint32_t) {
    return {"optimal", "optimal-default"};
  }
};

/// Sublinear-Time-SSR (Section 5) with history trees of depth h.
struct sublinear : entry_defaults, enumerated_scenarios<sublinear_scenarios> {
  using protocol = sublinear_time_ssr;
  static constexpr std::string_view name = "sublinear";
  static constexpr std::string_view blurb =
      "Sublinear-Time-SSR (O(n/2^h polylog n) time; Theorem 5.1)";
  static constexpr std::string_view label = "sublinear";
  static constexpr bool uses_h = true;
  static constexpr bool complete_graph_only = true;
  /// Names of 3 log2 n bits are packed into name_t's 63.
  static constexpr std::uint32_t max_n = std::uint32_t{1} << 21;
  static constexpr std::uint64_t salt = 0x85ebca6b;

  static protocol make(const util::sim_request_spec& spec) {
    return protocol(spec.n, spec.h);
  }
  /// The protocol is non-silent, so correctness must hold for a window
  /// that grows like its stabilization time.
  static double confirm(std::uint32_t n) {
    return 8.0 * std::log2(static_cast<double>(n) + 1.0);
  }
  /// The linter's sampled checks only run at h <= 2.
  static std::vector<std::string> lint_entries(std::uint32_t h) {
    return {"sublinear-h" + std::to_string(std::min<std::uint32_t>(h, 2))};
  }
};

/// Loose-stabilizing leader election (Sudo et al.), the comparison point.
struct loose : entry_defaults {
  using protocol = loose_stabilizing_le;
  static constexpr std::string_view name = "loose";
  static constexpr std::string_view blurb =
      "loose-stabilizing LE (Theta(log n)-state comparison point)";
  static constexpr std::string_view label = "loose LE";
  static constexpr bool uses_t_max = true;
  static constexpr std::uint64_t salt = 0;  // engine seed = trial seed
  static constexpr stabilization measure = stabilization::unique_leader;

  static std::span<const std::string_view> scenarios() {
    static constexpr std::string_view names[] = {"dead_configuration"};
    return names;
  }
  /// t_max = 0 picks the default timeout 4 ceil(log2 n).
  static protocol make(const util::sim_request_spec& spec) {
    const auto t_max =
        spec.t_max > 0
            ? spec.t_max
            : static_cast<std::uint32_t>(
                  4 * std::ceil(std::log2(static_cast<double>(spec.n))));
    return protocol(spec.n, t_max);
  }
  static auto initial(const protocol& p, std::string_view, rng_t&) {
    return p.dead_configuration();
  }
  static std::vector<std::string> lint_entries(std::uint32_t) {
    return {"loose"};
  }
};

}  // namespace catalog

/// Every catalog entry, in --list-protocols order.
using catalog_entries = std::tuple<catalog::baseline, catalog::optimal,
                                   catalog::sublinear, catalog::loose>;

/// Calls `f.template operator()<Entry>()` for the entry named `name` and
/// returns its (non-void) result.  Throws std::runtime_error for a name no
/// entry has; front ends validate names before they get here.
template <class F>
auto with_catalog_entry(std::string_view name, F&& f) {
  return [&]<class... E>(std::tuple<E...>*) {
    using result =
        decltype(f.template operator()<std::tuple_element_t<0, catalog_entries>>());
    result out{};
    const bool found =
        ((name == E::name && (out = f.template operator()<E>(), true)) || ...);
    if (!found)
      throw std::runtime_error("unvalidated protocol: " + std::string(name));
    return out;
  }(static_cast<catalog_entries*>(nullptr));
}

/// The name-level view of one entry.
struct protocol_entry {
  std::string_view name;
  std::string_view blurb;
  /// Valid scenario names; the first is the default.
  std::span<const std::string_view> scenarios;
  bool uses_h = false;
  bool uses_t_max = false;
  /// Largest population size the protocol supports.
  std::uint32_t max_n = UINT32_MAX;
  /// Lint registry entries covering the protocol at history depth h.
  std::vector<std::string> (*lint_entries)(std::uint32_t h) = nullptr;
};

/// Every entry, in catalog_entries order.
std::span<const protocol_entry> protocol_catalog();

/// The entry called `name`, or nullptr.
const protocol_entry* find_protocol(std::string_view name);

/// Runs one trial of `spec` (protocol, scenario, n, h, t_max, max_time and
/// engine; trials and seed are the caller's sweep) with trial seed `seed`:
/// the scenario is drawn from rng_t(seed), the engine runs from seed ^ the
/// entry's salt, and the result is the parallel time of stabilization.
/// Throws std::runtime_error when the run does not stabilize within
/// spec.max_time, and cancelled_error when context.cancel fires.
double run_trial(const util::sim_request_spec& spec, std::uint64_t seed,
                 const trial_context& context = {});

}  // namespace ssr
