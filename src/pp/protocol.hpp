// Protocol concepts: the contract every population protocol in this library
// implements.
//
// A population protocol is a value type holding the population size n and any
// tuning constants.  Its nested `agent_state` type is the per-agent state.
// `interact(initiator, responder, rng)` applies the (possibly randomized)
// transition function T to an ordered pair of agent states in place and
// returns whether either state changed; the return value drives silence
// detection and lets accelerated simulators skip null interactions.
#pragma once

#include <concepts>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "pp/assert.hpp"
#include "pp/rng.hpp"

namespace ssr {

template <class P>
concept population_protocol =
    std::copy_constructible<P> &&
    requires(const P cp, P p, typename P::agent_state& a,
             typename P::agent_state& b, rng_t& rng) {
      typename P::agent_state;
      { cp.population_size() } -> std::convertible_to<std::uint32_t>;
      { p.interact(a, b, rng) } -> std::same_as<bool>;
    };

/// Key returned by batch_key for states outside the inert partition (see
/// batch_countable_protocol).
inline constexpr std::uint32_t batch_volatile_key = 0xffffffffu;

/// A batch-countable protocol partitions its states for the batched engine
/// (pp/engine.hpp): batch_key(s) is either an *inert key* in
/// [0, batch_key_count()) or batch_volatile_key.  The contract is:
///
///   two agents whose states carry *distinct inert keys* interact nully,
///   in both initiator/responder orders.
///
/// Nothing is promised about pairs sharing an inert key or involving a
/// volatile agent -- the engine probes those with the real transition
/// function, so a conservative partition (more volatile states) is always
/// sound, merely slower.  The batched engine uses the partition to skip
/// runs of certainly-null interactions in one geometric draw.
template <class P>
concept batch_countable_protocol =
    population_protocol<P> &&
    requires(const P p, const typename P::agent_state& s) {
      { p.batch_key(s) } -> std::convertible_to<std::uint32_t>;
      { p.batch_key_count() } -> std::convertible_to<std::uint32_t>;
    };

/// A ranking protocol additionally exposes the rank output field of a state:
/// 1..n when the agent currently holds a rank, 0 when it does not.  The
/// measurement harness uses this to track correctness in O(1) per
/// interaction.  Every protocol in this library is a ranking protocol
/// (Section 1.1 of the paper: all the SSLE protocols work by solving the
/// harder ranking problem).
template <class P>
concept ranking_protocol =
    population_protocol<P> &&
    requires(const P p, const typename P::agent_state& s) {
      { p.rank_of(s) } -> std::convertible_to<std::uint32_t>;
    };

/// A configuration C : A -> S is stored as a contiguous vector of agent
/// states indexed by agent.  Agent identity exists only in the simulator
/// (the model's agents are anonymous; indices are never visible to states).
template <class P>
using configuration = std::span<const typename P::agent_state>;

/// True iff the rank fields of `config` form a valid ranking, i.e. a
/// permutation of 1..n.  This is the correctness predicate for
/// self-stabilizing ranking (Section 2 of the paper).
template <ranking_protocol P>
bool is_valid_ranking(const P& p,
                      std::span<const typename P::agent_state> config) {
  const std::uint32_t n = p.population_size();
  if (config.size() != n) return false;
  // count ranks; any 0 or duplicate disqualifies.
  std::vector<bool> seen(n + 1, false);
  for (const auto& s : config) {
    const std::uint32_t r = p.rank_of(s);
    if (r < 1 || r > n || seen[r]) return false;
    seen[r] = true;
  }
  return true;
}

/// True iff no ordered pair the scheduler can draw has a non-null
/// transition, i.e. the configuration is silent (Section 2, "Silent
/// protocols").  `edges` lists the undirected edges of a non-complete
/// interaction graph, each probed in both orientations; empty means the
/// complete graph, where every ordered pair of distinct agents is probed.
/// A configuration may be silent on a sparse graph while the same multiset
/// of states is not silent on the complete graph -- the root cause of the
/// livelocks tests/topology_test.cpp demonstrates.  O(n^2) probes on the
/// complete graph; intended for tests and small n.  Transitions run on
/// copies, so the configuration is not disturbed.
template <population_protocol P>
bool is_silent_configuration(
    const P& p, std::span<const typename P::agent_state> config,
    std::span<const std::pair<std::uint32_t, std::uint32_t>> edges = {}) {
  P probe = p;
  rng_t probe_rng(0xdeadbeef);
  const auto changes = [&](std::uint32_t i, std::uint32_t j) {
    typename P::agent_state a = config[i];
    typename P::agent_state b = config[j];
    return probe.interact(a, b, probe_rng);
  };
  if (edges.empty()) {
    const auto n = static_cast<std::uint32_t>(config.size());
    for (std::uint32_t i = 0; i < n; ++i) {
      for (std::uint32_t j = 0; j < n; ++j) {
        if (i != j && changes(i, j)) return false;
      }
    }
    return true;
  }
  for (const auto& [u, v] : edges) {
    if (changes(u, v) || changes(v, u)) return false;
  }
  return true;
}

/// Registration-time spot check, compiled out in release builds (see
/// SSR_ASSERT): rank range over the declared inventory plus transition
/// closure on a bounded sample of ordered state pairs.  The protocol linter
/// (analysis/protocol_lint) is the exhaustive wall; this assert catches
/// gross protocol/inventory mismatches at the moment a protocol is wired
/// into a registry or tool, at O(min(k, 24)^2) transition probes.
template <ranking_protocol P>
void debug_assert_protocol_registration(
    const P& p, const std::vector<typename P::agent_state>& all_states) {
#if defined(SSR_ENABLE_ASSERTS) || !defined(NDEBUG)
  using state_t = typename P::agent_state;
  const std::uint32_t n = p.population_size();
  for (const state_t& s : all_states) SSR_ASSERT(p.rank_of(s) <= n);
  const std::size_t k = all_states.size();
  const std::size_t stride = k <= 24 ? 1 : k / 24;
  auto member = [&](const state_t& s) {
    for (const state_t& t : all_states) {
      if (t == s) return true;
    }
    return false;
  };
  rng_t rng(0x11e97ULL);
  for (std::size_t a = 0; a < k; a += stride) {
    for (std::size_t b = 0; b < k; b += stride) {
      state_t x = all_states[a];
      state_t y = all_states[b];
      p.interact(x, y, rng);
      SSR_ASSERT(member(x));
      SSR_ASSERT(member(y));
    }
  }
#else
  (void)p;
  (void)all_states;
#endif
}

/// Leader-election view of a ranking protocol (Section 2, "Leader election
/// and ranking"): the unique agent with rank 1 is the leader.
template <ranking_protocol P>
bool is_leader(const P& p, const typename P::agent_state& s) {
  return p.rank_of(s) == 1;
}

/// Number of leaders in a configuration; a correct SSLE configuration has
/// exactly one.
template <ranking_protocol P>
std::size_t leader_count(const P& p,
                         std::span<const typename P::agent_state> config) {
  std::size_t count = 0;
  for (const auto& s : config) count += is_leader(p, s) ? 1 : 0;
  return count;
}

}  // namespace ssr
