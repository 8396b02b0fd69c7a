#include "protocols/sublinear.hpp"

#include <algorithm>
#include <cmath>

#include "pp/assert.hpp"
#include "pp/random.hpp"

namespace ssr {

sublinear_time_ssr::tuning sublinear_time_ssr::tuning::defaults(
    std::uint32_t n, std::uint32_t h) {
  SSR_REQUIRE(n >= 2);
  tuning t;
  t.h = h;
  t.name_bits = full_name_bits(n);
  t.s_max = n * n;
  t.r_max = default_r_max(n);
  const double ln_n = std::log(static_cast<double>(n));
  // The dormant delay must cover generating all name bits plus the
  // Theta(log n) spread of dormancy onsets across the population.
  t.d_max = t.name_bits +
            static_cast<std::uint32_t>(std::ceil(10.0 * ln_n)) + 4;
  if (h == 0) {
    t.t_h = 1;  // no trees: timer unused
  } else {
    const double log2_n = std::log2(static_cast<double>(n));
    if (h + 1 >= static_cast<std::uint32_t>(std::ceil(log2_n))) {
      // H = Theta(log n) regime: T_H = Theta(log n).  The constant trades
      // detection latency against tree size (memory and per-interaction
      // cost both scale with the number of unexpired histories, roughly
      // T_H^H); 5 ln n is validated by the detection-latency tests and the
      // no-false-positive property test.
      t.t_h = static_cast<std::uint32_t>(std::ceil(5.0 * ln_n)) + 5;
    } else {
      // Constant-H regime: T_H = Theta(H * n^{1/(H+1)}) = Theta(tau_{H+1}).
      const double per = std::pow(static_cast<double>(n),
                                  1.0 / static_cast<double>(h + 1));
      t.t_h = static_cast<std::uint32_t>(std::ceil(6.0 * (h + 1) * per));
    }
  }
  // Keep expired records around for extra timer windows so the responding
  // side of Check-Path-Consistency still holds its matching records even
  // when the responder's interaction clock runs ahead of the asker's
  // (simulation-only; see history_tree.hpp).
  t.prune_retention = 2 * std::int64_t{t.t_h};
  return t;
}

sublinear_time_ssr::sublinear_time_ssr(std::uint32_t n, const tuning& params)
    : n_(n), params_(params) {
  SSR_REQUIRE(n >= 2);
  SSR_REQUIRE(params.s_max >= 2);
  SSR_REQUIRE(params.r_max >= 1);
  SSR_REQUIRE(params.d_max >= params.name_bits);
}

sublinear_time_ssr::sublinear_time_ssr(std::uint32_t n, std::uint32_t h)
    : sublinear_time_ssr(n, tuning::defaults(n, h)) {}

struct sublinear_time_ssr::hooks {
  bool is_resetting(const agent_state& s) const {
    return s.role == role_t::resetting;
  }
  reset_fields& fields(agent_state& s) const { return s.reset; }
  void enter_resetting(agent_state& s) const {
    s.role = role_t::resetting;
    // Collecting fields are deleted on the role switch; the name survives
    // and is cleared separately while the reset propagates (lines 12-13).
    s.rank = 0;
    s.roster.clear();
    s.tree.reset(name_t{});
  }
  // Protocol 6: restart collection from the freshly generated name.
  void reset(agent_state& s) const {
    s.role = role_t::collecting;
    s.roster.assign(1, s.name);
    s.tree.reset(s.name);
    s.reset = reset_fields{};
    // rank keeps its (arbitrary) value per the paper's field semantics; we
    // use 0 ("not yet set") so measurements never see a stale rank.
  }
};

void sublinear_time_ssr::trigger_pair(agent_state& a, agent_state& b) const {
  const hooks h;
  const reset_params rp{params_.r_max, params_.d_max};
  trigger_reset(a, rp, h);
  trigger_reset(b, rp, h);
}

bool sublinear_time_ssr::name_collision_detected(const agent_state& a,
                                                 const agent_state& b) const {
  // Direct check (DESIGN.md completion #3): two interacting agents with the
  // same name *are* a collision; the trees cannot express it because each
  // prunes nodes labelled with its own name.  This alone is the paper's
  // H = 0 "direct collision detection" variant.
  if (a.name == b.name) return true;
  if (params_.h == 0) return false;
  // Protocol 7 lines 1-4, both directions.
  return a.tree.detects_collision_against(b.name, b.tree) ||
         b.tree.detects_collision_against(a.name, a.tree);
}

bool sublinear_time_ssr::interact(agent_state& a, agent_state& b,
                                  rng_t& rng) const {
  if (a.role == role_t::collecting && b.role == role_t::collecting) {
    // Role invariant: a clean Reset establishes name ∈ roster and unions
    // preserve it; violation proves a corrupt configuration (and without
    // this check a name missing from every roster deadlocks the protocol --
    // see the header).
    const auto holds_own_name = [](const agent_state& s) {
      return std::binary_search(s.roster.begin(), s.roster.end(), s.name);
    };
    if (!holds_own_name(a) || !holds_own_name(b)) {
      trigger_pair(a, b);
      return true;
    }

    if (name_collision_detected(a, b)) {  // Protocol 5 line 2
      trigger_pair(a, b);
      return true;
    }

    bool changed = false;
    if (params_.h >= 1) {
      // Protocol 7 lines 5-14: one shared sync value, mutual grafts from
      // pre-interaction snapshots, own-name scrubbing, timer aging.
      const auto sync = static_cast<std::uint32_t>(
          1 + uniform_below(rng, params_.s_max));
      history_tree::graft_each_other(a.tree, b.tree, params_.h - 1, sync,
                                     params_.t_h);
      a.tree.remove_named_subtrees(a.name);
      b.tree.remove_named_subtrees(b.name);
      a.tree.age_edges(params_.prune_retention);
      b.tree.age_edges(params_.prune_retention);
      changed = true;
    }

    // Protocol 5 lines 2 and 5-9: ghost-name check, roster merge, rank
    // assignment once all n names are collected.
    if (union_size(a.roster, b.roster) > n_) {
      trigger_pair(a, b);
      return true;
    }
    std::vector<name_t> merged = roster_union(a.roster, b.roster);
    if (merged != a.roster || merged != b.roster) changed = true;
    a.roster = merged;
    b.roster = std::move(merged);
    if (a.roster.size() == n_) {
      const std::uint32_t ra = a.rank;
      const std::uint32_t rb = b.rank;
      assign_ranks(a, b);
      if (a.rank != ra || b.rank != rb) changed = true;
    }
    return changed;
  }

  // Some agent is Resetting: Protocol 5 lines 10-15.
  const hooks h;
  const reset_params rp{params_.r_max, params_.d_max};
  propagate_reset(a, b, rp, h);
  for (agent_state* i : {&a, &b}) {
    if (i->role == role_t::resetting && i->reset.resetcount > 0) {
      i->name = name_t{};  // clear names while propagating the reset signal
    }
  }
  for (agent_state* i : {&a, &b}) {
    if (i->role == role_t::resetting && i->reset.resetcount == 0 &&
        i->name.length() < params_.name_bits) {
      i->name.append_bit(coin_flip(rng));  // can be derandomized
    }
  }
  return true;
}

void sublinear_time_ssr::assign_ranks(agent_state& a, agent_state& b) const {
  for (agent_state* i : {&a, &b}) {
    const auto it =
        std::lower_bound(i->roster.begin(), i->roster.end(), i->name);
    SSR_ASSERT(it != i->roster.end() && *it == i->name);
    i->rank = static_cast<std::uint32_t>(it - i->roster.begin()) + 1;
  }
}

std::vector<sublinear_time_ssr::agent_state>
sublinear_time_ssr::initial_configuration(rng_t& rng) const {
  std::vector<agent_state> config(n_);
  for (agent_state& s : config) {
    s.role = role_t::collecting;
    s.name = random_name(rng, params_.name_bits);
    s.roster.assign(1, s.name);
    s.tree.reset(s.name);
    s.rank = 0;
  }
  return config;
}

std::size_t union_size(const std::vector<name_t>& a,
                       const std::vector<name_t>& b) {
  std::size_t count = 0;
  auto ia = a.begin();
  auto ib = b.begin();
  while (ia != a.end() && ib != b.end()) {
    if (*ia < *ib) {
      ++ia;
    } else if (*ib < *ia) {
      ++ib;
    } else {
      ++ia;
      ++ib;
    }
    ++count;
  }
  count += static_cast<std::size_t>(a.end() - ia);
  count += static_cast<std::size_t>(b.end() - ib);
  return count;
}

std::vector<name_t> roster_union(const std::vector<name_t>& a,
                                 const std::vector<name_t>& b) {
  std::vector<name_t> out;
  out.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

}  // namespace ssr
