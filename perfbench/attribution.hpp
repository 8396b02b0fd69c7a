// One trial, run plainly or under observation, and the traced attribution
// that splits its time across the library layers from outside:
//
//   plain      the trial as a user runs it (no spans, no counters); the
//              reference trajectory and the untraced time.
//   traced     the same trial with spans around adversarial_configuration,
//              the engine constructor and measure_convergence_run, and
//              obs::engine_counters attached.
//   raw        the same (initial configuration, seed) replayed with
//              engine.run(total, no-op, no-op): engine time without the
//              convergence harness.
//   wrapped    the same trial with the protocol behind counted_protocol,
//              which times one transition call in 64 and counts rank_of.
//   attached   (first trial only) the plain trial with an obs::trace_sink,
//              then with an obs::timeline_profiler, attached.
//
// Every variant must end in the plain run's final configuration after the
// same number of interactions; if one does not, the attribution fails the
// run instead of reporting a split.
#pragma once

#include <concepts>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

#include "bench.hpp"
#include "kinds.hpp"
#include "obs/engine_counters.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"
#include "pp/protocol.hpp"
#include "protocols/serialize.hpp"

namespace perfbench {

/// Counts kept by counted_protocol.
struct protocol_counts {
  std::uint64_t interact_calls = 0;
  std::uint64_t timed_calls = 0;
  std::uint64_t timed_ticks = 0;
  std::uint64_t rank_of_calls = 0;
};

/// A serialized tick counter for timing single calls of a few nanoseconds:
/// on x86-64, rdtsc fenced so the timed call can neither start before the
/// first read nor finish after the second (an unfenced clock read overlaps
/// a call that short and reads it as free); elsewhere steady_clock.
inline std::uint64_t fenced_ticks() {
#if defined(__x86_64__)
  _mm_lfence();
  const std::uint64_t t = __rdtsc();
  _mm_lfence();
  return t;
#else
  return static_cast<std::uint64_t>(
      bench_clock::now().time_since_epoch().count());
#endif
}

/// Seconds per fenced_ticks() tick, and the mean ticks a timed call with
/// no work in it reads; both calibrated once per process.
double seconds_per_tick();
double empty_call_ticks();

/// Forwarding protocol wrapper: the same transitions, keys and ranks as P,
/// plus call counts and a 1-in-64 timing sample of interact().  It draws
/// nothing from the RNG, so the trajectory is P's.
template <class P>
class counted_protocol {
 public:
  using agent_state = typename P::agent_state;
  static constexpr std::uint64_t sample_mask = 63;

  counted_protocol(P inner, protocol_counts* counts)
      : inner_(std::move(inner)), counts_(counts) {}

  const P& inner() const { return inner_; }
  std::uint32_t population_size() const { return inner_.population_size(); }

  bool interact(agent_state& a, agent_state& b, ssr::rng_t& rng) const {
    if ((counts_->interact_calls++ & sample_mask) != 0) {
      return inner_.interact(a, b, rng);
    }
    const std::uint64_t t0 = fenced_ticks();
    const bool changed = inner_.interact(a, b, rng);
    counts_->timed_ticks += fenced_ticks() - t0;
    ++counts_->timed_calls;
    return changed;
  }

  std::uint32_t rank_of(const agent_state& s) const {
    ++counts_->rank_of_calls;
    return inner_.rank_of(s);
  }

  std::uint32_t batch_key(const agent_state& s) const
    requires ssr::batch_countable_protocol<P>
  {
    return inner_.batch_key(s);
  }
  std::uint32_t batch_key_count() const
    requires ssr::batch_countable_protocol<P>
  {
    return inner_.batch_key_count();
  }

 private:
  P inner_;
  protocol_counts* counts_;
};

template <class K>
using state_of = typename K::protocol::agent_state;

template <class K>
struct trial_run {
  ssr::convergence_result result;
  std::vector<state_of<K>> final_config;
  /// Configuration generation through the return of the stepping call.
  double seconds = 0.0;
  /// measure_convergence_run alone (engine.run alone for a raw replay).
  double stepping_seconds = 0.0;
};

/// What a run attaches; all null is the plain, untraced trial.
struct trial_hooks {
  span_log* spans = nullptr;
  std::uint64_t id = 0;
  ssr::obs::engine_counters* counters = nullptr;
  ssr::obs::trace_sink* trace = nullptr;
  ssr::obs::timeline_profiler* profiler = nullptr;
  const char* stepping_span = "pp.measure_convergence_run";
};

/// Builds the trial's protocol, initial configuration and engine the way
/// the library's front ends do, then hands the engine to `step`.
template <class K, class Protocol, class Step>
trial_run<K> run_with_engine(const K& kind, const Protocol& protocol,
                             std::uint64_t seed, const trial_hooks& hooks,
                             Step&& step) {
  using E = typename K::template engine<Protocol>;
  trial_run<K> out;
  const auto t0 = bench_clock::now();
  {
    span_log::scope trial(hooks.spans, hooks.id, "trial");
    ssr::rng_t rng(seed);
    std::vector<state_of<K>> initial;
    {
      span_log::scope s(hooks.spans, hooks.id,
                        "protocols.adversarial_configuration");
      if constexpr (std::same_as<Protocol, typename K::protocol>) {
        initial = kind.initial(protocol, rng);
      } else {
        initial = kind.initial(protocol.inner(), rng);
      }
    }
    std::optional<E> engine;
    {
      span_log::scope s(hooks.spans, hooks.id, "pp.engine_init");
      engine.emplace(protocol, std::move(initial), seed ^ K::salt);
    }
    if (hooks.counters != nullptr) engine->attach_counters(hooks.counters);
    if (hooks.profiler != nullptr) engine->attach_profiler(hooks.profiler);
    const auto s0 = bench_clock::now();
    {
      span_log::scope s(hooks.spans, hooks.id, hooks.stepping_span);
      step(*engine, out);
    }
    const auto s1 = bench_clock::now();
    out.stepping_seconds = seconds_between(s0, s1);
    out.seconds = seconds_between(t0, s1);
    out.final_config.assign(engine->agents().begin(), engine->agents().end());
  }
  return out;
}

/// One harnessed trial: adversarial start, engine, measure_convergence_run.
template <class K>
trial_run<K> run_trial(const K& kind, std::uint64_t seed,
                       const trial_hooks& hooks = {}) {
  ssr::convergence_options opt = kind.options();
  opt.trace = hooks.trace;
  opt.profiler = hooks.profiler;
  opt.counters = hooks.counters;
  return run_with_engine(kind, kind.make(), seed, hooks,
                         [&](auto& engine, trial_run<K>& out) {
                           out.result =
                               ssr::measure_convergence_run(engine, opt);
                         });
}

/// Empty string when `config` is a valid ranking with exactly one rank-1
/// agent (both read through the protocol's rank_of), else what is wrong.
template <class P>
std::string ranking_problem(const P& protocol,
                            std::span<const typename P::agent_state> config) {
  if (!ssr::is_valid_ranking(protocol, config)) {
    return "final configuration is not a valid ranking";
  }
  if (ssr::leader_count(protocol, config) != 1) {
    return "final configuration does not have exactly one rank-1 agent";
  }
  return {};
}

template <class P>
bool same_configuration(const P& protocol,
                        const std::vector<typename P::agent_state>& a,
                        const std::vector<typename P::agent_state>& b) {
  if constexpr (std::equality_comparable<typename P::agent_state>) {
    return a == b;
  } else {
    return ssr::to_text(protocol, a) == ssr::to_text(protocol, b);
  }
}

/// Heap plus inline bytes of one agent state, and its history-tree size.
template <class S>
double state_bytes(const S& s) {
  if constexpr (requires { s.roster; s.tree; }) {
    return static_cast<double>(sizeof(S) +
                               s.roster.capacity() * sizeof(s.roster[0]) +
                               (s.tree.node_count() - 1) *
                                   sizeof(ssr::tree_edge));
  } else {
    return static_cast<double>(sizeof(S));
  }
}

template <class S>
double tree_nodes(const S& s) {
  if constexpr (requires { s.tree; }) {
    return static_cast<double>(s.tree.node_count());
  } else {
    return 0.0;
  }
}

/// Per-trial samples of the traced attribution, pooled over trials.
struct layer_samples {
  std::vector<double> raw_s;
  std::vector<double> harness_s;
  std::vector<double> harness_share;
  std::vector<double> interact_s;
  std::vector<double> rank_of_calls;
  std::vector<double> executed;
  std::vector<double> skipped;
  std::vector<double> changed_ratio;
  std::vector<double> fenwick_updates;
  std::vector<double> geometric_draws;
  std::vector<double> executed_per_s;
  std::vector<double> state_bytes;
  std::vector<double> tree_nodes;
  std::vector<double> trace_attached_ratio;
  std::vector<double> profiler_attached_ratio;
  std::vector<double> trace_overhead_share;
};

/// Writes the pp.*, protocols.*, obs.*_attached_ratio and
/// perfbench.trace_overhead_share metrics; the adversary and engine
/// constructor times come from their spans in `log`.
void report_layers(const layer_samples& samples, const span_log& log,
                   run_report& report);

/// Runs every variant of one trial (see the file comment), checks that
/// they agree, and appends its samples.  Returns the plain run, or nothing
/// when a variant diverged (the report is then failed).
template <class K>
std::optional<trial_run<K>> attribute_trial(const K& kind, std::uint64_t seed,
                                            std::uint64_t id, span_log& log,
                                            bool attach_obs,
                                            layer_samples& samples,
                                            run_report& report) {
  using P = typename K::protocol;
  const P protocol = kind.make();
  trial_run<K> plain = run_trial(kind, seed);

  ssr::obs::engine_counters counters;
  const trial_run<K> traced =
      run_trial(kind, seed, {.spans = &log, .id = id, .counters = &counters});

  const std::uint64_t total = plain.result.interactions;
  const trial_run<K> raw = run_with_engine(
      kind, protocol, seed,
      {.spans = &log, .id = id, .stepping_span = "pp.engine.run"},
      [&](auto& engine, trial_run<K>& out) {
        engine.run(
            total, [](const ssr::agent_pair&) {},
            [](const ssr::agent_pair&, bool) { return false; });
        out.result.interactions = engine.interactions();
      });

  protocol_counts counts;
  const counted_protocol<P> wrapper(protocol, &counts);
  const trial_run<K> wrapped = run_with_engine(
      kind, wrapper, seed,
      {.spans = &log,
       .id = id,
       .stepping_span = "pp.measure_convergence_run.wrapped"},
      [&](auto& engine, trial_run<K>& out) {
        out.result = ssr::measure_convergence_run(engine, kind.options());
      });

  const auto agrees = [&](const trial_run<K>& other, const char* what) {
    if (other.result.interactions == total &&
        same_configuration(protocol, other.final_config,
                           plain.final_config)) {
      return true;
    }
    report.fail(std::string(what) + " run of trial " + std::to_string(id) +
                " diverged from the plain harnessed run");
    return false;
  };
  if (!agrees(traced, "traced") || !agrees(raw, "raw replay") ||
      !agrees(wrapped, "protocol-wrapper")) {
    return std::nullopt;
  }

  if (attach_obs) {
    ssr::obs::trace_sink sink;
    const trial_run<K> with_trace = run_trial(
        kind, seed,
        {.spans = &log,
         .id = id,
         .trace = &sink,
         .stepping_span = "pp.measure_convergence_run.trace_attached"});
    ssr::obs::timeline_profiler profiler;
    const trial_run<K> with_profiler = run_trial(
        kind, seed,
        {.spans = &log,
         .id = id,
         .profiler = &profiler,
         .stepping_span = "pp.measure_convergence_run.profiler_attached"});
    if (!agrees(with_trace, "trace-attached") ||
        !agrees(with_profiler, "profiler-attached")) {
      return std::nullopt;
    }
    samples.trace_attached_ratio.push_back(with_trace.stepping_seconds /
                                           plain.stepping_seconds);
    samples.profiler_attached_ratio.push_back(with_profiler.stepping_seconds /
                                              plain.stepping_seconds);
  }

  const double executed = static_cast<double>(counters.interactions_executed);
  samples.raw_s.push_back(raw.stepping_seconds);
  samples.harness_s.push_back(plain.stepping_seconds - raw.stepping_seconds);
  samples.harness_share.push_back(
      (plain.stepping_seconds - raw.stepping_seconds) /
      plain.stepping_seconds);
  samples.trace_overhead_share.push_back((traced.seconds - plain.seconds) /
                                         plain.seconds);
  samples.executed.push_back(executed);
  samples.skipped.push_back(
      static_cast<double>(counters.certain_nulls_skipped));
  samples.changed_ratio.push_back(
      executed > 0 ? static_cast<double>(counters.transitions_changed) /
                         executed
                   : 0.0);
  samples.fenwick_updates.push_back(
      static_cast<double>(counters.fenwick_updates));
  samples.geometric_draws.push_back(
      static_cast<double>(counters.geometric_draws));
  samples.executed_per_s.push_back(executed / raw.stepping_seconds);
  const double per_call =
      counts.timed_calls > 0
          ? (static_cast<double>(counts.timed_ticks) /
                 static_cast<double>(counts.timed_calls) -
             empty_call_ticks()) *
                seconds_per_tick()
          : 0.0;
  samples.interact_s.push_back(per_call *
                               static_cast<double>(counts.interact_calls));
  samples.rank_of_calls.push_back(static_cast<double>(counts.rank_of_calls));
  for (const auto& s : plain.final_config) {
    samples.state_bytes.push_back(state_bytes(s));
    samples.tree_nodes.push_back(tree_nodes(s));
  }
  return plain;
}

}  // namespace perfbench
