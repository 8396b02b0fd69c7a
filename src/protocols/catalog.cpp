#include "protocols/catalog.hpp"

#include <array>

#include "pp/convergence.hpp"
#include "pp/engine.hpp"

namespace ssr {
namespace {

template <class... E>
std::array<protocol_entry, sizeof...(E)> make_catalog(std::tuple<E...>*) {
  return {protocol_entry{E::name, E::blurb, E::scenarios(), E::uses_h,
                         E::uses_t_max, E::max_n, &E::lint_entries}...};
}

/// Records the traced protocol's phase-name table so the trace header and
/// events can name phases; no-op for uninstrumented protocols.
template <class P>
void record_phase_names(const P& protocol, const trial_context& context) {
  if (context.trace == nullptr || context.phase_names == nullptr) return;
  if constexpr (obs::phase_instrumented_protocol<P>) {
    context.phase_names->resize(protocol.obs_phase_count());
    for (std::uint32_t ph = 0; ph < context.phase_names->size(); ++ph) {
      (*context.phase_names)[ph] = P::obs_phase_name(ph);
    }
  }
}

/// Ranking protocols: the parallel time of the last entry into a valid
/// ranking, held for the confirmation window.
template <class Entry>
double ranking_time(const util::sim_request_spec& spec, std::uint64_t seed,
                    const trial_context& context,
                    typename Entry::protocol protocol,
                    std::vector<typename Entry::protocol::agent_state> initial) {
  convergence_options opt;
  opt.max_parallel_time = spec.max_time;
  opt.confirm_parallel_time = context.confirm.value_or(Entry::confirm(spec.n));
  opt.cancel = context.cancel;
  opt.trace = context.trace;
  opt.profiler = context.profiler;
  opt.counters = context.counters;
  const convergence_result r =
      measure_convergence_with(spec.engine, std::move(protocol),
                               std::move(initial), seed ^ Entry::salt, opt);
  if (!r.converged) {
    throw std::runtime_error(std::string(Entry::label) +
                             " did not converge within max_time");
  }
  return r.convergence_time;
}

/// Leader-election protocols: the parallel time at which exactly one leader
/// remains.  The engine runs in bounded bursts so the cancel token stays
/// responsive; tracing is framing-only (run_start, convergence on the
/// unique leader, run_end).
template <class Entry>
double unique_leader_time(
    const util::sim_request_spec& spec, std::uint64_t seed,
    const trial_context& context, typename Entry::protocol protocol,
    std::vector<typename Entry::protocol::agent_state> initial) {
  const auto max_interactions = static_cast<std::uint64_t>(
      spec.max_time * static_cast<double>(spec.n));
  return with_engine(
      spec.engine, protocol, std::move(initial), seed ^ Entry::salt,
      [&](auto& engine) {
        if (context.profiler != nullptr)
          engine.attach_profiler(context.profiler);
        if (context.counters != nullptr)
          engine.attach_counters(context.counters);
        const auto emit = [&](obs::trace_event_kind kind) {
          if (context.trace != nullptr) {
            context.trace->emit(
                {kind, engine.parallel_time(), engine.interactions()});
          }
        };
        const auto finish = [&] {
          emit(obs::trace_event_kind::convergence);
          emit(obs::trace_event_kind::run_end);
          return engine.parallel_time();
        };
        const std::uint64_t burst = cancel_burst(engine);
        emit(obs::trace_event_kind::run_start);
        if (protocol.leader_count(engine.agents()) == 1) return finish();
        while (engine.interactions() < max_interactions) {
          if (context.cancel != nullptr) context.cancel->throw_if_cancelled();
          const std::uint64_t budget =
              std::min(max_interactions, engine.interactions() + burst);
          const bool done = engine.run(
              budget, ignore_pair,
              [&](const agent_pair&, bool changed) {
                return changed && protocol.leader_count(engine.agents()) == 1;
              });
          if (done) return finish();
        }
        throw std::runtime_error(std::string(Entry::label) +
                                 " found no unique leader within max_time");
      });
}

}  // namespace

std::optional<double> catalog::baseline::jump_time(
    engine_spec engine, const std::vector<protocol::agent_state>& initial,
    std::uint64_t engine_seed, const trial_context& context) {
  if (engine.kind != engine_kind::direct) return std::nullopt;
  std::vector<std::uint32_t> ranks;
  for (const protocol::agent_state& s : initial) ranks.push_back(s.rank);
  accelerated_silent_n_state sim(static_cast<std::uint32_t>(ranks.size()),
                                 ranks, engine_seed);
  double time = 0.0;
  {
    // The jump simulator has no engine hooks; give the profile a section
    // and the trace its run framing (interactions are not individually
    // simulated, so the count stays 0).
    obs::timeline_scope scope(context.profiler, "accelerated.run");
    time = sim.run_to_stabilization();
  }
  if (context.trace != nullptr) {
    context.trace->emit({obs::trace_event_kind::run_start, 0.0, 0});
    context.trace->emit({obs::trace_event_kind::convergence, time, 0});
    context.trace->emit({obs::trace_event_kind::run_end, time, 0});
  }
  return time;
}

std::span<const protocol_entry> protocol_catalog() {
  static const auto entries =
      make_catalog(static_cast<catalog_entries*>(nullptr));
  return entries;
}

const protocol_entry* find_protocol(std::string_view name) {
  for (const protocol_entry& entry : protocol_catalog())
    if (entry.name == name) return &entry;
  return nullptr;
}

double run_trial(const util::sim_request_spec& spec, std::uint64_t seed,
                 const trial_context& context) {
  return with_catalog_entry(spec.protocol, [&]<class Entry>() -> double {
    auto protocol = Entry::make(spec);
    rng_t rng(seed);
    auto initial = Entry::initial(protocol, spec.scenario, rng);
    if constexpr (requires { Entry::jump_time; }) {
      if (const auto time = Entry::jump_time(spec.engine, initial,
                                             seed ^ Entry::salt, context))
        return *time;
    }
    record_phase_names(protocol, context);
    if constexpr (Entry::measure == stabilization::unique_leader) {
      return unique_leader_time<Entry>(spec, seed, context,
                                       std::move(protocol),
                                       std::move(initial));
    } else {
      return ranking_time<Entry>(spec, seed, context, std::move(protocol),
                                 std::move(initial));
    }
  });
}

}  // namespace ssr
