#include "serve/runner.hpp"

#include <vector>

#include "analysis/statistics.hpp"
#include "obs/perf_counters.hpp"
#include "obs/scenario.hpp"
#include "obs/timeline.hpp"
#include "pp/trial.hpp"
#include "protocols/catalog.hpp"

namespace ssr::serve {

std::shared_ptr<const obs::json_value> run_simulation(
    const util::sim_request_spec& spec, const cancel_token* cancel,
    obs::metrics_registry* metrics, request_telemetry* telemetry,
    obs::engine_counters* counters,
    const std::function<void(std::uint64_t, std::uint64_t)>& on_trial) {
  trial_options options;
  options.parallel = false;  // the serve worker pool is the concurrency
  options.engine = spec.engine;
  options.metrics = metrics;
  options.cancel = cancel;

  // Per-job profiler on this worker thread: both the timeline collector
  // and the hardware counter group are single-threaded/per-thread, so a
  // process-global profiler would race across concurrent jobs.
  std::unique_ptr<obs::perf_counter_group> perf;
  std::unique_ptr<obs::timeline_profiler> profiler;
  if (telemetry != nullptr && telemetry->options.profile) {
    perf = std::make_unique<obs::perf_counter_group>();
    profiler = std::make_unique<obs::timeline_profiler>(
        obs::timeline_options{.perf = perf.get()});
  }

  // Trials run sequentially (options.parallel = false), so the first
  // invocation is trial 0 -- the traced trajectory -- and completion
  // callbacks fire in trial order.
  bool traced = false;
  std::uint64_t completed = 0;
  const std::vector<double> samples = run_trials(
      static_cast<std::size_t>(spec.trials), spec.seed,
      [&](std::uint64_t seed, engine_kind) {
        trial_context context;
        context.cancel = cancel;
        context.profiler = profiler.get();
        context.counters = counters;
        if (telemetry != nullptr && telemetry->options.trace && !traced) {
          traced = true;
          context.trace = &telemetry->trace;
          context.phase_names = &telemetry->phase_names;
        }
        const double time = run_trial(spec, seed, context);
        if (on_trial) on_trial(++completed, spec.trials);
        return time;
      },
      options);
  if (profiler != nullptr) telemetry->profile = profiler->profile().to_json();

  const summary stats = summarize(samples);
  auto doc = std::make_shared<obs::json_value>(obs::json_value::object());
  obs::json_value& out = *doc;
  obs::json_value spec_doc = obs::json_value::object();
  obs::append_spec_fields(spec_doc, spec);
  out["spec"] = std::move(spec_doc);
  out["unit"] = "parallel_time";
  obs::json_value sample_array = obs::json_value::array();
  for (const double s : samples) sample_array.push_back(s);
  out["samples"] = std::move(sample_array);
  obs::json_value stats_doc = obs::json_value::object();
  stats_doc["count"] = static_cast<std::uint64_t>(stats.count);
  stats_doc["mean"] = stats.mean;
  stats_doc["stddev"] = stats.stddev;
  stats_doc["min"] = stats.min;
  stats_doc["max"] = stats.max;
  stats_doc["median"] = stats.median;
  stats_doc["p90"] = stats.p90;
  stats_doc["p99"] = stats.p99;
  out["stats"] = std::move(stats_doc);
  return doc;
}

}  // namespace ssr::serve
