// The three trial workloads: closed loops of stabilization trials, one at
// a time on one thread, each from a fresh adversarial configuration.
//
//   optimal-direct    Optimal-Silent-SSR, uniform_random, n=1000, direct.
//   baseline-batched  Silent-n-state baseline, random ranks, n=3000,
//                     batched (null-skipping) engine.
//   sublinear-trees   Sublinear-Time-SSR, n=16, H=3, single_collision,
//                     confirmation window 50, direct.
//
// Trial i uses seed derive_seed(--seed, i).  Every trial must converge
// within the time cap to a valid ranking with exactly one rank-1 agent,
// and the run's median simulated time must sit in a band around the
// EXPERIMENTS.md E1 figure whose width shrinks with the trial count.
#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "attribution.hpp"
#include "bench.hpp"
#include "kinds.hpp"
#include "serve_probe.hpp"

namespace perfbench {
namespace {

template <class K>
struct trial_workload {
  K kind;
  /// Simulated parallel time normalized the way E1 reports it.
  double (*normalize)(double t, double n);
  const char* normalization;
  /// E1's figure for the normalized time, and the allowance for the
  /// difference between E1's sizes and this workload's.
  double e1_reference;
  double e1_allowance;
  /// The same trial as a serve request (trials=1, seed filled in).
  ssr::obs::json_value request;
};

/// Fails the run when the median normalized time leaves
/// reference * (1 +- (allowance + 4 standard errors of the median)).  The
/// spread is estimated robustly (IQR / 1.349), since an occasional second
/// reset doubles a trial's time.
void check_e1_band(const std::vector<double>& normalized, double reference,
                   double allowance, const char* label, run_report& report) {
  if (normalized.empty()) return;
  const double med = median(normalized);
  const double k = static_cast<double>(normalized.size());
  const double sigma =
      normalized.size() >= 4
          ? (quantile(normalized, 0.75) - quantile(normalized, 0.25)) / 1.349
          : 0.5 * med;
  const double tolerance =
      allowance + 4.0 * 1.2533 * sigma / med / std::sqrt(k);
  const double deviation = med / reference - 1.0;
  report.notes.push_back("median " + std::string(label) + " = " +
                         std::to_string(med) + " (E1 " +
                         std::to_string(reference) + ", band +-" +
                         std::to_string(100.0 * tolerance) + "%)");
  if (!(std::abs(deviation) <= tolerance)) {
    report.failed = report.attempted;
    report.fail("median " + std::string(label) + " " + std::to_string(med) +
                " is outside the E1 band");
  }
}

template <class K>
void check_trial(const K& kind, std::uint64_t i, const run_config& config,
                 trial_run<K>& run, run_report& report) {
  ++report.attempted;
  // The benchmark's own test corrupts one final configuration to show the
  // ranking check fires.
  if (config.doctor == "config" && i == 0) {
    run.final_config[1] = run.final_config[0];
  }
  const std::string problem =
      run.result.converged
          ? ranking_problem(kind.make(), std::span(run.final_config))
          : std::string("did not converge within the time cap");
  if (!problem.empty()) {
    ++report.failed;
    report.fail("trial " + std::to_string(i) + ": " + problem);
  }
}

template <class K>
run_report run_untraced(const run_config& config, const trial_workload<K>& w) {
  using P = typename K::protocol;
  using E = typename K::template engine<P>;
  run_report report;
  const std::uint64_t seed0 = ssr::derive_seed(config.seed, 0);
  cpu_rotation cpus;
  // Set-up: the protocol, the first trial's configuration and its engine.
  std::vector<double> setup_s(k_setup_reps_per_round, 0.0);
  const auto time_setups = [&](bool first) {
    for (double& best : setup_s) {
      const auto t0 = bench_clock::now();
      const P protocol = w.kind.make();
      ssr::rng_t rng(seed0);
      const E engine(protocol, w.kind.initial(protocol, rng), seed0 ^ K::salt);
      const double s = seconds_since(t0);
      best = first ? s : std::min(best, s);
    }
  };

  // Round 0: fresh trials, checked, for this round's share of the run.
  struct trial_record {
    double best_s = 0.0;
    std::uint64_t interactions = 0;
    double convergence_time = 0.0;
    bool diverged = false;
  };
  std::vector<trial_record> trials;
  std::vector<double> normalized;
  const double round_s = config.seconds / k_rounds;
  const auto start = bench_clock::now();
  cpus.pin(0);
  time_setups(true);
  for (std::uint64_t i = 0; i == 0 || seconds_since(start) < round_s; ++i) {
    trial_run<K> run = run_trial(w.kind, ssr::derive_seed(config.seed, i));
    trials.push_back({run.seconds, run.result.interactions,
                      run.result.convergence_time});
    check_trial(w.kind, i, config, run, report);
    if (run.result.converged) {
      normalized.push_back(w.normalize(run.result.convergence_time,
                                       static_cast<double>(w.kind.n)));
    }
  }
  // Later rounds: the same trials again, which must repeat exactly.  The
  // run ends at --seconds even when a round is cut short, so a host that
  // slows down cannot stretch it.
  const auto in_time = [&] { return seconds_since(start) < config.seconds; };
  for (int round = 1; round < k_rounds && in_time(); ++round) {
    cpus.pin(round);
    time_setups(false);
    for (std::uint64_t i = 0; i < trials.size() && in_time(); ++i) {
      const trial_run<K> run =
          run_trial(w.kind, ssr::derive_seed(config.seed, i));
      trial_record& t = trials[i];
      t.best_s = std::min(t.best_s, run.seconds);
      if (!t.diverged && (run.result.interactions != t.interactions ||
                          run.result.convergence_time != t.convergence_time)) {
        t.diverged = true;
        ++report.failed;
        report.fail("trial " + std::to_string(i) + " did not repeat in round " +
                    std::to_string(round));
      }
    }
  }
  const double elapsed = seconds_since(start);
  check_e1_band(normalized, w.e1_reference, w.e1_allowance, w.normalization,
                report);

  std::vector<double> trial_s;
  double total_s = 0.0;
  for (const trial_record& t : trials) {
    trial_s.push_back(t.best_s);
    total_s += t.best_s;
  }
  const double p50 = median(trial_s);
  const double per_s = static_cast<double>(trials.size()) / total_s;
  report.set("setup_s", median(setup_s), "s");
  report.set("trial_s_p50", p50, "s");
  report.set("trials_per_s", per_s, "1/s");
  report.set("peak_rss_mb", peak_rss_mb(), "MiB");
  report.set("ok_share",
             1.0 - static_cast<double>(report.failed) /
                       static_cast<double>(report.attempted),
             "ratio");
  // A trial is the request a library or CLI user makes.
  report.set("latency_ms_p50", 1e3 * p50, "ms");
  report.set("requests_per_s", per_s, "1/s");
  report.notes.push_back(std::to_string(trials.size()) + " trials, best of " +
                         std::to_string(k_rounds) + " rounds, in " +
                         std::to_string(elapsed) + " s");
  return report;
}

template <class K>
run_report run_traced(const run_config& config, const trial_workload<K>& w) {
  run_report report;
  span_log log;
  layer_samples samples;
  serve_samples serve;
  const auto start = bench_clock::now();

  ssr::obs::json_value request = w.request;
  request["seed"] = config.seed;
  probe_serve(request, log, serve, report);

  for (std::uint64_t i = 0; i == 0 || seconds_since(start) < config.seconds;
       ++i) {
    std::optional<trial_run<K>> plain =
        attribute_trial(w.kind, ssr::derive_seed(config.seed, i), i, log,
                        /*attach_obs=*/i == 0, samples, report);
    if (!plain.has_value()) {
      ++report.attempted;
      ++report.failed;
      break;
    }
    check_trial(w.kind, i, config, *plain, report);
  }
  report_layers(samples, log, report);
  report_serve_layers(serve, report);
  report.notes.push_back(std::to_string(report.attempted) +
                         " attributed trials, " +
                         std::to_string(log.spans().size()) + " spans");
  if (!config.spans_path.empty()) log.write_jsonl(config.spans_path);
  return report;
}

template <class K>
run_report run(const run_config& config, const trial_workload<K>& w) {
  return config.trace ? run_traced(config, w) : run_untraced(config, w);
}

ssr::obs::json_value run_request(const char* protocol, const char* scenario,
                                 std::uint64_t n, const char* engine,
                                 double max_time) {
  ssr::obs::json_value r = ssr::obs::json_value::object();
  r["type"] = "run";
  r["id"] = "probe";
  r["protocol"] = protocol;
  r["scenario"] = scenario;
  r["n"] = n;
  r["trials"] = std::uint64_t{1};
  r["engine"] = engine;
  r["max_time"] = max_time;
  return r;
}

}  // namespace

run_report run_trial_workload(const run_config& config) {
  if (config.workload == "optimal-direct") {
    trial_workload<optimal_kind> w{
        .kind = {.n = 1000},
        .normalize = [](double t, double n) { return t / n; },
        .normalization = "t/n",
        .e1_reference = 5.06,
        .e1_allowance = 0.15,
        .request = run_request("optimal", "uniform_random", 1000, "direct",
                               1e9)};
    return run(config, w);
  }
  if (config.workload == "baseline-batched") {
    trial_workload<baseline_kind> w{
        .kind = {.n = 3000},
        .normalize = [](double t, double n) { return t / (n * n); },
        .normalization = "t/n^2",
        .e1_reference = 0.49,
        .e1_allowance = 0.10,
        .request = run_request("baseline", "uniform_random", 3000,
                               "batched", 1e9)};
    return run(config, w);
  }
  trial_workload<sublinear_kind> w{
      .kind = {.n = 16,
               .h = 3,
               .scenario = ssr::sublinear_scenario::single_collision,
               .confirm_parallel_time = 50.0},
      .normalize = [](double t, double n) { return t / std::log(n); },
      .normalization = "t/ln n",
      // E1: t/ln n = 67-76 at n=8..32 with H = ceil(log2 n) - 1 (3 at 16).
      .e1_reference = 71.5,
      .e1_allowance = 0.15,
      .request = run_request("sublinear", "single_collision", 16, "direct",
                             1e8)};
  w.request["h"] = std::uint64_t{3};
  return run(config, w);
}

}  // namespace perfbench
