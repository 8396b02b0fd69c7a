// The serve-mix workload: an in-process serve::service with its default
// options (2 workers, cache of 128) driven by a closed loop of 2 client
// threads, each sending its next request line only after the previous
// response arrived.
//
// Each client's requests come from its own seeded stream.  Two in three
// are fresh: Optimal-Silent n=128 (direct), baseline n=512 (batched) or
// Sublinear n=8 H=1 (direct), 1 or 2 trials, with a seed no other request
// uses.  Every third repeats one of that client's last 8 fresh requests,
// which is still in the cache, so exactly a third of the responses are
// cache hits.  Every response must be ok, carry one sample per trial, and
// a cached result must be byte-identical to the first response for that
// request.
#include <algorithm>
#include <deque>
#include <optional>
#include <set>
#include <thread>

#include "attribution.hpp"
#include "bench.hpp"
#include "kinds.hpp"
#include "obs/json.hpp"
#include "serve/runner.hpp"
#include "serve/service.hpp"
#include "serve_probe.hpp"

namespace perfbench {

using ssr::obs::json_value;

namespace {

double ms_since(bench_clock::time_point t0) { return 1e3 * seconds_since(t0); }
double us_since(bench_clock::time_point t0) { return 1e6 * seconds_since(t0); }

std::uint64_t u64_field(const json_value& doc, std::string_view key) {
  const json_value* v = doc.find(key);
  return v != nullptr ? v->as_uint64() : 0;
}

std::string string_field(const json_value& doc, std::string_view key) {
  const json_value* v = doc.find(key);
  return v != nullptr && v->is_string() ? v->as_string() : std::string();
}

/// Checks one run response; returns what is wrong, or an empty string.
std::string response_problem(const json_value& response,
                             std::uint64_t trials) {
  const json_value* ok = response.find("ok");
  if (ok == nullptr || !ok->is_bool() || !ok->as_bool()) {
    return "response not ok: " + response.dump();
  }
  const json_value* result = response.find("result");
  const json_value* samples =
      result != nullptr ? result->find("samples") : nullptr;
  if (samples == nullptr || samples->size() != trials) {
    return "result does not carry one sample per trial";
  }
  return {};
}

constexpr std::size_t k_recent = 8;
/// Failed requests listed per client in the summary (all are counted).
constexpr std::size_t k_problems_listed = 10;

/// One client's seeded request stream.
class request_stream {
 public:
  request_stream(std::uint64_t seed, std::uint64_t client)
      : seed_(seed), client_(client), rng_(ssr::derive_seed(seed, client)) {}

  /// The id spans and failures refer to the next request by.
  std::uint64_t id() const { return (client_ << 32) | count_; }
  /// Whether the next request repeats an earlier one.
  bool repeat() const { return count_ % 3 == 2; }

  json_value next() {
    json_value request;
    if (repeat()) {
      request = recent_[ssr::uniform_below(rng_, recent_.size())];
    } else {
      request = json_value::object();
      request["type"] = "run";
      switch (ssr::uniform_below(rng_, 3)) {
        case 0:
          request["protocol"] = "optimal";
          request["n"] = std::uint64_t{128};
          request["engine"] = "direct";
          break;
        case 1:
          request["protocol"] = "baseline";
          request["n"] = std::uint64_t{512};
          request["engine"] = "batched";
          break;
        default:
          request["protocol"] = "sublinear";
          request["n"] = std::uint64_t{8};
          request["h"] = std::uint64_t{1};
          request["engine"] = "direct";
          break;
      }
      request["trials"] = std::uint64_t{1} + ssr::uniform_below(rng_, 2);
      // 53 bits, so the seed survives the JSON number round trip.
      request["seed"] =
          ssr::derive_seed(seed_ ^ 0x5e12e5ULL, id()) >> 11;
      recent_.push_back(request);
      if (recent_.size() > k_recent) recent_.pop_front();
    }
    request["id"] = "c" + std::to_string(client_) + "-" +
                    std::to_string(count_);
    ++count_;
    return request;
  }

 private:
  std::uint64_t seed_;
  std::uint64_t client_;
  ssr::rng_t rng_;
  std::uint64_t count_ = 0;
  std::deque<json_value> recent_;
};

/// A request that executed (missed the cache), kept for the traced run's
/// run_simulation and trial-attribution probes.
struct executed_request {
  std::uint64_t id = 0;
  ssr::util::sim_request_spec spec;
  double latency_ms = 0.0;
  double first_sample = 0.0;
};

struct client_result {
  serve_samples serve;
  std::vector<double> trial_s;  // executed requests: latency / trials
  std::uint64_t trials_executed = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
  std::vector<executed_request> executed;
  span_log log;
};

void client_loop(ssr::serve::service& service, request_stream stream,
                 bench_clock::time_point deadline, const run_config& config,
                 client_result& out) {
  span_log* log = config.trace ? &out.log : nullptr;
  // (fingerprint, result text) of this client's latest fresh requests;
  // repeats only pick among the last k_recent, so older ones are dropped
  // and the benchmark's own memory stays flat.
  std::deque<std::pair<std::string, std::string>> first_results;
  while (bench_clock::now() < deadline) {
    const std::uint64_t id = stream.id();
    const bool repeat = stream.repeat();
    const json_value request = stream.next();
    const std::uint64_t trials = u64_field(request, "trials");
    span_log::scope request_span(log, id, "request");
    std::string line;
    std::optional<ssr::util::sim_request_spec> spec;
    std::vector<std::string> request_problems;
    if (config.trace) {
      spec = time_request_layers(request, log, id, out.serve, line,
                                 request_problems);
    } else {
      line = request.dump();
    }

    const auto t0 = bench_clock::now();
    json_value response;
    {
      span_log::scope s(log, id, "serve.handle_line");
      response = service.handle_line(line);
    }
    const double latency_ms = ms_since(t0);
    ++out.serve.requests;
    out.serve.latency_ms.push_back(latency_ms);

    std::string problem = response_problem(response, trials);
    if (!request_problems.empty()) problem = request_problems.front();
    if (problem.empty()) {
      const json_value& result = *response.find("result");
      std::string text = result.dump();
      const std::string fingerprint = string_field(response, "fingerprint");
      const bool cached = response.find("cached")->as_bool();
      if (cached != repeat) {
        // The hit count is part of the workload's definition.
        problem = repeat ? "a repeat of a recent request missed the cache"
                         : "a fresh request hit the cache";
      } else if (cached) {
        ++out.serve.cached;
        // The benchmark's own test mutates a cached response to show the
        // byte-identity check fires.
        if (config.doctor == "cache") text[text.size() / 2] ^= 1;
        const auto first = std::find_if(
            first_results.begin(), first_results.end(),
            [&](const auto& entry) { return entry.first == fingerprint; });
        if (first == first_results.end() || first->second != text) {
          problem = "cached result differs from its first response";
        }
      } else {
        first_results.emplace_back(fingerprint, std::move(text));
        if (first_results.size() > k_recent) first_results.pop_front();
        out.trial_s.push_back(latency_ms / 1e3 /
                              static_cast<double>(trials));
        out.trials_executed += trials;
        if (config.trace) {
          out.executed.push_back(
              {id, *spec, latency_ms,
               result.find("samples")->at(0).as_double()});
        }
      }
    }
    if (!problem.empty()) {
      ++out.failed;
      if (out.problems.size() < k_problems_listed) {
        out.problems.push_back(string_field(request, "id") + ": " + problem);
      }
    }
  }
}

/// The trial a mix request's first sample came from, attributed layer by
/// layer.  Rerun with a never-fired cancel token, as serve runs it, it
/// must reproduce the served sample exactly.
void attribute_request(const executed_request& e, bool attach_obs,
                       span_log& log, layer_samples& samples,
                       run_report& report) {
  const std::uint64_t seed = ssr::derive_seed(e.spec.seed, 0);
  const auto attribute = [&](auto kind) {
    attribute_trial(kind, seed, e.id, log, attach_obs, samples, report);
    const ssr::cancel_token never;
    kind.cancel = &never;
    const double served = run_trial(kind, seed).result.convergence_time;
    if (served != e.first_sample) {
      report.fail("request " + std::to_string(e.id) + " (" +
                  e.spec.protocol + "): replayed trial took " +
                  std::to_string(served) + " but the served sample is " +
                  std::to_string(e.first_sample));
    }
  };
  const double max_time = e.spec.max_time;
  if (e.spec.protocol == "optimal") {
    attribute(optimal_kind{.n = e.spec.n, .max_parallel_time = max_time});
  } else if (e.spec.protocol == "baseline") {
    attribute(baseline_kind{.n = e.spec.n, .max_parallel_time = max_time});
  } else {
    attribute(sublinear_kind{
        .n = e.spec.n,
        .h = e.spec.h,
        .confirm_parallel_time = serve_sublinear_confirm(e.spec.n),
        .max_parallel_time = max_time});
  }
}

}  // namespace

ssr::util::sim_request_spec time_request_layers(
    const json_value& request, span_log* log, std::uint64_t id,
    serve_samples& samples, std::string& line,
    std::vector<std::string>& problems) {
  auto t0 = bench_clock::now();
  {
    span_log::scope s(log, id, "obs.json.dump");
    line = request.dump();
  }
  samples.json_dump_us.push_back(us_since(t0));

  t0 = bench_clock::now();
  std::optional<json_value> parsed;
  {
    span_log::scope s(log, id, "obs.json.parse");
    parsed = json_value::parse(line);
  }
  samples.json_parse_us.push_back(us_since(t0));
  if (!parsed.has_value() || !(*parsed == request)) {
    problems.push_back("request line does not parse back to the request");
  }

  t0 = bench_clock::now();
  ssr::util::spec_builder builder;
  {
    span_log::scope s(log, id, "util.spec_builder");
    for (const auto& [field, value] : request.members()) {
      if (field == "protocol") builder.set_protocol(value.as_string());
      if (field == "scenario") builder.set_scenario(value.as_string());
      if (field == "engine") builder.set_engine(value.as_string());
      if (field == "n") builder.set_n(value.as_uint64());
      if (field == "h") builder.set_h(value.as_uint64());
      if (field == "trials") builder.set_trials(value.as_uint64());
      if (field == "seed") builder.set_seed(value.as_uint64());
      if (field == "max_time") builder.set_max_time(value.as_double());
    }
    if (!builder.finalize().empty()) {
      problems.push_back("request does not validate: " + request.dump());
    }
  }
  samples.spec_build_us.push_back(us_since(t0));
  return builder.spec();
}

void probe_serve(const json_value& request, span_log& log,
                 serve_samples& samples, run_report& report) {
  constexpr std::uint64_t id = 0;
  std::string line;
  ssr::util::sim_request_spec spec;
  std::vector<std::string> problems;
  for (int i = 0; i < 101; ++i) {
    spec = time_request_layers(request, &log, id, samples, line, problems);
  }
  if (!problems.empty()) {
    report.fail("serve probe: " + problems.front());
    return;
  }

  ssr::serve::service service;
  std::string first;
  for (int i = 0; i < 2; ++i) {
    const auto t0 = bench_clock::now();
    json_value response;
    {
      span_log::scope s(&log, id, "serve.handle_line");
      response = service.handle_line(line);
    }
    samples.latency_ms.push_back(ms_since(t0));
    ++samples.requests;
    const std::string problem = response_problem(response, spec.trials);
    if (!problem.empty()) {
      report.fail("serve probe: " + problem);
      return;
    }
    const std::string text = response.find("result")->dump();
    if (response.find("cached")->as_bool()) {
      ++samples.cached;
      if (text != first) report.fail("serve probe: cached result differs");
    } else {
      first = text;
    }
  }
  samples.rejected += u64_field(
      *service.stats_document().find("jobs"), "rejected");

  const auto t0 = bench_clock::now();
  {
    span_log::scope s(&log, id, "serve.run_simulation");
    ssr::serve::run_simulation(spec, nullptr, nullptr);
  }
  samples.run_simulation_ms.push_back(ms_since(t0));
  samples.overhead_ms.push_back(samples.latency_ms.front() -
                                samples.run_simulation_ms.back());
}

void report_serve_layers(const serve_samples& s, run_report& report) {
  report.set("serve.cache_hit_ratio",
             s.requests > 0 ? static_cast<double>(s.cached) /
                                  static_cast<double>(s.requests)
                            : 0.0,
             "ratio");
  report.set("serve.rejected", static_cast<double>(s.rejected), "count");
  report.set("serve.latency_ms_p99", quantile(s.latency_ms, 0.99), "ms");
  report.set("serve.run_simulation_ms_p50", median(s.run_simulation_ms),
             "ms");
  report.set("serve.overhead_ms_p50", median(s.overhead_ms), "ms");
  report.set("util.spec_build_us_p50", median(s.spec_build_us), "us");
  report.set("obs.json_parse_us_p50", median(s.json_parse_us), "us");
  report.set("obs.json_dump_us_p50", median(s.json_dump_us), "us");
}

run_report run_serve_mix(const run_config& config) {
  constexpr std::uint64_t k_clients = 2;
  run_report report;
  std::optional<ssr::serve::service> service;
  std::vector<double> setup_times;
  for (int i = 0; i < k_setup_reps; ++i) {
    service.reset();
    const auto t0 = bench_clock::now();
    service.emplace();
    setup_times.push_back(seconds_since(t0));
  }

  // The traced run splits its time between the loop and the probes.
  const double loop_seconds =
      config.trace ? config.seconds / 2 : config.seconds;
  std::vector<client_result> results(k_clients);
  const auto start = bench_clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<bench_clock::duration>(
                  std::chrono::duration<double>(loop_seconds));
  {
    std::vector<std::jthread> clients;
    for (std::uint64_t c = 0; c < k_clients; ++c) {
      clients.emplace_back([&, c] {
        client_loop(*service, request_stream(config.seed, c), deadline, config,
                    results[c]);
      });
    }
  }
  const double elapsed = seconds_since(start);

  serve_samples serve;
  std::vector<double> trial_s;
  std::uint64_t trials_executed = 0;
  std::vector<executed_request> executed;
  span_log log;
  for (client_result& r : results) {
    for (const std::string& p : r.problems) report.fail(p);
    report.failed += r.failed;
    serve.latency_ms.insert(serve.latency_ms.end(), r.serve.latency_ms.begin(),
                            r.serve.latency_ms.end());
    serve.spec_build_us.insert(serve.spec_build_us.end(),
                               r.serve.spec_build_us.begin(),
                               r.serve.spec_build_us.end());
    serve.json_parse_us.insert(serve.json_parse_us.end(),
                               r.serve.json_parse_us.begin(),
                               r.serve.json_parse_us.end());
    serve.json_dump_us.insert(serve.json_dump_us.end(),
                              r.serve.json_dump_us.begin(),
                              r.serve.json_dump_us.end());
    serve.requests += r.serve.requests;
    serve.cached += r.serve.cached;
    trial_s.insert(trial_s.end(), r.trial_s.begin(), r.trial_s.end());
    trials_executed += r.trials_executed;
    executed.insert(executed.end(), r.executed.begin(), r.executed.end());
    log.append(r.log);
  }
  report.attempted = serve.requests;
  serve.rejected =
      u64_field(*service->stats_document().find("jobs"), "rejected");
  const double p99 = quantile(serve.latency_ms, 0.99);
  report.notes.push_back(
      std::to_string(serve.requests) + " requests (" +
      std::to_string(serve.cached) + " cached) in " + std::to_string(elapsed) +
      " s; latency_ms_p99 = " + std::to_string(p99) + " ms");
  service.reset();

  if (!config.trace) {
    report.set("setup_s", median(setup_times), "s");
    report.set("trial_s_p50", median(trial_s), "s");
    report.set("trials_per_s", static_cast<double>(trials_executed) / elapsed,
               "1/s");
    report.set("peak_rss_mb", peak_rss_mb(), "MiB");
    report.set("ok_share",
               1.0 - static_cast<double>(report.failed) /
                         static_cast<double>(report.attempted),
               "ratio");
    report.set("latency_ms_p50", median(serve.latency_ms), "ms");
    report.set("requests_per_s", static_cast<double>(serve.requests) / elapsed,
               "1/s");
    return report;
  }

  // serve::run_simulation alone on the executed requests' specs, in
  // request order, until three quarters of the run is spent.
  for (const executed_request& e : executed) {
    if (seconds_since(start) >= 0.75 * config.seconds &&
        !serve.run_simulation_ms.empty()) {
      break;
    }
    const auto t0 = bench_clock::now();
    {
      span_log::scope s(&log, e.id, "serve.run_simulation");
      ssr::serve::run_simulation(e.spec, nullptr, nullptr);
    }
    serve.run_simulation_ms.push_back(ms_since(t0));
    serve.overhead_ms.push_back(e.latency_ms - serve.run_simulation_ms.back());
  }

  // The trial layers, on the first executed request of each protocol and
  // then on the rest in order until the run's time is spent.
  layer_samples samples;
  std::set<std::string> attributed;
  for (const executed_request& e : executed) {
    const bool first_of_kind = attributed.insert(e.spec.protocol).second;
    if (!first_of_kind && seconds_since(start) >= config.seconds) continue;
    attribute_request(e, first_of_kind, log, samples, report);
  }
  report_layers(samples, log, report);
  report_serve_layers(serve, report);
  if (!config.spans_path.empty()) log.write_jsonl(config.spans_path);
  return report;
}

}  // namespace perfbench
