// Serve-side layer measurements shared by the serve-mix workload and the
// trial workloads' traced runs: request building (util::spec_builder),
// JSON text (obs::json), the in-process service (serve::service) and the
// runner behind it (serve::run_simulation).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"
#include "obs/json.hpp"
#include "util/request_spec.hpp"

namespace perfbench {

struct serve_samples {
  std::vector<double> latency_ms;         // every request, round trip
  std::vector<double> run_simulation_ms;  // serve::run_simulation alone
  std::vector<double> overhead_ms;        // miss latency - run_simulation
  std::vector<double> spec_build_us;
  std::vector<double> json_parse_us;
  std::vector<double> json_dump_us;
  std::uint64_t requests = 0;
  std::uint64_t cached = 0;
  std::uint64_t rejected = 0;
};

/// Renders `request` to its wire line, parses it back and validates its
/// fields with util::spec_builder, timing each call (spans under `id` when
/// `log` is set).  Returns the validated spec; `line` receives the text
/// and `problems` what did not round-trip or validate.
ssr::util::sim_request_spec time_request_layers(
    const ssr::obs::json_value& request, span_log* log, std::uint64_t id,
    serve_samples& samples, std::string& line,
    std::vector<std::string>& problems);

/// One request for a trial workload's own spec, sent twice to a fresh
/// service (a miss, then a cache hit), plus serve::run_simulation on the
/// same spec.
void probe_serve(const ssr::obs::json_value& request, span_log& log,
                 serve_samples& samples, run_report& report);

/// Writes the serve.*, util.* and obs.json_* metrics.
void report_serve_layers(const serve_samples& samples, run_report& report);

}  // namespace perfbench
