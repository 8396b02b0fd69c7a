#include "bench.hpp"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <numeric>
#include <string>

#include "attribution.hpp"
#include "obs/json.hpp"

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: the latter survives execve, so it
  // would report the launching process's peak when that was larger.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

namespace {

void set_affinity(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof set, &set);
}

}  // namespace

cpu_rotation::cpu_rotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus_.push_back(c);
  }
}

cpu_rotation::~cpu_rotation() {
  if (!cpus_.empty()) set_affinity(cpus_);
}

void cpu_rotation::pin(int round) {
  if (cpus_.empty()) return;
  set_affinity({cpus_[static_cast<std::size_t>(round) % cpus_.size()]});
}

void run_report::fail(const std::string& why) {
  correct = false;
  notes.push_back("CHECK FAILED: " + why);
}

span_log::scope::scope(span_log* log, std::uint64_t id, std::string name)
    : log_(log) {
  if (log_ == nullptr) return;
  const std::int64_t parent =
      log_->open_.empty() ? -1 : static_cast<std::int64_t>(log_->open_.back());
  index_ = log_->spans_.size();
  log_->spans_.push_back(
      {std::move(name), id, parent, bench_clock::now(), {}});
  log_->open_.push_back(index_);
}

span_log::scope::~scope() {
  if (log_ == nullptr) return;
  log_->spans_[index_].end = bench_clock::now();
  log_->open_.pop_back();
}

void span_log::append(const span_log& other) {
  const auto offset = static_cast<std::int64_t>(spans_.size());
  for (span s : other.spans_) {
    if (s.parent >= 0) s.parent += offset;
    spans_.push_back(std::move(s));
  }
}

namespace {

std::vector<double> child_seconds(const std::vector<span_log::span>& spans) {
  std::vector<double> covered(spans.size(), 0.0);
  for (const auto& s : spans) {
    if (s.parent >= 0) {
      covered[static_cast<std::size_t>(s.parent)] +=
          seconds_between(s.start, s.end);
    }
  }
  return covered;
}

}  // namespace

std::vector<double> span_log::self_seconds(const std::string& name) const {
  const std::vector<double> covered = child_seconds(spans_);
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) {
      out.push_back(seconds_between(spans_[i].start, spans_[i].end) -
                    covered[i]);
    }
  }
  return out;
}

void span_log::write_jsonl(const std::string& path) const {
  std::ofstream os(path);
  if (spans_.empty()) return;
  const std::vector<double> covered = child_seconds(spans_);
  auto origin = spans_.front().start;
  for (const auto& s : spans_) origin = std::min(origin, s.start);
  const auto ns = [&](bench_clock::time_point t) {
    return static_cast<std::int64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin)
            .count());
  };
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const span& s = spans_[i];
    ssr::obs::json_value line = ssr::obs::json_value::object();
    line["name"] = s.name;
    line["id"] = s.id;
    line["parent"] = s.parent;
    line["start_ns"] = ns(s.start);
    line["end_ns"] = ns(s.end);
    const double total = seconds_between(s.start, s.end);
    line["seconds"] = total;
    line["self_seconds"] = total - covered[i];
    os << line.dump() << '\n';
  }
}

double seconds_per_tick() {
  static const double value = [] {
    const auto t0 = bench_clock::now();
    const std::uint64_t k0 = fenced_ticks();
    while (seconds_since(t0) < 0.02) {
    }
    const std::uint64_t k1 = fenced_ticks();
    return seconds_since(t0) / static_cast<double>(k1 - k0);
  }();
  return value;
}

double empty_call_ticks() {
  static const double value = [] {
    constexpr int k_pairs = 100000;
    std::uint64_t total = 0;
    for (int i = 0; i < k_pairs; ++i) {
      const std::uint64_t t0 = fenced_ticks();
      total += fenced_ticks() - t0;
    }
    return static_cast<double>(total) / k_pairs;
  }();
  return value;
}

void report_layers(const layer_samples& s, const span_log& log,
                   run_report& report) {
  report.set("pp.engine.executed", mean(s.executed), "count");
  report.set("pp.engine.skipped", mean(s.skipped), "count");
  report.set("pp.engine.changed_ratio", mean(s.changed_ratio), "ratio");
  report.set("pp.engine.fenwick_updates", mean(s.fenwick_updates), "count");
  report.set("pp.engine.geometric_draws", mean(s.geometric_draws), "count");
  report.set("pp.engine.raw_s", median(s.raw_s), "s");
  report.set("pp.engine.executed_per_s", median(s.executed_per_s), "1/s");
  report.set("pp.harness_s", median(s.harness_s), "s");
  report.set("pp.harness_share", median(s.harness_share), "ratio");
  report.set("pp.engine.init_s", median(log.self_seconds("pp.engine_init")),
             "s");
  report.set("protocols.interact_s", median(s.interact_s), "s");
  report.set("protocols.rank_of_calls", mean(s.rank_of_calls), "count");
  report.set("protocols.adversary_s",
             median(log.self_seconds("protocols.adversarial_configuration")),
             "s");
  report.set("protocols.state_bytes", mean(s.state_bytes), "bytes");
  report.set("protocols.tree_nodes_p50", median(s.tree_nodes), "count");
  report.set("obs.trace_attached_ratio", median(s.trace_attached_ratio),
             "ratio");
  report.set("obs.profiler_attached_ratio", median(s.profiler_attached_ratio),
             "ratio");
  report.set("perfbench.trace_overhead_share", median(s.trace_overhead_share),
             "ratio");
}

}  // namespace perfbench
