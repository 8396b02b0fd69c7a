// Shared pieces of the benchmark binary: run configuration, the result
// report, order statistics, and the in-memory span log the traced runs use
// to attribute time to the library layers they call into.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using bench_clock = std::chrono::steady_clock;

inline double seconds_between(bench_clock::time_point a,
                              bench_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline double seconds_since(bench_clock::time_point t0) {
  return seconds_between(t0, bench_clock::now());
}

/// Linear-interpolated quantile (q in [0,1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
double mean(const std::vector<double>& values);

/// Set-up repetitions per run; set-up takes microseconds to a millisecond,
/// so only the median of many is steady.
inline constexpr int k_setup_reps = 101;

/// Rounds of an untraced trial workload.  The first round runs fresh
/// trials for 1/k_rounds of the run; every later round reruns the same
/// trials, each round pinned to the next CPU the process may use.  A
/// trial's time is its best round.  On a shared host the speed of one
/// vCPU can halve for seconds at a time, and a single busy thread tends to
/// stay on its vCPU; repeats spread over time and over CPUs, keeping the
/// best, filter out such passing interference.  A slowdown that lasts the
/// whole run still shows.
inline constexpr int k_rounds = 16;

/// Set-up repetitions per round of an untraced trial workload; set-up
/// repetition j's time is its best round.
inline constexpr int k_setup_reps_per_round = 7;

/// Pins the calling thread to one CPU in turn out of the set it was
/// allowed at construction, and restores that set when destroyed.  Does
/// nothing where the set cannot be read.
class cpu_rotation {
 public:
  cpu_rotation();
  ~cpu_rotation();
  cpu_rotation(const cpu_rotation&) = delete;
  cpu_rotation& operator=(const cpu_rotation&) = delete;

  /// Pins to the (round mod number of CPUs)-th allowed CPU.
  void pin(int round);

 private:
  std::vector<int> cpus_;
};

/// Peak resident set of this process, in MiB.
double peak_rss_mb();

struct run_config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Deliberate corruption for the benchmark's own test: "config" corrupts
  /// a final configuration before it is checked, "cache" mutates a cached
  /// serve response before it is compared.  Empty in real runs.
  std::string doctor;
  /// Where a traced run writes its spans (JSONL); empty = do not write.
  std::string spans_path;
};

struct metric {
  double value = 0.0;
  std::string unit;
};

struct run_report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, metric> metrics;
  /// Lines for the human-readable summary printed above the JSON result.
  std::vector<std::string> notes;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = metric{value, unit};
  }
  /// Records a failed correctness check; the run then exits non-zero.
  void fail(const std::string& why);
};

/// Spans around calls into the library, kept in memory and written once
/// the run ends.  A span has a name ("<layer>.<call>"), the id of the
/// trial or request it belongs to, and the span that was open when it
/// started (its parent).  Not thread-safe: each client thread keeps its
/// own log.
class span_log {
 public:
  struct span {
    std::string name;
    std::uint64_t id = 0;
    std::int64_t parent = -1;  // index into spans(), -1 for a root
    bench_clock::time_point start;
    bench_clock::time_point end;
  };

  /// RAII span: opened on construction, closed on destruction.  A null
  /// log makes it a no-op, which is how untraced code paths stay free.
  class scope {
   public:
    scope(span_log* log, std::uint64_t id, std::string name);
    ~scope();
    scope(const scope&) = delete;
    scope& operator=(const scope&) = delete;

   private:
    span_log* log_;
    std::size_t index_ = 0;
  };

  const std::vector<span>& spans() const { return spans_; }
  void append(const span_log& other);

  /// Self seconds (duration minus the time covered by child spans) of
  /// every span with this name, in record order.
  std::vector<double> self_seconds(const std::string& name) const;

  /// One JSON object per span: name, id, parent, start/end (ns since the
  /// first span), duration and self seconds.
  void write_jsonl(const std::string& path) const;

 private:
  std::vector<span> spans_;
  std::vector<std::size_t> open_;
};

run_report run_trial_workload(const run_config& config);
run_report run_serve_mix(const run_config& config);

}  // namespace perfbench
