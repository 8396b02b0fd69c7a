// ssr_cli -- command-line driver for the library.
//
// Runs any protocol from any adversarial scenario on any topology, printing
// periodic configuration summaries and a final verdict.  Examples:
//
//   ssr_cli --protocol=optimal --n=64 --scenario=all_dormant_followers
//   ssr_cli --protocol=baseline --n=16 --graph=ring --max-time=10000
//   ssr_cli --protocol=sublinear --n=16 --h=3 --scenario=single_collision
//           (add --trace-every=50 for periodic summaries)
//   ssr_cli --protocol=loose --n=64 --t-max=40
//   ssr_cli --protocol=optimal --n=64 --json=run.json --trace-out=run.jsonl
//
// Bundle subcommands (docs/bundles.md):
//
//   ssr_cli run <scenario.json> --out <dir>       scenario -> run bundle
//   ssr_cli bundle verify <dir>                   recheck manifest sha256s
//   ssr_cli baseline capture <dir> --baselines <dir>
//   ssr_cli compare <dir> --against <file-or-dir> [--ks-alpha=..]
//           [--mean-tolerance=..] [--value-tolerance=..]
//
// compare exits 0 when every gate passes, 1 on regression, 2 when the
// inputs are unusable (failed verification, fingerprint mismatch).
//
// --json writes a machine-readable run summary (verdict, parallel time,
// engine counters); --trace-out writes the structured event stream
// (obs/trace.hpp) as JSONL.  Every run goes through an engine: a
// complete-graph run through the one --engine selects (pp/engine.hpp,
// with_engine), a --graph=ring|star|path|gnp run through the direct engine
// stepping that graph's edge sampler.  Both feed the same drive loop, so
// tracing, profiling and the --json engine counters attach to any run
// without changing it.  The protocol, its scenarios and its lint entries
// come from the protocol catalog (protocols/catalog.hpp).
// --engine=sharded runs the sharded engine's sequential hooked mode (the
// CLI's summaries and verdict need per-interaction hooks); its threaded
// run_parallel twin is exercised by bench_engine_scaling and the TSan test
// suite and is bit-identical by construction (pp/sharded_scheduler.hpp).
//
// Exit code 0 iff the run reached a correct configuration.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <span>
#include <sstream>
#include <string>

#include "analysis/protocol_lint/lint.hpp"
#include "analysis/trace_stats.hpp"
#include "obs/bundle.hpp"
#include "obs/engine_counters.hpp"
#include "obs/exposition.hpp"
#include "obs/journal.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/perf_counters.hpp"
#include "obs/progress.hpp"
#include "obs/scenario.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"
#include "pp/engine.hpp"
#include "pp/graph.hpp"
#include "protocols/catalog.hpp"
#include "protocols/describe.hpp"
#include "serve/request_context.hpp"
#include "serve/runner.hpp"
#include "ssr.hpp"
#include "util/edit_distance.hpp"
#include "util/request_spec.hpp"

namespace {

using namespace ssr;

struct options {
  /// protocol, scenario, n, h, t_max, seed, max_time, engine, shards.
  util::sim_request_spec spec;
  std::string graph = "complete";
  double graph_p = 0.9;  // for --graph=gnp
  double trace_every = 0.0;  // 0 = only start/end
  bool show_agents = false;
  std::string dump_path;   // write the starting configuration here
  std::string load_path;   // read the starting configuration instead
  std::string json_path;   // write a machine-readable run summary here
  std::string trace_path;  // write the structured event stream (JSONL) here
  std::uint64_t trace_sample_every = 1;  // keep every k-th phase transition
  std::size_t trace_cap = 1u << 20;      // trace event buffer cap
  bool progress = false;   // heartbeat on stderr for long runs
  bool lint = false;       // run the protocol linter before simulating
  bool profile = false;    // hierarchical section profiling (wall + perf)
  std::string profile_out;     // folded-stack output path (implies profile)
  std::string profile_chrome;  // chrome trace output path (implies profile)

  obs::trace_options trace_options() const {
    return {.sample_every = trace_sample_every, .max_events = trace_cap};
  }
};

constexpr std::string_view cli_flags[] = {
    "--protocol",       "--n",           "--h",
    "--t-max",          "--scenario",    "--graph",
    "--graph-p",        "--engine",      "--shards",
    "--seed",
    "--max-time",       "--trace-every", "--show-agents",
    "--dump",           "--load",        "--json",
    "--trace-out",      "--trace-sample-every",
    "--trace-cap",      "--progress",    "--profile",
    "--profile-out",    "--profile-chrome", "--lint",
    "--list-protocols", "--list-scenarios", "--help",
};

[[noreturn]] void usage(const std::string& error = "") {
  if (!error.empty()) std::cerr << "error: " << error << "\n\n";
  std::cerr <<
      "usage: ssr_cli [options]\n"
      "  --protocol=baseline|optimal|sublinear|loose\n"
      "  --n=<int>              population size (default 32)\n"
      "  --h=<int>              sublinear history depth (default 1)\n"
      "  --t-max=<int>          loose timeout (default 4 log2 n)\n"
      "  --scenario=<name>      adversarial start (default uniform_random;\n"
      "                         see --list-scenarios)\n"
      "  --graph=complete|ring|star|path|gnp   (not sublinear; a non-complete\n"
      "                         graph runs on the direct engine)\n"
      "  --graph-p=<float>      edge probability for gnp (default 0.9)\n"
      "  --engine=direct|batched|sharded  simulation engine (default\n"
      "                         direct; batched and sharded assume the\n"
      "                         uniform complete-graph scheduler, so they\n"
      "                         need --graph=complete)\n"
      "  --shards=<int>         sharded engine worker shard count (>= 1;\n"
      "                         requires --engine=sharded; omit the flag\n"
      "                         for hardware concurrency)\n"
      "  --seed=<int>           rng seed (default 1)\n"
      "  --max-time=<float>     parallel-time budget (default 1e7)\n"
      "  --trace-every=<float>  summary every T time units\n"
      "  --show-agents          dump every agent state at start/end\n"
      "  --dump=<file>          write the starting configuration (see\n"
      "                         protocols/serialize.hpp for the format)\n"
      "  --load=<file>          start from a saved configuration\n"
      "  --json=<file>          write a machine-readable run summary\n"
      "                         (verdict, parallel time, engine counters)\n"
      "  --trace-out=<file>     write the structured event stream as JSONL\n"
      "  --trace-sample-every=<k>  keep every k-th phase_transition event\n"
      "                         (default 1 = all; structural events are\n"
      "                         never sampled out)\n"
      "  --trace-cap=<int>      trace event buffer cap (default 2^20;\n"
      "                         excess events are counted as dropped)\n"
      "  --progress             print a heartbeat line to stderr every few\n"
      "                         seconds (parallel time, interactions/s, ETA)\n"
      "  --lint                 run the protocol model linter (strict) on\n"
      "                         the selected protocol before simulating;\n"
      "                         exits 1 without simulating on violations\n"
      "  --profile              hierarchical section profiling: hardware\n"
      "                         counters when available, wall time always;\n"
      "                         the section table lands in the --json summary\n"
      "  --profile-out=<file>   also write the profile as a folded-stack\n"
      "                         file (flamegraph.pl / speedscope); implies\n"
      "                         --profile\n"
      "  --profile-chrome=<file>  also write the profile spans as chrome\n"
      "                         trace-event JSON (Perfetto); implies\n"
      "                         --profile\n"
      "  --list-protocols       print the protocol names and exit\n"
      "  --list-scenarios       print the per-protocol scenario names and "
      "exit\n"
      "                         (add bare --json to either list flag for a\n"
      "                         machine-readable document)\n"
      "\n"
      "subcommands (run bundles; see docs/bundles.md):\n"
      "  ssr_cli run <scenario.json> --out <dir>\n"
      "  ssr_cli bundle verify <dir>\n"
      "  ssr_cli baseline capture <dir> --baselines <dir>\n"
      "  ssr_cli compare <dir> --against <file-or-dir>\n";
  std::exit(2);
}

/// --list-protocols; with the bare --json modifier the listing is a
/// machine-readable document instead of aligned text.
[[noreturn]] void list_protocols(bool json) {
  if (json) {
    obs::json_value doc = obs::json_value::object();
    doc["schema"] = "ssr.protocols";
    doc["schema_version"] = 1;
    obs::json_value arr = obs::json_value::array();
    for (const protocol_entry& entry : protocol_catalog()) {
      obs::json_value item = obs::json_value::object();
      item["name"] = entry.name;
      item["description"] = entry.blurb;
      arr.push_back(std::move(item));
    }
    doc["protocols"] = std::move(arr);
    std::cout << doc.dump(2) << '\n';
    std::exit(0);
  }
  std::size_t width = 0;
  for (const protocol_entry& entry : protocol_catalog())
    width = std::max(width, entry.name.size());
  for (const protocol_entry& entry : protocol_catalog()) {
    std::cout << entry.name << std::string(width + 2 - entry.name.size(), ' ')
              << entry.blurb << '\n';
  }
  std::exit(0);
}

[[noreturn]] void list_scenarios(bool json) {
  if (json) {
    obs::json_value doc = obs::json_value::object();
    doc["schema"] = "ssr.scenarios";
    doc["schema_version"] = 1;
    obs::json_value arr = obs::json_value::array();
    for (const protocol_entry& entry : protocol_catalog()) {
      obs::json_value item = obs::json_value::object();
      item["name"] = entry.name;
      obs::json_value names = obs::json_value::array();
      for (const std::string_view name : entry.scenarios) names.push_back(name);
      item["scenarios"] = std::move(names);
      arr.push_back(std::move(item));
    }
    doc["protocols"] = std::move(arr);
    std::cout << doc.dump(2) << '\n';
    std::exit(0);
  }
  for (const protocol_entry& entry : protocol_catalog()) {
    std::cout << entry.name << ':';
    for (const std::string_view name : entry.scenarios) std::cout << ' ' << name;
    std::cout << '\n';
  }
  std::exit(0);
}

/// Strict parses for the numeric flags outside the spec: a value that is
/// not a number is a usage error naming the flag (exit 2), never an
/// uncaught exception.
double number_flag(std::string_view flag, const std::string& text,
                   void (*fail)(const std::string&)) {
  const std::optional<double> value = util::parse_double(text);
  if (!value)
    fail(std::string(flag) + ": expected a number, got '" + text + "'");
  return *value;
}

std::uint64_t count_flag(std::string_view flag, const std::string& text) {
  const std::optional<std::uint64_t> value = util::parse_u64(text);
  if (!value)
    usage(std::string(flag) + ": expected an unsigned integer, got '" + text +
          "'");
  return *value;
}

options parse(int argc, char** argv) {
  options opt;
  // Bare --json is the machine-readable modifier for the list modes; it
  // may appear on either side of the list flag, so pre-scan.
  bool json_list = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--json") json_list = true;
  }
  // Spec-shaped flags (protocol, scenario, n, h, t-max, seed, max-time,
  // engine, shards) funnel through the shared builder so the CLI rejects
  // bad specs with exactly the diagnostics the benches and ssr_serve
  // produce (util/request_spec.hpp).
  util::spec_builder builder;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value_of = [&](const char* key) -> std::optional<std::string> {
      const std::string prefix = std::string(key) + "=";
      if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
      return std::nullopt;
    };
    if (arg == "--help" || arg == "-h") usage();
    if (arg == "--list-protocols") list_protocols(json_list);
    if (arg == "--list-scenarios") list_scenarios(json_list);
    if (arg == "--json")
      usage("--json needs a value (--json=<file>); the bare flag is only a "
            "modifier for --list-protocols/--list-scenarios");
    if (arg == "--show-agents") {
      opt.show_agents = true;
      continue;
    }
    if (auto v = value_of("--protocol")) {
      builder.set_protocol(*v);
      continue;
    }
    if (auto v = value_of("--n")) {
      builder.set_u64_text("n", *v);
      continue;
    }
    if (auto v = value_of("--h")) {
      builder.set_u64_text("h", *v);
      continue;
    }
    if (auto v = value_of("--t-max")) {
      builder.set_u64_text("t_max", *v);
      continue;
    }
    if (auto v = value_of("--scenario")) {
      builder.set_scenario(*v);
      continue;
    }
    if (auto v = value_of("--graph")) {
      opt.graph = *v;
      continue;
    }
    if (auto v = value_of("--graph-p")) {
      opt.graph_p = number_flag("--graph-p", *v, usage);
      if (!(opt.graph_p >= 0.0 && opt.graph_p <= 1.0))
        usage("--graph-p must be in [0, 1], got '" + *v + "'");
      continue;
    }
    if (auto v = value_of("--engine")) {
      builder.set_engine(*v);
      continue;
    }
    if (auto v = value_of("--shards")) {
      builder.set_u64_text("shards", *v);
      continue;
    }
    if (auto v = value_of("--seed")) {
      builder.set_u64_text("seed", *v);
      continue;
    }
    if (auto v = value_of("--max-time")) {
      builder.set_max_time_text(*v);
      continue;
    }
    if (auto v = value_of("--trace-every")) {
      opt.trace_every = number_flag("--trace-every", *v, usage);
      if (!(opt.trace_every >= 0.0 && std::isfinite(opt.trace_every)))
        usage("--trace-every must be a finite number >= 0, got '" + *v + "'");
      continue;
    }
    if (auto v = value_of("--dump")) {
      opt.dump_path = *v;
      continue;
    }
    if (auto v = value_of("--load")) {
      opt.load_path = *v;
      continue;
    }
    if (auto v = value_of("--json")) {
      opt.json_path = *v;
      continue;
    }
    if (auto v = value_of("--trace-out")) {
      opt.trace_path = *v;
      continue;
    }
    if (auto v = value_of("--trace-sample-every")) {
      opt.trace_sample_every = count_flag("--trace-sample-every", *v);
      if (opt.trace_sample_every == 0)
        usage("--trace-sample-every must be >= 1");
      continue;
    }
    if (auto v = value_of("--trace-cap")) {
      opt.trace_cap = count_flag("--trace-cap", *v);
      continue;
    }
    if (arg == "--progress") {
      opt.progress = true;
      obs::set_progress_default(true);
      continue;
    }
    if (arg == "--lint") {
      opt.lint = true;
      continue;
    }
    if (arg == "--profile") {
      opt.profile = true;
      continue;
    }
    if (auto v = value_of("--profile-out")) {
      opt.profile = true;
      opt.profile_out = *v;
      continue;
    }
    if (auto v = value_of("--profile-chrome")) {
      opt.profile = true;
      opt.profile_chrome = *v;
      continue;
    }
    const std::string name = arg.substr(0, arg.find('='));
    std::string message = "unknown argument '" + name + "'";
    const std::string_view suggestion = nearest_candidate(name, cli_flags);
    if (!suggestion.empty())
      message += " (did you mean " + std::string(suggestion) + "?)";
    usage(message);
  }
  const std::vector<util::spec_error> errors = builder.finalize();
  if (!errors.empty()) usage(util::render_errors(errors));
  opt.spec = builder.spec();
  const engine_kind engine = opt.spec.engine.kind;
  if (engine != engine_kind::direct && opt.graph != "complete")
    usage("--engine=" + std::string(to_string(engine)) +
          " requires --graph=complete");
  return opt;
}

/// The explicit edge list for --graph=ring|star|path|gnp.  The complete
/// graph never gets one: its runs go through the engines' uniform
/// scheduler, and an n(n-1)/2 edge list would not fit in memory at large n.
interaction_graph make_graph(const options& opt) {
  const std::uint32_t n = opt.spec.n;
  if (opt.graph == "ring") return interaction_graph::ring(n);
  if (opt.graph == "star") return interaction_graph::star(n);
  if (opt.graph == "path") return interaction_graph::path(n);
  if (opt.graph == "gnp")
    return interaction_graph::erdos_renyi(n, opt.graph_p,
                                          opt.spec.seed ^ 0x9e);
  usage("unknown graph: " + opt.graph);
}

/// Single-run heartbeat behind --progress: owns a metrics registry whose
/// run.* gauges the drive loops refresh at each checkpoint window; the
/// background meter renders parallel-time progress, interactions/s, and an
/// ETA on stderr (obs/progress.hpp).  A disabled instance is inert.
class run_progress {
 public:
  explicit run_progress(const options& opt) {
    if (!opt.progress) return;
    registry_.emplace();
    registry_->get_gauge("run.max_parallel_time").set(opt.spec.max_time);
    meter_.emplace(*registry_,
                   obs::progress_options{.label = opt.spec.protocol});
  }

  void update(double parallel_time, std::uint64_t interactions) {
    if (!registry_) return;
    registry_->get_gauge("run.parallel_time").set(parallel_time);
    registry_->get_gauge("engine.interactions_executed")
        .set(static_cast<double>(interactions));
  }

  /// Final gauge refresh + meter shutdown, so the last heartbeat cannot
  /// interleave with the verdict lines.
  void finish(double parallel_time, std::uint64_t interactions) {
    update(parallel_time, interactions);
    if (meter_) meter_->stop();
  }

 private:
  std::optional<obs::metrics_registry> registry_;
  std::optional<obs::progress_meter> meter_;
};

/// Single-run profiling behind --profile: owns the counter group (degraded
/// gracefully where perf_event_open is restricted) and the section
/// collector rooted at "run"; the drive loops attach the profiler to their
/// engine.  finish() writes the requested folded-stack / chrome artifacts
/// and returns the profile JSON for the --json summary.  A disabled
/// instance is inert and hands the engine a null profiler.
class run_profile {
 public:
  explicit run_profile(const options& opt) : opt_(&opt) {
    if (!opt.profile) return;
    perf_.emplace();
    if (!perf_->available())
      std::cerr << "profile: hardware counters unavailable ("
                << perf_->status() << "); recording wall time only\n";
    profiler_.emplace(obs::timeline_options{.perf = &*perf_});
    root_ = profiler_->enter("run");
  }

  obs::timeline_profiler* profiler() {
    return profiler_.has_value() ? &*profiler_ : nullptr;
  }

  /// Closes the root section, writes --profile-out / --profile-chrome, and
  /// returns the profile block for the --json summary (nullopt when
  /// profiling is off).
  std::optional<obs::json_value> finish() {
    if (!profiler_) return std::nullopt;
    profiler_->exit(root_);
    const obs::timeline_profile profile = profiler_->profile();
    if (!opt_->profile_out.empty()) {
      std::ofstream out(opt_->profile_out);
      if (!out) usage("cannot write " + opt_->profile_out);
      profile.write_folded(out);
      std::cout << "profile: " << opt_->profile_out << '\n';
    }
    if (!opt_->profile_chrome.empty()) {
      std::ofstream out(opt_->profile_chrome);
      if (!out) usage("cannot write " + opt_->profile_chrome);
      out << chrome_profile_json(profile).dump(2) << '\n';
      std::cout << "profile chrome trace: " << opt_->profile_chrome << '\n';
    }
    std::optional<obs::json_value> json = profile.to_json();
    profiler_.reset();
    perf_.reset();
    return json;
  }

 private:
  const options* opt_;
  std::optional<obs::perf_counter_group> perf_;
  std::optional<obs::timeline_profiler> profiler_;
  std::uint32_t root_ = 0;
};

/// Checkpoint window for the drive loops: --trace-every wins; otherwise
/// --progress forces periodic returns from the engine so the heartbeat
/// gauges advance; otherwise one full-budget window.
double progress_window(const options& opt) {
  if (opt.trace_every > 0) return opt.trace_every;
  if (opt.progress) return std::max(opt.spec.max_time / 1024.0, 1.0);
  return opt.spec.max_time;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  if (!in) usage("cannot open " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Writes the --json run summary: the verdict plus everything a script
/// needs to re-run or classify the run, with the engine counters; trace
/// stats and the profile appear when attached.
void write_summary(const options& opt, bool stabilized, double time,
                   std::uint64_t interactions,
                   const obs::engine_counters& counters,
                   const obs::trace_sink* sink,
                   const std::optional<obs::json_value>& profile) {
  if (opt.json_path.empty()) return;
  obs::json_value doc = obs::json_value::object();
  doc["schema_version"] = 1;
  doc["tool"] = "ssr_cli";
  doc["protocol"] = opt.spec.protocol;
  doc["n"] = static_cast<std::uint64_t>(opt.spec.n);
  doc["scenario"] = opt.spec.scenario;
  doc["graph"] = opt.graph;
  doc["engine"] = std::string(to_string(opt.spec.engine.kind));
  doc["seed"] = opt.spec.seed;
  doc["stabilized"] = stabilized;
  doc["parallel_time"] = time;
  doc["interactions"] = interactions;
  doc["engine_counters"] = obs::to_json(counters);
  if (sink != nullptr) {
    obs::json_value trace = obs::json_value::object();
    trace["events"] = static_cast<std::uint64_t>(sink->events().size());
    trace["offered"] = sink->offered();
    trace["sampled_out"] = sink->sampled_out();
    trace["dropped"] = sink->dropped();
    doc["trace"] = std::move(trace);
  }
  if (profile.has_value()) doc["profile"] = *profile;
  std::ofstream out(opt.json_path);
  if (!out) usage("cannot write " + opt.json_path);
  out << doc.dump(2) << '\n';
  std::cout << "summary: " << opt.json_path << '\n';
}

void write_trace(const obs::trace_sink& sink, const std::string& path,
                 std::span<const std::string_view> phase_names) {
  std::ofstream out(path);
  if (!out) usage("cannot write " + path);
  sink.write_jsonl(out, phase_names);
  std::cout << "trace: " << path << " (" << sink.events().size()
            << " events, " << sink.offered() << " offered)\n";
}

/// Applies --dump/--load: optionally replaces `initial` with a saved
/// configuration, optionally writes the starting configuration out.
template <class P>
std::vector<typename P::agent_state> resolve_initial(
    const options& opt, const P& protocol,
    std::vector<typename P::agent_state> initial) {
  if (!opt.load_path.empty())
    initial = config_from_text(protocol, slurp(opt.load_path));
  if (!opt.dump_path.empty()) {
    std::ofstream out(opt.dump_path);
    if (!out) usage("cannot write " + opt.dump_path);
    out << to_text(protocol, initial);
    std::cout << "wrote starting configuration to " << opt.dump_path << '\n';
  }
  return initial;
}

/// Interactions in `time` units of parallel time.  The spec builder keeps
/// max_time * n below 2^64, so the cast is defined for every time <=
/// max_time.
std::uint64_t interactions_at(const options& opt, double time) {
  return static_cast<std::uint64_t>(time * static_cast<double>(opt.spec.n));
}

/// Ranking runs: the trajectory advances through the engine (--engine's
/// on the complete graph, the direct engine on a --graph topology),
/// correctness is tracked incrementally (the engine may skip
/// certainly-null interactions, so a per-step full-scan check would defeat
/// the point), and a phase observer emits the structured event stream for
/// instrumented protocols.  --profile and --trace-out only attach to this
/// run, so they never change what it prints.
template <class P, class Engine>
int drive_engine(const options& opt, const P& protocol, Engine& eng) {
  const double max_time = opt.spec.max_time;
  obs::engine_counters counters;
  eng.attach_counters(&counters);
  run_profile prof(opt);
  eng.attach_profiler(prof.profiler());
  obs::trace_sink sink(opt.trace_options());
  obs::trace_sink* sink_ptr = opt.trace_path.empty() ? nullptr : &sink;
  run_progress progress(opt);

  std::cout << "t=0.0: " << summarize_configuration(protocol, eng.agents())
            << '\n';
  if (opt.show_agents) {
    for (std::size_t i = 0; i < eng.agents().size(); ++i)
      std::cout << "  agent " << i << ": "
                << describe(protocol, eng.agents()[i]) << '\n';
  }

  rank_tracker tracker(protocol.population_size());
  for (const auto& s : eng.agents()) tracker.add(protocol.rank_of(s));
  std::uint32_t ra = 0, rb = 0;

  const auto run_to_verdict = [&](auto&& pre_extra, auto&& post_extra) {
    const auto pre = [&](const agent_pair& pair) {
      ra = protocol.rank_of(eng.agents()[pair.initiator]);
      rb = protocol.rank_of(eng.agents()[pair.responder]);
      pre_extra(pair);
    };
    const auto post = [&](const agent_pair& pair, bool changed) {
      if (changed) {
        tracker.update(ra, protocol.rank_of(eng.agents()[pair.initiator]));
        tracker.update(rb, protocol.rank_of(eng.agents()[pair.responder]));
      }
      post_extra(pair, changed);
      return tracker.correct();
    };
    const double step_window = progress_window(opt);
    const std::uint64_t max_interactions = interactions_at(opt, max_time);
    bool done = tracker.correct();
    while (!done && eng.interactions() < max_interactions) {
      // Every window advances at least one interaction, however short.
      const double next = std::min(eng.parallel_time() + step_window, max_time);
      const std::uint64_t checkpoint =
          std::clamp(interactions_at(opt, next), eng.interactions() + 1,
                     max_interactions);
      done = eng.run(checkpoint, pre, post);
      progress.update(eng.parallel_time(), eng.interactions());
      if (opt.trace_every > 0 || done) {
        std::cout << "t=" << eng.parallel_time() << ": "
                  << summarize_configuration(protocol, eng.agents()) << '\n';
      }
    }
    return done;
  };

  bool done = false;
  if constexpr (obs::phase_instrumented_protocol<P>) {
    obs::phase_observer<P> observer(protocol, eng.agents(), sink_ptr);
    observer.begin(eng.parallel_time(), eng.interactions());
    bool was_correct = tracker.correct();
    done = run_to_verdict(
        [&](const agent_pair& pair) { observer.before(pair); },
        [&](const agent_pair& pair, bool changed) {
          observer.after(pair, changed, eng.parallel_time(),
                         eng.interactions());
          if (changed && ra == rb && ra != 0)
            observer.rank_collision(pair, eng.parallel_time(),
                                    eng.interactions());
          const bool correct = tracker.correct();
          if (correct && !was_correct)
            observer.convergence(eng.parallel_time(), eng.interactions());
          else if (!correct && was_correct)
            observer.correctness_lost(eng.parallel_time(),
                                      eng.interactions());
          was_correct = correct;
        });
    observer.end(eng.parallel_time(), eng.interactions());
    if (sink_ptr != nullptr) {
      const auto names = observer.phase_names();
      write_trace(sink, opt.trace_path, names);
    }
  } else {
    if (sink_ptr != nullptr)
      sink.emit({obs::trace_event_kind::run_start, eng.parallel_time(),
                 eng.interactions()});
    done = run_to_verdict(ignore_pair,
                          [](const agent_pair&, bool) {});
    if (sink_ptr != nullptr) {
      if (done)
        sink.emit({obs::trace_event_kind::convergence, eng.parallel_time(),
                   eng.interactions()});
      sink.emit({obs::trace_event_kind::run_end, eng.parallel_time(),
                 eng.interactions()});
      write_trace(sink, opt.trace_path, {});
    }
  }
  progress.finish(eng.parallel_time(), eng.interactions());
  const std::optional<obs::json_value> profile_json = prof.finish();

  if (opt.show_agents) {
    for (std::size_t i = 0; i < eng.agents().size(); ++i)
      std::cout << "  agent " << i << ": "
                << describe(protocol, eng.agents()[i]) << '\n';
  }
  write_summary(opt, done, eng.parallel_time(), eng.interactions(),
                counters, sink_ptr, profile_json);
  if (done) {
    std::cout << "stabilized at t=" << eng.parallel_time() << " ("
              << eng.interactions() << " interactions); leader is the rank-1 "
              << "agent\n";
    return 0;
  }
  std::cout << "did NOT stabilize within t=" << max_time << '\n';
  return 1;
}

/// Loose LE has no ranking notion; run until a unique leader, report.
template <class Engine>
int drive_loose_engine(const options& opt, const loose_stabilizing_le& p,
                       Engine& eng) {
  obs::engine_counters counters;
  eng.attach_counters(&counters);
  run_profile prof(opt);
  eng.attach_profiler(prof.profiler());
  obs::trace_sink sink(opt.trace_options());
  obs::trace_sink* sink_ptr = opt.trace_path.empty() ? nullptr : &sink;
  run_progress progress(opt);

  std::cout << "t=0.0: " << summarize_configuration(p, eng.agents()) << '\n';
  if (sink_ptr != nullptr)
    sink.emit({obs::trace_event_kind::run_start, eng.parallel_time(),
               eng.interactions()});
  bool done = p.leader_count(eng.agents()) == 1;
  if (!done) {
    done = eng.run(
        interactions_at(opt, opt.spec.max_time), ignore_pair,
        [&](const agent_pair&, bool changed) {
          if ((eng.interactions() & 0xffff) == 0)
            progress.update(eng.parallel_time(), eng.interactions());
          return changed && p.leader_count(eng.agents()) == 1;
        });
  }
  progress.finish(eng.parallel_time(), eng.interactions());
  std::cout << "t=" << eng.parallel_time() << ": "
            << summarize_configuration(p, eng.agents()) << '\n';
  if (sink_ptr != nullptr) {
    if (done)
      sink.emit({obs::trace_event_kind::convergence, eng.parallel_time(),
                 eng.interactions()});
    sink.emit({obs::trace_event_kind::run_end, eng.parallel_time(),
               eng.interactions()});
    write_trace(sink, opt.trace_path, {});
  }
  const std::optional<obs::json_value> profile_json = prof.finish();
  write_summary(opt, done, eng.parallel_time(), eng.interactions(),
                counters, sink_ptr, profile_json);
  return done ? 0 : 1;
}

// --lint: run the strict model lint for the selected protocol (the
// registry entries its catalog entry names) before simulating; on
// violations print the findings and refuse to simulate.
void run_lint_gate(const options& opt) {
  lint::lint_options lo;
  lo.protocols = find_protocol(opt.spec.protocol)->lint_entries(opt.spec.h);
  const lint::lint_report report = lint::run_lint(lo);
  if (!report.passed(/*strict=*/true)) {
    std::cerr << lint::render_report(report, /*strict=*/true);
    std::cerr << "lint: model violations; refusing to simulate\n";
    std::exit(1);
  }
  std::cout << "lint: PASS (" << report.notes << " note(s))\n";
}

// ---------------------------------------------------------------------------
// Bundle subcommands: run / bundle verify / baseline capture / compare.
// Exit conventions: 0 success, 1 run failure / failed verification /
// regression, 2 bad usage or invalid inputs.

[[noreturn]] void subcommand_usage(const std::string& error = "") {
  if (!error.empty()) std::cerr << "error: " << error << "\n\n";
  std::cerr <<
      "usage:\n"
      "  ssr_cli run <scenario.json> --out <dir>\n"
      "      execute an ssr.scenario v1 document and write the run bundle\n"
      "      (scenario.json, run.json, events.jsonl, optional trace/profile/\n"
      "      metrics, summary.md, bundle_manifest.json)\n"
      "  ssr_cli bundle verify <dir>\n"
      "      recompute every sha256 listed in bundle_manifest.json\n"
      "  ssr_cli baseline capture <dir> --baselines <dir>\n"
      "      freeze a verified bundle's run.json as the scenario's baseline\n"
      "  ssr_cli compare <dir> --against <file-or-dir>\n"
      "          [--ks-alpha=A] [--mean-tolerance=F] [--value-tolerance=F]\n"
      "      gate a bundle against a baseline (exit 1 on regression)\n"
      "see docs/bundles.md\n";
  std::exit(2);
}

/// `--flag value` / `--flag=value` for the subcommand argv style.
std::optional<std::string> flag_value(std::span<char* const> args,
                                      std::size_t& i, std::string_view flag) {
  const std::string_view arg = args[i];
  if (arg == flag) {
    if (i + 1 >= args.size())
      subcommand_usage(std::string(flag) + " needs a value");
    return std::string(args[++i]);
  }
  const std::string prefix = std::string(flag) + "=";
  if (arg.rfind(prefix, 0) == 0) return std::string(arg.substr(prefix.size()));
  return std::nullopt;
}

std::optional<std::string> read_file(const std::string& path,
                                     std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    *error = "cannot open '" + path + "'";
    return std::nullopt;
  }
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// ssr_cli run <scenario.json> --out <dir>
int cmd_run(std::span<char* const> args) {
  std::string scenario_path;
  std::string out_dir;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (auto v = flag_value(args, i, "--out")) {
      out_dir = *v;
      continue;
    }
    const std::string_view arg = args[i];
    if (!arg.empty() && arg[0] == '-')
      subcommand_usage("unknown run option '" + std::string(arg) + "'");
    if (!scenario_path.empty())
      subcommand_usage("run takes exactly one scenario file");
    scenario_path = arg;
  }
  if (scenario_path.empty()) subcommand_usage("run needs a scenario file");
  if (out_dir.empty()) subcommand_usage("run needs --out <dir>");

  std::string io_error;
  const std::optional<std::string> text = read_file(scenario_path, &io_error);
  if (!text.has_value()) {
    std::cerr << "error: " << io_error << '\n';
    return 2;
  }
  std::vector<util::spec_error> errors;
  const std::optional<obs::scenario_doc> scenario =
      obs::parse_scenario_text(*text, &errors);
  if (!scenario.has_value()) {
    std::cerr << "error: invalid scenario '" << scenario_path << "':\n";
    for (const util::spec_error& e : errors)
      std::cerr << "  " << e.field << ": " << e.message << '\n';
    return 2;
  }
  const util::sim_request_spec& spec = scenario->spec;
  const std::string fingerprint = spec.canonical();

  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  if (ec) {
    std::cerr << "error: cannot create '" << out_dir
              << "': " << ec.message() << '\n';
    return 1;
  }
  // The bundle journal shares the serve daemon's event vocabulary
  // (obs/journal.hpp) under the local-run schema tag.
  obs::journal journal{obs::journal_options{}};
  journal.open(out_dir + "/events.jsonl");
  const auto emit = [&](std::string_view event, auto&& fill) {
    obs::json_value fields = obs::json_value::object();
    fields["scenario"] = scenario->name;
    fill(fields);
    journal.emit(event, fields);
  };
  emit("admit", [&](obs::json_value& fields) {
    fields["fingerprint"] = fingerprint;
    fields["protocol"] = spec.protocol;
    fields["n"] = static_cast<std::uint64_t>(spec.n);
    fields["trials"] = spec.trials;
  });
  emit("start", [](obs::json_value&) {});

  obs::metrics_registry registry;
  obs::engine_counters counters;
  std::optional<serve::request_telemetry> telemetry;
  if (scenario->telemetry.any()) telemetry.emplace(scenario->telemetry);
  const auto start = std::chrono::steady_clock::now();
  const auto elapsed_ms = [&start] {
    const std::chrono::duration<double, std::milli> elapsed =
        std::chrono::steady_clock::now() - start;
    return std::floor(elapsed.count());
  };
  std::shared_ptr<const obs::json_value> result;
  try {
    result = serve::run_simulation(
        spec, /*cancel=*/nullptr, &registry,
        telemetry.has_value() ? &*telemetry : nullptr, &counters,
        [&](std::uint64_t completed, std::uint64_t total) {
          emit("progress", [&](obs::json_value& fields) {
            fields["trials_completed"] = completed;
            fields["trials_total"] = total;
          });
        });
  } catch (const std::exception& e) {
    emit("failed", [&](obs::json_value& fields) {
      fields["message"] = std::string(e.what());
    });
    std::cerr << "error: run failed: " << e.what() << '\n';
    return 1;
  }
  emit("complete", [&](obs::json_value& fields) {
    fields["fingerprint"] = fingerprint;
    fields["elapsed_ms"] = elapsed_ms();
  });

  obs::bundle_artifacts artifacts;
  artifacts.events = true;
  std::string trace_text;
  if (telemetry.has_value() && telemetry->options.trace) {
    std::ostringstream os;
    telemetry->trace.write_jsonl(os, telemetry->phase_names);
    trace_text = os.str();
    artifacts.trace_jsonl = &trace_text;
  }
  if (telemetry.has_value() && telemetry->options.profile) {
    artifacts.profile = &telemetry->profile;
  }
  if (scenario->emit_metrics) {
    artifacts.metrics_prom = obs::prometheus_text(registry);
  }
  const obs::bundle_result bundle = obs::write_run_bundle(
      out_dir, *scenario, *result, counters, artifacts);
  if (!bundle.ok) {
    std::cerr << "error: " << bundle.error << '\n';
    return 1;
  }
  const obs::json_value* stats =
      result->find("stats") != nullptr ? result->find("stats")->find("mean")
                                       : nullptr;
  std::cout << "bundle: " << bundle.dir << '\n';
  std::cout << "  fingerprint: " << fingerprint << '\n';
  if (stats != nullptr)
    std::cout << "  mean stabilization time: " << stats->as_double() << '\n';
  std::cout << "  manifest: " << bundle.manifest_path << '\n';
  return 0;
}

/// ssr_cli bundle verify <dir>
int cmd_bundle(std::span<char* const> args) {
  if (args.size() != 2 || std::string_view(args[0]) != "verify")
    subcommand_usage("bundle subcommand is: bundle verify <dir>");
  const std::string dir = args[1];
  const obs::manifest_check check = obs::verify_bundle(dir);
  if (!check.ok()) {
    std::cerr << "bundle verification FAILED for " << dir << ":\n";
    for (const std::string& problem : check.problems)
      std::cerr << "  " << problem << '\n';
    return 1;
  }
  std::cout << "bundle ok: " << check.files_checked
            << " file(s) verified against " << dir
            << "/bundle_manifest.json\n";
  return 0;
}

/// Loads <dir>/run.json after re-verifying the manifest; exits via return
/// code 2 semantics (nullopt) when the bundle is unusable.
std::optional<obs::json_value> load_verified_run(const std::string& dir) {
  const obs::manifest_check check = obs::verify_bundle(dir);
  if (!check.ok()) {
    std::cerr << "error: bundle verification failed for " << dir << ":\n";
    for (const std::string& problem : check.problems)
      std::cerr << "  " << problem << '\n';
    return std::nullopt;
  }
  std::string error;
  std::optional<obs::json_value> run_doc =
      obs::load_json_file(dir + "/run.json", &error);
  if (!run_doc.has_value()) std::cerr << "error: " << error << '\n';
  return run_doc;
}

/// ssr_cli baseline capture <dir> --baselines <dir>
int cmd_baseline(std::span<char* const> args) {
  if (args.empty() || std::string_view(args[0]) != "capture")
    subcommand_usage("baseline subcommand is: baseline capture <dir> "
                     "--baselines <dir>");
  std::string bundle_dir;
  std::string baselines_dir;
  for (std::size_t i = 1; i < args.size(); ++i) {
    if (auto v = flag_value(args, i, "--baselines")) {
      baselines_dir = *v;
      continue;
    }
    const std::string_view arg = args[i];
    if (!arg.empty() && arg[0] == '-')
      subcommand_usage("unknown baseline option '" + std::string(arg) + "'");
    if (!bundle_dir.empty())
      subcommand_usage("baseline capture takes exactly one bundle dir");
    bundle_dir = arg;
  }
  if (bundle_dir.empty())
    subcommand_usage("baseline capture needs a bundle dir");
  if (baselines_dir.empty())
    subcommand_usage("baseline capture needs --baselines <dir>");

  const std::optional<obs::json_value> run_doc =
      load_verified_run(bundle_dir);
  if (!run_doc.has_value()) return 2;
  const obs::json_value doc = obs::baseline_document(*run_doc);
  const obs::json_value* name = doc.find("scenario_name");
  if (name == nullptr || !name->is_string() || name->as_string().empty()) {
    std::cerr << "error: run.json has no scenario_name\n";
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(baselines_dir, ec);
  if (ec) {
    std::cerr << "error: cannot create '" << baselines_dir
              << "': " << ec.message() << '\n';
    return 1;
  }
  const std::string path = baselines_dir + "/" + name->as_string() + ".json";
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::cerr << "error: cannot write '" << path << "'\n";
    return 1;
  }
  out << doc.dump(2) << '\n';
  out.flush();
  if (!out) {
    std::cerr << "error: short write to '" << path << "'\n";
    return 1;
  }
  std::cout << "baseline: " << path << '\n';
  return 0;
}

/// ssr_cli compare <dir> --against <file-or-dir> [threshold flags]
int cmd_compare(std::span<char* const> args) {
  std::string bundle_dir;
  std::string against;
  obs::compare_limits limits;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (auto v = flag_value(args, i, "--against")) {
      against = *v;
      continue;
    }
    if (auto v = flag_value(args, i, "--ks-alpha")) {
      limits.ks_alpha = number_flag("--ks-alpha", *v, subcommand_usage);
      continue;
    }
    if (auto v = flag_value(args, i, "--mean-tolerance")) {
      limits.sample_mean_tolerance =
          number_flag("--mean-tolerance", *v, subcommand_usage);
      continue;
    }
    if (auto v = flag_value(args, i, "--value-tolerance")) {
      limits.value_tolerance =
          number_flag("--value-tolerance", *v, subcommand_usage);
      continue;
    }
    const std::string_view arg = args[i];
    if (!arg.empty() && arg[0] == '-')
      subcommand_usage("unknown compare option '" + std::string(arg) + "'");
    if (!bundle_dir.empty())
      subcommand_usage("compare takes exactly one bundle dir");
    bundle_dir = arg;
  }
  if (bundle_dir.empty()) subcommand_usage("compare needs a bundle dir");
  if (against.empty()) subcommand_usage("compare needs --against <baseline>");

  const std::optional<obs::json_value> run_doc =
      load_verified_run(bundle_dir);
  if (!run_doc.has_value()) return 2;

  // --against a directory resolves to <dir>/<scenario_name>.json -- the
  // layout baseline capture writes.
  std::string baseline_path = against;
  if (std::filesystem::is_directory(against)) {
    const obs::json_value* name = run_doc->find("scenario_name");
    if (name == nullptr || !name->is_string()) {
      std::cerr << "error: run.json has no scenario_name\n";
      return 2;
    }
    baseline_path = against + "/" + name->as_string() + ".json";
  }
  std::string error;
  const std::optional<obs::json_value> baseline =
      obs::load_json_file(baseline_path, &error);
  if (!baseline.has_value()) {
    std::cerr << "error: " << error << '\n';
    return 2;
  }

  const obs::bundle_comparison comparison =
      obs::compare_against_baseline(*run_doc, *baseline, limits);
  if (!comparison.ok) {
    std::cerr << "error: " << comparison.error << '\n';
    return 2;
  }
  std::cout << "comparing " << bundle_dir << " against " << baseline_path
            << '\n';
  for (const obs::metric_verdict& v : comparison.verdicts) {
    const char* tag = !v.verdict.comparable ? "SKIP"
                      : v.verdict.regression ? "REGRESSION"
                                             : "ok";
    std::cout << "  [" << tag << "] " << v.key << ": base "
              << v.verdict.base_mean << " -> now " << v.verdict.new_mean
              << " (" << v.verdict.detail << ")\n";
  }
  std::cout << comparison.compared << " metric(s) compared, "
            << comparison.regressions << " regression(s)\n";
  return comparison.regressions > 0 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Subcommand dispatch precedes flag parsing: a first argument that
  // doesn't start with '-' selects the bundle workflows.
  if (argc > 1 && argv[1][0] != '-') {
    const std::string_view command = argv[1];
    const std::span<char* const> rest(argv + 2,
                                      static_cast<std::size_t>(argc - 2));
    if (command == "run") return cmd_run(rest);
    if (command == "bundle") return cmd_bundle(rest);
    if (command == "baseline") return cmd_baseline(rest);
    if (command == "compare") return cmd_compare(rest);
    subcommand_usage("unknown subcommand '" + std::string(command) +
                     "' (expected run, bundle, baseline, or compare)");
  }
  const options opt = parse(argc, argv);
  if (opt.lint) run_lint_gate(opt);
  return with_catalog_entry(opt.spec.protocol, [&opt]<class Entry>() {
    using P = typename Entry::protocol;
    std::optional<interaction_graph> graph;
    if (opt.graph != "complete") graph = make_graph(opt);
    if (Entry::complete_graph_only && graph.has_value())
      usage(std::string(Entry::name) + " runs on the complete graph only");
    const P protocol = Entry::make(opt.spec);
    rng_t scenario_rng(opt.spec.seed ^ 0xabcdef123456ULL);
    auto initial = resolve_initial(
        opt, protocol,
        Entry::initial(protocol, opt.spec.scenario, scenario_rng));
    const auto drive = [&](auto& engine) {
      if constexpr (Entry::measure == stabilization::unique_leader)
        return drive_loose_engine(opt, protocol, engine);
      else
        return drive_engine(opt, protocol, engine);
    };
    if (!graph.has_value()) {
      return with_engine(opt.spec.engine, protocol, std::move(initial),
                         opt.spec.seed, drive);
    }
    direct_engine<P, interaction_graph> engine(
        protocol, std::move(initial), opt.spec.seed, std::move(*graph));
    return drive(engine);
  });
}
