// The three front ends that run trials -- the serve runner, the bench
// helpers and `ssr_cli run` bundles -- all go through the protocol
// catalog's run_trial, so for one spec and seed they must report the same
// samples bit for bit, on every engine.  The serve leg carries a cancel
// token that never fires, so the baseline case (long enough to cross
// several cancellation bursts) also pins that bursts do not change a run.
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "../bench/common.hpp"
#include "obs/bundle.hpp"
#include "obs/json.hpp"
#include "obs/scenario.hpp"
#include "pp/cancellation.hpp"
#include "protocols/catalog.hpp"
#include "serve/runner.hpp"
#include "util/request_spec.hpp"

namespace ssr {
namespace {

namespace fs = std::filesystem;

std::vector<double> samples_of(const obs::json_value& result) {
  std::vector<double> out;
  const obs::json_value* samples = result.find("samples");
  if (samples == nullptr) return out;
  for (std::size_t i = 0; i < samples->size(); ++i)
    out.push_back(samples->at(i).as_double());
  return out;
}

/// One spec per catalog protocol, at the max_time its bench helper uses.
util::sim_request_spec spec_for(std::string_view protocol, engine_spec engine) {
  util::spec_builder builder;
  builder.set_protocol(protocol);
  builder.set_engine(to_string(engine.kind));
  if (engine.shards != 0) builder.set_shards(engine.shards);
  builder.set_trials(3);
  builder.set_seed(7);
  if (protocol == "baseline") {
    builder.set_n(300);  // ~2e7 interactions per trial: several cancel bursts
    builder.set_max_time(1e9);
  } else if (protocol == "optimal") {
    builder.set_n(48);
    builder.set_scenario("no_leader");
    builder.set_max_time(1e9);
  } else if (protocol == "sublinear") {
    builder.set_n(8);
    builder.set_h(2);
    builder.set_scenario("single_collision");
    builder.set_max_time(1e8);
  }
  EXPECT_TRUE(builder.finalize().empty());
  return builder.spec();
}

std::vector<double> bench_samples(const util::sim_request_spec& spec) {
  const auto trials = static_cast<std::size_t>(spec.trials);
  if (spec.protocol == "baseline")
    return bench::baseline_times(spec.n, trials, spec.seed, spec.engine);
  if (spec.protocol == "optimal") {
    return bench::optimal_silent_times(spec.n, trials, spec.seed,
                                       optimal_silent_scenario::no_leader,
                                       spec.engine);
  }
  if (spec.protocol == "sublinear") {
    return bench::sublinear_times(
        spec.n, spec.h, trials, spec.seed,
        sublinear_scenario::single_collision,
        catalog::sublinear::confirm(spec.n), /*parallel=*/true, spec.engine);
  }
  return bench::trial_times(spec);  // no dedicated helper
}

std::vector<double> cli_samples(const util::sim_request_spec& spec,
                                const std::string& label) {
  const fs::path dir = fs::temp_directory_path() / ("ssr_frontends_" + label);
  fs::remove_all(dir);
  fs::create_directories(dir);
  obs::scenario_doc doc;
  doc.name = label;
  doc.spec = spec;
  {
    std::ofstream out(dir / "scenario.json");
    out << obs::scenario_to_json(doc).dump(2) << '\n';
  }
  const std::string command = std::string(SSR_CLI_PATH) + " run " +
                              (dir / "scenario.json").string() + " --out " +
                              (dir / "bundle").string() + " > " +
                              (dir / "stdout.txt").string();
  EXPECT_EQ(std::system(command.c_str()), 0) << command;
  std::string error;
  const std::optional<obs::json_value> run =
      obs::load_json_file((dir / "bundle" / "run.json").string(), &error);
  EXPECT_TRUE(run.has_value()) << error;
  std::vector<double> samples;
  if (run.has_value() && run->find("result") != nullptr)
    samples = samples_of(*run->find("result"));
  fs::remove_all(dir);
  return samples;
}

TEST(FrontendAgreement, ServeBenchAndBundlesGiveTheSameSamples) {
  const engine_spec engines[] = {engine_kind::direct, engine_kind::batched,
                                 engine_spec{engine_kind::sharded, 2}};
  for (const protocol_entry& entry : protocol_catalog()) {
    for (const engine_spec engine : engines) {
      // The baseline has no null skipping on the sharded engine: at bench
      // sizes a trial takes minutes.
      if (entry.name == "baseline" && engine.kind == engine_kind::sharded)
        continue;
      const util::sim_request_spec spec = spec_for(entry.name, engine);
      const std::string label =
          std::string(entry.name) + "_" + std::string(to_string(engine.kind));
      SCOPED_TRACE(label);

      const cancel_token never;
      const std::vector<double> served =
          samples_of(*serve::run_simulation(spec, &never, nullptr));
      ASSERT_EQ(served.size(), spec.trials);
      EXPECT_EQ(bench_samples(spec), served);
      EXPECT_EQ(cli_samples(spec, label), served);
    }
  }
}

}  // namespace
}  // namespace ssr
