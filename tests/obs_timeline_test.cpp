// Hierarchical section profiler (obs/timeline.hpp): section-tree
// construction, the detached ≤1-branch discipline, derived hardware
// metrics, and the two export formats.  The folded-stack and chrome span
// formats are contracts consumed by flamegraph.pl / speedscope / Perfetto,
// so they are pinned by golden files built from a hand-assembled profile
// (real profiler output carries wall-clock times and cannot be byte
// stable).  Regenerate with
//   SSR_UPDATE_GOLDEN=1 ./ssr_tests --gtest_filter='ObsTimeline.*Golden*'
// and review the diff.
#include "obs/timeline.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "analysis/trace_stats.hpp"
#include "obs/json.hpp"
#include "pp/engine.hpp"
#include "protocols/adversary.hpp"
#include "protocols/optimal_silent.hpp"
#include "timing_minima.hpp"

namespace ssr::obs {
namespace {

TEST(ObsTimeline, ScopesBuildTheSectionTree) {
  timeline_profiler profiler;
  {
    timeline_scope outer(&profiler, "bench");
    for (int trial = 0; trial < 3; ++trial) {
      timeline_scope mid(&profiler, "trial");
      {
        timeline_scope inner(&profiler, "engine.run");
        profiler.add_units(100);
      }
    }
  }
  ASSERT_TRUE(profiler.idle());
  const timeline_profile profile = profiler.profile();
  ASSERT_EQ(profile.sections.size(), 3u);
  EXPECT_EQ(profile.path(0), "bench");
  EXPECT_EQ(profile.path(1), "bench;trial");
  EXPECT_EQ(profile.path(2), "bench;trial;engine.run");
  EXPECT_EQ(profile.sections[0].count, 1u);
  EXPECT_EQ(profile.sections[1].count, 3u);
  EXPECT_EQ(profile.sections[2].count, 3u);
  EXPECT_EQ(profile.sections[2].units, 300u);
  EXPECT_EQ(profile.sections[2].depth, 2u);
  // Inclusive times nest: parent >= sum of children.
  EXPECT_GE(profile.sections[0].wall_ns, profile.sections[1].wall_ns);
  EXPECT_GE(profile.sections[1].wall_ns, profile.sections[2].wall_ns);
  EXPECT_EQ(profile.spans.size(), 7u);
  EXPECT_EQ(profile.spans_dropped, 0u);
}

TEST(ObsTimeline, SameNameUnderDifferentParentsIsDistinct) {
  timeline_profiler profiler;
  {
    timeline_scope a(&profiler, "phase.a");
    timeline_scope s(&profiler, "step");
  }
  {
    timeline_scope b(&profiler, "phase.b");
    timeline_scope s(&profiler, "step");
  }
  const timeline_profile profile = profiler.profile();
  ASSERT_EQ(profile.sections.size(), 4u);
  EXPECT_EQ(profile.path(1), "phase.a;step");
  EXPECT_EQ(profile.path(3), "phase.b;step");
}

TEST(ObsTimeline, DetachedScopeIsANoOp) {
  // The discipline engines rely on: a null profiler makes timeline_scope
  // (and profiler-default dispatch) cost one branch and touch nothing.
  timeline_scope scope(nullptr, "never.recorded");
  set_profiler_default(nullptr);
  EXPECT_EQ(profiler_default(), nullptr);
}

TEST(ObsTimeline, DefaultProfilerRoundTrips) {
  timeline_profiler profiler;
  set_profiler_default(&profiler);
  EXPECT_EQ(profiler_default(), &profiler);
  set_profiler_default(nullptr);
  EXPECT_EQ(profiler_default(), nullptr);
}

TEST(ObsTimeline, SpanCapCountsDrops) {
  timeline_profiler profiler(timeline_options{.max_spans = 4});
  for (int i = 0; i < 10; ++i) timeline_scope scope(&profiler, "s");
  const timeline_profile profile = profiler.profile();
  EXPECT_EQ(profile.spans.size(), 4u);
  EXPECT_EQ(profile.spans_dropped, 6u);
  // Aggregation is unaffected by the span sample cap.
  EXPECT_EQ(profile.sections[0].count, 10u);
}

/// Deterministic three-section profile used by the format goldens and the
/// derived-metrics test: bench(1ms) -> trial(0.6ms) -> engine.run(0.4ms,
/// 5000 units, instructions/cycles/branch_misses available).
timeline_profile fixture_profile() {
  timeline_profile p;
  p.sections.resize(3);
  p.sections[0] = {"bench", timeline_no_parent, 0, 1, 1'000'000, 0, {}};
  p.sections[1] = {"trial", 0, 1, 2, 600'000, 0, {}};
  p.sections[2] = {"engine.run", 1, 2, 2, 400'000, 5000, {}};
  p.sections[2].perf.value = {20'000, 50'000, 500, 0, 0};
  p.sections[2].perf.available = {true, true, true, false, false};
  p.spans = {{2, 1'000, 150'000}, {2, 300'000, 250'000}};
  p.perf_available = {true, true, true, false, false};
  p.perf_status = "partial: some events unsupported or restricted";
  return p;
}

std::string data_path(const std::string& name) {
  return std::string(SSR_TEST_DATA_DIR) + "/" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream is(path);
  EXPECT_TRUE(is) << "cannot open " << path;
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

void check_golden(const std::string& produced, const std::string& file) {
  if (std::getenv("SSR_UPDATE_GOLDEN") != nullptr) {
    std::ofstream os(data_path(file));
    ASSERT_TRUE(os) << data_path(file);
    os << produced;
    GTEST_SKIP() << "golden file " << file << " regenerated";
  }
  EXPECT_EQ(produced, slurp(data_path(file)));
}

TEST(ObsTimeline, SelfTimeSubtractsChildren) {
  const timeline_profile profile = fixture_profile();
  const std::vector<std::uint64_t> self = profile.self_wall_ns();
  ASSERT_EQ(self.size(), 3u);
  EXPECT_EQ(self[0], 400'000u);  // 1ms - 0.6ms of "trial"
  EXPECT_EQ(self[1], 200'000u);  // 0.6ms - 0.4ms of "engine.run"
  EXPECT_EQ(self[2], 400'000u);  // leaf
}

TEST(ObsTimeline, FoldedStackGoldenFile) {
  std::ostringstream os;
  fixture_profile().write_folded(os);
  check_golden(os.str(), "profile_golden.folded");
}

TEST(ObsTimeline, ChromeSpansGoldenFile) {
  const json_value doc = chrome_profile_json(fixture_profile());
  check_golden(doc.dump(2) + "\n", "profile_golden_chrome.json");
}

TEST(ObsTimeline, ProfileJsonCarriesSectionsAndAvailability) {
  const json_value j = fixture_profile().to_json();
  ASSERT_NE(j.find("schema"), nullptr);
  EXPECT_EQ(j.find("schema")->as_string(), "ssr.profile");
  ASSERT_NE(j.find("sections"), nullptr);
  ASSERT_EQ(j.find("sections")->items().size(), 3u);
  const json_value& engine_run = j.find("sections")->items()[2];
  EXPECT_EQ(engine_run.find("path")->as_string(),
            "bench;trial;engine.run");
  EXPECT_EQ(engine_run.find("units")->as_uint64(), 5000u);
  ASSERT_NE(engine_run.find("perf"), nullptr);
  EXPECT_EQ(engine_run.find("perf")->find("instructions")->as_uint64(),
            50'000u);
  ASSERT_NE(j.find("perf"), nullptr);
  EXPECT_FALSE(
      j.find("perf")->find("available")->find("cache_misses")->as_bool());
}

TEST(ObsTimeline, DeriveHardwareMetricsFromUnitSections) {
  const profile_derived d = derive_hardware_metrics(fixture_profile());
  ASSERT_TRUE(d.valid);
  EXPECT_EQ(d.units, 5000u);
  EXPECT_DOUBLE_EQ(d.instructions_per_unit, 10.0);  // 50000 / 5000
  EXPECT_DOUBLE_EQ(d.cycles_per_unit, 4.0);         // 20000 / 5000
  EXPECT_DOUBLE_EQ(d.branch_miss_rate, 0.01);       // 500 / 50000

  // Wall-time-only profile (perf restricted): no derived hardware rows.
  timeline_profile bare = fixture_profile();
  for (auto& section : bare.sections) section.perf = {};
  EXPECT_FALSE(derive_hardware_metrics(bare).valid);
}

// Overhead guard (same methodology and bound as the PR-2 counter guard in
// obs_overhead_test.cpp): with no profiler attached the engine
// instrumentation is one `if (profiler_)` branch per run() call -- not per
// interaction -- so a detached run must stay within the same generous 2x
// envelope of an attached one, and of itself across repetitions.  The
// repetitions interleave (timing_minima.hpp).
double seconds_for_run(timeline_profiler* profiler) {
  const std::uint32_t n = 256;
  optimal_silent_ssr p(n);
  rng_t rng(17);
  auto init = adversarial_configuration(
      p, optimal_silent_scenario::uniform_random, rng);
  direct_engine<optimal_silent_ssr> eng(p, std::move(init), 18);
  eng.attach_profiler(profiler);
  const auto start = std::chrono::steady_clock::now();
  eng.run(400'000, ignore_pair, never_stop);
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

TEST(ObsTimeline, DetachedProfilingStaysCheap) {
  seconds_for_run(nullptr);  // warm-up

  timeline_profiler profiler;
  const auto [detached, attached, detached_again] =
      timing::interleaved_minima(seconds_for_run, &profiler);

  ASSERT_GT(detached, 0.0);
  EXPECT_GT(profiler.profile().sections.at(0).units, 0u);
  EXPECT_LT(detached, attached * 2.0)
      << "detached=" << detached << "s attached=" << attached << "s";
  EXPECT_LT(detached_again, detached * 2.0)
      << "measurement too noisy to interpret";
}

}  // namespace
}  // namespace ssr::obs
