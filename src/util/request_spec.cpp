#include "util/request_spec.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <type_traits>

#include "protocols/catalog.hpp"
#include "util/edit_distance.hpp"

namespace ssr::util {
namespace {

constexpr std::string_view k_engines[] = {"direct", "batched", "sharded"};

bool contains(std::span<const std::string_view> names, std::string_view v) {
  return std::find(names.begin(), names.end(), v) != names.end();
}

/// Shortest round-trip double formatting (matches the JSON writer's
/// behavior for integral values: no trailing ".0" noise in fingerprints).
std::string format_double(double v) {
  if (v >= -9.007199254740992e15 && v <= 9.007199254740992e15 &&
      v == static_cast<double>(static_cast<long long>(v))) {
    return std::to_string(static_cast<long long>(v));
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string render_errors(std::span<const spec_error> errors) {
  std::string out;
  for (const spec_error& e : errors) {
    if (!out.empty()) out += "; ";
    out += e.field;
    out += ": ";
    out += e.message;
  }
  return out;
}

std::span<const std::string_view> protocol_names() {
  static const std::vector<std::string_view> names = [] {
    std::vector<std::string_view> out;
    for (const protocol_entry& entry : protocol_catalog())
      out.push_back(entry.name);
    return out;
  }();
  return names;
}

std::span<const std::string_view> scenario_names(std::string_view protocol) {
  const protocol_entry* entry = find_protocol(protocol);
  return entry != nullptr ? entry->scenarios
                          : std::span<const std::string_view>{};
}

std::optional<std::uint64_t> parse_u64(std::string_view text) {
  if (text.empty()) return std::nullopt;
  std::uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return std::nullopt;
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (value > (UINT64_MAX - digit) / 10) return std::nullopt;  // past 2^64
    value = value * 10 + digit;
  }
  return value;
}

std::optional<double> parse_double(std::string_view text) {
  const std::string copy(text);
  char* end = nullptr;
  const double value = std::strtod(copy.c_str(), &end);
  if (copy.empty() || end != copy.c_str() + copy.size()) return std::nullopt;
  return value;
}

std::string unknown_name_message(std::string_view what, std::string_view given,
                                 std::span<const std::string_view> candidates) {
  std::string message = "unknown ";
  message += what;
  message += " '";
  message += given;
  message += "'";
  const std::string_view suggestion = nearest_candidate(given, candidates);
  if (!suggestion.empty()) {
    message += " (did you mean ";
    message += suggestion;
    message += "?)";
  }
  return message;
}

std::vector<spec_field> sim_request_spec::fields() const {
  const protocol_entry* entry = find_protocol(protocol);
  std::vector<spec_field> out = {
      {"protocol", protocol},
      {"scenario", scenario},
      {"n", std::uint64_t{n}},
  };
  if (entry != nullptr && entry->uses_h) out.push_back({"h", std::uint64_t{h}});
  if (entry != nullptr && entry->uses_t_max)
    out.push_back({"t_max", std::uint64_t{t_max}});
  out.push_back({"trials", trials});
  out.push_back({"seed", seed});
  out.push_back({"max_time", max_time});
  out.push_back({"engine", to_string(engine.kind)});
  if (engine.kind == engine_kind::sharded)
    out.push_back({"shards", std::uint64_t{engine.shards}});
  return out;
}

std::string sim_request_spec::canonical() const {
  std::string key;
  for (const spec_field& field : fields()) {
    if (!key.empty()) key += ' ';
    key += field.name;
    key += '=';
    std::visit(
        [&key](const auto& v) {
          using T = std::decay_t<decltype(v)>;
          if constexpr (std::is_same_v<T, std::string_view>) {
            key += v;
          } else if constexpr (std::is_same_v<T, double>) {
            key += format_double(v);
          } else {
            key += std::to_string(v);
          }
        },
        field.value);
  }
  return key;
}

void spec_builder::set_protocol(std::string_view v) {
  spec_.protocol = std::string(v);
}

void spec_builder::set_scenario(std::string_view v) {
  spec_.scenario = std::string(v);
  scenario_given_ = true;
}

void spec_builder::set_engine(std::string_view v) {
  engine_text_ = std::string(v);
  engine_given_ = true;
}

bool spec_builder::set_u32(std::string_view field, std::uint64_t v,
                           std::uint32_t& out) {
  if (v > UINT32_MAX) {
    syntax_errors_.push_back(
        {std::string(field), "must be at most " + std::to_string(UINT32_MAX) +
                                 ", got " + std::to_string(v)});
    return false;
  }
  out = static_cast<std::uint32_t>(v);
  return true;
}

void spec_builder::set_shards(std::uint64_t v) {
  if (set_u32("shards", v, spec_.engine.shards)) shards_given_ = true;
}

void spec_builder::set_n(std::uint64_t v) { set_u32("n", v, spec_.n); }

void spec_builder::set_h(std::uint64_t v) { set_u32("h", v, spec_.h); }

void spec_builder::set_t_max(std::uint64_t v) {
  set_u32("t_max", v, spec_.t_max);
}

void spec_builder::set_trials(std::uint64_t v) { spec_.trials = v; }

void spec_builder::set_seed(std::uint64_t v) { spec_.seed = v; }

void spec_builder::set_max_time(double v) { spec_.max_time = v; }

void spec_builder::set_u64_text(std::string_view field,
                                std::string_view text) {
  const std::optional<std::uint64_t> value = parse_u64(text);
  if (!value) {
    const bool digits = std::all_of(text.begin(), text.end(), [](char c) {
      return c >= '0' && c <= '9';
    });
    std::string message = digits && !text.empty()
                              ? "must be at most " + std::to_string(UINT64_MAX) +
                                    ", got '"
                              : std::string("expected an unsigned integer, got '");
    message += text;
    message += "'";
    syntax_errors_.push_back({std::string(field), std::move(message)});
    return;
  }
  if (field == "n") return set_n(*value);
  if (field == "h") return set_h(*value);
  if (field == "t_max") return set_t_max(*value);
  if (field == "trials") return set_trials(*value);
  if (field == "seed") return set_seed(*value);
  if (field == "shards") return set_shards(*value);
  syntax_errors_.push_back(
      {std::string(field), "not a spec field this builder knows"});
}

void spec_builder::set_max_time_text(std::string_view text) {
  const std::optional<double> value = parse_double(text);
  if (!value) {
    std::string message = "expected a number, got '";
    message += text;
    message += "'";
    syntax_errors_.push_back({"max_time", std::move(message)});
    return;
  }
  set_max_time(*value);
}

namespace {
constexpr std::string_view k_trace_options[] = {"sample_every", "max_events"};
}  // namespace

std::span<const std::string_view> trace_option_names() {
  return k_trace_options;
}

void telemetry_builder::set_trace_enabled(bool v) { spec_.trace = v; }

void telemetry_builder::set_trace_option(std::string_view name,
                                         std::uint64_t value) {
  if (name == "sample_every") {
    spec_.trace_sample_every = value;
    return;
  }
  if (name == "max_events") {
    spec_.trace_max_events = value;
    return;
  }
  std::string field = "trace.";
  field += name;
  errors_.push_back(
      {std::move(field),
       unknown_name_message("trace option", name, k_trace_options)});
}

void telemetry_builder::set_profile(bool v) { spec_.profile = v; }

std::vector<spec_error> telemetry_builder::finalize() {
  std::vector<spec_error> errors = errors_;
  if (spec_.trace_sample_every == 0) {
    errors.push_back({"trace.sample_every",
                      "sampling period must be >= 1 (1 keeps every event)"});
  }
  if (spec_.trace_max_events == 0) {
    errors.push_back(
        {"trace.max_events", "event buffer cap must be >= 1"});
  }
  return errors;
}

std::vector<spec_error> spec_builder::finalize() {
  std::vector<spec_error> errors = syntax_errors_;

  const protocol_entry* entry = find_protocol(spec_.protocol);
  if (entry == nullptr) {
    errors.push_back({"protocol", unknown_name_message("protocol",
                                                       spec_.protocol,
                                                       protocol_names())});
  } else {
    // Protocol-specific scenario default: the entry's first scenario.
    if (!scenario_given_) spec_.scenario = entry->scenarios.front();
    const auto scenarios = entry->scenarios;
    if (!contains(scenarios, spec_.scenario)) {
      std::string what = spec_.protocol;
      what += " scenario";
      errors.push_back(
          {"scenario",
           unknown_name_message(what, spec_.scenario, scenarios)});
    }
  }

  if (engine_given_) {
    const std::optional<engine_kind> kind = parse_engine(engine_text_);
    if (!kind) {
      errors.push_back(
          {"engine", unknown_name_message("engine", engine_text_, k_engines)});
    } else {
      spec_.engine.kind = *kind;
    }
  }
  if (shards_given_) {
    if (spec_.engine.kind != engine_kind::sharded) {
      std::string message = "shards requires engine=sharded (got engine=";
      message += to_string(spec_.engine.kind);
      message += ")";
      errors.push_back({"shards", std::move(message)});
    } else if (spec_.engine.shards == 0) {
      errors.push_back({"shards",
                        "shard count must be >= 1 (omit shards to use "
                        "hardware concurrency)"});
    }
  }

  if (spec_.n < 2)
    errors.push_back({"n", "population size must be at least 2"});
  if (entry != nullptr && spec_.n > entry->max_n) {
    errors.push_back({"n", std::string(entry->name) +
                               " population size must be at most " +
                               std::to_string(entry->max_n) + ", got " +
                               std::to_string(spec_.n)});
  }
  if (spec_.trials == 0) {
    errors.push_back({"trials", "trial count must be positive"});
  } else if (spec_.trials > max_trials) {
    errors.push_back({"trials", "trial count must be at most " +
                                    std::to_string(max_trials) + ", got " +
                                    std::to_string(spec_.trials)});
  }
  // Engines count interactions in 64 bits, and max_time * n of them must
  // be representable (casting a larger double is undefined behaviour).
  if (!(spec_.max_time > 0.0)) {
    errors.push_back({"max_time", "parallel-time budget must be positive"});
  } else if (!(spec_.max_time * static_cast<double>(spec_.n) < 0x1p64)) {
    errors.push_back({"max_time",
                      "parallel-time budget must be finite, with max_time * "
                      "n below 2^64 interactions"});
  }
  if (entry != nullptr && entry->uses_h && spec_.h == 0) {
    errors.push_back(
        {"h", std::string(entry->name) + " history depth must be at least 1"});
  }

  return errors;
}

}  // namespace ssr::util
