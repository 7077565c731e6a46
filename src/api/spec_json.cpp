#include "api/spec_json.hpp"

#include <limits>
#include <stdexcept>

namespace tcgrid::api {

namespace json = util::json;

namespace {

// ------------------------------------------------------------------- emit ----

json::Value grid_to_json(const ScenarioGrid& g) {
  json::Array ms, ncoms, wmins;
  for (int m : g.ms) ms.emplace_back(m);
  for (int n : g.ncoms) ncoms.emplace_back(n);
  for (long w : g.wmins) wmins.emplace_back(w);
  return json::Object{
      {"ms", std::move(ms)},
      {"ncoms", std::move(ncoms)},
      {"wmins", std::move(wmins)},
      {"scenarios_per_cell", g.scenarios_per_cell},
      {"p", g.p},
      {"iterations", g.iterations},
  };
}

json::Value scenario_to_json(const platform::ScenarioParams& s) {
  return json::Object{
      {"m", s.m},           {"ncom", s.ncom}, {"wmin", s.wmin},
      {"p", s.p},           {"iterations", s.iterations},
      {"seed", s.seed},
  };
}

const char* comm_order_name(sim::CommOrder o) {
  switch (o) {
    case sim::CommOrder::Enrollment: return "enrollment";
    case sim::CommOrder::FewestFirst: return "fewest_first";
    case sim::CommOrder::MostFirst: return "most_first";
  }
  throw std::invalid_argument("spec_to_json: invalid CommOrder value");
}

const char* init_name(platform::InitialStates i) {
  switch (i) {
    case platform::InitialStates::AllUp: return "all_up";
    case platform::InitialStates::Stationary: return "stationary";
  }
  throw std::invalid_argument("spec_to_json: invalid InitialStates value");
}

json::Value options_to_json(const Options& o) {
  return json::Object{
      {"slot_cap", o.slot_cap},
      {"comm_order", comm_order_name(o.comm_order)},
      {"record_trace", o.record_trace},
      {"avail_block", o.avail_block},
      {"fast_forward", o.fast_forward},
      {"realization_budget", static_cast<unsigned long long>(o.realization_budget)},
      {"eps", o.eps},
      {"init", init_name(o.init)},
      {"threads", static_cast<unsigned long long>(o.threads)},
      {"seed", o.seed},
  };
}

// ------------------------------------------------------------------ parse ----

[[noreturn]] void field_fail(const std::string& path, const std::string& what) {
  throw std::invalid_argument(path + ": " + what);
}

/// One object field being read, carrying its dotted path for error messages.
struct Field {
  const json::Value& v;
  std::string path;
};

const json::Object& expect_object(const Field& f) {
  if (!f.v.is_object()) field_fail(f.path, "expected a JSON object");
  return f.v.as_object();
}

/// Visit every member of an object through `handle(key, Field)`; unknown
/// keys (handle returns false) are an error — a typo'd option must not
/// silently fall back to its default.
template <typename Handler>
void for_each_member(const Field& f, Handler&& handle) {
  for (const json::Member& m : expect_object(f)) {
    if (!handle(m.first, Field{m.second, f.path + "." + m.first})) {
      field_fail(f.path + "." + m.first, "unknown field");
    }
  }
}

long long get_int(const Field& f, long long lo, long long hi) {
  if (!f.v.is_integer()) field_fail(f.path, "expected an integer");
  long long v = 0;
  try {
    v = f.v.as_int();
  } catch (const std::invalid_argument&) {
    field_fail(f.path, "integer out of range");
  }
  if (v < lo || v > hi) {
    field_fail(f.path, "value " + std::to_string(v) + " outside [" + std::to_string(lo) +
                           ", " + std::to_string(hi) + "]");
  }
  return v;
}

int get_i32(const Field& f) {
  return static_cast<int>(get_int(f, std::numeric_limits<int>::min(),
                                  std::numeric_limits<int>::max()));
}

long get_long(const Field& f) {
  return static_cast<long>(get_int(f, std::numeric_limits<long>::min(),
                                   std::numeric_limits<long>::max()));
}

unsigned long long get_u64(const Field& f) {
  if (!f.v.is_integer()) field_fail(f.path, "expected an unsigned integer");
  try {
    return f.v.as_uint();
  } catch (const std::invalid_argument&) {
    field_fail(f.path, "expected a non-negative integer");
  }
}

bool get_bool(const Field& f) {
  if (!f.v.is_bool()) field_fail(f.path, "expected a boolean");
  return f.v.as_bool();
}

double get_double(const Field& f) {
  if (!f.v.is_number()) field_fail(f.path, "expected a number");
  return f.v.as_double();
}

std::string get_string(const Field& f) {
  if (!f.v.is_string()) field_fail(f.path, "expected a string");
  return f.v.as_string();
}

const json::Array& get_array(const Field& f) {
  if (!f.v.is_array()) field_fail(f.path, "expected an array");
  return f.v.as_array();
}

template <typename T, typename Get>
std::vector<T> get_vector(const Field& f, Get&& get) {
  std::vector<T> out;
  std::size_t i = 0;
  for (const json::Value& e : get_array(f)) {
    out.push_back(get(Field{e, f.path + "[" + std::to_string(i) + "]"}));
    ++i;
  }
  return out;
}

sim::CommOrder parse_comm_order(const Field& f) {
  const std::string s = get_string(f);
  if (s == "enrollment") return sim::CommOrder::Enrollment;
  if (s == "fewest_first") return sim::CommOrder::FewestFirst;
  if (s == "most_first") return sim::CommOrder::MostFirst;
  field_fail(f.path, "unknown comm order '" + s +
                         "' (expected enrollment | fewest_first | most_first)");
}

platform::InitialStates parse_init(const Field& f) {
  const std::string s = get_string(f);
  if (s == "stationary") return platform::InitialStates::Stationary;
  if (s == "all_up") return platform::InitialStates::AllUp;
  field_fail(f.path, "unknown initial-states mode '" + s +
                         "' (expected stationary | all_up)");
}

ScenarioGrid parse_grid(const Field& f) {
  ScenarioGrid g;
  for_each_member(f, [&](const std::string& key, const Field& m) {
    if (key == "ms") g.ms = get_vector<int>(m, get_i32);
    else if (key == "ncoms") g.ncoms = get_vector<int>(m, get_i32);
    else if (key == "wmins") g.wmins = get_vector<long>(m, get_long);
    else if (key == "scenarios_per_cell") g.scenarios_per_cell = get_i32(m);
    else if (key == "p") g.p = get_i32(m);
    else if (key == "iterations") g.iterations = get_i32(m);
    else return false;
    return true;
  });
  return g;
}

scen::ScenarioSpace parse_space(const Field& f) {
  scen::ScenarioSpace space;
  for_each_member(f, [&](const std::string& key, const Field& m) {
    if (key == "availability") space.availability = get_string(m);
    else if (key == "platform") space.platform = get_string(m);
    else return false;
    return true;
  });
  return space;
}

platform::ScenarioParams parse_scenario(const Field& f) {
  platform::ScenarioParams s;
  for_each_member(f, [&](const std::string& key, const Field& m) {
    if (key == "m") s.m = get_i32(m);
    else if (key == "ncom") s.ncom = get_i32(m);
    else if (key == "wmin") s.wmin = get_long(m);
    else if (key == "p") s.p = get_i32(m);
    else if (key == "iterations") s.iterations = get_i32(m);
    else if (key == "seed") s.seed = get_u64(m);
    else return false;
    return true;
  });
  return s;
}

Options parse_options(const Field& f) {
  Options o;
  for_each_member(f, [&](const std::string& key, const Field& m) {
    if (key == "slot_cap") o.slot_cap = get_long(m);
    else if (key == "comm_order") o.comm_order = parse_comm_order(m);
    else if (key == "record_trace") o.record_trace = get_bool(m);
    else if (key == "avail_block") o.avail_block = get_long(m);
    else if (key == "fast_forward") o.fast_forward = get_bool(m);
    else if (key == "realization_budget")
      o.realization_budget = static_cast<std::size_t>(get_u64(m));
    else if (key == "eps") o.eps = get_double(m);
    else if (key == "init") o.init = parse_init(m);
    else if (key == "threads") o.threads = static_cast<std::size_t>(get_u64(m));
    else if (key == "seed") o.seed = get_u64(m);
    else return false;
    return true;
  });
  return o;
}

}  // namespace

json::Value spec_to_json(const ExperimentSpec& spec) {
  json::Array scenarios;
  for (const auto& s : spec.explicit_scenarios) scenarios.push_back(scenario_to_json(s));
  json::Array heuristics;
  for (const auto& h : spec.heuristics) heuristics.emplace_back(h);
  return json::Object{
      {"grid", grid_to_json(spec.grid)},
      {"scenario_space",
       json::Object{{"availability", spec.scenario_space.availability},
                    {"platform", spec.scenario_space.platform}}},
      {"explicit_scenarios", std::move(scenarios)},
      {"heuristics", std::move(heuristics)},
      {"trials", spec.trials},
      {"options", options_to_json(spec.options)},
  };
}

std::string spec_to_json_string(const ExperimentSpec& spec) {
  return json::dump(spec_to_json(spec));
}

ExperimentSpec spec_from_json(const json::Value& value) {
  ExperimentSpec spec;
  for_each_member(Field{value, "spec"}, [&](const std::string& key, const Field& m) {
    if (key == "grid") spec.grid = parse_grid(m);
    else if (key == "scenario_space") spec.scenario_space = parse_space(m);
    else if (key == "explicit_scenarios")
      spec.explicit_scenarios =
          get_vector<platform::ScenarioParams>(m, parse_scenario);
    else if (key == "heuristics") spec.heuristics = get_vector<std::string>(m, get_string);
    else if (key == "trials") spec.trials = get_i32(m);
    else if (key == "options") spec.options = parse_options(m);
    else return false;
    return true;
  });
  return spec;
}

ExperimentSpec spec_from_json_string(std::string_view text) {
  return spec_from_json(json::parse(text));
}

}  // namespace tcgrid::api
