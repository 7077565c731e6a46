// Tests of the ExperimentSpec JSON round trip (api/spec_json.hpp): identity
// of the canonical form, exactness of full-range uint64 seeds, survival of
// hostile strings, and field-naming errors for every rejection path.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/api.hpp"
#include "api/spec_json.hpp"
#include "util/json.hpp"

namespace api = tcgrid::api;
namespace json = tcgrid::util::json;

namespace {

/// Parse must throw std::invalid_argument whose message contains `needle`
/// (the dotted field path or the diagnostic text).
void expect_field_error(const std::string& text, const std::string& needle) {
  try {
    (void)api::spec_from_json_string(text);
    FAIL() << "expected std::invalid_argument containing '" << needle << "' for "
           << text;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "error was: " << e.what();
  }
}

/// A spec exercising every field with non-default values.
api::ExperimentSpec full_spec() {
  api::ExperimentSpec spec;
  spec.grid.ms = {3, 7};
  spec.grid.ncoms = {4};
  spec.grid.wmins = {2, 9};
  spec.grid.scenarios_per_cell = 3;
  spec.grid.p = 12;
  spec.grid.iterations = 5;
  spec.scenario_space.availability = "markov";
  spec.scenario_space.platform = "paper";
  tcgrid::platform::ScenarioParams s;
  s.m = 4;
  s.ncom = 6;
  s.wmin = 3;
  s.p = 10;
  s.iterations = 7;
  s.seed = 0x9E3779B97F4A7C15ull;  // > 2^63: dies if routed through double
  spec.explicit_scenarios = {s};
  spec.heuristics = {"MCT", "MaxMinStar"};
  spec.trials = 4;
  spec.options.slot_cap = 123456;
  spec.options.comm_order = tcgrid::sim::CommOrder::MostFirst;
  spec.options.record_trace = true;
  spec.options.avail_block = 17;
  spec.options.fast_forward = false;
  spec.options.realization_budget = (1ull << 33) + 5;  // > 32 bits
  spec.options.eps = 1e-4;
  spec.options.init = tcgrid::platform::InitialStates::AllUp;
  spec.options.threads = 3;
  spec.options.seed = std::numeric_limits<std::uint64_t>::max();
  return spec;
}

TEST(SpecJson, CanonicalFormIsAFixedPoint) {
  for (const api::ExperimentSpec& spec :
       {api::ExperimentSpec{}, api::ExperimentSpec::reduced(5, 200'000), full_spec()}) {
    const std::string once = api::spec_to_json_string(spec);
    const std::string twice = api::spec_to_json_string(api::spec_from_json_string(once));
    EXPECT_EQ(once, twice);
  }
}

TEST(SpecJson, EveryFieldSurvivesTheRoundTrip) {
  const api::ExperimentSpec spec = full_spec();
  const api::ExperimentSpec back =
      api::spec_from_json_string(api::spec_to_json_string(spec));

  EXPECT_EQ(back.grid.ms, spec.grid.ms);
  EXPECT_EQ(back.grid.ncoms, spec.grid.ncoms);
  EXPECT_EQ(back.grid.wmins, spec.grid.wmins);
  EXPECT_EQ(back.grid.scenarios_per_cell, spec.grid.scenarios_per_cell);
  EXPECT_EQ(back.grid.p, spec.grid.p);
  EXPECT_EQ(back.grid.iterations, spec.grid.iterations);
  EXPECT_EQ(back.scenario_space.availability, spec.scenario_space.availability);
  EXPECT_EQ(back.scenario_space.platform, spec.scenario_space.platform);
  ASSERT_EQ(back.explicit_scenarios.size(), 1u);
  EXPECT_EQ(back.explicit_scenarios[0].m, 4);
  EXPECT_EQ(back.explicit_scenarios[0].ncom, 6);
  EXPECT_EQ(back.explicit_scenarios[0].wmin, 3);
  EXPECT_EQ(back.explicit_scenarios[0].p, 10);
  EXPECT_EQ(back.explicit_scenarios[0].iterations, 7);
  EXPECT_EQ(back.explicit_scenarios[0].seed, 0x9E3779B97F4A7C15ull);
  EXPECT_EQ(back.heuristics, spec.heuristics);
  EXPECT_EQ(back.trials, spec.trials);
  EXPECT_EQ(back.options.slot_cap, spec.options.slot_cap);
  EXPECT_EQ(back.options.comm_order, spec.options.comm_order);
  EXPECT_EQ(back.options.record_trace, spec.options.record_trace);
  EXPECT_EQ(back.options.avail_block, spec.options.avail_block);
  EXPECT_EQ(back.options.fast_forward, spec.options.fast_forward);
  EXPECT_EQ(back.options.realization_budget, spec.options.realization_budget);
  EXPECT_EQ(back.options.eps, spec.options.eps);
  EXPECT_EQ(back.options.init, spec.options.init);
  EXPECT_EQ(back.options.threads, spec.options.threads);
  EXPECT_EQ(back.options.seed, spec.options.seed);
}

TEST(SpecJson, FullRangeSeedsAreBitExact) {
  // 2^53 is where doubles start dropping integer bits; seeds beyond it must
  // still round-trip exactly, including UINT64_MAX.
  const std::vector<std::uint64_t> seeds = {
      (std::uint64_t{1} << 53) + 1, (std::uint64_t{1} << 63) + 12345,
      std::numeric_limits<std::uint64_t>::max()};
  for (const std::uint64_t seed : seeds) {
    api::ExperimentSpec spec;
    spec.options.seed = seed;
    const api::ExperimentSpec back =
        api::spec_from_json_string(api::spec_to_json_string(spec));
    EXPECT_EQ(back.options.seed, seed);
  }
}

TEST(SpecJson, HostileStringsSurvive) {
  // Names never sanitized away: quotes, backslashes, control characters,
  // multi-byte UTF-8 and a JSON-looking payload.
  const std::vector<std::string> hostile = {
      "quote\"back\\slash",
      "newline\ntab\tbell\x07",
      "\x01\x02\x1f",
      "π≈3, 漢字, emoji \xF0\x9F\x98\x80",
      "{\"op\":\"submit\"}",
  };
  api::ExperimentSpec spec;
  spec.heuristics = hostile;
  spec.scenario_space.availability = hostile[0];
  spec.scenario_space.platform = hostile[3];
  const api::ExperimentSpec back =
      api::spec_from_json_string(api::spec_to_json_string(spec));
  EXPECT_EQ(back.heuristics, hostile);
  EXPECT_EQ(back.scenario_space.availability, hostile[0]);
  EXPECT_EQ(back.scenario_space.platform, hostile[3]);
}

TEST(SpecJson, EmptyObjectIsTheDefaultSpec) {
  const api::ExperimentSpec def;
  EXPECT_EQ(api::spec_to_json_string(api::spec_from_json_string("{}")),
            api::spec_to_json_string(def));
}

TEST(SpecJson, ErrorsNameTheOffendingField) {
  expect_field_error(R"({"bogus": 1})", "spec.bogus");
  expect_field_error(R"({"bogus": 1})", "unknown field");
  expect_field_error(R"({"options": {"slot_capp": 1}})", "spec.options.slot_capp");
  // A removed option is unknown too: it must not silently fall back.
  expect_field_error(R"({"options": {"trial_batch": 1}})",
                     "spec.options.trial_batch: unknown field");
  expect_field_error(R"({"options": {"shared_chain_stats": false}})",
                     "spec.options.shared_chain_stats: unknown field");
  expect_field_error(R"({"trials": "ten"})", "spec.trials");
  expect_field_error(R"({"trials": "ten"})", "expected an integer");
  expect_field_error(R"({"grid": {"ms": [1, "two"]}})", "spec.grid.ms[1]");
  expect_field_error(R"({"explicit_scenarios": [{"m": 1}, {"seed": -4}]})",
                     "spec.explicit_scenarios[1].seed");
  expect_field_error(R"({"options": {"comm_order": "alphabetical"}})",
                     "spec.options.comm_order");
  expect_field_error(R"({"options": {"comm_order": "alphabetical"}})", "fewest_first");
  expect_field_error(R"({"options": {"init": "warm"}})", "stationary | all_up");
  expect_field_error(R"({"options": {"eps": true}})", "expected a number");
  expect_field_error(R"({"options": 3})", "spec.options");
  expect_field_error(R"({"options": 3})", "expected a JSON object");
  expect_field_error(R"({"heuristics": "MCT"})", "expected an array");
  expect_field_error(R"({"trials": 99999999999999999999})", "spec.trials");
}

TEST(SpecJson, IntegerRangeIsEnforced) {
  // An int32 field must reject values that only fit in 64 bits.
  expect_field_error(R"({"trials": 4294967296})", "outside");
  // A seed is unsigned: negatives are rejected, not wrapped.
  expect_field_error(R"({"options": {"seed": -1}})", "spec.options.seed");
}

TEST(SpecJson, SyntaxErrorsCarryTheOffset) {
  try {
    (void)api::spec_from_json_string(R"({"trials": )");
    FAIL() << "expected a parse error";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("offset"), std::string::npos)
        << "error was: " << e.what();
  }
  EXPECT_THROW((void)api::spec_from_json_string(R"({"trials": 1} trailing)"),
               std::invalid_argument);
  EXPECT_THROW((void)api::spec_from_json_string(R"({"trials": 1, "trials": 2})"),
               std::invalid_argument);
}

TEST(SpecJson, ValidateStillAppliesAfterParse) {
  // spec_from_json is structural; semantic checks stay in validate().
  api::ExperimentSpec spec =
      api::spec_from_json_string(R"({"heuristics": ["NoSuchHeuristic"]})");
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

}  // namespace
