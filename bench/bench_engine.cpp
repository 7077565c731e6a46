// Engine benchmarks, in two modes:
//
//  * default: google-benchmark microbenchmarks of end-to-end runs per
//    heuristic class (slots/sec, fast-forward on and off), one incremental
//    configuration build, and raw availability stepping;
//  * --emit_json[=PATH]: the CI perf smoke — run the reduced sweep per
//    heuristic with the event-horizon fast path ON and OFF (same binary,
//    same seeds), verify the outcomes are identical, and write
//    machine-readable slots/sec (best of 3 interleaved passes per arm) +
//    speedups to BENCH_engine.json, with the fast-forward run's scheduler
//    consults and how its configuration builds were answered (previous-build
//    reuse, memo hit, fresh build). This seeds the perf trajectory: each CI
//    run leaves a comparable artifact.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "api/api.hpp"
#include "bench_common.hpp"
#include "obs/obs.hpp"
#include "platform/scenario.hpp"
#include "sched/incremental.hpp"
#include "sched/registry.hpp"
#include "util/cli.hpp"
#include "util/simd.hpp"

namespace {

using namespace tcgrid;

platform::ScenarioParams bench_params(int m, long wmin) {
  platform::ScenarioParams params;
  params.m = m;
  params.ncom = 5;
  params.wmin = wmin;
  params.seed = 11;
  return params;
}

platform::Scenario bench_scenario(int m, long wmin) {
  return platform::make_scenario(bench_params(m, wmin));
}

void run_heuristic_benchmark(benchmark::State& state, const char* name,
                             bool fast_forward) {
  const auto params = bench_params(static_cast<int>(state.range(0)), state.range(1));
  api::Options options;
  options.fast_forward = fast_forward;
  api::Session session(options);
  // Warm the session's scenario+estimator cache outside the timed region so
  // iterations measure the engine, not one-time construction (matching the
  // pre-facade benchmark semantics).
  (void)session.run_trial(params, name, 0);
  long slots = 0;
  for (auto _ : state) {
    const auto r = session.run_trial(params, name, 0);
    slots += r.makespan;
    benchmark::DoNotOptimize(r.makespan);
  }
  state.counters["slots/s"] =
      benchmark::Counter(static_cast<double>(slots), benchmark::Counter::kIsRate);
}

void BM_Run_RANDOM(benchmark::State& state) {
  run_heuristic_benchmark(state, "RANDOM", true);
}
void BM_Run_IE(benchmark::State& state) { run_heuristic_benchmark(state, "IE", true); }
void BM_Run_YIE(benchmark::State& state) { run_heuristic_benchmark(state, "Y-IE", true); }
void BM_Run_EIAY(benchmark::State& state) { run_heuristic_benchmark(state, "E-IAY", true); }
// The per-slot ablation baselines (EngineOptions::fast_forward = false).
void BM_Run_RANDOM_PerSlot(benchmark::State& state) {
  run_heuristic_benchmark(state, "RANDOM", false);
}
void BM_Run_IE_PerSlot(benchmark::State& state) {
  run_heuristic_benchmark(state, "IE", false);
}
void BM_Run_YIE_PerSlot(benchmark::State& state) {
  run_heuristic_benchmark(state, "Y-IE", false);
}
void BM_Run_EIAY_PerSlot(benchmark::State& state) {
  run_heuristic_benchmark(state, "E-IAY", false);
}

BENCHMARK(BM_Run_RANDOM)->Args({5, 2})->Args({10, 2});
BENCHMARK(BM_Run_IE)->Args({5, 2})->Args({10, 2});
BENCHMARK(BM_Run_YIE)->Args({5, 2})->Args({10, 2})->Args({5, 8});
BENCHMARK(BM_Run_EIAY)->Args({5, 2});
BENCHMARK(BM_Run_RANDOM_PerSlot)->Args({5, 2});
BENCHMARK(BM_Run_IE_PerSlot)->Args({5, 2});
BENCHMARK(BM_Run_YIE_PerSlot)->Args({5, 2})->Args({5, 8});
BENCHMARK(BM_Run_EIAY_PerSlot)->Args({5, 2});

void BM_IncrementalBuild(benchmark::State& state) {
  const auto scenario = bench_scenario(static_cast<int>(state.range(0)), 2);
  sched::Estimator est(scenario.platform, scenario.app, 1e-6);
  sched::IncrementalBuilder builder(sched::Rule::IE, est);
  builder.set_memo(false);  // measure the build itself, not the memo hit

  std::vector<markov::State> states(static_cast<std::size_t>(scenario.platform.size()),
                                    markov::State::Up);
  std::vector<model::Holdings> holdings(states.size());
  std::vector<long> comm(states.size(), 0);
  sim::SchedulerView view;
  view.platform = &scenario.platform;
  view.app = &scenario.app;
  view.states = states;
  view.holdings = holdings;
  view.comm_remaining = comm;

  for (auto _ : state) {
    benchmark::DoNotOptimize(builder.build(view));
  }
}
BENCHMARK(BM_IncrementalBuild)->Arg(5)->Arg(10);

void BM_AvailabilityAdvance(benchmark::State& state) {
  const auto scenario = bench_scenario(5, 2);
  platform::MarkovAvailability avail(scenario.platform, 3);
  for (auto _ : state) {
    avail.advance();
    benchmark::DoNotOptimize(avail.state(0));
  }
}
BENCHMARK(BM_AvailabilityAdvance);

// ---------------------------------------------------------------------------
// --emit_json mode: reduced-sweep fast-forward comparison.
// ---------------------------------------------------------------------------

// The thread-count-independent outcome digest lives in bench_common.hpp
// (shared with bench_sweep, whose shared-vs-live gate must cover exactly
// the same counters as this bench's on-vs-off gate).
using bench::DigestSink;

struct SweepTiming {
  double seconds = 0.0;
  long slots = 0;
  std::uint64_t digest = 0;
  // Scraped from the session's obs counters (obs is on for the whole bench).
  std::uint64_t consults = 0;
  std::uint64_t builds_reuse = 0;
  std::uint64_t builds_memo_hit = 0;
  std::uint64_t builds_fresh = 0;
};

std::uint64_t counter_value(const obs::Snapshot& snap, std::string_view name,
                            const obs::Labels& labels = {}) {
  const obs::MetricSnapshot* m = snap.find(name, labels);
  return m == nullptr ? 0 : m->value;
}

SweepTiming time_sweep(const api::ExperimentSpec& base, const std::string& heuristic,
                      bool fast_forward) {
  api::ExperimentSpec spec = base;
  spec.heuristics = {heuristic};
  spec.options.fast_forward = fast_forward;
  api::Session session(spec.options);
  DigestSink digest;
  obs::Registry& reg = obs::Registry::instance();
  reg.reset_values();
  const auto t0 = std::chrono::steady_clock::now();
  session.run(spec, {&digest});
  SweepTiming out;
  out.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  out.slots = digest.slots();
  out.digest = digest.digest();
  const obs::Snapshot snap = reg.snapshot();
  out.consults = counter_value(snap, "tcgrid_engine_consults_total");
  out.builds_reuse = counter_value(snap, "tcgrid_sched_builds_total", {{"path", "reuse"}});
  out.builds_memo_hit =
      counter_value(snap, "tcgrid_sched_builds_total", {{"path", "memo_hit"}});
  out.builds_fresh = counter_value(snap, "tcgrid_sched_builds_total", {{"path", "fresh"}});
  return out;
}

int emit_json(const util::Cli& cli) {
  const std::string path = [&] {
    auto v = cli.value("emit_json");
    return (v && !v->empty()) ? *v : std::string("BENCH_engine.json");
  }();

  api::ExperimentSpec spec =
      api::ExperimentSpec::reduced(static_cast<int>(cli.get_long("m", 5)),
                                   cli.get_long("cap", 200'000));
  spec.grid.scenarios_per_cell =
      static_cast<int>(cli.get_long("scenarios", spec.grid.scenarios_per_cell));
  spec.trials = static_cast<int>(cli.get_long("trials", spec.trials));
  spec.options.threads = 1;  // timings must not depend on core count
  obs::configure({.enabled = true});  // both arms pay the same counter cost

  const std::vector<std::string> heuristics = {
      "IP", "IE", "IAY",              // passive
      "P-IE", "E-IE", "E-IAY", "Y-IE",  // memoized proactive
      "IY", "RANDOM",                 // per-slot by contract (no skipping)
  };

  // Each arm is timed as the best of kPasses interleaved passes: noise on a
  // shared host only ever adds time, so the minimum is the steadiest
  // estimate, and interleaving keeps a slow spell from landing on one arm.
  constexpr int kPasses = 3;
  namespace json = util::json;
  json::Array rows;
  bool all_identical = true;
  for (const std::string& name : heuristics) {
    SweepTiming off;
    SweepTiming on;
    bool identical = true;
    for (int pass = 0; pass < kPasses; ++pass) {
      const SweepTiming pass_off = time_sweep(spec, name, false);
      const SweepTiming pass_on = time_sweep(spec, name, true);
      identical = identical && pass_on.digest == pass_off.digest &&
                  pass_on.slots == pass_off.slots;
      if (pass == 0 || pass_off.seconds < off.seconds) off = pass_off;
      if (pass == 0 || pass_on.seconds < on.seconds) on = pass_on;
    }
    all_identical = all_identical && identical;
    const double on_rate = static_cast<double>(on.slots) / on.seconds;
    const double off_rate = static_cast<double>(off.slots) / off.seconds;
    rows.push_back(json::Object{
        {"name", name},
        {"slots", on.slots},
        {"slots_per_sec_fast_forward", on_rate},
        {"slots_per_sec_per_slot", off_rate},
        {"speedup", on_rate / off_rate},
        {"identical", identical},
        {"consults", static_cast<long>(on.consults)},
        {"consults_per_slot", static_cast<long>(off.consults)},
        {"builds",
         json::Object{{"reuse", static_cast<long>(on.builds_reuse)},
                      {"memo_hit", static_cast<long>(on.builds_memo_hit)},
                      {"fresh", static_cast<long>(on.builds_fresh)}}},
    });
    std::fprintf(stderr,
                 "%-6s %9ld slots  ff %8.0f/s  per-slot %8.0f/s  x%.2f  %s  "
                 "consults %lu (per-slot %lu)  builds reuse %lu memo %lu fresh %lu\n",
                 name.c_str(), on.slots, on_rate, off_rate, on_rate / off_rate,
                 identical ? "identical" : "MISMATCH",
                 static_cast<unsigned long>(on.consults),
                 static_cast<unsigned long>(off.consults),
                 static_cast<unsigned long>(on.builds_reuse),
                 static_cast<unsigned long>(on.builds_memo_hit),
                 static_cast<unsigned long>(on.builds_fresh));
  }
  const json::Value artifact = json::Object{
      {"bench", "engine_fast_forward"},
      {"sweep",
       json::Object{{"m", spec.grid.ms[0]},
                    {"scenarios_per_cell", spec.grid.scenarios_per_cell},
                    {"trials", spec.trials},
                    {"slot_cap", spec.options.slot_cap}}},
      {"passes", kPasses},
      {"heuristics", std::move(rows)},
      {"avail_kernel", std::string(util::to_string(util::simd_kernel()))},
      {"all_identical", all_identical},
  };
  if (const int rc = bench::write_json_artifact("bench_engine", path, artifact); rc != 0) {
    return rc;
  }
  return all_identical ? 0 : 2;  // CI fails on any fast-forward divergence
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  if (cli.has("emit_json")) return emit_json(cli);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
