// The sweep workloads: api::Session::run over the reduced m = 5 grid on one
// thread, as a library user runs it (shipped defaults, no tracing).
//
//   sweep_mixed  9 heuristics replay each realization: scheduler decisions
//                dominate, and generation is shared.
//   sweep_live   IE alone with more scenarios and trials: one consumer per
//                realization keeps generation live and the scheduler passive.
//
// A run sweeps the grid drawn from --seed in whole passes, each in a fresh
// Session, until --seconds have elapsed, and reports the fastest pass. The
// passes do identical work, so the fastest is the one the host disturbed
// least: on a shared host, interference only ever slows a pass down.
#include <algorithm>
#include <cstdio>
#include <string>

#include "bench.hpp"
#include "scen/registry.hpp"
#include "util/rng.hpp"

namespace tcgbench {

namespace {

using namespace tcgrid;

/// Digests recorded at the commit that defined the benchmark, for the
/// default seed (1) and the held-out seed (2). Any other seed is checked by
/// the spot check and by every pass agreeing with the first.
struct Recorded {
  const char* workload;
  std::uint64_t seed;
  std::size_t rows;
  std::uint64_t digest;
};
constexpr Recorded kRecorded[] = {
    {"sweep_mixed", 1, 1080, 0x28b0386686f12255ULL},
    {"sweep_mixed", 2, 1080, 0xfceda2464c844cc3ULL},
    {"sweep_live", 1, 960, 0xa992f6baea218094ULL},
    {"sweep_live", 2, 960, 0xda3ce712295a24d4ULL},
};

api::ExperimentSpec sweep_spec(const std::string& workload, std::uint64_t seed) {
  api::ExperimentSpec spec = api::ExperimentSpec::reduced(5, 50'000);
  spec.options.threads = 1;
  spec.options.seed = seed;
  if (workload == "sweep_mixed") {
    spec.heuristics = {"IP", "IE", "IAY", "P-IE", "E-IE", "E-IAY", "Y-IE", "IY", "RANDOM"};
  } else {
    spec.heuristics = {"IE"};
    spec.grid.scenarios_per_cell = 4;
    spec.trials = 8;
  }
  return spec;
}

/// Timestamps unit boundaries and folds the output digest. With one
/// thread the gap between two unit boundaries is the later unit's run time.
class UnitSink final : public api::ResultSink {
 public:
  void begin(const api::ExperimentSpec& spec,
             const std::vector<platform::ScenarioParams>& scenarios,
             const std::vector<std::string>& heuristics) override {
    heuristics_ = heuristics.size();
    trials_ = spec.trials;
    hashes_.assign(scenarios.size() * static_cast<std::size_t>(trials_) * heuristics_, 0);
    last_ = now_s();
  }

  void consume(const api::ResultRow& row) override {
    const std::uint64_t h = row_hash(row.heuristic, row.scenario, row.trial, *row.result);
    digest_ ^= h;
    ++rows_;
    hashes_[(row.scenario * static_cast<std::size_t>(trials_) +
             static_cast<std::size_t>(row.trial)) *
                heuristics_ +
            row.heuristic] = h;
    if (row.heuristic + 1 != heuristics_) return;
    const double t = now_s();
    unit_s.push_back(t - last_);
    last_ = t;
  }

  [[nodiscard]] std::uint64_t digest() const noexcept { return digest_; }
  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::uint64_t hash(std::size_t unit, std::size_t heuristic) const {
    return hashes_[unit * heuristics_ + heuristic];
  }

  std::vector<double> unit_s;

 private:
  std::size_t heuristics_ = 1;
  int trials_ = 1;
  std::vector<std::uint64_t> hashes_;
  std::uint64_t digest_ = 0;
  std::size_t rows_ = 0;
  double last_ = 0;
};

/// What a user pays before the first unit runs: Session construction and
/// spec resolution (validation, the scenario population, the families).
double timed_setup(const api::ExperimentSpec& spec) {
  const double t0 = now_s();
  const api::Session session(spec.options);
  spec.validate();
  const auto scenarios = spec.scenarios();
  const auto avail = scen::availability_family(spec.scenario_space.availability);
  const auto plat = scen::platform_family(spec.scenario_space.platform);
  return now_s() - t0;
}

/// Re-runs `count` seed-chosen units heuristic by heuristic through
/// Session::run_trial — live generation, no shared realization — and
/// returns how many disagree with the sweep's rows.
std::size_t spot_check(const api::ExperimentSpec& spec, const UnitSink& sink,
                       std::uint64_t seed, std::size_t count) {
  const auto scenarios = spec.scenarios();
  const auto& heuristics = spec.resolved_heuristics();
  const std::size_t units = scenarios.size() * static_cast<std::size_t>(spec.trials);
  util::Rng rng(util::derive_seed(seed, 77));
  api::Session session(spec.options);
  std::size_t bad = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t u = rng.index(units);
    const std::size_t sc = api::unit_scenario(u, static_cast<std::size_t>(spec.trials));
    const int trial = static_cast<int>(api::unit_trial(u, static_cast<std::size_t>(spec.trials)));
    bool ok = true;
    for (std::size_t h = 0; h < heuristics.size(); ++h) {
      const sim::SimulationResult r =
          session.run_trial(spec.scenario_space, scenarios[sc], heuristics[h], trial);
      ok = ok && row_hash(h, sc, trial, r) == sink.hash(u, h);
    }
    if (!ok) ++bad;
  }
  return bad;
}

const Recorded* recorded(const std::string& workload, std::uint64_t seed) {
  for (const Recorded& r : kRecorded) {
    if (workload == r.workload && seed == r.seed) return &r;
  }
  return nullptr;
}

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

int run_sweep(const Args& args) {
  Report report;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  const api::ExperimentSpec spec = sweep_spec(args.workload, args.seed);
  std::uint64_t first_digest = 0;

  // Every pass must reproduce the first, and the first the recorded digest.
  // A mismatch cannot be localized, so it fails every unit of the pass.
  auto check_pass = [&](int pass, const UnitSink& sink, std::size_t units) {
    if (pass == 0) {
      first_digest = sink.digest();
      report.note("digest: rows=" + std::to_string(sink.rows()) + " " + hex(sink.digest()));
      if (const Recorded* r = recorded(args.workload, args.seed);
          r != nullptr && (r->rows != sink.rows() || r->digest != sink.digest())) {
        report.note("the digest differs from the recorded value");
        failed += units;
      }
    } else if (sink.digest() != first_digest) {
      report.note("pass " + std::to_string(pass) + " differs from the first");
      failed += units;
    }
  };

  if (!args.trace) {
    // Set-up takes microseconds: time batches of 20, report the median.
    std::vector<double> setup_s;
    for (int i = 0; i < 15; ++i) {
      double batch = 0;
      for (int j = 0; j < 20; ++j) batch += timed_setup(spec);
      setup_s.push_back(batch / 20);
    }
    std::vector<double> pass_s, pass_rss;
    UnitSink fastest;
    double fastest_s = 0;
    std::size_t rows = 0;
    const double start = now_s();
    for (int pass = 0; pass == 0 || now_s() - start < args.seconds; ++pass) {
      UnitSink sink;
      const bool reset = reset_peak_rss();
      const double t0 = now_s();
      api::Session session(spec.options);
      const api::Session::RunStats stats = session.run(spec, {&sink});
      pass_s.push_back(now_s() - t0);
      if (reset) pass_rss.push_back(peak_rss_mb(0));
      rows = stats.rows;
      attempted += stats.units_total;
      failed += stats.units_total - stats.units_done;
      check_pass(pass, sink, stats.units_total);
      if (pass == 0 || pass_s.back() < fastest_s) {
        fastest_s = pass_s.back();
        fastest = std::move(sink);
      }
    }
    // Each pass starts cold, so its peak is the workload's; the median over
    // passes is steadier than the maximum.
    const double rss = pass_rss.empty() ? peak_rss_mb(0) : median(pass_rss);
    std::string times = "pass seconds:";
    for (const double t : pass_s) {
      times += ' ';
      times += std::to_string(t);
    }
    report.note(times);
    const std::size_t bad = spot_check(spec, fastest, args.seed, 3);
    if (bad > 0) report.note("spot check: " + std::to_string(bad) + " unit(s) differ");
    failed += bad;
    report.add("rows_per_s", static_cast<double>(rows) / fastest_s, "rows/s");
    add_op_latency(report, fastest.unit_s);
    report.add("setup_s", median(setup_s), "s");
    report.add("peak_rss_mb", rss, "MB");
    return report.finish(failed == 0, attempted, failed);
  }

  // Traced run: each pass runs untraced through Session::run and traced
  // through the mirror, alternating which goes first (the second run of a
  // pair finds the heap already grown), until --seconds have elapsed.
  LayerTimes layers;
  double untraced_s = 0;
  markov::ChainStatsStore::Counters store{};
  const double start = now_s();
  for (int pass = 0; pass == 0 || now_s() - start < args.seconds; ++pass) {
    UnitSink sink;
    std::size_t units = 0;
    auto untraced = [&] {
      const double t0 = now_s();
      api::Session session(spec.options);
      units = session.run(spec, {&sink}).units_total;
      store = session.chain_store_counters();
      untraced_s += now_s() - t0;
    };
    std::uint64_t digest = 0;
    auto traced = [&] {
      const double t0 = now_s();
      TracedUnits mirror(spec.options, layers);
      const auto scenarios = spec.scenarios();
      for (std::size_t sc = 0; sc < scenarios.size(); ++sc) {
        for (int trial = 0; trial < spec.trials; ++trial) {
          const auto results = mirror.run_unit(spec, scenarios[sc], trial);
          for (std::size_t h = 0; h < results.size(); ++h) {
            digest ^= row_hash(h, sc, trial, results[h]);
          }
        }
      }
      layers.wall_s += now_s() - t0;
    };
    if (pass % 2 == 0) {
      untraced();
      traced();
    } else {
      traced();
      untraced();
    }
    attempted += units;
    check_pass(pass, sink, units);
    if (digest != sink.digest()) {
      report.note("traced digest " + hex(digest) + " differs from the untraced one");
      failed += units;
    }
  }
  add_layer_metrics(report, layers, untraced_s);
  add_store_metrics(report, store);
  add_serve_metrics(report, ServeLayer{});
  return report.finish(failed == 0, attempted, failed);
}

}  // namespace tcgbench
