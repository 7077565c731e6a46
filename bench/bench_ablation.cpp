// Ablations of this implementation's documented design choices (DESIGN.md §2):
//   (a) the master's intra-slot bandwidth service order (unspecified in the
//       paper; we default to enrollment order, matching Figure 1);
//   (b) the estimator's series truncation precision eps;
//   (c) proactive candidate memoization (results must be bit-identical;
//       only the wall time may change).
#include <chrono>
#include <iostream>
#include <vector>

#include "api/api.hpp"
#include "platform/availability.hpp"
#include "platform/scenario.hpp"
#include "sched/heuristics.hpp"
#include "sched/registry.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

using namespace tcgrid;

struct TrialSpec {
  platform::Scenario scenario;
  std::uint64_t avail_seed;
};

std::vector<TrialSpec> make_trials(int scenarios, int trials) {
  std::vector<TrialSpec> specs;
  for (int sc = 0; sc < scenarios; ++sc) {
    platform::ScenarioParams params;
    params.m = 5;
    // ncom = 2 so the bandwidth bound actually binds (with ncom >= the
    // enrolled count the service order would be moot).
    params.ncom = 2;
    params.wmin = 1 + 2 * sc;
    params.seed = 300 + static_cast<std::uint64_t>(sc);
    auto scenario = platform::make_scenario(params);
    for (int t = 0; t < trials; ++t) {
      specs.push_back({scenario, api::trial_seed(params, t)});
    }
  }
  return specs;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const int scenarios = static_cast<int>(cli.get_long("scenarios", 4));
  const int trials = static_cast<int>(cli.get_long("trials", 3));
  const long cap = cli.get_long("cap", 300'000);
  const auto specs = make_trials(scenarios, trials);

  std::cout << "== Ablation bench: implementation design choices ==\n"
            << scenarios << " scenario(s) x " << trials << " trial(s), cap " << cap
            << "\n\n";

  // ---- (a) master bandwidth service order -------------------------------
  {
    util::Table table({"comm order", "mean makespan IE", "mean makespan Y-IE"});
    for (auto [label, order] :
         {std::pair{"enrollment (default)", sim::CommOrder::Enrollment},
          std::pair{"fewest-remaining-first", sim::CommOrder::FewestFirst},
          std::pair{"most-remaining-first", sim::CommOrder::MostFirst}}) {
      double sums[2] = {0.0, 0.0};
      int counts[2] = {0, 0};
      api::Options options;
      options.slot_cap = cap;
      options.comm_order = order;
      for (const auto& spec : specs) {
        sched::Estimator est(spec.scenario.platform, spec.scenario.app, 1e-6);
        const char* names[2] = {"IE", "Y-IE"};
        for (int h = 0; h < 2; ++h) {
          auto sched = sched::make_scheduler(names[h], est);
          platform::MarkovAvailability avail(spec.scenario.platform, spec.avail_seed);
          const auto r = api::Session::run_custom(options, spec.scenario.platform,
                                                  spec.scenario.app, avail, *sched);
          if (r.success) {
            sums[h] += static_cast<double>(r.makespan);
            ++counts[h];
          }
        }
      }
      table.add_row({label,
                     util::Table::num(counts[0] ? sums[0] / counts[0] : 0.0, 1),
                     util::Table::num(counts[1] ? sums[1] / counts[1] : 0.0, 1)});
    }
    std::cout << "(a) bandwidth service order\n" << table.str() << "\n";
  }

  // ---- (b) estimator precision eps --------------------------------------
  {
    util::Table table({"eps", "mean makespan Y-IE", "trials changed vs 1e-9"});
    std::vector<long> reference;
    for (double eps : {1e-9, 1e-6, 1e-4, 1e-2}) {
      double sum = 0.0;
      int count = 0;
      std::vector<long> makespans;
      api::Options options;
      options.slot_cap = cap;
      for (const auto& spec : specs) {
        sched::Estimator est(spec.scenario.platform, spec.scenario.app, eps);
        auto sched = sched::make_scheduler("Y-IE", est);
        platform::MarkovAvailability avail(spec.scenario.platform, spec.avail_seed);
        const auto r = api::Session::run_custom(options, spec.scenario.platform,
                                                spec.scenario.app, avail, *sched);
        makespans.push_back(r.makespan);
        if (r.success) {
          sum += static_cast<double>(r.makespan);
          ++count;
        }
      }
      int changed = 0;
      if (reference.empty()) reference = makespans;
      for (std::size_t i = 0; i < makespans.size(); ++i) {
        if (makespans[i] != reference[i]) ++changed;
      }
      table.add_row({util::Table::num(eps, 9),
                     util::Table::num(count ? sum / count : 0.0, 1),
                     std::to_string(changed)});
    }
    std::cout << "(b) series truncation precision\n" << table.str()
              << "(decisions should be insensitive until eps gets very coarse)\n\n";
  }

  // ---- (c) proactive candidate memoization -------------------------------
  {
    util::Table table({"caching", "wall ms", "mean makespan P-IE"});
    for (bool caching : {true, false}) {
      double sum = 0.0;
      int count = 0;
      const auto t0 = std::chrono::steady_clock::now();
      api::Options options;
      options.slot_cap = cap;
      for (const auto& spec : specs) {
        sched::Estimator est(spec.scenario.platform, spec.scenario.app, 1e-6);
        sched::ProactiveScheduler sched(sched::Criterion::P, sched::Rule::IE, est);
        sched.set_caching(caching);
        platform::MarkovAvailability avail(spec.scenario.platform, spec.avail_seed);
        const auto r = api::Session::run_custom(options, spec.scenario.platform,
                                                spec.scenario.app, avail, sched);
        if (r.success) {
          sum += static_cast<double>(r.makespan);
          ++count;
        }
      }
      const double ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
      table.add_row({caching ? "on (default)" : "off", util::Table::num(ms, 1),
                     util::Table::num(count ? sum / count : 0.0, 1)});
    }
    std::cout << "(c) proactive candidate memoization\n" << table.str()
              << "(makespans must be identical; only the wall time differs)\n\n";
  }

  // ---- (d) crediting banked compute progress in the criterion ------------
  {
    util::Table table({"current-config criterion", "mean makespan Y-IE",
                       "mean makespan E-IE", "reconfigs Y-IE"});
    for (bool credit : {false, true}) {
      double sums[2] = {0.0, 0.0};
      int counts[2] = {0, 0};
      long reconfigs = 0;
      api::Options options;
      options.slot_cap = cap;
      for (const auto& spec : specs) {
        sched::Estimator est(spec.scenario.platform, spec.scenario.app, 1e-6);
        const std::pair<sched::Criterion, sched::Rule> combos[2] = {
            {sched::Criterion::Y, sched::Rule::IE},
            {sched::Criterion::E, sched::Rule::IE}};
        for (int h = 0; h < 2; ++h) {
          sched::ProactiveScheduler sched(combos[h].first, combos[h].second, est);
          sched.set_credit_compute(credit);
          platform::MarkovAvailability avail(spec.scenario.platform, spec.avail_seed);
          const auto r = api::Session::run_custom(options, spec.scenario.platform,
                                                  spec.scenario.app, avail, sched);
          if (r.success) {
            sums[h] += static_cast<double>(r.makespan);
            ++counts[h];
          }
          if (h == 0) reconfigs += r.total_reconfigurations;
        }
      }
      table.add_row({credit ? "remaining W (literal SVI-B)" : "full W (default)",
                     util::Table::num(counts[0] ? sums[0] / counts[0] : 0.0, 1),
                     util::Table::num(counts[1] ? sums[1] / counts[1] : 0.0, 1),
                     std::to_string(reconfigs)});
    }
    std::cout << "(d) crediting banked compute progress when refreshing the\n"
                 "    current configuration's criterion (see DESIGN.md §2.1)\n"
              << table.str();
  }
  return 0;
}
