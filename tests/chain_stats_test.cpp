// Tests of the canonical chain-statistics store (DESIGN.md §10):
//
//   * interning is by bit content: identical UR sub-matrices share one
//     ChainId, and per-chain quantities are computed once per chain;
//   * shared survival tables are bit-identical to direct UrRow tabulation,
//     resume across callers, and honour the subnormal cut / exact-zero cap;
//   * set-level statistics are keyed by the sorted multiset of chain ids —
//     on a homogeneous platform every k-subset of workers hits ONE store
//     entry per k — and evaluated in content order, so shared and private
//     stores produce bit-identical doubles;
//   * sched::Estimator resolves identically through a shared and a private
//     store (p_no_down, proc/set stats, full evaluate), for the paper's
//     heterogeneous platform and for clustered platforms;
//   * a store's outputs do not depend on its history: a session whose
//     store was first populated by another cell and by this cell under
//     another availability family gives the same rows as a fresh session,
//     for all 25 heuristics across every availability family, and for the
//     heterogeneous "clusters" platform family;
//   * eviction of the estimator's set front cache and build memo is
//     epoch-safe: references held across a cap-triggered eviction keep
//     reading their values (the historical clear()-dangle hazard);
//   * api::Session observability: chain_store_counters() populates during
//     runs and resets with clear_caches().
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/api.hpp"
#include "markov/chain_stats.hpp"
#include "platform/scenario.hpp"
#include "platform/semi_markov.hpp"
#include "scen/scen.hpp"
#include "sched/registry.hpp"

namespace tcgrid {
namespace {

using markov::ChainId;
using markov::ChainStatsStore;

markov::UrMatrix ur_of(double uu, double rr) {
  return markov::ur_submatrix(markov::TransitionMatrix::from_self_loops(uu, rr, 0.9));
}

platform::Platform homogeneous_platform(int p, int ncom = 5, double uu = 0.95) {
  std::vector<platform::Processor> procs;
  for (int q = 0; q < p; ++q) {
    platform::Processor pr;
    pr.speed = 2;
    pr.max_tasks = 8;
    pr.availability = markov::TransitionMatrix::from_self_loops(uu, 0.9, 0.9);
    procs.push_back(pr);
  }
  return platform::Platform(std::move(procs), ncom);
}

model::Application small_app(int m = 4) {
  model::Application app;
  app.num_tasks = m;
  app.t_prog = 10;
  app.t_data = 2;
  return app;
}

// ------------------------------------------------------------------- store ----

TEST(ChainStatsStore, InternsByBitContent) {
  ChainStatsStore store(1e-9);
  const auto a = ur_of(0.95, 0.90);
  const auto b = ur_of(0.95, 0.90);  // same content, separate object
  const auto c = ur_of(0.80, 0.90);
  const ChainId ia = store.intern(a);
  const ChainId ib = store.intern(b);
  const ChainId ic = store.intern(c);
  EXPECT_EQ(ia, ib);
  EXPECT_NE(ia, ic);
  const auto counters = store.counters();
  EXPECT_EQ(counters.chains, 2u);
  EXPECT_EQ(counters.intern_hits, 1u);
  EXPECT_GT(counters.bytes, 0u);
}

TEST(ChainStatsStore, RejectsBadEps) {
  EXPECT_THROW(ChainStatsStore(0.0), std::invalid_argument);
  EXPECT_THROW(ChainStatsStore(-1e-6), std::invalid_argument);
}

TEST(ChainStatsStore, ChainStatsMatchDirectComputation) {
  ChainStatsStore store(1e-10);
  const auto m = ur_of(0.93, 0.88);
  const ChainId id = store.intern(m);
  const markov::UrMatrix procs[] = {m};
  const auto direct = markov::coupled_stats(procs, 1e-10);
  const auto stored = store.chain_stats(id);
  EXPECT_EQ(stored.p_plus, direct.p_plus);  // bit-identical, not just near
  EXPECT_EQ(stored.ec, direct.ec);
  EXPECT_EQ(stored.failure_free, direct.failure_free);
}

TEST(ChainStatsStore, SetStatsEvaluateInContentOrderRegardlessOfIdOrder) {
  // Intern in one order, query in another: the quad must be the one content
  // order produces, independent of intern ids or the caller's spelling.
  const auto a = ur_of(0.97, 0.85);
  const auto b = ur_of(0.91, 0.92);
  const auto c = ur_of(0.84, 0.88);
  ChainStatsStore forward(1e-9);
  const std::vector<ChainId> f = {forward.intern(a), forward.intern(b),
                                  forward.intern(c)};
  ChainStatsStore backward(1e-9);
  const std::vector<ChainId> r = {backward.intern(c), backward.intern(b),
                                  backward.intern(a)};
  std::vector<ChainId> fs = f;
  std::sort(fs.begin(), fs.end());
  std::vector<ChainId> rs = r;
  std::sort(rs.begin(), rs.end());
  const auto sf = forward.set_stats(fs);
  const auto sr = backward.set_stats(rs);
  EXPECT_EQ(sf.p_plus, sr.p_plus);
  EXPECT_EQ(sf.ec, sr.ec);
  // And one store answers a repeat query from the entry (a hit).
  const auto before = forward.counters();
  (void)forward.set_stats(fs);
  const auto after = forward.counters();
  EXPECT_EQ(after.set_entries, before.set_entries);
  EXPECT_EQ(after.set_hits, before.set_hits + 1);
}

TEST(ChainStatsStore, SurvivalMatchesDirectTabulationAndResumes) {
  ChainStatsStore store(1e-9);
  const auto m = ur_of(0.9, 0.9);
  const ChainId id = store.intern(m);
  markov::ChainSurvival& surv = store.survival(id);

  // Direct reference: the exact advance sequence the estimator tables ran.
  markov::UrRow row;
  std::vector<double> ref = {1.0};
  for (int t = 1; t <= 600; ++t) {
    row.advance(m);
    ref.push_back(row.survival());
  }

  // Grow in two stages: the resume must continue the identical sequence.
  EXPECT_EQ(surv.grow_to(100), ref[100]);
  EXPECT_EQ(surv.published(), 101);
  EXPECT_EQ(surv.grow_to(600), ref[600]);
  for (long t : {0L, 1L, 57L, 100L, 101L, 599L}) {
    EXPECT_EQ(surv.at(t), ref[static_cast<std::size_t>(t)]) << "t=" << t;
  }
  const auto counters = store.counters();
  EXPECT_EQ(counters.survival_entries, 601u);
}

TEST(ChainStatsStore, SurvivalTerminalZeroCapsTheTable) {
  ChainStatsStore store(1e-9);
  // A very flaky chain underflows quickly.
  const ChainId id = store.intern(ur_of(0.10, 0.10));
  markov::ChainSurvival& surv = store.survival(id);
  EXPECT_EQ(surv.grow_to(5'000'000), 0.0);
  // The table stopped at its terminal zero instead of materializing 5M
  // entries...
  const long n = surv.published();
  EXPECT_LT(n, 100'000);
  EXPECT_EQ(surv.at(n - 1), 0.0);
  // ...and later, larger queries answer 0.0 without growing it.
  EXPECT_EQ(surv.grow_to(10'000'000), 0.0);
  EXPECT_EQ(surv.published(), n);
}

TEST(ChainStatsStore, ConcurrentInternGrowAndSetStatsMatchSerial) {
  // Four threads share ONE store: they intern overlapping chains in rotated
  // orders and query per-chain and multiset quads. Two of them grow a slowly
  // decaying chain's survival table far past the 4096-entry first array, so
  // grow-copy retires arrays, while the other two poll its published prefix
  // lock-free, taking no lock between reads (under TSan, a missing
  // release/acquire pairing on the table shows up here). Every value must
  // equal a serial reference store's, bit for bit.
  constexpr double kEps = 1e-9;
  constexpr int kThreads = 4;
  constexpr long kDepth = 20'000;  // several grow-copies of the slow table
  const std::vector<markov::UrMatrix> chains = {
      ur_of(0.97, 0.85), ur_of(0.91, 0.92), ur_of(0.84, 0.88),
      ur_of(0.95, 0.90), ur_of(0.99, 0.95), ur_of(0.999, 0.99)};
  const std::size_t slow = chains.size() - 1;
  const std::vector<std::vector<std::size_t>> multisets = {
      {0, 1}, {1, 1, 2}, {0, 2, 3, 4}, {3, 3, 3}, {5, 0}, {4, 5, 5}};
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  const auto sorted_ids = [](const std::vector<ChainId>& ids,
                             const std::vector<std::size_t>& ms) {
    std::vector<ChainId> out;
    for (std::size_t c : ms) out.push_back(ids[c]);
    std::sort(out.begin(), out.end());
    return out;
  };

  // Serial reference.
  ChainStatsStore ref(kEps);
  std::vector<ChainId> ref_ids;
  for (const auto& m : chains) ref_ids.push_back(ref.intern(m));
  std::vector<markov::CoupledStats> ref_chain;
  for (ChainId id : ref_ids) ref_chain.push_back(ref.chain_stats(id));
  std::vector<markov::CoupledStats> ref_set;
  for (const auto& ms : multisets) {
    ref_set.push_back(ref.set_stats(sorted_ids(ref_ids, ms)));
  }
  markov::ChainSurvival& ref_surv = ref.survival(ref_ids[slow]);
  ASSERT_NE(ref_surv.grow_to(kDepth), 0.0) << "slow chain must not underflow";
  const std::vector<double> ref_table(ref_surv.flat(), ref_surv.flat() + kDepth + 1);

  ChainStatsStore shared(kEps);
  std::vector<std::vector<ChainId>> ids(kThreads);
  std::atomic<int> ready{0};
  std::atomic<long> mismatches{0};
  std::atomic<long> prefix_reads{0};
  std::vector<std::thread> threads;
  for (int tid = 0; tid < kThreads; ++tid) {
    threads.emplace_back([&, tid] {
      std::vector<ChainId>& mine = ids[static_cast<std::size_t>(tid)];
      mine.assign(chains.size(), 0);
      for (std::size_t k = 0; k < chains.size(); ++k) {
        const std::size_t c = (k + static_cast<std::size_t>(tid)) % chains.size();
        mine[c] = shared.intern(chains[c]);
      }
      const auto check_quads = [&](std::size_t c, std::size_t s) {
        const auto cs = shared.chain_stats(mine[c]);
        const auto ss = shared.set_stats(sorted_ids(mine, multisets[s]));
        if (bits(cs.p_plus) != bits(ref_chain[c].p_plus) ||
            bits(cs.ec) != bits(ref_chain[c].ec) ||
            bits(ss.p_plus) != bits(ref_set[s].p_plus) ||
            bits(ss.ec) != bits(ref_set[s].ec)) {
          ++mismatches;
        }
      };
      markov::ChainSurvival& surv = shared.survival(mine[slow]);
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      if (tid % 2 == 0) {
        // Growers: staggered targets, so the two race on appends and
        // grow-copies; quad queries in between.
        for (long t = 37 + 53 * tid; t <= kDepth; t += 211) {
          if (bits(surv.grow_to(t)) != bits(ref_table[static_cast<std::size_t>(t)])) {
            ++mismatches;
          }
          check_quads(static_cast<std::size_t>(t) % chains.size(),
                      static_cast<std::size_t>(t) % multisets.size());
        }
        if (bits(surv.grow_to(kDepth)) != bits(ref_table.back())) ++mismatches;
      } else {
        // Readers: whatever prefix is published right now, read through
        // whatever array is current, with no lock in between.
        for (;;) {
          const long n = surv.published();
          const double* flat = surv.flat();
          for (long k = n - 1; k >= 0; k -= 1 + k / 32) {
            if (bits(flat[k]) != bits(ref_table[static_cast<std::size_t>(k)])) {
              ++mismatches;
            }
            prefix_reads.fetch_add(1, std::memory_order_relaxed);
          }
          if (n > kDepth) break;
          std::this_thread::yield();
        }
        for (std::size_t s = 0; s < multisets.size(); ++s) {
          check_quads((s + static_cast<std::size_t>(tid)) % chains.size(), s);
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(prefix_reads.load(), 0);
  for (int tid = 1; tid < kThreads; ++tid) {
    EXPECT_EQ(ids[static_cast<std::size_t>(tid)], ids[0]) << "thread " << tid;
  }
  markov::ChainSurvival& surv = shared.survival(ids[0][slow]);
  ASSERT_EQ(surv.published(), kDepth + 1);
  for (long t = 0; t <= kDepth; ++t) {
    ASSERT_EQ(bits(surv.at(t)), bits(ref_table[static_cast<std::size_t>(t)]))
        << "t=" << t;
  }
  const auto counters = shared.counters();
  EXPECT_EQ(counters.chains, chains.size());
  EXPECT_EQ(counters.set_entries, multisets.size());
  EXPECT_EQ(counters.bytes, shared.bytes());
}

// --------------------------------------------------- estimator as a view ----

TEST(ChainStatsView, HomogeneousKSubsetsHitOneMultisetEntry) {
  const auto plat = homogeneous_platform(8);
  const auto app = small_app();
  auto store = std::make_shared<ChainStatsStore>(1e-9);
  sched::Estimator est(plat, app, 1e-9, store);

  EXPECT_EQ(store->counters().chains, 1u);  // 8 processors, one chain

  // Every k-subset of workers must resolve to the SAME multiset entry: walk
  // several distinct subsets per k and count store entries.
  std::vector<std::vector<int>> subsets = {
      {0},    {3},    {7},            // k = 1
      {0, 1}, {2, 5}, {6, 7}, {1, 4},  // k = 2
      {0, 1, 2}, {3, 5, 7}, {1, 2, 6},  // k = 3
      {0, 2, 4, 6}, {1, 3, 5, 7},       // k = 4
  };
  double per_k[5] = {0, 0, 0, 0, 0};
  for (const auto& s : subsets) {
    const auto& st = est.set_stats(s);
    double& expected = per_k[s.size()];
    if (expected == 0.0) {
      expected = st.p_plus;
    } else {
      EXPECT_EQ(st.p_plus, expected) << "subset size " << s.size();
    }
  }
  // One store entry per distinct k — not one per bitmask.
  EXPECT_EQ(store->counters().set_entries, 4u);
  // The view's front cache still keys by bitmask (one per distinct subset).
  EXPECT_EQ(est.cached_sets(), subsets.size());
}

TEST(ChainStatsView, SharedAndPrivateStoresAreBitIdentical) {
  // Paper platform: every processor a distinct chain. Clusters platform:
  // chains genuinely shared between processors.
  platform::ScenarioParams params;
  params.seed = 21;
  const auto paper = platform::make_scenario(params);
  const auto clusters =
      scen::platform_family("clusters")->make(params);

  for (const platform::Scenario* scenario : {&paper, &clusters}) {
    auto shared_store = std::make_shared<ChainStatsStore>(1e-6);
    sched::Estimator with_store(scenario->platform, scenario->app, 1e-6, shared_store);
    sched::Estimator private_store(scenario->platform, scenario->app, 1e-6);

    for (int q = 0; q < scenario->platform.size(); ++q) {
      EXPECT_EQ(with_store.proc_stats(q).p_plus, private_store.proc_stats(q).p_plus);
      EXPECT_EQ(with_store.proc_stats(q).ec, private_store.proc_stats(q).ec);
      for (long t : {1L, 9L, 64L, 511L}) {
        EXPECT_EQ(with_store.p_no_down(q, t), private_store.p_no_down(q, t))
            << "q=" << q << " t=" << t;
      }
    }
    // Worker sets in deliberately non-canonical orders.
    const std::vector<std::vector<int>> sets = {
        {0, 1}, {5, 2}, {7, 3, 1}, {9, 0, 4, 2}, {19, 11, 6}, {2, 12}};
    std::vector<sched::Estimator::CommNeed> needs;
    for (const auto& s : sets) {
      needs.clear();
      for (int q : s) needs.push_back({q, 12});
      const auto a = with_store.evaluate(needs, s, 20);
      const auto b = private_store.evaluate(needs, s, 20);
      EXPECT_EQ(a.p_success, b.p_success);
      EXPECT_EQ(a.e_time, b.e_time);
    }
  }
}

TEST(ChainStatsView, ClustersPlatformDedupsChains) {
  platform::ScenarioParams params;
  params.seed = 7;
  const auto scenario = scen::platform_family("clusters")->make(params);
  auto store = std::make_shared<ChainStatsStore>(1e-6);
  sched::Estimator est(scenario.platform, scenario.app, 1e-6, store);
  // The default clusters family draws far fewer chains than processors; the
  // store saw each once.
  const auto counters = store->counters();
  EXPECT_LT(counters.chains, static_cast<std::size_t>(scenario.platform.size()));
  EXPECT_EQ(counters.chains + counters.intern_hits,
            static_cast<std::size_t>(scenario.platform.size()));
  // Processors of one cluster share a survival table: growing through one
  // is visible through the other.
  int a = -1, b = -1;
  for (int q = 1; q < scenario.platform.size() && a < 0; ++q) {
    if (est.chain_id(q) == est.chain_id(0)) {
      a = 0;
      b = q;
    }
  }
  ASSERT_GE(a, 0) << "clusters scenario with no shared chain?";
  const double via_a = est.p_no_down(a, 333);
  EXPECT_EQ(est.p_no_down(b, 333), via_a);
}

TEST(ChainStatsView, SharedStoreEpsMismatchThrows) {
  const auto plat = homogeneous_platform(2);
  const auto app = small_app();
  auto store = std::make_shared<ChainStatsStore>(1e-6);
  EXPECT_THROW(sched::Estimator(plat, app, 1e-9, store), std::invalid_argument);
  EXPECT_NO_THROW(sched::Estimator(plat, app, 1e-6, store));
}

// -------------------------------------------------- epoch-safe eviction ----

TEST(Eviction, SetStatsReferenceSurvivesCapEviction) {
  platform::ScenarioParams params;
  params.seed = 5;
  const auto scenario = platform::make_scenario(params);
  sched::Estimator est(scenario.platform, scenario.app, 1e-6);
  est.set_eviction_caps_for_test(/*sets=*/4, /*builds=*/4);

  const std::vector<int> held_set = {0, 1, 2};
  const markov::CoupledStats& held = est.set_stats(held_set);
  const double p_plus = held.p_plus;
  const double ec = held.ec;

  // Push well past the cap: several evictions would fire under an eager
  // clear(); with epoch retirement the reference must keep reading its
  // (unchanged) values through the FIRST eviction after it was returned.
  std::size_t evictions = 0;
  std::size_t last_size = est.cached_sets();
  for (int q = 3; q < 9 && evictions == 0; ++q) {
    for (int r = q + 1; r < 12; ++r) {
      const std::vector<int> s = {q, r};
      (void)est.set_stats(s);
      if (est.cached_sets() < last_size) ++evictions;
      last_size = est.cached_sets();
      if (evictions > 0) break;
    }
  }
  ASSERT_GT(evictions, 0u) << "test cap never triggered an eviction";
  EXPECT_EQ(held.p_plus, p_plus);  // still alive, still the same doubles
  EXPECT_EQ(held.ec, ec);

  // A re-query after eviction recomputes the identical statistics.
  const markov::CoupledStats& again = est.set_stats(held_set);
  EXPECT_EQ(again.p_plus, p_plus);
  EXPECT_EQ(again.ec, ec);
}

TEST(Eviction, BuildMemoReferenceSurvivesCapEviction) {
  platform::ScenarioParams params;
  params.seed = 5;
  const auto scenario = platform::make_scenario(params);
  sched::Estimator est(scenario.platform, scenario.app, 1e-6);
  est.set_eviction_caps_for_test(/*sets=*/std::size_t{1} << 22, /*builds=*/3);

  auto& memo = est.build_memo();
  sched::MemoizedBuild& held = memo.insert(101);
  held.estimate = {0.25, 42.0};
  // Each build_memo() access past the cap evicts; insert through it the way
  // IncrementalBuilder does.
  for (std::uint64_t key = 200; key < 204; ++key) {
    est.build_memo().insert(key).estimate = {0.5, 1.0};
  }
  // `held` survived at least one eviction epoch.
  EXPECT_EQ(held.estimate.p_success, 0.25);
  EXPECT_EQ(held.estimate.e_time, 42.0);
  // The evicted key is gone from the index (a re-find misses).
  EXPECT_EQ(est.build_memo().find(101), nullptr);
}

// ------------------------------------------------- sweep bit-identity ----

/// Index-addressed collector of FULL simulation results (sweep bit-identity
/// must compare every counter).
class CollectSink final : public api::ResultSink {
 public:
  void begin(const api::ExperimentSpec& spec,
             const std::vector<platform::ScenarioParams>& scenarios,
             const std::vector<std::string>& heuristics) override {
    (void)spec;
    results_.assign(heuristics.size(),
                    std::vector<std::vector<sim::SimulationResult>>(scenarios.size()));
  }
  void consume(const api::ResultRow& row) override {
    auto& per_scenario = results_[row.heuristic][row.scenario];
    if (per_scenario.size() <= static_cast<std::size_t>(row.trial)) {
      per_scenario.resize(static_cast<std::size_t>(row.trial) + 1);
    }
    per_scenario[static_cast<std::size_t>(row.trial)] = *row.result;
  }
  [[nodiscard]] const std::vector<std::vector<std::vector<sim::SimulationResult>>>&
  results() const {
    return results_;
  }

 private:
  std::vector<std::vector<std::vector<sim::SimulationResult>>> results_;
};

void expect_identical_results(const sim::SimulationResult& a,
                              const sim::SimulationResult& b) {
  EXPECT_EQ(a.success, b.success);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.iterations_completed, b.iterations_completed);
  EXPECT_EQ(a.total_restarts, b.total_restarts);
  EXPECT_EQ(a.total_reconfigurations, b.total_reconfigurations);
  EXPECT_EQ(a.idle_slots, b.idle_slots);
  ASSERT_EQ(a.iterations.size(), b.iterations.size());
  for (std::size_t i = 0; i < a.iterations.size(); ++i) {
    EXPECT_EQ(a.iterations[i].start_slot, b.iterations[i].start_slot);
    EXPECT_EQ(a.iterations[i].end_slot, b.iterations[i].end_slot);
    EXPECT_EQ(a.iterations[i].comm_slots, b.iterations[i].comm_slots);
    EXPECT_EQ(a.iterations[i].compute_slots, b.iterations[i].compute_slots);
    EXPECT_EQ(a.iterations[i].stalled_slots, b.iterations[i].stalled_slots);
    EXPECT_EQ(a.iterations[i].suspended_slots, b.iterations[i].suspended_slots);
    EXPECT_EQ(a.iterations[i].restarts, b.iterations[i].restarts);
  }
}

/// The registered availability families plus a trace family (registered on
/// first use — trace families need a concrete timeline).
const std::vector<std::string>& sweep_families() {
  static const std::vector<std::string> names = [] {
    platform::ScenarioParams params;
    params.seed = 61;
    const auto scenario = platform::make_scenario(params);
    auto src = scen::availability_family("markov")->make_source(
        scenario.platform, 777, platform::InitialStates::Stationary);
    auto timeline =
        std::make_shared<platform::StateTimeline>(platform::record(*src, 400));
    scen::register_availability_family(scen::make_trace_family(
        "cs-trace", scen::TraceFamilyParams{.timeline = std::move(timeline)}));
    return std::vector<std::string>{"markov", "weibull", "daynight", "cs-trace"};
  }();
  return names;
}

/// All 25 registered heuristics (the paper's 17 plus the extensions).
std::vector<std::string> all_heuristics() {
  std::vector<std::string> names = sched::all_heuristic_names();
  for (const auto& n : sched::extension_heuristic_names()) names.push_back(n);
  return names;
}

TEST(SweepBitIdentity, WarmVsFreshStoreAllHeuristicsAllFamilies) {
  // Every heuristic x availability family, one paired trial each: a session
  // whose store already holds another cell's entries and this cell's under
  // another family must produce the identical simulation to a fresh session.
  platform::ScenarioParams params;
  params.seed = 33;
  params.wmin = 2;
  params.iterations = 3;
  platform::ScenarioParams other = params;  // a different cell: other chains
  other.seed = 34;
  other.wmin = 3;

  api::Options options;
  options.slot_cap = 100'000;
  const auto heuristics = all_heuristics();
  const auto& families = sweep_families();
  api::Session warm(options);
  for (const auto& heuristic : heuristics) {
    (void)warm.run_trial(other, heuristic, 0);
    (void)warm.run_trial(scen::ScenarioSpace{.availability = families.back()}, params,
                         heuristic, 0);
  }
  const auto populated = warm.chain_store_counters();

  for (const auto& family : families) {
    scen::ScenarioSpace space;
    space.availability = family;
    // Rebuilt estimators resolve every chain and set through the warm store.
    warm.drop_estimator_caches();
    for (const auto& heuristic : heuristics) {
      SCOPED_TRACE(family + " / " + heuristic);
      api::Session fresh(options);
      const auto a = warm.run_trial(space, params, heuristic, 0);
      const auto b = fresh.run_trial(space, params, heuristic, 0);
      expect_identical_results(a, b);
    }
  }
  // The history was real: the store held both cells' chains before the
  // loop, and the rebuilt estimators reused set entries from it.
  const auto after = warm.chain_store_counters();
  EXPECT_EQ(after.chains, populated.chains);
  EXPECT_GT(after.chains, 20u);  // more than this cell's 20 chains
  EXPECT_GT(after.set_hits, populated.set_hits);
}

TEST(SweepBitIdentity, ClustersPlatformSweepWarmVsFreshStore) {
  // Heterogeneous platform family where chains genuinely repeat across
  // processors: a full (grid) sweep on a session whose store was first
  // populated by a different cell and by this cell under another
  // availability family, against a fresh session. Equal rows.
  api::ExperimentSpec spec;
  spec.grid.ms = {5};
  spec.grid.ncoms = {5};
  spec.grid.wmins = {1, 2};
  spec.grid.scenarios_per_cell = 2;
  spec.grid.iterations = 3;
  spec.trials = 2;
  spec.heuristics = {"RANDOM", "IE", "Y-IE", "E-IAY", "IY"};
  spec.options.slot_cap = 100'000;
  spec.options.threads = 2;
  spec.scenario_space.platform = "clusters";
  api::ExperimentSpec other_cell = spec;
  other_cell.grid.wmins = {3};
  other_cell.options.seed = 43;
  api::ExperimentSpec other_family = spec;
  other_family.scenario_space.availability = "weibull";

  CollectSink fresh_sink;
  {
    api::Session session(spec.options);
    session.run(spec, {&fresh_sink});
    const auto counters = session.chain_store_counters();
    EXPECT_GT(counters.chains, 0u);
    EXPECT_GT(counters.intern_hits, counters.chains);  // clusters: chains repeat
    EXPECT_GT(counters.set_hits, 0u);
  }
  CollectSink warm_sink;
  {
    api::Session session(spec.options);
    CollectSink discard;
    session.run(other_cell, {&discard});
    session.run(other_family, {&discard});
    session.drop_estimator_caches();
    const auto populated = session.chain_store_counters();
    session.run(spec, {&warm_sink});
    const auto after = session.chain_store_counters();
    EXPECT_EQ(after.chains, populated.chains);  // every chain seen before
    EXPECT_GT(after.set_hits, populated.set_hits);
  }

  ASSERT_EQ(fresh_sink.results().size(), warm_sink.results().size());
  for (std::size_t h = 0; h < fresh_sink.results().size(); ++h) {
    ASSERT_EQ(fresh_sink.results()[h].size(), warm_sink.results()[h].size());
    for (std::size_t sc = 0; sc < fresh_sink.results()[h].size(); ++sc) {
      ASSERT_EQ(fresh_sink.results()[h][sc].size(), 2u);
      for (std::size_t t = 0; t < 2; ++t) {
        SCOPED_TRACE("h" + std::to_string(h) + " sc" + std::to_string(sc) + " t" +
                     std::to_string(t));
        expect_identical_results(fresh_sink.results()[h][sc][t],
                                 warm_sink.results()[h][sc][t]);
      }
    }
  }
}

// ------------------------------------------------------- observability ----

TEST(Observability, SessionCountersPopulateAndClearCachesResets) {
  api::ExperimentSpec spec;
  spec.grid.ms = {5};
  spec.grid.ncoms = {5};
  spec.grid.wmins = {1};
  spec.grid.scenarios_per_cell = 2;
  spec.grid.iterations = 3;
  spec.trials = 1;
  spec.heuristics = {"IE", "Y-IE"};
  spec.options.slot_cap = 50'000;
  spec.options.threads = 1;

  api::Session session(spec.options);
  EXPECT_EQ(session.chain_store_counters().chains, 0u);
  CollectSink sink;
  session.run(spec, {&sink});

  const auto counters = session.chain_store_counters();
  // Two paper scenarios x 20 distinct chains each.
  EXPECT_EQ(counters.chains, 40u);
  EXPECT_GT(counters.set_entries, 0u);
  EXPECT_GT(counters.set_misses, 0u);
  EXPECT_GT(counters.survival_entries, 0u);
  EXPECT_GT(counters.bytes, 0u);
  EXPECT_EQ(session.chain_store_bytes(), counters.bytes);
  EXPECT_GT(session.cached_entries(), 0u);

  session.clear_caches();
  EXPECT_EQ(session.cached_entries(), 0u);
  const auto reset = session.chain_store_counters();
  EXPECT_EQ(reset.chains, 0u);
  EXPECT_EQ(reset.bytes, 0u);
  EXPECT_EQ(session.chain_store_bytes(), reset.bytes);
}

}  // namespace
}  // namespace tcgrid
