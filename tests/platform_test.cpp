// Unit tests for src/platform: platform construction, the paper's scenario
// generator, availability sources, trace I/O, and the semi-Markov extension.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "platform/availability.hpp"
#include "platform/platform.hpp"
#include "platform/scenario.hpp"
#include "platform/semi_markov.hpp"
#include "platform/trace_io.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace tcgrid::platform {
namespace {

Platform tiny_platform(int p = 3, int ncom = 2) {
  std::vector<Processor> procs;
  for (int q = 0; q < p; ++q) {
    Processor pr;
    pr.speed = q + 1;
    pr.max_tasks = 4;
    pr.availability = markov::TransitionMatrix::from_self_loops(0.95, 0.9, 0.9);
    procs.push_back(pr);
  }
  return Platform(std::move(procs), ncom);
}

// ----------------------------------------------------------- platform ----

TEST(Platform, AssignsIdsAndExposesSpeeds) {
  auto plat = tiny_platform(4);
  EXPECT_EQ(plat.size(), 4);
  for (int q = 0; q < 4; ++q) {
    EXPECT_EQ(plat.proc(q).id, q);
    EXPECT_EQ(plat.speeds()[static_cast<std::size_t>(q)], q + 1);
  }
}

TEST(Platform, RejectsBadNcomAndProcessors) {
  std::vector<Processor> procs(1);
  procs[0].speed = 1;
  procs[0].max_tasks = 1;
  EXPECT_THROW(Platform(std::vector<Processor>(procs), 0), std::invalid_argument);
  procs[0].speed = 0;
  EXPECT_THROW(Platform(std::move(procs), 1), std::invalid_argument);
}

TEST(Platform, CapacitySums) {
  auto plat = tiny_platform(3);
  const int ids[] = {0, 2};
  EXPECT_EQ(plat.capacity(ids), 8);
}

// ----------------------------------------------------------- scenario ----

TEST(Scenario, PaperParameterization) {
  ScenarioParams params;
  params.m = 10;
  params.ncom = 10;
  params.wmin = 4;
  params.seed = 5;
  auto s = make_scenario(params);
  EXPECT_EQ(s.platform.size(), 20);
  EXPECT_EQ(s.platform.ncom(), 10);
  EXPECT_EQ(s.app.num_tasks, 10);
  EXPECT_EQ(s.app.t_data, 4);
  EXPECT_EQ(s.app.t_prog, 20);
  EXPECT_EQ(s.app.iterations, 10);
  for (const auto& pr : s.platform.procs()) {
    EXPECT_GE(pr.speed, 4);
    EXPECT_LE(pr.speed, 40);
    EXPECT_EQ(pr.max_tasks, 10);
    for (auto st : markov::kAllStates) {
      EXPECT_GE(pr.availability.prob(st, st), 0.90);
      EXPECT_LT(pr.availability.prob(st, st), 0.99);
    }
  }
}

TEST(Scenario, DeterministicInSeed) {
  ScenarioParams params;
  params.seed = 77;
  auto a = make_scenario(params);
  auto b = make_scenario(params);
  for (int q = 0; q < a.platform.size(); ++q) {
    EXPECT_EQ(a.platform.proc(q).speed, b.platform.proc(q).speed);
  }
  params.seed = 78;
  auto c = make_scenario(params);
  bool any_diff = false;
  for (int q = 0; q < a.platform.size(); ++q) {
    if (a.platform.proc(q).speed != c.platform.proc(q).speed) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Scenario, RejectsInvalidParams) {
  ScenarioParams params;
  params.m = 0;
  EXPECT_THROW(make_scenario(params), std::invalid_argument);
}

// ------------------------------------------------------- availability ----

TEST(MarkovAvailability, DeterministicPerSeed) {
  auto plat = tiny_platform();
  MarkovAvailability a(plat, 9), b(plat, 9);
  for (int t = 0; t < 200; ++t) {
    for (int q = 0; q < plat.size(); ++q) EXPECT_EQ(a.state(q), b.state(q));
    a.advance();
    b.advance();
  }
}

TEST(MarkovAvailability, DifferentSeedsDiverge) {
  auto plat = tiny_platform();
  MarkovAvailability a(plat, 1), b(plat, 2);
  int diffs = 0;
  for (int t = 0; t < 200; ++t) {
    for (int q = 0; q < plat.size(); ++q) {
      if (a.state(q) != b.state(q)) ++diffs;
    }
    a.advance();
    b.advance();
  }
  EXPECT_GT(diffs, 0);
}

TEST(MarkovAvailability, AllUpModeStartsUp) {
  auto plat = tiny_platform();
  MarkovAvailability a(plat, 3, InitialStates::AllUp);
  for (int q = 0; q < plat.size(); ++q) EXPECT_EQ(a.state(q), markov::State::Up);
}

TEST(MarkovAvailability, StationaryInitIsDeterministic) {
  auto plat = tiny_platform();
  MarkovAvailability a(plat, 3), b(plat, 3);
  for (int q = 0; q < plat.size(); ++q) EXPECT_EQ(a.state(q), b.state(q));
}

// ------------------------------------------------------- step kernels ----

// Every step kernel the binary carries, each its own test instance; one the
// host CPU cannot run is skipped.
class StepKernel : public ::testing::TestWithParam<util::SimdKernel> {
 protected:
  void SetUp() override {
    if (!util::simd_kernel_supported(GetParam())) {
      GTEST_SKIP() << util::to_string(GetParam()) << " not supported on this CPU";
    }
  }
};

// p processors with assorted chains, degenerate ones included: an identity
// chain (UP forever: cuts ~0) and a row that never returns to UP (cut 0).
// Those have no unique stationary law, so sources built on it start AllUp.
Platform mixed_platform(int p) {
  util::Rng rng(static_cast<std::uint64_t>(p) * 31 + 7);
  std::vector<Processor> procs(static_cast<std::size_t>(p));
  for (int q = 0; q < p; ++q) {
    auto& pr = procs[static_cast<std::size_t>(q)];
    pr.speed = 1;
    pr.max_tasks = 2;
    if (q % 5 == 3) {
      pr.availability = markov::TransitionMatrix();
    } else if (q % 7 == 5) {
      pr.availability = markov::TransitionMatrix(
          {{{0.0, 0.5, 0.5}, {0.0, 0.9, 0.1}, {0.0, 0.1, 0.9}}});
    } else {
      pr.availability = markov::TransitionMatrix::from_self_loops(
          rng.uniform(0.3, 0.99), rng.uniform(0.3, 0.99), rng.uniform(0.3, 0.99));
    }
  }
  return Platform(std::move(procs), 1);
}

// With the kernel pinned, blocks of every size alternating with single
// advance() steps reproduce the per-slot markov::step reference for p below,
// at, and above the vector widths (so both the full chunks and the
// masked/scalar tails are exercised).
TEST_P(StepKernel, MatchesPerSlotAdvanceForEveryWidthAndBlock) {
  for (const int p : {1, 7, 8, 9, 20, 64}) {
    const Platform plat = mixed_platform(p);
    for (const long block : {1L, 7L, 64L, 313L, 1000L}) {
      const long total = std::max(2 * (block + 1), 1200L);
      MarkovAvailability ref(plat, 4242, InitialStates::AllUp);
      MarkovAvailability fast(plat, 4242, InitialStates::AllUp, GetParam());
      std::vector<markov::State> buf(static_cast<std::size_t>(block * p));
      long t = 0;
      while (t < total) {
        fast.fill_block(buf.data(), block);
        for (long i = 0; i < block; ++i, ++t) {
          for (int q = 0; q < p; ++q) {
            ASSERT_EQ(buf[static_cast<std::size_t>(i * p + q)], ref.state(q))
                << "p=" << p << " block=" << block << " slot=" << t << " q=" << q;
          }
          ref.advance();
        }
        for (int q = 0; q < p; ++q) {
          ASSERT_EQ(fast.state(q), ref.state(q))
              << "p=" << p << " block=" << block << " slot=" << t << " q=" << q;
        }
        fast.advance();
        ref.advance();
        ++t;
      }
    }
  }
}

// Cut rows and draws at the edges of the integer mapping, fed straight to
// the kernel. Each lane's outcome is spelled out from the cut-point contract
// (x = min(draw, 2^64-2); UP if x < cut0, RECLAIMED if x < cut1, else DOWN),
// and the pinned lanes make the failure modes explicit:
//   * dropping the min(x, kU01Top) clamp turns lane 1's draw 2^64-1 from UP
//     into DOWN and lane 2's from RECLAIMED into DOWN;
//   * signed compares (or AVX2 without the 2^63 flip) misorder every draw
//     or cut at or above 2^63 against one below it (lanes 3 and 4).
TEST_P(StepKernel, EdgeDrawsAndDegenerateRowsFollowTheCutContract) {
  constexpr std::uint64_t kAll = ~0ULL;
  constexpr std::uint64_t kHalf = 1ULL << 63;
  auto uniform_rows = [](std::uint64_t c0, std::uint64_t c1) {
    StepCuts cuts{};
    for (auto& row : cuts) row = {c0, c1};
    return cuts;
  };
  std::vector<StepCuts> per_proc = {
      uniform_rows(0, 0),                  // 0: never below a cut -> DOWN
      uniform_rows(kAll, kAll),            // 1: every draw fires -> UP
      uniform_rows(0, kAll),               // 2: -> RECLAIMED
      uniform_rows(1ULL << 62, kHalf + 5),  // 3: straddles 2^63
      uniform_rows(kHalf - 1, kHalf),      // 4: both cuts at the sign boundary
  };
  util::Rng rng(5);
  while (per_proc.size() < 11) {  // 11 lanes: full chunks plus tails
    StepCuts cuts{};
    for (auto& row : cuts) {
      std::uint64_t a = rng.engine()(), b = rng.engine()();
      if (a > b) std::swap(a, b);
      row = {a, b};
    }
    per_proc.push_back(cuts);
  }
  const ChainCuts cuts(per_proc);
  const std::size_t p = per_proc.size();
  const std::vector<std::uint64_t> edges = {
      0,     1,         1ULL << 62,     kHalf - 1, kHalf, kHalf + 1,
      kHalf + 5, kAll - 2, kAll - 1, kAll};
  const long slots = 40;
  std::vector<std::uint64_t> draws(static_cast<std::size_t>(slots) * p);
  for (std::size_t i = 0; i < draws.size(); ++i) {
    draws[i] = i % 3 == 2 ? rng.engine()() : edges[(i * 7 + i / p) % edges.size()];
  }
  std::vector<markov::State> init(p);
  for (std::size_t q = 0; q < p; ++q) init[q] = static_cast<markov::State>(q % 3);

  // Expected rows, lane by lane from the contract.
  std::vector<markov::State> expected(static_cast<std::size_t>(slots) * p);
  std::vector<markov::State> cur = init;
  for (long t = 0; t < slots; ++t) {
    for (std::size_t q = 0; q < p; ++q) {
      expected[static_cast<std::size_t>(t) * p + q] = cur[q];
      const auto& row = per_proc[q][static_cast<std::size_t>(cur[q])];
      const std::uint64_t draw = draws[static_cast<std::size_t>(t) * p + q];
      const std::uint64_t x = draw == kAll ? kAll - 1 : draw;
      cur[q] = x < row[0] ? markov::State::Up
               : x < row[1] ? markov::State::Reclaimed
                            : markov::State::Down;
    }
  }

  std::vector<markov::State> state = init;
  std::vector<markov::State> buf(expected.size());
  step_chains(GetParam(), cuts, draws.data(), state.data(), buf.data(), slots);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    ASSERT_EQ(buf[i], expected[i]) << "slot " << i / p << " lane " << i % p;
  }
  EXPECT_EQ(state, cur);
  for (long t = 1; t < slots; ++t) {
    const auto row = static_cast<std::size_t>(t) * p;
    EXPECT_EQ(buf[row + 0], markov::State::Down);
    EXPECT_EQ(buf[row + 1], markov::State::Up);
    EXPECT_EQ(buf[row + 2], markov::State::Reclaimed);
  }
}

INSTANTIATE_TEST_SUITE_P(Kernels, StepKernel, ::testing::ValuesIn(util::kAllSimdKernels),
                         [](const auto& info) { return std::string(util::to_string(info.param)); });

TEST(FixedAvailability, FollowsScriptThenAllUp) {
  using markov::State;
  FixedAvailability fixed({{State::Down, State::Up},
                           {State::Reclaimed, State::Down}});
  EXPECT_EQ(fixed.state(0), State::Down);
  EXPECT_EQ(fixed.state(1), State::Up);
  fixed.advance();
  EXPECT_EQ(fixed.state(0), State::Reclaimed);
  EXPECT_EQ(fixed.state(1), State::Down);
  fixed.advance();  // beyond horizon
  EXPECT_EQ(fixed.state(0), State::Up);
  EXPECT_EQ(fixed.state(1), State::Up);
}

TEST(FixedAvailability, RejectsEmptyOrRagged) {
  EXPECT_THROW(FixedAvailability({}), std::invalid_argument);
  EXPECT_THROW(FixedAvailability({{markov::State::Up}, {}}), std::invalid_argument);
}

// ----------------------------------------------------------- trace io ----

TEST(TraceIo, RoundTrip) {
  using markov::State;
  StateTimeline t{{State::Up, State::Reclaimed}, {State::Down, State::Up}};
  std::ostringstream out;
  write_trace(out, t);
  std::istringstream in(out.str());
  EXPECT_EQ(read_trace(in), t);
}

TEST(TraceIo, SkipsCommentsAndBlank) {
  std::istringstream in("# header\n\nud\nru\n");
  auto t = read_trace(in);
  ASSERT_EQ(t.size(), 2u);
  EXPECT_EQ(t[0][0], markov::State::Up);
  EXPECT_EQ(t[1][0], markov::State::Reclaimed);
}

TEST(TraceIo, RejectsBadCharactersAndRagged) {
  std::istringstream bad("ux\n");
  EXPECT_THROW(read_trace(bad), std::runtime_error);
  std::istringstream ragged("uu\nu\n");
  EXPECT_THROW(read_trace(ragged), std::runtime_error);
}

TEST(TraceIo, ToleratesCrlfBomAndMissingTrailingNewline) {
  using markov::State;
  const StateTimeline expected{{State::Up, State::Reclaimed},
                               {State::Down, State::Up},
                               {State::Up, State::Up}};
  // A file as a Windows editor would save it: UTF-8 BOM, CRLF endings,
  // indented comment, blank CR-only line, and no newline after the last row.
  std::istringstream in(
      "\xEF\xBB\xBF# exported trace\r\n  # indented comment\r\n\r\nur\r\ndu\r\nuu");
  EXPECT_EQ(read_trace(in), expected);
}

TEST(TraceIo, RoundTripPreservesTimelineWithCommentsInInput) {
  using markov::State;
  std::istringstream commented("# header comment\nur\n# interior comment\ndu\nuu\n");
  const StateTimeline parsed = read_trace(commented);
  ASSERT_EQ(parsed.size(), 3u);

  // write_trace(read_trace(x)) re-reads to the identical timeline (comments
  // are annotation, not data, so they are dropped — not corrupted).
  std::ostringstream out;
  write_trace(out, parsed);
  EXPECT_EQ(out.str().find('#'), std::string::npos);
  std::istringstream in(out.str());
  EXPECT_EQ(read_trace(in), parsed);
}

TEST(TraceIo, FitRecoversTransitionMatrix) {
  // Sample a long trajectory from a known chain; the MLE fit converges.
  auto truth = markov::TransitionMatrix::from_self_loops(0.95, 0.9, 0.92);
  std::vector<Processor> procs(1);
  procs[0].speed = 1;
  procs[0].max_tasks = 1;
  procs[0].availability = truth;
  Platform plat(std::move(procs), 1);

  MarkovAvailability source(plat, 21);
  auto timeline = record(source, 200000);
  auto fit = fit_transition_matrix(timeline, 0);
  for (auto from : markov::kAllStates) {
    for (auto to : markov::kAllStates) {
      EXPECT_NEAR(fit.prob(from, to), truth.prob(from, to), 0.02);
    }
  }
}

TEST(TraceIo, FitHandlesUnseenState) {
  using markov::State;
  StateTimeline t{{State::Up}, {State::Up}, {State::Up}};
  auto fit = fit_transition_matrix(t, 0);
  EXPECT_DOUBLE_EQ(fit.prob(State::Up, State::Up), 1.0);
  EXPECT_DOUBLE_EQ(fit.prob(State::Down, State::Down), 1.0);  // inert row
}

// -------------------------------------------------------- semi-markov ----

TEST(SemiMarkov, HoldsStatesForSampledSojourns) {
  SemiMarkovParams params;
  params.scale = {50.0, 20.0, 20.0};
  SemiMarkovAvailability source({params}, 5);
  // Over a long window we should see all three states and multi-slot runs.
  int transitions = 0;
  markov::State prev = source.state(0);
  bool seen[3] = {false, false, false};
  for (int t = 0; t < 5000; ++t) {
    source.advance();
    const auto s = source.state(0);
    seen[static_cast<int>(s)] = true;
    if (s != prev) ++transitions;
    prev = s;
  }
  EXPECT_TRUE(seen[0]);
  EXPECT_TRUE(seen[1]);
  EXPECT_TRUE(seen[2]);
  EXPECT_GT(transitions, 10);
  // Far fewer transitions than slots: sojourns really hold.
  EXPECT_LT(transitions, 2500);
}

TEST(SemiMarkov, DeterministicPerSeed) {
  SemiMarkovParams params;
  SemiMarkovAvailability a({params}, 11), b({params}, 11);
  for (int t = 0; t < 500; ++t) {
    EXPECT_EQ(a.state(0), b.state(0));
    a.advance();
    b.advance();
  }
}

TEST(SemiMarkov, RecordShapes) {
  SemiMarkovParams params;
  SemiMarkovAvailability source({params, params}, 13);
  auto timeline = record(source, 100);
  ASSERT_EQ(timeline.size(), 100u);
  EXPECT_EQ(timeline.front().size(), 2u);
}

}  // namespace
}  // namespace tcgrid::platform
