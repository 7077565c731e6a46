// Unit tests for src/util: rng, cli, table, csv, thread pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace tcgrid {
namespace {

// ---------------------------------------------------------------- rng ----

TEST(Rng, DeterministicForSameSeed) {
  util::Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.uniform01(), b.uniform01());
}

TEST(Rng, DifferentSeedsDiffer) {
  util::Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform01() == b.uniform01()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, SpawnStreamsAreDecorrelatedAndDeterministic) {
  util::Rng parent(7);
  util::Rng c1 = parent.spawn(1);
  util::Rng c2 = parent.spawn(2);
  util::Rng c1_again = util::Rng(7).spawn(1);
  EXPECT_DOUBLE_EQ(c1.uniform01(), c1_again.uniform01());
  // distinct streams: first values should not coincide
  EXPECT_NE(util::Rng(7).spawn(1).uniform01(), util::Rng(7).spawn(2).uniform01());
  (void)c2;
}

TEST(Rng, UniformRangeRespected) {
  util::Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(0.90, 0.99);
    EXPECT_GE(v, 0.90);
    EXPECT_LT(v, 0.99);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  util::Rng rng(4);
  std::set<long> seen;
  for (int i = 0; i < 2000; ++i) {
    const long v = rng.uniform_int(2, 20);
    EXPECT_GE(v, 2);
    EXPECT_LE(v, 20);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 19u);  // all values hit over 2000 draws
}

TEST(Rng, IndexCoversRange) {
  util::Rng rng(5);
  std::set<std::size_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.index(7));
  EXPECT_EQ(seen.size(), 7u);
  for (std::size_t v : seen) EXPECT_LT(v, 7u);
}

TEST(Rng, DeriveSeedIsInjectiveish) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t s = 0; s < 100; ++s) {
    for (std::uint64_t st = 0; st < 100; ++st) {
      seeds.insert(util::derive_seed(s, st));
    }
  }
  EXPECT_EQ(seeds.size(), 10000u);  // no collisions in a small grid
}

TEST(Rng, DeriveSeed2CellsNeverCollide) {
  // The scenario grid derives seeds with derive_seed2(seed, cell, s); unlike
  // the old additive scheme (cell * 1000 + s), no (cell, s) pair may alias a
  // neighbouring cell's stream even when s exceeds 1000.
  std::set<std::uint64_t> seen;
  for (std::uint64_t cell = 0; cell < 40; ++cell) {
    for (std::uint64_t s = 0; s < 1500; ++s) {
      EXPECT_TRUE(seen.insert(util::derive_seed2(42, cell, s)).second)
          << "collision at cell=" << cell << " s=" << s;
    }
  }
  // The exact aliasing pair of the old scheme: (cell, 1000) vs (cell+1, 0).
  EXPECT_NE(util::derive_seed2(42, 0, 1000), util::derive_seed2(42, 1, 0));
}

TEST(Rng, Uniform01MatchesDocumentedBitMapping) {
  // uniform01 is pinned to u01_from_bits(engine draw): one draw per call,
  // portable across standard libraries.
  util::Rng a(7), b(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = a.uniform01();
    EXPECT_EQ(u, util::u01_from_bits(b.engine()()));
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, Uniform01CutIsExactForAllCutpoints) {
  // The fast-path contract: u01_from_bits(x) < c  <=>  min(x, kU01Top) <
  // uniform01_cut(c), for every draw x — including the degenerate cut points
  // c = 0 (never) and c = 1 (always) and values straddling the rounding
  // boundary near 2^64.
  std::vector<double> cuts = {0.0,  1e-300, 0x1p-64, 0.25, 0.5,
                              0.95, 1.0 - 0x1p-53,   1.0,  1.0 + 1e-9};
  util::Rng rng(3);
  for (int i = 0; i < 200; ++i) cuts.push_back(rng.uniform01());

  std::vector<std::uint64_t> draws = {0,       1,       2,       ~0ULL,
                                      ~0ULL - 1, ~0ULL - 1024, ~0ULL - 2048};
  for (int i = 0; i < 2000; ++i) draws.push_back(rng.engine()());

  for (double c : cuts) {
    const std::uint64_t cut = util::uniform01_cut(c);
    for (std::uint64_t x : draws) {
      const bool reference = util::u01_from_bits(x) < c;
      const bool fast = std::min(x, util::kU01Top) < cut;
      EXPECT_EQ(reference, fast) << "c=" << c << " x=" << x;
    }
  }
}

TEST(Rng, WeibullPositive) {
  util::Rng rng(6);
  for (int i = 0; i < 100; ++i) EXPECT_GT(rng.weibull(0.7, 10.0), 0.0);
}

// --------------------------------------------------------- mt19937-64 ----

// Every refill kernel the binary carries, each its own test instance; one
// the host CPU cannot run is skipped.
class MtKernel : public ::testing::TestWithParam<util::SimdKernel> {
 protected:
  void SetUp() override {
    if (!util::simd_kernel_supported(GetParam())) {
      GTEST_SKIP() << util::to_string(GetParam()) << " not supported on this CPU";
    }
  }
};

// The stream is std::mt19937_64's, draw for draw, whichever way it is taken.
// Draws are taken by operator() and fill() at odd offsets so every refill
// boundary falls inside a bulk copy. Over 5+ refills this catches a twist
// that reads the old x[0] in lane 311 (the second refill diverges at its
// last word), a wrong far index x[(i+156) % 312], and a broken tempering.
TEST_P(MtKernel, MatchesStdEngineAcrossRefills) {
  for (const std::uint64_t seed : {0ULL, 5489ULL, ~0ULL}) {
    std::mt19937_64 ref(seed);
    util::Mt19937_64 mt(seed, GetParam());
    ASSERT_EQ(mt.kernel(), GetParam());
    std::vector<std::uint64_t> got;
    std::vector<std::uint64_t> chunk;
    for (const std::size_t n : {1U, 7U, 311U, 3U, 313U, 1U, 629U, 5U, 312U, 2U}) {
      if (n <= 3) {
        for (std::size_t i = 0; i < n; ++i) got.push_back(mt());
      } else {
        chunk.assign(n, 0);
        mt.fill(chunk.data(), n);
        got.insert(got.end(), chunk.begin(), chunk.end());
      }
    }
    ASSERT_GT(got.size(), 4 * util::Mt19937_64::state_size);
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i], ref()) << "seed " << seed << " draw " << i;
    }
  }
}

// Distributions see the same bits, so they produce the same values.
TEST_P(MtKernel, StdDistributionsAndShuffleMatchStdEngine) {
  std::mt19937_64 ref(99);
  util::Mt19937_64 mt(99, GetParam());
  for (int i = 0; i < 500; ++i) {
    ASSERT_EQ(std::uniform_int_distribution<long>(-3, 1000)(mt),
              std::uniform_int_distribution<long>(-3, 1000)(ref));
    ASSERT_EQ(std::weibull_distribution<double>(0.7, 30.0)(mt),
              std::weibull_distribution<double>(0.7, 30.0)(ref));
    ASSERT_EQ(std::exponential_distribution<double>(0.25)(mt),
              std::exponential_distribution<double>(0.25)(ref));
    ASSERT_EQ(std::uniform_real_distribution<double>(0.9, 0.99)(mt),
              std::uniform_real_distribution<double>(0.9, 0.99)(ref));
  }
  std::vector<int> a(1000), b(1000);
  for (int i = 0; i < 1000; ++i) a[static_cast<std::size_t>(i)] = b[static_cast<std::size_t>(i)] = i;
  std::shuffle(a.begin(), a.end(), mt);
  std::shuffle(b.begin(), b.end(), ref);
  EXPECT_EQ(a, b);
}

INSTANTIATE_TEST_SUITE_P(Kernels, MtKernel, ::testing::ValuesIn(util::kAllSimdKernels),
                         [](const auto& info) { return std::string(util::to_string(info.param)); });

TEST(Rng, DistributionsMatchStdEngineSeededTheSameWay) {
  // Rng seeds its engine with splitmix64(seed); every distribution it offers
  // must draw what the standard engine would have.
  util::Rng rng(2024);
  std::mt19937_64 ref(util::splitmix64(2024));
  for (int i = 0; i < 300; ++i) {
    ASSERT_EQ(rng.uniform_int(0, 77), std::uniform_int_distribution<long>(0, 77)(ref));
    ASSERT_EQ(rng.weibull(1.5, 2.0), std::weibull_distribution<double>(1.5, 2.0)(ref));
    ASSERT_EQ(rng.exponential(3.0), std::exponential_distribution<double>(3.0)(ref));
    ASSERT_EQ(rng.uniform01(), util::u01_from_bits(ref()));
  }
}

TEST(Rng, HostKernelIsSupported) {
  EXPECT_TRUE(util::simd_kernel_supported(util::simd_kernel()));
  EXPECT_TRUE(util::simd_kernel_supported(util::SimdKernel::Scalar));
  EXPECT_EQ(util::Rng(1).engine().kernel(), util::simd_kernel());
}

// ---------------------------------------------------------------- cli ----

TEST(Cli, ParsesSeparateValueForm) {
  const char* argv[] = {"prog", "--m", "10", "--name", "Y-IE"};
  util::Cli cli(5, argv);
  EXPECT_EQ(cli.get_long("m", 0), 10);
  EXPECT_EQ(cli.get("name", ""), "Y-IE");
}

TEST(Cli, ParsesEqualsForm) {
  const char* argv[] = {"prog", "--wmin=3", "--eps=0.5"};
  util::Cli cli(3, argv);
  EXPECT_EQ(cli.get_long("wmin", 0), 3);
  EXPECT_DOUBLE_EQ(cli.get_double("eps", 0.0), 0.5);
}

TEST(Cli, BareFlagIsTrue) {
  const char* argv[] = {"prog", "--full"};
  util::Cli cli(2, argv);
  EXPECT_TRUE(cli.get_bool("full"));
  EXPECT_FALSE(cli.get_bool("other"));
}

TEST(Cli, FlagFollowedByFlagHasEmptyValue) {
  const char* argv[] = {"prog", "--a", "--b", "1"};
  util::Cli cli(4, argv);
  EXPECT_TRUE(cli.has("a"));
  EXPECT_EQ(cli.value("a").value(), "");
  EXPECT_EQ(cli.get_long("b", 0), 1);
}

TEST(Cli, PositionalArguments) {
  const char* argv[] = {"prog", "input.txt", "--k", "2", "more"};
  util::Cli cli(5, argv);
  ASSERT_EQ(cli.positional().size(), 2u);
  EXPECT_EQ(cli.positional()[0], "input.txt");
  EXPECT_EQ(cli.positional()[1], "more");
}

TEST(Cli, FallbacksUsedWhenAbsent) {
  const char* argv[] = {"prog"};
  util::Cli cli(1, argv);
  EXPECT_EQ(cli.get("x", "def"), "def");
  EXPECT_EQ(cli.get_long("x", 9), 9);
  EXPECT_DOUBLE_EQ(cli.get_double("x", 1.5), 1.5);
}

TEST(Cli, BoolValueForms) {
  const char* argv[] = {"prog", "--a=true", "--b=0", "--c=yes", "--d=off"};
  util::Cli cli(5, argv);
  EXPECT_TRUE(cli.get_bool("a"));
  EXPECT_FALSE(cli.get_bool("b"));
  EXPECT_TRUE(cli.get_bool("c"));
  EXPECT_FALSE(cli.get_bool("d"));
}

// -------------------------------------------------------------- table ----

TEST(Table, AlignsAndRenders) {
  util::Table t({"name", "value"});
  t.add_row({"alpha", "1.00"});
  t.add_row({"b", "-23.50"});
  const std::string s = t.str();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("-23.50"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, ArityMismatchThrows) {
  util::Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, NumFormatsFixedPrecision) {
  EXPECT_EQ(util::Table::num(1.23456), "1.23");
  EXPECT_EQ(util::Table::num(-1.0, 1), "-1.0");
  EXPECT_EQ(util::Table::num(2.0, 0), "2");
}

// ---------------------------------------------------------------- csv ----

TEST(Csv, WritesHeaderAndRows) {
  util::CsvWriter csv({"a", "b"});
  csv.add_row({"1", "2"});
  EXPECT_EQ(csv.str(), "a,b\n1,2\n");
}

TEST(Csv, EscapesSpecials) {
  EXPECT_EQ(util::CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(util::CsvWriter::escape("a,b"), "\"a,b\"");
  EXPECT_EQ(util::CsvWriter::escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(Csv, ArityMismatchThrows) {
  util::CsvWriter csv({"a"});
  EXPECT_THROW(csv.add_row({"1", "2"}), std::invalid_argument);
}

// -------------------------------------------------------- thread pool ----

TEST(ThreadPool, RunsAllTasks) {
  util::ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) pool.submit([&] { ++count; });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ParallelFor, CoversAllIndicesOnce) {
  std::vector<std::atomic<int>> hits(257);
  util::parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; }, 4);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, SequentialWhenOneThread) {
  std::vector<int> order;
  util::parallel_for(10, [&](std::size_t i) { order.push_back(static_cast<int>(i)); }, 1);
  ASSERT_EQ(order.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(ParallelFor, HandlesZeroItems) {
  bool ran = false;
  util::parallel_for(0, [&](std::size_t) { ran = true; }, 4);
  EXPECT_FALSE(ran);
}

}  // namespace
}  // namespace tcgrid
