#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <mutex>
#include <set>
#include <stdexcept>

#include "util/bitops.h"
#include "util/cli.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/units.h"

namespace repro {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformBoundsRespected) {
  Rng rng(9);
  for (int i = 0; i < 500; ++i) {
    const double u = rng.Uniform(-2.5, 3.5);
    EXPECT_GE(u, -2.5);
    EXPECT_LT(u, 3.5);
  }
}

TEST(Rng, BelowIsUnbiasedEnough) {
  Rng rng(11);
  std::vector<int> counts(10, 0);
  const int n = 50000;
  for (int i = 0; i < n; ++i) counts[rng.Below(10)]++;
  for (int c : counts) {
    EXPECT_NEAR(c, n / 10, n / 100);  // within 1% of total
  }
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  OnlineStats s;
  for (int i = 0; i < 20000; ++i) s.Add(rng.Normal());
  EXPECT_NEAR(s.mean(), 0.0, 0.03);
  EXPECT_NEAR(s.stddev(), 1.0, 0.03);
}

TEST(Rng, PermutationIsValid) {
  Rng rng(17);
  auto p = rng.Permutation(100);
  std::set<std::size_t> seen(p.begin(), p.end());
  EXPECT_EQ(seen.size(), 100u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 99u);
}

TEST(Rng, FillNormalStddev) {
  Rng rng(19);
  std::vector<float> v(10000);
  rng.FillNormal(v.data(), v.size(), 2.0f);
  OnlineStats s;
  for (float x : v) s.Add(x);
  EXPECT_NEAR(s.stddev(), 2.0, 0.08);
}

TEST(Stats, SummarizeBasics) {
  std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  Summary s = Summarize(v);
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_NEAR(s.stddev, std::sqrt(1.25), 1e-12);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
}

TEST(Stats, EmptySummary) {
  Summary s = Summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
}

TEST(Stats, OnlineMatchesBatch) {
  Rng rng(3);
  std::vector<double> v;
  OnlineStats os;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.Normal(5.0, 3.0);
    v.push_back(x);
    os.Add(x);
  }
  Summary s = Summarize(v);
  EXPECT_NEAR(os.mean(), s.mean, 1e-9);
  EXPECT_NEAR(os.stddev(), s.stddev, 1e-9);
}

TEST(Bitops, IsPow2) {
  EXPECT_TRUE(IsPow2(1));
  EXPECT_TRUE(IsPow2(2));
  EXPECT_TRUE(IsPow2(1024));
  EXPECT_FALSE(IsPow2(0));
  EXPECT_FALSE(IsPow2(3));
  EXPECT_FALSE(IsPow2(1023));
}

TEST(Bitops, Log2Exact) {
  EXPECT_EQ(Log2(1), 0u);
  EXPECT_EQ(Log2(2), 1u);
  EXPECT_EQ(Log2(1024), 10u);
  EXPECT_EQ(Log2(8192), 13u);
}

TEST(Bitops, NextPow2) {
  EXPECT_EQ(NextPow2(1), 1u);
  EXPECT_EQ(NextPow2(3), 4u);
  EXPECT_EQ(NextPow2(784), 1024u);
  EXPECT_EQ(NextPow2(1024), 1024u);
}

TEST(Bitops, BitReverse) {
  EXPECT_EQ(BitReverse(0b001, 3), 0b100u);
  EXPECT_EQ(BitReverse(0b110, 3), 0b011u);
  EXPECT_EQ(BitReverse(1, 10), 512u);
}

TEST(Bitops, BitReverseIsInvolution) {
  for (std::uint32_t i = 0; i < 256; ++i) {
    EXPECT_EQ(BitReverse(BitReverse(i, 8), 8), i);
  }
}

TEST(Bitops, CeilDiv) {
  EXPECT_EQ(CeilDiv(10, 3), 4u);
  EXPECT_EQ(CeilDiv(9, 3), 3u);
  EXPECT_EQ(CeilDiv(1, 100), 1u);
}

TEST(Units, CyclesToSeconds) {
  EXPECT_DOUBLE_EQ(CyclesToSeconds(1330000000ull, 1.33e9), 1.0);
  EXPECT_NEAR(GFlops(2e12, 1.0), 2000.0, 1e-9);
}

TEST(Table, RendersAlignedColumns) {
  Table t({"name", "value"});
  t.AddRow({"alpha", "1"});
  t.AddRow({"b", "22"});
  const std::string s = t.ToString();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("22"), std::string::npos);
  // header separator present
  EXPECT_NE(s.find("|---"), std::string::npos);
}

TEST(Table, NumFormatting) {
  EXPECT_EQ(Table::Num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::Int(42), "42");
}

TEST(Cli, ParsesEqualsAndSpaceForms) {
  const char* argv[] = {"prog", "--n=128", "--mode", "fast", "--flag"};
  Cli cli(5, const_cast<char**>(argv));
  EXPECT_EQ(cli.GetInt("n", 0), 128);
  EXPECT_EQ(cli.GetString("mode", ""), "fast");
  EXPECT_TRUE(cli.GetBool("flag", false));
  EXPECT_EQ(cli.GetInt("missing", 7), 7);
}

TEST(Cli, BoolFalseValues) {
  const char* argv[] = {"prog", "--x=false", "--y=0"};
  Cli cli(3, const_cast<char**>(argv));
  EXPECT_FALSE(cli.GetBool("x", true));
  EXPECT_FALSE(cli.GetBool("y", true));
}

TEST(Parallel, CoversFullRangeExactlyOnce) {
  std::vector<int> hits(1000, 0);
  ParallelFor(0, 1000, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) hits[i]++;
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(Parallel, EmptyRangeIsNoop) {
  bool called = false;
  ParallelFor(5, 5, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(Parallel, MinGrainLimitsSharding) {
  // With grain >= range the callback must run exactly once (serially).
  int calls = 0;
  ParallelFor(0, 10,
              [&](std::size_t lo, std::size_t hi) {
                ++calls;
                EXPECT_EQ(lo, 0u);
                EXPECT_EQ(hi, 10u);
              },
              /*min_grain=*/100);
  EXPECT_EQ(calls, 1);
}

TEST(Parallel, WorkersAtLeastOne) { EXPECT_GE(ParallelWorkers(), 1u); }

TEST(Parallel, InvertedRangeIsNoop) {
  // An inverted range means "no work", same as an empty one; shard-size
  // arithmetic upstream must never turn it into a crash.
  bool called = false;
  ParallelFor(5, 1, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(Parallel, ZeroGrainDies) {
  EXPECT_DEATH(ParallelFor(0, 4, [](std::size_t, std::size_t) {},
                           /*min_grain=*/0),
               "min_grain");
}

TEST(Parallel, PropagatesWorkerException) {
  EXPECT_THROW(
      ParallelForWith(4, 0, 100,
                      [](std::size_t lo, std::size_t) {
                        if (lo == 0) throw std::runtime_error("shard failed");
                      }),
      std::runtime_error);
}

TEST(Parallel, SetParallelWorkersOverridesAndRestores) {
  SetParallelWorkers(3);
  EXPECT_EQ(ParallelWorkers(), 3u);
  SetParallelWorkers(0);  // back to the environment/hardware default
  EXPECT_GE(ParallelWorkers(), 1u);
}

TEST(Parallel, ExplicitWorkerCountCoversRange) {
  std::vector<int> hits(257, 0);
  std::mutex mu;
  ParallelForWith(8, 0, 257, [&](std::size_t lo, std::size_t hi) {
    std::lock_guard<std::mutex> lock(mu);
    for (std::size_t i = lo; i < hi; ++i) hits[i]++;
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(Parallel, NestedParallelForCompletes) {
  // The pool uses a helping wait, so a shard may itself shard without
  // deadlocking even when every worker is busy.
  std::atomic<int> total{0};
  ParallelForWith(4, 0, 4, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      ParallelForWith(4, 0, 8, [&](std::size_t ilo, std::size_t ihi) {
        total += static_cast<int>(ihi - ilo);
      });
    }
  });
  EXPECT_EQ(total.load(), 32);
}

}  // namespace
}  // namespace repro
