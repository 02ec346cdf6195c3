//===- perfbench/logic_test.cpp - Tests for the benchmark's logic ---------===//
//
// Part of the rdgc project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "logic.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

using namespace perfbench;

namespace {

std::vector<uint64_t> oneTo(uint64_t N) {
  std::vector<uint64_t> V(N);
  std::iota(V.begin(), V.end(), 1);
  return V;
}

TEST(Percentile, NearestRankPicksCeilingRank) {
  std::vector<uint64_t> V = oneTo(10000);
  Quantile P50 = nearestRank(V, 50);
  EXPECT_EQ(P50.Value, 5000u);
  EXPECT_EQ(P50.Beyond, 5000u);
  Quantile P999 = nearestRank(V, 99.9);
  EXPECT_EQ(P999.Value, 9990u); // Rank 9990 exactly, not 9991.
  EXPECT_EQ(P999.Beyond, 10u);
  Quantile P99 = nearestRank(oneTo(101), 99);
  EXPECT_EQ(P99.Value, 100u); // ceil(99.99) = 100.
  EXPECT_EQ(P99.Beyond, 1u);
}

TEST(Percentile, EmptyAndSingleSamples) {
  Quantile Empty = nearestRank({}, 99);
  EXPECT_EQ(Empty.Value, 0u);
  EXPECT_EQ(Empty.Samples, 0u);
  Quantile One = nearestRank({7}, 99.9);
  EXPECT_EQ(One.Value, 7u);
  EXPECT_EQ(One.Beyond, 0u);
}

TEST(Percentile, TiesAreNotBeyond) {
  std::vector<uint64_t> V(1000, 5);
  V.push_back(9);
  Quantile P99 = nearestRank(V, 99);
  EXPECT_EQ(P99.Value, 5u);
  EXPECT_EQ(P99.Beyond, 1u);
  EXPECT_FALSE(hasTail(P99));
}

TEST(Percentile, TenBeyondRule) {
  // p99.9 of 9999 samples has only 9 beyond: it is really a maximum.
  EXPECT_FALSE(hasTail(nearestRank(oneTo(9999), 99.9)));
  EXPECT_TRUE(hasTail(nearestRank(oneTo(10000), 99.9)));
  EXPECT_TRUE(hasTail(nearestRank(oneTo(1000), 99)));
  EXPECT_FALSE(hasTail(nearestRank(oneTo(999), 99)));
}

TEST(Ladder, InterpolatesBetweenPassAndFail) {
  std::vector<RungResult> Rungs = {
      {1000, 100, 10000, 0, false},
      {1200, 400, 10000, 0, false},
      {1440, 1400, 10000, 0, false},
  };
  LadderOutcome Out = interpolateLadder(Rungs, 1000);
  EXPECT_EQ(Out.LastPass, 1);
  EXPECT_EQ(Out.FirstFail, 2);
  EXPECT_TRUE(Out.Bracketed);
  // 400 -> 1400 us across 1200 -> 1440 rps; 1000 us is 60% of the way.
  EXPECT_NEAR(Out.RpsAtSlo, 1200 + 0.6 * 240, 1e-9);
}

TEST(Ladder, HighestPassingRungWins) {
  // A stray failure below a passing rung does not end the search.
  std::vector<RungResult> Rungs = {
      {1000, 100, 10000, 0, false},
      {1200, 2000, 10000, 0, false},
      {1440, 500, 10000, 0, false},
      {1728, 1500, 10000, 0, false},
      {2074, 3000, 10000, 0, false},
  };
  LadderOutcome Out = interpolateLadder(Rungs, 1000);
  EXPECT_EQ(Out.LastPass, 2);
  EXPECT_EQ(Out.FirstFail, 3);
  EXPECT_NEAR(Out.RpsAtSlo, 1440 + (500.0 / 1000.0) * 288, 1e-9);
}

TEST(Ladder, FailedRequestIsAMiss) {
  RungResult R{1200, 300, 10000, 1, false};
  EXPECT_FALSE(rungMeetsSlo(R, 1000));
  EXPECT_DOUBLE_EQ(effectiveTailUs(R, 1000), 2000);
  std::vector<RungResult> Rungs = {{1000, 200, 10000, 0, false}, R};
  LadderOutcome Out = interpolateLadder(Rungs, 1000);
  EXPECT_EQ(Out.FirstFail, 1);
  // Effective tail 2000: (1000 - 200) / (2000 - 200) of the way.
  EXPECT_NEAR(Out.RpsAtSlo, 1000 + (800.0 / 1800.0) * 200, 1e-9);
  EXPECT_GT(Out.RpsAtSlo, 1000);
  EXPECT_LT(Out.RpsAtSlo, 1200);
}

TEST(Ladder, GrowingBacklogIsAMiss) {
  RungResult R{1200, 900, 10000, 0, true};
  EXPECT_FALSE(rungMeetsSlo(R, 1000));
  EXPECT_DOUBLE_EQ(effectiveTailUs(R, 1000), 2000);
  RungResult Slow{1200, 5000, 10000, 0, true};
  EXPECT_DOUBLE_EQ(effectiveTailUs(Slow, 1000), 5000);
}

TEST(Ladder, NoFailureAndFirstRungFailure) {
  std::vector<RungResult> AllPass = {{1000, 100, 1, 0, false},
                                     {1200, 200, 1, 0, false}};
  LadderOutcome Top = interpolateLadder(AllPass, 1000);
  EXPECT_EQ(Top.FirstFail, -1);
  EXPECT_FALSE(Top.Bracketed);
  EXPECT_DOUBLE_EQ(Top.RpsAtSlo, 1200);
  std::vector<RungResult> FirstFails = {{1000, 4000, 1, 0, false}};
  LadderOutcome Bottom = interpolateLadder(FirstFails, 1000);
  EXPECT_FALSE(Bottom.Bracketed);
  EXPECT_DOUBLE_EQ(Bottom.RpsAtSlo, 250);
}

TEST(Ladder, BacklogCheckUsesTheLastPercent) {
  std::vector<uint64_t> Steady(5000, 1000);
  EXPECT_FALSE(backlogGrew(Steady, 1'000'000));
  // A lag that keeps growing ends far beyond the limit.
  std::vector<uint64_t> Growing(5000);
  for (size_t I = 0; I < Growing.size(); ++I)
    Growing[I] = I * 1000;
  EXPECT_TRUE(backlogGrew(Growing, 1'000'000));
  // One late request at the very end is not a backlog.
  Steady.back() = 50'000'000;
  EXPECT_FALSE(backlogGrew(Steady, 1'000'000));
}

TEST(Spans, CoveredWithinMergesOverlapsAndClips) {
  EXPECT_EQ(coveredWithin(0, 100, {}), 0);
  EXPECT_EQ(coveredWithin(0, 100, {{10, 20}, {15, 30}}), 20);
  EXPECT_EQ(coveredWithin(0, 100, {{50, 60}, {10, 20}}), 20);
  // Clipped at both ends.
  EXPECT_EQ(coveredWithin(0, 100, {{-50, 10}, {90, 150}}), 20);
  // Nested and fully outside.
  EXPECT_EQ(coveredWithin(0, 100, {{10, 80}, {20, 30}, {200, 300}}), 70);
  EXPECT_EQ(coveredWithin(0, 100, {{-10, 200}}), 100);
}

TEST(Spans, SelfTimeSubtractsChildUnion) {
  // run [0,1000) > request [100,900) > alloc [200,500), barrier [450,600)
  // (overlapping siblings) > gc [400,700) clipped to its alloc parent.
  std::vector<Span> Spans(5);
  Spans[0] = {0, 1000, NoParent, 0, 0, 0};
  Spans[1] = {100, 900, 0, 1, 1, 0};
  Spans[2] = {200, 500, 1, 1, 2, 0};
  Spans[3] = {450, 600, 1, 1, 3, 0};
  Spans[4] = {400, 700, 2, 1, 4, 0};
  std::vector<int64_t> Self = selfTimeByLayer(Spans, 5);
  EXPECT_EQ(Self[0], 1000 - 800);
  EXPECT_EQ(Self[1], 800 - 400); // Children cover [200,600).
  EXPECT_EQ(Self[2], 300 - 100); // gc covers [400,500) of it.
  EXPECT_EQ(Self[3], 150);
  EXPECT_EQ(Self[4], 300);
}

TEST(Spans, SelfTimeWithChildrenOutOfOrder) {
  std::vector<Span> Spans(4);
  Spans[0] = {0, 100, NoParent, 0, 0, 0};
  Spans[1] = {60, 80, 0, 0, 1, 0};
  Spans[2] = {0, 500, NoParent, 0, 0, 0};
  Spans[3] = {10, 30, 0, 0, 1, 0};
  std::vector<int64_t> Self = selfTimeByLayer(Spans, 2);
  EXPECT_EQ(Self[0], (100 - 40) + 500);
  EXPECT_EQ(Self[1], 40);
}

TEST(Streams, SeededStreamsRepeat) {
  Stream A(42, 7), B(42, 7);
  for (int I = 0; I < 1000; ++I)
    ASSERT_EQ(A.next(), B.next());
  Stream C(42, 8), D(43, 7);
  Stream E(42, 7);
  int SameC = 0, SameD = 0;
  for (int I = 0; I < 1000; ++I) {
    uint64_t X = E.next();
    SameC += C.next() == X;
    SameD += D.next() == X;
  }
  EXPECT_EQ(SameC, 0);
  EXPECT_EQ(SameD, 0);
}

TEST(Streams, UniformBelowAndExponentialMoments) {
  Stream S(1, 1);
  const int N = 200000;
  double Sum = 0;
  uint64_t Counts[10] = {};
  for (int I = 0; I < N; ++I) {
    Sum += S.exponential(50.0);
    ++Counts[S.below(10)];
  }
  EXPECT_NEAR(Sum / N, 50.0, 0.5);
  for (uint64_t C : Counts)
    EXPECT_NEAR(static_cast<double>(C), N / 10.0, N / 100.0);
}

TEST(Streams, PoissonMeanAndVariance) {
  for (double Mean : {0.7, 5.0, 1000.0}) {
    Stream S(3, static_cast<uint64_t>(Mean * 10));
    const int N = 100000;
    double Sum = 0, SumSq = 0;
    for (int I = 0; I < N; ++I) {
      double X = static_cast<double>(S.poisson(Mean));
      Sum += X;
      SumSq += X * X;
    }
    double M = Sum / N, Var = SumSq / N - M * M;
    EXPECT_NEAR(M, Mean, 0.02 * Mean + 0.01) << Mean;
    EXPECT_NEAR(Var, Mean, 0.05 * Mean + 0.02) << Mean;
  }
}

TEST(Decay, CohortHalvesEveryHalfLife) {
  // Start a cohort of 100000 objects, then run the decay law for one and
  // two half-lives of allocation (new objects join a separate pool).
  const double H = 50000;
  DecayDeaths Deaths(H);
  Stream S(9, 9);
  std::vector<bool> Cohort(100000, true);
  uint64_t Alive = Cohort.size();
  std::vector<uint32_t> Live(Cohort.size());
  std::iota(Live.begin(), Live.end(), 0);
  const uint64_t Step = 256;
  uint64_t Units = 0;
  auto RunUntil = [&](uint64_t Target) {
    for (; Units < Target; Units += Step) {
      uint64_t D = Deaths.deaths(Live.size(), Step, S);
      for (uint64_t K = 0; K < D; ++K) {
        size_t V = S.below(Live.size());
        if (Live[V] < Cohort.size())
          --Alive;
        Live[V] = Live.back();
        Live.pop_back();
      }
      for (uint64_t K = 0; K < Step; ++K)
        Live.push_back(static_cast<uint32_t>(Cohort.size() + Units + K));
    }
  };
  RunUntil(static_cast<uint64_t>(H));
  EXPECT_NEAR(Alive / 100000.0, 0.5, 0.02);
  RunUntil(static_cast<uint64_t>(2 * H));
  EXPECT_NEAR(Alive / 100000.0, 0.25, 0.02);
}

TEST(Decay, EquilibriumLiveIsHOverLn2) {
  // Equation 1: at equilibrium n = h / ln 2 objects are live.
  const double H = 20000;
  DecayDeaths Deaths(H);
  Stream S(11, 11);
  uint64_t Live = 0;
  double Sum = 0;
  int Samples = 0;
  for (uint64_t Unit = 0; Unit < 40 * H; Unit += 64) {
    Live -= Deaths.deaths(Live, 64, S);
    Live += 64;
    if (Unit > 10 * H) {
      Sum += static_cast<double>(Live);
      ++Samples;
    }
  }
  EXPECT_NEAR(Sum / Samples / (H / M_LN2), 1.0, 0.02);
}

} // namespace
