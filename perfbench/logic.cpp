//===- perfbench/logic.cpp - Benchmark statistics, ladder, spans ----------===//
//
// Part of the rdgc project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "logic.h"

#include <algorithm>
#include <cmath>

using namespace perfbench;

Quantile perfbench::nearestRank(const std::vector<uint64_t> &Sorted,
                                double Percent) {
  Quantile Q;
  Q.Samples = Sorted.size();
  if (Sorted.empty())
    return Q;
  double Exact = Percent / 100.0 * static_cast<double>(Sorted.size());
  // Guard the ceiling against representation error (99.9% of 10000 must
  // be rank 9990, not 9991).
  uint64_t Rank = static_cast<uint64_t>(std::ceil(Exact - 1e-9));
  Rank = std::clamp<uint64_t>(Rank, 1, Sorted.size());
  Q.Value = Sorted[Rank - 1];
  Q.Beyond = static_cast<uint64_t>(
      Sorted.end() - std::upper_bound(Sorted.begin(), Sorted.end(), Q.Value));
  return Q;
}

bool perfbench::rungMeetsSlo(const RungResult &R, double LimitUs) {
  return R.Failed == 0 && !R.BacklogGrew && R.TailUs < LimitUs;
}

double perfbench::effectiveTailUs(const RungResult &R, double LimitUs) {
  if (R.Failed != 0 || R.BacklogGrew)
    return std::max(R.TailUs, 2.0 * LimitUs);
  return R.TailUs;
}

LadderOutcome perfbench::interpolateLadder(const std::vector<RungResult> &Rungs,
                                           double LimitUs) {
  LadderOutcome Out;
  for (size_t I = 0; I < Rungs.size(); ++I)
    if (rungMeetsSlo(Rungs[I], LimitUs))
      Out.LastPass = static_cast<int>(I);
  if (Rungs.empty())
    return Out;
  if (Out.LastPass == static_cast<int>(Rungs.size()) - 1) {
    Out.RpsAtSlo = Rungs.back().OfferedRps;
    return Out;
  }
  Out.FirstFail = Out.LastPass + 1;
  Out.Bracketed = Out.LastPass >= 0;
  const RungResult &Fail = Rungs[Out.FirstFail];
  double PassRps = 0, PassTail = 0;
  if (Out.LastPass >= 0) {
    PassRps = Rungs[Out.LastPass].OfferedRps;
    PassTail = Rungs[Out.LastPass].TailUs;
  }
  double FailTail = effectiveTailUs(Fail, LimitUs);
  // PassTail < LimitUs <= FailTail, so the slope is positive.
  double Fraction = (LimitUs - PassTail) / (FailTail - PassTail);
  Out.RpsAtSlo = PassRps + Fraction * (Fail.OfferedRps - PassRps);
  return Out;
}

bool perfbench::backlogGrew(const std::vector<uint64_t> &LagNs,
                            uint64_t LimitNs) {
  if (LagNs.empty())
    return false;
  size_t Tail = std::min(LagNs.size(), std::max<size_t>(10, LagNs.size() / 100));
  std::vector<uint64_t> Last(LagNs.end() - Tail, LagNs.end());
  std::nth_element(Last.begin(), Last.begin() + Last.size() / 2, Last.end());
  return Last[Last.size() / 2] > LimitNs;
}

int64_t perfbench::coveredWithin(
    int64_t Lo, int64_t Hi, std::vector<std::pair<int64_t, int64_t>> Children) {
  for (auto &C : Children) {
    C.first = std::max(C.first, Lo);
    C.second = std::min(C.second, Hi);
  }
  std::sort(Children.begin(), Children.end());
  int64_t Covered = 0;
  int64_t Reach = Lo;
  for (const auto &[Start, End] : Children) {
    if (End <= Reach || End <= Start)
      continue;
    Covered += End - std::max(Start, Reach);
    Reach = End;
  }
  return Covered;
}

std::vector<int64_t> perfbench::selfTimeByLayer(const std::vector<Span> &Spans,
                                                unsigned LayerCount) {
  // Group children by parent: sort child indices by parent once instead of
  // building a list per span (traced runs hold millions of spans).
  std::vector<uint32_t> Children;
  for (uint32_t I = 0; I < Spans.size(); ++I)
    if (Spans[I].Parent != NoParent)
      Children.push_back(I);
  std::stable_sort(Children.begin(), Children.end(),
                   [&](uint32_t A, uint32_t B) {
                     return Spans[A].Parent < Spans[B].Parent;
                   });
  std::vector<int64_t> Self(LayerCount, 0);
  size_t Next = 0;
  std::vector<std::pair<int64_t, int64_t>> Intervals;
  for (uint32_t I = 0; I < Spans.size(); ++I) {
    Intervals.clear();
    while (Next < Children.size() && Spans[Children[Next]].Parent < I)
      ++Next;
    while (Next < Children.size() && Spans[Children[Next]].Parent == I) {
      const Span &C = Spans[Children[Next++]];
      Intervals.emplace_back(C.Start, C.End);
    }
    const Span &S = Spans[I];
    if (S.Layer >= LayerCount)
      continue;
    Self[S.Layer] += (S.End - S.Start) - coveredWithin(S.Start, S.End,
                                                       Intervals);
  }
  return Self;
}

uint64_t perfbench::streamSeed(uint64_t Seed, uint64_t Stream) {
  uint64_t Z = Seed * 0x9E3779B97F4A7C15ull + (Stream + 1) * 0xD1B54A32D192ED03ull;
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
  return Z ^ (Z >> 31);
}

Stream::Stream(uint64_t Seed, uint64_t StreamId) {
  uint64_t X = streamSeed(Seed, StreamId);
  for (uint64_t &Word : S) {
    X += 0x9E3779B97F4A7C15ull;
    uint64_t Z = X;
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
    Word = Z ^ (Z >> 31);
  }
}

uint64_t Stream::next() {
  auto Rotl = [](uint64_t V, int K) { return (V << K) | (V >> (64 - K)); };
  uint64_t Result = Rotl(S[1] * 5, 7) * 9;
  uint64_t T = S[1] << 17;
  S[2] ^= S[0];
  S[3] ^= S[1];
  S[1] ^= S[2];
  S[0] ^= S[3];
  S[2] ^= T;
  S[3] = Rotl(S[3], 45);
  return Result;
}

uint64_t Stream::below(uint64_t Bound) {
  // Lemire's multiply-shift with rejection of the biased low band.
  unsigned __int128 M = static_cast<unsigned __int128>(next()) * Bound;
  uint64_t Low = static_cast<uint64_t>(M);
  if (Low < Bound) {
    uint64_t Threshold = -Bound % Bound;
    while (Low < Threshold) {
      M = static_cast<unsigned __int128>(next()) * Bound;
      Low = static_cast<uint64_t>(M);
    }
  }
  return static_cast<uint64_t>(M >> 64);
}

double Stream::exponential(double Mean) {
  return -Mean * std::log1p(-uniform());
}

uint64_t Stream::poisson(double Mean) {
  if (Mean <= 0)
    return 0;
  if (Mean > 30) {
    // Box-Muller; the normal limit is within a fraction of a percent of
    // the Poisson law at these means.
    double U1 = 1.0 - uniform(), U2 = uniform();
    double Z = std::sqrt(-2.0 * std::log(U1)) * std::cos(2.0 * M_PI * U2);
    double X = std::round(Mean + std::sqrt(Mean) * Z);
    return X < 0 ? 0 : static_cast<uint64_t>(X);
  }
  double P = std::exp(-Mean);
  double Cumulative = P;
  double U = uniform();
  uint64_t K = 0;
  while (U > Cumulative && K < 1000) {
    ++K;
    P *= Mean / static_cast<double>(K);
    Cumulative += P;
  }
  return K;
}

DecayDeaths::DecayDeaths(double HalfLife) : HalfLife(HalfLife) {}

uint64_t DecayDeaths::deaths(uint64_t Live, uint64_t Units,
                             Stream &Rng) const {
  double DieProbability =
      -std::expm1(-static_cast<double>(Units) * M_LN2 / HalfLife);
  return std::min<uint64_t>(
      Live, Rng.poisson(static_cast<double>(Live) * DieProbability));
}
