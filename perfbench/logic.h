//===- perfbench/logic.h - Benchmark statistics, ladder, spans --*- C++ -*-===//
//
// Part of the rdgc project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's own logic, kept free of any rdgc dependency so its
/// tests build in seconds: nearest-rank percentiles with a count of the
/// samples beyond them, the open-loop rate ladder and its interpolation,
/// span self time, and the seeded random streams every workload draws
/// its inputs from (including the radioactive-decay death sampler).
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_LOGIC_H
#define PERFBENCH_LOGIC_H

#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

//===----------------------------------------------------------------------===
// Percentiles.
//===----------------------------------------------------------------------===

/// A percentile of a sample, with how many samples lie strictly above it.
struct Quantile {
  uint64_t Value = 0;
  uint64_t Beyond = 0;
  uint64_t Samples = 0;
};

/// Nearest-rank percentile of an ascending-sorted sample: the value at
/// 1-based rank ceil(Percent/100 * n). An empty sample gives all zeros.
Quantile nearestRank(const std::vector<uint64_t> &Sorted, double Percent);

/// The "enough samples beyond" rule: a reported percentile needs at least
/// \p MinBeyond samples strictly above it, or it is really a maximum.
inline bool hasTail(const Quantile &Q, uint64_t MinBeyond = 10) {
  return Q.Beyond >= MinBeyond;
}

//===----------------------------------------------------------------------===
// Open-loop rate ladder.
//===----------------------------------------------------------------------===

/// One rung of the ladder: an open-loop phase at a fixed offered rate.
struct RungResult {
  double OfferedRps = 0;
  double TailUs = 0; ///< The rung's p99.9 latency.
  uint64_t Requests = 0;
  uint64_t Failed = 0;
  bool BacklogGrew = false;
};

/// A rung meets the limit when its tail is under it, no request failed
/// and the backlog did not grow.
bool rungMeetsSlo(const RungResult &R, double LimitUs);

/// The tail used for interpolation. A failed request or a growing backlog
/// is a miss however low the measured tail was, and counts as at least
/// twice the limit.
double effectiveTailUs(const RungResult &R, double LimitUs);

struct LadderOutcome {
  double RpsAtSlo = 0;
  int LastPass = -1;  ///< Index of the highest passing rung, -1 if none.
  int FirstFail = -1; ///< The failing rung above it, -1 if none.
  /// True when a passing rung and a failing one bracket the knee.
  bool Bracketed = false;
};

/// The highest rate that meets the limit: the highest passing rung,
/// interpolated linearly in (rate, effective tail) towards the failing
/// rung above it. Rungs are in ascending rate order; a failing rung below
/// a passing one (a stray stall) does not end the search. When the top
/// rung passes its rate is returned; when no rung passes the
/// interpolation runs from an idle origin (0 rps, 0 us) to the first.
LadderOutcome interpolateLadder(const std::vector<RungResult> &Rungs,
                                double LimitUs);

/// The backlog check: the median start lag (start minus scheduled send)
/// of the last 1% of a rung's requests, at least 10 of them, exceeds the
/// limit. \p LagNs is in send order.
bool backlogGrew(const std::vector<uint64_t> &LagNs, uint64_t LimitNs);

//===----------------------------------------------------------------------===
// Spans.
//===----------------------------------------------------------------------===

constexpr uint32_t NoParent = UINT32_MAX;

/// One traced interval. Parent indexes the span vector it lives in.
struct Span {
  int64_t Start = 0;
  int64_t End = 0;
  uint32_t Parent = NoParent;
  uint32_t Request = 0; ///< Shared by every span of one request.
  uint8_t Layer = 0;
  uint8_t Thread = 0;
};

/// Length of the part of [Lo, Hi) covered by the union of \p Children,
/// each clipped to [Lo, Hi). Children may overlap and need not be sorted.
int64_t coveredWithin(int64_t Lo, int64_t Hi,
                      std::vector<std::pair<int64_t, int64_t>> Children);

/// Self time summed per layer: each span's duration minus the part of its
/// interval its children cover.
std::vector<int64_t> selfTimeByLayer(const std::vector<Span> &Spans,
                                     unsigned LayerCount);

//===----------------------------------------------------------------------===
// Seeded streams.
//===----------------------------------------------------------------------===

/// The seed of stream \p Stream under benchmark seed \p Seed. Distinct
/// streams of one seed, and one stream under distinct seeds, are
/// decorrelated by a SplitMix64 finalizer.
uint64_t streamSeed(uint64_t Seed, uint64_t Stream);

/// xoshiro256** seeded from streamSeed.
class Stream {
public:
  Stream(uint64_t Seed, uint64_t StreamId);

  uint64_t next();
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Uniform in [0, Bound); Bound > 0.
  uint64_t below(uint64_t Bound);
  double exponential(double Mean);
  /// Poisson-distributed count with mean \p Mean: exact inversion up to
  /// a mean of 30, the normal approximation above it.
  uint64_t poisson(double Mean);

private:
  uint64_t S[4];
};

/// The radioactive-decay law as a death sampler: every live object dies
/// in a unit of time (one allocation) with probability 1 - 2^(-1/h),
/// independently of its age. Among n live objects the number of deaths
/// over u units is binomial(n, 1 - 2^(-u/h)), drawn here as its Poisson
/// limit; which ones die is uniform, by memorylessness.
class DecayDeaths {
public:
  explicit DecayDeaths(double HalfLife);
  /// Deaths among \p Live objects over \p Units allocation units (the
  /// objects allocated in those units are not among them).
  uint64_t deaths(uint64_t Live, uint64_t Units, Stream &Rng) const;

private:
  double HalfLife;
};

} // namespace perfbench

#endif // PERFBENCH_LOGIC_H
