//===- perfbench/main.cpp - The rdgc benchmark ----------------------------===//
//
// Part of the rdgc project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one workload and prints its metrics as the last line of stdout:
///
///   perfbench --workload decay|tree|sessions --seed N --seconds S
///             --trace 0|1 [--spans PATH]
///
/// A run sets the workload up nine times (setup_s is the median), then
/// measures on the last heap: a closed loop in equal segments, an
/// open-loop ladder of offered rates 1.15x apart, and open-loop segments
/// at two fixed rates. After the measured phases the heap is verified and
/// compared with the workload's shadow. Work is counted in requests, so
/// counts repeat for one seed.
///
/// --trace 0 prints the end-to-end metrics; --trace 1 prints the
/// per-layer ones from a traced repeat of the measured phases, with spans
/// kept in memory and written to --spans at the end. See README.md.
///
//===----------------------------------------------------------------------===//

#include "logic.h"
#include "workloads.h"

#include "heap/HeapVerifier.h"
#include "observe/GcTracer.h"
#include "server/ServerRuntime.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <mutex>
#include <string>

using namespace perfbench;
using namespace rdgc;

namespace {

/// Set-ups per run; setup_s is their median.
constexpr unsigned SetupRuns = 9;
/// The closed loop runs in this many equal segments (throughput is their
/// median) and each fixed rate in this many (latency is their median), so
/// a burst of interference from outside moves one segment, not the
/// result.
constexpr unsigned ClosedSegments = 9;
constexpr unsigned FixedSegments = 3;
/// Open-loop phase lengths, in seconds per second of --seconds: one
/// ladder rung, and one fixed rate (all its segments together).
constexpr double RungShare = 0.032;
constexpr double FixedShare = 0.1;
/// The fewest requests an open-loop phase serves, so that its p99.9 has
/// at least ten samples beyond it.
constexpr uint64_t MinOpenRequests = 12000;

/// The mutator index of the calling thread, -1 off mutator threads; the
/// sink stamps it on each event so a pause can be attributed to the
/// batch that triggered it.
thread_local int CurrentMutator = -1;

/// Captures tracer events in a MemoryTraceSink and stamps each with the
/// time it arrived (the end of the pause) and the mutator it ran on. The
/// tracer calls it from whichever thread collects, so it locks.
class StampedSink final : public TraceSink {
public:
  struct Stamp {
    int64_t EndNs;
    int Mutator;
  };
  void onEvent(const GcTraceEvent &Event) override {
    std::lock_guard<std::mutex> Lock(M);
    Memory.onEvent(Event);
    Stamps.push_back({nowNs(), CurrentMutator});
  }
  /// Read only between phases, after the mutator threads have joined.
  const std::vector<GcTraceEvent> &events() const { return Memory.events(); }
  const std::vector<Stamp> &stamps() const { return Stamps; }
  size_t size() const { return Stamps.size(); }

private:
  std::mutex M;
  MemoryTraceSink Memory;
  std::vector<Stamp> Stamps;
};

using Interval = std::pair<int64_t, int64_t>;

/// A mutator-visible pause: a monolithic collection or one incremental
/// slice (an incremental cycle's aggregate event is not a pause).
bool pauseOf(const GcTraceEvent &E, const StampedSink::Stamp &S,
             Interval &Out) {
  uint64_t Ns = 0;
  if (E.EventType == GcTraceEvent::Type::Collection && E.Slices == 0)
    Ns = E.TotalNanos;
  else if (E.EventType == GcTraceEvent::Type::Slice)
    Ns = E.PauseNanos;
  else
    return false;
  Out = {S.EndNs - static_cast<int64_t>(Ns), S.EndNs};
  return true;
}

/// Sorted, merged union of intervals.
std::vector<Interval> unionOf(std::vector<Interval> V) {
  std::sort(V.begin(), V.end());
  std::vector<Interval> Out;
  for (const Interval &I : V) {
    if (!Out.empty() && I.first <= Out.back().second)
      Out.back().second = std::max(Out.back().second, I.second);
    else
      Out.push_back(I);
  }
  return Out;
}

/// Overlap of [Lo, Hi) with a sorted, merged union.
int64_t overlap(const std::vector<Interval> &Union, int64_t Lo, int64_t Hi) {
  auto It = std::lower_bound(
      Union.begin(), Union.end(), Lo,
      [](const Interval &I, int64_t V) { return I.second <= V; });
  int64_t Sum = 0;
  for (; It != Union.end() && It->first < Hi; ++It)
    Sum += std::min(Hi, It->second) - std::max(Lo, It->first);
  return Sum;
}

/// One open-loop request: when it was due, and how late it started and
/// finished relative to that (saturating at ~4.3 s).
struct RequestRecord {
  int64_t Due;
  uint32_t LagNs;
  uint32_t LatencyNs;
};

uint32_t saturate(int64_t Ns) {
  return static_cast<uint32_t>(std::clamp<int64_t>(Ns, 0, UINT32_MAX));
}

/// An open-loop phase's latency figures.
struct OpenSummary {
  Quantile P50, P999;
  bool Backlog = false;
  uint64_t Requests = 0;
  uint64_t Delayed = 0; ///< Requests a pause overlapped.
};

enum class PhaseKind { Closed, Rung, Low, High };

/// Everything one measured phase produced.
struct Phase {
  PhaseKind Kind = PhaseKind::Closed;
  std::string Name;
  double OfferedRps = 0;
  int64_t StartNs = 0, EndNs = 0;
  size_t EventBegin = 0, EventEnd = 0;
  uint64_t WordsAllocated = 0, WordsTraced = 0, Rendezvous = 0;
  uint64_t Attempted = 0, Served = 0;
  std::vector<MutatorLog> Logs;
  OpenSummary Open;            ///< Open-loop phases only.
  std::vector<uint32_t> LagNs; ///< Traced open-loop phases only.
};

/// One fully set-up workload instance. Members are destroyed in reverse:
/// the workload (its roots) before the runtime, the heap before the
/// tracer and sink it reports to.
struct Instance {
  StampedSink Sink;
  GcTracer Tracer;
  std::unique_ptr<Heap> H;
  std::unique_ptr<ServerRuntime> RT;
  std::unique_ptr<Workload> W;
};

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  unsigned Seconds = 10;
  bool Trace = false;
  std::string SpansPath;
};

double medianOf(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  if (N == 0)
    return 0;
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

double peakRssMb() {
  std::ifstream Status("/proc/self/status");
  std::string Line;
  while (std::getline(Status, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  return 0;
}

/// What the measured phases add up to; both printers start from it.
struct Results {
  std::vector<uint64_t> PauseNs; ///< Pooled, sorted.
  Quantile PauseP50, PauseP99;
  double MarkCons = 0;
  double ThroughputMbS = 0; ///< Median over the closed-loop segments.
  double PeakRssMb = 0;     ///< After set-up and the closed loop.
  LadderOutcome Ladder;
  ModelCheck Model;
  struct Fixed {
    double P50Us = 0, P999Us = 0; ///< Medians over the segments.
    uint64_t MinBeyond = 0;
    double DelayedShare = 0;
  } Low, High;
};

class Runner {
public:
  Runner(const Options &Opts, const WorkloadConfig &Config)
      : Opts(Opts), Config(Config) {}

  int run();

private:
  bool setupOnce(std::unique_ptr<Instance> &Out, double &Seconds);
  Phase closedPhase(const char *Name, uint64_t Requests, bool Trace);
  Phase openPhase(PhaseKind Kind, const std::string &Name, double Rps,
                  uint64_t Requests, unsigned StreamIndex);
  void beginPhase(Phase &P);
  void endPhase(Phase &P);
  std::vector<Interval> pauses(const Phase &P) const;
  OpenSummary summarizeOpen(const Phase &P,
                            const std::vector<RequestRecord> &Requests) const;
  Results summarize(const std::vector<Phase> &Phases, uint64_t ReachableWords);
  void printEndToEnd(const Results &R, double SetupSeconds);
  void printPerLayer(std::vector<Phase> &Phases, const Results &R,
                     double OverheadPct);
  void emit(const char *Name, double Value, const char *Unit);
  uint64_t openRequests(double Rps, double Seconds) const {
    return std::max<uint64_t>(MinOpenRequests,
                              static_cast<uint64_t>(Rps * Seconds));
  }

  const Options &Opts;
  const WorkloadConfig &Config;
  std::unique_ptr<Instance> I;
  uint64_t Attempted = 0, Failed = 0;
  bool Correct = true;
  std::string Metrics;
};

void Runner::emit(const char *Name, double Value, const char *Unit) {
  char Buf[256];
  std::snprintf(Buf, sizeof Buf,
                "%s\"%s\": {\"value\": %.15g, \"unit\": \"%s\"}",
                Metrics.empty() ? "" : ", ", Name, Value, Unit);
  Metrics += Buf;
  std::printf("metric %-36s %16.6f %s\n", Name, Value, Unit);
}

bool Runner::setupOnce(std::unique_ptr<Instance> &Out, double &Seconds) {
  Out.reset();
  int64_t Start = nowNs();
  auto Inst = std::make_unique<Instance>();
  Inst->H = makeWorkloadHeap(Config.Name);
  // The tracer is the only source of per-pause durations, so every run
  // attaches it; the occupancy timeline is not wanted.
  Inst->Tracer.addSink(&Inst->Sink);
  Inst->Tracer.setOccupancyIntervalBytes(UINT64_MAX / 2);
  Inst->H->setTracer(&Inst->Tracer);
  Inst->RT = std::make_unique<ServerRuntime>(*Inst->H, Config.Mutators);
  Inst->W = makeWorkload(Config.Name, *Inst->H, Opts.Seed);
  std::vector<char> Ok(Config.Mutators, 0);
  Inst->RT->run([&](unsigned M) {
    CurrentMutator = static_cast<int>(M);
    Ok[M] = Inst->W->setup(M);
    CurrentMutator = -1;
  });
  Seconds = static_cast<double>(nowNs() - Start) / 1e9;
  Out = std::move(Inst);
  return std::all_of(Ok.begin(), Ok.end(), [](char C) { return C != 0; });
}

void Runner::beginPhase(Phase &P) {
  if (Config.CollectBetweenPhases)
    I->H->collectFullNow();
  P.EventBegin = I->Sink.size();
  P.WordsAllocated = I->H->stats().wordsAllocated();
  P.WordsTraced = I->H->stats().wordsTraced();
  P.Rendezvous = I->RT->safepoints().rendezvousCount();
}

void Runner::endPhase(Phase &P) {
  P.EventEnd = I->Sink.size();
  P.WordsAllocated = I->H->stats().wordsAllocated() - P.WordsAllocated;
  P.WordsTraced = I->H->stats().wordsTraced() - P.WordsTraced;
  P.Rendezvous = I->RT->safepoints().rendezvousCount() - P.Rendezvous;
  if (I->H->lastFault() != HeapFault::None)
    I->H->clearFault();
  // A request that failed, or was never served because its mutator gave
  // up after a failure, counts against the attempts.
  Attempted += P.Attempted;
  Failed += P.Attempted - P.Served;
}

Phase Runner::closedPhase(const char *Name, uint64_t Requests, bool Trace) {
  Phase P;
  P.Name = Name;
  const unsigned Mutators = Config.Mutators;
  for (unsigned M = 0; M < Mutators; ++M)
    P.Logs.emplace_back(Trace, static_cast<uint8_t>(M));
  std::vector<uint64_t> Served(Mutators, 0);
  const uint64_t PerMutator = Requests / Mutators;
  P.Attempted = PerMutator * Mutators;
  beginPhase(P);
  P.StartNs = nowNs();
  I->RT->run([&](unsigned M) {
    CurrentMutator = static_cast<int>(M);
    MutatorLog &Log = P.Logs[M];
    Log.beginRun();
    for (uint64_t R = 0; R < PerMutator && I->W->serve(M, Log); ++R)
      ++Served[M];
    Log.endRun();
    CurrentMutator = -1;
  });
  P.EndNs = nowNs();
  for (uint64_t S : Served)
    P.Served += S;
  endPhase(P);
  return P;
}

Phase Runner::openPhase(PhaseKind Kind, const std::string &Name, double Rps,
                        uint64_t Requests, unsigned StreamIndex) {
  Phase P;
  P.Kind = Kind;
  P.Name = Name;
  P.OfferedRps = Rps;
  const unsigned Mutators = Config.Mutators;
  for (unsigned M = 0; M < Mutators; ++M)
    P.Logs.emplace_back(Opts.Trace, static_cast<uint8_t>(M));
  const uint64_t PerMutator = Requests / Mutators;
  P.Attempted = PerMutator * Mutators;
  std::vector<std::vector<RequestRecord>> Records(Mutators);
  for (auto &R : Records)
    R.reserve(PerMutator);
  // Each mutator follows its own Poisson schedule at 1/Mutators of the
  // offered rate, drawn from a stream of the seed, the phase and the
  // mutator, so the schedule repeats for one seed.
  const double MeanGapNs = 1e9 * Mutators / Rps;
  beginPhase(P);
  const int64_t Start = nowNs() + 2'000'000;
  P.StartNs = Start;
  I->RT->run([&](unsigned M) {
    CurrentMutator = static_cast<int>(M);
    Stream Schedule(Opts.Seed, 1000 + 16 * StreamIndex + M);
    MutatorLog &Log = P.Logs[M];
    std::vector<RequestRecord> &Out = Records[M];
    Log.beginRun();
    double Due = static_cast<double>(Start);
    for (uint64_t R = 0; R < PerMutator; ++R) {
      Due += Schedule.exponential(MeanGapNs);
      const int64_t DueNs = static_cast<int64_t>(Due);
      // Idle until the send time with the safepoint poll reachable, so an
      // idle mutator never holds up a rendezvous.
      while (nowNs() < DueNs)
        I->RT->safepoints().pollPark();
      int64_t Begin = nowNs();
      if (!I->W->serve(M, Log))
        break;
      Out.push_back(
          {DueNs, saturate(Begin - DueNs), saturate(nowNs() - DueNs)});
    }
    Log.endRun();
    CurrentMutator = -1;
  });
  P.EndNs = nowNs();
  std::vector<RequestRecord> All;
  for (const auto &R : Records)
    All.insert(All.end(), R.begin(), R.end());
  P.Served = All.size();
  endPhase(P);
  std::sort(All.begin(), All.end(),
            [](const RequestRecord &A, const RequestRecord &B) {
              return A.Due < B.Due;
            });
  P.Open = summarizeOpen(P, All);
  if (Opts.Trace)
    for (const RequestRecord &R : All)
      P.LagNs.push_back(R.LagNs);
  std::printf("phase %-8s offered %9.0f rps  requests %7" PRIu64
              "  failed %" PRIu64 "  p50 %9.1f us  p99.9 %9.1f us (%" PRIu64
              " beyond)  backlog %s  pause-delayed %.4f\n",
              P.Name.c_str(), Rps, P.Served, P.Attempted - P.Served,
              P.Open.P50.Value / 1e3, P.Open.P999.Value / 1e3,
              P.Open.P999.Beyond, P.Open.Backlog ? "grew" : "steady",
              P.Open.Requests ? double(P.Open.Delayed) / P.Open.Requests : 0);
  return P;
}

std::vector<Interval> Runner::pauses(const Phase &P) const {
  std::vector<Interval> Out;
  Interval Pause;
  for (size_t E = P.EventBegin; E < P.EventEnd; ++E)
    if (pauseOf(I->Sink.events()[E], I->Sink.stamps()[E], Pause))
      Out.push_back(Pause);
  return Out;
}

OpenSummary
Runner::summarizeOpen(const Phase &P,
                      const std::vector<RequestRecord> &Requests) const {
  OpenSummary S;
  std::vector<uint64_t> Latency, Lag;
  Latency.reserve(Requests.size());
  Lag.reserve(Requests.size());
  auto Union = unionOf(pauses(P));
  for (const RequestRecord &R : Requests) {
    Latency.push_back(R.LatencyNs);
    Lag.push_back(R.LagNs);
    if (overlap(Union, R.Due, R.Due + R.LatencyNs) > 0)
      ++S.Delayed;
  }
  S.Requests = Requests.size();
  S.Backlog = backlogGrew(Lag, static_cast<uint64_t>(Config.LimitUs * 1000));
  std::sort(Latency.begin(), Latency.end());
  S.P50 = nearestRank(Latency, 50);
  S.P999 = nearestRank(Latency, 99.9);
  return S;
}

Results Runner::summarize(const std::vector<Phase> &Phases,
                          uint64_t ReachableWords) {
  Results R;
  uint64_t Allocated = 0, Traced = 0;
  std::vector<double> ClosedMbS;
  std::vector<RungResult> Rungs;
  std::vector<double> P50s[2], P999s[2];
  uint64_t Delayed[2] = {}, Requests[2] = {};
  uint64_t MinBeyond[2] = {UINT64_MAX, UINT64_MAX};
  for (const Phase &P : Phases) {
    for (const auto &[Lo, Hi] : pauses(P))
      R.PauseNs.push_back(static_cast<uint64_t>(Hi - Lo));
    Allocated += P.WordsAllocated;
    Traced += P.WordsTraced;
    const OpenSummary &S = P.Open;
    switch (P.Kind) {
    case PhaseKind::Closed: {
      double Seconds = (P.EndNs - P.StartNs) / 1e9;
      ClosedMbS.push_back(Seconds > 0 ? P.WordsAllocated * 8 / 1e6 / Seconds
                                      : 0);
      break;
    }
    case PhaseKind::Rung:
      Rungs.push_back({P.OfferedRps, S.P999.Value / 1e3, P.Served,
                       P.Attempted - P.Served, S.Backlog});
      break;
    case PhaseKind::Low:
    case PhaseKind::High: {
      int K = P.Kind == PhaseKind::High;
      P50s[K].push_back(S.P50.Value / 1e3);
      P999s[K].push_back(S.P999.Value / 1e3);
      MinBeyond[K] = std::min(MinBeyond[K], S.P999.Beyond);
      Delayed[K] += S.Delayed;
      Requests[K] += S.Requests;
      break;
    }
    }
  }
  std::sort(R.PauseNs.begin(), R.PauseNs.end());
  R.PauseP50 = nearestRank(R.PauseNs, 50);
  R.PauseP99 = nearestRank(R.PauseNs, 99);
  R.MarkCons = Allocated ? static_cast<double>(Traced) / Allocated : 0;
  R.ThroughputMbS = medianOf(ClosedMbS);
  R.Ladder = interpolateLadder(Rungs, Config.LimitUs);
  Results::Fixed *Out[2] = {&R.Low, &R.High};
  for (int K = 0; K < 2; ++K) {
    Out[K]->P50Us = medianOf(P50s[K]);
    Out[K]->P999Us = medianOf(P999s[K]);
    Out[K]->MinBeyond = MinBeyond[K];
    Out[K]->DelayedShare =
        Requests[K] ? static_cast<double>(Delayed[K]) / Requests[K] : 0;
  }

  std::printf("pauses %zu pooled: p50 %.1f us (%" PRIu64 " beyond), p99 %.1f "
              "us (%" PRIu64 " beyond)%s\n",
              R.PauseNs.size(), R.PauseP50.Value / 1e3, R.PauseP50.Beyond,
              R.PauseP99.Value / 1e3, R.PauseP99.Beyond,
              hasTail(R.PauseP99) ? "" : "  [fewer than 10 beyond p99]");
  std::printf("ladder: highest pass %d, failing rung above it %d, %s, "
              "rps_at_slo %.1f (limit %.0f us on p99.9)\n",
              R.Ladder.LastPass, R.Ladder.FirstFail,
              R.Ladder.Bracketed ? "bracketed" : "NOT bracketed",
              R.Ladder.RpsAtSlo, Config.LimitUs);
  const char *Labels[2] = {"low", "high"};
  for (int K = 0; K < 2; ++K)
    std::printf("fixed %-4s %.0f rps: median over %zu segments p50 %.1f us, "
                "p99.9 %.1f us (at least %" PRIu64 " beyond in each); a pause "
                "delayed %.4f of requests%s\n",
                Labels[K], K ? Config.HighRps : Config.LowRps, P50s[K].size(),
                Out[K]->P50Us, Out[K]->P999Us, Out[K]->MinBeyond,
                Out[K]->DelayedShare,
                Out[K]->MinBeyond < 10 ? "  [fewer than 10 beyond p99.9]"
                                       : "");
  R.Model = I->W->model(R.MarkCons, ReachableWords);
  if (!R.Model.Report.empty())
    std::printf("%s\n", R.Model.Report.c_str());
  if (!R.Model.InBand) {
    std::printf("mark/cons outside the model band\n");
    Correct = false;
  }
  return R;
}

int Runner::run() {
  // Set up several times on fresh heaps; measure on the last one.
  std::vector<double> SetupTimes;
  for (unsigned Rep = 0; Rep < SetupRuns; ++Rep) {
    double Seconds = 0;
    if (!setupOnce(I, Seconds)) {
      std::printf("setup failed\n");
      Correct = false;
    }
    SetupTimes.push_back(Seconds);
  }
  const double SetupSeconds = medianOf(SetupTimes);
  const Collector &Coll = I->H->collector();
  std::printf("config heap: collector=%s remset=%s gc_threads=%u "
              "heap_bytes=%zu\n",
              Coll.name(), Coll.remsetBackendName(), Coll.gcThreads(),
              Coll.capacityWords() * 8);
  std::printf("setup_s samples");
  for (double T : SetupTimes)
    std::printf(" %.4f", T);
  std::printf("\n");

  const double HostStealBefore = hostStealSeconds();
  const uint64_t Closed =
      Config.ClosedRequestsPerSecond * Opts.Seconds / ClosedSegments;
  std::vector<Phase> Phases;
  double OverheadPct = 0;
  if (Opts.Trace) {
    // The same closed-loop work untraced and traced: the difference in
    // wall time is the tracing overhead.
    int64_t PlainNs = 0, TracedNs = 0;
    for (unsigned K = 0; K < ClosedSegments; ++K) {
      Phase Plain = closedPhase("untraced", Closed, false);
      PlainNs += Plain.EndNs - Plain.StartNs;
    }
    for (unsigned K = 0; K < ClosedSegments; ++K) {
      Phases.push_back(closedPhase("closed", Closed, true));
      TracedNs += Phases.back().EndNs - Phases.back().StartNs;
    }
    OverheadPct =
        PlainNs > 0 ? (double(TracedNs) / PlainNs - 1.0) * 100.0 : 0;
  } else {
    for (unsigned K = 0; K < ClosedSegments; ++K)
      Phases.push_back(closedPhase("closed", Closed, false));
  }
  // Peak RSS is read here, before the open-loop phases: their request
  // records grow with the number of rungs a run climbs, which would make
  // the benchmark's own bookkeeping part of the figure.
  const double PeakRssAfterClosed = peakRssMb();
  std::printf("closed loop: %u segments of %" PRIu64 " requests, seconds",
              ClosedSegments, Closed);
  for (const Phase &P : Phases)
    std::printf(" %.3f", (P.EndNs - P.StartNs) / 1e9);
  std::printf("\n");

  // The ladder climbs until two rungs in a row miss the limit, so one
  // stray stall cannot end it below the knee.
  unsigned Stream = 0, Misses = 0;
  for (double Rps : Config.LadderRps) {
    std::string Name = "rung" + std::to_string(Stream);
    Phases.push_back(openPhase(PhaseKind::Rung, Name, Rps,
                               openRequests(Rps, RungShare * Opts.Seconds),
                               Stream++));
    const Phase &P = Phases.back();
    bool Pass = rungMeetsSlo({Rps, P.Open.P999.Value / 1e3, P.Served,
                              P.Attempted - P.Served, P.Open.Backlog},
                             Config.LimitUs);
    Misses = Pass ? 0 : Misses + 1;
    if (Misses == 2)
      break;
  }
  for (PhaseKind Kind : {PhaseKind::Low, PhaseKind::High}) {
    double Rps = Kind == PhaseKind::Low ? Config.LowRps : Config.HighRps;
    double Seconds = FixedShare * Opts.Seconds / FixedSegments;
    for (unsigned K = 0; K < FixedSegments; ++K)
      Phases.push_back(openPhase(Kind, Kind == PhaseKind::Low ? "low" : "high",
                                 Rps, openRequests(Rps, Seconds), Stream++));
  }
  std::printf("host steal during the measured phases: %.2f s over all CPUs\n",
              hostStealSeconds() - HostStealBefore);

  // Correctness, outside every timed region: the heap verifier, then the
  // workload's shadow comparison.
  HeapVerification V = verifyHeap(*I->H);
  std::printf("verifier %s: %" PRIu64 " objects, %" PRIu64 " words%s%s\n",
              V.Ok ? "ok" : "FAILED", V.ObjectsVisited, V.WordsVisited,
              V.Ok ? "" : ": ", V.FirstProblem.c_str());
  CheckResult C = I->W->check();
  std::printf("check %s, checksum %016" PRIx64 "%s%s\n",
              C.Ok ? "ok" : "FAILED", C.Checksum, C.Ok ? "" : ": ",
              C.Problem.c_str());
  uint64_t Exhaustions = I->H->stats().heapExhaustions();
  Failed += Exhaustions + (V.Ok ? 0 : 1) + (C.Ok ? 0 : 1);

  Results R = summarize(Phases, V.WordsVisited);
  R.PeakRssMb = PeakRssAfterClosed;
  if (Opts.Trace)
    printPerLayer(Phases, R, OverheadPct);
  else
    printEndToEnd(R, SetupSeconds);

  if (Failed != 0)
    Correct = false;
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {%s}}\n",
              Correct ? "true" : "false", std::max<uint64_t>(Attempted, 1),
              Failed, Metrics.c_str());
  return 0;
}

void Runner::printEndToEnd(const Results &R, double SetupSeconds) {
  emit("throughput_mb_s", R.ThroughputMbS, "MB/s");
  emit("pause_p50_us", R.PauseP50.Value / 1e3, "us");
  emit("mark_cons", R.MarkCons, "ratio");
  emit("peak_rss_mb", R.PeakRssMb, "MB");
  emit("setup_s", SetupSeconds, "s");
}

void Runner::printPerLayer(std::vector<Phase> &Phases, const Results &R,
                           double OverheadPct) {
  const bool Server = !I->RT->passthrough();
  // Merge every mutator's spans, then add each pause as a gc span under
  // the allocation batch (on the collecting thread) it fell in.
  std::vector<Interval> AllPauses;
  std::vector<Span> Spans;
  std::vector<std::vector<uint32_t>> AllocSpansByThread(Config.Mutators);
  uint64_t AllocCalls = 0, BarrierCalls = 0, Rendezvous = 0;
  uint64_t Attempts = 0, Fails = 0;
  std::vector<uint64_t> ServiceNs, LagNs;
  for (Phase &P : Phases) {
    auto Ps = pauses(P);
    AllPauses.insert(AllPauses.end(), Ps.begin(), Ps.end());
    Rendezvous += P.Rendezvous;
    Attempts += P.Attempted;
    Fails += P.Attempted - P.Served;
    LagNs.insert(LagNs.end(), P.LagNs.begin(), P.LagNs.end());
    for (MutatorLog &Log : P.Logs) {
      AllocCalls += Log.AllocCalls;
      BarrierCalls += Log.BarrierCalls;
      uint32_t Base = static_cast<uint32_t>(Spans.size());
      for (Span S : Log.Spans) {
        if (S.Parent != NoParent)
          S.Parent += Base;
        if (S.Layer == LayerAlloc)
          AllocSpansByThread[S.Thread].push_back(
              static_cast<uint32_t>(Spans.size()));
        if (S.Layer == LayerRequest)
          ServiceNs.push_back(static_cast<uint64_t>(S.End - S.Start));
        Spans.push_back(S);
      }
      Log.Spans.clear();
      Log.Spans.shrink_to_fit();
    }
  }
  auto PauseUnion = unionOf(AllPauses);

  // GC events of the traced phases, summed per field.
  std::map<std::string, uint64_t> Kinds;
  uint64_t WordsTraced = 0, WordsReclaimed = 0, Roots = 0, CardsScanned = 0,
           CardsDirty = 0, Collections = 0;
  uint64_t PhaseNs[GcPhaseCount] = {};
  uint64_t Steals = 0, StealFails = 0, IdleNs = 0, PlabWaste = 0;
  double ImbalanceSum = 0;
  uint64_t ParallelCycles = 0;
  for (const Phase &P : Phases)
    for (size_t E = P.EventBegin; E < P.EventEnd; ++E) {
      const GcTraceEvent &Ev = I->Sink.events()[E];
      const StampedSink::Stamp &St = I->Sink.stamps()[E];
      Interval Pause;
      if (pauseOf(Ev, St, Pause)) {
        Span G;
        G.Start = Pause.first;
        G.End = Pause.second;
        G.Layer = LayerGc;
        if (St.Mutator >= 0) {
          G.Thread = static_cast<uint8_t>(St.Mutator);
          const auto &Candidates = AllocSpansByThread[St.Mutator];
          auto It = std::upper_bound(
              Candidates.begin(), Candidates.end(), St.EndNs,
              [&](int64_t T, uint32_t Idx) { return T < Spans[Idx].Start; });
          if (It != Candidates.begin() && Spans[*(It - 1)].End >= St.EndNs) {
            G.Parent = *(It - 1);
            G.Request = Spans[G.Parent].Request;
          }
        }
        Spans.push_back(G);
      }
      if (Ev.EventType != GcTraceEvent::Type::Collection)
        continue;
      ++Collections;
      ++Kinds[Ev.KindClass];
      WordsTraced += Ev.WordsTraced;
      WordsReclaimed += Ev.WordsReclaimed;
      Roots += Ev.RootsScanned;
      CardsScanned += Ev.CardsScanned;
      CardsDirty += Ev.CardsDirty;
      for (unsigned K = 0; K < GcPhaseCount; ++K)
        PhaseNs[K] += Ev.Phases.Nanos[K];
      if (!Ev.Workers.empty()) {
        uint64_t Max = 0, Sum = 0;
        for (const GcWorkerCycleStats &W : Ev.Workers) {
          Steals += W.Steals;
          StealFails += W.StealFails;
          IdleNs += W.IdleNanos;
          PlabWaste += W.PlabWasteWords;
          Max = std::max(Max, W.WordsCopied);
          Sum += W.WordsCopied;
        }
        if (Sum) {
          ImbalanceSum += static_cast<double>(Max) * Ev.Workers.size() / Sum;
          ++ParallelCycles;
        }
      }
    }

  // Allocation and barrier batch time with pauses subtracted.
  int64_t AllocNs = 0, BarrierNs = 0;
  for (const Span &S : Spans) {
    if (S.Layer == LayerAlloc)
      AllocNs += (S.End - S.Start) - overlap(PauseUnion, S.Start, S.End);
    else if (S.Layer == LayerBarrier)
      BarrierNs += (S.End - S.Start) - overlap(PauseUnion, S.Start, S.End);
  }

  std::vector<int64_t> Self = selfTimeByLayer(Spans, LayerCount);
  int64_t SelfTotal = 0;
  for (int64_t T : Self)
    SelfTotal += T;
  std::printf("spans %zu; self time by layer:\n", Spans.size());
  for (unsigned L = 0; L < LayerCount; ++L)
    std::printf("  %-8s %12.3f ms  %6.2f%%\n", layerName(L), Self[L] / 1e6,
                SelfTotal ? 100.0 * Self[L] / SelfTotal : 0.0);
  if (!Opts.SpansPath.empty()) {
    if (std::FILE *F = std::fopen(Opts.SpansPath.c_str(), "w")) {
      // One line a span; its line number (from 0) is its id, and times
      // are nanoseconds from the first span.
      const int64_t Origin = Spans.empty() ? 0 : Spans.front().Start;
      std::fprintf(F, "parent\trequest\tthread\tlayer\tstart_ns\tend_ns\n");
      for (const Span &S : Spans)
        std::fprintf(F, "%lld\t%u\t%u\t%s\t%" PRId64 "\t%" PRId64 "\n",
                     S.Parent == NoParent ? -1LL : (long long)S.Parent,
                     S.Request, S.Thread, layerName(S.Layer),
                     S.Start - Origin, S.End - Origin);
      std::fclose(F);
      std::printf("spans written to %s\n", Opts.SpansPath.c_str());
    }
  }

  const GcStats &St = I->H->stats();
  std::sort(ServiceNs.begin(), ServiceNs.end());
  std::sort(LagNs.begin(), LagNs.end());

  emit("heap.alloc_calls", AllocCalls, "count");
  emit("heap.alloc_ns_per_call", AllocCalls ? double(AllocNs) / AllocCalls : 0,
       "ns");
  emit("heap.barrier_calls", BarrierCalls, "count");
  emit("heap.barrier_ns_per_call",
       BarrierCalls ? double(BarrierNs) / BarrierCalls : 0, "ns");
  emit("heap.barrier_hits", St.barrierHits(), "count");
  emit("heap.remset_inserts", St.rememberedSetInserts(), "count");
  emit("heap.growths", St.heapGrowths(), "count");
  emit("heap.emergency_full", St.emergencyFullCollections(), "count");
  emit("heap.exhaustions", St.heapExhaustions(), "count");
  emit("gc.collections.minor", Kinds["minor"], "count");
  emit("gc.collections.major", Kinds["major"], "count");
  emit("gc.collections.full", Kinds["full"], "count");
  emit("gc.words_traced", WordsTraced, "words");
  emit("gc.words_reclaimed", WordsReclaimed, "words");
  emit("gc.roots_scanned", Roots, "count");
  emit("gc.root_scan_ns", PhaseNs[0], "ns");
  emit("gc.remset_scan_ns", PhaseNs[1], "ns");
  emit("gc.trace_ns", PhaseNs[2], "ns");
  emit("gc.sweep_ns", PhaseNs[3], "ns");
  emit("gc.cards_scanned", CardsScanned, "count");
  emit("gc.cards_dirty", CardsDirty, "count");
  emit("gc.card_yield", CardsScanned ? double(CardsDirty) / CardsScanned : 0,
       "ratio");
  emit("gc.remset_scan_ns_per_dirty_card",
       CardsDirty ? double(PhaseNs[1]) / CardsDirty : 0, "ns");
  emit("gc.pause_p99_us", R.PauseP99.Value / 1e3, "us");
  emit("model.mark_cons_vs_theorem4", R.Model.Ratio, "ratio");
  emit("parallel.steals", Steals, "count");
  emit("parallel.steal_fail_share",
       Steals + StealFails ? double(StealFails) / (Steals + StealFails) : 0,
       "ratio");
  emit("parallel.idle_ns", IdleNs, "ns");
  emit("parallel.plab_waste_words", PlabWaste, "words");
  emit("parallel.worker_imbalance",
       ParallelCycles ? ImbalanceSum / ParallelCycles : 0, "ratio");
  emit("server.rendezvous", Server ? Rendezvous : 0, "count");
  emit("server.collections_per_rendezvous",
       Server && Rendezvous ? double(Collections) / Rendezvous : 0, "ratio");
  emit("server.alloc_wait_ns", Server ? AllocNs : 0, "ns");
  emit("server.request_service_us",
       Server ? nearestRank(ServiceNs, 50).Value / 1e3 : 0, "us");
  emit("server.generator_lag_us.p99",
       Server ? nearestRank(LagNs, 99).Value / 1e3 : 0, "us");
  emit("requests.attempted", Attempts, "count");
  emit("requests.failed", Fails, "count");
  emit("requests.rps_at_slo", R.Ladder.RpsAtSlo, "1/s");
  emit("requests.latency_p50_us.low", R.Low.P50Us, "us");
  emit("requests.latency_p999_us.low", R.Low.P999Us, "us");
  emit("requests.latency_p50_us.high", R.High.P50Us, "us");
  emit("requests.latency_p999_us.high", R.High.P999Us, "us");
  emit("trace.overhead_pct", OverheadPct, "%");
}

/// Variables the Heap reads at construction; any of them would silently
/// change the measured program.
const char *const RefusedEnvironment[] = {
    "RDGC_GC_THREADS", "RDGC_REMSET",     "RDGC_INCREMENTAL_BUDGET_US",
    "RDGC_TORTURE",    "RDGC_TRACE",      "RDGC_FAULT_PLAN",
    "RDGC_WATCHDOG_US"};

bool parseArgs(int Argc, char **Argv, Options &Opts) {
  for (int A = 1; A + 1 < Argc; A += 2) {
    std::string Key = Argv[A], Value = Argv[A + 1];
    if (Key == "--workload")
      Opts.Workload = Value;
    else if (Key == "--seed")
      Opts.Seed = std::strtoull(Value.c_str(), nullptr, 10);
    else if (Key == "--seconds")
      Opts.Seconds =
          static_cast<unsigned>(std::strtoul(Value.c_str(), nullptr, 10));
    else if (Key == "--trace")
      Opts.Trace = Value == "1";
    else if (Key == "--spans")
      Opts.SpansPath = Value;
    else
      return false;
  }
  return Argc % 2 == 1 && !Opts.Workload.empty() && Opts.Seconds > 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts;
  if (!parseArgs(Argc, Argv, Opts)) {
    std::fprintf(stderr, "usage: perfbench --workload NAME --seed N "
                         "--seconds S --trace 0|1 [--spans PATH]\n");
    return 2;
  }
  bool Refuse = false;
  for (const char *Var : RefusedEnvironment)
    if (std::getenv(Var)) {
      std::fprintf(stderr, "perfbench: refusing to run with %s set\n", Var);
      Refuse = true;
    }
  if (Refuse)
    return 2;
  const WorkloadConfig *Config = findWorkload(Opts.Workload);
  if (!Config) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 Opts.Workload.c_str());
    return 2;
  }
  std::string Rates;
  for (double R : Config->LadderRps)
    Rates += (Rates.empty() ? "" : ",") + std::to_string(static_cast<long>(R));
  std::printf(
      "config workload=%s seed=%" PRIu64 " seconds=%u trace=%d\n"
      "config collector parameters: %s\n"
      "config mutators=%u live_bytes=%" PRIu64 "\n"
      "config request: %s\n"
      "config closed loop: %" PRIu64 " requests in %u segments\n"
      "config open loop: ladder_rps=%s, %.2f s a rung; low_rps=%.0f and "
      "high_rps=%.0f, %u segments of %.2f s; at least %" PRIu64
      " requests a phase; limit_us=%.0f on p99.9\n",
      Config->Name.c_str(), Opts.Seed, Opts.Seconds, Opts.Trace ? 1 : 0,
      Config->Collector.c_str(), Config->Mutators, Config->LiveBytes,
      Config->Request.c_str(), Config->ClosedRequestsPerSecond * Opts.Seconds,
      ClosedSegments, Rates.c_str(), RungShare * Opts.Seconds, Config->LowRps,
      Config->HighRps, FixedSegments, FixedShare * Opts.Seconds / FixedSegments,
      MinOpenRequests, Config->LimitUs);
  std::fflush(stdout);
  Runner R(Opts, *Config);
  return R.run();
}
