//===- perfbench/probe.cpp - Where do slow decay trials come from? --------===//
//
// Part of the rdgc project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A diagnostic for trial-to-trial variation of the decay workload inside
/// one process. It runs many short closed-loop decay trials and records,
/// for each, the allocation rate, the CPU the mutator started and ended
/// on, the host steal time charged to the CPUs over the trial, and the
/// collections it ran:
///
///   perfbench_probe [--trials N] [--requests R] [--fresh 0|1] [--seed S]
///                   [--gc-threads T]
///
/// --fresh 1 builds a new heap (new storage, so new placement) for every
/// trial; --fresh 0 reuses one heap. Comparing the two, and sorting the
/// trials by CPU and by steal, tells heap placement, core and host
/// preemption apart. --gc-threads overrides the workload's two scavenger
/// threads (0 is the serial path) to compare the parallel scavenger's
/// sensitivity to preemption with the serial one's.
///
//===----------------------------------------------------------------------===//

#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <sched.h>
#include <string>

using namespace perfbench;

namespace {

double processCpuSeconds() {
  timespec T;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &T);
  return static_cast<double>(T.tv_sec) + T.tv_nsec / 1e9;
}

struct Trial {
  double MbPerS;
  double MbPerCpuS; ///< Per second of CPU time the process was charged.
  int CpuStart, CpuEnd;
  double StealMs;
  uint64_t Collections;
};

} // namespace

int main(int Argc, char **Argv) {
  unsigned Trials = 40;
  uint64_t Requests = 2000;
  bool Fresh = false;
  uint64_t Seed = 1;
  int GcThreads = -1;
  for (int A = 1; A + 1 < Argc; A += 2) {
    if (!std::strcmp(Argv[A], "--trials"))
      Trials = static_cast<unsigned>(std::atoi(Argv[A + 1]));
    else if (!std::strcmp(Argv[A], "--requests"))
      Requests = std::strtoull(Argv[A + 1], nullptr, 10);
    else if (!std::strcmp(Argv[A], "--fresh"))
      Fresh = std::atoi(Argv[A + 1]) != 0;
    else if (!std::strcmp(Argv[A], "--seed"))
      Seed = std::strtoull(Argv[A + 1], nullptr, 10);
    else if (!std::strcmp(Argv[A], "--gc-threads"))
      GcThreads = std::atoi(Argv[A + 1]);
  }
  std::unique_ptr<rdgc::Heap> H;
  std::unique_ptr<Workload> W;
  auto Build = [&] {
    W.reset();
    H = makeWorkloadHeap("decay");
    if (GcThreads >= 0)
      H->collector().setGcThreads(static_cast<unsigned>(GcThreads));
    W = makeWorkload("decay", *H, Seed);
    W->setup(0);
  };
  Build();
  std::vector<Trial> All;
  for (unsigned T = 0; T < Trials; ++T) {
    if (Fresh && T > 0)
      Build();
    MutatorLog Log(false, 0);
    uint64_t Words = H->stats().wordsAllocated();
    uint64_t Collections = H->stats().collections();
    double Steal = hostStealSeconds();
    int Cpu = sched_getcpu();
    double CpuStart = processCpuSeconds();
    int64_t Start = nowNs();
    for (uint64_t R = 0; R < Requests; ++R)
      W->serve(0, Log);
    int64_t End = nowNs();
    Trial X;
    double Mb = (H->stats().wordsAllocated() - Words) * 8.0 / 1e6;
    X.MbPerS = Mb / ((End - Start) / 1e9);
    X.MbPerCpuS = Mb / (processCpuSeconds() - CpuStart);
    X.CpuStart = Cpu;
    X.CpuEnd = sched_getcpu();
    X.StealMs = (hostStealSeconds() - Steal) * 1e3;
    X.Collections = H->stats().collections() - Collections;
    All.push_back(X);
    std::printf("trial %3u  %8.1f MB/s  %8.1f MB/cpu-s  cpu %d->%d  steal "
                "%5.0f ms  collections %llu\n",
                T, X.MbPerS, X.MbPerCpuS, X.CpuStart, X.CpuEnd, X.StealMs,
                static_cast<unsigned long long>(X.Collections));
  }
  // Split at the median and compare the halves.
  std::vector<Trial> Sorted = All;
  std::sort(Sorted.begin(), Sorted.end(),
            [](const Trial &A, const Trial &B) { return A.MbPerS < B.MbPerS; });
  size_t Half = Sorted.size() / 2;
  auto Describe = [&](const char *Label, size_t From, size_t To) {
    double Mb = 0, Steal = 0, Collections = 0;
    unsigned Migrated = 0;
    for (size_t I = From; I < To; ++I) {
      Mb += Sorted[I].MbPerS;
      Steal += Sorted[I].StealMs;
      Collections += static_cast<double>(Sorted[I].Collections);
      Migrated += Sorted[I].CpuStart != Sorted[I].CpuEnd;
    }
    double N = static_cast<double>(To - From);
    std::printf("%s half: mean %.1f MB/s, mean steal %.1f ms, mean "
                "collections %.2f, %u of %zu trials changed CPU\n",
                Label, Mb / N, Steal / N, Collections / N, Migrated,
                To - From);
  };
  Describe("slow", 0, Half);
  Describe("fast", Half, Sorted.size());
  return 0;
}
