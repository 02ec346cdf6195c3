//===- perfbench/workloads.h - The benchmark's workloads --------*- C++ -*-===//
//
// Part of the rdgc project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three workloads (decay, tree, sessions) behind one interface, and
/// the per-mutator log that times a request's allocation and barrier
/// batches when the run is traced. A workload owns its live set's roots
/// and a shadow of what the heap must hold, which check() compares
/// against the heap after the measured phase.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "logic.h"

#include "heap/Heap.h"

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// Span layers, outermost first.
enum Layer : uint8_t {
  LayerRun,
  LayerRequest,
  LayerAlloc,
  LayerBarrier,
  LayerGc,
  LayerCount
};

const char *layerName(unsigned L);

/// Nanoseconds on the steady clock since the process's first call.
int64_t nowNs();

/// Host steal time so far, summed over every CPU (from /proc/stat): time
/// the hypervisor ran something else while a CPU of this machine had work.
double hostStealSeconds();

/// What one mutator thread recorded. Untraced runs only count calls;
/// traced runs also keep a span per run phase, request and batch.
class MutatorLog {
public:
  MutatorLog(bool Trace, uint8_t Thread) : Trace(Trace), Thread(Thread) {}

  void beginRun() {
    if (Trace)
      RunSpan = open(LayerRun, NoParent);
  }
  void endRun() {
    if (Trace)
      Spans[RunSpan].End = nowNs();
  }
  void beginRequest() {
    ++RequestId;
    if (Trace)
      RequestSpan = open(LayerRequest, RunSpan);
  }
  void endRequest() {
    if (Trace)
      Spans[RequestSpan].End = nowNs();
  }

  /// Runs \p Body, which makes \p Calls allocation calls, as one batch.
  template <class F> bool allocBatch(uint64_t Calls, F &&Body) {
    AllocCalls += Calls;
    return batch(LayerAlloc, Body);
  }
  /// Runs \p Body, which makes \p Calls barriered setter calls.
  template <class F> bool barrierBatch(uint64_t Calls, F &&Body) {
    BarrierCalls += Calls;
    return batch(LayerBarrier, Body);
  }

  uint64_t AllocCalls = 0;
  uint64_t BarrierCalls = 0;
  std::vector<Span> Spans;

private:
  uint32_t open(Layer L, uint32_t Parent) {
    Span S;
    S.Start = nowNs();
    S.End = S.Start;
    S.Parent = Parent;
    S.Request = RequestId;
    S.Layer = L;
    S.Thread = Thread;
    Spans.push_back(S);
    return static_cast<uint32_t>(Spans.size() - 1);
  }
  template <class F> bool batch(Layer L, F &Body) {
    if (!Trace)
      return Body();
    uint32_t Index = open(L, RequestSpan);
    bool Ok = Body();
    Spans[Index].End = nowNs();
    return Ok;
  }

  bool Trace;
  uint8_t Thread;
  uint32_t RunSpan = NoParent;
  uint32_t RequestSpan = NoParent;
  uint32_t RequestId = 0;
};

/// A workload's fixed configuration. It is printed before the run, with
/// what the built heap reports about itself, so a result names the exact
/// program it measured.
struct WorkloadConfig {
  std::string Name;
  std::string Collector; ///< Collector parameters beyond what it reports.
  unsigned Mutators = 1;
  uint64_t LiveBytes = 0; ///< Intended steady-state live set.
  std::string Request;    ///< What one request does.
  /// Open-loop phases: ladder rungs (total offered requests/s, ascending,
  /// at most 1.25x apart), the two fixed rates, and the p99.9 limit.
  std::vector<double> LadderRps;
  double LowRps = 0;
  double HighRps = 0;
  double LimitUs = 0;
  /// Start every measured phase from a full collection (not measured).
  bool CollectBetweenPhases = false;
  /// Closed-loop requests per second of --seconds.
  uint64_t ClosedRequestsPerSecond = 0;
};

/// The mark/cons model comparison (decay: Theorem 4 / Equation 4).
struct ModelCheck {
  double Ratio = 0; ///< Measured over predicted; 0 without a model.
  bool InBand = true;
  std::string Report;
};

/// Result of the post-run check.
struct CheckResult {
  bool Ok = true;
  std::string Problem;
  uint64_t Checksum = 0;
};

/// One workload instance bound to one heap. Construct on the
/// coordinating thread (it registers its roots there), drive setup and
/// requests from mutator threads, check on the coordinating thread.
class Workload {
public:
  virtual ~Workload() = default;
  /// Builds this mutator's share of the live set to steady state.
  virtual bool setup(unsigned Mutator) = 0;
  /// Serves one request on mutator \p Mutator. False on a failed request
  /// (an allocation that came back without storage).
  virtual bool serve(unsigned Mutator, MutatorLog &Log) = 0;
  /// Compares the heap against the workload's shadow.
  virtual CheckResult check() = 0;
  /// Compares the measured mark/cons with the workload's model, given the
  /// words the heap verifier found reachable after the run. Workloads
  /// without a model return the default (no ratio, in band, no report).
  virtual ModelCheck model(double MeasuredMarkCons,
                           uint64_t ReachableWords) const {
    return {};
  }
};

/// The configuration of workload \p Name, or nullptr when unknown.
const WorkloadConfig *findWorkload(const std::string &Name);

/// Builds the heap workload \p Name runs on.
std::unique_ptr<rdgc::Heap> makeWorkloadHeap(const std::string &Name);
/// Builds workload \p Name on \p H, drawing inputs from \p Seed.
std::unique_ptr<Workload> makeWorkload(const std::string &Name,
                                       rdgc::Heap &H, uint64_t Seed);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
