//===- perfbench/workloads.cpp - The benchmark's workloads ----------------===//
//
// Part of the rdgc project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "workloads.h"

#include "gc/CardTable.h"
#include "gc/Generational.h"
#include "gc/MarkSweep.h"
#include "gc/NonPredictive.h"
#include "heap/RootStack.h"
#include "model/NonPredictiveModel.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <unistd.h>

using namespace perfbench;
using namespace rdgc;

const char *perfbench::layerName(unsigned L) {
  static const char *const Names[LayerCount] = {"run", "request", "alloc",
                                                "barrier", "gc"};
  return L < LayerCount ? Names[L] : "?";
}

int64_t perfbench::nowNs() {
  static const auto Epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - Epoch)
      .count();
}

double perfbench::hostStealSeconds() {
  std::ifstream Stat("/proc/stat");
  std::string Cpu;
  uint64_t Field[8] = {};
  Stat >> Cpu;
  for (uint64_t &F : Field)
    Stat >> F;
  return static_cast<double>(Field[7]) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

namespace {

constexpr uint64_t PairBytes = 3 * 8; // Header + car + cdr.

std::string formatProblem(const char *Format, uint64_t A, uint64_t B,
                          uint64_t C) {
  char Buf[200];
  std::snprintf(Buf, sizeof Buf, Format, static_cast<unsigned long long>(A),
                static_cast<unsigned long long>(B),
                static_cast<unsigned long long>(C));
  return Buf;
}

//===----------------------------------------------------------------------===
// decay: the paper's radioactive-decay mutator on the non-predictive
// collector.
//===----------------------------------------------------------------------===

constexpr double DecayHalfLife = 50000; // Objects (allocation units).
constexpr uint64_t DecayRequestObjects = 128;
/// The live objects are listed in heap vectors of this many slots, so the
/// collector reaches them through the heap (and the barrier) rather than
/// through hundreds of thousands of root slots.
constexpr uint64_t DecayChunkSlots = 256;
constexpr uint64_t DecayWordsPerObject = 4; // A pair plus its table slot.
constexpr double DecayInverseLoad = 2.0;     // L: heap / equilibrium live.
constexpr unsigned DecaySteps = 8;
/// One new object in 64 points at a random live one (young to old) and
/// one in 64 is stored into a random live one (old to young).
constexpr uint64_t DecayLinkOneIn = 64;
/// Band the measured mark/cons must stay in, as a ratio to the Theorem 4
/// / Equation 4 prediction at the measured mean j/k and L.
constexpr double DecayBandLow = 0.75, DecayBandHigh = 1.25;

uint64_t decayLiveObjects() {
  return static_cast<uint64_t>(DecayHalfLife / M_LN2);
}

uint64_t decayHeapBytes() {
  uint64_t Bytes = static_cast<uint64_t>(
      DecayInverseLoad *
      static_cast<double>(decayLiveObjects() * DecayWordsPerObject * 8));
  uint64_t Step = (Bytes / DecaySteps + 7) & ~uint64_t(7);
  return Step * DecaySteps;
}

class DecayWorkload final : public Workload {
public:
  DecayWorkload(Heap &H, uint64_t Seed)
      : H(H), Np(dynamic_cast<NonPredictiveCollector *>(&H.collector())),
        Rng(Seed, 1), Deaths(DecayHalfLife), Staging(DecayRequestObjects),
        Roots(H) {
    Expect.reserve(2 * decayLiveObjects());
    Roots.push(&Chunks);
    Roots.push(&Staging);
  }
  ~DecayWorkload() override {
    Roots.pop();
    Roots.pop();
  }

  bool setup(unsigned) override {
    // From empty, the live count approaches h/ln 2 as 1 - 2^(-t/h); five
    // half-lives of allocation leave it within 3% of equilibrium.
    MutatorLog Log(false, 0);
    uint64_t Requests = static_cast<uint64_t>(5 * DecayHalfLife) /
                        DecayRequestObjects;
    for (uint64_t I = 0; I < Requests; ++I)
      if (!serve(0, Log))
        return false;
    Samples = 0;
    SumJ = SumLive = 0;
    return true;
  }

  bool serve(unsigned, MutatorLog &Log) override {
    Log.beginRequest();
    // Draw the request's inputs first: which listed objects die (the
    // memoryless law makes them a uniform sample) and which new objects
    // get a link.
    const uint64_t Count = Expect.size();
    uint64_t Dying = Deaths.deaths(Count, DecayRequestObjects, Rng);
    Victims.clear();
    for (uint64_t D = 0; D < Dying; ++D)
      Victims.push_back(Rng.below(Count - D));
    const uint64_t Base = Count - Dying;
    Links.clear();
    if (Base > 0)
      for (uint64_t K = 0; K < DecayRequestObjects; ++K) {
        uint64_t Draw = Rng.below(DecayLinkOneIn);
        if (Draw < 2)
          Links.push_back({Base + K, Rng.below(Base), Draw == 0});
      }
    const uint64_t Needed =
        (Base + DecayRequestObjects + DecayChunkSlots - 1) / DecayChunkSlots;
    const uint64_t NewChunks =
        Needed > Chunks.size() ? Needed - Chunks.size() : 0;
    bool Ok = Log.allocBatch(NewChunks + DecayRequestObjects, [&] {
      for (uint64_t C = 0; C < NewChunks; ++C) {
        Value Chunk = H.allocateVector(DecayChunkSlots, Value::null());
        if (!Chunk.isPointer())
          return false;
        Chunks.push_back(Chunk);
      }
      for (uint64_t K = 0; K < DecayRequestObjects; ++K) {
        Value P = H.allocatePair(
            Value::fixnum(NextId + static_cast<int64_t>(K)), Value::null());
        if (!P.isPointer())
          return false;
        Staging[K] = P;
      }
      return true;
    });
    if (!Ok) {
      Log.endRequest();
      return false;
    }
    sampleModel();
    // Every table update and link is a barriered store: deaths move the
    // last listed object into the victim's slot, births fill the tail.
    Log.barrierBatch(2 * Dying + DecayRequestObjects + Links.size(), [&] {
      for (uint64_t Victim : Victims) {
        uint64_t Last = Expect.size() - 1;
        set(Victim, get(Last));
        set(Last, Value::null());
        Expect[Victim] = Expect[Last];
        Expect.pop_back();
      }
      for (uint64_t K = 0; K < DecayRequestObjects; ++K) {
        set(Expect.size(), Staging[K]);
        Expect.push_back(NextId++);
        Staging[K] = Value::null();
      }
      for (const Link &L : Links) {
        if (L.YoungToOld)
          H.setPairCdr(get(L.Young), get(L.Old));
        else
          H.setPairCdr(get(L.Old), get(L.Young));
      }
      return true;
    });
    Log.endRequest();
    return true;
  }

  CheckResult check() override {
    CheckResult R;
    for (uint64_t I = 0; I < Expect.size(); ++I) {
      Value V = get(I);
      if (!V.isPointer() || H.tagOf(V) != ObjectTag::Pair ||
          H.pairCar(V).asFixnum() != Expect[I]) {
        R.Ok = false;
        R.Problem = formatProblem("decay: live object %llu of %llu does not "
                                  "hold id %llu",
                                  I, Expect.size(), Expect[I]);
        return R;
      }
      R.Checksum += static_cast<uint64_t>(Expect[I]);
    }
    R.Checksum += Expect.size();
    ModelLiveWordsAtEnd = Expect.size() * DecayWordsPerObject;
    return R;
  }

  ModelCheck model(double MeasuredMarkCons,
                   uint64_t ReachableWords) const override {
    // L uses the live words the model predicts, scaled by what the
    // verifier found reachable at the end (links and the table itself
    // keep a little more alive than the model's own count).
    ModelCheck M;
    if (!Samples || !Np || !ModelLiveWordsAtEnd)
      return M;
    double Scale = static_cast<double>(ReachableWords) / ModelLiveWordsAtEnd;
    double G = SumJ / Samples / Np->stepCount();
    double L = static_cast<double>(Np->stepCount() * Np->stepWords()) /
               (SumLive / Samples * Scale);
    if (L <= 1)
      return M;
    NonPredictiveModel Model(L);
    double Predicted = Model.evaluate(G).MarkCons;
    M.Ratio = MeasuredMarkCons / Predicted;
    M.InBand = M.Ratio >= DecayBandLow && M.Ratio <= DecayBandHigh;
    char Buf[400];
    std::snprintf(Buf, sizeof Buf,
                  "model: mean j/k %.4f, L %.3f (live scaled by reachable/"
                  "model %.4f), predicted mark/cons %.4f (%s), measured "
                  "%.4f, ratio %.4f, band [%.2f, %.2f]",
                  G, L, Scale, Predicted,
                  Model.theorem4Applies(G) ? "Theorem 4"
                                           : "Equation 4 lower bound",
                  MeasuredMarkCons, M.Ratio, DecayBandLow, DecayBandHigh);
    M.Report = Buf;
    return M;
  }

private:
  struct Link {
    uint64_t Young;
    uint64_t Old;
    bool YoungToOld;
  };

  Value get(uint64_t I) const {
    return H.vectorRef(Chunks[I / DecayChunkSlots], I % DecayChunkSlots);
  }
  void set(uint64_t I, Value V) {
    H.vectorSet(Chunks[I / DecayChunkSlots], I % DecayChunkSlots, V);
  }

  /// After each collection, samples the j the collector chose and the
  /// model's live words, for the Theorem 4 comparison.
  void sampleModel() {
    uint64_t Collections = H.stats().collections();
    if (Collections == LastCollections || !Np)
      return;
    LastCollections = Collections;
    SumJ += static_cast<double>(Np->currentJ());
    SumLive += static_cast<double>(Expect.size() * DecayWordsPerObject);
    ++Samples;
  }

  Heap &H;
  NonPredictiveCollector *Np;
  Stream Rng;
  DecayDeaths Deaths;
  std::vector<Value> Chunks;  ///< The heap vectors listing live objects.
  std::vector<Value> Staging; ///< A request's new objects, until listed.
  std::vector<int64_t> Expect; ///< Shadow: the id each listed object holds.
  std::vector<uint64_t> Victims;
  std::vector<Link> Links;
  RootStack Roots;
  int64_t NextId = 1;
  uint64_t LastCollections = 0;
  double SumJ = 0, SumLive = 0;
  uint64_t Samples = 0;
  uint64_t ModelLiveWordsAtEnd = 0;
};

//===----------------------------------------------------------------------===
// tree: GCBench-style persistent trees with temporary trees swapped in,
// on bitmap mark-sweep behind the server runtime.
//===----------------------------------------------------------------------===

constexpr unsigned TreeMutators = 2;
constexpr unsigned TreeDepth = 15; // Persistent tree: 2^15 leaves each.
constexpr unsigned TempDepth = 5;  // Temporary tree: 2^5 leaves.
constexpr double TreeInverseLoad = 1.15;

uint64_t treeNodes(unsigned Depth) { return (uint64_t(2) << Depth) - 1; }

uint64_t treeLiveBytes() {
  return TreeMutators * treeNodes(TreeDepth) * PairBytes;
}

uint64_t treeHeapBytes() {
  return static_cast<uint64_t>(TreeInverseLoad *
                               static_cast<double>(treeLiveBytes()));
}

class TreeWorkload final : public Workload {
public:
  TreeWorkload(Heap &H, uint64_t Seed) : H(H), Roots(H) {
    // Reserved up front: the root stack holds pointers to the frames.
    Shards.reserve(TreeMutators);
    for (unsigned M = 0; M < TreeMutators; ++M) {
      Shards.emplace_back(Seed, M);
      Roots.push(&Shards.back().Frame);
    }
  }
  ~TreeWorkload() override {
    for (size_t I = 0; I < Shards.size(); ++I)
      Roots.pop();
  }

  bool setup(unsigned M) override {
    Shard &S = Shards[M];
    if (!build(S, TreeDepth, S.Leaves.data()))
      return false;
    S.Frame[0] = S.Frame[1];
    clearScratch(S, uint64_t(1) << TreeDepth);
    return true;
  }

  bool serve(unsigned M, MutatorLog &Log) override {
    Shard &S = Shards[M];
    Log.beginRequest();
    const uint64_t TempLeaves = uint64_t(1) << TempDepth;
    bool Ok = Log.allocBatch(treeNodes(TempDepth), [&] {
      return build(S, TempDepth, S.TempLeaves.data());
    });
    if (!Ok) {
      Log.endRequest();
      return false;
    }
    // Swap the temporary tree in for a random subtree of the same depth:
    // the old subtree becomes garbage. Mark-sweep never moves objects and
    // nothing below allocates, so the walk may hold plain Values.
    const unsigned PathBits = TreeDepth - TempDepth;
    uint64_t Path = S.Rng.below(uint64_t(1) << PathBits);
    Log.barrierBatch(1, [&] {
      Value Node = S.Frame[0];
      for (unsigned Level = PathBits - 1; Level > 0; --Level)
        Node = (Path >> Level) & 1 ? H.pairCdr(Node) : H.pairCar(Node);
      if (Path & 1)
        H.setPairCdr(Node, S.Frame[1]);
      else
        H.setPairCar(Node, S.Frame[1]);
      return true;
    });
    std::copy(S.TempLeaves.begin(), S.TempLeaves.end(),
              S.Leaves.begin() + Path * TempLeaves);
    clearScratch(S, TempLeaves);
    Log.endRequest();
    return true;
  }

  CheckResult check() override {
    CheckResult R;
    for (unsigned M = 0; M < Shards.size(); ++M) {
      Shard &S = Shards[M];
      // Iterative walk, left to right, so leaves come out in index order.
      std::vector<std::pair<Value, unsigned>> Stack{{S.Frame[0], 0}};
      uint64_t Leaf = 0;
      while (!Stack.empty()) {
        auto [Node, Depth] = Stack.back();
        Stack.pop_back();
        if (!Node.isPointer() || H.tagOf(Node) != ObjectTag::Pair) {
          R.Ok = false;
          R.Problem = formatProblem("tree %llu: node at depth %llu near leaf "
                                    "%llu is not a pair",
                                    M, Depth, Leaf);
          return R;
        }
        if (Depth == TreeDepth) {
          uint64_t Got = static_cast<uint64_t>(H.pairCar(Node).asFixnum());
          if (Leaf >= S.Leaves.size() || Got != S.Leaves[Leaf]) {
            R.Ok = false;
            R.Problem = formatProblem("tree %llu: leaf %llu holds %llu",
                                      M, Leaf, Got);
            return R;
          }
          R.Checksum += Got;
          ++Leaf;
          continue;
        }
        Stack.push_back({H.pairCdr(Node), Depth + 1});
        Stack.push_back({H.pairCar(Node), Depth + 1});
      }
      if (Leaf != S.Leaves.size()) {
        R.Ok = false;
        R.Problem = formatProblem("tree %llu: %llu leaves, expected %llu", M,
                                  Leaf, S.Leaves.size());
        return R;
      }
    }
    return R;
  }

private:
  struct Shard {
    Shard(uint64_t Seed, unsigned M)
        : Rng(Seed, 100 + M),
          Frame((uint64_t(1) << TreeDepth) + 1, Value::null()),
          Leaves(uint64_t(1) << TreeDepth),
          TempLeaves(uint64_t(1) << TempDepth) {}
    Stream Rng;
    /// Frame[0] is the persistent tree's root; Frame[1..] is the rooted
    /// scratch a tree is built in, bottom up.
    std::vector<Value> Frame;
    std::vector<uint64_t> Leaves;     ///< Shadow of the persistent leaves.
    std::vector<uint64_t> TempLeaves; ///< Leaves of the tree being built.
  };

  /// Builds a complete tree of \p Depth in the shard's scratch, leaving
  /// its root in Frame[1]. Leaf values go to \p LeafOut.
  bool build(Shard &S, unsigned Depth, uint64_t *LeafOut) {
    Value *Scratch = S.Frame.data() + 1;
    const uint64_t Leaves = uint64_t(1) << Depth;
    for (uint64_t I = 0; I < Leaves; ++I) {
      LeafOut[I] = S.Rng.next() >> 34;
      Value P = H.allocatePair(Value::fixnum(static_cast<int64_t>(LeafOut[I])),
                               Value::null());
      if (!P.isPointer())
        return false;
      Scratch[I] = P;
    }
    // Level by level: slot I takes the pair of slots 2I and 2I+1, which
    // were read before slot I is overwritten.
    for (uint64_t Width = Leaves; Width > 1; Width /= 2)
      for (uint64_t I = 0; I < Width / 2; ++I) {
        Value P = H.allocatePair(Scratch[2 * I], Scratch[2 * I + 1]);
        if (!P.isPointer())
          return false;
        Scratch[I] = P;
      }
    return true;
  }

  static void clearScratch(Shard &S, uint64_t Slots) {
    std::fill(S.Frame.begin() + 1, S.Frame.begin() + 1 + Slots,
              Value::null());
  }

  Heap &H;
  RootStack Roots;
  std::vector<Shard> Shards;
};

//===----------------------------------------------------------------------===
// sessions: an open-loop server whose sessions decay per request, on the
// generational collector behind the server runtime.
//===----------------------------------------------------------------------===

constexpr unsigned SessionMutators = 3;
constexpr uint64_t SessionsPerMutator = 512;
constexpr uint64_t SessionSlots = 8;
constexpr uint64_t BurstPairs = 128;
constexpr double SessionHalfLifeRequests = 16;
constexpr uint64_t SessionNurseryBytes = 1 << 20;
constexpr uint64_t SessionSemispaceBytes = 16 << 20;

class SessionsWorkload final : public Workload {
public:
  SessionsWorkload(Heap &H, uint64_t Seed) : H(H), Roots(H) {
    // Reserved up front: the root stack holds pointers to the frames.
    Shards.reserve(SessionMutators);
    for (unsigned M = 0; M < SessionMutators; ++M) {
      Shards.emplace_back(Seed, M);
      Roots.push(&Shards.back().Frame);
    }
  }
  ~SessionsWorkload() override {
    for (size_t I = 0; I < Shards.size(); ++I)
      Roots.pop();
  }

  bool setup(unsigned M) override {
    Shard &S = Shards[M];
    for (uint64_t I = 0; I < SessionsPerMutator; ++I)
      if (!openSession(S, I))
        return false;
    return true;
  }

  bool serve(unsigned M, MutatorLog &Log) override {
    Shard &S = Shards[M];
    Log.beginRequest();
    uint64_t Session = S.Rng.below(SessionsPerMutator);
    bool Fresh = !S.Frame[Session].isPointer();
    int64_t First = 0, Second = 0;
    // The burst: a chain of short-lived pairs grown in the rooted head
    // slot; its first two pairs are kept for attaching.
    bool Ok = Log.allocBatch(BurstPairs + (Fresh ? 1 : 0), [&] {
      if (Fresh && !openSession(S, Session))
        return false;
      for (uint64_t I = 0; I < BurstPairs; ++I) {
        int64_t V = static_cast<int64_t>(S.Rng.next() >> 40) | 1;
        Value P = H.allocatePair(Value::fixnum(V), S.Frame[Head]);
        if (!P.isPointer())
          return false;
        S.Frame[Head] = P;
        if (I == 0) {
          S.Frame[AttachA] = P;
          First = V;
        } else if (I == 1) {
          S.Frame[AttachB] = P;
          Second = V;
        }
      }
      return true;
    });
    if (!Ok) {
      Log.endRequest();
      return false;
    }
    // The request reads what it built: sum the burst.
    for (Value P = S.Frame[Head]; P.isPointer(); P = H.pairCdr(P))
      S.BurstSum += static_cast<uint64_t>(H.pairCar(P).asFixnum());
    uint64_t SlotA = S.Rng.below(SessionSlots);
    uint64_t SlotB = S.Rng.below(SessionSlots);
    Log.barrierBatch(2, [&] {
      H.vectorSet(S.Frame[Session], SlotA, S.Frame[AttachA]);
      H.vectorSet(S.Frame[Session], SlotB, S.Frame[AttachB]);
      return true;
    });
    S.Expect[Session * SessionSlots + SlotA] = First;
    S.Expect[Session * SessionSlots + SlotB] = Second;
    S.Frame[Head] = S.Frame[AttachA] = S.Frame[AttachB] = Value::null();
    // The decay clock: a session dies after its sampled request count,
    // dropping its whole state graph.
    if (--S.Remaining[Session] == 0)
      S.Frame[Session] = Value::null();
    Log.endRequest();
    return true;
  }

  CheckResult check() override {
    CheckResult R;
    for (unsigned M = 0; M < Shards.size(); ++M) {
      Shard &S = Shards[M];
      for (uint64_t I = 0; I < SessionsPerMutator; ++I) {
        Value V = S.Frame[I];
        if (!V.isPointer())
          continue;
        if (H.tagOf(V) != ObjectTag::Vector ||
            H.vectorLength(V) != SessionSlots) {
          R.Ok = false;
          R.Problem = formatProblem("sessions %llu: session %llu is not a "
                                    "vector of %llu slots",
                                    M, I, SessionSlots);
          return R;
        }
        for (uint64_t Slot = 0; Slot < SessionSlots; ++Slot) {
          int64_t Want = S.Expect[I * SessionSlots + Slot];
          Value P = H.vectorRef(V, Slot);
          int64_t Got = P.isPointer() && H.tagOf(P) == ObjectTag::Pair
                            ? H.pairCar(P).asFixnum()
                            : 0;
          if (Got != Want) {
            R.Ok = false;
            R.Problem = formatProblem("sessions %llu: session %llu slot %llu "
                                      "lost its pair",
                                      M, I, Slot);
            return R;
          }
          R.Checksum += static_cast<uint64_t>(Got);
        }
      }
      R.Checksum += S.BurstSum;
    }
    return R;
  }

private:
  static constexpr uint64_t Head = SessionsPerMutator;
  static constexpr uint64_t AttachA = SessionsPerMutator + 1;
  static constexpr uint64_t AttachB = SessionsPerMutator + 2;

  struct Shard {
    Shard(uint64_t Seed, unsigned M)
        : Rng(Seed, 200 + M), Frame(SessionsPerMutator + 3, Value::null()),
          Expect(SessionsPerMutator * SessionSlots, 0),
          Remaining(SessionsPerMutator, 0) {}
    Stream Rng;
    /// Session vectors, then the burst head and the two attach slots.
    std::vector<Value> Frame;
    std::vector<int64_t> Expect; ///< Shadow: car of each slot's pair.
    std::vector<uint64_t> Remaining;
    uint64_t BurstSum = 0;
  };

  /// Admits a session with a lifetime, in requests to it, drawn from the
  /// decay law with half-life SessionHalfLifeRequests.
  bool openSession(Shard &S, uint64_t Index) {
    Value V = H.allocateVector(SessionSlots, Value::null());
    if (!V.isPointer())
      return false;
    S.Frame[Index] = V;
    std::fill_n(S.Expect.begin() + Index * SessionSlots, SessionSlots, 0);
    S.Remaining[Index] =
        1 + static_cast<uint64_t>(S.Rng.exponential(SessionHalfLifeRequests /
                                                    M_LN2));
    return true;
  }

  Heap &H;
  RootStack Roots;
  std::vector<Shard> Shards;
};

/// Rungs \p Ratio apart from \p From.
std::vector<double> ladder(double From, double Ratio, unsigned Rungs) {
  std::vector<double> Rates;
  double Rate = From;
  for (unsigned I = 0; I < Rungs; ++I) {
    Rates.push_back(std::round(Rate));
    Rate *= Ratio;
  }
  return Rates;
}

std::string describeDecay() {
  char Buf[300];
  std::snprintf(Buf, sizeof Buf,
                "k=%u j=half-of-empty L=%.1f, half-life %.0f objects, "
                "links 2 in %llu",
                DecaySteps, DecayInverseLoad, DecayHalfLife,
                static_cast<unsigned long long>(DecayLinkOneIn));
  return Buf;
}

std::string describeTree() {
  char Buf[300];
  std::snprintf(Buf, sizeof Buf,
                "bitmap marking, monolithic, L=%.2f, persistent depth %u per "
                "mutator",
                TreeInverseLoad, TreeDepth);
  return Buf;
}

const std::vector<WorkloadConfig> &configs() {
  // Closed-loop work is a request count per second of --seconds. Each
  // ladder starts well under the knee seen on a 4-vCPU host under load and
  // reaches well past it; the two fixed rates sit under the knee.
  static const std::vector<WorkloadConfig> All = [] {
    std::vector<WorkloadConfig> V;
    WorkloadConfig Decay;
    Decay.Name = "decay";
    Decay.Collector = describeDecay();
    Decay.Mutators = 1;
    Decay.LiveBytes = decayLiveObjects() * DecayWordsPerObject * 8;
    Decay.Request = "128 pairs born, deaths drawn from the decay law, "
                    "listed in heap vectors of 256 slots";
    Decay.ClosedRequestsPerSecond = 24000;
    Decay.LadderRps = ladder(15000, 1.15, 11);
    Decay.LowRps = 12000;
    Decay.HighRps = 18000;
    Decay.LimitUs = 50000;
    V.push_back(Decay);

    WorkloadConfig Tree;
    Tree.Name = "tree";
    Tree.Collector = describeTree();
    Tree.Mutators = TreeMutators;
    Tree.LiveBytes = treeLiveBytes();
    Tree.Request = "build a depth-5 tree (63 pairs), swap it into the "
                   "persistent tree";
    Tree.ClosedRequestsPerSecond = 10000;
    Tree.LadderRps = ladder(7000, 1.15, 10);
    Tree.LowRps = 6000;
    Tree.HighRps = 9000;
    Tree.LimitUs = 50000;
    V.push_back(Tree);

    WorkloadConfig Sessions;
    Sessions.Name = "sessions";
    Sessions.Collector = "nursery 1 MiB, dynamic semispaces 16 MiB, 512 "
                         "sessions per mutator, session half-life 16 "
                         "requests";
    Sessions.Mutators = SessionMutators;
    Sessions.Request = "128-pair burst, 2 pairs attached to a session";
    Sessions.CollectBetweenPhases = true;
    Sessions.ClosedRequestsPerSecond = 70000;
    Sessions.LadderRps = ladder(40000, 1.15, 12);
    Sessions.LowRps = 40000;
    Sessions.HighRps = 100000;
    Sessions.LimitUs = 50000;
    V.push_back(Sessions);
    return V;
  }();
  return All;
}

} // namespace

const WorkloadConfig *perfbench::findWorkload(const std::string &Name) {
  for (const WorkloadConfig &C : configs())
    if (C.Name == Name)
      return &C;
  return nullptr;
}

std::unique_ptr<Heap> perfbench::makeWorkloadHeap(const std::string &Name) {
  std::unique_ptr<Heap> H;
  if (Name == "decay") {
    NonPredictiveConfig Config;
    Config.StepCount = DecaySteps;
    Config.StepBytes = decayHeapBytes() / DecaySteps;
    Config.Policy = JSelectionPolicy::HalfOfEmpty;
    Config.Backend = RemsetBackend::Card;
    H = std::make_unique<Heap>(
        std::make_unique<NonPredictiveCollector>(Config));
    H->collector().setGcThreads(2);
  } else if (Name == "tree") {
    H = std::make_unique<Heap>(
        std::make_unique<MarkSweepCollector>(treeHeapBytes()));
  } else if (Name == "sessions") {
    H = std::make_unique<Heap>(std::make_unique<GenerationalCollector>(
        SessionNurseryBytes, 0, SessionSemispaceBytes, RemsetBackend::Ssb));
  }
  return H;
}

std::unique_ptr<Workload> perfbench::makeWorkload(const std::string &Name,
                                                  Heap &H, uint64_t Seed) {
  if (Name == "decay")
    return std::make_unique<DecayWorkload>(H, Seed);
  if (Name == "tree")
    return std::make_unique<TreeWorkload>(H, Seed);
  if (Name == "sessions")
    return std::make_unique<SessionsWorkload>(H, Seed);
  return nullptr;
}
