//===- OpStream.cpp - The op_stream workload and the layer probe ----------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
//
// A fig5-style stream of small, short-lived instances over six sites:
// list, set and map, each read-heavy (populate, lookups, two iterations)
// and write-heavy (populate, removals, re-adds, one iteration). Sizes
// are log-uniform in [10, 1000], stratified so every batch carries the
// same mix of sizes and thus the same work. Every instance's result is
// folded and compared with a reference computed at set-up on
// std::vector, std::unordered_set and std::unordered_map.
//
// The same stream drives the layer ladder of traced runs: one instance
// program executed at eight levels of the stack, each adding one layer
// to the one below, so the difference between neighbouring levels is
// that layer's cost per operation.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "collections/Factory.h"
#include "core/AllocationContext.h"
#include "obs/Profiling.h"
#include "obs/Provenance.h"
#include "replay/TraceRecorder.h"
#include "support/Random.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <optional>
#include <unordered_map>
#include <unordered_set>

using namespace cswitch;
using namespace cswitch::suite;

namespace {

/// Site = abstraction * 2 + mix; mix 0 is read-heavy, 1 write-heavy.
constexpr unsigned NumSites = 6;
const char *const SiteNames[NumSites] = {"list-read", "list-write",
                                         "set-read",  "set-write",
                                         "map-read",  "map-write"};

constexpr uint32_t MinSize = 10;
constexpr uint32_t MaxSize = 1000;
/// Read-heavy instances look up min(size, MaxLookups) keys; write-heavy
/// ones remove and re-add min(size / 4, MaxRemovals). The caps keep the
/// O(n) list operations of the default variant from dwarfing the
/// per-operation costs this workload is about.
constexpr uint32_t MaxLookups = 16;
constexpr uint32_t MaxRemovals = 8;
/// Keys come from one pool of random even values; an instance uses a
/// window of it, and odd probes always miss.
constexpr size_t KeyPool = size_t(1) << 16;
/// Each site evaluates after every EvaluateEvery instances it created.
constexpr uint64_t EvaluateEvery = 200;
/// Instances per site per batch: about 5 ms of work per batch.
constexpr size_t PerSite = 80;
/// Pool sizes are odd and prime to the 2- and 4-periodic alternation
/// of pair order, tracing and ladder rotation, so no batch is tied to
/// one side of them.
constexpr size_t StreamBatches = 31;
constexpr size_t ProbeBatches = 7;
constexpr size_t WarmupBatches = 8;
constexpr size_t MinBatches = 8;
constexpr size_t MinRounds = 4;
/// Instance spans of the probe are recorded for one instance in
/// ProbeTraceEvery, which keeps the span log within its capacity.
constexpr uint64_t ProbeTraceEvery = 8;

struct Instance {
  uint32_t Begin;
  uint16_t Size;
  uint8_t Site;
  uint64_t Expected;
};

struct Batch {
  std::vector<Instance> Instances;
  /// Facade operations and instance counts, per mix.
  std::array<uint64_t, 2> Ops = {};
  std::array<uint64_t, 2> Count = {};
  uint64_t ops() const { return Ops[0] + Ops[1]; }
  uint64_t size() const { return Count[0] + Count[1]; }
};

struct Stream {
  std::vector<int64_t> Keys;
  std::vector<Batch> Batches;
};

uint64_t mixBits(uint64_t X) {
  X ^= X >> 30;
  X *= 0xbf58476d1ce4e5b9ULL;
  X ^= X >> 27;
  X *= 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}

//===----------------------------------------------------------------------===//
// The instance program, written once for every container it runs on
//===----------------------------------------------------------------------===//

template <typename C> void insertKey(C &Coll, int64_t Key) {
  if constexpr (requires { Coll.push_back(Key); })
    Coll.push_back(Key);
  else if constexpr (requires { Coll.put(Key, Key); })
    Coll.put(Key, static_cast<int64_t>(static_cast<uint64_t>(Key) * 3 + 1));
  else
    Coll.add(Key);
}

template <typename C> bool hasKey(const C &Coll, int64_t Key) {
  if constexpr (requires { Coll.containsKey(Key); })
    return Coll.containsKey(Key);
  else
    return Coll.contains(Key);
}

template <typename C> bool eraseKey(C &Coll, int64_t Key) {
  if constexpr (requires { Coll.removeValue(Key); })
    return Coll.removeValue(Key);
  else
    return Coll.remove(Key);
}

/// Order-independent fold of the elements (variants iterate in
/// different orders).
template <typename C> uint64_t foldElements(const C &Coll) {
  uint64_t Sum = 0;
  if constexpr (requires { Coll.containsKey(0); })
    Coll.forEach([&Sum](const int64_t &Key, const int64_t &Value) {
      Sum += mixBits(static_cast<uint64_t>(Key) ^
                     (static_cast<uint64_t>(Value) << 1));
    });
  else
    Coll.forEach(
        [&Sum](const int64_t &Key) { Sum += mixBits(static_cast<uint64_t>(Key)); });
  return Sum;
}

template <typename C>
uint64_t runProgram(C &Coll, const int64_t *Keys, uint32_t N, bool ReadHeavy) {
  for (uint32_t I = 0; I != N; ++I)
    insertKey(Coll, Keys[I]);
  uint64_t Hits = 0;
  uint64_t Sum = 0;
  if (ReadHeavy) {
    uint32_t Lookups = std::min(N, MaxLookups);
    for (uint32_t J = 0; J != Lookups; ++J)
      Hits += hasKey(Coll, Keys[(J * 7) % N] | (J & 1));
    Sum = foldElements(Coll) + 3 * foldElements(Coll);
  } else {
    uint32_t Removals = std::min((N + 3) / 4, MaxRemovals);
    for (uint32_t J = 0; J != Removals; ++J)
      Hits += eraseKey(Coll, Keys[J * 4]);
    for (uint32_t J = 0; J != Removals; ++J)
      insertKey(Coll, Keys[J * 4]);
    Sum = foldElements(Coll);
  }
  return mixBits(Hits) ^ Sum ^ mixBits(Coll.size() + 0x51ed);
}

/// Facade operations runProgram performs.
uint64_t programOps(uint32_t N, bool ReadHeavy) {
  if (ReadHeavy)
    return N + std::min(N, MaxLookups) + 2;
  return N + 2 * std::min((N + 3) / 4, MaxRemovals) + 1;
}

//===----------------------------------------------------------------------===//
// Reference containers (the standard library, not the system under test)
//===----------------------------------------------------------------------===//

struct RefList {
  std::vector<int64_t> V;
  void push_back(int64_t K) { V.push_back(K); }
  bool contains(int64_t K) const {
    return std::find(V.begin(), V.end(), K) != V.end();
  }
  bool removeValue(int64_t K) {
    auto It = std::find(V.begin(), V.end(), K);
    if (It == V.end())
      return false;
    V.erase(It);
    return true;
  }
  template <typename Fn> void forEach(Fn &&F) const {
    for (int64_t K : V)
      F(K);
  }
  size_t size() const { return V.size(); }
};

struct RefSet {
  std::unordered_set<int64_t> S;
  bool add(int64_t K) { return S.insert(K).second; }
  bool contains(int64_t K) const { return S.count(K) != 0; }
  bool remove(int64_t K) { return S.erase(K) != 0; }
  template <typename Fn> void forEach(Fn &&F) const {
    for (int64_t K : S)
      F(K);
  }
  size_t size() const { return S.size(); }
};

struct RefMap {
  std::unordered_map<int64_t, int64_t> M;
  bool put(int64_t K, int64_t V) { return M.insert_or_assign(K, V).second; }
  bool containsKey(int64_t K) const { return M.count(K) != 0; }
  bool remove(int64_t K) { return M.erase(K) != 0; }
  template <typename Fn> void forEach(Fn &&F) const {
    for (const auto &[K, V] : M)
      F(K, V);
  }
  size_t size() const { return M.size(); }
};

uint64_t referenceFold(const Stream &S, const Instance &I) {
  const int64_t *Keys = S.Keys.data() + I.Begin;
  bool Read = I.Site % 2 == 0;
  switch (I.Site / 2) {
  case 0: {
    RefList C;
    return runProgram(C, Keys, I.Size, Read);
  }
  case 1: {
    RefSet C;
    return runProgram(C, Keys, I.Size, Read);
  }
  default: {
    RefMap C;
    return runProgram(C, Keys, I.Size, Read);
  }
  }
}

Stream makeStream(uint64_t Seed, size_t NumBatches) {
  Stream S;
  SplitMix64 Rng(Seed);
  S.Keys.resize(KeyPool);
  for (int64_t &K : S.Keys)
    K = static_cast<int64_t>((Rng.next() >> 2) & ~uint64_t(1));
  const double LogRange = std::log(double(MaxSize) / MinSize);
  for (size_t BatchIndex = 0; BatchIndex != NumBatches; ++BatchIndex) {
    Batch B;
    for (unsigned Site = 0; Site != NumSites; ++Site)
      for (size_t I = 0; I != PerSite; ++I) {
        double U = (double(I) + Rng.nextDouble()) / double(PerSite);
        auto N = static_cast<uint32_t>(
            std::lround(MinSize * std::exp(U * LogRange)));
        N = std::clamp(N, MinSize, MaxSize);
        auto Begin = static_cast<uint32_t>(Rng.nextBelow(KeyPool - N + 1));
        B.Instances.push_back({Begin, static_cast<uint16_t>(N),
                               static_cast<uint8_t>(Site), 0});
      }
    for (size_t I = B.Instances.size(); I > 1; --I)
      std::swap(B.Instances[I - 1], B.Instances[Rng.nextBelow(I)]);
    for (Instance &I : B.Instances) {
      I.Expected = referenceFold(S, I);
      B.Ops[I.Site % 2] += programOps(I.Size, I.Site % 2 == 0);
      ++B.Count[I.Site % 2];
    }
    S.Batches.push_back(std::move(B));
  }
  return S;
}

//===----------------------------------------------------------------------===//
// Levels of the stack the program runs on
//===----------------------------------------------------------------------===//

/// The JDK-default variants, called non-virtually (the classes are
/// final). Ladder rung 1.
struct ConcreteLevel {
  template <typename Fn> uint64_t list(unsigned, Fn &&F) {
    ArrayListImpl<int64_t> C;
    return F(C);
  }
  template <typename Fn> uint64_t set(unsigned, Fn &&F) {
    ChainedHashSetImpl<int64_t> C;
    return F(C);
  }
  template <typename Fn> uint64_t map(unsigned, Fn &&F) {
    ChainedHashMapImpl<int64_t, int64_t> C;
    return F(C);
  }
  void finished(unsigned) {}
};

/// The same variants through the factory and the virtual *Impl
/// interfaces. Ladder rung 2.
struct DispatchLevel {
  template <typename Fn> uint64_t list(unsigned, Fn &&F) {
    auto C = makeListImpl<int64_t>(ListVariant::ArrayList);
    return F(*C);
  }
  template <typename Fn> uint64_t set(unsigned, Fn &&F) {
    auto C = makeSetImpl<int64_t>(SetVariant::ChainedHashSet);
    return F(*C);
  }
  template <typename Fn> uint64_t map(unsigned, Fn &&F) {
    auto C = makeMapImpl<int64_t, int64_t>(MapVariant::ChainedHashMap);
    return F(*C);
  }
  void finished(unsigned) {}
};

/// Unmonitored facades of the default variants: the unmodified program
/// (op_stream's Original) and ladder rung 3.
struct FacadeLevel {
  template <typename Fn> uint64_t list(unsigned, Fn &&F) {
    auto C = makeList<int64_t>(ListVariant::ArrayList);
    return F(C);
  }
  template <typename Fn> uint64_t set(unsigned, Fn &&F) {
    auto C = makeSet<int64_t>(SetVariant::ChainedHashSet);
    return F(C);
  }
  template <typename Fn> uint64_t map(unsigned, Fn &&F) {
    auto C = makeMap<int64_t, int64_t>(MapVariant::ChainedHashMap);
    return F(C);
  }
  void finished(unsigned) {}
};

/// Six allocation contexts starting on the defaults: the framework, and
/// ladder rungs 4-8. With a span log, creation, the operations,
/// destruction (the profile publish) and evaluation are spans.
class ContextLevel {
public:
  ContextLevel(const std::string &Prefix,
               std::shared_ptr<const PerformanceModel> Model,
               const SelectionRule &Rule, const ContextOptions &Options,
               bool SharedProfiling)
      : SharedProfiling(SharedProfiling) {
    for (unsigned Mix = 0; Mix != 2; ++Mix) {
      Lists[Mix] = std::make_unique<ListContext<int64_t>>(
          Prefix + "." + SiteNames[Mix], ListVariant::ArrayList, Model, Rule,
          Options);
      Sets[Mix] = std::make_unique<SetContext<int64_t>>(
          Prefix + "." + SiteNames[2 + Mix], SetVariant::ChainedHashSet,
          Model, Rule, Options);
      Maps[Mix] = std::make_unique<MapContext<int64_t, int64_t>>(
          Prefix + "." + SiteNames[4 + Mix], MapVariant::ChainedHashMap,
          Model, Rule, Options);
    }
    // Stagger the sites so evaluations spread over the batches.
    for (unsigned Site = 0; Site != NumSites; ++Site)
      Created[Site] = Site * EvaluateEvery / NumSites;
  }

  template <typename Fn> uint64_t list(unsigned Site, Fn &&F) {
    return exercise([&] { return Lists[Site % 2]->createList(); }, F);
  }
  template <typename Fn> uint64_t set(unsigned Site, Fn &&F) {
    return exercise([&] { return Sets[Site % 2]->createSet(); }, F);
  }
  template <typename Fn> uint64_t map(unsigned Site, Fn &&F) {
    return exercise([&] { return Maps[Site % 2]->createMap(); }, F);
  }

  void finished(unsigned Site) {
    if (++Created[Site] % EvaluateEvery != 0)
      return;
    ScopedSpan Span(Log, EvaluateSpan);
    context(Site).evaluate();
  }

  AllocationContextBase &context(unsigned Site) {
    if (Site < 2)
      return *Lists[Site % 2];
    if (Site < 4)
      return *Sets[Site % 2];
    return *Maps[Site % 2];
  }

  /// Monitoring counters summed over the six contexts.
  EngineStats stats() {
    EngineStats Sum;
    for (unsigned Site = 0; Site != NumSites; ++Site)
      Sum += context(Site).stats();
    return Sum;
  }

  std::string variants() {
    std::string Out;
    for (unsigned Site = 0; Site != NumSites; ++Site)
      Out += std::string(Site ? " " : "") + SiteNames[Site] + "=" +
             context(Site).currentVariant().name();
    return Out;
  }

  /// Span log of the instances and evaluations (null: untraced).
  SpanLog *Log = nullptr;
  /// Instance spans are recorded for one instance in TraceEvery.
  uint64_t TraceEvery = 1;
  const char *EvaluateSpan = "core.evaluate";

private:
  template <typename CreateFn, typename Fn>
  uint64_t exercise(CreateFn &&Create, Fn &&F) {
    SpanLog *InstanceLog = Log && Traced++ % TraceEvery == 0 ? Log : nullptr;
    std::optional<decltype(Create())> C;
    {
      ScopedSpan Span(InstanceLog, "core.create");
      C.emplace(Create());
      if (SharedProfiling)
        C->enableSharedProfiling(nullptr);
    }
    uint64_t Fold;
    {
      ScopedSpan Span(InstanceLog, "collections.ops");
      Fold = F(*C);
    }
    ScopedSpan Span(InstanceLog, "core.destroy");
    C.reset();
    return Fold;
  }

  bool SharedProfiling;
  std::array<std::unique_ptr<ListContext<int64_t>>, 2> Lists;
  std::array<std::unique_ptr<SetContext<int64_t>>, 2> Sets;
  std::array<std::unique_ptr<MapContext<int64_t, int64_t>>, 2> Maps;
  std::array<uint64_t, NumSites> Created = {};
  uint64_t Traced = 0;
};

/// Runs the instances of \p B whose mix is \p Mix (-1: all) on \p L;
/// returns how many results differ from the reference.
template <typename LevelT>
uint64_t runBatch(LevelT &L, const Stream &S, const Batch &B, int Mix = -1) {
  uint64_t Mismatches = 0;
  for (const Instance &I : B.Instances) {
    if (Mix >= 0 && I.Site % 2 != unsigned(Mix))
      continue;
    const int64_t *Keys = S.Keys.data() + I.Begin;
    bool Read = I.Site % 2 == 0;
    auto Program = [&](auto &C) { return runProgram(C, Keys, I.Size, Read); };
    uint64_t Fold = I.Site < 2   ? L.list(I.Site, Program)
                    : I.Site < 4 ? L.set(I.Site, Program)
                                 : L.map(I.Site, Program);
    Mismatches += Fold != I.Expected;
    L.finished(I.Site);
  }
  return Mismatches;
}

} // namespace

void cswitch::suite::runOpStream(const RunContext &Ctx, Report &R) {
  Stream S;
  std::unique_ptr<ContextLevel> Framework;
  SetupTimer Setup(Ctx, [&](bool Keep) {
    auto Model = loadPinnedModel(Ctx.ModelPath);
    Stream Built = makeStream(deriveSeed(Ctx.Seed, 1), StreamBatches);
    auto Contexts = std::make_unique<ContextLevel>(
        "op_stream", Model, SelectionRule::timeRule(), ContextOptions{}, false);
    if (Keep) {
      S = std::move(Built);
      Framework = std::move(Contexts);
    }
  });
  FacadeLevel Original;
  auto batchAt = [&](size_t I) -> const Batch & {
    return S.Batches[I % S.Batches.size()];
  };
  for (size_t I = 0; I != WarmupBatches; ++I) {
    R.checks(batchAt(I).size(), runBatch(*Framework, S, batchAt(I)),
             "op_stream framework fold");
    R.checks(batchAt(I).size(), runBatch(Original, S, batchAt(I)),
             "op_stream original fold");
  }

  // Pairs of the same batch on the framework and on Original, adjacent
  // in time; Ratios holds framework / Original per untraced pair.
  std::vector<double> FrameworkMs, OriginalMs, Ratios, TracedRatios;
  uint64_t FrameworkOps = 0;
  double FrameworkSeconds = 0.0;
  EngineStats Converged;
  double Deadline = nowSeconds() + Ctx.Seconds;
  for (size_t I = 0; I < MinBatches || nowSeconds() < Deadline; ++I) {
    Setup.tick();
    const Batch &B = batchAt(WarmupBatches + I);
    // Pairs alternate which side runs first; traced runs trace every
    // other pair.
    bool Traced = Ctx.Log && (I & 2);
    double FrameworkSec = 0.0, OriginalSec = 0.0;
    auto runFramework = [&] {
      Framework->Log = Traced ? Ctx.Log : nullptr;
      double Start = nowSeconds();
      uint64_t Bad;
      {
        ScopedSpan Span(Framework->Log, "batch");
        Bad = runBatch(*Framework, S, B);
      }
      FrameworkSec = nowSeconds() - Start;
      R.checks(B.size(), Bad, "op_stream framework fold");
    };
    auto runOriginal = [&] {
      double Start = nowSeconds();
      uint64_t Bad = runBatch(Original, S, B);
      OriginalSec = nowSeconds() - Start;
      R.checks(B.size(), Bad, "op_stream original fold");
    };
    if (I & 1) {
      runOriginal();
      runFramework();
    } else {
      runFramework();
      runOriginal();
    }
    if (I == 0)
      Converged = Framework->stats();
    if (Traced) {
      TracedRatios.push_back(FrameworkSec / OriginalSec);
      continue;
    }
    FrameworkMs.push_back(FrameworkSec * 1e3);
    OriginalMs.push_back(OriginalSec * 1e3);
    Ratios.push_back(FrameworkSec / OriginalSec);
    FrameworkOps += B.ops();
    FrameworkSeconds += FrameworkSec;
  }
  Framework->Log = nullptr;

  EngineStats Total = Framework->stats();
  R.metric("setup_s", Setup.finish(), "s");
  double BatchMs = uncontendedMs({OriginalMs}) * median(Ratios);
  R.metric("batch_ms", BatchMs, "ms");
  R.metric("batch_p90_ms", BatchMs * quantile(relativeToMedian(Ratios), 0.9),
           "ms");
  R.metric("gain_vs_original", 1.0 / median(Ratios), "ratio");
  R.metric("core.evaluations", double(Converged.Evaluations), "count");
  R.metric("core.switches", double(Converged.Switches), "count");
  R.metric("core.publish_ratio",
           ratio(Total.ProfilesPublished, Total.InstancesMonitored), "ratio");
  if (Ctx.Log)
    R.metric("trace.overhead", median(TracedRatios) / median(Ratios),
             "ratio");
  R.extra("op_stream.ops_per_s", double(FrameworkOps) / FrameworkSeconds,
          "ops/s");
  R.extra("op_stream.original_ms", uncontendedMs({OriginalMs}), "ms");
  R.extra("op_stream.raw_median_ms", median(FrameworkMs), "ms");
  R.extra("op_stream.raw_p90_ms", quantile(FrameworkMs, 0.9), "ms");
  R.extra("op_stream.pairs", double(FrameworkMs.size()), "count");
  R.extra("op_stream.ops_per_batch", double(batchAt(0).ops()), "count");
  R.note("op_stream.variants", Framework->variants());
}

void cswitch::suite::runLayerProbe(const RunContext &Ctx, Report &R) {
  auto Model = loadPinnedModel(Ctx.ModelPath);
  Stream S = makeStream(deriveSeed(Ctx.Seed, 2), ProbeBatches);
  TraceRecorder Recorder(TraceRecorderOptions{}.capacity(size_t(1) << 20));
  ContextOptions Plain;
  ContextOptions Recorded = ContextOptions{}.recorder(&Recorder);
  SelectionRule Never = SelectionRule::impossibleRule();

  // --- Layer ladder: rungs interleaved round-robin on the same batch ---
  constexpr unsigned Rungs = 8;
  static const char *const RungSpans[Rungs] = {
      "ladder.variant",  "ladder.dispatch", "ladder.facade",
      "ladder.monitor",  "ladder.histogram", "ladder.shared",
      "ladder.recorder", "ladder.explain"};
  ConcreteLevel Rung1;
  DispatchLevel Rung2;
  FacadeLevel Rung3;
  ContextLevel Rung4("ladder.r4", Model, Never, Plain, false);
  ContextLevel Rung5("ladder.r5", Model, Never, Plain, false);
  ContextLevel Rung6("ladder.r6", Model, Never, Plain, true);
  ContextLevel Rung7("ladder.r7", Model, Never, Recorded, true);
  ContextLevel Rung8("ladder.r8", Model, Never, Recorded, true);

  std::array<std::vector<double>, Rungs> NsPerOp;
  std::vector<double> ReadNs, WriteNs;
  uint64_t RecordedOps = 0, DroppedOps = 0;
  double LadderDeadline = nowSeconds() + Ctx.Seconds * 0.6;
  for (size_t Round = 0; Round < MinRounds || nowSeconds() < LadderDeadline;
       ++Round) {
    const Batch &B = S.Batches[Round % S.Batches.size()];
    ScopedSpan RoundSpan(Ctx.Log, "ladder.round");
    for (unsigned J = 0; J != Rungs; ++J) {
      unsigned Rung = (Round + J) % Rungs + 1;
      obs::ProfilingRegistry::setEnabled(Rung >= 5);
      obs::ProvenanceRegistry::setEnabled(Rung == 8);
      if (Rung >= 7)
        Recorder.clear();
      ScopedSpan RungSpan(Ctx.Log, RungSpans[Rung - 1]);
      double Start = nowSeconds();
      uint64_t Bad = 0;
      switch (Rung) {
      case 1: {
        Bad = runBatch(Rung1, S, B, 0);
        double Mid = nowSeconds();
        Bad += runBatch(Rung1, S, B, 1);
        ReadNs.push_back((Mid - Start) * 1e9 / double(B.Ops[0]));
        WriteNs.push_back((nowSeconds() - Mid) * 1e9 / double(B.Ops[1]));
        break;
      }
      case 2:
        Bad = runBatch(Rung2, S, B);
        break;
      case 3:
        Bad = runBatch(Rung3, S, B);
        break;
      case 4:
        Bad = runBatch(Rung4, S, B);
        break;
      case 5:
        Bad = runBatch(Rung5, S, B);
        break;
      case 6:
        Bad = runBatch(Rung6, S, B);
        break;
      case 7:
        Bad = runBatch(Rung7, S, B);
        break;
      default:
        Bad = runBatch(Rung8, S, B);
        break;
      }
      NsPerOp[Rung - 1].push_back((nowSeconds() - Start) * 1e9 /
                                  double(B.ops()));
      R.checks(B.size(), Bad, "ladder fold");
      if (Rung >= 7) {
        RecordedOps += Recorder.opsRecorded();
        DroppedOps += Recorder.opsDropped();
      }
    }
  }
  obs::ProfilingRegistry::setEnabled(true);
  obs::ProvenanceRegistry::setEnabled(false);

  // Layer cost = median over rounds of the paired difference between a
  // rung and the one below it (same batch, same round).
  auto delta = [&](unsigned Rung) {
    std::vector<double> D;
    for (size_t I = 0; I != NsPerOp[Rung - 1].size(); ++I)
      D.push_back(NsPerOp[Rung - 1][I] - NsPerOp[Rung - 2][I]);
    return median(D);
  };
  R.metric("collections.variant_ns", median(NsPerOp[0]), "ns");
  R.metric("collections.variant_read_ns", median(ReadNs), "ns");
  R.metric("collections.variant_write_ns", median(WriteNs), "ns");
  R.metric("collections.dispatch_ns", delta(2), "ns");
  R.metric("collections.facade_ns", delta(3), "ns");
  R.metric("core.monitor_ns", delta(4), "ns");
  R.metric("obs.histogram_ns", delta(5), "ns");
  R.metric("profile.shared_ns", delta(6), "ns");
  R.metric("replay.record_ns", delta(7), "ns");
  R.metric("obs.explain_ns", delta(8), "ns");
  R.metric("replay.drop_ratio", ratio(DroppedOps, RecordedOps + DroppedOps),
           "ratio");
  R.extra("ladder.rounds", double(NsPerOp[0].size()), "count");
  for (unsigned Rung = 1; Rung <= Rungs; ++Rung)
    R.extra(std::string("ladder.rung") + char('0' + Rung) + "_ns",
            median(NsPerOp[Rung - 1]), "ns");

  // --- Spans around creation, destruction and evaluation (Rtime) ---
  SpanLog &Log = *Ctx.Log;
  ContextLevel Probe("probe", Model, SelectionRule::timeRule(), Plain, false);
  Probe.Log = &Log;
  Probe.TraceEvery = ProbeTraceEvery;
  size_t Mark = Log.size();
  double SpanDeadline = nowSeconds() + Ctx.Seconds * 0.3;
  for (size_t I = 0; I < MinRounds || nowSeconds() < SpanDeadline; ++I) {
    bool Explain = I % 2 == 1;
    obs::ProvenanceRegistry::setEnabled(Explain);
    Probe.EvaluateSpan = Explain ? "obs.explain_evaluate" : "core.evaluate";
    const Batch &B = S.Batches[I % S.Batches.size()];
    ScopedSpan Span(&Log, "probe.batch");
    R.checks(B.size(), runBatch(Probe, S, B), "probe fold");
  }
  obs::ProvenanceRegistry::setEnabled(false);
  std::vector<double> Evaluate = Log.durations("core.evaluate", Mark);
  R.metric("core.create_ns",
           interquartileMean(Log.durations("core.create", Mark)), "ns");
  R.metric("core.destroy_ns",
           interquartileMean(Log.durations("core.destroy", Mark)), "ns");
  R.metric("core.evaluate_us", median(Evaluate) / 1e3, "us");
  R.metric("core.evaluate_p99_us", quantile(Evaluate, 0.99) / 1e3, "us");
  R.metric("obs.explain_evaluate_us",
           median(Log.durations("obs.explain_evaluate", Mark)) / 1e3, "us");
  R.extra("probe.evaluations", double(Evaluate.size()), "count");

  // --- Model ranking: every sequential candidate for one profile ---
  std::vector<std::pair<AbstractionKind, WorkloadProfile>> Profiles;
  FacadeLevel Facades;
  for (const Instance &I : S.Batches[0].Instances) {
    if (Profiles.size() == 64)
      break;
    const int64_t *Keys = S.Keys.data() + I.Begin;
    auto Capture = [&](auto &C) {
      uint64_t Fold = runProgram(C, Keys, I.Size, I.Site % 2 == 0);
      Profiles.emplace_back(static_cast<AbstractionKind>(I.Site / 2),
                            C.profile());
      return Fold;
    };
    R.check((I.Site < 2   ? Facades.list(I.Site, Capture)
             : I.Site < 4 ? Facades.set(I.Site, Capture)
                          : Facades.map(I.Site, Capture)) == I.Expected,
            "profile capture fold");
  }
  std::vector<double> RankNs;
  double CostSum = 0.0;
  double RankDeadline = nowSeconds() + Ctx.Seconds * 0.1;
  while (RankNs.size() < MinRounds || nowSeconds() < RankDeadline) {
    ScopedSpan Span(&Log, "model.rank");
    double Start = nowSeconds();
    for (const auto &[Kind, Profile] : Profiles)
      for (unsigned V = 0, E = firstConcurrentVariant(Kind); V != E; ++V)
        CostSum += Model->totalCost({Kind, V}, Profile, CostDimension::Time);
    RankNs.push_back((nowSeconds() - Start) * 1e9 / double(Profiles.size()));
  }
  R.check(std::isfinite(CostSum) && CostSum > 0.0, "model ranking costs");
  R.metric("model.rank_ns", median(RankNs), "ns");
}
