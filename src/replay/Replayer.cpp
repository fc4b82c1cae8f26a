//===- Replayer.cpp - Deterministic trace re-execution --------------------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//

#include "replay/Replayer.h"

#include "core/SwitchEngine.h"
#include "support/MemoryTracker.h"
#include "support/Random.h"
#include "support/Timer.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <thread>
#include <unordered_map>

using namespace cswitch;

namespace {

/// Per-instance seed: a replayed instance's operand stream depends only
/// on (root seed, site, instance id), never on scheduling.
uint64_t mixSeed(uint64_t Seed, uint32_t Site, uint32_t Instance) {
  SplitMix64 Rng(Seed ^ (uint64_t(Site) << 32) ^ Instance);
  return Rng.next();
}

/// A value that was never inserted (inserted values count up from 0).
uint64_t missValue(SplitMix64 &Rng) {
  return (uint64_t(1) << 62) + Rng.nextBelow(uint64_t(1) << 20);
}

/// Re-synthesizes an index into an existing element ([0, Size)) from its
/// recorded class. Caller guarantees Size > 0.
size_t pickExistingIndex(OpClass Class, size_t Size, SplitMix64 &Rng) {
  switch (Class) {
  case OpClass::Front:
    return 0;
  case OpClass::Back:
    return Size - 1;
  case OpClass::Interior:
    return Size > 2 ? 1 + Rng.nextBelow(Size - 2) : Size - 1;
  default:
    return Rng.nextBelow(Size);
  }
}

/// Re-synthesizes an insert position ([0, Size]) from its recorded class.
size_t pickInsertIndex(OpClass Class, size_t Size, SplitMix64 &Rng) {
  switch (Class) {
  case OpClass::Front:
    return 0;
  case OpClass::Back:
    return Size;
  case OpClass::Interior:
    return Size > 2 ? 1 + Rng.nextBelow(Size - 2) : Size;
  default:
    return Rng.nextBelow(Size + 1);
  }
}

//===----------------------------------------------------------------------===//
// Per-site replay state
//===----------------------------------------------------------------------===//

struct SiteRun {
  /// One live replayed list: the facade under measurement plus a mirror
  /// of its contents so hit operands can be picked without reading the
  /// facade (which would perturb its workload profile).
  struct ListInstance {
    List<uint64_t> Facade;
    std::vector<uint64_t> Mirror;
    SplitMix64 Rng;
    uint64_t NextVal = 0;
    /// Variant index the instance was created with and the workload it
    /// executed (accumulated only when trajectory costs are on).
    unsigned Variant = 0;
    WorkloadProfile Work;

    ListInstance(List<uint64_t> Facade, uint64_t Seed)
        : Facade(std::move(Facade)), Rng(Seed) {}
  };

  /// One live replayed set: LiveKeys mirrors the member keys.
  struct SetInstance {
    Set<uint64_t> Facade;
    std::vector<uint64_t> LiveKeys;
    SplitMix64 Rng;
    uint64_t NextKey = 0;
    unsigned Variant = 0;
    WorkloadProfile Work;

    SetInstance(Set<uint64_t> Facade, uint64_t Seed)
        : Facade(std::move(Facade)), Rng(Seed) {}
  };

  /// One live replayed map.
  struct MapInstance {
    Map<uint64_t, uint64_t> Facade;
    std::vector<uint64_t> LiveKeys;
    SplitMix64 Rng;
    uint64_t NextKey = 0;
    unsigned Variant = 0;
    WorkloadProfile Work;

    MapInstance(Map<uint64_t, uint64_t> Facade, uint64_t Seed)
        : Facade(std::move(Facade)), Rng(Seed) {}
  };

  const TraceSite *Site = nullptr;
  uint32_t Index = 0;

  // Engine mode: the adaptive context of this site (one of the three,
  // by abstraction). Fixed mode: the pinned variant index.
  std::unique_ptr<ListContext<uint64_t>> ListCtx;
  std::unique_ptr<SetContext<uint64_t>> SetCtx;
  std::unique_ptr<MapContext<uint64_t, uint64_t>> MapCtx;
  unsigned FixedVariant = 0;
  /// When set, instances accumulate their workload and are costed on the
  /// variant they were created with (trajectory costs; see
  /// SiteReplayResult::TrajectoryTime).
  const PerformanceModel *CostModel = nullptr;

  std::unordered_map<uint32_t, ListInstance> Lists;
  std::unordered_map<uint32_t, SetInstance> Sets;
  std::unordered_map<uint32_t, MapInstance> Maps;

  uint64_t OpsSinceEval = 0;
  uint64_t InstancesReplayed = 0;
  /// Side-effect sink so replayed reads cannot be optimized away.
  uint64_t Sink = 0;
  SiteReplayResult Result;
  std::string Log;

  AllocationContextBase *context() const {
    if (ListCtx)
      return ListCtx.get();
    if (SetCtx)
      return SetCtx.get();
    return MapCtx.get();
  }

  void evaluateContext() {
    AllocationContextBase *Ctx = context();
    bool Switched = Ctx->evaluate();
    ++Result.Evaluations;
    if (Switched)
      ++Result.Switches;
    Log += "site=";
    Log += Site->Name;
    Log += " eval=";
    Log += std::to_string(Result.Evaluations);
    Log += " variant=";
    Log += Ctx->currentVariant().name();
    Log += Switched ? " switched=1\n" : " switched=0\n";
  }

  void beginInstance(const TraceOp &Op, uint64_t RootSeed) {
    uint64_t Seed = mixSeed(RootSeed, Op.Site, Op.Instance);
    ++InstancesReplayed;
    AllocationContextBase *Ctx = context();
    unsigned Variant = Ctx ? Ctx->currentVariantIndex() : FixedVariant;
    switch (Site->Kind) {
    case AbstractionKind::List: {
      List<uint64_t> L =
          ListCtx ? ListCtx->createList()
                  : List<uint64_t>(makeListImpl<uint64_t>(
                        static_cast<ListVariant>(FixedVariant)));
      auto It = Lists.emplace(Op.Instance, ListInstance(std::move(L), Seed));
      It.first->second.Variant = Variant;
      break;
    }
    case AbstractionKind::Set: {
      Set<uint64_t> S =
          SetCtx ? SetCtx->createSet()
                 : Set<uint64_t>(makeSetImpl<uint64_t>(
                       static_cast<SetVariant>(FixedVariant)));
      auto It = Sets.emplace(Op.Instance, SetInstance(std::move(S), Seed));
      It.first->second.Variant = Variant;
      break;
    }
    case AbstractionKind::Map: {
      Map<uint64_t, uint64_t> M =
          MapCtx ? MapCtx->createMap()
                 : Map<uint64_t, uint64_t>(makeMapImpl<uint64_t, uint64_t>(
                       static_cast<MapVariant>(FixedVariant)));
      auto It = Maps.emplace(Op.Instance, MapInstance(std::move(M), Seed));
      It.first->second.Variant = Variant;
      break;
    }
    }
  }

  /// Accumulates \p Op into the instance's realized workload profile
  /// (mirrors aggregateTrace's per-instance accumulation); only when
  /// trajectory costs are on.
  template <typename Instance>
  void recordWork(Instance &I, const TraceOp &Op) {
    if (!CostModel)
      return;
    if (std::optional<OperationKind> Kind = toOperationKind(Op.Kind))
      I.Work.record(*Kind);
    I.Work.recordSize(Op.Size);
  }

  /// Costs one finished (or straggling) instance on the variant it was
  /// created with. Accumulated over every instance this is the replay's
  /// trajectory cost — instances created before a context switched still
  /// pay the pre-switch variant, so earlier convergence scores better.
  template <typename Instance> void costInstance(const Instance &I) {
    if (!CostModel)
      return;
    VariantId V{Site->Kind, I.Variant};
    Result.TrajectoryTime += CostModel->totalCost(V, I.Work,
                                                  CostDimension::Time);
    Result.TrajectoryAlloc += CostModel->totalCost(V, I.Work,
                                                   CostDimension::Alloc);
  }

  void execListOp(ListInstance &I, const TraceOp &Op) {
    recordWork(I, Op);
    List<uint64_t> &L = I.Facade;
    std::vector<uint64_t> &M = I.Mirror;
    switch (Op.Kind) {
    case TraceOpKind::Populate: {
      uint64_t V = I.NextVal++;
      L.add(V);
      M.push_back(V);
      break;
    }
    case TraceOpKind::InsertAt: {
      size_t Idx = pickInsertIndex(Op.Class, M.size(), I.Rng);
      uint64_t V = I.NextVal++;
      L.insert(Idx, V);
      M.insert(M.begin() + static_cast<ptrdiff_t>(Idx), V);
      break;
    }
    case TraceOpKind::RemoveAt: {
      if (M.empty())
        break;
      size_t Idx = pickExistingIndex(Op.Class, M.size(), I.Rng);
      L.removeAt(Idx);
      M.erase(M.begin() + static_cast<ptrdiff_t>(Idx));
      break;
    }
    case TraceOpKind::RemoveValue: {
      if (Op.Class == OpClass::Hit && !M.empty()) {
        size_t Idx = I.Rng.nextBelow(M.size());
        L.remove(M[Idx]);
        M.erase(M.begin() + static_cast<ptrdiff_t>(Idx));
      } else {
        L.remove(missValue(I.Rng));
      }
      break;
    }
    case TraceOpKind::IndexGet: {
      if (M.empty())
        break;
      Sink += L.get(pickExistingIndex(Op.Class, M.size(), I.Rng));
      break;
    }
    case TraceOpKind::IndexSet: {
      if (M.empty())
        break;
      size_t Idx = pickExistingIndex(Op.Class, M.size(), I.Rng);
      uint64_t V = I.NextVal++;
      L.set(Idx, V);
      M[Idx] = V;
      break;
    }
    case TraceOpKind::Contains: {
      uint64_t V = Op.Class == OpClass::Hit && !M.empty()
                       ? M[I.Rng.nextBelow(M.size())]
                       : missValue(I.Rng);
      Sink += L.contains(V) ? 1 : 0;
      break;
    }
    case TraceOpKind::Iterate: {
      uint64_t Sum = 0;
      L.forEach([&Sum](const uint64_t &V) { Sum += V; });
      Sink += Sum;
      break;
    }
    case TraceOpKind::Clear:
      L.clear();
      M.clear();
      break;
    default:
      break;
    }
    if (L.size() != Op.Size)
      ++Result.SizeMismatches;
  }

  void execSetOp(SetInstance &I, const TraceOp &Op) {
    recordWork(I, Op);
    Set<uint64_t> &S = I.Facade;
    std::vector<uint64_t> &Keys = I.LiveKeys;
    switch (Op.Kind) {
    case TraceOpKind::Populate: {
      if (Op.Class == OpClass::Hit && !Keys.empty()) {
        S.add(Keys[I.Rng.nextBelow(Keys.size())]);
      } else {
        uint64_t K = I.NextKey++;
        S.add(K);
        Keys.push_back(K);
      }
      break;
    }
    case TraceOpKind::Contains: {
      uint64_t K = Op.Class == OpClass::Hit && !Keys.empty()
                       ? Keys[I.Rng.nextBelow(Keys.size())]
                       : missValue(I.Rng);
      Sink += S.contains(K) ? 1 : 0;
      break;
    }
    case TraceOpKind::RemoveValue: {
      if (Op.Class == OpClass::Hit && !Keys.empty()) {
        size_t Idx = I.Rng.nextBelow(Keys.size());
        S.remove(Keys[Idx]);
        Keys[Idx] = Keys.back();
        Keys.pop_back();
      } else {
        S.remove(missValue(I.Rng));
      }
      break;
    }
    case TraceOpKind::Iterate: {
      uint64_t Sum = 0;
      S.forEach([&Sum](const uint64_t &V) { Sum += V; });
      Sink += Sum;
      break;
    }
    case TraceOpKind::Clear:
      S.clear();
      Keys.clear();
      break;
    default:
      break;
    }
    if (S.size() != Op.Size)
      ++Result.SizeMismatches;
  }

  void execMapOp(MapInstance &I, const TraceOp &Op) {
    recordWork(I, Op);
    Map<uint64_t, uint64_t> &M = I.Facade;
    std::vector<uint64_t> &Keys = I.LiveKeys;
    switch (Op.Kind) {
    case TraceOpKind::Populate: {
      if (Op.Class == OpClass::Hit && !Keys.empty()) {
        M.put(Keys[I.Rng.nextBelow(Keys.size())], I.Rng.next());
      } else {
        uint64_t K = I.NextKey++;
        M.put(K, I.Rng.next());
        Keys.push_back(K);
      }
      break;
    }
    case TraceOpKind::Contains: {
      uint64_t K = Op.Class == OpClass::Hit && !Keys.empty()
                       ? Keys[I.Rng.nextBelow(Keys.size())]
                       : missValue(I.Rng);
      const uint64_t *V = M.get(K);
      Sink += V ? *V : 0;
      break;
    }
    case TraceOpKind::RemoveValue: {
      if (Op.Class == OpClass::Hit && !Keys.empty()) {
        size_t Idx = I.Rng.nextBelow(Keys.size());
        M.remove(Keys[Idx]);
        Keys[Idx] = Keys.back();
        Keys.pop_back();
      } else {
        M.remove(missValue(I.Rng));
      }
      break;
    }
    case TraceOpKind::Iterate: {
      uint64_t Sum = 0;
      M.forEach([&Sum](const uint64_t &K, const uint64_t &V) {
        Sum += K + V;
      });
      Sink += Sum;
      break;
    }
    case TraceOpKind::Clear:
      M.clear();
      Keys.clear();
      break;
    default:
      break;
    }
    if (M.size() != Op.Size)
      ++Result.SizeMismatches;
  }

  /// Executes one op of this site.
  void execute(const TraceOp &Op, const ReplayOptions &Options) {
    ++Result.OpsExecuted;
    if (Op.Kind == TraceOpKind::InstanceBegin) {
      beginInstance(Op, Options.Seed);
    } else if (Op.Kind == TraceOpKind::InstanceEnd) {
      // Destroying the facade reports its profile (engine mode).
      switch (Site->Kind) {
      case AbstractionKind::List: {
        auto It = Lists.find(Op.Instance);
        if (It != Lists.end()) {
          if (It->second.Facade.size() != Op.Size)
            ++Result.SizeMismatches;
          costInstance(It->second);
          Lists.erase(It);
        }
        break;
      }
      case AbstractionKind::Set: {
        auto It = Sets.find(Op.Instance);
        if (It != Sets.end()) {
          if (It->second.Facade.size() != Op.Size)
            ++Result.SizeMismatches;
          costInstance(It->second);
          Sets.erase(It);
        }
        break;
      }
      case AbstractionKind::Map: {
        auto It = Maps.find(Op.Instance);
        if (It != Maps.end()) {
          if (It->second.Facade.size() != Op.Size)
            ++Result.SizeMismatches;
          costInstance(It->second);
          Maps.erase(It);
        }
        break;
      }
      }
    } else {
      // Collection op: dispatch to the live instance. Ops of instances
      // whose begin marker was dropped are skipped (the trace's
      // OpsDropped counter reports the loss).
      switch (Site->Kind) {
      case AbstractionKind::List: {
        auto It = Lists.find(Op.Instance);
        if (It != Lists.end())
          execListOp(It->second, Op);
        break;
      }
      case AbstractionKind::Set: {
        auto It = Sets.find(Op.Instance);
        if (It != Sets.end())
          execSetOp(It->second, Op);
        break;
      }
      case AbstractionKind::Map: {
        auto It = Maps.find(Op.Instance);
        if (It != Maps.end())
          execMapOp(It->second, Op);
        break;
      }
      }
    }
    if (context()) {
      if (++OpsSinceEval >= Options.EvalEveryOps) {
        OpsSinceEval = 0;
        evaluateContext();
      }
    }
  }

  /// End of stream: stragglers die (publishing their profiles), then a
  /// final evaluation closes the last monitoring round.
  void finish() {
    if (CostModel) {
      // Cost stragglers in instance-id order: double accumulation is
      // order-sensitive and the unordered_map iteration order must not
      // leak into the (bit-deterministic) trajectory totals.
      auto CostAll = [this](auto &Instances) {
        std::vector<uint32_t> Ids;
        Ids.reserve(Instances.size());
        for (const auto &Entry : Instances)
          Ids.push_back(Entry.first);
        std::sort(Ids.begin(), Ids.end());
        for (uint32_t Id : Ids)
          costInstance(Instances.at(Id));
      };
      CostAll(Lists);
      CostAll(Sets);
      CostAll(Maps);
    }
    Lists.clear();
    Sets.clear();
    Maps.clear();
    if (AllocationContextBase *Ctx = context()) {
      evaluateContext();
      Result.FinalVariantIndex = Ctx->currentVariantIndex();
    } else {
      Result.FinalVariantIndex = FixedVariant;
    }
  }
};

/// Replays \p Trace once under \p Options (Replayer::run and
/// replayCorpus, without copying the trace).
ReplayResult replayTrace(const OpTrace &Trace, const ReplayOptions &Options) {
  assert((Options.Mode != ReplayMode::Engine || Options.Model) &&
         "engine-mode replay requires a performance model");

  size_t NumSites = Trace.Sites.size();
  std::vector<SiteRun> Runs(NumSites);
  SwitchEngine Engine; // Private registry; never started — evaluation
                       // is driven deterministically below.
  for (size_t I = 0; I != NumSites; ++I) {
    const TraceSite &Site = Trace.Sites[I];
    SiteRun &Run = Runs[I];
    Run.Site = &Site;
    Run.Index = static_cast<uint32_t>(I);
    Run.CostModel = Options.Model.get();
    Run.Result.Name = Site.Name;
    Run.Result.Kind = Site.Kind;
    Run.Result.InitialVariantIndex = Site.DeclaredVariantIndex;
    if (Options.Mode == ReplayMode::Engine) {
      switch (Site.Kind) {
      case AbstractionKind::List:
        Run.ListCtx = std::make_unique<ListContext<uint64_t>>(
            Site.Name, static_cast<ListVariant>(Site.DeclaredVariantIndex),
            Options.Model, Options.Rule, Options.Context);
        break;
      case AbstractionKind::Set:
        Run.SetCtx = std::make_unique<SetContext<uint64_t>>(
            Site.Name, static_cast<SetVariant>(Site.DeclaredVariantIndex),
            Options.Model, Options.Rule, Options.Context);
        break;
      case AbstractionKind::Map:
        Run.MapCtx = std::make_unique<MapContext<uint64_t, uint64_t>>(
            Site.Name, static_cast<MapVariant>(Site.DeclaredVariantIndex),
            Options.Model, Options.Rule, Options.Context);
        break;
      }
      Engine.registerContext(Run.context());
    } else {
      unsigned Declared = Site.DeclaredVariantIndex;
      switch (Site.Kind) {
      case AbstractionKind::List:
        Run.FixedVariant = Options.FixedList.value_or(Declared);
        break;
      case AbstractionKind::Set:
        Run.FixedVariant = Options.FixedSet.value_or(Declared);
        break;
      case AbstractionKind::Map:
        Run.FixedVariant = Options.FixedMap.value_or(Declared);
        break;
      }
    }
  }

  unsigned Threads = std::max(1u, Options.Threads);
  if (NumSites > 0)
    Threads = static_cast<unsigned>(
        std::min<size_t>(Threads, NumSites));
  std::atomic<uint64_t> AllocatedBytes{0};

  // Sites are partitioned round-robin; every worker scans the whole op
  // stream and executes only its sites' ops, preserving each site's
  // recorded op order exactly.
  auto Worker = [&](unsigned ThreadIndex) {
    AllocationScope Scope;
    for (const TraceOp &Op : Trace.Ops) {
      if (Op.Site >= NumSites || Op.Site % Threads != ThreadIndex)
        continue;
      Runs[Op.Site].execute(Op, Options);
    }
    for (size_t I = ThreadIndex; I < NumSites; I += Threads)
      Runs[I].finish();
    AllocatedBytes.fetch_add(Scope.allocatedInScope(),
                             std::memory_order_relaxed);
  };

  Timer Clock;
  if (Threads == 1) {
    Worker(0);
  } else {
    std::vector<std::thread> Pool;
    Pool.reserve(Threads - 1);
    for (unsigned T = 1; T != Threads; ++T)
      Pool.emplace_back(Worker, T);
    Worker(0);
    for (std::thread &T : Pool)
      T.join();
  }
  uint64_t Elapsed = Clock.elapsedNanos();

  ReplayResult Result;
  Result.ElapsedNanos = Elapsed;
  Result.AllocatedBytes = AllocatedBytes.load(std::memory_order_relaxed);
  Result.Sites.reserve(NumSites);
  for (SiteRun &Run : Runs) {
    if (Options.Mode == ReplayMode::Engine)
      Engine.unregisterContext(Run.context());
    Result.OpsExecuted += Run.Result.OpsExecuted;
    Result.InstancesReplayed += Run.InstancesReplayed;
    Result.SizeMismatches += Run.Result.SizeMismatches;
    Result.Evaluations += Run.Result.Evaluations;
    Result.Switches += Run.Result.Switches;
    Result.TrajectoryTime += Run.Result.TrajectoryTime;
    Result.TrajectoryAlloc += Run.Result.TrajectoryAlloc;
    Result.DecisionLog += Run.Log;
    Result.Sites.push_back(std::move(Run.Result));
  }
  return Result;
}

} // namespace

//===----------------------------------------------------------------------===//
// Replayer
//===----------------------------------------------------------------------===//

Replayer::Replayer(OpTrace Trace, ReplayOptions Options)
    : Trace(std::move(Trace)), Options(std::move(Options)) {}

ReplayResult Replayer::run() { return replayTrace(Trace, Options); }

std::vector<ReplayResult>
cswitch::replayCorpus(const std::vector<OpTrace> &Corpus,
                      const ReplayOptions &Options) {
  std::vector<ReplayResult> Results;
  Results.reserve(Corpus.size());
  for (const OpTrace &Trace : Corpus)
    Results.push_back(replayTrace(Trace, Options));
  return Results;
}

//===----------------------------------------------------------------------===//
// Trace aggregation
//===----------------------------------------------------------------------===//

std::vector<SiteProfile> cswitch::aggregateTrace(const OpTrace &Trace) {
  struct SiteAccum {
    std::unordered_map<uint32_t, WorkloadProfile> Live;
    std::vector<std::pair<uint32_t, WorkloadProfile>> Done;
  };
  std::vector<SiteAccum> Accums(Trace.Sites.size());

  for (const TraceOp &Op : Trace.Ops) {
    if (Op.Site >= Accums.size())
      continue;
    SiteAccum &A = Accums[Op.Site];
    if (Op.Kind == TraceOpKind::InstanceBegin) {
      A.Live.emplace(Op.Instance, WorkloadProfile());
      continue;
    }
    auto It = A.Live.find(Op.Instance);
    if (It == A.Live.end())
      continue; // Begin marker lost to the bounded buffer.
    if (Op.Kind == TraceOpKind::InstanceEnd) {
      A.Done.emplace_back(Op.Instance, It->second);
      A.Live.erase(It);
      continue;
    }
    if (std::optional<OperationKind> Kind = toOperationKind(Op.Kind))
      It->second.record(*Kind);
    It->second.recordSize(Op.Size);
  }

  std::vector<SiteProfile> Out;
  Out.reserve(Trace.Sites.size());
  for (size_t I = 0, E = Trace.Sites.size(); I != E; ++I) {
    SiteAccum &A = Accums[I];
    for (auto &Live : A.Live)
      A.Done.emplace_back(Live.first, Live.second);
    std::sort(A.Done.begin(), A.Done.end(),
              [](const auto &L, const auto &R) { return L.first < R.first; });
    SiteProfile Profile;
    Profile.Name = Trace.Sites[I].Name;
    Profile.Kind = Trace.Sites[I].Kind;
    Profile.DeclaredVariantIndex = Trace.Sites[I].DeclaredVariantIndex;
    Profile.Profiles.reserve(A.Done.size());
    for (auto &Done : A.Done)
      Profile.Profiles.push_back(Done.second);
    Out.push_back(std::move(Profile));
  }
  return Out;
}
