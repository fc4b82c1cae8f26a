//===- RecycleTest.cpp - Spare-ring recycling of context instances -------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A sequential allocation context keeps the implementations of dying
/// instances in its spare ring and hands them to later creates (DESIGN.md
/// §4.4). A recycled instance must be indistinguishable from a fresh
/// one: empty, with a zero profile, of the current variant, presized so
/// that inserts up to the capacity hint allocate no more than on a fresh
/// instance, and nothing at all for the nodes a node-based spare kept.
/// The ring keeps only spares that own no more than a fresh instance
/// reserved at twice the hint once it holds that many elements, measures
/// that bound again only when the hint leaves [h/2, 2h], frees its
/// spares with its context, and stays unused in the concurrent tier.
/// Parked nodes hold no live element, and an instance that is never
/// recycled allocates as it did before nodes were kept. Every test
/// runs over List, Set and Map and every sequential variant, adaptive
/// ones past their migration too.
///
//===----------------------------------------------------------------------===//

#include "core/AllocationContext.h"
#include "model/DefaultModel.h"
#include "support/MemoryTracker.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>
#include <string>
#include <vector>

using namespace cswitch;

namespace {

std::shared_ptr<const PerformanceModel> defaultModel() {
  static auto Model =
      std::make_shared<const PerformanceModel>(defaultPerformanceModel());
  return Model;
}

/// An element that counts its constructions and destructions.
struct Tracked {
  static inline int64_t Constructed = 0;
  static inline int64_t Destroyed = 0;
  static int64_t live() { return Constructed - Destroyed; }

  Tracked() : Tracked(0) {}
  explicit Tracked(int64_t V) : V(V) { ++Constructed; }
  Tracked(const Tracked &Other) : V(Other.V) { ++Constructed; }
  Tracked &operator=(const Tracked &) = default;
  ~Tracked() { ++Destroyed; }

  bool operator==(const Tracked &Other) const { return V == Other.V; }
  bool operator<(const Tracked &Other) const { return V < Other.V; }

  int64_t V;
};

} // namespace

template <> struct std::hash<Tracked> {
  size_t operator()(const Tracked &T) const {
    return std::hash<int64_t>{}(T.V);
  }
};

namespace {

/// Per-kind operations and a variant whose lookups a hash variant beats.
template <typename Facade> struct Kind;

template <typename T> struct Kind<List<T>> {
  static constexpr ListVariant Linear = ListVariant::ArrayList;
  template <typename C> static void add(C &Coll, int64_t V) {
    Coll.push_back(T(V));
  }
  static void add(List<T> &L, int64_t V) { L.add(T(V)); }
  template <typename C> static void erase(C &Coll, int64_t V) {
    (void)Coll.removeValue(T(V));
  }
  static bool has(const List<T> &L, int64_t V) { return L.contains(T(V)); }
};

template <typename T> struct Kind<Set<T>> {
  static constexpr SetVariant Linear = SetVariant::ArraySet;
  template <typename C> static void add(C &Coll, int64_t V) {
    (void)Coll.add(T(V));
  }
  template <typename C> static void erase(C &Coll, int64_t V) {
    (void)Coll.remove(T(V));
  }
  static bool has(const Set<T> &S, int64_t V) { return S.contains(T(V)); }
};

template <typename K, typename V> struct Kind<Map<K, V>> {
  static constexpr MapVariant Linear = MapVariant::ArrayMap;
  template <typename C> static void add(C &Coll, int64_t I) {
    (void)Coll.put(K(I), V(I));
  }
  template <typename C> static void erase(C &Coll, int64_t I) {
    (void)Coll.remove(K(I));
  }
  static bool has(const Map<K, V> &M, int64_t I) {
    return M.containsKey(K(I));
  }
};

template <typename Facade> class Recycle : public ::testing::Test {
protected:
  using Traits = ContextTraits<Facade>;
  using Context = typename Traits::Context;
  using Variant = typename Traits::Variant;
  using K = Kind<Facade>;

  /// Every sequential variant of the kind.
  static std::vector<Variant> sequentialVariants() {
    std::vector<Variant> Out;
    for (unsigned V = 0, E = firstConcurrentVariant(Traits::Kind); V != E;
         ++V)
      Out.push_back(static_cast<Variant>(V));
    return Out;
  }

  static std::string nameOf(Variant V) {
    return VariantId{Traits::Kind, static_cast<unsigned>(V)}.name();
  }

  static ContextOptions options(Concurrency Mode = Concurrency::None) {
    ContextOptions Options;
    Options.WindowSize = 4;
    Options.FinishedRatio = 1.0;
    Options.LogEvents = false;
    Options.ConcurrencyMode = Mode;
    return Options;
  }

  /// A context on \p V that never switches, after one analyzed round of
  /// instances that reached \p Hint elements: its capacity hint is Hint
  /// and its ring is empty.
  static std::unique_ptr<Context>
  hinted(Variant V, size_t Hint, Concurrency Mode = Concurrency::None) {
    auto Ctx = std::make_unique<Context>(
        "recycle:" + nameOf(V), V, defaultModel(),
        SelectionRule::impossibleRule(), options(Mode));
    for (size_t I = 0; I != Ctx->options().WindowSize; ++I) {
      Facade F = Traits::create(*Ctx);
      fill(F, Hint);
    }
    EXPECT_FALSE(Ctx->evaluate());
    EXPECT_EQ(Ctx->capacityHint(), Hint);
    return Ctx;
  }

  template <typename C> static void fill(C &Coll, size_t N) {
    for (size_t I = 0; I != N; ++I)
      K::add(Coll, static_cast<int64_t>(I));
  }

  /// What a spare of \p V owns after \p Inserts inserts into an instance
  /// reserved at \p Reserved, once emptied for reuse.
  static size_t emptiedFootprint(Variant V, size_t Reserved, size_t Inserts) {
    auto Impl = Traits::makeImpl(V);
    Impl->reserve(Reserved);
    fill(*Impl, Inserts);
    Impl->clearForReuse();
    return Impl->memoryFootprint();
  }

  /// The retention bound at capacity hint \p Hint: what a fresh
  /// instance reserved at max(2 * Hint, 1) owns once it holds that many
  /// elements.
  static size_t retentionBound(Variant V, size_t Hint) {
    size_t Elements = std::max<size_t>(2 * Hint, 1);
    auto Impl = Traits::makeImpl(V);
    Impl->reserve(Elements);
    return Impl->memoryFootprint() + Impl->unreservedBytes(Elements);
  }

  /// Bytes that inserts up to capacity hint \p AtHint allocate into a
  /// recycled instance (first) and into a fresh one reserved at the hint
  /// (second), after an instance of \p Died elements died into the ring.
  static std::pair<uint64_t, uint64_t> refillBytes(Variant V, size_t AtHint,
                                                   size_t Died) {
    auto Ctx = hinted(V, AtHint);
    {
      Facade F = Traits::create(*Ctx);
      fill(F, Died);
    }
    Facade R = Traits::create(*Ctx);
    AllocationScope Recycled;
    fill(R, AtHint);
    uint64_t RecycledBytes = Recycled.allocatedInScope();

    auto Fresh = Traits::makeImpl(V);
    Fresh->reserve(AtHint);
    AllocationScope FreshScope;
    fill(*Fresh, AtHint);
    return {RecycledBytes, FreshScope.allocatedInScope()};
  }

  /// True for the variants that own one node per element.
  static bool nodeBased(Variant V) {
    return Traits::makeImpl(V)->unreservedBytes(1) != 0;
  }

  /// What the ring holds after a spare owning \p Spare bytes came back
  /// at capacity hint \p Hint: the spare, or nothing when it is above
  /// the bound.
  static size_t heldBytes(Variant V, size_t Spare, size_t Hint) {
    return Spare <= retentionBound(V, Hint) ? Spare : 0;
  }
};

using Facades =
    ::testing::Types<List<int64_t>, Set<int64_t>, Map<int64_t, int64_t>>;
TYPED_TEST_SUITE(Recycle, Facades);

// Hint 100 and 150 inserts: every variant that keeps storage in
// clearForReuse() is within the bound, and the adaptive ones migrated
// (thresholds 80 / 40 / 50) before they died.
constexpr size_t Hint = 100;
constexpr size_t Grown = 150;

TYPED_TEST(Recycle, RecycledInstanceIsIndistinguishableFromFresh) {
  using K = typename TestFixture::K;
  size_t Kept = 0;
  for (auto V : TestFixture::sequentialVariants()) {
    SCOPED_TRACE(TestFixture::nameOf(V));
    auto Ctx = TestFixture::hinted(V, Hint);
    size_t Empty = Ctx->memoryFootprint();
    {
      TypeParam F = TestFixture::Traits::create(*Ctx);
      TestFixture::fill(F, Grown);
    }
    // The context's footprint counts the spare it now holds, if any.
    size_t Held = TestFixture::heldBytes(
        V, TestFixture::emptiedFootprint(V, Hint, Grown), Hint);
    ASSERT_EQ(Ctx->memoryFootprint() - Empty, Held);
    Kept += Held != 0;

    TypeParam R = TestFixture::Traits::create(*Ctx);
    EXPECT_EQ(Ctx->memoryFootprint(), Empty);
    EXPECT_EQ(static_cast<unsigned>(R.variant()), Ctx->currentVariantIndex());
    EXPECT_EQ(R.size(), 0u);
    const WorkloadProfile &P = R.profile();
    EXPECT_EQ(P.totalOperations(), 0u);
    EXPECT_EQ(P.MaxSize, 0u);
    size_t Visited = 0;
    R.forEach([&Visited](const auto &...) { ++Visited; });
    EXPECT_EQ(Visited, 0u);
    // And it works like a fresh one.
    TestFixture::fill(R, Grown);
    EXPECT_EQ(R.size(), Grown);
    for (size_t I = 0; I != Grown; ++I)
      EXPECT_TRUE(K::has(R, static_cast<int64_t>(I)));
    EXPECT_FALSE(K::has(R, -1));
  }
  // The array-, table- and hash-array-backed variants.
  EXPECT_GE(Kept, 3u);
}

// The array and table variants: a reservation at the hint covers every
// insert up to it, on a spare as on a fresh instance.
TYPED_TEST(Recycle, InsertsUpToTheHintAllocateNoMoreThanFresh) {
  size_t Checked = 0;
  for (auto V : TestFixture::sequentialVariants()) {
    if (TestFixture::Traits::makeImpl(V)->unreservedBytes(Hint) != 0)
      continue;
    SCOPED_TRACE(TestFixture::nameOf(V));
    auto [RecycledBytes, FreshBytes] =
        TestFixture::refillBytes(V, Hint, Grown);
    EXPECT_EQ(RecycledBytes, FreshBytes);
    ++Checked;
  }
  // ArrayList, HashArrayList and AdaptiveList; the Open, Array, Compact
  // and SortedArray sets and maps.
  EXPECT_EQ(Checked, TestFixture::Traits::Kind == AbstractionKind::List ? 3u
                                                                          : 4u);
}

// The node-based variants, and the adaptive set and map past their
// migration: a fresh instance allocates a node per insert (or the table
// it migrates to), a spare reuses the ones it kept.
TYPED_TEST(Recycle, InsertsUpToTheKeptStorageAllocateNothing) {
  size_t Checked = 0;
  for (auto V : TestFixture::sequentialVariants()) {
    auto Probe = TestFixture::Traits::makeImpl(V);
    size_t Unreserved = Probe->unreservedBytes(Hint);
    if (Unreserved == 0)
      continue;
    SCOPED_TRACE(TestFixture::nameOf(V));
    auto [RecycledBytes, FreshBytes] =
        TestFixture::refillBytes(V, Hint, Grown);
    EXPECT_EQ(RecycledBytes, 0u);
    EXPECT_EQ(FreshBytes, Unreserved);
    if (TestFixture::nodeBased(V)) {
      EXPECT_EQ(Unreserved, Hint * Probe->unreservedBytes(1));
    }
    ++Checked;
  }
  // LinkedList; Chained, Linked, Tree and Adaptive sets and maps.
  EXPECT_EQ(Checked, TestFixture::Traits::Kind == AbstractionKind::List ? 1u
                                                                          : 4u);
}

TYPED_TEST(Recycle, OutsideARingNodesAreFreedAsBefore) {
  using K = typename TestFixture::K;
  for (auto V : TestFixture::sequentialVariants()) {
    if (!TestFixture::nodeBased(V))
      continue;
    SCOPED_TRACE(TestFixture::nameOf(V));
    auto Impl = TestFixture::Traits::makeImpl(V);
    int64_t Baseline = MemoryTracker::liveBytes();
    size_t Empty = Impl->memoryFootprint();
    AllocationScope First;
    TestFixture::fill(*Impl, Grown);
    uint64_t FirstBytes = First.allocatedInScope();

    // A removal frees its node: refilling allocates every node again.
    for (size_t I = 0; I != Grown; ++I)
      K::erase(*Impl, static_cast<int64_t>(I));
    AllocationScope Refill;
    TestFixture::fill(*Impl, Grown);
    EXPECT_EQ(Refill.allocatedInScope(), Impl->unreservedBytes(Grown));

    // clear() frees every node and the buckets: the next fill allocates
    // as the first one did.
    Impl->clear();
    EXPECT_EQ(MemoryTracker::liveBytes(), Baseline);
    EXPECT_EQ(Impl->memoryFootprint(), Empty);
    AllocationScope Second;
    TestFixture::fill(*Impl, Grown);
    EXPECT_EQ(Second.allocatedInScope(), FirstBytes);

    Impl.reset();
    EXPECT_EQ(MemoryTracker::liveBytes(), Baseline);
  }
}

TYPED_TEST(Recycle, SpareAboveTheRetentionBoundIsFreed) {
  constexpr size_t SmallHint = 8;
  constexpr size_t Large = 1000;
  size_t AboveBound = 0;
  for (auto V : TestFixture::sequentialVariants()) {
    SCOPED_TRACE(TestFixture::nameOf(V));
    auto Ctx = TestFixture::hinted(V, SmallHint);
    size_t Empty = Ctx->memoryFootprint();
    {
      TypeParam F = TestFixture::Traits::create(*Ctx);
      TestFixture::fill(F, Large);
    }
    size_t Spare = TestFixture::emptiedFootprint(V, SmallHint, Large);
    EXPECT_EQ(Ctx->memoryFootprint() - Empty,
              TestFixture::heldBytes(V, Spare, SmallHint));
    if (Spare > TestFixture::retentionBound(V, SmallHint)) {
      EXPECT_EQ(Ctx->memoryFootprint(), Empty);
      ++AboveBound;
    }
  }
  // The array- and table-backed variants keep their grown storage.
  EXPECT_GE(AboveBound, 3u);
}

TYPED_TEST(Recycle, SwitchHandsOutOnlyTheNewVariant) {
  using K = typename TestFixture::K;
  ContextOptions Options = TestFixture::options();
  Options.WindowSize = 10;
  typename TestFixture::Context Ctx("recycle:switch", K::Linear,
                                    defaultModel(), SelectionRule::timeRule(),
                                    Options);
  auto LookupHeavy = [](TypeParam &F) {
    TestFixture::fill(F, 300);
    for (int64_t I = 0; I != 1500; ++I)
      (void)K::has(F, I % 600);
  };
  for (size_t I = 0; I != Options.WindowSize; ++I) {
    TypeParam F = TestFixture::Traits::create(Ctx);
    LookupHeavy(F);
  }
  // Alive across the switch (unmonitored: the window is full), so it
  // dies holding the old variant.
  std::optional<TypeParam> Straggler(TestFixture::Traits::create(Ctx));
  ASSERT_TRUE(Ctx.evaluate());
  unsigned New = Ctx.currentVariantIndex();
  ASSERT_NE(New, static_cast<unsigned>(K::Linear));

  size_t Before = Ctx.memoryFootprint();
  Straggler.reset();
  EXPECT_EQ(Ctx.memoryFootprint(), Before);
  for (int I = 0; I != 8; ++I) {
    TypeParam F = TestFixture::Traits::create(Ctx);
    EXPECT_EQ(static_cast<unsigned>(F.variant()), New);
    TestFixture::fill(F, 20);
  }
}

TYPED_TEST(Recycle, HintMoveEmptiesTheRing) {
  constexpr size_t SmallHint = 10;
  for (auto V : TestFixture::sequentialVariants()) {
    SCOPED_TRACE(TestFixture::nameOf(V));
    auto Ctx = TestFixture::hinted(V, Hint);
    {
      TypeParam F = TestFixture::Traits::create(*Ctx);
      TestFixture::fill(F, Grown);
    }
    // A round of small instances moves the hint down. They are created
    // while the grown spare may still be held, so it is taken and
    // returned again; the analysis then drops it.
    for (size_t I = 0; I != Ctx->options().WindowSize; ++I) {
      TypeParam F = TestFixture::Traits::create(*Ctx);
      TestFixture::fill(F, SmallHint);
    }
    ASSERT_FALSE(Ctx->evaluate());
    ASSERT_EQ(Ctx->capacityHint(), SmallHint);
    TypeParam R = TestFixture::Traits::create(*Ctx);
    auto Fresh = TestFixture::Traits::makeImpl(V);
    Fresh->reserve(SmallHint);
    EXPECT_EQ(R.memoryFootprint(), Fresh->memoryFootprint());
  }
}

TYPED_TEST(Recycle, HintDriftWithinTheBandKeepsTheRing) {
  constexpr size_t Drifted = 130;
  for (auto V : TestFixture::sequentialVariants()) {
    SCOPED_TRACE(TestFixture::nameOf(V));
    auto Ctx = TestFixture::hinted(V, Hint);
    {
      TypeParam F = TestFixture::Traits::create(*Ctx);
      TestFixture::fill(F, Grown);
    }
    // One instance at a time, so each takes the spare and returns it.
    for (size_t I = 0; I != Ctx->options().WindowSize; ++I) {
      TypeParam F = TestFixture::Traits::create(*Ctx);
      TestFixture::fill(F, Drifted);
    }
    // The hint stays within [h/2, 2h] of the one the bound was measured
    // at: the round neither measures a fresh instance nor empties the
    // ring.
    AllocationScope Analysis;
    ASSERT_FALSE(Ctx->evaluate());
    EXPECT_EQ(Analysis.allocatedInScope(), 0u);
    ASSERT_EQ(Ctx->capacityHint(), Drifted);
    size_t Held = TestFixture::heldBytes(
        V, TestFixture::emptiedFootprint(V, Hint, Grown), Hint);
    EXPECT_GT(Held, 0u);
    size_t WithSpare = Ctx->memoryFootprint();
    TypeParam R = TestFixture::Traits::create(*Ctx);
    EXPECT_EQ(WithSpare - Ctx->memoryFootprint(), Held);
  }
}

TYPED_TEST(Recycle, ConcurrentTierNeverRecycles) {
  using Variant = typename TestFixture::Variant;
  // The mode overrides the initial variant with the tier's.
  auto Ctx = TestFixture::hinted(Variant{}, 20, Concurrency::Mutex);
  size_t Empty = Ctx->memoryFootprint();
  for (int I = 0; I != 3; ++I) {
    TypeParam F = TestFixture::Traits::create(*Ctx);
    EXPECT_TRUE(F.isShared());
    TestFixture::fill(F, 20);
  }
  EXPECT_EQ(Ctx->memoryFootprint(), Empty);
}

TYPED_TEST(Recycle, DestroyingTheContextFreesItsSpares) {
  for (auto V : TestFixture::sequentialVariants()) {
    SCOPED_TRACE(TestFixture::nameOf(V));
    int64_t Baseline = MemoryTracker::liveBytes();
    {
      auto Ctx = TestFixture::hinted(V, Hint);
      using Ring = SpareRing<typename TestFixture::Traits::Impl>;
      std::vector<TypeParam> Alive;
      for (size_t I = 0; I != Ring::Capacity + 2; ++I) {
        Alive.push_back(TestFixture::Traits::create(*Ctx));
        TestFixture::fill(Alive.back(), Grown);
      }
      Alive.clear();
    }
    EXPECT_EQ(MemoryTracker::liveBytes(), Baseline);
  }
}

template <typename Facade> class RecycleLifetime : public Recycle<Facade> {};

using TrackedFacades =
    ::testing::Types<List<Tracked>, Set<Tracked>, Map<Tracked, Tracked>>;
TYPED_TEST_SUITE(RecycleLifetime, TrackedFacades);

TYPED_TEST(RecycleLifetime, ParkedNodesHoldNoLiveElement) {
  for (auto V : TestFixture::sequentialVariants()) {
    SCOPED_TRACE(TestFixture::nameOf(V));
    int64_t Baseline = MemoryTracker::liveBytes();
    int64_t Constructed = Tracked::Constructed;
    int64_t Destroyed = Tracked::Destroyed;
    int64_t FreshLive;
    {
      auto Fresh = TestFixture::Traits::makeImpl(V);
      TestFixture::fill(*Fresh, Grown);
      FreshLive = Tracked::live() - (Constructed - Destroyed);
    }
    {
      auto Ctx = TestFixture::hinted(V, Hint);
      ASSERT_EQ(Tracked::live(), Constructed - Destroyed);
      size_t Empty = Ctx->memoryFootprint();
      {
        TypeParam F = TestFixture::Traits::create(*Ctx);
        TestFixture::fill(F, Grown);
      }
      // The spare kept its nodes but none of its elements.
      EXPECT_EQ(Tracked::live(), Constructed - Destroyed);
      if (TestFixture::nodeBased(V)) {
        EXPECT_GE(Ctx->memoryFootprint() - Empty,
                  TestFixture::Traits::makeImpl(V)->unreservedBytes(Grown));
      }
      {
        TypeParam R = TestFixture::Traits::create(*Ctx);
        TestFixture::fill(R, Grown);
        EXPECT_EQ(R.size(), Grown);
        EXPECT_EQ(Tracked::live() - (Constructed - Destroyed), FreshLive);
      }
      EXPECT_EQ(Tracked::live(), Constructed - Destroyed);
    }
    EXPECT_EQ(Tracked::Constructed - Constructed,
              Tracked::Destroyed - Destroyed);
    EXPECT_EQ(MemoryTracker::liveBytes(), Baseline);
  }
}

} // namespace
