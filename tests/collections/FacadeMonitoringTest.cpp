//===- FacadeMonitoringTest.cpp - Facade profiling tests --------------------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The facades are the paper's "monitor" layer (§4.3): they count every
/// critical operation into the instance's workload profile and report it
/// to the allocation context exactly once, when the instance finishes its
/// life-cycle.
///
//===----------------------------------------------------------------------===//

#include "collections/Factory.h"
#include "core/AllocationContext.h"
#include "model/DefaultModel.h"
#include "replay/TraceRecorder.h"

#include <gtest/gtest.h>

#include <optional>

using namespace cswitch;

namespace {

/// Captures finished-instance reports.
class RecordingSink : public ProfileSink {
public:
  void onInstanceFinished(size_t Slot,
                          const WorkloadProfile &Profile) override {
    ++Reports;
    LastSlot = Slot;
    LastProfile = Profile;
  }

  int Reports = 0;
  size_t LastSlot = 0;
  std::optional<WorkloadProfile> LastProfile;
};

TEST(ListFacade, CountsEveryOperationKind) {
  List<int64_t> L(makeListImpl<int64_t>(ListVariant::ArrayList));
  L.add(1);
  L.add(2);
  L.add(3);
  L.insert(1, 9);
  L.removeAt(1);
  (void)L.remove(3);
  (void)L.get(0);
  L.set(0, 5);
  (void)L.contains(5);
  L.forEach([](const int64_t &) {});

  const WorkloadProfile &P = L.profile();
  EXPECT_EQ(P.count(OperationKind::Populate), 3u);
  EXPECT_EQ(P.count(OperationKind::Middle), 2u); // insert + removeAt
  EXPECT_EQ(P.count(OperationKind::Remove), 1u);
  EXPECT_EQ(P.count(OperationKind::IndexAccess), 2u); // get + set
  EXPECT_EQ(P.count(OperationKind::Contains), 1u);
  EXPECT_EQ(P.count(OperationKind::Iterate), 1u);
  EXPECT_EQ(P.MaxSize, 4u); // 3 adds + 1 insert before the removals.
}

TEST(ListFacade, SnapshotCountsAsIterate) {
  List<int64_t> L(makeListImpl<int64_t>(ListVariant::ArrayList));
  L.add(1);
  L.add(2);
  std::vector<int64_t> V = L.snapshot();
  EXPECT_EQ(V, (std::vector<int64_t>{1, 2}));
  EXPECT_EQ(L.profile().count(OperationKind::Iterate), 1u);
}

TEST(SetFacade, CountsOperations) {
  Set<int64_t> S(makeSetImpl<int64_t>(SetVariant::OpenHashSet));
  S.add(1);
  S.add(1); // duplicate still counts as a populate call.
  (void)S.contains(1);
  (void)S.remove(1);
  S.forEach([](const int64_t &) {});
  const WorkloadProfile &P = S.profile();
  EXPECT_EQ(P.count(OperationKind::Populate), 2u);
  EXPECT_EQ(P.count(OperationKind::Contains), 1u);
  EXPECT_EQ(P.count(OperationKind::Remove), 1u);
  EXPECT_EQ(P.count(OperationKind::Iterate), 1u);
  EXPECT_EQ(P.MaxSize, 1u);
}

TEST(MapFacade, CountsOperations) {
  Map<int64_t, int64_t> M(
      makeMapImpl<int64_t, int64_t>(MapVariant::ArrayMap));
  M.put(1, 10);
  M.put(2, 20);
  (void)M.get(1);
  (void)M.getMutable(2);
  (void)M.containsKey(3);
  (void)M.remove(1);
  M.forEach([](const int64_t &, const int64_t &) {});
  const WorkloadProfile &P = M.profile();
  EXPECT_EQ(P.count(OperationKind::Populate), 2u);
  EXPECT_EQ(P.count(OperationKind::Contains), 3u); // get+getMutable+containsKey
  EXPECT_EQ(P.count(OperationKind::Remove), 1u);
  EXPECT_EQ(P.count(OperationKind::Iterate), 1u);
  EXPECT_EQ(P.MaxSize, 2u);
}

TEST(Monitoring, ReportsProfileOnDestruction) {
  RecordingSink Sink;
  {
    List<int64_t> L(makeListImpl<int64_t>(ListVariant::ArrayList), &Sink,
                    17);
    EXPECT_TRUE(L.isMonitored());
    L.add(1);
    (void)L.contains(1);
  }
  EXPECT_EQ(Sink.Reports, 1);
  EXPECT_EQ(Sink.LastSlot, 17u);
  ASSERT_TRUE(Sink.LastProfile.has_value());
  EXPECT_EQ(Sink.LastProfile->count(OperationKind::Populate), 1u);
  EXPECT_EQ(Sink.LastProfile->count(OperationKind::Contains), 1u);
}

TEST(Monitoring, UnmonitoredNeverReports) {
  List<int64_t> L(makeListImpl<int64_t>(ListVariant::ArrayList));
  EXPECT_FALSE(L.isMonitored());
}

TEST(Monitoring, MapFacadeReportsToo) {
  RecordingSink Sink;
  {
    Map<int64_t, int64_t> M(
        makeMapImpl<int64_t, int64_t>(MapVariant::OpenHashMap), &Sink, 8);
    for (int64_t I = 0; I != 30; ++I)
      M.put(I, I);
  }
  EXPECT_EQ(Sink.Reports, 1);
  EXPECT_EQ(Sink.LastProfile->MaxSize, 30u);
}

/// Builds and fills each facade kind uniformly, so the lifecycle tests
/// below run unchanged over List, Set and Map.
template <typename FacadeT> struct FacadeKind;

template <> struct FacadeKind<List<int64_t>> {
  using Impl = ListImpl<int64_t>;
  static constexpr AbstractionKind Abstraction = AbstractionKind::List;
  static List<int64_t> make(ProfileSink *Sink, size_t Slot) {
    return List<int64_t>(makeListImpl<int64_t>(ListVariant::ArrayList), Sink,
                         Slot);
  }
  static void add(List<int64_t> &L, int64_t Value) { L.add(Value); }
};

template <> struct FacadeKind<Set<int64_t>> {
  using Impl = SetImpl<int64_t>;
  static constexpr AbstractionKind Abstraction = AbstractionKind::Set;
  static Set<int64_t> make(ProfileSink *Sink, size_t Slot) {
    return Set<int64_t>(makeSetImpl<int64_t>(SetVariant::ArraySet), Sink,
                        Slot);
  }
  static void add(Set<int64_t> &S, int64_t Value) { S.add(Value); }
};

template <> struct FacadeKind<Map<int64_t, int64_t>> {
  using Impl = MapImpl<int64_t, int64_t>;
  static constexpr AbstractionKind Abstraction = AbstractionKind::Map;
  static Map<int64_t, int64_t> make(ProfileSink *Sink, size_t Slot) {
    return Map<int64_t, int64_t>(
        makeMapImpl<int64_t, int64_t>(MapVariant::ArrayMap), Sink, Slot);
  }
  static void add(Map<int64_t, int64_t> &M, int64_t Value) {
    M.put(Value, Value);
  }
};

/// Counts the implementations handed back, with the size each had and
/// how many reports \p Sink had received by then.
template <typename ImplT>
class CountingRecycler : public detail::ImplRecycler<ImplT> {
public:
  explicit CountingRecycler(const RecordingSink &Sink) : Sink(Sink) {}

  void recycle(std::unique_ptr<ImplT> Impl) override {
    ++Calls;
    LastSize = Impl->size();
    ReportsAtRecycle = Sink.Reports;
  }

  const RecordingSink &Sink;
  int Calls = 0;
  size_t LastSize = 0;
  int ReportsAtRecycle = 0;
};

/// The move/destroy/report/trace lifecycle every facade shares.
template <typename FacadeT> class FacadeLifecycle : public ::testing::Test {};

using Facades =
    ::testing::Types<List<int64_t>, Set<int64_t>, Map<int64_t, int64_t>>;

TYPED_TEST_SUITE(FacadeLifecycle, Facades);

TYPED_TEST(FacadeLifecycle, MoveTransfersReportingDuty) {
  using Kind = FacadeKind<TypeParam>;
  RecordingSink Sink;
  {
    TypeParam A = Kind::make(&Sink, 3);
    Kind::add(A, 1);
    TypeParam B = std::move(A);
    EXPECT_FALSE(A.isMonitored()); // NOLINT(bugprone-use-after-move)
    EXPECT_TRUE(B.isMonitored());
    Kind::add(B, 2);
    // A dying here must not report.
  }
  EXPECT_EQ(Sink.Reports, 1);
  EXPECT_EQ(Sink.LastProfile->count(OperationKind::Populate), 2u);
}

TYPED_TEST(FacadeLifecycle, MoveAssignmentReportsOverwrittenInstance) {
  using Kind = FacadeKind<TypeParam>;
  RecordingSink Sink;
  {
    TypeParam A = Kind::make(&Sink, 1);
    Kind::add(A, 10);
    TypeParam B = Kind::make(&Sink, 2);
    Kind::add(B, 20);
    Kind::add(B, 21);
    // Overwriting B finishes its original instance (slot 2)...
    B = std::move(A);
    EXPECT_EQ(Sink.Reports, 1);
    EXPECT_EQ(Sink.LastSlot, 2u);
    EXPECT_EQ(Sink.LastProfile->count(OperationKind::Populate), 2u);
  }
  // ...and slot 1 reports when B (now holding A's instance) dies.
  EXPECT_EQ(Sink.Reports, 2);
  EXPECT_EQ(Sink.LastSlot, 1u);
}

TYPED_TEST(FacadeLifecycle, SelfMoveAssignmentIsSafe) {
  using Kind = FacadeKind<TypeParam>;
  RecordingSink Sink;
  {
    TypeParam L = Kind::make(&Sink, 4);
    Kind::add(L, 1);
    TypeParam &Ref = L;
    L = std::move(Ref);
    EXPECT_TRUE(L.isMonitored());
    EXPECT_EQ(Sink.Reports, 0);
  }
  EXPECT_EQ(Sink.Reports, 1);
}

TYPED_TEST(FacadeLifecycle, TracedMoveAssignmentEndsEachInstanceOnce) {
  using Kind = FacadeKind<TypeParam>;
  TraceRecorder Rec;
  uint32_t Site = Rec.registerSite("lifecycle:traced", Kind::Abstraction, 0);
  uint32_t First = 0, Second = 0;
  ASSERT_TRUE(Rec.beginInstance(Site, First));
  ASSERT_TRUE(Rec.beginInstance(Site, Second));
  RecordingSink Sink;
  {
    TypeParam A = Kind::make(&Sink, 1);
    A.attachRecorder(&Rec, Site, First);
    Kind::add(A, 1);
    TypeParam B = Kind::make(&Sink, 2);
    B.attachRecorder(&Rec, Site, Second);
    for (int64_t V = 10; V != 13; ++V)
      Kind::add(B, V);
    // Overwriting B ends the second instance at size 3...
    B = std::move(A);
    EXPECT_TRUE(B.isTraced());
    EXPECT_FALSE(A.isTraced()); // NOLINT(bugprone-use-after-move)
    Kind::add(B, 2);
    // ...A dies detached, and B's death ends the first one at size 2.
  }
  EXPECT_EQ(Sink.Reports, 2);

  OpTrace Trace = Rec.trace();
  size_t Begins[2] = {}, Ends[2] = {};
  uint32_t EndSize[2] = {};
  for (const TraceOp &Op : Trace.Ops) {
    ASSERT_TRUE(Op.Instance == First || Op.Instance == Second);
    size_t I = Op.Instance == First ? 0 : 1;
    if (Op.Kind == TraceOpKind::InstanceBegin)
      ++Begins[I];
    if (Op.Kind == TraceOpKind::InstanceEnd) {
      ++Ends[I];
      EndSize[I] = Op.Size;
    }
  }
  EXPECT_EQ(Begins[0], 1u);
  EXPECT_EQ(Begins[1], 1u);
  EXPECT_EQ(Ends[0], 1u);
  EXPECT_EQ(Ends[1], 1u);
  EXPECT_EQ(EndSize[0], 2u);
  EXPECT_EQ(EndSize[1], 3u);
}

TYPED_TEST(FacadeLifecycle, SharedProfileMovedThenDestroyedReportsOnce) {
  using Kind = FacadeKind<TypeParam>;
  RecordingSink Sink;
  WorkloadProfile Snapshot;
  {
    TypeParam A = Kind::make(&Sink, 5);
    A.enableSharedProfiling();
    Kind::add(A, 1);
    Kind::add(A, 2);
    TypeParam B = std::move(A);
    EXPECT_FALSE(A.isMonitored()); // NOLINT(bugprone-use-after-move)
    EXPECT_TRUE(B.isShared());
    Kind::add(B, 3);
    Snapshot = B.profile();
    // Recorded after the read: the report must collapse the stripes
    // again rather than hand over the profile cached by profile().
    Kind::add(B, 4);
    EXPECT_EQ(Sink.Reports, 0);
  }
  EXPECT_EQ(Snapshot.count(OperationKind::Populate), 3u);
  EXPECT_EQ(Snapshot.MaxSize, 3u);
  EXPECT_EQ(Sink.Reports, 1);
  EXPECT_EQ(Sink.LastSlot, 5u);
  ASSERT_TRUE(Sink.LastProfile.has_value());
  EXPECT_EQ(Sink.LastProfile->count(OperationKind::Populate), 4u);
  EXPECT_EQ(Sink.LastProfile->MaxSize, 4u);
}

TYPED_TEST(FacadeLifecycle, ImplementationGoesBackExactlyOnceAfterReport) {
  using Kind = FacadeKind<TypeParam>;
  RecordingSink Sink;
  CountingRecycler<typename Kind::Impl> Spares(Sink);
  {
    TypeParam A = Kind::make(&Sink, 1);
    A.recycleInto(&Spares);
    Kind::add(A, 1);
    TypeParam B = std::move(A);
    TypeParam &Ref = B;
    B = std::move(Ref);
    EXPECT_EQ(Spares.Calls, 0);
    TypeParam C = Kind::make(&Sink, 2);
    C.recycleInto(&Spares);
    for (int64_t V = 10; V != 13; ++V)
      Kind::add(C, V);
    // Overwriting C hands its implementation back, full, after the
    // report read its size.
    C = std::move(B);
    EXPECT_EQ(Spares.Calls, 1);
    EXPECT_EQ(Spares.LastSize, 3u);
    EXPECT_EQ(Spares.ReportsAtRecycle, 1);
    EXPECT_EQ(Sink.LastProfile->MaxSize, 3u);
    // A and B are moved-from; only C (holding A's instance) hands back.
  }
  EXPECT_EQ(Spares.Calls, 2);
  EXPECT_EQ(Spares.LastSize, 1u);
  EXPECT_EQ(Spares.ReportsAtRecycle, 2);
  EXPECT_EQ(Sink.Reports, 2);
}

TYPED_TEST(FacadeLifecycle, ContextCreatedInstancesReportBeforeRecycling) {
  using Traits = ContextTraits<TypeParam>;
  ContextOptions Options;
  Options.WindowSize = 2;
  Options.FinishedRatio = 1.0;
  Options.LogEvents = false;
  typename Traits::Context Ctx(
      "lifecycle:recycled", typename Traits::Variant{},
      std::make_shared<const PerformanceModel>(defaultPerformanceModel()),
      SelectionRule::impossibleRule(), Options);
  {
    TypeParam A = Traits::create(Ctx);
    for (int64_t V = 0; V != 5; ++V)
      FacadeKind<TypeParam>::add(A, V);
    TypeParam B = Traits::create(Ctx);
    for (int64_t V = 0; V != 9; ++V)
      FacadeKind<TypeParam>::add(B, V);
    B = std::move(A);
    TypeParam &Ref = B;
    B = std::move(Ref);
  }
  EXPECT_EQ(Ctx.instancesFinished(), 2u);
  ASSERT_FALSE(Ctx.evaluate());
  // Both maximum sizes reached the window before their storage was
  // emptied: the lower median of {5, 9}.
  EXPECT_EQ(Ctx.capacityHint(), 5u);
}

} // namespace
