//===- FacadeProfileTest.cpp - Lazily folded maximum-size tests -------------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One-owner facades fold the instance size into WorkloadProfile::MaxSize
/// lazily — before every shrinking operation and whenever the profile is
/// read or reported — instead of after every growing one. These tests
/// drive seeded random operation sequences through every facade and
/// every variant and check that the reported maximum equals a reference
/// tracked after every single operation; shared facades keep the eager
/// path and are checked under concurrent owners.
///
//===----------------------------------------------------------------------===//

#include "collections/Factory.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <thread>
#include <vector>

using namespace cswitch;

namespace {

/// Collects every reported profile by slot.
class MaxSizeSink : public ProfileSink {
public:
  void onInstanceFinished(size_t Slot,
                          const WorkloadProfile &Profile) override {
    std::lock_guard<std::mutex> Lock(Mutex);
    if (Reported.size() <= Slot)
      Reported.resize(Slot + 1, UINT64_MAX);
    Reported[Slot] = Profile.MaxSize;
  }

  uint64_t reported(size_t Slot) const {
    std::lock_guard<std::mutex> Lock(Mutex);
    return Slot < Reported.size() ? Reported[Slot] : UINT64_MAX;
  }

private:
  mutable std::mutex Mutex;
  std::vector<uint64_t> Reported;
};

constexpr int OpsPerSequence = 400;
constexpr uint64_t Seeds[] = {1, 2, 3, 17};

/// Runs one seeded sequence: \p Step(Rng, Facade) performs one random
/// operation; \p Make(Slot) builds a fresh monitored facade. Every few
/// operations the facade is move-assigned a fresh one, which must report
/// the old instance's maximum; the last one reports on destruction.
template <typename FacadeT, typename MakeFn, typename StepFn>
void checkSequence(uint64_t Seed, MakeFn Make, StepFn Step) {
  MaxSizeSink Sink;
  SplitMix64 Rng(Seed);
  std::vector<uint64_t> Expected;
  size_t Slot = 0;
  {
    FacadeT F = Make(&Sink, Slot);
    uint64_t Ref = 0;
    for (int Op = 0; Op != OpsPerSequence; ++Op) {
      if (Rng.nextBelow(64) == 0) {
        Expected.push_back(Ref);
        F = Make(&Sink, ++Slot);
        Ref = 0;
        continue;
      }
      Step(Rng, F);
      Ref = std::max<uint64_t>(Ref, F.size());
      if (Rng.nextBelow(16) == 0) {
        ASSERT_EQ(F.profile().MaxSize, Ref) << "seed " << Seed;
      }
    }
    EXPECT_EQ(F.profile().MaxSize, Ref) << "seed " << Seed;
    Expected.push_back(Ref);
  }
  for (size_t S = 0; S != Expected.size(); ++S)
    EXPECT_EQ(Sink.reported(S), Expected[S])
        << "seed " << Seed << " slot " << S;
}

TEST(FacadeProfile, ListMaxSizeMatchesPerOpReference) {
  for (ListVariant V : AllListVariants)
    for (uint64_t Seed : Seeds) {
      SCOPED_TRACE(listVariantName(V));
      checkSequence<List<int64_t>>(
          Seed,
          [V](ProfileSink *Sink, size_t Slot) {
            return List<int64_t>(makeListImpl<int64_t>(V), Sink, Slot);
          },
          [](SplitMix64 &Rng, List<int64_t> &L) {
            auto Key = static_cast<int64_t>(Rng.nextBelow(40));
            uint64_t Pick = Rng.nextBelow(100);
            if (Pick < 45)
              L.add(Key);
            else if (Pick < 60)
              L.insert(Rng.nextBelow(L.size() + 1), Key);
            else if (Pick < 75)
              (void)L.remove(Key);
            else if (Pick < 90 && !L.empty())
              L.removeAt(Rng.nextBelow(L.size()));
            else if (Pick < 93)
              L.clear();
            else
              (void)L.contains(Key);
          });
    }
}

TEST(FacadeProfile, SetMaxSizeMatchesPerOpReference) {
  for (SetVariant V : AllSetVariants)
    for (uint64_t Seed : Seeds) {
      SCOPED_TRACE(setVariantName(V));
      checkSequence<Set<int64_t>>(
          Seed,
          [V](ProfileSink *Sink, size_t Slot) {
            return Set<int64_t>(makeSetImpl<int64_t>(V), Sink, Slot);
          },
          [](SplitMix64 &Rng, Set<int64_t> &S) {
            auto Key = static_cast<int64_t>(Rng.nextBelow(60));
            uint64_t Pick = Rng.nextBelow(100);
            if (Pick < 55)
              (void)S.add(Key);
            else if (Pick < 85)
              (void)S.remove(Key);
            else if (Pick < 88)
              S.clear();
            else
              (void)S.contains(Key);
          });
    }
}

TEST(FacadeProfile, MapMaxSizeMatchesPerOpReference) {
  for (MapVariant V : AllMapVariants)
    for (uint64_t Seed : Seeds) {
      SCOPED_TRACE(mapVariantName(V));
      checkSequence<Map<int64_t, int64_t>>(
          Seed,
          [V](ProfileSink *Sink, size_t Slot) {
            return Map<int64_t, int64_t>(makeMapImpl<int64_t, int64_t>(V),
                                         Sink, Slot);
          },
          [](SplitMix64 &Rng, Map<int64_t, int64_t> &M) {
            auto Key = static_cast<int64_t>(Rng.nextBelow(60));
            uint64_t Pick = Rng.nextBelow(100);
            if (Pick < 55)
              (void)M.put(Key, Key * 3);
            else if (Pick < 85)
              (void)M.remove(Key);
            else if (Pick < 88)
              M.clear();
            else
              (void)M.containsKey(Key);
          });
    }
}

TEST(FacadeProfile, MoveConstructionCarriesTheUnfoldedMaximum) {
  // Growth since the last fold travels with the implementation, so the
  // moved-to facade still reports it.
  MaxSizeSink Sink;
  {
    Set<int64_t> A(makeSetImpl<int64_t>(SetVariant::OpenHashSet), &Sink, 0);
    for (int64_t K = 0; K != 30; ++K)
      (void)A.add(K);
    Set<int64_t> B(std::move(A));
    for (int64_t K = 0; K != 20; ++K)
      (void)B.remove(K);
  }
  EXPECT_EQ(Sink.reported(0), 30u);
}

TEST(FacadeProfile, MoveAssignedOverFacadeReportsBoth) {
  MaxSizeSink Sink;
  {
    List<int64_t> A(makeListImpl<int64_t>(ListVariant::ArrayList), &Sink, 0);
    List<int64_t> B(makeListImpl<int64_t>(ListVariant::LinkedList), &Sink,
                    1);
    for (int64_t K = 0; K != 12; ++K)
      A.add(K);
    for (int64_t K = 0; K != 5; ++K)
      B.add(K);
    A = std::move(B); // A's instance finishes here with 12.
    EXPECT_EQ(Sink.reported(0), 12u);
    A.clear();
  }
  EXPECT_EQ(Sink.reported(1), 5u);
}

TEST(FacadeProfile, SharedFacadeRecordsGrowthUnderConcurrentOwners) {
  // Each owner adds its own keys and then removes them; the peak is at
  // least one owner's keys and never above all of them. Shared profiles
  // record every growth eagerly, so the peak of any owner is seen even
  // though the others shrink the set concurrently.
  constexpr int Owners = 4;
  constexpr int64_t KeysPerOwner = 200;
  MaxSizeSink Sink;
  {
    Set<int64_t> S(makeSetImpl<int64_t>(SetVariant::StripedHashSet), &Sink,
                   0);
    S.enableSharedProfiling();
    std::vector<std::thread> Threads;
    for (int T = 0; T != Owners; ++T)
      Threads.emplace_back([&S, T] {
        for (int64_t K = 0; K != KeysPerOwner; ++K)
          (void)S.add(T * KeysPerOwner + K);
        for (int64_t K = 0; K != KeysPerOwner; ++K)
          (void)S.remove(T * KeysPerOwner + K);
      });
    for (std::thread &Th : Threads)
      Th.join();
    EXPECT_TRUE(S.empty());
  }
  uint64_t Peak = Sink.reported(0);
  EXPECT_GE(Peak, static_cast<uint64_t>(KeysPerOwner));
  EXPECT_LE(Peak, static_cast<uint64_t>(Owners * KeysPerOwner));
}

TEST(FacadeProfile, SharedFacadeMatchesReferenceWithOneOwner) {
  checkSequence<Map<int64_t, int64_t>>(
      5,
      [](ProfileSink *Sink, size_t Slot) {
        Map<int64_t, int64_t> M(
            makeMapImpl<int64_t, int64_t>(MapVariant::ShardedHashMap), Sink,
            Slot);
        M.enableSharedProfiling();
        return M;
      },
      [](SplitMix64 &Rng, Map<int64_t, int64_t> &M) {
        auto Key = static_cast<int64_t>(Rng.nextBelow(60));
        if (Rng.nextBelow(2))
          (void)M.put(Key, Key);
        else
          (void)M.remove(Key);
      });
}

} // namespace
