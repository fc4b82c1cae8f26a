//===- SharedProfileTest.cpp - Per-cpu striped profile and sketch tests -----===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The concurrent tier's monitoring stripes per cpu: stripe counts follow
/// the cpu count, racing
/// writers merge exactly, and the contention sketch's thread estimate
/// keeps its tolerance however the writers spread over the stripes.
///
//===----------------------------------------------------------------------===//

#include "profile/ContentionSketch.h"
#include "profile/SharedProfile.h"
#include "support/Topology.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <thread>
#include <vector>

using namespace cswitch;

namespace {

unsigned expectedCpuStripes() {
  return std::bit_ceil(std::min(Topology::system().cpuCount(), 64u));
}

TEST(SharedProfile, DefaultStripesFollowTheCpuCount) {
  EXPECT_EQ(SharedProfile().stripes(), expectedCpuStripes());
  EXPECT_EQ(ContentionSketch().stripes(), expectedCpuStripes());
}

TEST(SharedProfile, ExplicitStripesRoundUpToAPowerOfTwo) {
  EXPECT_EQ(SharedProfile(nullptr, 1).stripes(), 1u);
  EXPECT_EQ(SharedProfile(nullptr, 3).stripes(), 4u);
  EXPECT_EQ(SharedProfile(nullptr, 1000).stripes(), 64u);
  EXPECT_EQ(ContentionSketch(5).stripes(), 8u);
  EXPECT_EQ(ContentionSketch(64).stripes(), 64u);
}

TEST(SharedProfile, CurrentCpuStripeStaysInRange) {
  EXPECT_EQ(currentCpuStripe(1), 0u);
  for (unsigned Width : {2u, 4u, 64u})
    for (int Call = 0; Call != 3000; ++Call) // crosses cpu re-samples
      ASSERT_LT(currentCpuStripe(Width), Width);
}

TEST(SharedProfile, ConcurrentRecordsSnapshotExactly) {
  constexpr int Threads = 8;
  constexpr uint64_t PerThread = 10000;
  ContentionSketch Sketch;
  SharedProfile Profile(&Sketch);
  std::vector<std::thread> Workers;
  for (int T = 0; T != Threads; ++T)
    Workers.emplace_back([&Profile, T] {
      for (uint64_t I = 0; I != PerThread; ++I) {
        Profile.record(I % 2 ? OperationKind::Contains
                             : OperationKind::Populate);
        Profile.recordSize(T * PerThread + I);
      }
    });
  for (std::thread &W : Workers)
    W.join();
  WorkloadProfile P = Profile.snapshot();
  EXPECT_EQ(P.count(OperationKind::Populate), Threads * PerThread / 2);
  EXPECT_EQ(P.count(OperationKind::Contains), Threads * PerThread / 2);
  EXPECT_EQ(P.totalOperations(), Threads * PerThread);
  EXPECT_EQ(P.MaxSize, Threads * PerThread - 1);
  EXPECT_EQ(Sketch.operations(), Threads * PerThread);
}

TEST(SharedProfile, SketchEstimateKeepsItsToleranceAtEveryThreadCount) {
  for (int Threads : {1, 2, 4, 8}) {
    ContentionSketch Sketch;
    std::vector<std::thread> Workers;
    for (int T = 0; T != Threads; ++T)
      Workers.emplace_back([&Sketch] {
        for (int I = 0; I != 3000; ++I)
          Sketch.observe();
      });
    for (std::thread &W : Workers)
      W.join();
    EXPECT_EQ(Sketch.operations(), 3000u * Threads);
    // Linear counting over 64 buckets: close to the thread count, lower
    // only when thread ids collide into one bucket.
    double Estimate = Sketch.estimateThreads();
    if (Threads == 1) {
      EXPECT_GE(Estimate, 1.0);
      EXPECT_LT(Estimate, 1.6);
    } else {
      EXPECT_GE(Estimate, Threads / 2.0) << Threads << " threads";
      EXPECT_LE(Estimate, Threads * 2.0) << Threads << " threads";
    }
  }
}

} // namespace
