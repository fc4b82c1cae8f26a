//===- EventLogTest.cpp - Event log unit tests -----------------------------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//

#include "support/EventLog.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

using namespace cswitch;

namespace {

TEST(EventLog, RecordsInOrder) {
  EventLog Log;
  Log.record(EventKind::ContextCreated, "site-a", "ArrayList");
  Log.record(EventKind::Transition, "site-a", "ArrayList -> AdaptiveList");
  std::vector<Event> Events = Log.snapshot();
  ASSERT_EQ(Events.size(), 2u);
  EXPECT_EQ(Events[0].Kind, EventKind::ContextCreated);
  EXPECT_EQ(Events[1].Kind, EventKind::Transition);
  EXPECT_EQ(Events[1].Detail, "ArrayList -> AdaptiveList");
  EXPECT_LT(Events[0].SequenceNumber, Events[1].SequenceNumber);
}

TEST(EventLog, SnapshotOfKindFilters) {
  EventLog Log;
  Log.record(EventKind::Evaluation, "s", "");
  Log.record(EventKind::Transition, "s", "a -> b");
  Log.record(EventKind::Evaluation, "s", "");
  Log.record(EventKind::Transition, "t", "c -> d");
  std::vector<Event> Transitions =
      Log.snapshotOfKind(EventKind::Transition);
  ASSERT_EQ(Transitions.size(), 2u);
  EXPECT_EQ(Transitions[0].Detail, "a -> b");
  EXPECT_EQ(Transitions[1].Context, "t");
}

TEST(EventLog, ClearEmptiesLog) {
  EventLog Log;
  Log.record(EventKind::Evaluation, "s", "");
  Log.clear();
  EXPECT_TRUE(Log.snapshot().empty());
  EXPECT_EQ(Log.droppedCount(), 0u);
}

TEST(EventLog, BoundedRingDropsOldest) {
  EventLog Log(4);
  for (int I = 0; I != 10; ++I)
    Log.record(EventKind::Evaluation, "s", std::to_string(I));
  std::vector<Event> Events = Log.snapshot();
  ASSERT_EQ(Events.size(), 4u);
  EXPECT_EQ(Log.droppedCount(), 6u);
  EXPECT_EQ(Log.totalRecorded(), 10u);
  // The survivors are the most recent four, in order.
  EXPECT_EQ(Events[0].Detail, "6");
  EXPECT_EQ(Events[3].Detail, "9");
}

TEST(EventLog, KindNamesAreStable) {
  EXPECT_STREQ(eventKindName(EventKind::ContextCreated),
               "context-created");
  EXPECT_STREQ(eventKindName(EventKind::MonitoringRound),
               "monitoring-round");
  EXPECT_STREQ(eventKindName(EventKind::Evaluation), "evaluation");
  EXPECT_STREQ(eventKindName(EventKind::Transition), "transition");
  EXPECT_STREQ(eventKindName(EventKind::AdaptiveMigration),
               "adaptive-migration");
  EXPECT_STREQ(eventKindName(EventKind::WarmStart), "warm-start");
  EXPECT_STREQ(eventKindName(EventKind::Store), "store");
}

TEST(EventLog, EveryKindHasADistinctNonEmptyName) {
  // Exhaustive over the enum: EventKind::Store is the last enumerator,
  // so a new kind added without a name (falling into the "unknown"
  // default) fails here — extend both this list and eventKindName.
  const EventKind AllKinds[] = {
      EventKind::ContextCreated,  EventKind::MonitoringRound,
      EventKind::Evaluation,      EventKind::Transition,
      EventKind::AdaptiveMigration, EventKind::WarmStart,
      EventKind::Store};
  constexpr size_t NumKinds =
      static_cast<size_t>(EventKind::Store) + 1;
  static_assert(sizeof(AllKinds) / sizeof(AllKinds[0]) == NumKinds,
                "enumerator list out of date");
  std::set<std::string> Names;
  for (EventKind Kind : AllKinds) {
    const char *Name = eventKindName(Kind);
    ASSERT_NE(Name, nullptr);
    EXPECT_STRNE(Name, "");
    EXPECT_STRNE(Name, "unknown")
        << "enumerator " << static_cast<int>(Kind) << " has no name";
    Names.insert(Name);
  }
  EXPECT_EQ(Names.size(), NumKinds) << "kind names must be distinct";
}

TEST(EventLog, GlobalInstanceIsShared) {
  EventLog::global().clear();
  EventLog::global().record(EventKind::Transition, "g", "x -> y");
  EXPECT_EQ(EventLog::global().snapshotOfKind(EventKind::Transition).size(),
            1u);
  EventLog::global().clear();
}

TEST(EventLog, InternRoundTrips) {
  EventLog Log(8);
  uint32_t A = Log.intern("site-a");
  uint32_t B = Log.intern("site-b");
  EXPECT_NE(A, B);
  EXPECT_EQ(Log.intern("site-a"), A); // stable on re-intern
  EXPECT_EQ(Log.textOf(A), "site-a");
  EXPECT_EQ(Log.textOf(B), "site-b");
  EXPECT_EQ(Log.intern(""), 0u); // id 0 is always the empty string
  EXPECT_EQ(Log.textOf(0), "");
  EXPECT_EQ(Log.textOf(12345), ""); // unknown ids resolve to ""
}

TEST(EventLog, IdRecordResolvesNames) {
  EventLog Log(8);
  uint32_t Ctx = Log.intern("ctx");
  uint32_t Detail = Log.intern("A -> B");
  Log.record(EventKind::Transition, Ctx, Detail);
  std::vector<Event> Events = Log.snapshot();
  ASSERT_EQ(Events.size(), 1u);
  EXPECT_EQ(Events[0].Context, "ctx");
  EXPECT_EQ(Events[0].Detail, "A -> B");
  EXPECT_EQ(Events[0].ContextId, Ctx);
  EXPECT_EQ(Events[0].DetailId, Detail);
}

TEST(EventLog, DrainAdvancesCursor) {
  EventLog Log(16);
  Log.record(EventKind::Evaluation, "s", "1");
  Log.record(EventKind::Evaluation, "s", "2");
  std::vector<Event> First = Log.drain();
  ASSERT_EQ(First.size(), 2u);
  EXPECT_EQ(First[1].Detail, "2");
  EXPECT_TRUE(Log.drain().empty()); // already consumed
  Log.record(EventKind::Evaluation, "s", "3");
  std::vector<Event> Second = Log.drain();
  ASSERT_EQ(Second.size(), 1u);
  EXPECT_EQ(Second[0].Detail, "3");
  // Snapshots are non-destructive: everything is still retained.
  EXPECT_EQ(Log.snapshot().size(), 3u);
}

TEST(EventLog, DrainSkipsOverwrittenEvents) {
  EventLog Log(4);
  for (int I = 0; I != 10; ++I)
    Log.record(EventKind::Evaluation, "s", std::to_string(I));
  // Six of the ten were overwritten before the first drain.
  std::vector<Event> Events = Log.drain();
  ASSERT_EQ(Events.size(), 4u);
  EXPECT_EQ(Events[0].Detail, "6");
  EXPECT_EQ(Events[3].Detail, "9");
}

TEST(EventLog, DisabledRecordIsDropped) {
  EventLog Log(8);
  uint32_t Ctx = Log.intern("ctx");
  Log.setEnabled(false);
  EXPECT_FALSE(Log.enabled());
  Log.record(EventKind::Evaluation, Ctx);
  Log.record(EventKind::Evaluation, "s", "detail");
  EXPECT_EQ(Log.totalRecorded(), 0u);
  EXPECT_TRUE(Log.snapshot().empty());
  Log.setEnabled(true);
  Log.record(EventKind::Evaluation, Ctx);
  EXPECT_EQ(Log.totalRecorded(), 1u);
}

TEST(EventLog, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(EventLog(5).capacity(), 8u);
  EXPECT_EQ(EventLog(64).capacity(), 64u);
  EXPECT_GE(EventLog(0).capacity(), 2u);
}

TEST(EventLog, ClearKeepsInternTableAndInFlightIds) {
  EventLog Log(8);
  uint32_t Ctx = Log.intern("ctx");
  Log.record(EventKind::Evaluation, Ctx);
  Log.clear();
  EXPECT_EQ(Log.totalRecorded(), 0u);
  // Ids survive clear(); recording with them still resolves.
  Log.record(EventKind::Evaluation, Ctx);
  std::vector<Event> Events = Log.snapshot();
  ASSERT_EQ(Events.size(), 1u);
  EXPECT_EQ(Events[0].Context, "ctx");
}

TEST(EventLog, ConcurrentRecordingIsSafe) {
  EventLog Log;
  constexpr int PerThread = 500;
  auto Writer = [&Log](const char *Name) {
    for (int I = 0; I != PerThread; ++I)
      Log.record(EventKind::Evaluation, Name, "");
  };
  std::thread A(Writer, "a"), B(Writer, "b");
  A.join();
  B.join();
  EXPECT_EQ(Log.totalRecorded(), 2u * PerThread);
  EXPECT_EQ(Log.snapshot().size() + Log.droppedCount(), 2u * PerThread);
}

// The TSan stress of the ring protocol: many recorders hammering the
// lock-free record path while one drainer concurrently consumes.
// Asserted: per-event integrity (every drained event resolves to a name
// that was actually recorded, sequence numbers are unique and in ticket
// order) and conservation (drained + still-retained + dropped covers
// every record when the ring is large enough not to wrap).
TEST(EventLog, ConcurrentRecordersAndDrainer) {
  constexpr size_t Recorders = 4;
  constexpr size_t PerThread = 2000;
  EventLog Log(16384); // > Recorders * PerThread: nothing wraps
  uint32_t Ids[Recorders];
  for (size_t T = 0; T != Recorders; ++T) {
    std::string Name = "recorder-";
    Name += std::to_string(T);
    Ids[T] = Log.intern(Name);
  }

  std::atomic<bool> Stop{false};
  std::vector<Event> Drained;
  std::thread Drainer([&Log, &Stop, &Drained] {
    while (!Stop.load(std::memory_order_relaxed)) {
      std::vector<Event> Batch = Log.drain();
      Drained.insert(Drained.end(), Batch.begin(), Batch.end());
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> Writers;
  for (size_t T = 0; T != Recorders; ++T)
    Writers.emplace_back([&Log, &Ids, T] {
      for (size_t I = 0; I != PerThread; ++I)
        Log.record(EventKind::Evaluation, Ids[T]);
    });
  for (std::thread &W : Writers)
    W.join();
  Stop.store(true, std::memory_order_relaxed);
  Drainer.join();
  std::vector<Event> Tail = Log.drain();
  Drained.insert(Drained.end(), Tail.begin(), Tail.end());

  EXPECT_EQ(Log.totalRecorded(), Recorders * PerThread);
  EXPECT_EQ(Log.droppedCount(), 0u);
  EXPECT_EQ(Drained.size(), Recorders * PerThread);
  std::set<uint64_t> Sequences;
  for (const Event &E : Drained) {
    EXPECT_EQ(E.Kind, EventKind::Evaluation);
    EXPECT_TRUE(std::find(std::begin(Ids), std::end(Ids), E.ContextId) !=
                std::end(Ids));
    Sequences.insert(E.SequenceNumber);
  }
  EXPECT_EQ(Sequences.size(), Drained.size()); // tickets never collide
  // Successive drains hand out every ticket once, in ticket order.
  for (size_t I = 0; I != Drained.size(); ++I)
    ASSERT_EQ(Drained[I].SequenceNumber, I);
}

// Recorders racing a drainer on a tiny ring: events are lost (by
// design), but the accounting never lies — nothing is double-counted
// and consumers never see torn slots (validated payloads only).
TEST(EventLog, ConcurrentWrapNeverTearsEvents) {
  constexpr size_t Recorders = 4;
  constexpr size_t PerThread = 5000;
  EventLog Log(64); // tiny: constant wrap-around under load
  uint32_t Ids[Recorders];
  for (size_t T = 0; T != Recorders; ++T) {
    std::string Name = "w";
    Name += std::to_string(T);
    Ids[T] = Log.intern(Name);
  }

  std::atomic<bool> Stop{false};
  std::atomic<uint64_t> DrainedCount{0};
  std::thread Drainer([&Log, &Stop, &DrainedCount, &Ids] {
    while (!Stop.load(std::memory_order_relaxed)) {
      for (const Event &E : Log.drain()) {
        // Any drained event must carry one of the recorded ids — a torn
        // or half-published slot would fail this.
        EXPECT_TRUE(std::find(std::begin(Ids), std::end(Ids),
                              E.ContextId) != std::end(Ids));
        DrainedCount.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  std::vector<std::thread> Writers;
  for (size_t T = 0; T != Recorders; ++T)
    Writers.emplace_back([&Log, &Ids, T] {
      for (size_t I = 0; I != PerThread; ++I)
        Log.record(EventKind::Transition, Ids[T]);
    });
  for (std::thread &W : Writers)
    W.join();
  Stop.store(true, std::memory_order_relaxed);
  Drainer.join();

  EXPECT_EQ(Log.totalRecorded(), Recorders * PerThread);
  EXPECT_LE(DrainedCount.load() + Log.drain().size(),
            Recorders * PerThread);
}

} // namespace
