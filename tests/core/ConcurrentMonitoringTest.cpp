//===- ConcurrentMonitoringTest.cpp - Lock-free window stress tests ----------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic witnesses for the lock-free monitoring window: N threads
/// hammer one context with create/destroy churn while evaluate() rotates
/// rounds concurrently, and the monitored/finished/discarded counter
/// invariants must hold exactly. Run under TSan in CI to validate the
/// memory-ordering contract (DESIGN.md §4).
///
//===----------------------------------------------------------------------===//

#include "core/Switch.h"
#include "model/DefaultModel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

using namespace cswitch;

namespace {

std::shared_ptr<const PerformanceModel> defaultModel() {
  static auto Model =
      std::make_shared<const PerformanceModel>(defaultPerformanceModel());
  return Model;
}

ContextOptions quietOptions(size_t Window, double Ratio = 0.5) {
  ContextOptions Options;
  Options.WindowSize = Window;
  Options.FinishedRatio = Ratio;
  Options.LogEvents = false;
  return Options;
}

/// The shared counter invariants after all workers joined and the dust
/// settled.
void expectCounterInvariants(const AllocationContextBase &Ctx,
                             uint64_t ExpectedCreated) {
  EXPECT_EQ(Ctx.instancesCreated(), ExpectedCreated);
  EXPECT_LE(Ctx.instancesMonitored(), Ctx.instancesCreated());
  // Every monitored instance died, so its profile was either published
  // into its round's window or discarded as a stale straggler — exactly
  // one of the two.
  EXPECT_EQ(Ctx.instancesFinished() + Ctx.profilesDiscarded(),
            Ctx.instancesMonitored());
}

TEST(ConcurrentMonitoring, CountersConsistentUnderCreateDestroyChurn) {
  ListContext<int64_t> Ctx("stress:churn", ListVariant::ArrayList,
                           defaultModel(), SelectionRule::timeRule(),
                           quietOptions(64));
  constexpr int Threads = 4;
  constexpr int PerThread = 20000;

  std::atomic<bool> EvaluatorStop{false};
  std::thread Evaluator([&Ctx, &EvaluatorStop] {
    while (!EvaluatorStop.load(std::memory_order_relaxed))
      Ctx.evaluate();
  });

  std::vector<std::thread> Workers;
  for (int T = 0; T != Threads; ++T) {
    Workers.emplace_back([&Ctx] {
      for (int I = 0; I != PerThread; ++I) {
        List<int64_t> L = Ctx.createList();
        L.add(I);
        L.add(I + 1);
        (void)L.contains(I);
        // Workers evaluate too: rotation must interleave with churn
        // regardless of how the dedicated evaluator gets scheduled.
        if (I % 512 == 511)
          Ctx.evaluate();
      }
    });
  }
  for (std::thread &W : Workers)
    W.join();
  EvaluatorStop.store(true, std::memory_order_relaxed);
  Evaluator.join();

  expectCounterInvariants(Ctx, uint64_t(Threads) * PerThread);
  // The evaluator kept rotating rounds, so monitoring kept sampling.
  EXPECT_GT(Ctx.evaluationCount(), 0u);
  EXPECT_GT(Ctx.instancesMonitored(), 64u);
}

TEST(ConcurrentMonitoring, StragglersAcrossRoundsNeverCorruptCounters) {
  ListContext<int64_t> Ctx("stress:stragglers", ListVariant::ArrayList,
                           defaultModel(), SelectionRule::timeRule(),
                           quietOptions(16, 0.25));
  constexpr int Threads = 4;
  constexpr int PerThread = 4000;

  std::atomic<bool> EvaluatorStop{false};
  std::thread Evaluator([&Ctx, &EvaluatorStop] {
    while (!EvaluatorStop.load(std::memory_order_relaxed))
      Ctx.evaluate();
  });

  std::vector<std::thread> Workers;
  for (int T = 0; T != Threads; ++T) {
    Workers.emplace_back([&Ctx] {
      // Instances deliberately held across round boundaries: a bounded
      // backlog of live lists forces finishes to land in long-retired
      // rounds, exercising the discard path.
      std::vector<List<int64_t>> Backlog;
      for (int I = 0; I != PerThread; ++I) {
        Backlog.push_back(Ctx.createList());
        Backlog.back().add(I);
        if (Backlog.size() >= 32)
          Backlog.erase(Backlog.begin()); // drop the oldest straggler
        // Evaluate faster than the backlog drains: deaths lag 32
        // creations behind, so a rotation passing the finished-ratio
        // gate (4 of 16) always closes slots of still-live instances,
        // whose later deaths exercise the discard path.
        if (I % 8 == 7)
          Ctx.evaluate();
      }
    });
  }
  for (std::thread &W : Workers)
    W.join();
  EvaluatorStop.store(true, std::memory_order_relaxed);
  Evaluator.join();

  expectCounterInvariants(Ctx, uint64_t(Threads) * PerThread);
  EXPECT_GT(Ctx.profilesDiscarded(), 0u);
}

TEST(ConcurrentMonitoring, ImpossibleRuleNeverSwitchesUnderContention) {
  // The §5.3 configuration: every monitoring mechanism active, no
  // transition may ever fire — even with concurrent churn.
  ListContext<int64_t> Ctx("stress:impossible", ListVariant::ArrayList,
                           defaultModel(), SelectionRule::impossibleRule(),
                           quietOptions(32));
  std::atomic<bool> EvaluatorStop{false};
  std::thread Evaluator([&Ctx, &EvaluatorStop] {
    while (!EvaluatorStop.load(std::memory_order_relaxed))
      Ctx.evaluate();
  });
  std::vector<std::thread> Workers;
  for (int T = 0; T != 4; ++T) {
    Workers.emplace_back([&Ctx] {
      for (int I = 0; I != 5000; ++I) {
        List<int64_t> L = Ctx.createList();
        for (int64_t V = 0; V != 8; ++V)
          L.add(V);
        (void)L.contains(3);
        if (I % 256 == 255)
          Ctx.evaluate();
      }
    });
  }
  for (std::thread &W : Workers)
    W.join();
  EvaluatorStop.store(true, std::memory_order_relaxed);
  Evaluator.join();

  expectCounterInvariants(Ctx, 4u * 5000u);
  EXPECT_GT(Ctx.evaluationCount(), 0u);
  EXPECT_EQ(Ctx.switchCount(), 0u);
}

TEST(ConcurrentMonitoring, BackoffTransitionsUnderChurn) {
  ListContext<int64_t> Ctx("stress:backoff", ListVariant::ArrayList,
                           defaultModel(), SelectionRule::timeRule(),
                           quietOptions(16, 0.6));
  constexpr int Threads = 4;
  constexpr int PerThread = 5000;
  // Workers go on past PerThread until the evaluator has seen a dormant
  // round (up to this many instances each): on a loaded host the
  // evaluator may otherwise get too few turns before they finish.
  constexpr int MaxPerThread = 40 * PerThread;

  // The evaluator is the only thread that moves a round between live
  // and dormant, so a dormant state it reads stays put until its next
  // evaluate(). After the call that opened it, the retired round was
  // fully drained: the monitored and published counters can only move
  // by bumps already in flight, at most one per creator.
  std::atomic<bool> Stop{false};
  std::atomic<bool> SawDormant{false};
  std::atomic<uint64_t> Created{0};
  uint64_t DormantStretches = 0;
  uint64_t MaxMonitoredGrowth = 0;
  uint64_t MaxPublishedGrowth = 0;
  std::thread Evaluator([&] {
    bool WasDormant = false;
    uint64_t MonitoredAtOpen = 0;
    uint64_t PublishedAtOpen = 0;
    while (!Stop.load(std::memory_order_relaxed)) {
      EXPECT_FALSE(Ctx.evaluate());
      bool Dormant = Ctx.roundDormant();
      if (Dormant && !WasDormant) {
        ++DormantStretches;
        SawDormant.store(true, std::memory_order_relaxed);
        MonitoredAtOpen = Ctx.instancesMonitored();
        PublishedAtOpen = Ctx.instancesFinished();
      }
      if (Dormant) {
        MaxMonitoredGrowth = std::max(
            MaxMonitoredGrowth, Ctx.instancesMonitored() - MonitoredAtOpen);
        MaxPublishedGrowth = std::max(
            MaxPublishedGrowth, Ctx.instancesFinished() - PublishedAtOpen);
      }
      WasDormant = Dormant;
    }
  });

  std::vector<std::thread> Workers;
  for (int T = 0; T != Threads; ++T)
    Workers.emplace_back([&] {
      int I = 0;
      for (; I != MaxPerThread &&
             (I < PerThread || !SawDormant.load(std::memory_order_relaxed));
           ++I) {
        List<int64_t> L = Ctx.createList();
        for (int64_t V = 0; V != 32; ++V)
          L.add(V);
        uint64_t Sum = 0;
        L.forEach([&Sum](const int64_t &V) {
          Sum += static_cast<uint64_t>(V);
        });
        EXPECT_EQ(Sum, 496u);
      }
      Created.fetch_add(I);
    });
  for (std::thread &W : Workers)
    W.join();
  Stop.store(true, std::memory_order_relaxed);
  Evaluator.join();

  expectCounterInvariants(Ctx, Created.load());
  EXPECT_EQ(Ctx.switchCount(), 0u);
  EXPECT_GT(DormantStretches, 0u);
  EXPECT_GT(Ctx.roundsSkipped(), 0u);
  EXPECT_LE(MaxMonitoredGrowth, uint64_t(Threads));
  EXPECT_LE(MaxPublishedGrowth, uint64_t(Threads));
  // Back-off shows in the sample: far fewer than every instance was
  // monitored.
  EXPECT_LT(Ctx.instancesMonitored() * 2, Ctx.instancesCreated());
}

TEST(ConcurrentMonitoring, RecycleAcrossThreads) {
  // Instances are created on producer threads and die on consumer
  // threads, so spare implementations cross threads both ways through
  // the context's ring while the evaluator switches the variant back and
  // forth (lookup-heavy phases favor HashArrayList, index-heavy ones
  // ArrayList). Every instance must come out empty and work, whichever
  // thread emptied it.
  ListContext<int64_t> Ctx("stress:recycle", ListVariant::ArrayList,
                           defaultModel(), SelectionRule::timeRule(),
                           quietOptions(16, 0.5));
  constexpr int Producers = 2;
  constexpr int Consumers = 2;
  constexpr int PerProducer = 1500;
  constexpr int64_t Size = 96;

  std::atomic<int> Phase{0};
  std::atomic<bool> Stop{false};
  std::thread Evaluator([&] {
    while (!Stop.load(std::memory_order_relaxed)) {
      if (Ctx.evaluate())
        Phase.fetch_xor(1, std::memory_order_relaxed);
      std::this_thread::yield();
    }
  });

  std::mutex QueueMutex;
  std::vector<List<int64_t>> Queue;
  std::atomic<int> ProducersLeft{Producers};
  std::vector<std::thread> Threads;
  for (int T = 0; T != Producers; ++T)
    Threads.emplace_back([&] {
      for (int I = 0; I != PerProducer; ++I) {
        List<int64_t> L = Ctx.createList();
        EXPECT_EQ(L.size(), 0u);
        EXPECT_FALSE(isConcurrentVariant(AbstractionKind::List,
                                         static_cast<unsigned>(L.variant())));
        for (int64_t V = 0; V != Size; ++V)
          L.add(V);
        bool Lookups = Phase.load(std::memory_order_relaxed) == 0;
        uint64_t Hits = 0;
        for (int64_t V = 0; V != 2 * Size; ++V)
          Hits += Lookups ? L.contains(V) : L.get(V % Size) == V % Size;
        EXPECT_EQ(Hits, uint64_t(Size) * (Lookups ? 1 : 2));
        std::lock_guard<std::mutex> Lock(QueueMutex);
        Queue.push_back(std::move(L));
      }
      ProducersLeft.fetch_sub(1);
    });
  for (int T = 0; T != Consumers; ++T)
    Threads.emplace_back([&] {
      for (;;) {
        std::optional<List<int64_t>> L;
        {
          std::lock_guard<std::mutex> Lock(QueueMutex);
          if (!Queue.empty()) {
            L.emplace(std::move(Queue.back()));
            Queue.pop_back();
          } else if (ProducersLeft.load() == 0) {
            return;
          }
        }
        if (!L) {
          std::this_thread::yield();
          continue;
        }
        EXPECT_EQ(L->size(), size_t(Size));
        EXPECT_TRUE(L->contains(Size - 1));
        // Dies here, on this thread: its implementation is emptied and
        // offered to the ring.
      }
    });
  for (std::thread &Th : Threads)
    Th.join();
  Stop.store(true, std::memory_order_relaxed);
  Evaluator.join();

  expectCounterInvariants(Ctx, uint64_t(Producers) * PerProducer);
  EXPECT_GT(Ctx.switchCount(), 0u);
}

TEST(ConcurrentMonitoring, ParallelEvaluateAllMatchesSequentialDecisions) {
  // The same deterministic workloads must produce the same selection
  // decisions whether contexts are evaluated sequentially or fanned out
  // to the worker pool.
  auto RunWorkloads = [](SwitchEngine &Engine, size_t Threads,
                         std::vector<std::string> &ChosenVariants) {
    Engine.setEvaluationThreads(Threads);
    std::vector<std::unique_ptr<ListContext<int64_t>>> Contexts;
    for (int C = 0; C != 8; ++C) {
      Contexts.push_back(std::make_unique<ListContext<int64_t>>(
          "par:" + std::to_string(C), ListVariant::ArrayList,
          defaultModel(), SelectionRule::timeRule(), quietOptions(10, 0.6)));
      Engine.registerContext(Contexts.back().get());
      bool LookupHeavy = C % 2 == 0;
      for (int I = 0; I != 10; ++I) {
        List<int64_t> L = Contexts.back()->createList();
        for (int64_t V = 0; V != 400; ++V)
          L.add(V);
        for (int64_t V = 0; V != (LookupHeavy ? 2000 : 0); ++V)
          (void)L.contains(V);
      }
    }
    size_t Transitions = Engine.evaluateAll();
    for (auto &Ctx : Contexts) {
      ChosenVariants.push_back(Ctx->currentVariant().name());
      Engine.unregisterContext(Ctx.get());
    }
    return Transitions;
  };

  SwitchEngine Sequential;
  std::vector<std::string> SequentialChoices;
  size_t SequentialTransitions = RunWorkloads(Sequential, 1,
                                              SequentialChoices);

  SwitchEngine Parallel;
  std::vector<std::string> ParallelChoices;
  size_t ParallelTransitions = RunWorkloads(Parallel, 4, ParallelChoices);

  EXPECT_EQ(SequentialTransitions, 4u); // the lookup-heavy half switched
  EXPECT_EQ(ParallelTransitions, SequentialTransitions);
  EXPECT_EQ(ParallelChoices, SequentialChoices);
}

TEST(ConcurrentMonitoring, ParallelEvaluateAllUnderConcurrentChurn) {
  SwitchEngine Engine;
  Engine.setEvaluationThreads(3);
  ListContext<int64_t> A("par:churn:a", ListVariant::ArrayList,
                         defaultModel(), SelectionRule::impossibleRule(),
                         quietOptions(32));
  ListContext<int64_t> B("par:churn:b", ListVariant::ArrayList,
                         defaultModel(), SelectionRule::impossibleRule(),
                         quietOptions(32));
  Engine.registerContext(&A);
  Engine.registerContext(&B);

  std::atomic<bool> Stop{false};
  std::vector<std::thread> Workers;
  for (int T = 0; T != 4; ++T) {
    Workers.emplace_back([&A, &B, &Stop, T] {
      ListContext<int64_t> &Ctx = T % 2 ? A : B;
      while (!Stop.load(std::memory_order_relaxed)) {
        List<int64_t> L = Ctx.createList();
        L.add(1);
      }
    });
  }
  for (int I = 0; I != 300; ++I)
    Engine.evaluateAll();
  Stop.store(true, std::memory_order_relaxed);
  for (std::thread &W : Workers)
    W.join();
  Engine.evaluateAll();
  Engine.unregisterContext(&A);
  Engine.unregisterContext(&B);

  expectCounterInvariants(A, A.instancesCreated());
  expectCounterInvariants(B, B.instancesCreated());
  EXPECT_EQ(A.switchCount() + B.switchCount(), 0u);
}

TEST(ConcurrentMonitoring, EngineStatsAggregateAcrossShards) {
  SwitchEngine Engine;
  std::vector<std::unique_ptr<ListContext<int64_t>>> Contexts;
  for (int C = 0; C != 40; ++C) {
    Contexts.push_back(std::make_unique<ListContext<int64_t>>(
        "stats:" + std::to_string(C), ListVariant::ArrayList,
        defaultModel(), SelectionRule::timeRule(), quietOptions(4)));
    Engine.registerContext(Contexts.back().get());
    for (int I = 0; I != 3; ++I) {
      List<int64_t> L = Contexts.back()->createList();
      L.add(I);
    }
  }
  EngineStats Stats = Engine.stats();
  EXPECT_EQ(Stats.Contexts, 40u);
  EXPECT_EQ(Stats.InstancesCreated, 40u * 3u);
  EXPECT_EQ(Stats.InstancesMonitored, 40u * 3u);
  EXPECT_EQ(Stats.ProfilesPublished, 40u * 3u);
  EXPECT_EQ(Stats.ProfilesDiscarded, 0u);
  for (auto &Ctx : Contexts)
    Engine.unregisterContext(Ctx.get());
  EXPECT_EQ(Engine.contextCount(), 0u);
}

TEST(ConcurrentMonitoring, SetEvaluationThreadsIsIdempotentAndRevertible) {
  SwitchEngine Engine;
  EXPECT_EQ(Engine.evaluationThreads(), 1u);
  Engine.setEvaluationThreads(4);
  EXPECT_EQ(Engine.evaluationThreads(), 4u);
  Engine.setEvaluationThreads(4);
  Engine.setEvaluationThreads(0); // back to deterministic mode
  EXPECT_EQ(Engine.evaluationThreads(), 1u);
}

} // namespace
