//===- ProvenanceTest.cpp - Decision provenance ledger tests --------------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests of the decision provenance ledger (DESIGN.md §14): the seqlock
/// ring's record/snapshot protocol and wrap behavior, reader-vs-writer
/// races, registry interning and the disabled-by-default guarantee, the
/// end-to-end capture path through a real allocation context, and the
/// cswitch-explain-v1 render/parse round trip with byte-stability.
///
//===----------------------------------------------------------------------===//

#include "obs/Provenance.h"

#include "core/AllocationContext.h"
#include "model/DefaultModel.h"
#include "support/Telemetry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <random>
#include <thread>
#include <vector>

using namespace cswitch;
using namespace cswitch::obs;

namespace {

std::shared_ptr<const PerformanceModel> defaultModel() {
  static auto Model =
      std::make_shared<const PerformanceModel>(defaultPerformanceModel());
  return Model;
}

ContextOptions quietOptions(size_t Window = 10, double Ratio = 0.6) {
  ContextOptions Options;
  Options.WindowSize = Window;
  Options.FinishedRatio = Ratio;
  Options.LogEvents = false;
  return Options;
}

/// RAII guard: forces the capture state for one test and restores
/// "disabled" (the shipping default) afterwards, clearing the registry.
struct CaptureGuard {
  explicit CaptureGuard(bool Enabled) {
    ProvenanceRegistry::global().clearForTest();
    ProvenanceRegistry::setEnabled(Enabled);
  }
  ~CaptureGuard() {
    ProvenanceRegistry::setEnabled(false);
    ProvenanceRegistry::global().clearForTest();
  }
};

DecisionRecord sampleRecord(uint32_t Round) {
  DecisionRecord R;
  R.TimestampNanos = 1000 + Round;
  R.Round = Round;
  R.Outcome = DecisionOutcome::Kept;
  R.CurrentVariant = 0;
  R.ChosenVariant = -1;
  R.NumCandidates = 2;
  R.NumCriteria = 1;
  R.Criteria[0].Dimension = 0;
  R.Criteria[0].Threshold = 0.8;
  R.ContendedThreads = 1.0;
  R.Margin = 0.25;
  R.Candidates[0].Covered = true;
  R.Candidates[0].Eligible = true;
  R.Candidates[0].Total = {100.0, 10.0, 1.0, 0.0};
  R.Candidates[1].Covered = true;
  R.Candidates[1].Eligible = true;
  R.Candidates[1].Total = {90.0, 12.0, 1.5, 0.0};
  R.Candidates[1].Ratio[0] = 0.9;
  return R;
}

} // namespace

//===----------------------------------------------------------------------===//
// Names
//===----------------------------------------------------------------------===//

TEST(Provenance, OutcomeNamesRoundTrip) {
  const DecisionOutcome All[] = {
      DecisionOutcome::Kept, DecisionOutcome::Switched,
      DecisionOutcome::Converged, DecisionOutcome::WarmStartSkipped};
  for (DecisionOutcome O : All) {
    const char *Name = decisionOutcomeName(O);
    ASSERT_NE(Name, nullptr);
    EXPECT_STRNE(Name, "");
    DecisionOutcome Parsed;
    ASSERT_TRUE(parseDecisionOutcome(Name, Parsed)) << Name;
    EXPECT_EQ(Parsed, O);
  }
  // Every name is distinct.
  for (DecisionOutcome A : All)
    for (DecisionOutcome B : All)
      if (A != B) {
        EXPECT_STRNE(decisionOutcomeName(A), decisionOutcomeName(B));
      }
  DecisionOutcome Unused;
  EXPECT_FALSE(parseDecisionOutcome("unknown-outcome", Unused));
  EXPECT_FALSE(parseDecisionOutcome("", Unused));
}

TEST(Provenance, DimensionNames) {
  EXPECT_STREQ(explainDimensionName(0), "time");
  EXPECT_STREQ(explainDimensionName(1), "alloc");
  EXPECT_STREQ(explainDimensionName(2), "energy");
  EXPECT_STREQ(explainDimensionName(3), "contention");
  EXPECT_STREQ(explainDimensionName(4), "unknown");
  EXPECT_STREQ(explainDimensionName(999), "unknown");
}

//===----------------------------------------------------------------------===//
// SiteLedger ring protocol
//===----------------------------------------------------------------------===//

TEST(Provenance, LedgerStampsSequencesAndRetainsInOrder) {
  SiteLedger Ledger("t:ring", "list", "Rtime", {"ArrayList", "LinkedList"});
  EXPECT_EQ(Ledger.decisionCount(), 0u);
  EXPECT_TRUE(Ledger.snapshot().empty());

  for (uint32_t I = 0; I != 3; ++I)
    Ledger.record(sampleRecord(I));
  EXPECT_EQ(Ledger.decisionCount(), 3u);

  std::vector<DecisionRecord> Records = Ledger.snapshot();
  ASSERT_EQ(Records.size(), 3u);
  for (size_t I = 0; I != Records.size(); ++I) {
    EXPECT_EQ(Records[I].Sequence, I + 1); // 1-based, stamped by record()
    EXPECT_EQ(Records[I].Round, I);
    EXPECT_DOUBLE_EQ(Records[I].Margin, 0.25);
    EXPECT_DOUBLE_EQ(Records[I].Candidates[1].Ratio[0], 0.9);
  }
}

TEST(Provenance, LedgerWrapsKeepingNewest) {
  SiteLedger Ledger("t:wrap", "list", "Rtime", {"ArrayList"});
  const uint32_t Total = static_cast<uint32_t>(ExplainLedgerCapacity) + 5;
  for (uint32_t I = 0; I != Total; ++I)
    Ledger.record(sampleRecord(I));
  EXPECT_EQ(Ledger.decisionCount(), Total);

  std::vector<DecisionRecord> Records = Ledger.snapshot();
  ASSERT_EQ(Records.size(), ExplainLedgerCapacity);
  // Oldest retained decision is Total - capacity + 1; strictly
  // ascending from there.
  for (size_t I = 0; I != Records.size(); ++I)
    EXPECT_EQ(Records[I].Sequence, Total - ExplainLedgerCapacity + 1 + I);
}

TEST(Provenance, LedgerSnapshotSiteCarriesMetadata) {
  SiteLedger Ledger("t:meta", "map", "Rtime+alloc",
                    {"HashMap", "TreeMap", "ArrayMap"});
  Ledger.record(sampleRecord(7));
  SiteLedgerSnapshot Snap = Ledger.snapshotSite();
  EXPECT_EQ(Snap.Name, "t:meta");
  EXPECT_EQ(Snap.Abstraction, "map");
  EXPECT_EQ(Snap.Rule, "Rtime+alloc");
  ASSERT_EQ(Snap.Variants.size(), 3u);
  EXPECT_EQ(Snap.Variants[1], "TreeMap");
  EXPECT_EQ(Snap.Decisions, 1u);
  ASSERT_EQ(Snap.Records.size(), 1u);
  EXPECT_EQ(Snap.Records[0].Round, 7u);
}

TEST(Provenance, ConcurrentReadersNeverSeeTornRecords) {
  SiteLedger Ledger("t:race", "list", "Rtime", {"ArrayList"});
  std::atomic<bool> Stop{false};

  // The writer tags every field it publishes with the round number;
  // readers verify each snapshot record is internally consistent — a
  // torn read would mix two rounds.
  std::thread Writer([&Ledger, &Stop] {
    uint32_t Round = 0;
    while (!Stop.load(std::memory_order_relaxed)) {
      DecisionRecord R = sampleRecord(Round);
      R.ContendedThreads = static_cast<double>(Round);
      R.Margin = static_cast<double>(Round) * 0.5;
      Ledger.record(R);
      ++Round;
    }
  });

  for (int Iter = 0; Iter != 2000; ++Iter) {
    std::vector<DecisionRecord> Records = Ledger.snapshot();
    uint64_t PrevSeq = 0;
    for (const DecisionRecord &R : Records) {
      EXPECT_GT(R.Sequence, PrevSeq); // strictly ascending, no laps
      PrevSeq = R.Sequence;
      EXPECT_EQ(R.Round + 1, R.Sequence); // round stamped by writer
      EXPECT_DOUBLE_EQ(R.ContendedThreads, static_cast<double>(R.Round));
      EXPECT_DOUBLE_EQ(R.Margin, static_cast<double>(R.Round) * 0.5);
    }
  }
  Stop.store(true, std::memory_order_relaxed);
  Writer.join();
}

//===----------------------------------------------------------------------===//
// Registry
//===----------------------------------------------------------------------===//

TEST(Provenance, RegistryInternsSitesByName) {
  CaptureGuard Guard(true);
  ProvenanceRegistry &Registry = ProvenanceRegistry::global();
  SiteLedger *A = Registry.site("t:intern", "list", "Rtime", {"ArrayList"});
  SiteLedger *B = Registry.site("t:intern", "set", "other", {"ignored"});
  EXPECT_EQ(A, B); // metadata consumed on creation only
  EXPECT_EQ(A->abstraction(), "list");
  EXPECT_EQ(Registry.siteCount(), 1u);
  Registry.site("t:intern2", "map", "Rtime", {});
  EXPECT_EQ(Registry.siteCount(), 2u);

  std::vector<SiteLedgerSnapshot> Sites = Registry.snapshotSites();
  ASSERT_EQ(Sites.size(), 2u);
  EXPECT_EQ(Sites[0].Name, "t:intern"); // sorted by name
  EXPECT_EQ(Sites[1].Name, "t:intern2");
}

TEST(Provenance, DisabledByDefaultAndAllocationFree) {
  CaptureGuard Guard(false);
  EXPECT_FALSE(ProvenanceRegistry::enabled());
  uint64_t Before = ProvenanceRegistry::global().allocationCount();

  // A full monitoring cycle with capture off must not touch the ledger.
  ListContext<int64_t> Ctx("t:prov-disabled", ListVariant::ArrayList,
                           defaultModel(), SelectionRule::timeRule(),
                           quietOptions());
  for (int I = 0; I != 10; ++I) {
    List<int64_t> L = Ctx.createList();
    for (int64_t V = 0; V != 300; ++V)
      L.add(V);
    for (int64_t V = 0; V != 1500; ++V)
      (void)L.contains(V);
  }
  Ctx.evaluate();
  EXPECT_EQ(ProvenanceRegistry::global().allocationCount(), Before);
  EXPECT_EQ(ProvenanceRegistry::global().siteCount(), 0u);
}

//===----------------------------------------------------------------------===//
// End-to-end capture through a real context
//===----------------------------------------------------------------------===//

TEST(Provenance, CapturesSwitchedDecisionWithBreakdowns) {
  CaptureGuard Guard(true);
  ListContext<int64_t> Ctx("t:prov-switch", ListVariant::ArrayList,
                           defaultModel(), SelectionRule::timeRule(),
                           quietOptions());
  // Lookup-heavy on sizable lists: the default model switches the site
  // to HashArrayList (same workload as the AllocationContext tests).
  for (int I = 0; I != 10; ++I) {
    List<int64_t> L = Ctx.createList();
    for (int64_t V = 0; V != 400; ++V)
      L.add(V);
    for (int64_t V = 0; V != 2000; ++V)
      (void)L.contains(V);
  }
  ASSERT_TRUE(Ctx.evaluate());

  std::vector<SiteLedgerSnapshot> Sites =
      ProvenanceRegistry::global().snapshotSites();
  ASSERT_EQ(Sites.size(), 1u);
  const SiteLedgerSnapshot &Site = Sites[0];
  EXPECT_EQ(Site.Name, "t:prov-switch");
  EXPECT_EQ(Site.Abstraction, "list");
  EXPECT_FALSE(Site.Rule.empty());
  EXPECT_FALSE(Site.Variants.empty());
  ASSERT_EQ(Site.Records.size(), 1u);

  const DecisionRecord &R = Site.Records[0];
  EXPECT_EQ(R.Outcome, DecisionOutcome::Switched);
  EXPECT_EQ(R.Round, 0u); // the first monitoring round
  EXPECT_GT(R.TimestampNanos, 0u);
  EXPECT_EQ(R.CurrentVariant, 0); // started as ArrayList
  ASSERT_GE(R.ChosenVariant, 0);
  ASSERT_LT(static_cast<size_t>(R.ChosenVariant), Site.Variants.size());
  EXPECT_EQ(Site.Variants[static_cast<size_t>(R.ChosenVariant)],
            "HashArrayList");
  EXPECT_GT(R.NumCandidates, 0u);
  ASSERT_GT(R.NumCriteria, 0u);
  EXPECT_GT(R.Margin, 0.0); // a switch beat every criterion

  // The chosen candidate has a full per-dimension breakdown and a
  // qualifying ratio on the first criterion.
  const CandidateExplanation &Chosen =
      R.Candidates[static_cast<size_t>(R.ChosenVariant)];
  EXPECT_TRUE(Chosen.Covered);
  EXPECT_TRUE(Chosen.Eligible);
  EXPECT_TRUE(Chosen.Qualified);
  EXPECT_GT(Chosen.Total[0], 0.0);   // time
  EXPECT_GT(Chosen.PreFold[0], 0.0); // unfolded time component
  EXPECT_GE(Chosen.Ratio[0], 0.0);
  EXPECT_LT(Chosen.Ratio[0], R.Criteria[0].Threshold);

  // The current variant is recorded too, as the baseline.
  const CandidateExplanation &Current =
      R.Candidates[static_cast<size_t>(R.CurrentVariant)];
  EXPECT_TRUE(Current.Covered);
  EXPECT_GT(Current.Total[0], Chosen.Total[0]);
}

TEST(Provenance, KeepStreakReachesConvergence) {
  CaptureGuard Guard(true);
  ListContext<int64_t> Ctx("t:prov-keep", ListVariant::ArrayList,
                           defaultModel(), SelectionRule::timeRule(),
                           quietOptions());
  // Append+iterate favors ArrayList, so every round keeps.
  auto RunRound = [&Ctx] {
    for (int I = 0; I != 10; ++I) {
      List<int64_t> L = Ctx.createList();
      for (int64_t V = 0; V != 200; ++V)
        L.add(V);
      uint64_t Sum = 0;
      L.forEach([&Sum](const int64_t &V) {
        Sum += static_cast<uint64_t>(V);
      });
      (void)Sum;
    }
    EXPECT_FALSE(Ctx.evaluate());
  };
  for (int Round = 0; Round != 4; ++Round)
    RunRound();

  std::vector<SiteLedgerSnapshot> Sites =
      ProvenanceRegistry::global().snapshotSites();
  ASSERT_EQ(Sites.size(), 1u);
  const std::vector<DecisionRecord> &Records = Sites[0].Records;
  ASSERT_EQ(Records.size(), 4u);
  EXPECT_EQ(Records[0].Outcome, DecisionOutcome::Kept);
  EXPECT_EQ(Records[0].ConsecutiveKeeps, 1u);
  EXPECT_EQ(Records[1].Outcome, DecisionOutcome::Kept);
  // The third consecutive keep crosses ConvergedKeepStreak.
  EXPECT_EQ(Records[2].Outcome, DecisionOutcome::Converged);
  EXPECT_EQ(Records[3].Outcome, DecisionOutcome::Converged);
  EXPECT_EQ(Records[3].ConsecutiveKeeps, 4u);
}

namespace {

/// The selection-visible history of one context: its variant after
/// every evaluate() call, and its evaluation and switch counts.
struct SelectionTrail {
  std::vector<unsigned> Variants;
  uint64_t Evaluations = 0;
  uint64_t Switches = 0;
};

/// Evaluates \p Ctx with capture forced to \p Capture (a context keeps
/// the ledger it resolved, so only the captured context ever gets one)
/// and appends the outcome to \p Trail.
void evaluateInto(AllocationContextBase &Ctx, bool Capture,
                  SelectionTrail &Trail) {
  ProvenanceRegistry::setEnabled(Capture);
  Ctx.evaluate();
  ProvenanceRegistry::setEnabled(false);
  Trail.Variants.push_back(Ctx.currentVariantIndex());
  Trail.Evaluations = Ctx.evaluationCount();
  Trail.Switches = Ctx.switchCount();
}

void expectSameSelection(const SelectionTrail &Off,
                         const SelectionTrail &On) {
  EXPECT_EQ(Off.Variants, On.Variants);
  EXPECT_EQ(Off.Evaluations, On.Evaluations);
  EXPECT_EQ(Off.Switches, On.Switches);
}

} // namespace

TEST(Provenance, LedgerDoesNotShiftSelection) {
  // The ledger prices every dimension while the rule needs only its
  // own; the decision keeps one accumulator per dimension, so turning
  // capture on must not move a single choice. Each workload drives a
  // capture-off and a capture-on context in lockstep.
  CaptureGuard Guard(false);

  // Sequential: a seeded two-phase list workload (lookups, then
  // indexed reads) that switches away and back.
  ListContext<int64_t> PlainList("t:steer-seq-off", ListVariant::ArrayList,
                                 defaultModel(), SelectionRule::timeRule(),
                                 quietOptions());
  ListContext<int64_t> CapturedList("t:steer-seq-on", ListVariant::ArrayList,
                                    defaultModel(),
                                    SelectionRule::timeRule(),
                                    quietOptions());
  std::mt19937_64 Rng(7);
  SelectionTrail SeqOff, SeqOn;
  for (int Round = 0; Round != 12; ++Round) {
    for (int I = 0; I != 10; ++I) {
      auto Size = static_cast<int64_t>(100 + Rng() % 400);
      List<int64_t> A = PlainList.createList();
      List<int64_t> B = CapturedList.createList();
      for (int64_t V = 0; V != Size; ++V) {
        A.add(V);
        B.add(V);
      }
      for (int64_t V = 0; V != 6 * Size; ++V) {
        if (Round < 6) {
          (void)A.contains(V);
          (void)B.contains(V);
        } else {
          (void)A.get(static_cast<size_t>(V % Size));
          (void)B.get(static_cast<size_t>(V % Size));
        }
      }
    }
    evaluateInto(PlainList, false, SeqOff);
    evaluateInto(CapturedList, true, SeqOn);
  }
  expectSameSelection(SeqOff, SeqOn);
  EXPECT_GE(SeqOn.Switches, 2u);

  // Concurrent: an Auto map shared by four threads, then by one. Every
  // worker operates on both maps, so both sketches see the same threads
  // and the contention fold fires identically.
  ContextOptions Concurrent = ContextOptions{}
                                  .windowSize(2)
                                  .finishedRatio(0.5)
                                  .logEvents(false)
                                  .concurrency(Concurrency::Auto);
  MapContext<int64_t, int64_t> PlainMap("t:steer-auto-off",
                                        MapVariant::ChainedHashMap,
                                        defaultModel(),
                                        SelectionRule::timeRule(), Concurrent);
  MapContext<int64_t, int64_t> CapturedMap(
      "t:steer-auto-on", MapVariant::ChainedHashMap, defaultModel(),
      SelectionRule::timeRule(), Concurrent);
  SelectionTrail AutoOff, AutoOn;
  for (int Generation = 0; Generation != 8; ++Generation) {
    {
      Map<int64_t, int64_t> A = PlainMap.createMap();
      Map<int64_t, int64_t> B = CapturedMap.createMap();
      int Threads = Generation < 4 ? 4 : 1;
      std::vector<std::thread> Workers;
      for (int T = 0; T != Threads; ++T)
        Workers.emplace_back([&A, &B, T] {
          for (int64_t I = 0; I != 1000; ++I) {
            int64_t Key = T * 1000 + I;
            int64_t Out = 0;
            A.put(Key, Key);
            B.put(Key, Key);
            A.lookup(Key, Out);
            B.lookup(Key, Out);
          }
        });
      for (std::thread &W : Workers)
        W.join();
    } // Retire the generation so its profiles publish.
    evaluateInto(PlainMap, false, AutoOff);
    evaluateInto(CapturedMap, true, AutoOn);
  }
  expectSameSelection(AutoOff, AutoOn);

  // Only the captured contexts recorded, and the fold was exercised.
  std::vector<SiteLedgerSnapshot> Sites =
      ProvenanceRegistry::global().snapshotSites();
  ASSERT_EQ(Sites.size(), 2u);
  for (const SiteLedgerSnapshot &Site : Sites)
    EXPECT_NE(Site.Name.find("-on"), std::string::npos) << Site.Name;
  const SiteLedgerSnapshot &Auto =
      Sites[0].Name == "t:steer-auto-on" ? Sites[0] : Sites[1];
  EXPECT_TRUE(std::any_of(Auto.Records.begin(), Auto.Records.end(),
                          [](const DecisionRecord &R) {
                            return R.ContentionFolded;
                          }));
}

//===----------------------------------------------------------------------===//
// Render / parse round trip
//===----------------------------------------------------------------------===//

namespace {

ExplainProvenance sampleProvenance() {
  ExplainProvenance P;
  P.ModelSource = "/var/lib/cswitch/host42.model";
  P.ModelInstalls = 2;
  P.StorePath = "/var/lib/cswitch/store";
  P.StoreLoads = 3;
  P.StoreWarmStarts = 5;
  return P;
}

SiteLedgerSnapshot sampleSite(const std::string &Name) {
  SiteLedgerSnapshot Site;
  Site.Name = Name;
  Site.Abstraction = "list";
  Site.Rule = "Rtime";
  Site.Variants = {"ArrayList", "LinkedList"};
  Site.Decisions = 12;
  DecisionRecord R = sampleRecord(3);
  R.Sequence = 12;
  R.Outcome = DecisionOutcome::Switched;
  R.ChosenVariant = 1;
  R.ContentionFolded = true;
  R.AdaptiveStraddles = true;
  R.AdaptiveIndex = 1;
  R.AdaptiveThreshold = 1000.0;
  R.WideRangeFactor = 16.0;
  R.MinMaxSize = 10.0;
  R.MaxMaxSize = 4096.0;
  R.Candidates[1].PreFold = {80.0, 12.0, 1.5, 10.0};
  R.Candidates[1].Qualified = true;
  Site.Records.push_back(R);
  return Site;
}

} // namespace

TEST(Provenance, RenderParseRoundTrip) {
  std::string Json =
      renderExplainJson(sampleProvenance(), {sampleSite("t:roundtrip")},
                        /*Enabled=*/true);
  EXPECT_NE(Json.find("\"schema\":\"cswitch-explain-v1\""),
            std::string::npos);

  ExplainDocument Doc;
  std::string Error;
  ASSERT_TRUE(parseExplainDocument(Json, Doc, &Error)) << Error;
  EXPECT_EQ(Doc.Schema, "cswitch-explain-v1");
  EXPECT_TRUE(Doc.Enabled);
  EXPECT_EQ(Doc.Provenance.ModelSource, "/var/lib/cswitch/host42.model");
  EXPECT_EQ(Doc.Provenance.StoreWarmStarts, 5u);

  ASSERT_EQ(Doc.Sites.size(), 1u);
  const SiteLedgerSnapshot &Site = Doc.Sites[0];
  EXPECT_EQ(Site.Name, "t:roundtrip");
  EXPECT_EQ(Site.Decisions, 12u);
  ASSERT_EQ(Site.Variants.size(), 2u);
  ASSERT_EQ(Site.Records.size(), 1u);
  const DecisionRecord &R = Site.Records[0];
  EXPECT_EQ(R.Sequence, 12u);
  EXPECT_EQ(R.Outcome, DecisionOutcome::Switched);
  EXPECT_EQ(R.ChosenVariant, 1);
  EXPECT_TRUE(R.ContentionFolded);
  EXPECT_TRUE(R.AdaptiveStraddles);
  EXPECT_FALSE(R.AdaptiveWide);
  EXPECT_DOUBLE_EQ(R.AdaptiveThreshold, 1000.0);
  EXPECT_DOUBLE_EQ(R.MaxMaxSize, 4096.0);
  ASSERT_EQ(R.NumCandidates, 2u);
  EXPECT_DOUBLE_EQ(R.Candidates[1].Total[0], 90.0);
  EXPECT_DOUBLE_EQ(R.Candidates[1].PreFold[3], 10.0);
  EXPECT_DOUBLE_EQ(R.Candidates[1].Ratio[0], 0.9);
  EXPECT_TRUE(R.Candidates[1].Qualified);
  ASSERT_EQ(R.NumCriteria, 1u);
  EXPECT_EQ(R.Criteria[0].Dimension, 0u);
  EXPECT_DOUBLE_EQ(R.Criteria[0].Threshold, 0.8);
}

TEST(Provenance, RenderIsByteStable) {
  ExplainProvenance P = sampleProvenance();
  std::vector<SiteLedgerSnapshot> Sites = {sampleSite("t:stable-a"),
                                           sampleSite("t:stable-b")};
  std::string First = renderExplainJson(P, Sites, true);
  std::string Second = renderExplainJson(P, Sites, true);
  EXPECT_EQ(First, Second);
  EXPECT_EQ(First.substr(First.size() - 3), "]}\n");
}

TEST(Provenance, HostileSiteNamesSurviveRoundTrip) {
  SiteLedgerSnapshot Site = sampleSite("t:\"quoted\"\\\n\x01\xE2\x82\xAC");
  Site.Variants = {"Array\"List\"", "Tab\there"};
  std::string Json =
      renderExplainJson(sampleProvenance(), {Site}, /*Enabled=*/true);
  ExplainDocument Doc;
  std::string Error;
  ASSERT_TRUE(parseExplainDocument(Json, Doc, &Error)) << Error;
  ASSERT_EQ(Doc.Sites.size(), 1u);
  EXPECT_EQ(Doc.Sites[0].Name, Site.Name);
  ASSERT_EQ(Doc.Sites[0].Variants.size(), 2u);
  EXPECT_EQ(Doc.Sites[0].Variants[0], "Array\"List\"");
  EXPECT_EQ(Doc.Sites[0].Variants[1], "Tab\there");
}

TEST(Provenance, ParsesHeaderWithRetiredTuningSection) {
  // Documents written while the header still carried a "tuning" block
  // (between "model" and "store") stay readable: the parser skips the
  // section and reads the rest of the header.
  const std::string Json =
      "{\"schema\":\"cswitch-explain-v1\",\"enabled\":true,"
      "\"provenance\":{\"model\":{\"source\":\"host.model\","
      "\"installs\":2},\"tuning\":{\"source\":\"tuned.cstune\","
      "\"fingerprint\":\"fp-tune\",\"corpus_digest\":\"digest-7\","
      "\"loads\":1},\"store\":{\"path\":\"/var/lib/cswitch/store\","
      "\"loads\":3,\"warm_starts\":5}},\"sites\":[]}\n";
  ExplainDocument Doc;
  std::string Error;
  ASSERT_TRUE(parseExplainDocument(Json, Doc, &Error)) << Error;
  EXPECT_EQ(Doc.Schema, "cswitch-explain-v1");
  EXPECT_TRUE(Doc.Enabled);
  EXPECT_EQ(Doc.Provenance.ModelSource, "host.model");
  EXPECT_EQ(Doc.Provenance.ModelInstalls, 2u);
  EXPECT_EQ(Doc.Provenance.StorePath, "/var/lib/cswitch/store");
  EXPECT_EQ(Doc.Provenance.StoreLoads, 3u);
  EXPECT_EQ(Doc.Provenance.StoreWarmStarts, 5u);
  EXPECT_TRUE(Doc.Sites.empty());
}

TEST(Provenance, ParserRejectsWrongSchemaAndGarbage) {
  ExplainDocument Doc;
  std::string Error;
  EXPECT_FALSE(parseExplainDocument("", Doc, &Error));
  EXPECT_FALSE(parseExplainDocument("not json", Doc, &Error));
  EXPECT_FALSE(parseExplainDocument("{\"schema\":\"wrong-v9\"}", Doc,
                                    &Error));
  EXPECT_FALSE(Error.empty());
  // A valid empty document parses.
  std::string Empty = renderExplainJson(ExplainProvenance{}, {}, false);
  ASSERT_TRUE(parseExplainDocument(Empty, Doc, &Error)) << Error;
  EXPECT_FALSE(Doc.Enabled);
  EXPECT_TRUE(Doc.Sites.empty());
}

TEST(Provenance, ExplainHeaderDistillsTelemetry) {
  TelemetrySnapshot Snapshot;
  Snapshot.Model.Installs = 3;
  Snapshot.Model.Source = "data/cswitch_model.txt";
  Snapshot.Store.Path = "/tmp/store";
  Snapshot.Store.Loads = 4;
  Snapshot.Store.WarmStarts = 9;

  ExplainProvenance P = makeExplainHeader(Snapshot);
  EXPECT_EQ(P.ModelInstalls, 3u);
  EXPECT_EQ(P.ModelSource, "data/cswitch_model.txt");
  EXPECT_EQ(P.StorePath, "/tmp/store");
  EXPECT_EQ(P.StoreLoads, 4u);
  EXPECT_EQ(P.StoreWarmStarts, 9u);
}
