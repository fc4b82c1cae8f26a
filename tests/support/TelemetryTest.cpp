//===- TelemetryTest.cpp - Telemetry schema and export unit tests ---------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
//
// Tests of the support-layer telemetry schema in isolation: counter
// arithmetic (saturating deltas), snapshot diffing by context name, and
// the JSON serializer. The engine-facing round-trip tests (snapshot ==
// SwitchEngine::stats()) live in tests/core/SwitchApiTest.cpp.
//
//===----------------------------------------------------------------------===//

#include "support/MetricsExport.h"
#include "support/Telemetry.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

using namespace cswitch;

namespace {

ContextStats makeStats(uint64_t Base) {
  ContextStats S;
  S.InstancesCreated = Base + 1;
  S.InstancesMonitored = Base + 2;
  S.ProfilesPublished = Base + 3;
  S.ProfilesDiscarded = Base + 4;
  S.Evaluations = Base + 5;
  S.Switches = Base + 6;
  return S;
}

TEST(Telemetry, ContextStatsAccumulateAndSubtract) {
  ContextStats A = makeStats(10);
  ContextStats B = makeStats(0);
  ContextStats Sum = A;
  Sum += B;
  EXPECT_EQ(Sum.InstancesCreated, 12u); // 11 + 1
  EXPECT_EQ(Sum.Switches, 22u);         // 16 + 6
  ContextStats Delta = Sum - A;
  EXPECT_TRUE(Delta == B);
}

TEST(Telemetry, SubtractionSaturatesAtZero) {
  ContextStats Small = makeStats(0);
  ContextStats Big = makeStats(100);
  ContextStats Delta = Small - Big; // counters went "backwards"
  EXPECT_TRUE(Delta == ContextStats{});

  EngineStats ESmall;
  ESmall.Contexts = 1;
  ESmall.Switches = 2;
  EngineStats EBig;
  EBig.Contexts = 5;
  EBig.Switches = 9;
  EngineStats EDelta = ESmall - EBig;
  EXPECT_EQ(EDelta.Contexts, 0u);
  EXPECT_EQ(EDelta.Switches, 0u);
}

TEST(Telemetry, RecorderStatsAccumulateAndSubtractSaturating) {
  RecorderStats A;
  A.Recorders = 1;
  A.OpsRecorded = 100;
  A.OpsDropped = 5;
  A.InstancesSampled = 10;
  A.InstancesSkipped = 30;
  RecorderStats B = A;
  B += A;
  EXPECT_EQ(B.Recorders, 2u);
  EXPECT_EQ(B.OpsRecorded, 200u);
  EXPECT_EQ(B.InstancesSkipped, 60u);
  EXPECT_TRUE(B - A == A);
  // Monotonic counters: a backwards interval clamps to zero.
  EXPECT_TRUE(A - B == RecorderStats{});
}

TEST(Telemetry, EngineStatsCountContextsWhenAggregating) {
  EngineStats E;
  E += makeStats(0);
  E += makeStats(10);
  EXPECT_EQ(E.Contexts, 2u);
  EXPECT_EQ(E.InstancesCreated, 12u); // 1 + 11
  EngineStats Twice = E;
  Twice += E;
  EXPECT_EQ(Twice.Contexts, 4u);
  EXPECT_EQ(Twice.InstancesCreated, 24u);
}

TEST(Telemetry, SnapshotDiffMatchesContextsByName) {
  TelemetrySnapshot Before;
  ContextSnapshot Old;
  Old.Name = "site-a";
  Old.Stats = makeStats(0);
  Before.Contexts.push_back(Old);
  ContextSnapshot Vanished;
  Vanished.Name = "site-gone";
  Before.Contexts.push_back(Vanished);
  Before.Engine += Old.Stats;
  Before.Events.Recorded = 10;

  TelemetrySnapshot Now;
  ContextSnapshot NewA;
  NewA.Name = "site-a";
  NewA.Variant = "LinkedList";
  NewA.Stats = makeStats(100);
  NewA.FootprintBytes = 640;
  Now.Contexts.push_back(NewA);
  ContextSnapshot Fresh;
  Fresh.Name = "site-new";
  Fresh.Stats = makeStats(5);
  Now.Contexts.push_back(Fresh);
  Now.Engine += NewA.Stats;
  Now.Engine += Fresh.Stats;
  Now.Events.Recorded = 25;

  TelemetrySnapshot Delta = Now - Before;
  ASSERT_EQ(Delta.Contexts.size(), 2u); // vanished context omitted
  EXPECT_EQ(Delta.Contexts[0].Name, "site-a");
  EXPECT_TRUE(Delta.Contexts[0].Stats == makeStats(100) - makeStats(0));
  // Variant and footprint come from the Now side.
  EXPECT_EQ(Delta.Contexts[0].Variant, "LinkedList");
  EXPECT_EQ(Delta.Contexts[0].FootprintBytes, 640u);
  // A context only present in Now appears verbatim.
  EXPECT_EQ(Delta.Contexts[1].Name, "site-new");
  EXPECT_TRUE(Delta.Contexts[1].Stats == makeStats(5));
  EXPECT_EQ(Delta.Events.Recorded, 15u);
}

TEST(Telemetry, JsonEscapeHandlesSpecials) {
  EXPECT_EQ(jsonEscape("plain"), "plain");
  EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(jsonEscape("a\nb"), "a\\nb");
  EXPECT_EQ(jsonEscape("a\rb\tc"), "a\\rb\\tc");
  EXPECT_EQ(jsonEscape("a\bb\fc"), "a\\bb\\fc");
  EXPECT_EQ(jsonEscape(std::string("a\x01") + "b"), "a\\u0001b");
}

TEST(Telemetry, JsonEscapePassesValidUtf8AndReplacesInvalidBytes) {
  // Well-formed multi-byte sequences pass through verbatim: 2-byte
  // (U+00E9), 3-byte (U+20AC), 4-byte (U+1F600).
  EXPECT_EQ(jsonEscape("caf\xC3\xA9"), "caf\xC3\xA9");
  EXPECT_EQ(jsonEscape("\xE2\x82\xAC"), "\xE2\x82\xAC");
  EXPECT_EQ(jsonEscape("\xF0\x9F\x98\x80"), "\xF0\x9F\x98\x80");
  // Malformed bytes become the � escape instead of corrupting the
  // document: a lone continuation byte, a truncated lead byte, an
  // overlong NUL encoding, and a CESU-8 surrogate half.
  EXPECT_EQ(jsonEscape("a\x80z"), "a\\ufffdz");
  EXPECT_EQ(jsonEscape("a\xC3"), "a\\ufffd");
  EXPECT_EQ(jsonEscape("\xC0\x80"), "\\ufffd\\ufffd");
  EXPECT_EQ(jsonEscape("\xED\xA0\x80"), "\\ufffd\\ufffd\\ufffd");
}

TEST(Telemetry, JsonWithHostileSiteNamesStaysWellFormed) {
  // Satellite regression: a site name full of quotes, backslashes,
  // control characters and broken UTF-8 must still yield a JSON
  // document with balanced quotes and no raw control bytes.
  TelemetrySnapshot S;
  ContextSnapshot C;
  C.Name = std::string("evil\"\\\n\x01\x80name");
  C.Abstraction = "list";
  C.Variant = "Array\"List";
  S.Contexts.push_back(C);
  S.Engine += C.Stats;
  std::string Json = toJson(S);
  // Structural whitespace (pretty-printing) is fine; raw control bytes
  // inside string literals are not.
  size_t Unescaped = 0;
  bool InString = false;
  for (size_t I = 0; I != Json.size(); ++I) {
    if (InString) {
      EXPECT_GE(static_cast<unsigned char>(Json[I]), 0x20u)
          << "raw control byte inside string at offset " << I;
    }
    if (Json[I] == '"' && (I == 0 || Json[I - 1] != '\\')) {
      ++Unescaped;
      InString = !InString;
    }
  }
  EXPECT_EQ(Unescaped % 2, 0u) << "unbalanced quotes";
  EXPECT_NE(Json.find("evil\\\"\\\\\\n\\u0001\\ufffdname"),
            std::string::npos);
}

TelemetrySnapshot sampleSnapshot() {
  TelemetrySnapshot S;
  ContextSnapshot A;
  A.Name = "bench \"quoted\"";
  A.Abstraction = "list";
  A.Variant = "ArrayList";
  A.Stats = makeStats(0);
  A.FootprintBytes = 128;
  ContextSnapshot B;
  B.Name = "site,with,commas";
  B.Abstraction = "map";
  B.Variant = "ChainedHashMap";
  B.Stats = makeStats(50);
  B.FootprintBytes = 256;
  B.ContendedThreads = 3.5;
  S.Contexts = {A, B};
  S.Engine += A.Stats;
  S.Engine += B.Stats;
  S.Events.Recorded = 42;
  S.Events.Dropped = 2;
  S.Recorder.Recorders = 3;
  S.Recorder.OpsRecorded = 1000;
  S.Recorder.OpsDropped = 7;
  S.Recorder.InstancesSampled = 20;
  S.Recorder.InstancesSkipped = 60;
  S.Store.Loads = 2;
  S.Store.LoadFailures = 1;
  S.Store.SitesLoaded = 9;
  S.Store.WarmStarts = 4;
  S.Store.Persists = 5;
  S.Store.PersistFailures = 0;
  S.Tuning.Loads = 1;
  S.Tuning.Source = "tuned.cstune";
  S.Tuning.Parameters = 6;
  S.Tuning.Sweeps = 3;
  return S;
}

TEST(Telemetry, JsonCarriesSchemaAndTotals) {
  std::string Json = toJson(sampleSnapshot());
  EXPECT_NE(Json.find("\"schema\": \"cswitch-telemetry-v1\""),
            std::string::npos);
  EXPECT_NE(Json.find("\"contexts\": 2"), std::string::npos);
  // 1 + 51: engine totals are the per-context sums.
  EXPECT_NE(Json.find("\"instances_created\": 52"), std::string::npos);
  EXPECT_NE(Json.find("\"recorded\": 42"), std::string::npos);
  EXPECT_NE(Json.find("bench \\\"quoted\\\""), std::string::npos);
  // Trace-recorder loss accounting rides along in its own object.
  EXPECT_NE(Json.find("\"recorder\": {\"recorders\": 3, "
                      "\"ops_recorded\": 1000, \"ops_dropped\": 7, "
                      "\"instances_sampled\": 20, "
                      "\"instances_skipped\": 60}"),
            std::string::npos);
  // So does the selection store's warm-start accounting.
  EXPECT_NE(Json.find("\"store\": {\"loads\": 2, \"load_failures\": 1, "
                      "\"sites_loaded\": 9, \"warm_starts\": 4, "
                      "\"persists\": 5, \"persist_failures\": 0, "
                      "\"path\": \"\"}"),
            std::string::npos);
  // Model provenance rides along as its own block (explain header).
  EXPECT_NE(Json.find("\"model\": {\"installs\": 0"), std::string::npos);
  // The contention estimate rides on each context row (0 = sequential).
  EXPECT_NE(Json.find("\"contended_threads\": 3.5"), std::string::npos);
  EXPECT_NE(Json.find("\"contended_threads\": 0"), std::string::npos);
}

TEST(Telemetry, JsonCarriesLatencyDistributions) {
  TelemetrySnapshot S = sampleSnapshot();
  S.Latency.Record.Count = 640;
  S.Latency.Record.P99 = 250.5;
  S.Contexts[0].Latency.Evaluate.Count = 3;
  S.Contexts[0].Latency.Evaluate.P50 = 1200.0;
  std::string Json = toJson(S);
  // Engine-wide block: all four instrumented paths.
  EXPECT_NE(Json.find("\"latency\": {\"record\": {\"count\": 640"),
            std::string::npos);
  EXPECT_NE(Json.find("\"p99\": 250.5"), std::string::npos);
  EXPECT_NE(Json.find("\"persist\": {\"count\": 0"), std::string::npos);
  // Per-context block rides on each context row.
  EXPECT_NE(Json.find("\"evaluate\": {\"count\": 3"), std::string::npos);
  EXPECT_NE(Json.find("\"p50\": 1200.0"), std::string::npos);
}

TEST(Telemetry, StoreStatsAccumulateAndSubtractSaturating) {
  StoreStats A;
  A.Loads = 2;
  A.LoadFailures = 1;
  A.SitesLoaded = 12;
  A.WarmStarts = 4;
  A.Persists = 3;
  A.PersistFailures = 1;
  StoreStats B = A;
  B += A;
  EXPECT_EQ(B.Loads, 4u);
  EXPECT_EQ(B.SitesLoaded, 24u);
  EXPECT_EQ(B.PersistFailures, 2u);
  EXPECT_TRUE(B - A == A);
  // Monotonic counters: a backwards interval clamps to zero.
  EXPECT_TRUE(A - B == StoreStats{});
}

TEST(Telemetry, SnapshotDiffCarriesStoreDelta) {
  TelemetrySnapshot Before, Now;
  Before.Store.Loads = 1;
  Before.Store.WarmStarts = 2;
  Now.Store.Loads = 3;
  Now.Store.WarmStarts = 7;
  Now.Store.Persists = 4;
  TelemetrySnapshot Delta = Now - Before;
  EXPECT_EQ(Delta.Store.Loads, 2u);
  EXPECT_EQ(Delta.Store.WarmStarts, 5u);
  EXPECT_EQ(Delta.Store.Persists, 4u);
}

TEST(Telemetry, WriteTextFileRoundTrips) {
  const char *Path = "telemetry_test_tmp.json";
  std::string Content = toJson(sampleSnapshot());
  ASSERT_TRUE(writeTextFile(Path, Content));
  std::ifstream In(Path);
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  EXPECT_EQ(Buffer.str(), Content);
  In.close();
  std::remove(Path);
  EXPECT_FALSE(writeTextFile("no-such-dir/x/y.json", "x"));
}

} // namespace
