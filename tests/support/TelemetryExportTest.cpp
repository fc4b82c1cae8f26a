//===- TelemetryExportTest.cpp - Pinned telemetry exports -----------------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
//
// Pins both telemetry exports of one fully populated snapshot — every
// field of every stats struct holds a distinct value and every string
// carries a quote, a backslash and a newline — against committed
// goldens: the cswitch-telemetry-v1 JSON byte for byte, and the
// OpenMetrics exposition as a parsed (name, sorted labels) -> value
// map. Also pins the interval arithmetic of every stats struct:
// counters subtract with saturation at zero, state comes from the
// newer side.
//
//===----------------------------------------------------------------------===//

#include "obs/OpenMetrics.h"
#include "support/MetricsExport.h"
#include "support/Telemetry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <vector>

using namespace cswitch;

namespace {

std::string hostile(uint64_t Base) {
  return "q\"b\\n\n" + std::to_string(Base);
}

// The stats builders are linear in Base (field I holds Base * (100 + I)),
// so build(A) - build(B) == build(A - B) for every counter.

ContextStats contextStats(uint64_t Base) {
  ContextStats S;
  S.InstancesCreated = Base * 101;
  S.InstancesMonitored = Base * 102;
  S.ProfilesPublished = Base * 103;
  S.ProfilesDiscarded = Base * 104;
  S.Evaluations = Base * 105;
  S.Switches = Base * 106;
  S.RoundsSkipped = Base * 108;
  return S;
}

EngineStats engineStats(uint64_t Base) {
  EngineStats S;
  S.Contexts = Base * 107;
  S.InstancesCreated = Base * 101;
  S.InstancesMonitored = Base * 102;
  S.ProfilesPublished = Base * 103;
  S.ProfilesDiscarded = Base * 104;
  S.Evaluations = Base * 105;
  S.Switches = Base * 106;
  S.RoundsSkipped = Base * 108;
  return S;
}

RecorderStats recorderStats(uint64_t Base) {
  RecorderStats S;
  S.Recorders = Base * 101;
  S.OpsRecorded = Base * 102;
  S.OpsDropped = Base * 103;
  S.InstancesSampled = Base * 104;
  S.InstancesSkipped = Base * 105;
  return S;
}

StoreStats storeStats(uint64_t Base) {
  StoreStats S;
  S.Loads = Base * 101;
  S.LoadFailures = Base * 102;
  S.SitesLoaded = Base * 103;
  S.WarmStarts = Base * 104;
  S.Persists = Base * 105;
  S.PersistFailures = Base * 106;
  S.Path = hostile(Base * 107);
  return S;
}

FleetStats fleetStats(uint64_t Base) {
  FleetStats S;
  S.Pulls = Base * 101;
  S.PullFailures = Base * 102;
  S.Pushes = Base * 103;
  S.PushFailures = Base * 104;
  S.Retries = Base * 105;
  S.StoreGets = Base * 106;
  S.MergesApplied = Base * 107;
  S.SitesMerged = Base * 108;
  S.RejectedOversize = Base * 109;
  S.RejectedMalformed = Base * 110;
  S.RejectedIncompatible = Base * 111;
  S.Recalibrations = Base * 112;
  S.Promotions = Base * 113;
  S.PromotionsRejected = Base * 114;
  return S;
}

ModelStats modelStats(uint64_t Base) {
  ModelStats S;
  S.Installs = Base * 101;
  S.Source = hostile(Base * 102);
  return S;
}

EventLogStats eventStats(uint64_t Base) {
  EventLogStats S;
  S.Recorded = Base * 101;
  S.Dropped = Base * 102;
  return S;
}

LatencyStats latencyStats(uint64_t Base) {
  LatencyStats S;
  S.Count = Base + 1;
  S.Saturated = Base + 2;
  S.SumNanos = Base + 3;
  S.MinNanos = Base + 4;
  S.MaxNanos = Base + 5;
  S.P50 = static_cast<double>(Base) + 6.5;
  S.P90 = static_cast<double>(Base) + 7.5;
  S.P99 = static_cast<double>(Base) + 8.5;
  S.P999 = static_cast<double>(Base) + 9.5;
  return S;
}

ContextSnapshot contextSnapshot(uint64_t Base, const char *Abstraction) {
  ContextSnapshot C;
  C.Name = hostile(Base + 1);
  C.Abstraction = Abstraction;
  C.Variant = hostile(Base + 2);
  C.Stats = contextStats(Base / 100);
  C.FootprintBytes = Base + 3;
  C.Latency.Record = latencyStats(Base + 100);
  C.Latency.Evaluate = latencyStats(Base + 200);
  C.Latency.Switch = latencyStats(Base + 300);
  C.ContendedThreads = static_cast<double>(Base) + 4.75;
  return C;
}

/// Every field of every struct holds a distinct value.
TelemetrySnapshot fullSnapshot() {
  TelemetrySnapshot S;
  S.Engine = engineStats(1);
  S.Events = eventStats(2);
  S.Recorder = recorderStats(3);
  S.Store = storeStats(4);
  S.Fleet = fleetStats(5);
  S.Model = modelStats(7);
  S.Topology.Nodes = 801;
  S.Topology.Cpus = 802;
  S.Latency.Record = latencyStats(810);
  S.Latency.Evaluate = latencyStats(820);
  S.Latency.Switch = latencyStats(830);
  S.Latency.Persist = latencyStats(840);
  S.Contexts = {contextSnapshot(1000, "list"), contextSnapshot(2000, "map")};
  return S;
}

std::vector<obs::SiteHistogramSnapshot> fullSites() {
  obs::SiteHistogramSnapshot Site;
  Site.Name = hostile(1001);
  Site.Record.Count = 640;
  Site.Record.SumNanos = 64000;
  Site.Record.MaxNanos = 400;
  Site.Record.Buckets[10] = 640;
  return {Site};
}

/// Parses an OpenMetrics exposition into "name{sorted labels}" -> value.
/// Label values keep their escaped form.
std::map<std::string, std::string> parseSamples(const std::string &Text) {
  std::map<std::string, std::string> Out;
  std::istringstream In(Text);
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    size_t I = Line.find_first_of("{ ");
    std::string Key = Line.substr(0, I);
    std::vector<std::string> Labels;
    if (Line[I] == '{') {
      ++I;
      while (Line[I] != '}') {
        size_t Eq = Line.find('=', I);
        std::string Label = Line.substr(I, Eq - I + 2);
        size_t J = Eq + 2;
        for (; Line[J] != '"'; ++J) {
          Label += Line[J];
          if (Line[J] == '\\')
            Label += Line[++J];
        }
        Labels.push_back(Label + '"');
        I = J + 1;
        if (Line[I] == ',')
          ++I;
      }
      ++I;
      std::sort(Labels.begin(), Labels.end());
      Key += '{';
      for (size_t L = 0; L != Labels.size(); ++L)
        Key += (L ? "," : "") + Labels[L];
      Key += '}';
    }
    EXPECT_EQ(Line[I], ' ') << Line;
    EXPECT_TRUE(Out.emplace(Key, Line.substr(I + 1)).second)
        << "duplicate sample " << Key;
  }
  return Out;
}

std::map<std::string, std::string> parseGolden(const std::string &Golden) {
  std::map<std::string, std::string> Out;
  std::istringstream In(Golden);
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty())
      continue;
    size_t Space = Line.rfind(' ');
    Out.emplace(Line.substr(0, Space), Line.substr(Space + 1));
  }
  return Out;
}

/// toJson(fullSnapshot()), byte for byte.
const char *const GoldenJson = R"golden({
  "schema": "cswitch-telemetry-v1",
  "engine": {"contexts": 107, "instances_created": 101, "instances_monitored": 102, "profiles_published": 103, "profiles_discarded": 104, "evaluations": 105, "switches": 106, "rounds_skipped": 108},
  "topology": {"nodes": 801, "cpus": 802},
  "latency": {"record": {"count": 811, "saturated": 812, "sum_nanos": 813, "min_nanos": 814, "max_nanos": 815, "p50": 816.5, "p90": 817.5, "p99": 818.5, "p999": 819.5}, "evaluate": {"count": 821, "saturated": 822, "sum_nanos": 823, "min_nanos": 824, "max_nanos": 825, "p50": 826.5, "p90": 827.5, "p99": 828.5, "p999": 829.5}, "switch": {"count": 831, "saturated": 832, "sum_nanos": 833, "min_nanos": 834, "max_nanos": 835, "p50": 836.5, "p90": 837.5, "p99": 838.5, "p999": 839.5}, "persist": {"count": 841, "saturated": 842, "sum_nanos": 843, "min_nanos": 844, "max_nanos": 845, "p50": 846.5, "p90": 847.5, "p99": 848.5, "p999": 849.5}},
  "events": {"recorded": 202, "dropped": 204},
  "recorder": {"recorders": 303, "ops_recorded": 306, "ops_dropped": 309, "instances_sampled": 312, "instances_skipped": 315},
  "store": {"loads": 404, "load_failures": 408, "sites_loaded": 412, "warm_starts": 416, "persists": 420, "persist_failures": 424, "path": "q\"b\\n\n428"},
  "fleet": {"pulls": 505, "pull_failures": 510, "pushes": 515, "push_failures": 520, "retries": 525, "store_gets": 530, "merges_applied": 535, "sites_merged": 540, "rejected_oversize": 545, "rejected_malformed": 550, "rejected_incompatible": 555, "recalibrations": 560, "promotions": 565, "promotions_rejected": 570},
  "model": {"installs": 707, "source": "q\"b\\n\n714"},
  "contexts": [
    {"name": "q\"b\\n\n1001", "abstraction": "list", "variant": "q\"b\\n\n1002", "instances_created": 1010, "instances_monitored": 1020, "profiles_published": 1030, "profiles_discarded": 1040, "evaluations": 1050, "switches": 1060, "rounds_skipped": 1080, "footprint_bytes": 1003, "contended_threads": 1004.75, "latency": {"record": {"count": 1101, "saturated": 1102, "sum_nanos": 1103, "min_nanos": 1104, "max_nanos": 1105, "p50": 1106.5, "p90": 1107.5, "p99": 1108.5, "p999": 1109.5}, "evaluate": {"count": 1201, "saturated": 1202, "sum_nanos": 1203, "min_nanos": 1204, "max_nanos": 1205, "p50": 1206.5, "p90": 1207.5, "p99": 1208.5, "p999": 1209.5}, "switch": {"count": 1301, "saturated": 1302, "sum_nanos": 1303, "min_nanos": 1304, "max_nanos": 1305, "p50": 1306.5, "p90": 1307.5, "p99": 1308.5, "p999": 1309.5}}},
    {"name": "q\"b\\n\n2001", "abstraction": "map", "variant": "q\"b\\n\n2002", "instances_created": 2020, "instances_monitored": 2040, "profiles_published": 2060, "profiles_discarded": 2080, "evaluations": 2100, "switches": 2120, "rounds_skipped": 2160, "footprint_bytes": 2003, "contended_threads": 2004.75, "latency": {"record": {"count": 2101, "saturated": 2102, "sum_nanos": 2103, "min_nanos": 2104, "max_nanos": 2105, "p50": 2106.5, "p90": 2107.5, "p99": 2108.5, "p999": 2109.5}, "evaluate": {"count": 2201, "saturated": 2202, "sum_nanos": 2203, "min_nanos": 2204, "max_nanos": 2205, "p50": 2206.5, "p90": 2207.5, "p99": 2208.5, "p999": 2209.5}, "switch": {"count": 2301, "saturated": 2302, "sum_nanos": 2303, "min_nanos": 2304, "max_nanos": 2305, "p50": 2306.5, "p90": 2307.5, "p99": 2308.5, "p999": 2309.5}}}
  ]
}
)golden";

/// Every sample of renderOpenMetrics(fullSnapshot(), fullSites()), one
/// "name{sorted labels} value" per line.
const char *const GoldenSamples = R"golden(
cswitch_context_contended_threads{site="q\"b\\n\n1001"} 1004.75
cswitch_context_contended_threads{site="q\"b\\n\n2001"} 2004.75
cswitch_context_footprint_bytes{site="q\"b\\n\n1001"} 1003
cswitch_context_footprint_bytes{site="q\"b\\n\n2001"} 2003
cswitch_context_variant_info{abstraction="list",site="q\"b\\n\n1001",variant="q\"b\\n\n1002"} 1
cswitch_context_variant_info{abstraction="map",site="q\"b\\n\n2001",variant="q\"b\\n\n2002"} 1
cswitch_contexts 107
cswitch_engine_evaluations_total 105
cswitch_engine_instances_created_total 101
cswitch_engine_instances_monitored_total 102
cswitch_engine_profiles_discarded_total 104
cswitch_engine_profiles_published_total 103
cswitch_engine_rounds_skipped_total 108
cswitch_engine_switches_total 106
cswitch_evaluate_latency_nanos_count 821
cswitch_evaluate_latency_nanos_sum 823
cswitch_evaluate_latency_nanos{quantile="0.5"} 826.5
cswitch_evaluate_latency_nanos{quantile="0.9"} 827.5
cswitch_evaluate_latency_nanos{quantile="0.99"} 828.5
cswitch_evaluate_latency_nanos{quantile="0.999"} 829.5
cswitch_evaluations_total{site="q\"b\\n\n1001"} 1050
cswitch_evaluations_total{site="q\"b\\n\n2001"} 2100
cswitch_events_dropped_total 204
cswitch_events_recorded_total 202
cswitch_fleet_merges_applied_total 535
cswitch_fleet_promotions_rejected_total 570
cswitch_fleet_promotions_total 565
cswitch_fleet_pull_failures_total 510
cswitch_fleet_pulls_total 505
cswitch_fleet_push_failures_total 520
cswitch_fleet_pushes_total 515
cswitch_fleet_recalibrations_total 560
cswitch_fleet_rejected_incompatible_total 555
cswitch_fleet_rejected_malformed_total 550
cswitch_fleet_rejected_oversize_total 545
cswitch_fleet_retries_total 525
cswitch_fleet_sites_merged_total 540
cswitch_fleet_store_gets_total 530
cswitch_instances_created_total{site="q\"b\\n\n1001"} 1010
cswitch_instances_created_total{site="q\"b\\n\n2001"} 2020
cswitch_instances_monitored_total{site="q\"b\\n\n1001"} 1020
cswitch_instances_monitored_total{site="q\"b\\n\n2001"} 2040
cswitch_model_info{source="q\"b\\n\n714"} 1
cswitch_model_installs_total 707
cswitch_persist_latency_nanos_count 841
cswitch_persist_latency_nanos_sum 843
cswitch_persist_latency_nanos{quantile="0.5"} 846.5
cswitch_persist_latency_nanos{quantile="0.9"} 847.5
cswitch_persist_latency_nanos{quantile="0.99"} 848.5
cswitch_persist_latency_nanos{quantile="0.999"} 849.5
cswitch_profiles_discarded_total{site="q\"b\\n\n1001"} 1040
cswitch_profiles_discarded_total{site="q\"b\\n\n2001"} 2080
cswitch_profiles_published_total{site="q\"b\\n\n1001"} 1030
cswitch_profiles_published_total{site="q\"b\\n\n2001"} 2060
cswitch_record_latency_nanos_count 811
cswitch_record_latency_nanos_sum 813
cswitch_record_latency_nanos{quantile="0.5"} 816.5
cswitch_record_latency_nanos{quantile="0.9"} 817.5
cswitch_record_latency_nanos{quantile="0.99"} 818.5
cswitch_record_latency_nanos{quantile="0.999"} 819.5
cswitch_recorder_instances_sampled_total 312
cswitch_recorder_instances_skipped_total 315
cswitch_recorder_ops_dropped_total 309
cswitch_recorder_ops_recorded_total 306
cswitch_recorder_recorders_total 303
cswitch_rounds_skipped_total{site="q\"b\\n\n1001"} 1080
cswitch_rounds_skipped_total{site="q\"b\\n\n2001"} 2160
cswitch_site_evaluate_latency_nanos_count{site="q\"b\\n\n1001"} 0
cswitch_site_evaluate_latency_nanos_sum{site="q\"b\\n\n1001"} 0
cswitch_site_evaluate_latency_nanos{quantile="0.5",site="q\"b\\n\n1001"} 0
cswitch_site_evaluate_latency_nanos{quantile="0.9",site="q\"b\\n\n1001"} 0
cswitch_site_evaluate_latency_nanos{quantile="0.99",site="q\"b\\n\n1001"} 0
cswitch_site_evaluate_latency_nanos{quantile="0.999",site="q\"b\\n\n1001"} 0
cswitch_site_record_latency_nanos_count{site="q\"b\\n\n1001"} 640
cswitch_site_record_latency_nanos_sum{site="q\"b\\n\n1001"} 64000
cswitch_site_record_latency_nanos{quantile="0.5",site="q\"b\\n\n1001"} 10
cswitch_site_record_latency_nanos{quantile="0.9",site="q\"b\\n\n1001"} 10
cswitch_site_record_latency_nanos{quantile="0.99",site="q\"b\\n\n1001"} 10
cswitch_site_record_latency_nanos{quantile="0.999",site="q\"b\\n\n1001"} 10
cswitch_site_switch_latency_nanos_count{site="q\"b\\n\n1001"} 0
cswitch_site_switch_latency_nanos_sum{site="q\"b\\n\n1001"} 0
cswitch_site_switch_latency_nanos{quantile="0.5",site="q\"b\\n\n1001"} 0
cswitch_site_switch_latency_nanos{quantile="0.9",site="q\"b\\n\n1001"} 0
cswitch_site_switch_latency_nanos{quantile="0.99",site="q\"b\\n\n1001"} 0
cswitch_site_switch_latency_nanos{quantile="0.999",site="q\"b\\n\n1001"} 0
cswitch_store_info{path="q\"b\\n\n428"} 1
cswitch_store_load_failures_total 408
cswitch_store_loads_total 404
cswitch_store_persist_failures_total 424
cswitch_store_persists_total 420
cswitch_store_sites_loaded_total 412
cswitch_store_warm_starts_total 416
cswitch_switch_latency_nanos_count 831
cswitch_switch_latency_nanos_sum 833
cswitch_switch_latency_nanos{quantile="0.5"} 836.5
cswitch_switch_latency_nanos{quantile="0.9"} 837.5
cswitch_switch_latency_nanos{quantile="0.99"} 838.5
cswitch_switch_latency_nanos{quantile="0.999"} 839.5
cswitch_switches_total{site="q\"b\\n\n1001"} 1060
cswitch_switches_total{site="q\"b\\n\n2001"} 2120
cswitch_topology_cpus 802
cswitch_topology_nodes 801
)golden";

TEST(Telemetry, JsonExportMatchesGolden) {
  EXPECT_EQ(toJson(fullSnapshot()), GoldenJson);
}

TEST(Telemetry, OpenMetricsSamplesMatchGolden) {
  std::map<std::string, std::string> Actual =
      parseSamples(obs::renderOpenMetrics(fullSnapshot(), fullSites()));
  std::map<std::string, std::string> Expected = parseGolden(GoldenSamples);
  for (const auto &[Key, Value] : Expected) {
    auto It = Actual.find(Key);
    if (It == Actual.end())
      ADD_FAILURE() << "missing sample " << Key;
    else
      EXPECT_EQ(It->second, Value) << Key;
  }
  for (const auto &[Key, Value] : Actual)
    EXPECT_TRUE(Expected.count(Key)) << "unexpected sample " << Key;
}

/// Every row key of \p S appears in \p Json, and every counter row has a
/// `<Prefix><key>_total` sample.
template <typename S>
void expectRowsExported(const std::string &Prefix, const std::string &Json,
                        const std::map<std::string, std::string> &Samples) {
  S::fields([&](const char *Key, MetricKind Kind, auto, const char *) {
    EXPECT_NE(Json.find('"' + std::string(Key) + "\": "), std::string::npos)
        << Key;
    if (Kind != MetricKind::Counter)
      return;
    std::string Family = Prefix + Key + "_total";
    auto It = Samples.lower_bound(Family);
    EXPECT_TRUE(It != Samples.end() &&
                (It->first == Family || It->first.rfind(Family + '{', 0) == 0))
        << "no sample of " << Family;
  });
}

TEST(Telemetry, EveryTableRowIsExported) {
  TelemetrySnapshot S = fullSnapshot();
  std::string Json = toJson(S);
  std::map<std::string, std::string> Samples =
      parseSamples(obs::renderOpenMetrics(S, fullSites()));
  expectRowsExported<ContextStats>("cswitch_", Json, Samples);
  expectRowsExported<EngineStats>("cswitch_engine_", Json, Samples);
  expectRowsExported<EventLogStats>("cswitch_events_", Json, Samples);
  expectRowsExported<TopologyStats>("cswitch_topology_", Json, Samples);
  expectRowsExported<RecorderStats>("cswitch_recorder_", Json, Samples);
  expectRowsExported<StoreStats>("cswitch_store_", Json, Samples);
  expectRowsExported<FleetStats>("cswitch_fleet_", Json, Samples);
  expectRowsExported<ModelStats>("cswitch_model_", Json, Samples);
}

// A field without a row fails the layout check each struct asserts.
struct PartlyDescribed {
  uint64_t Rowed = 0;
  uint64_t Unrowed = 0;
  template <typename Row> static constexpr void fields(Row &&R) {
    R("rowed", MetricKind::Counter, &PartlyDescribed::Rowed, "");
  }
};
static_assert(!telemetry::describesLayout<PartlyDescribed>());

TEST(Telemetry, EveryStatsDeltaSaturatesCountersAndKeepsState) {
  EXPECT_TRUE(contextStats(1000) - contextStats(10) == contextStats(990));
  EXPECT_TRUE(contextStats(10) - contextStats(1000) == ContextStats{});

  EXPECT_TRUE(engineStats(1000) - engineStats(10) == engineStats(990));
  EXPECT_TRUE(engineStats(10) - engineStats(1000) == EngineStats{});

  EXPECT_TRUE(recorderStats(1000) - recorderStats(10) == recorderStats(990));
  EXPECT_TRUE(recorderStats(10) - recorderStats(1000) == RecorderStats{});

  EXPECT_TRUE(fleetStats(1000) - fleetStats(10) == fleetStats(990));
  EXPECT_TRUE(fleetStats(10) - fleetStats(1000) == FleetStats{});

  StoreStats Store = storeStats(990);
  Store.Path = storeStats(1000).Path;
  EXPECT_TRUE(storeStats(1000) - storeStats(10) == Store);
  StoreStats StoreFloor;
  StoreFloor.Path = storeStats(10).Path;
  EXPECT_TRUE(storeStats(10) - storeStats(1000) == StoreFloor);

  ModelStats Model = modelStats(1000);
  Model.Installs = modelStats(990).Installs;
  EXPECT_TRUE(modelStats(1000) - modelStats(10) == Model);
  ModelStats ModelFloor = modelStats(10);
  ModelFloor.Installs = 0;
  EXPECT_TRUE(modelStats(10) - modelStats(1000) == ModelFloor);

  EXPECT_TRUE(eventStats(1000) - eventStats(10) == eventStats(990));
  EXPECT_TRUE(eventStats(10) - eventStats(1000) == EventLogStats{});

  // The snapshot delta applies each struct's delta, and takes the
  // topology (static process state) from the newer side.
  TelemetrySnapshot Now = fullSnapshot();
  TelemetrySnapshot Before = fullSnapshot();
  Before.Topology.Nodes = 1;
  Before.Topology.Cpus = 2;
  Before.Engine = engineStats(1000);
  TelemetrySnapshot Delta = Now - Before;
  EXPECT_TRUE(Delta.Topology == Now.Topology);
  EXPECT_TRUE(Delta.Engine == engineStats(0));
  EXPECT_TRUE(Delta.Recorder == RecorderStats{});
  EXPECT_TRUE(Delta.Fleet == FleetStats{});
  EXPECT_EQ(Delta.Store.Path, Now.Store.Path);
  EXPECT_EQ(Delta.Model.Source, Now.Model.Source);
}

} // namespace
