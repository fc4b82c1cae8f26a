//===- OpenMetrics.cpp - OpenMetrics text rendering ----------------------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//

#include "obs/OpenMetrics.h"

#include <cmath>
#include <cstdio>

using namespace cswitch;
using namespace cswitch::obs;

namespace {

/// Shortest round-trippable decimal for a double sample value.
void appendDouble(std::string &Out, double Value) {
  char Buf[64];
  // Latencies are non-negative and usually whole nanoseconds; plain
  // decimals beat %g's exponential form for scrape readability.
  if (Value >= 0.0 && Value < 9.0e15 && Value == std::floor(Value)) {
    std::snprintf(Buf, sizeof(Buf), "%.0f", Value);
    Out += Buf;
    return;
  }
  std::snprintf(Buf, sizeof(Buf), "%.17g", Value);
  // Trim to the shortest representation that still parses back exactly.
  for (int Precision = 1; Precision < 17; ++Precision) {
    char Short[64];
    std::snprintf(Short, sizeof(Short), "%.*g", Precision, Value);
    double Parsed = 0.0;
    if (std::sscanf(Short, "%lf", &Parsed) == 1 && Parsed == Value) {
      Out += Short;
      return;
    }
  }
  Out += Buf;
}

/// Appends one sample line `Name{Labels} Value` (no label block when
/// \p Labels is empty).
template <typename T>
void sample(std::string &Out, std::string_view Name, std::string_view Labels,
            T Value) {
  Out += Name;
  if (!Labels.empty()) {
    Out += '{';
    Out += Labels;
    Out += '}';
  }
  Out += ' ';
  if constexpr (std::is_floating_point_v<T>)
    appendDouble(Out, Value);
  else
    Out += std::to_string(Value);
  Out += '\n';
}

/// The `site="..."` label of a per-site series; empty for \p Site "".
std::string siteLabel(std::string_view Site) {
  return Site.empty() ? std::string()
                      : "site=\"" + openMetricsEscape(Site) + '"';
}

void familyHeader(std::string &Out, std::string_view Name, const char *Type,
                  const char *Help) {
  Out += "# TYPE ";
  Out += Name;
  Out += ' ';
  Out += Type;
  Out += "\n# HELP ";
  Out += Name;
  Out += ' ';
  Out += Help;
  Out += '\n';
}

/// Emits one summary family: quantile samples plus _count/_sum, with an
/// optional site label. Families with zero observations still emit
/// _count/_sum so scrapes see a stable series set.
void summaryFamily(std::string &Out, const char *Name, const char *Help,
                   const std::vector<std::pair<std::string_view,
                                               const LatencyStats *>> &Rows) {
  familyHeader(Out, Name, "summary", Help);
  static constexpr struct {
    const char *Label;
    double LatencyStats::*Field;
  } Quantiles[] = {{"0.5", &LatencyStats::P50},
                   {"0.9", &LatencyStats::P90},
                   {"0.99", &LatencyStats::P99},
                   {"0.999", &LatencyStats::P999}};
  for (const auto &[Site, Stats] : Rows) {
    std::string Labels = siteLabel(Site);
    std::string Prefix = Labels.empty() ? "" : Labels + ",";
    for (const auto &Q : Quantiles)
      sample(Out, Name, Prefix + "quantile=\"" + Q.Label + '"',
             Stats->*(Q.Field));
    sample(Out, std::string(Name) + "_count", Labels, Stats->Count);
    sample(Out, std::string(Name) + "_sum", Labels, Stats->SumNanos);
  }
}

/// Emits one family per Counter/Gauge row of \p S: `<Prefix><key>`,
/// counters with the `_total` suffix, one sample per entry of \p Rows
/// (a site label plus the stats it reads; an empty site for the single
/// engine-wide sample).
template <typename S>
void scalarFamilies(
    std::string &Out, std::string_view Prefix,
    const std::vector<std::pair<std::string_view, const S *>> &Rows) {
  S::fields([&](const char *Key, MetricKind Kind, auto Member,
                const char *Help) {
    if constexpr (telemetry::IsIntegerField<decltype(Member)>) {
      if (!telemetry::isAggregated(Kind))
        return;
      bool Counter = Kind == MetricKind::Counter;
      std::string Name(Prefix);
      Name += Key;
      familyHeader(Out, Name, Counter ? "counter" : "gauge", Help);
      if (Counter)
        Name += "_total";
      for (const auto &[Site, Stats] : Rows)
        sample(Out, Name, siteLabel(Site), Stats->*Member);
    }
  });
}

/// The families of one engine-wide snapshot section.
template <typename S>
void sectionFamilies(std::string &Out, std::string_view Prefix,
                     const S &Stats) {
  scalarFamilies<S>(Out, Prefix, {{std::string_view(), &Stats}});
}

/// An info label's value: strings escaped, doubles round-trippable.
std::string labelValue(const std::string &Value) {
  return openMetricsEscape(Value);
}
std::string labelValue(uint64_t Value) { return std::to_string(Value); }
std::string labelValue(double Value) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.17g", Value);
  return Buf;
}

/// Prometheus info-metric style: `Name{...} 1`, one label per Info row
/// of \p Stats, in row order.
template <typename S>
void infoFamily(std::string &Out, const char *Name, const char *Help,
                const S &Stats) {
  familyHeader(Out, Name, "gauge", Help);
  std::string Labels;
  S::fields([&](const char *Key, MetricKind Kind, auto Member, const char *) {
    if (Kind != MetricKind::Info)
      return;
    Labels += Labels.empty() ? "" : ",";
    Labels += Key;
    Labels += "=\"" + labelValue(Stats.*Member) + '"';
  });
  sample(Out, Name, Labels, 1);
}

} // namespace

std::string cswitch::obs::openMetricsEscape(std::string_view Text) {
  std::string Out;
  Out.reserve(Text.size());
  for (char C : Text) {
    switch (C) {
    case '\\':
      Out += "\\\\";
      break;
    case '"':
      Out += "\\\"";
      break;
    case '\n':
      Out += "\\n";
      break;
    default:
      Out += C;
    }
  }
  return Out;
}

std::string
cswitch::obs::renderOpenMetrics(const TelemetrySnapshot &Snapshot,
                                const std::vector<SiteHistogramSnapshot> &Sites) {
  std::string Out;
  Out.reserve(4096);

  // Engine-wide gauges and counters.
  familyHeader(Out, "cswitch_contexts", "gauge",
               "Allocation contexts currently registered with the engine.");
  sample(Out, "cswitch_contexts", {}, Snapshot.Engine.Contexts);

  // The engine section renders its ContextStats rows: its Contexts row
  // is the cswitch_contexts family above.
  sectionFamilies<ContextStats>(Out, "cswitch_engine_", Snapshot.Engine);
  sectionFamilies(Out, "cswitch_events_", Snapshot.Events);
  sectionFamilies(Out, "cswitch_recorder_", Snapshot.Recorder);
  sectionFamilies(Out, "cswitch_store_", Snapshot.Store);
  sectionFamilies(Out, "cswitch_fleet_", Snapshot.Fleet);
  sectionFamilies(Out, "cswitch_tuning_", Snapshot.Tuning);
  sectionFamilies(Out, "cswitch_model_", Snapshot.Model);
  // The host the process runs on, so dashboards can relate the series
  // to the machine.
  sectionFamilies(Out, "cswitch_topology_", Snapshot.Topology);

  // Provenance of the applied tuned configuration. Emitted only once an
  // artifact has been applied.
  if (Snapshot.Tuning.Loads > 0)
    infoFamily(Out, "cswitch_tuning_info",
               "Provenance of the applied cswitch-tuning-v2 artifact.",
               Snapshot.Tuning);
  // Provenance of the cost model driving selection (DESIGN.md §14):
  // which artifact the decisions trace back to. Emitted once any model
  // has been installed — including the shipped default ("<builtin>").
  if (Snapshot.Model.Installs > 0)
    infoFamily(Out, "cswitch_model_info",
               "Provenance of the installed performance model.",
               Snapshot.Model);
  // Identity of the attached selection store, for the same reason:
  // warm-start decisions in the explain ledger cite it.
  if (!Snapshot.Store.Path.empty())
    infoFamily(Out, "cswitch_store_info",
               "Identity of the attached selection store.", Snapshot.Store);

  // Per-context monitoring counters, labelled by site.
  std::vector<std::pair<std::string_view, const ContextStats *>> SiteRows;
  SiteRows.reserve(Snapshot.Contexts.size());
  for (const auto &Ctx : Snapshot.Contexts)
    SiteRows.emplace_back(Ctx.Name, &Ctx.Stats);
  scalarFamilies(Out, "cswitch_", SiteRows);

  familyHeader(Out, "cswitch_context_footprint_bytes", "gauge",
               "Approximate memory footprint of this site's context.");
  for (const auto &Ctx : Snapshot.Contexts)
    sample(Out, "cswitch_context_footprint_bytes", siteLabel(Ctx.Name),
           Ctx.FootprintBytes);

  familyHeader(Out, "cswitch_context_contended_threads", "gauge",
               "Smoothed estimate of distinct threads operating on this "
               "site's collections (0 = sequential context).");
  for (const auto &Ctx : Snapshot.Contexts)
    sample(Out, "cswitch_context_contended_threads", siteLabel(Ctx.Name),
           Ctx.ContendedThreads);

  familyHeader(Out, "cswitch_context_variant_info", "gauge",
               "Current variant of this site (value is always 1).");
  for (const auto &Ctx : Snapshot.Contexts)
    sample(Out, "cswitch_context_variant_info",
           siteLabel(Ctx.Name) + ",abstraction=\"" +
               openMetricsEscape(Ctx.Abstraction) + "\",variant=\"" +
               openMetricsEscape(Ctx.Variant) + '"',
           1);

  // Engine-wide latency summaries.
  summaryFamily(Out, "cswitch_record_latency_nanos",
                "Monitoring fast-path latency, all sites merged (sampled "
                "1-in-64).",
                {{std::string_view(), &Snapshot.Latency.Record}});
  summaryFamily(Out, "cswitch_evaluate_latency_nanos",
                "Window-evaluation latency, all sites merged.",
                {{std::string_view(), &Snapshot.Latency.Evaluate}});
  summaryFamily(Out, "cswitch_switch_latency_nanos",
                "Variant-transition latency, all sites merged.",
                {{std::string_view(), &Snapshot.Latency.Switch}});
  summaryFamily(Out, "cswitch_persist_latency_nanos",
                "Selection-store persist latency.",
                {{std::string_view(), &Snapshot.Latency.Persist}});

  // Per-site latency summaries from the profiling sweep. Distill each
  // histogram once, keep the stats alive for the row span.
  std::vector<LatencyStats> SiteStats;
  SiteStats.reserve(Sites.size() * 3);
  std::vector<std::pair<std::string_view, const LatencyStats *>> RecordRows,
      EvaluateRows, SwitchRows;
  for (const auto &Site : Sites) {
    SiteStats.push_back(Site.Record.stats());
    RecordRows.emplace_back(Site.Name, &SiteStats.back());
    SiteStats.push_back(Site.Evaluate.stats());
    EvaluateRows.emplace_back(Site.Name, &SiteStats.back());
    SiteStats.push_back(Site.Switch.stats());
    SwitchRows.emplace_back(Site.Name, &SiteStats.back());
  }
  summaryFamily(Out, "cswitch_site_record_latency_nanos",
                "Monitoring fast-path latency per site (sampled 1-in-64).",
                RecordRows);
  summaryFamily(Out, "cswitch_site_evaluate_latency_nanos",
                "Window-evaluation latency per site.", EvaluateRows);
  summaryFamily(Out, "cswitch_site_switch_latency_nanos",
                "Variant-transition latency per site.", SwitchRows);

  Out += "# EOF\n";
  return Out;
}

std::string cswitch::obs::renderOpenMetrics(const TelemetrySnapshot &Snapshot) {
  return renderOpenMetrics(Snapshot,
                           ProfilingRegistry::global().snapshotSites());
}
