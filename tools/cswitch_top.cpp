//===- cswitch_top.cpp - Live metrics watcher & timeline exporter ---------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
//
// Companion CLI of the Switch::serveMetrics endpoint:
//
//   cswitch_top watch  [--url http://127.0.0.1:9100] [--interval SEC]
//                      [--once]
//       Polls /metrics and renders a top-style table: one row per
//       allocation site with its monitoring counters and record/evaluate
//       p99 latencies, plus the engine totals. --interval takes seconds
//       in [0.1, 86400] (smaller values poll every 0.1 s; a value that
//       is not a finite number, or is larger, exits 2). --once prints a
//       single sample and exits (what the CI smoke test drives).
//
//   cswitch_top export --perfetto [--url ...] [--out trace.json]
//       Fetches /trace.json (the Perfetto decision timeline: EventLog
//       events + per-site latency counters on one clock) and writes it
//       to --out (default cswitch_trace.json; `-` for stdout). Load the
//       file in ui.perfetto.dev or chrome://tracing.
//
// Requests go through the obs HTTP client (obs/MetricsHttp.h): a peer
// that accepts and never answers costs bounded timeouts, not a hang.
//
//===----------------------------------------------------------------------===//

#include "obs/MetricsHttp.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

using namespace cswitch;

namespace {

/// Longest --interval accepted, in seconds (one day).
constexpr double MaxIntervalSec = 86400;

/// GETs \p Path from the endpoint at \p Url through the obs client
/// (timeouts, bounded retries, a response cap far above any real
/// document); fills \p Body with a 200 answer's body, or says why not.
bool fetch(std::string Url, const char *Path, std::string &Body) {
  while (!Url.empty() && Url.back() == '/')
    Url.pop_back();
  obs::HttpResponse Response;
  std::string Error;
  if (obs::httpGet(Url + Path, Response,
                   obs::HttpOptions().maxResponseBytes(64u << 20), &Error) &&
      Response.Status != 200)
    Error = Path + (" answered HTTP " + std::to_string(Response.Status));
  if (!Error.empty()) {
    std::fprintf(stderr, "cswitch_top: %s\n", Error.c_str());
    return false;
  }
  Body = std::move(Response.Body);
  return true;
}

//===----------------------------------------------------------------------===//
// OpenMetrics line parsing (just enough for the exposition we render)
//===----------------------------------------------------------------------===//

struct SiteRow {
  double Created = 0;
  double Switches = 0;
  double RecordP99 = 0;
  double EvaluateP99 = 0;
  std::string Variant;
};

struct MetricsSample {
  double Contexts = 0;
  double InstancesCreated = 0;
  double Evaluations = 0;
  double Switches = 0;
  double RecordP99 = 0;
  double EvaluateP99 = 0;
  double TopologyNodes = 1;
  double EventsDropped = 0;
  // Provenance of the decision inputs (info-metric labels): which
  // model and store the decisions trace back to.
  std::string ModelSource;
  std::string StorePath;
  std::map<std::string, SiteRow> Sites;
};

/// Extracts the value of \p Label from an OpenMetrics label block,
/// un-escaping \" \\ and \n.
bool labelValue(const std::string &Labels, const std::string &Label,
                std::string &Out) {
  size_t Pos = 0;
  std::string Needle = Label + "=\"";
  for (;;) {
    Pos = Labels.find(Needle, Pos);
    if (Pos == std::string::npos)
      return false;
    // Match whole label names only (avoid `site` matching `website`).
    if (Pos != 0 && Labels[Pos - 1] != ',' && Labels[Pos - 1] != '{') {
      Pos += Needle.size();
      continue;
    }
    break;
  }
  Out.clear();
  for (size_t I = Pos + Needle.size(); I < Labels.size(); ++I) {
    char C = Labels[I];
    if (C == '\\' && I + 1 < Labels.size()) {
      char E = Labels[++I];
      Out += E == 'n' ? '\n' : E;
    } else if (C == '"') {
      return true;
    } else {
      Out += C;
    }
  }
  return false;
}

/// Parses one exposition line: name, label block (may be empty), value.
bool parseSampleLine(const std::string &Line, std::string &Name,
                     std::string &Labels, double &Value) {
  if (Line.empty() || Line[0] == '#')
    return false;
  size_t NameEnd = Line.find_first_of("{ ");
  if (NameEnd == std::string::npos)
    return false;
  Name = Line.substr(0, NameEnd);
  size_t ValueStart;
  if (Line[NameEnd] == '{') {
    size_t Close = Line.find('}', NameEnd);
    if (Close == std::string::npos)
      return false;
    Labels = Line.substr(NameEnd, Close - NameEnd + 1);
    ValueStart = Close + 1;
  } else {
    Labels.clear();
    ValueStart = NameEnd;
  }
  return std::sscanf(Line.c_str() + ValueStart, " %lf", &Value) == 1;
}

MetricsSample parseMetrics(const std::string &Text) {
  MetricsSample Sample;
  size_t Pos = 0;
  while (Pos < Text.size()) {
    size_t End = Text.find('\n', Pos);
    if (End == std::string::npos)
      End = Text.size();
    std::string Line = Text.substr(Pos, End - Pos);
    Pos = End + 1;

    std::string Name, Labels, Site;
    double Value = 0;
    if (!parseSampleLine(Line, Name, Labels, Value))
      continue;
    bool P99 = Labels.find("quantile=\"0.99\"") != std::string::npos;
    if (Name == "cswitch_contexts")
      Sample.Contexts = Value;
    else if (Name == "cswitch_engine_instances_created_total")
      Sample.InstancesCreated = Value;
    else if (Name == "cswitch_engine_evaluations_total")
      Sample.Evaluations = Value;
    else if (Name == "cswitch_engine_switches_total")
      Sample.Switches = Value;
    else if (Name == "cswitch_record_latency_nanos" && P99)
      Sample.RecordP99 = Value;
    else if (Name == "cswitch_evaluate_latency_nanos" && P99)
      Sample.EvaluateP99 = Value;
    else if (Name == "cswitch_topology_nodes")
      Sample.TopologyNodes = Value;
    else if (Name == "cswitch_events_dropped_total")
      Sample.EventsDropped = Value;
    else if (Name == "cswitch_model_info") {
      labelValue(Labels, "source", Sample.ModelSource);
    } else if (Name == "cswitch_store_info") {
      labelValue(Labels, "path", Sample.StorePath);
    } else if (labelValue(Labels, "site", Site)) {
      SiteRow &Row = Sample.Sites[Site];
      if (Name == "cswitch_instances_created_total")
        Row.Created = Value;
      else if (Name == "cswitch_switches_total")
        Row.Switches = Value;
      else if (Name == "cswitch_site_record_latency_nanos" && P99)
        Row.RecordP99 = Value;
      else if (Name == "cswitch_site_evaluate_latency_nanos" && P99)
        Row.EvaluateP99 = Value;
      else if (Name == "cswitch_context_variant_info")
        labelValue(Labels, "variant", Row.Variant);
    }
  }
  return Sample;
}

void renderSample(const MetricsSample &Sample, const std::string &Url) {
  std::printf("cswitch_top — %s\n", Url.c_str());
  // Provenance line: which artifacts the selection decisions trace back
  // to (absent sections mean the target has not loaded that input).
  if (!Sample.ModelSource.empty() || !Sample.StorePath.empty()) {
    std::printf("provenance:");
    if (!Sample.ModelSource.empty())
      std::printf("   model %s", Sample.ModelSource.c_str());
    if (!Sample.StorePath.empty())
      std::printf("   store %s", Sample.StorePath.c_str());
    std::printf("\n");
  }
  std::printf("contexts %.0f   instances %.0f   evaluations %.0f   "
              "switches %.0f   p99 record %.0f ns   p99 evaluate %.0f ns\n",
              Sample.Contexts, Sample.InstancesCreated, Sample.Evaluations,
              Sample.Switches, Sample.RecordP99, Sample.EvaluateP99);
  std::printf("nodes %.0f   events dropped %.0f\n\n", Sample.TopologyNodes,
              Sample.EventsDropped);
  std::printf("%-32s %-20s %12s %9s %14s %14s\n", "SITE", "VARIANT",
              "INSTANCES", "SWITCHES", "REC P99(ns)", "EVAL P99(ns)");
  for (const auto &[Site, Row] : Sample.Sites)
    std::printf("%-32.32s %-20.20s %12.0f %9.0f %14.0f %14.0f\n",
                Site.c_str(), Row.Variant.c_str(), Row.Created, Row.Switches,
                Row.RecordP99, Row.EvaluateP99);
  std::fflush(stdout);
}

int runWatch(const std::string &Url, double IntervalSec, bool Once) {
  for (;;) {
    std::string Body;
    if (!fetch(Url, "/metrics", Body))
      return 1;
    if (!Once)
      std::printf("\033[H\033[2J"); // clear screen between samples
    renderSample(parseMetrics(Body), Url);
    if (Once)
      return 0;
    std::this_thread::sleep_for(
        std::chrono::milliseconds(static_cast<long>(IntervalSec * 1000)));
  }
}

int runExport(const std::string &Url, const std::string &OutPath) {
  std::string Trace;
  if (!fetch(Url, "/trace.json", Trace))
    return 1;
  if (OutPath == "-") {
    std::fwrite(Trace.data(), 1, Trace.size(), stdout);
    return 0;
  }
  std::FILE *F = std::fopen(OutPath.c_str(), "w");
  if (!F) {
    std::fprintf(stderr, "cswitch_top: cannot write %s\n", OutPath.c_str());
    return 1;
  }
  size_t Written = std::fwrite(Trace.data(), 1, Trace.size(), F);
  bool Ok = std::fclose(F) == 0 && Written == Trace.size();
  if (!Ok) {
    std::fprintf(stderr, "cswitch_top: short write to %s\n", OutPath.c_str());
    return 1;
  }
  std::fprintf(stderr, "wrote %zu bytes to %s — open in ui.perfetto.dev\n",
               Trace.size(), OutPath.c_str());
  return 0;
}

/// Reads a --interval value: the whole argument must be a finite number
/// of seconds no larger than a day, so the millisecond cast in runWatch
/// is defined and a typo such as `5x` is refused, not read as 5.
bool parseInterval(const char *Text, double &Out) {
  char *End = nullptr;
  double Value = std::strtod(Text, &End);
  if (End == Text || *End != '\0' || !std::isfinite(Value) ||
      Value > MaxIntervalSec)
    return false;
  Out = Value;
  return true;
}

int usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  cswitch_top watch  [--url http://127.0.0.1:9100]"
      " [--interval SEC] [--once]\n"
      "  cswitch_top export --perfetto [--url http://127.0.0.1:9100]"
      " [--out trace.json]\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    return usage();
  std::string Mode = Argv[1];
  std::string Url = "http://127.0.0.1:9100";
  std::string OutPath = "cswitch_trace.json";
  double IntervalSec = 2.0;
  bool Once = false;
  bool Perfetto = false;
  for (int I = 2; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--url" && I + 1 < Argc)
      Url = Argv[++I];
    else if (Arg == "--interval" && I + 1 < Argc) {
      if (!parseInterval(Argv[++I], IntervalSec))
        return usage();
    } else if (Arg == "--out" && I + 1 < Argc)
      OutPath = Argv[++I];
    else if (Arg == "--once")
      Once = true;
    else if (Arg == "--perfetto")
      Perfetto = true;
    else
      return usage();
  }
  if (Mode == "watch")
    return runWatch(Url, IntervalSec < 0.1 ? 0.1 : IntervalSec, Once);
  if (Mode == "export") {
    if (!Perfetto)
      return usage();
    return runExport(Url, OutPath);
  }
  return usage();
}
