//===- Report.cpp - Metrics, statistics and spans of the benchmark --------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//

#include "Report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

using namespace cswitch::suite;

const std::vector<std::pair<const char *, const char *>>
    cswitch::suite::EndToEndMetrics = {
        {"setup_s", "s"},
        {"batch_ms", "ms"},
        {"batch_p90_ms", "ms"},
        {"gain_vs_original", "ratio"},
        {"peak_rss_mb", "MB"},
};

const std::vector<std::pair<const char *, const char *>>
    cswitch::suite::PerLayerMetrics = {
        {"collections.variant_ns", "ns"},
        {"collections.variant_read_ns", "ns"},
        {"collections.variant_write_ns", "ns"},
        {"collections.dispatch_ns", "ns"},
        {"collections.facade_ns", "ns"},
        {"core.monitor_ns", "ns"},
        {"obs.histogram_ns", "ns"},
        {"profile.shared_ns", "ns"},
        {"replay.record_ns", "ns"},
        {"obs.explain_ns", "ns"},
        {"core.create_ns", "ns"},
        {"core.destroy_ns", "ns"},
        {"core.evaluate_us", "us"},
        {"core.evaluate_p99_us", "us"},
        {"obs.explain_evaluate_us", "us"},
        {"model.rank_ns", "ns"},
        {"core.evaluations", "count"},
        {"core.switches", "count"},
        {"core.publish_ratio", "ratio"},
        {"replay.drop_ratio", "ratio"},
        {"trace.overhead", "ratio"},
};

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

double cswitch::suite::quantile(std::vector<double> Values, double Q) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  double Pos = Q * static_cast<double>(Values.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, Values.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return Values[Lo] + (Values[Hi] - Values[Lo]) * Frac;
}

double cswitch::suite::interquartileMean(std::vector<double> Values) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  size_t Lo = Values.size() / 4;
  size_t Hi = Values.size() - Lo;
  double Sum = 0.0;
  for (size_t I = Lo; I != Hi; ++I)
    Sum += Values[I];
  return Sum / static_cast<double>(Hi - Lo);
}

double cswitch::suite::geomean(const std::vector<double> &Values) {
  if (Values.empty())
    return 0.0;
  double LogSum = 0.0;
  for (double V : Values)
    LogSum += std::log(V);
  return std::exp(LogSum / static_cast<double>(Values.size()));
}

double cswitch::suite::uncontendedMs(
    const std::vector<std::vector<double>> &MsByInput) {
  std::vector<double> Low;
  for (const std::vector<double> &Input : MsByInput)
    if (!Input.empty())
      Low.push_back(quantile(Input, 0.1));
  return geomean(Low);
}

std::vector<double> cswitch::suite::relativeToMedian(std::vector<double> Values) {
  double Median = median(Values);
  for (double &V : Values)
    V /= Median;
  return Values;
}

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

SpanLog::SpanLog(size_t Capacity) : Capacity(Capacity) {
  Spans.reserve(Capacity);
}

uint32_t SpanLog::begin(const char *Name) {
  uint64_t Now = nowNanos();
  if (Spans.size() == Capacity) {
    ++Dropped;
    Stack.push_back(0);
    return 0;
  }
  uint32_t Parent = 0;
  for (auto It = Stack.rbegin(); It != Stack.rend() && !Parent; ++It)
    Parent = *It;
  Spans.push_back({Name, Now, Now, Parent});
  auto Id = static_cast<uint32_t>(Spans.size());
  Stack.push_back(Id);
  return Id;
}

void SpanLog::end(uint32_t Id) {
  uint64_t Now = nowNanos();
  if (!Stack.empty())
    Stack.pop_back();
  if (Id)
    Spans[Id - 1].End = Now;
}

std::vector<double> SpanLog::durations(const char *Name, size_t From) const {
  std::vector<double> Out;
  for (size_t I = From; I < Spans.size(); ++I)
    if (std::strcmp(Spans[I].Name, Name) == 0)
      Out.push_back(static_cast<double>(Spans[I].End - Spans[I].Start));
  return Out;
}

std::map<std::string, SpanLog::Totals> SpanLog::selfTimes() const {
  std::vector<double> ChildNs(Spans.size(), 0.0);
  for (const Span &S : Spans)
    if (S.Parent)
      ChildNs[S.Parent - 1] += static_cast<double>(S.End - S.Start);
  std::map<std::string, Totals> Out;
  for (size_t I = 0; I != Spans.size(); ++I) {
    Totals &T = Out[Spans[I].Name];
    double Duration = static_cast<double>(Spans[I].End - Spans[I].Start);
    ++T.Count;
    T.TotalNs += Duration;
    T.SelfNs += Duration - ChildNs[I];
  }
  return Out;
}

bool cswitch::suite::writeChromeTrace(
    const std::string &Path, const std::vector<const SpanLog *> &Logs) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  uint64_t Epoch = UINT64_MAX, Dropped = 0;
  for (const SpanLog *Log : Logs) {
    if (!Log->spans().empty())
      Epoch = std::min(Epoch, Log->spans().front().Start);
    Dropped += Log->dropped();
  }
  std::fprintf(F, "{\"displayTimeUnit\":\"ns\",\"otherData\":"
                  "{\"dropped_spans\":%llu},\"traceEvents\":[",
               static_cast<unsigned long long>(Dropped));
  const char *Separator = "\n";
  for (size_t Tid = 0; Tid != Logs.size(); ++Tid) {
    const std::vector<Span> &Spans = Logs[Tid]->spans();
    for (size_t I = 0; I != Spans.size(); ++I) {
      const Span &S = Spans[I];
      std::fprintf(F,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%zu,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%u}}",
                   Separator, S.Name, Tid + 1, (S.Start - Epoch) / 1e3,
                   (S.End - S.Start) / 1e3, I + 1, S.Parent);
      Separator = ",\n";
    }
  }
  std::fprintf(F, "\n]}\n");
  return std::fclose(F) == 0;
}

//===----------------------------------------------------------------------===//
// Report
//===----------------------------------------------------------------------===//

std::string cswitch::suite::jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
    } else {
      Out += C;
    }
  }
  return Out + "\"";
}

std::string cswitch::suite::jsonNumber(double V) {
  if (!std::isfinite(V))
    return "null";
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

void Report::metric(const std::string &Name, double Value, const char *Unit) {
  Metrics.push_back({Name, Value, Unit});
}

void Report::extra(const std::string &Name, double Value, const char *Unit) {
  Extras.push_back({Name, Value, Unit});
}

void Report::note(const std::string &Key, const std::string &Value) {
  Notes.emplace_back(Key, Value);
}

void Report::checks(uint64_t N, uint64_t Bad, const char *What) {
  Attempted += N;
  if (Bad && Failed < 10)
    std::fprintf(stderr, "check failed (%llu of %llu): %s\n",
                 static_cast<unsigned long long>(Bad),
                 static_cast<unsigned long long>(N), What);
  Failed += Bad;
}

const Metric *Report::find(const std::string &Name) const {
  for (const Metric &M : Metrics)
    if (M.Name == Name)
      return &M;
  return nullptr;
}

std::vector<std::string> Report::missing(
    const std::vector<std::pair<const char *, const char *>> &Expected) const {
  std::vector<std::string> Out;
  for (const auto &[Name, Unit] : Expected) {
    const Metric *M = find(Name);
    if (!M || M->Unit != Unit)
      Out.push_back(Name);
  }
  return Out;
}

void Report::printLines() const {
  for (const Metric &M : Metrics)
    std::printf("%s %.6g %s\n", M.Name.c_str(), M.Value, M.Unit.c_str());
  for (const Metric &M : Extras)
    std::printf("%s %.6g %s\n", M.Name.c_str(), M.Value, M.Unit.c_str());
  for (const auto &[Key, Value] : Notes)
    std::printf("# %s: %s\n", Key.c_str(), Value.c_str());
}

std::string Report::resultLine(
    const std::vector<std::pair<const char *, const char *>> &Names) const {
  std::string Out = "{\"correct\": ";
  Out += Failed == 0 && Attempted > 0 ? "true" : "false";
  Out += ", \"attempted\": " + std::to_string(Attempted);
  Out += ", \"failed\": " + std::to_string(Failed);
  Out += ", \"metrics\": {";
  bool First = true;
  for (const auto &[Name, Unit] : Names) {
    const Metric *M = find(Name);
    if (!M)
      continue;
    Out += First ? "" : ", ";
    First = false;
    Out += jsonString(M->Name) + ": {\"value\": " + jsonNumber(M->Value) +
           ", \"unit\": " + jsonString(M->Unit) + "}";
  }
  return Out + "}}";
}

std::string
Report::envelope(const std::map<std::string, std::string> &Header) const {
  auto Section = [](const std::vector<Metric> &List) {
    std::string Out = "{";
    for (size_t I = 0; I != List.size(); ++I)
      Out += std::string(I ? ", " : "") + "\n    " +
             jsonString(List[I].Name) + ": {\"value\": " +
             jsonNumber(List[I].Value) +
             ", \"unit\": " + jsonString(List[I].Unit) + "}";
    return Out + "}";
  };
  std::string Out = "{\n  \"schema\": \"cswitch-benchmark-v1\"";
  for (const auto &[Key, Value] : Header)
    Out += ",\n  " + jsonString(Key) + ": " + Value;
  Out += ",\n  \"correct\": ";
  Out += Failed == 0 && Attempted > 0 ? "true" : "false";
  Out += ",\n  \"attempted\": " + std::to_string(Attempted);
  Out += ",\n  \"failed\": " + std::to_string(Failed);
  Out += ",\n  \"metrics\": " + Section(Metrics);
  Out += ",\n  \"extras\": " + Section(Extras);
  Out += ",\n  \"notes\": {";
  for (size_t I = 0; I != Notes.size(); ++I)
    Out += std::string(I ? ", " : "") + "\n    " +
           jsonString(Notes[I].first) + ": " + jsonString(Notes[I].second);
  return Out + "}\n}\n";
}
