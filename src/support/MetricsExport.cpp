//===- MetricsExport.cpp - Telemetry serialization -----------------------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//

#include "support/MetricsExport.h"

#include <cstdio>

using namespace cswitch;

namespace {

/// Length of the valid UTF-8 sequence starting at \p I of \p Text, or 0
/// when the bytes there are not well-formed UTF-8 (lone continuation
/// byte, truncated sequence, overlong encoding, surrogate, > U+10FFFF).
size_t utf8SequenceLength(std::string_view Text, size_t I) {
  auto Byte = [&](size_t Off) {
    return static_cast<unsigned char>(Text[I + Off]);
  };
  unsigned char Lead = Byte(0);
  size_t Len;
  if (Lead < 0x80)
    return 1;
  else if ((Lead & 0xe0) == 0xc0)
    Len = 2;
  else if ((Lead & 0xf0) == 0xe0)
    Len = 3;
  else if ((Lead & 0xf8) == 0xf0)
    Len = 4;
  else
    return 0; // Continuation byte or 0xf8..0xff lead: invalid.
  if (I + Len > Text.size())
    return 0; // Truncated sequence.
  for (size_t Off = 1; Off != Len; ++Off)
    if ((Byte(Off) & 0xc0) != 0x80)
      return 0;
  // Reject overlong encodings, UTF-16 surrogates and values beyond
  // U+10FFFF — all of which real JSON parsers refuse.
  if (Len == 2 && Lead < 0xc2)
    return 0;
  if (Len == 3 && Lead == 0xe0 && Byte(1) < 0xa0)
    return 0;
  if (Len == 3 && Lead == 0xed && Byte(1) >= 0xa0)
    return 0;
  if (Len == 4 && (Lead == 0xf0 ? Byte(1) < 0x90
                                : Lead == 0xf4 ? Byte(1) >= 0x90
                                               : Lead > 0xf4))
    return 0;
  return Len;
}

} // namespace

std::string cswitch::jsonEscape(std::string_view Text) {
  std::string Out;
  Out.reserve(Text.size());
  for (size_t I = 0; I < Text.size();) {
    char C = Text[I];
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\b':
      Out += "\\b";
      break;
    case '\f':
      Out += "\\f";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x",
                      static_cast<unsigned>(static_cast<unsigned char>(C)));
        Out += Buf;
      } else if (static_cast<unsigned char>(C) >= 0x80) {
        // Site names come from arbitrary application strings; passing
        // non-UTF-8 bytes through raw would make the whole document
        // unparseable. Valid multi-byte sequences are copied verbatim,
        // anything else becomes U+FFFD.
        size_t Len = utf8SequenceLength(Text, I);
        if (Len == 0) {
          Out += "\\ufffd";
          ++I;
        } else {
          Out.append(Text.substr(I, Len));
          I += Len;
        }
        continue;
      } else {
        Out += C;
      }
    }
    ++I;
  }
  return Out;
}

namespace {

/// Formats a double compactly ("%.6g": integers stay integral, the
/// contention estimate keeps enough digits to see EWMA movement).
std::string formatDouble(double Value) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.6g", Value);
  return Buf;
}

/// One row value: strings quoted and escaped, doubles compact.
template <typename T> void appendValue(std::string &Out, const T &Value) {
  if constexpr (std::is_same_v<T, std::string>)
    Out += '"' + jsonEscape(Value) + '"';
  else if constexpr (std::is_floating_point_v<T>)
    Out += formatDouble(Value);
  else
    Out += std::to_string(Value);
}

/// Appends `"key": value` for every row of \p Stats's table, in row
/// order, comma-separated.
template <typename S> void appendFields(std::string &Out, const S &Stats) {
  const char *Separator = "";
  S::fields([&](const char *Key, MetricKind, auto Member, const char *) {
    Out += Separator;
    Out += '"';
    Out += Key;
    Out += "\": ";
    appendValue(Out, Stats.*Member);
    Separator = ", ";
  });
}

/// Appends one `  "name": {rows},` section line.
template <typename S>
void appendSection(std::string &Out, const char *Name, const S &Stats) {
  Out += "  \"";
  Out += Name;
  Out += "\": {";
  appendFields(Out, Stats);
  Out += "},\n";
}

/// Appends one LatencyStats object: counts, extrema, quantiles (all
/// nanoseconds; quantiles with one decimal, which is already below the
/// histogram bucket resolution).
void appendLatencyStats(std::string &Out, const char *Key,
                        const LatencyStats &S) {
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf),
                "\"%s\": {\"count\": %llu, \"saturated\": %llu, "
                "\"sum_nanos\": %llu, \"min_nanos\": %llu, "
                "\"max_nanos\": %llu, \"p50\": %.1f, \"p90\": %.1f, "
                "\"p99\": %.1f, \"p999\": %.1f}",
                Key, static_cast<unsigned long long>(S.Count),
                static_cast<unsigned long long>(S.Saturated),
                static_cast<unsigned long long>(S.SumNanos),
                static_cast<unsigned long long>(S.MinNanos),
                static_cast<unsigned long long>(S.MaxNanos), S.P50, S.P90,
                S.P99, S.P999);
  Out += Buf;
}

void appendSiteLatencies(std::string &Out, const SiteLatencies &L) {
  Out += "\"latency\": {";
  appendLatencyStats(Out, "record", L.Record);
  Out += ", ";
  appendLatencyStats(Out, "evaluate", L.Evaluate);
  Out += ", ";
  appendLatencyStats(Out, "switch", L.Switch);
  Out += "}";
}

} // namespace

std::string cswitch::toJson(const TelemetrySnapshot &Snapshot) {
  std::string Out;
  Out += "{\n  \"schema\": \"cswitch-telemetry-v1\",\n";
  appendSection(Out, "engine", Snapshot.Engine);
  // Additive in cswitch-telemetry-v1: the host the snapshot was taken
  // on.
  appendSection(Out, "topology", Snapshot.Topology);
  Out += "  \"latency\": {";
  appendLatencyStats(Out, "record", Snapshot.Latency.Record);
  Out += ", ";
  appendLatencyStats(Out, "evaluate", Snapshot.Latency.Evaluate);
  Out += ", ";
  appendLatencyStats(Out, "switch", Snapshot.Latency.Switch);
  Out += ", ";
  appendLatencyStats(Out, "persist", Snapshot.Latency.Persist);
  Out += "},\n";
  appendSection(Out, "events", Snapshot.Events);
  appendSection(Out, "recorder", Snapshot.Recorder);
  appendSection(Out, "store", Snapshot.Store);
  appendSection(Out, "fleet", Snapshot.Fleet);
  appendSection(Out, "model", Snapshot.Model);
  Out += "  \"contexts\": [";
  for (size_t I = 0; I != Snapshot.Contexts.size(); ++I) {
    const ContextSnapshot &C = Snapshot.Contexts[I];
    Out += I ? ",\n    " : "\n    ";
    Out += "{\"name\": \"" + jsonEscape(C.Name) + "\", ";
    Out += "\"abstraction\": \"" + jsonEscape(C.Abstraction) + "\", ";
    Out += "\"variant\": \"" + jsonEscape(C.Variant) + "\", ";
    appendFields(Out, C.Stats);
    Out += ", \"footprint_bytes\": " + std::to_string(C.FootprintBytes);
    Out += ", \"contended_threads\": " + formatDouble(C.ContendedThreads);
    Out += ", ";
    appendSiteLatencies(Out, C.Latency);
    Out += "}";
  }
  Out += Snapshot.Contexts.empty() ? "]\n}\n" : "\n  ]\n}\n";
  return Out;
}

bool cswitch::writeTextFile(const std::string &Path,
                            std::string_view Content) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  size_t Written = std::fwrite(Content.data(), 1, Content.size(), F);
  bool Ok = Written == Content.size();
  return std::fclose(F) == 0 && Ok;
}
