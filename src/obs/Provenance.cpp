//===- Provenance.cpp - Decision provenance ledger -----------------------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//

#include "obs/Provenance.h"

#include "support/MetricsExport.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

using namespace cswitch;
using namespace cswitch::obs;

//===----------------------------------------------------------------------===//
// Names
//===----------------------------------------------------------------------===//

const char *cswitch::obs::explainDimensionName(size_t Dim) {
  switch (Dim) {
  case 0:
    return "time";
  case 1:
    return "alloc";
  case 2:
    return "energy";
  case 3:
    return "contention";
  }
  return "unknown";
}

const char *cswitch::obs::decisionOutcomeName(DecisionOutcome Outcome) {
  switch (Outcome) {
  case DecisionOutcome::Kept:
    return "kept";
  case DecisionOutcome::Switched:
    return "switched";
  case DecisionOutcome::Converged:
    return "converged";
  case DecisionOutcome::WarmStartSkipped:
    return "warm-start-skipped";
  }
  return "unknown";
}

bool cswitch::obs::parseDecisionOutcome(std::string_view Name,
                                        DecisionOutcome &Out) {
  if (Name == "kept")
    Out = DecisionOutcome::Kept;
  else if (Name == "switched")
    Out = DecisionOutcome::Switched;
  else if (Name == "converged")
    Out = DecisionOutcome::Converged;
  else if (Name == "warm-start-skipped")
    Out = DecisionOutcome::WarmStartSkipped;
  else
    return false;
  return true;
}

//===----------------------------------------------------------------------===//
// SiteLedger
//===----------------------------------------------------------------------===//

SiteLedger::SiteLedger(std::string Name, std::string Abstraction,
                       std::string Rule, std::vector<std::string> Variants)
    : Name(std::move(Name)), Abstraction(std::move(Abstraction)),
      Rule(std::move(Rule)), Variants(std::move(Variants)) {}

void SiteLedger::record(DecisionRecord Record) {
  uint64_t Ticket = Ring.claim();
  Record.Sequence = Ticket + 1;
  Ring.publish(Ticket, Record);
}

std::vector<DecisionRecord> SiteLedger::snapshot() const {
  uint64_t Total = Ring.next();
  uint64_t Retained = std::min<uint64_t>(Total, Ring.capacity());
  std::vector<DecisionRecord> Out;
  Out.reserve(Retained);
  for (uint64_t Ticket = Total - Retained; Ticket != Total; ++Ticket) {
    DecisionRecord Record;
    SlotRead Read = SlotRead::Pending;
    for (int Attempt = 0; Attempt != 16 && Read == SlotRead::Pending;
         ++Attempt) {
      Read = Ring.read(Ticket, Record);
      // A writer mid-publication completes in a bounded number of
      // stores (or is descheduled — yield instead of burning).
      if (Read == SlotRead::Pending)
        std::this_thread::yield();
    }
    // Lapped by a fast-wrapping writer (the slot holds a newer record,
    // which the next snapshot shows in its own position), or still
    // unpublished after the retries: skip, never block.
    if (Read == SlotRead::Ok)
      Out.push_back(Record);
  }
  return Out;
}

SiteLedgerSnapshot SiteLedger::snapshotSite() const {
  SiteLedgerSnapshot Out;
  Out.Name = Name;
  Out.Abstraction = Abstraction;
  Out.Rule = Rule;
  Out.Variants = Variants;
  Out.Records = snapshot();
  Out.Decisions = decisionCount();
  return Out;
}

//===----------------------------------------------------------------------===//
// ProvenanceRegistry
//===----------------------------------------------------------------------===//

std::atomic<int> ProvenanceRegistry::EnabledState{0};

ProvenanceRegistry &ProvenanceRegistry::global() {
  static ProvenanceRegistry Instance;
  return Instance;
}

bool ProvenanceRegistry::enabled() {
  int State = EnabledState.load(std::memory_order_relaxed);
  if (State == 0) {
    const char *Env = std::getenv("CSWITCH_EXPLAIN");
    bool On = Env != nullptr &&
              (std::strcmp(Env, "1") == 0 || std::strcmp(Env, "true") == 0 ||
               std::strcmp(Env, "on") == 0);
    int Resolved = On ? 2 : 1;
    int Expected = 0;
    if (!EnabledState.compare_exchange_strong(Expected, Resolved,
                                              std::memory_order_relaxed))
      Resolved = Expected; // Another thread (or setEnabled) won.
    State = Resolved;
  }
  return State == 2;
}

void ProvenanceRegistry::setEnabled(bool Enabled) {
  EnabledState.store(Enabled ? 2 : 1, std::memory_order_relaxed);
}

SiteLedger *ProvenanceRegistry::site(const std::string &SiteName,
                                     const std::string &Abstraction,
                                     const std::string &Rule,
                                     std::vector<std::string> Variants) {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Sites.find(SiteName);
  if (It == Sites.end()) {
    Allocations.fetch_add(1, std::memory_order_relaxed);
    It = Sites
             .emplace(SiteName,
                      std::make_unique<SiteLedger>(SiteName, Abstraction,
                                                   Rule, std::move(Variants)))
             .first;
  }
  return It->second.get();
}

std::vector<SiteLedgerSnapshot> ProvenanceRegistry::snapshotSites() const {
  std::vector<const SiteLedger *> Ledgers;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Ledgers.reserve(Sites.size());
    for (const auto &[Name, Ledger] : Sites)
      Ledgers.push_back(Ledger.get());
  }
  std::vector<SiteLedgerSnapshot> Out;
  Out.reserve(Ledgers.size());
  // Sites is a std::map: the collected pointers are already sorted by
  // site name, which is what makes the rendered document byte-stable.
  for (const SiteLedger *Ledger : Ledgers)
    Out.push_back(Ledger->snapshotSite());
  return Out;
}

size_t ProvenanceRegistry::siteCount() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Sites.size();
}

void ProvenanceRegistry::clearForTest() {
  std::lock_guard<std::mutex> Lock(Mutex);
  Sites.clear();
}

//===----------------------------------------------------------------------===//
// Rendering
//===----------------------------------------------------------------------===//

namespace {

/// Round-trip double formatting: %.17g survives parse-render cycles
/// bit-for-bit, which the byte-stability guarantee relies on.
/// Non-finite values (never produced by the capture paths, but the
/// ledger is a dumb pipe) degrade to 0 so the document always parses.
void appendDouble(std::string &Out, double Value) {
  if (!std::isfinite(Value)) {
    Out += '0';
    return;
  }
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", Value);
  Out += Buf;
}

void appendDimensions(std::string &Out,
                      const std::array<double, ExplainNumDimensions> &Values) {
  Out += '{';
  for (size_t D = 0; D != ExplainNumDimensions; ++D) {
    if (D)
      Out += ',';
    Out += '"';
    Out += explainDimensionName(D);
    Out += "\":";
    appendDouble(Out, Values[D]);
  }
  Out += '}';
}

void appendRecord(std::string &Out, const DecisionRecord &R) {
  size_t NumCriteria = std::min<size_t>(R.NumCriteria, ExplainMaxCriteria);
  size_t NumCandidates =
      std::min<size_t>(R.NumCandidates, ExplainMaxCandidates);
  Out += "{\"seq\":" + std::to_string(R.Sequence);
  Out += ",\"ts_nanos\":" + std::to_string(R.TimestampNanos);
  Out += ",\"round\":" + std::to_string(R.Round);
  Out += ",\"outcome\":\"";
  Out += decisionOutcomeName(R.Outcome);
  Out += "\",\"current\":" + std::to_string(R.CurrentVariant);
  Out += ",\"chosen\":" + std::to_string(R.ChosenVariant);
  Out += ",\"threads\":";
  appendDouble(Out, R.ContendedThreads);
  Out += ",\"contention_folded\":";
  Out += R.ContentionFolded ? "true" : "false";
  Out += ",\"consecutive_keeps\":" + std::to_string(R.ConsecutiveKeeps);
  Out += ",\"adaptive\":{\"index\":" + std::to_string(R.AdaptiveIndex);
  Out += ",\"threshold\":";
  appendDouble(Out, R.AdaptiveThreshold);
  Out += ",\"wide_range_factor\":";
  appendDouble(Out, R.WideRangeFactor);
  Out += ",\"min_max_size\":";
  appendDouble(Out, R.MinMaxSize);
  Out += ",\"max_max_size\":";
  appendDouble(Out, R.MaxMaxSize);
  Out += ",\"straddles\":";
  Out += R.AdaptiveStraddles ? "true" : "false";
  Out += ",\"wide\":";
  Out += R.AdaptiveWide ? "true" : "false";
  Out += "},\"margin\":";
  appendDouble(Out, R.Margin);
  Out += ",\"criteria\":[";
  for (size_t C = 0; C != NumCriteria; ++C) {
    if (C)
      Out += ',';
    Out += "{\"dimension\":\"";
    Out += explainDimensionName(R.Criteria[C].Dimension);
    Out += "\",\"threshold\":";
    appendDouble(Out, R.Criteria[C].Threshold);
    Out += '}';
  }
  Out += "],\"candidates\":[";
  for (size_t V = 0; V != NumCandidates; ++V) {
    const CandidateExplanation &Cand = R.Candidates[V];
    if (V)
      Out += ',';
    Out += "{\"variant\":" + std::to_string(V);
    Out += ",\"covered\":";
    Out += Cand.Covered ? "true" : "false";
    Out += ",\"eligible\":";
    Out += Cand.Eligible ? "true" : "false";
    Out += ",\"qualified\":";
    Out += Cand.Qualified ? "true" : "false";
    Out += ",\"total\":";
    appendDimensions(Out, Cand.Total);
    Out += ",\"pre_fold\":";
    appendDimensions(Out, Cand.PreFold);
    Out += ",\"ratios\":[";
    for (size_t C = 0; C != NumCriteria; ++C) {
      if (C)
        Out += ',';
      appendDouble(Out, Cand.Ratio[C]);
    }
    Out += "]}";
  }
  Out += "]}";
}

} // namespace

ExplainProvenance
cswitch::obs::makeExplainHeader(const TelemetrySnapshot &Snapshot) {
  ExplainProvenance Out;
  Out.ModelSource = Snapshot.Model.Source;
  Out.ModelInstalls = Snapshot.Model.Installs;
  Out.StorePath = Snapshot.Store.Path;
  Out.StoreLoads = Snapshot.Store.Loads;
  Out.StoreWarmStarts = Snapshot.Store.WarmStarts;
  return Out;
}

std::string
cswitch::obs::renderExplainJson(const ExplainProvenance &Provenance,
                                const std::vector<SiteLedgerSnapshot> &Sites,
                                bool Enabled) {
  std::string Out = "{\"schema\":\"cswitch-explain-v1\",\"enabled\":";
  Out += Enabled ? "true" : "false";
  Out += ",\"provenance\":{\"model\":{\"source\":\"" +
         jsonEscape(Provenance.ModelSource) +
         "\",\"installs\":" + std::to_string(Provenance.ModelInstalls);
  Out += "},\"store\":{\"path\":\"" + jsonEscape(Provenance.StorePath) +
         "\",\"loads\":" + std::to_string(Provenance.StoreLoads) +
         ",\"warm_starts\":" + std::to_string(Provenance.StoreWarmStarts);
  Out += "}},\"sites\":[";
  bool FirstSite = true;
  for (const SiteLedgerSnapshot &Site : Sites) {
    if (!FirstSite)
      Out += ',';
    FirstSite = false;
    Out += "{\"name\":\"" + jsonEscape(Site.Name) + "\",\"abstraction\":\"" +
           jsonEscape(Site.Abstraction) + "\",\"rule\":\"" +
           jsonEscape(Site.Rule) +
           "\",\"decisions\":" + std::to_string(Site.Decisions);
    Out += ",\"variants\":[";
    for (size_t V = 0; V != Site.Variants.size(); ++V) {
      if (V)
        Out += ',';
      Out += '"' + jsonEscape(Site.Variants[V]) + '"';
    }
    Out += "],\"records\":[";
    for (size_t R = 0; R != Site.Records.size(); ++R) {
      if (R)
        Out += ',';
      appendRecord(Out, Site.Records[R]);
    }
    Out += "]}";
  }
  Out += "]}\n";
  return Out;
}

//===----------------------------------------------------------------------===//
// Parsing (total decoder)
//===----------------------------------------------------------------------===//

namespace {

/// Minimal JSON document model for the total decoder. The repo carries
/// no JSON dependency; this parser accepts exactly RFC-8259 JSON (with
/// a nesting cap) and is only as featureful as the explain schema and
/// its tests need.
struct JsonValue {
  enum Kind { Null, Boolean, Number, String, Array, Object };
  Kind K = Null;
  bool B = false;
  double Num = 0.0;
  std::string Str;
  std::vector<JsonValue> Arr;
  std::vector<std::pair<std::string, JsonValue>> Obj;

  const JsonValue *field(std::string_view Name) const {
    if (K != Object)
      return nullptr;
    for (const auto &[Key, Value] : Obj)
      if (Key == Name)
        return &Value;
    return nullptr;
  }
};

class JsonParser {
public:
  JsonParser(std::string_view Text, std::string *Error)
      : Text(Text), Error(Error) {}

  bool parse(JsonValue &Out) {
    if (!parseValue(Out, 0))
      return false;
    skipSpace();
    if (Pos != Text.size())
      return fail("trailing garbage after document");
    return true;
  }

private:
  std::string_view Text;
  std::string *Error;
  size_t Pos = 0;

  static constexpr int MaxDepth = 64;

  bool fail(const std::string &Message) {
    if (Error)
      *Error = Message + " at offset " + std::to_string(Pos);
    return false;
  }

  void skipSpace() {
    while (Pos < Text.size() &&
           (Text[Pos] == ' ' || Text[Pos] == '\t' || Text[Pos] == '\n' ||
            Text[Pos] == '\r'))
      ++Pos;
  }

  bool consume(char C) {
    skipSpace();
    if (Pos >= Text.size() || Text[Pos] != C)
      return false;
    ++Pos;
    return true;
  }

  bool parseLiteral(std::string_view Literal) {
    if (Text.substr(Pos, Literal.size()) != Literal)
      return false;
    Pos += Literal.size();
    return true;
  }

  static void encodeUtf8(std::string &Out, uint32_t Code) {
    if (Code < 0x80) {
      Out += static_cast<char>(Code);
    } else if (Code < 0x800) {
      Out += static_cast<char>(0xC0 | (Code >> 6));
      Out += static_cast<char>(0x80 | (Code & 0x3F));
    } else if (Code < 0x10000) {
      Out += static_cast<char>(0xE0 | (Code >> 12));
      Out += static_cast<char>(0x80 | ((Code >> 6) & 0x3F));
      Out += static_cast<char>(0x80 | (Code & 0x3F));
    } else {
      Out += static_cast<char>(0xF0 | (Code >> 18));
      Out += static_cast<char>(0x80 | ((Code >> 12) & 0x3F));
      Out += static_cast<char>(0x80 | ((Code >> 6) & 0x3F));
      Out += static_cast<char>(0x80 | (Code & 0x3F));
    }
  }

  bool parseHex4(uint32_t &Out) {
    if (Pos + 4 > Text.size())
      return fail("truncated \\u escape");
    Out = 0;
    for (int I = 0; I != 4; ++I) {
      char C = Text[Pos++];
      Out <<= 4;
      if (C >= '0' && C <= '9')
        Out |= static_cast<uint32_t>(C - '0');
      else if (C >= 'a' && C <= 'f')
        Out |= static_cast<uint32_t>(C - 'a' + 10);
      else if (C >= 'A' && C <= 'F')
        Out |= static_cast<uint32_t>(C - 'A' + 10);
      else
        return fail("bad hex digit in \\u escape");
    }
    return true;
  }

  bool parseString(std::string &Out) {
    if (Pos >= Text.size() || Text[Pos] != '"')
      return fail("expected string");
    ++Pos;
    Out.clear();
    while (Pos < Text.size()) {
      char C = Text[Pos];
      if (C == '"') {
        ++Pos;
        return true;
      }
      if (static_cast<unsigned char>(C) < 0x20)
        return fail("raw control character in string");
      if (C != '\\') {
        Out += C;
        ++Pos;
        continue;
      }
      if (++Pos >= Text.size())
        return fail("truncated escape");
      char E = Text[Pos++];
      switch (E) {
      case '"':
        Out += '"';
        break;
      case '\\':
        Out += '\\';
        break;
      case '/':
        Out += '/';
        break;
      case 'b':
        Out += '\b';
        break;
      case 'f':
        Out += '\f';
        break;
      case 'n':
        Out += '\n';
        break;
      case 'r':
        Out += '\r';
        break;
      case 't':
        Out += '\t';
        break;
      case 'u': {
        uint32_t Code = 0;
        if (!parseHex4(Code))
          return false;
        if (Code >= 0xD800 && Code <= 0xDBFF) {
          // Surrogate pair; an unpaired high surrogate degrades to
          // U+FFFD (total decoding: never reject what we can repair).
          if (Pos + 1 < Text.size() && Text[Pos] == '\\' &&
              Text[Pos + 1] == 'u') {
            Pos += 2;
            uint32_t Low = 0;
            if (!parseHex4(Low))
              return false;
            if (Low >= 0xDC00 && Low <= 0xDFFF)
              Code = 0x10000 + ((Code - 0xD800) << 10) + (Low - 0xDC00);
            else
              Code = 0xFFFD;
          } else {
            Code = 0xFFFD;
          }
        } else if (Code >= 0xDC00 && Code <= 0xDFFF) {
          Code = 0xFFFD; // Unpaired low surrogate.
        }
        encodeUtf8(Out, Code);
        break;
      }
      default:
        return fail("unknown escape");
      }
    }
    return fail("unterminated string");
  }

  bool parseNumber(double &Out) {
    size_t Start = Pos;
    if (Pos < Text.size() && Text[Pos] == '-')
      ++Pos;
    while (Pos < Text.size() &&
           (std::isdigit(static_cast<unsigned char>(Text[Pos])) ||
            Text[Pos] == '.' || Text[Pos] == 'e' || Text[Pos] == 'E' ||
            Text[Pos] == '+' || Text[Pos] == '-'))
      ++Pos;
    if (Pos == Start)
      return fail("expected number");
    std::string Token(Text.substr(Start, Pos - Start));
    char *End = nullptr;
    Out = std::strtod(Token.c_str(), &End);
    if (End != Token.c_str() + Token.size())
      return fail("malformed number");
    return true;
  }

  bool parseValue(JsonValue &Out, int Depth) {
    if (Depth > MaxDepth)
      return fail("nesting too deep");
    skipSpace();
    if (Pos >= Text.size())
      return fail("unexpected end of document");
    char C = Text[Pos];
    if (C == '{') {
      ++Pos;
      Out.K = JsonValue::Object;
      skipSpace();
      if (consume('}'))
        return true;
      for (;;) {
        skipSpace();
        std::string Key;
        if (!parseString(Key))
          return false;
        if (!consume(':'))
          return fail("expected ':'");
        JsonValue Value;
        if (!parseValue(Value, Depth + 1))
          return false;
        Out.Obj.emplace_back(std::move(Key), std::move(Value));
        if (consume(','))
          continue;
        if (consume('}'))
          return true;
        return fail("expected ',' or '}'");
      }
    }
    if (C == '[') {
      ++Pos;
      Out.K = JsonValue::Array;
      skipSpace();
      if (consume(']'))
        return true;
      for (;;) {
        JsonValue Value;
        if (!parseValue(Value, Depth + 1))
          return false;
        Out.Arr.push_back(std::move(Value));
        if (consume(','))
          continue;
        if (consume(']'))
          return true;
        return fail("expected ',' or ']'");
      }
    }
    if (C == '"') {
      Out.K = JsonValue::String;
      return parseString(Out.Str);
    }
    if (C == 't') {
      if (!parseLiteral("true"))
        return fail("bad literal");
      Out.K = JsonValue::Boolean;
      Out.B = true;
      return true;
    }
    if (C == 'f') {
      if (!parseLiteral("false"))
        return fail("bad literal");
      Out.K = JsonValue::Boolean;
      Out.B = false;
      return true;
    }
    if (C == 'n') {
      if (!parseLiteral("null"))
        return fail("bad literal");
      Out.K = JsonValue::Null;
      return true;
    }
    Out.K = JsonValue::Number;
    return parseNumber(Out.Num);
  }
};

double numberOr(const JsonValue *Value, double Default) {
  return Value && Value->K == JsonValue::Number ? Value->Num : Default;
}

uint64_t u64Or(const JsonValue *Value, uint64_t Default) {
  double Num = numberOr(Value, static_cast<double>(Default));
  return Num <= 0 ? 0 : static_cast<uint64_t>(Num);
}

bool boolOr(const JsonValue *Value, bool Default) {
  return Value && Value->K == JsonValue::Boolean ? Value->B : Default;
}

std::string stringOr(const JsonValue *Value, const std::string &Default) {
  return Value && Value->K == JsonValue::String ? Value->Str : Default;
}

size_t dimensionIndexOf(const std::string &Name) {
  for (size_t D = 0; D != ExplainNumDimensions; ++D)
    if (Name == explainDimensionName(D))
      return D;
  return ExplainNumDimensions; // Unknown dimension: ignored.
}

void decodeDimensions(const JsonValue *Value,
                      std::array<double, ExplainNumDimensions> &Out) {
  if (!Value || Value->K != JsonValue::Object)
    return;
  for (const auto &[Key, Field] : Value->Obj) {
    size_t D = dimensionIndexOf(Key);
    if (D < ExplainNumDimensions && Field.K == JsonValue::Number)
      Out[D] = Field.Num;
  }
}

void decodeRecord(const JsonValue &Value, DecisionRecord &Out) {
  Out.Sequence = u64Or(Value.field("seq"), 0);
  Out.TimestampNanos = u64Or(Value.field("ts_nanos"), 0);
  Out.Round = static_cast<uint32_t>(u64Or(Value.field("round"), 0));
  parseDecisionOutcome(stringOr(Value.field("outcome"), "kept"),
                       Out.Outcome);
  Out.CurrentVariant =
      static_cast<int16_t>(numberOr(Value.field("current"), -1));
  Out.ChosenVariant =
      static_cast<int16_t>(numberOr(Value.field("chosen"), -1));
  Out.ContendedThreads = numberOr(Value.field("threads"), 0.0);
  Out.ContentionFolded = boolOr(Value.field("contention_folded"), false);
  Out.ConsecutiveKeeps =
      static_cast<uint32_t>(u64Or(Value.field("consecutive_keeps"), 0));
  if (const JsonValue *Adaptive = Value.field("adaptive")) {
    Out.AdaptiveIndex =
        static_cast<int16_t>(numberOr(Adaptive->field("index"), -1));
    Out.AdaptiveThreshold = numberOr(Adaptive->field("threshold"), 0.0);
    Out.WideRangeFactor =
        numberOr(Adaptive->field("wide_range_factor"), 0.0);
    Out.MinMaxSize = numberOr(Adaptive->field("min_max_size"), 0.0);
    Out.MaxMaxSize = numberOr(Adaptive->field("max_max_size"), 0.0);
    Out.AdaptiveStraddles = boolOr(Adaptive->field("straddles"), false);
    Out.AdaptiveWide = boolOr(Adaptive->field("wide"), false);
  }
  Out.Margin = numberOr(Value.field("margin"), 0.0);
  if (const JsonValue *Criteria = Value.field("criteria")) {
    if (Criteria->K == JsonValue::Array) {
      size_t N = std::min(Criteria->Arr.size(), ExplainMaxCriteria);
      Out.NumCriteria = static_cast<uint8_t>(N);
      for (size_t C = 0; C != N; ++C) {
        const JsonValue &Criterion = Criteria->Arr[C];
        Out.Criteria[C].Dimension = static_cast<uint8_t>(
            dimensionIndexOf(stringOr(Criterion.field("dimension"), "")));
        Out.Criteria[C].Threshold =
            numberOr(Criterion.field("threshold"), 0.0);
      }
    }
  }
  if (const JsonValue *Candidates = Value.field("candidates")) {
    if (Candidates->K == JsonValue::Array) {
      size_t N = std::min(Candidates->Arr.size(), ExplainMaxCandidates);
      Out.NumCandidates = static_cast<uint8_t>(N);
      for (size_t V = 0; V != N; ++V) {
        const JsonValue &Item = Candidates->Arr[V];
        // The rendered index is positional; out-of-range values are
        // clamped into the positional slot (total decoding).
        size_t Index = std::min<size_t>(
            u64Or(Item.field("variant"), V), ExplainMaxCandidates - 1);
        CandidateExplanation &Cand = Out.Candidates[Index];
        Cand.Covered = boolOr(Item.field("covered"), false);
        Cand.Eligible = boolOr(Item.field("eligible"), false);
        Cand.Qualified = boolOr(Item.field("qualified"), false);
        decodeDimensions(Item.field("total"), Cand.Total);
        decodeDimensions(Item.field("pre_fold"), Cand.PreFold);
        if (const JsonValue *Ratios = Item.field("ratios")) {
          if (Ratios->K == JsonValue::Array) {
            size_t M = std::min(Ratios->Arr.size(), ExplainMaxCriteria);
            for (size_t C = 0; C != M; ++C)
              if (Ratios->Arr[C].K == JsonValue::Number)
                Cand.Ratio[C] = Ratios->Arr[C].Num;
          }
        }
      }
    }
  }
}

} // namespace

bool cswitch::obs::parseExplainDocument(std::string_view Json,
                                        ExplainDocument &Out,
                                        std::string *Error) {
  JsonValue Root;
  if (!JsonParser(Json, Error).parse(Root))
    return false;
  if (Root.K != JsonValue::Object) {
    if (Error)
      *Error = "document is not an object";
    return false;
  }
  std::string Schema = stringOr(Root.field("schema"), "");
  if (Schema != "cswitch-explain-v1") {
    if (Error)
      *Error = "unsupported schema \"" + Schema + "\"";
    return false;
  }
  Out = ExplainDocument();
  Out.Schema = Schema;
  Out.Enabled = boolOr(Root.field("enabled"), false);
  if (const JsonValue *Provenance = Root.field("provenance")) {
    if (const JsonValue *Model = Provenance->field("model")) {
      Out.Provenance.ModelSource = stringOr(Model->field("source"), "");
      Out.Provenance.ModelInstalls = u64Or(Model->field("installs"), 0);
    }
    if (const JsonValue *Store = Provenance->field("store")) {
      Out.Provenance.StorePath = stringOr(Store->field("path"), "");
      Out.Provenance.StoreLoads = u64Or(Store->field("loads"), 0);
      Out.Provenance.StoreWarmStarts =
          u64Or(Store->field("warm_starts"), 0);
    }
  }
  if (const JsonValue *Sites = Root.field("sites")) {
    if (Sites->K == JsonValue::Array) {
      Out.Sites.reserve(Sites->Arr.size());
      for (const JsonValue &Site : Sites->Arr) {
        SiteLedgerSnapshot Ledger;
        Ledger.Name = stringOr(Site.field("name"), "");
        Ledger.Abstraction = stringOr(Site.field("abstraction"), "");
        Ledger.Rule = stringOr(Site.field("rule"), "");
        Ledger.Decisions = u64Or(Site.field("decisions"), 0);
        if (const JsonValue *Variants = Site.field("variants"))
          if (Variants->K == JsonValue::Array)
            for (const JsonValue &Variant : Variants->Arr)
              Ledger.Variants.push_back(
                  Variant.K == JsonValue::String ? Variant.Str : "");
        if (const JsonValue *Records = Site.field("records")) {
          if (Records->K == JsonValue::Array) {
            Ledger.Records.reserve(Records->Arr.size());
            for (const JsonValue &Record : Records->Arr) {
              DecisionRecord Decoded;
              decodeRecord(Record, Decoded);
              Ledger.Records.push_back(Decoded);
            }
          }
        }
        Out.Sites.push_back(std::move(Ledger));
      }
    }
  }
  return true;
}
