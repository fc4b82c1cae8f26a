//===- TuningArtifact.cpp - Versioned tuned-config artifact ---------------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//

#include "tuner/TuningArtifact.h"

#include "support/Codec.h"

#include <algorithm>
#include <cmath>
#include <numeric>

using namespace cswitch;
using namespace cswitch::tuner;
using codec::fail;

namespace {

constexpr codec::Format TuningDoc{"cswitch-tuning-v2", "cswitch-tuning", 2};

/// Longest accepted fingerprint / corpus-digest string. Real values are
/// tens of bytes; anything larger is a corrupt length field.
constexpr uint64_t MaxHeaderString = 1 << 12;

std::string encodeHeaderPayload(const TuningArtifact &Artifact) {
  std::string Out;
  codec::putString(Out, Artifact.HostFingerprint);
  codec::putVarint(Out, Artifact.Sweeps);
  codec::putVarint(Out, Artifact.Evaluations);
  codec::putString(Out, Artifact.CorpusDigest);
  codec::putF64(Out, Artifact.TimeWeight);
  codec::putF64(Out, Artifact.AllocWeight);
  codec::putF64(Out, Artifact.WinnerFitness);
  codec::putF64(Out, Artifact.BaselineFitness);
  return Out;
}

std::string encodeRowPayload(const TuningArtifact::Row &Row) {
  std::string Out;
  codec::putString(Out, Row.Name);
  codec::putF64(Out, Row.Value);
  return Out;
}

bool decodeHeaderPayload(std::string_view Payload, TuningArtifact &Out,
                         std::string *Error) {
  codec::Reader In(Payload);
  if (!In.string(Out.HostFingerprint, MaxHeaderString))
    return fail(Error, "truncated host fingerprint");
  if (!In.varint(Out.Sweeps))
    return fail(Error, "truncated sweep count");
  if (!In.varint(Out.Evaluations))
    return fail(Error, "truncated evaluation count");
  if (!In.string(Out.CorpusDigest, MaxHeaderString))
    return fail(Error, "truncated corpus digest");
  if (!In.f64(Out.TimeWeight) || !In.f64(Out.AllocWeight))
    return fail(Error, "truncated objective weights");
  if (!std::isfinite(Out.TimeWeight) || Out.TimeWeight < 0.0 ||
      !std::isfinite(Out.AllocWeight) || Out.AllocWeight < 0.0)
    return fail(Error, "non-finite or negative objective weight");
  if (!In.f64(Out.WinnerFitness) || !In.f64(Out.BaselineFitness))
    return fail(Error, "truncated fitness values");
  if (!std::isfinite(Out.WinnerFitness) ||
      !std::isfinite(Out.BaselineFitness))
    return fail(Error, "non-finite fitness value");
  if (!In.atEnd())
    return fail(Error, "oversized header payload");
  return true;
}

bool decodeRowPayload(std::string_view Payload, TuningArtifact::Row &Row,
                      std::string *Error) {
  codec::Reader In(Payload);
  if (!In.string(Row.Name, MaxHeaderString))
    return fail(Error, "truncated parameter name");
  if (!In.f64(Row.Value))
    return fail(Error, "truncated parameter value");
  if (!In.atEnd())
    return fail(Error, "oversized row payload");

  // Semantic validation: the row must name a known parameter and carry
  // a value the parameter space accepts as-is.
  const ParamInfo *Info = findParam(Row.Name);
  if (!Info)
    return fail(Error, "unknown parameter \"" + Row.Name + "\"");
  if (!std::isfinite(Row.Value))
    return fail(Error,
                "non-finite value for parameter \"" + Row.Name + "\"");
  if (Row.Value < Info->Min || Row.Value > Info->Max)
    return fail(Error, "parameter \"" + Row.Name + "\" value " +
                           std::to_string(Row.Value) + " outside [" +
                           std::to_string(Info->Min) + ", " +
                           std::to_string(Info->Max) + "]");
  if (Info->Integer && Row.Value != std::nearbyint(Row.Value))
    return fail(Error,
                "parameter \"" + Row.Name + "\" requires an integral value");
  return true;
}

bool decodeArtifact(std::string_view Bytes, TuningArtifact &Out,
                    std::string *Error) {
  codec::Reader In(Bytes);
  if (!codec::readHeader(In, TuningDoc, Error))
    return false;
  std::string_view Header;
  if (!codec::readSection(In, "header", Header, Error) ||
      !decodeHeaderPayload(Header, Out, Error))
    return false;

  uint64_t RowCount = 0;
  if (!In.varint(RowCount))
    return fail(Error, "truncated row count");
  if (RowCount != NumTunableParams)
    return fail(Error, "expected " + std::to_string(NumTunableParams) +
                           " parameter rows, found " +
                           std::to_string(RowCount));
  Out.Rows.reserve(NumTunableParams);
  for (uint64_t I = 0; I != RowCount; ++I) {
    std::string_view Payload;
    TuningArtifact::Row Row;
    if (!codec::readSection(In, "row", Payload, Error) ||
        !decodeRowPayload(Payload, Row, Error))
      return false;
    if (!Out.Rows.empty() && !(Out.Rows.back().Name < Row.Name))
      return fail(Error, "rows out of canonical order");
    Out.Rows.push_back(std::move(Row));
  }
  // RowCount == NumTunableParams, every name known, and names strictly
  // ascending => the rows are exactly the full parameter space.

  if (!In.atEnd())
    return fail(Error, "trailing bytes after row records");
  return true;
}

} // namespace

std::string
cswitch::tuner::encodeTuningArtifact(const TuningArtifact &Artifact) {
  // Canonical order regardless of the caller's: encode a name-sorted
  // view.
  std::vector<size_t> Order(Artifact.Rows.size());
  std::iota(Order.begin(), Order.end(), size_t{0});
  std::sort(Order.begin(), Order.end(), [&Artifact](size_t A, size_t B) {
    return Artifact.Rows[A].Name < Artifact.Rows[B].Name;
  });

  std::string Out;
  Out.reserve(TuningDoc.Magic.size() + 96 + Artifact.Rows.size() * 48);
  codec::putHeader(Out, TuningDoc);
  codec::putSection(Out, encodeHeaderPayload(Artifact));
  codec::putVarint(Out, Artifact.Rows.size());
  for (size_t I : Order)
    codec::putSection(Out, encodeRowPayload(Artifact.Rows[I]));
  return Out;
}

bool cswitch::tuner::decodeTuningArtifact(std::string_view Bytes,
                                          TuningArtifact &Out,
                                          std::string *Error) {
  return codec::decodeOrReset(
      Out, [&] { return decodeArtifact(Bytes, Out, Error); });
}

bool cswitch::tuner::writeTuningArtifactToFile(const std::string &Path,
                                               const TuningArtifact &Artifact,
                                               std::string *Error) {
  // A reader (or a restarting process pointing CSWITCH_TUNING here)
  // observes either the complete old artifact or the complete new one.
  return codec::installFile(Path, encodeTuningArtifact(Artifact), "tuning",
                            Error);
}

bool cswitch::tuner::readTuningArtifactFromFile(const std::string &Path,
                                                TuningArtifact &Out,
                                                std::string *Error) {
  std::string Bytes;
  if (!codec::readFile(Path, Bytes, "tuning", Error)) {
    Out = TuningArtifact();
    return false;
  }
  return decodeTuningArtifact(Bytes, Out, Error);
}

TuningArtifact cswitch::tuner::artifactFromParams(const ParameterSet &Params) {
  TuningArtifact Artifact;
  Artifact.Rows.reserve(NumTunableParams);
  for (const ParamInfo &Info : parameterSpace())
    Artifact.Rows.push_back({Info.Name, Params.get(Info.Id)});
  return Artifact;
}

bool cswitch::tuner::paramsFromArtifact(const TuningArtifact &Artifact,
                                        ParameterSet &Out,
                                        std::string *Error) {
  ParameterSet Params;
  for (const TuningArtifact::Row &Row : Artifact.Rows) {
    const ParamInfo *Info = findParam(Row.Name);
    if (!Info)
      return fail(Error, "unknown parameter \"" + Row.Name + "\"");
    if (!std::isfinite(Row.Value))
      return fail(Error,
                  "non-finite value for parameter \"" + Row.Name + "\"");
    Params.set(Info->Id, Row.Value);
  }
  Out = Params;
  return true;
}
