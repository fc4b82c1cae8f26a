//===- ModelArtifact.cpp - Versioned recalibrated-model artifact ----------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//

#include "fleet/ModelArtifact.h"

#include "support/Codec.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <thread>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/utsname.h>
#define CSWITCH_FLEET_POSIX 1
#endif

using namespace cswitch;
using namespace cswitch::fleet;
using codec::fail;

namespace {

constexpr codec::Format ModelDoc{"cswitch-model-v2", "cswitch-model", 2};

std::string encodeHeaderPayload(const ModelArtifact &Artifact) {
  std::string Out;
  codec::putString(Out, Artifact.HostFingerprint);
  codec::putU64(Out, Artifact.FitTimestamp);
  codec::putF64(Out, Artifact.HoldoutResidual);
  return Out;
}

std::string encodeRowPayload(const ModelArtifact::Row &Row) {
  std::string Out;
  Out += static_cast<char>(static_cast<unsigned>(Row.Kind));
  codec::putVarint(Out, Row.Variant);
  codec::putVarint(Out, static_cast<uint64_t>(Row.Op));
  Out += static_cast<char>(static_cast<unsigned>(Row.Dim));
  const std::vector<double> &Coeffs = Row.Cost.coefficients();
  codec::putVarint(Out, Coeffs.size());
  for (double Coeff : Coeffs)
    codec::putF64(Out, Coeff);
  codec::putF64(Out, Row.Residual);
  return Out;
}

bool decodeHeaderPayload(std::string_view Payload, ModelArtifact &Out,
                         std::string *Error) {
  codec::Reader In(Payload);
  if (!In.string(Out.HostFingerprint))
    return fail(Error, "truncated host fingerprint");
  if (!In.u64(Out.FitTimestamp))
    return fail(Error, "truncated fit timestamp");
  if (!In.f64(Out.HoldoutResidual))
    return fail(Error, "truncated holdout residual");
  if (!std::isfinite(Out.HoldoutResidual) || Out.HoldoutResidual < 0.0)
    return fail(Error, "non-finite holdout residual");
  if (!In.atEnd())
    return fail(Error, "oversized header payload");
  return true;
}

bool decodeRowPayload(std::string_view Payload, ModelArtifact::Row &Row,
                      std::string *Error) {
  codec::Reader In(Payload);
  uint8_t Kind = 0;
  if (!In.byte(Kind) || Kind >= NumAbstractionKinds)
    return fail(Error, "bad abstraction kind");
  Row.Kind = static_cast<AbstractionKind>(Kind);
  uint64_t Variant = 0;
  if (!In.varint(Variant) || Variant >= numVariantsOf(Row.Kind))
    return fail(Error, "bad variant index");
  Row.Variant = static_cast<unsigned>(Variant);
  uint64_t Op = 0;
  if (!In.varint(Op) || Op >= NumOperationKinds)
    return fail(Error, "bad operation kind");
  Row.Op = static_cast<OperationKind>(Op);
  uint8_t Dim = 0;
  if (!In.byte(Dim) || Dim >= NumCostDimensions)
    return fail(Error, "bad cost dimension");
  Row.Dim = static_cast<CostDimension>(Dim);
  uint64_t CoeffCount = 0;
  if (!In.varint(CoeffCount))
    return fail(Error, "truncated coefficient count");
  if (CoeffCount > MaxArtifactCoefficients)
    return fail(Error, "oversized polynomial");
  std::vector<double> Coeffs(CoeffCount);
  for (double &Coeff : Coeffs) {
    if (!In.f64(Coeff))
      return fail(Error, "truncated coefficients");
    if (!std::isfinite(Coeff))
      return fail(Error, "non-finite coefficient");
  }
  Row.Cost = Polynomial(std::move(Coeffs));
  if (!In.f64(Row.Residual))
    return fail(Error, "truncated row residual");
  if (!std::isfinite(Row.Residual) || Row.Residual < 0.0)
    return fail(Error, "non-finite row residual");
  if (!In.atEnd())
    return fail(Error, "oversized row payload");
  return true;
}

bool decodeArtifact(std::string_view Bytes, ModelArtifact &Out,
                    std::string *Error) {
  codec::Reader In(Bytes);
  if (!codec::readHeader(In, ModelDoc, Error))
    return false;
  std::string_view Header;
  if (!codec::readSection(In, "header", Header, Error) ||
      !decodeHeaderPayload(Header, Out, Error))
    return false;

  uint64_t RowCount = 0;
  if (!In.varint(RowCount))
    return fail(Error, "truncated row count");
  Out.Rows.reserve(std::min<uint64_t>(RowCount, codec::MaxReserve));
  for (uint64_t I = 0; I != RowCount; ++I) {
    std::string_view Payload;
    ModelArtifact::Row Row;
    if (!codec::readSection(In, "row", Payload, Error) ||
        !decodeRowPayload(Payload, Row, Error))
      return false;
    if (!Out.Rows.empty() &&
        !ModelArtifact::Row::orderedBefore(Out.Rows.back(), Row))
      return fail(Error, "rows out of canonical order");
    Out.Rows.push_back(std::move(Row));
  }
  if (!In.atEnd())
    return fail(Error, "trailing bytes after row records");
  return true;
}

} // namespace

bool ModelArtifact::Row::orderedBefore(const Row &A, const Row &B) {
  if (A.Kind != B.Kind)
    return A.Kind < B.Kind;
  if (A.Variant != B.Variant)
    return A.Variant < B.Variant;
  if (A.Op != B.Op)
    return A.Op < B.Op;
  return A.Dim < B.Dim;
}

std::string cswitch::fleet::hostFingerprint() {
  std::string Node = "unknown";
  std::string Arch = "unknown";
#ifdef CSWITCH_FLEET_POSIX
  utsname Uts = {};
  if (::uname(&Uts) == 0) {
    Node = Uts.nodename;
    Arch = Uts.machine;
  }
#endif
  unsigned Cores = std::thread::hardware_concurrency();
  return Node + "/" + Arch + "/c" + std::to_string(Cores ? Cores : 1);
}

std::string cswitch::fleet::encodeModelArtifact(const ModelArtifact &Artifact) {
  // Canonical order regardless of the caller's: encode a sorted view.
  std::vector<size_t> Order(Artifact.Rows.size());
  std::iota(Order.begin(), Order.end(), size_t{0});
  std::sort(Order.begin(), Order.end(), [&Artifact](size_t A, size_t B) {
    return ModelArtifact::Row::orderedBefore(Artifact.Rows[A],
                                             Artifact.Rows[B]);
  });

  std::string Out;
  Out.reserve(ModelDoc.Magic.size() + 32 + Artifact.Rows.size() * 56);
  codec::putHeader(Out, ModelDoc);
  codec::putSection(Out, encodeHeaderPayload(Artifact));
  codec::putVarint(Out, Artifact.Rows.size());
  for (size_t I : Order)
    codec::putSection(Out, encodeRowPayload(Artifact.Rows[I]));
  return Out;
}

bool cswitch::fleet::decodeModelArtifact(std::string_view Bytes,
                                         ModelArtifact &Out,
                                         std::string *Error) {
  return codec::decodeOrReset(
      Out, [&] { return decodeArtifact(Bytes, Out, Error); });
}

bool cswitch::fleet::writeModelArtifactToFile(const std::string &Path,
                                              const ModelArtifact &Artifact,
                                              std::string *Error) {
  // A reader (or a restarting process pointing CSWITCH_MODEL here)
  // observes either the complete old artifact or the complete new one.
  return codec::installFile(Path, encodeModelArtifact(Artifact), "model",
                            Error);
}

bool cswitch::fleet::readModelArtifactFromFile(const std::string &Path,
                                               ModelArtifact &Out,
                                               std::string *Error) {
  std::string Bytes;
  if (!codec::readFile(Path, Bytes, "model", Error)) {
    Out = ModelArtifact();
    return false;
  }
  return decodeModelArtifact(Bytes, Out, Error);
}

ModelArtifact cswitch::fleet::artifactFromModel(const PerformanceModel &Model) {
  ModelArtifact Artifact;
  for (unsigned Kind = 0; Kind != NumAbstractionKinds; ++Kind) {
    AbstractionKind Abstraction = static_cast<AbstractionKind>(Kind);
    for (unsigned Variant = 0; Variant != numVariantsOf(Abstraction);
         ++Variant) {
      VariantId Id{Abstraction, Variant};
      for (OperationKind Op : AllOperationKinds)
        for (CostDimension Dim : AllCostDimensions) {
          const Polynomial &Cost = Model.cost(Id, Op, Dim);
          if (Cost.coefficients().empty())
            continue;
          Artifact.Rows.push_back({Abstraction, Variant, Op, Dim, Cost, 0.0});
        }
    }
  }
  return Artifact;
}

PerformanceModel
cswitch::fleet::modelFromArtifact(const ModelArtifact &Artifact) {
  PerformanceModel Model;
  for (const ModelArtifact::Row &Row : Artifact.Rows)
    Model.setCost({Row.Kind, Row.Variant}, Row.Op, Row.Dim, Row.Cost);
  // Artifact fit metadata feeds the decision provenance header
  // (/explain.json, cswitch_top): record which recalibrated model is
  // about to drive selections.
  ModelStats Provenance;
  Provenance.Source = "cswitch-model-v2";
  Provenance.Fingerprint = Artifact.HostFingerprint;
  Provenance.FitTimestamp = Artifact.FitTimestamp;
  Provenance.HoldoutResidual = Artifact.HoldoutResidual;
  ModelRegistry::global().recordInstall(Provenance);
  return Model;
}
