//===- CostModel.cpp - Per-variant operation cost models -----------------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//

#include "model/CostModel.h"

#include "support/Codec.h"

#include <cassert>
#include <cmath>
#include <fstream>
#include <set>
#include <sstream>

using namespace cswitch;

const char *cswitch::costDimensionName(CostDimension Dim) {
  switch (Dim) {
  case CostDimension::Time:
    return "time";
  case CostDimension::Alloc:
    return "alloc";
  case CostDimension::Energy:
    return "energy";
  case CostDimension::Contention:
    return "contention";
  }
  return "unknown";
}

bool cswitch::parseCostDimension(const std::string &Name,
                                 CostDimension &Out) {
  for (CostDimension Dim : AllCostDimensions) {
    if (Name == costDimensionName(Dim)) {
      Out = Dim;
      return true;
    }
  }
  return false;
}

PerformanceModel::PerformanceModel() {
  size_t Offset = 0;
  for (size_t A = 0; A != NumAbstractionKinds; ++A) {
    AbstractionOffsets[A] = Offset;
    Offset += numVariantsOf(static_cast<AbstractionKind>(A)) *
              NumOperationKinds * NumCostDimensions;
  }
  Costs.resize(Offset);
}

size_t PerformanceModel::indexOf(VariantId Variant, OperationKind Op,
                                 CostDimension Dim) const {
  size_t A = static_cast<size_t>(Variant.Abstraction);
  assert(Variant.Index < numVariantsOf(Variant.Abstraction) &&
         "variant index out of range");
  return AbstractionOffsets[A] +
         (Variant.Index * NumOperationKinds + static_cast<size_t>(Op)) *
             NumCostDimensions +
         static_cast<size_t>(Dim);
}

void PerformanceModel::setCost(VariantId Variant, OperationKind Op,
                               CostDimension Dim, Polynomial Cost) {
  assert(Dim != CostDimension::Energy &&
         "energy is derived from time and alloc, never set");
  bool NonEmpty = !Cost.coefficients().empty();
  Costs[indexOf(Variant, Op, Dim)] = std::move(Cost);
  if (Dim != CostDimension::Contention)
    Costs[indexOf(Variant, Op, CostDimension::Energy)] =
        cost(Variant, Op, CostDimension::Time)
            .scaled(NanojoulesPerNanosecond) +
        cost(Variant, Op, CostDimension::Alloc).scaled(NanojoulesPerByte);
  size_t A = static_cast<size_t>(Variant.Abstraction);
  uint32_t Bit = 1u << Variant.Index;
  if (NonEmpty) {
    Coverage[A] |= Bit;
    return;
  }
  if (!(Coverage[A] & Bit))
    return;
  // An installed polynomial was cleared: the bit survives only if some
  // other (op, stored dimension) slot of this variant is still populated.
  for (OperationKind O : AllOperationKinds)
    for (CostDimension D : StoredCostDimensions)
      if (!cost(Variant, O, D).coefficients().empty())
        return;
  Coverage[A] &= ~Bit;
}

const Polynomial &PerformanceModel::cost(VariantId Variant, OperationKind Op,
                                         CostDimension Dim) const {
  return Costs[indexOf(Variant, Op, Dim)];
}

double PerformanceModel::operationCost(VariantId Variant, OperationKind Op,
                                       CostDimension Dim,
                                       double Size) const {
  return cost(Variant, Op, Dim).evaluateNonNegative(Size);
}

double PerformanceModel::totalCost(VariantId Variant,
                                   const WorkloadProfile &Profile,
                                   CostDimension Dim) const {
  double Size = static_cast<double>(Profile.MaxSize);
  double Total = 0.0;
  for (OperationKind Op : AllOperationKinds) {
    uint64_t N = Profile.count(Op);
    if (N == 0)
      continue;
    Total += static_cast<double>(N) * operationCost(Variant, Op, Dim, Size);
  }
  return Total;
}

CostVector
PerformanceModel::totalCostVector(VariantId Variant,
                                  const WorkloadProfile &Profile,
                                  double ThreadCount) const {
  double Size = static_cast<double>(Profile.MaxSize);
  CostVector Out;
  for (OperationKind Op : AllOperationKinds) {
    uint64_t N = Profile.count(Op);
    if (N == 0)
      continue;
    double Scale = static_cast<double>(N);
    for (CostDimension Dim : AllCostDimensions) {
      double Arg = Dim == CostDimension::Contention ? ThreadCount : Size;
      Out.of(Dim) += Scale * operationCost(Variant, Op, Dim, Arg);
    }
  }
  return Out;
}

bool PerformanceModel::hasVariant(VariantId Variant) const {
  assert(Variant.Index < numVariantsOf(Variant.Abstraction) &&
         "variant index out of range");
  return (Coverage[static_cast<size_t>(Variant.Abstraction)] >>
          Variant.Index) &
         1u;
}

void PerformanceModel::save(std::ostream &OS,
                            const std::vector<std::string> &Comments) const {
  OS << "cswitch-performance-model v1\n";
  for (const std::string &Comment : Comments)
    OS << "# " << Comment << '\n';
  OS.precision(17);
  for (size_t A = 0; A != NumAbstractionKinds; ++A) {
    auto Kind = static_cast<AbstractionKind>(A);
    for (size_t V = 0, E = numVariantsOf(Kind); V != E; ++V) {
      VariantId Id{Kind, static_cast<unsigned>(V)};
      for (OperationKind Op : AllOperationKinds) {
        for (CostDimension Dim : StoredCostDimensions) {
          const Polynomial &P = cost(Id, Op, Dim);
          if (P.coefficients().empty())
            continue;
          OS << abstractionKindName(Kind) << ' ' << Id.name() << ' '
             << operationKindName(Op) << ' ' << costDimensionName(Dim);
          for (double C : P.coefficients())
            OS << ' ' << C;
          OS << '\n';
        }
      }
    }
  }
}

namespace {

/// Formats "line N: <what>" into *Error (when provided) and returns
/// false, so load() can `return fail(...)` at every reject site.
bool fail(std::string *Error, size_t LineNo, const std::string &What) {
  if (Error)
    *Error = "line " + std::to_string(LineNo) + ": " + What;
  return false;
}

} // namespace

bool PerformanceModel::load(std::istream &IS, std::string *Error) {
  std::string Header;
  if (!std::getline(IS, Header) ||
      Header != "cswitch-performance-model v1")
    return fail(Error, 1, "not a cswitch-performance-model v1 document");

  // Rows go into a fresh model that replaces this one only once the
  // whole document parsed, so a refused document changes nothing.
  PerformanceModel Parsed;
  // A well-formed document carries at most one polynomial per
  // (variant, operation, dimension) cell; a duplicate means the file
  // was corrupted or concatenated, and silently keeping the last row
  // would mask that.
  std::set<size_t> SeenCells;

  std::string Line;
  size_t LineNo = 1;
  while (std::getline(IS, Line)) {
    ++LineNo;
    if (Line.empty() || Line[0] == '#')
      continue;
    std::istringstream LS(Line);
    std::string Abstraction, VariantName, OpName, DimName;
    if (!(LS >> Abstraction >> VariantName >> OpName >> DimName))
      return fail(Error, LineNo, "truncated row");

    VariantId Id{AbstractionKind::List, 0};
    if (Abstraction == "list") {
      ListVariant V;
      if (!parseListVariant(VariantName, V))
        return fail(Error, LineNo, "unknown list variant '" + VariantName +
                                       "'");
      Id = VariantId::of(V);
    } else if (Abstraction == "set") {
      SetVariant V;
      if (!parseSetVariant(VariantName, V))
        return fail(Error, LineNo,
                    "unknown set variant '" + VariantName + "'");
      Id = VariantId::of(V);
    } else if (Abstraction == "map") {
      MapVariant V;
      if (!parseMapVariant(VariantName, V))
        return fail(Error, LineNo,
                    "unknown map variant '" + VariantName + "'");
      Id = VariantId::of(V);
    } else {
      return fail(Error, LineNo,
                  "unknown abstraction '" + Abstraction + "'");
    }

    OperationKind Op;
    if (!parseOperationKind(OpName.c_str(), Op))
      return fail(Error, LineNo, "unknown operation '" + OpName + "'");
    CostDimension Dim;
    if (!parseCostDimension(DimName, Dim))
      return fail(Error, LineNo, "unknown cost dimension '" + DimName + "'");
    if (Dim == CostDimension::Energy)
      return fail(Error, LineNo,
                  "energy rows are not stored: energy is derived from "
                  "time and alloc");

    if (!SeenCells.insert(indexOf(Id, Op, Dim)).second)
      return fail(Error, LineNo,
                  "duplicate row for " + Abstraction + " " + Id.name() +
                      " " + OpName + " " + DimName);

    std::vector<double> Coeffs;
    double C;
    while (LS >> C) {
      if (Coeffs.size() == MaxModelCoefficients)
        return fail(Error, LineNo,
                    "row has more than " +
                        std::to_string(MaxModelCoefficients) +
                        " coefficients");
      // operator>> accepts "nan"/"inf" spellings on common libstdc++
      // configurations; a non-finite coefficient would poison every
      // cost comparison downstream, so reject it here.
      if (!std::isfinite(C))
        return fail(Error, LineNo, "non-finite coefficient");
      Coeffs.push_back(C);
    }
    if (Coeffs.empty())
      return fail(Error, LineNo, "row has no coefficients");
    if (!LS.eof()) {
      std::string Rest;
      LS.clear();
      LS >> Rest;
      return fail(Error, LineNo,
                  "trailing garbage '" + Rest + "' after coefficients");
    }
    Parsed.setCost(Id, Op, Dim, Polynomial(std::move(Coeffs)));
  }
  *this = std::move(Parsed);
  return true;
}

bool PerformanceModel::saveToFile(const std::string &Path,
                                  const std::vector<std::string> &Comments,
                                  std::string *Error) const {
  std::ostringstream OS;
  save(OS, Comments);
  return codec::installFile(Path, OS.str(), "model", Error);
}

bool PerformanceModel::loadFromFile(const std::string &Path,
                                    std::string *Error) {
  std::ifstream IS(Path);
  if (!IS) {
    if (Error)
      *Error = "cannot open " + Path;
    return false;
  }
  return load(IS, Error);
}
