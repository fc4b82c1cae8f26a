//===- CostModel.cpp - Per-variant operation cost models -----------------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//

#include "model/CostModel.h"

#include "support/Codec.h"

#include <cassert>
#include <charconv>
#include <cstring>
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

bool cswitch::parseCostDimension(std::string_view Name, CostDimension &Out) {
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
    Costs[indexOf(Variant, Op, CostDimension::Energy)].assignLinear(
        cost(Variant, Op, CostDimension::Time), NanojoulesPerNanosecond,
        cost(Variant, Op, CostDimension::Alloc), NanojoulesPerByte);
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

/// The characters the classic locale classifies as white space.
bool isSpace(char C) { return C == ' ' || (C >= '\t' && C <= '\r'); }

/// A cursor over one row that splits it exactly as the format's
/// defining extractions, `>> std::string` and `>> double` on a
/// classic-locale stream, do.
struct RowCursor {
  const char *P, *End;

  bool atEnd() const { return P == End; }

  void skipSpace() {
    while (P != End && isSpace(*P))
      ++P;
  }

  void skipDigits() {
    while (P != End && *P >= '0' && *P <= '9')
      ++P;
  }

  /// The next white-space-delimited word; empty at the end of the row.
  std::string_view word() {
    skipSpace();
    const char *Begin = P;
    while (P != End && !isSpace(*P))
      ++P;
    return {Begin, static_cast<size_t>(P - Begin)};
  }

  /// The next coefficient. Consumes the longest prefix of the rest of
  /// the row that has the shape [+-] digits [. digits] [eE [+-] digits]
  /// (so "1.5.5" reads as 1.5 then .5) and \returns false when that
  /// prefix is no number (no mantissa digit, or an exponent without
  /// digits) or overflows a double; an underflow reads as a signed zero.
  bool number(double &Out) {
    skipSpace();
    const char *Begin = P;
    if (P != End && (*P == '+' || *P == '-'))
      ++P;
    const char *Whole = P;
    skipDigits();
    bool Digits = P != Whole;
    if (P != End && *P == '.') {
      const char *Fraction = ++P;
      skipDigits();
      Digits |= P != Fraction;
    }
    if (Digits && P != End && (*P == 'e' || *P == 'E')) {
      ++P;
      if (P != End && (*P == '+' || *P == '-'))
        ++P;
      const char *ExpDigits = P;
      skipDigits();
      if (P == ExpDigits)
        return false;
    }
    if (!Digits)
      return false;
    // from_chars takes no leading '+'.
    const char *First = *Begin == '+' ? Begin + 1 : Begin;
    auto [Ptr, Ec] = std::from_chars(First, P, Out);
    if (Ec == std::errc::result_out_of_range) {
      // Beyond a double's range: decide as the defining extraction does
      // (an overflow fails, an underflow reads as strtod's signed zero).
      std::istringstream Number(std::string(First, P));
      Number.imbue(std::locale::classic());
      return static_cast<bool>(Number >> Out);
    }
    return Ec == std::errc() && Ptr == P;
  }
};

} // namespace

bool PerformanceModel::load(std::istream &IS, std::string *Error) {
  std::string Document;
  if (!codec::readAll(IS, Document))
    return codec::fail(Error, "I/O error reading the model document");
  return loadText(Document, Error);
}

bool PerformanceModel::loadText(std::string_view Document,
                                std::string *Error) {
  const char *P = Document.data(), *End = P + Document.size();
  // Lines end at '\n' (a '\r' before it is white space to the row
  // splitter, but not to the header comparison).
  auto NextLine = [&] {
    const char *Eol = static_cast<const char *>(
        std::memchr(P, '\n', static_cast<size_t>(End - P)));
    std::string_view Line(P, static_cast<size_t>((Eol ? Eol : End) - P));
    P = Eol ? Eol + 1 : End;
    return Line;
  };
  if (Document.empty() || NextLine() != "cswitch-performance-model v1")
    return fail(Error, 1, "not a cswitch-performance-model v1 document");

  // Rows go into a fresh model that replaces this one only once the
  // whole document parsed, so a refused document changes nothing.
  PerformanceModel Parsed;
  size_t LineNo = 1;
  while (P != End) {
    std::string_view Line = NextLine();
    ++LineNo;
    if (Line.empty() || Line[0] == '#')
      continue;
    RowCursor Row{Line.data(), Line.data() + Line.size()};
    std::string_view Abstraction = Row.word(), VariantName = Row.word(),
                     OpName = Row.word(), DimName = Row.word();
    if (DimName.empty())
      return fail(Error, LineNo, "truncated row");

    VariantId Id{AbstractionKind::List, 0};
    if (Abstraction == "list") {
      ListVariant V;
      if (!parseListVariant(VariantName, V))
        return fail(Error, LineNo, "unknown list variant '" +
                                       std::string(VariantName) + "'");
      Id = VariantId::of(V);
    } else if (Abstraction == "set") {
      SetVariant V;
      if (!parseSetVariant(VariantName, V))
        return fail(Error, LineNo, "unknown set variant '" +
                                       std::string(VariantName) + "'");
      Id = VariantId::of(V);
    } else if (Abstraction == "map") {
      MapVariant V;
      if (!parseMapVariant(VariantName, V))
        return fail(Error, LineNo, "unknown map variant '" +
                                       std::string(VariantName) + "'");
      Id = VariantId::of(V);
    } else {
      return fail(Error, LineNo,
                  "unknown abstraction '" + std::string(Abstraction) + "'");
    }

    // The operation name is matched up to an embedded NUL, as the
    // C-string lookup this format was first read with did.
    OperationKind Op;
    if (!parseOperationKind(OpName.substr(0, OpName.find('\0')), Op))
      return fail(Error, LineNo,
                  "unknown operation '" + std::string(OpName) + "'");
    CostDimension Dim;
    if (!parseCostDimension(DimName, Dim))
      return fail(Error, LineNo,
                  "unknown cost dimension '" + std::string(DimName) + "'");
    if (Dim == CostDimension::Energy)
      return fail(Error, LineNo,
                  "energy rows are not stored: energy is derived from "
                  "time and alloc");

    // A well-formed document carries at most one polynomial per
    // (variant, operation, dimension) cell; a duplicate means the file
    // was corrupted or concatenated, and silently keeping the last row
    // would mask that. Every accepted row sets a non-empty polynomial,
    // so a filled cell is a seen one.
    if (!Parsed.cost(Id, Op, Dim).coefficients().empty())
      return fail(Error, LineNo,
                  "duplicate row for " + std::string(Abstraction) + " " +
                      Id.name() + " " + std::string(OpName) + " " +
                      std::string(DimName));

    std::array<double, MaxModelCoefficients> Coeffs = {};
    size_t NumCoeffs = 0;
    double C = 0.0;
    while (Row.number(C)) {
      if (NumCoeffs == MaxModelCoefficients)
        return fail(Error, LineNo,
                    "row has more than " +
                        std::to_string(MaxModelCoefficients) +
                        " coefficients");
      Coeffs[NumCoeffs++] = C;
    }
    if (NumCoeffs == 0)
      return fail(Error, LineNo, "row has no coefficients");
    // A coefficient that does not parse ends the row; it is an error
    // unless it ran to the end of the line.
    if (!Row.atEnd())
      return fail(Error, LineNo,
                  "trailing garbage '" + std::string(Row.word()) +
                      "' after coefficients");
    Parsed.setCost(Id, Op, Dim,
                   Polynomial(std::vector<double>(
                       Coeffs.begin(), Coeffs.begin() + NumCoeffs)));
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
  std::string Document;
  return codec::readFile(Path, Document, "model", Error) &&
         loadText(Document, Error);
}
