//===- ModelDocumentTest.cpp - The model document's accepted language ----===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// PerformanceModel::loadText reads the text model in one pass with
/// std::from_chars. The language it accepts was defined by the
/// line-at-a-time `std::istringstream` loader it replaced, which these
/// tests keep as the reference: on the checked-in model, on hand-picked
/// spellings and on a seeded mutation loop over the model file, both
/// must accept the same documents with bit-identical coefficients, and
/// refuse the same documents with the same line-numbered error.
///
//===----------------------------------------------------------------------===//

#include "model/CostModel.h"
#include "model/DefaultModel.h"
#include "support/Codec.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <set>
#include <sstream>
#include <tuple>

using namespace cswitch;

namespace {

const std::string CheckedInModel = CSWITCH_DATA_DIR "/cswitch_model.txt";

bool referenceFail(std::string *Error, size_t LineNo, const std::string &What) {
  if (Error)
    *Error = "line " + std::to_string(LineNo) + ": " + What;
  return false;
}

/// The loader the format was defined with: std::getline per line, then
/// `>>` extractions from a classic-locale std::istringstream.
bool referenceLoad(const std::string &Document, PerformanceModel &Out,
                   std::string *Error) {
  std::istringstream IS(Document);
  std::string Header;
  if (!std::getline(IS, Header) ||
      Header != "cswitch-performance-model v1")
    return referenceFail(Error, 1,
                         "not a cswitch-performance-model v1 document");
  PerformanceModel Parsed;
  std::set<std::tuple<unsigned, unsigned, unsigned, unsigned>> SeenCells;
  std::string Line;
  size_t LineNo = 1;
  while (std::getline(IS, Line)) {
    ++LineNo;
    if (Line.empty() || Line[0] == '#')
      continue;
    std::istringstream LS(Line);
    std::string Abstraction, VariantName, OpName, DimName;
    if (!(LS >> Abstraction >> VariantName >> OpName >> DimName))
      return referenceFail(Error, LineNo, "truncated row");
    VariantId Id{AbstractionKind::List, 0};
    if (Abstraction == "list") {
      ListVariant V;
      if (!parseListVariant(VariantName, V))
        return referenceFail(Error, LineNo,
                             "unknown list variant '" + VariantName + "'");
      Id = VariantId::of(V);
    } else if (Abstraction == "set") {
      SetVariant V;
      if (!parseSetVariant(VariantName, V))
        return referenceFail(Error, LineNo,
                             "unknown set variant '" + VariantName + "'");
      Id = VariantId::of(V);
    } else if (Abstraction == "map") {
      MapVariant V;
      if (!parseMapVariant(VariantName, V))
        return referenceFail(Error, LineNo,
                             "unknown map variant '" + VariantName + "'");
      Id = VariantId::of(V);
    } else {
      return referenceFail(Error, LineNo,
                           "unknown abstraction '" + Abstraction + "'");
    }
    OperationKind Op;
    if (!parseOperationKind(OpName.c_str(), Op))
      return referenceFail(Error, LineNo,
                           "unknown operation '" + OpName + "'");
    CostDimension Dim;
    if (!parseCostDimension(DimName, Dim))
      return referenceFail(Error, LineNo,
                           "unknown cost dimension '" + DimName + "'");
    if (Dim == CostDimension::Energy)
      return referenceFail(Error, LineNo,
                           "energy rows are not stored: energy is derived "
                           "from time and alloc");
    if (!SeenCells
             .insert({static_cast<unsigned>(Id.Abstraction), Id.Index,
                      static_cast<unsigned>(Op), static_cast<unsigned>(Dim)})
             .second)
      return referenceFail(Error, LineNo,
                           "duplicate row for " + Abstraction + " " +
                               Id.name() + " " + OpName + " " + DimName);
    std::vector<double> Coeffs;
    double C;
    while (LS >> C) {
      if (Coeffs.size() == MaxModelCoefficients)
        return referenceFail(Error, LineNo,
                             "row has more than " +
                                 std::to_string(MaxModelCoefficients) +
                                 " coefficients");
      if (!std::isfinite(C))
        return referenceFail(Error, LineNo, "non-finite coefficient");
      Coeffs.push_back(C);
    }
    if (Coeffs.empty())
      return referenceFail(Error, LineNo, "row has no coefficients");
    if (!LS.eof()) {
      std::string Rest;
      LS.clear();
      LS >> Rest;
      return referenceFail(Error, LineNo,
                           "trailing garbage '" + Rest +
                               "' after coefficients");
    }
    Parsed.setCost(Id, Op, Dim, Polynomial(std::move(Coeffs)));
  }
  Out = std::move(Parsed);
  return true;
}

std::string readCheckedInModel() {
  std::string Document, Error;
  EXPECT_TRUE(codec::readFile(CheckedInModel, Document, "model", &Error))
      << Error;
  return Document;
}

/// Loads \p Document into a model already holding the default model and
/// asserts the loader contract against the reference: the same verdict,
/// the same diagnostic, an unchanged model on refusal and the reference
/// model on acceptance.
void expectSameAsReference(const std::string &Document,
                           const std::string &Context) {
  const PerformanceModel Before = defaultPerformanceModel();
  PerformanceModel Loaded = Before, Reference;
  std::string Error, ReferenceError;
  bool Accepted = Loaded.loadText(Document, &Error);
  bool ReferenceAccepted = referenceLoad(Document, Reference, &ReferenceError);
  ASSERT_EQ(Accepted, ReferenceAccepted)
      << Context << ": loader says '" << Error << "', reference says '"
      << ReferenceError << "'";
  if (Accepted) {
    ASSERT_TRUE(Loaded == Reference) << Context;
    return;
  }
  ASSERT_EQ(Error, ReferenceError) << Context;
  ASSERT_EQ(Error.rfind("line ", 0), 0u) << Context << ": " << Error;
  ASSERT_TRUE(Loaded == Before) << Context << ": refused but changed";
}

std::vector<std::string> splitWords(const std::string &Line) {
  std::istringstream IS(Line);
  std::vector<std::string> Words;
  for (std::string Word; IS >> Word;)
    Words.push_back(Word);
  return Words;
}

/// The cell a row's first four words name.
bool cellOf(const std::vector<std::string> &Words, VariantId &Id,
            OperationKind &Op, CostDimension &Dim) {
  if (Words.size() < 4 || !parseOperationKind(Words[2], Op) ||
      !parseCostDimension(Words[3], Dim))
    return false;
  for (size_t A = 0; A != NumAbstractionKinds; ++A) {
    auto Kind = static_cast<AbstractionKind>(A);
    if (Words[0] != abstractionKindName(Kind))
      continue;
    for (unsigned V = 0; V != numVariantsOf(Kind); ++V)
      if (VariantId{Kind, V}.name() == Words[1]) {
        Id = {Kind, V};
        return true;
      }
  }
  return false;
}

TEST(ModelDocument, CheckedInModelDecodesEachTokenWithStrtod) {
  std::string Document = readCheckedInModel();
  PerformanceModel Model;
  std::string Error;
  ASSERT_TRUE(Model.loadText(Document, &Error)) << Error;

  std::istringstream Lines(Document);
  std::string Line;
  std::getline(Lines, Line);
  size_t Rows = 0;
  while (std::getline(Lines, Line)) {
    std::vector<std::string> Words = splitWords(Line);
    ASSERT_GE(Words.size(), 5u) << Line;
    VariantId Id;
    OperationKind Op;
    CostDimension Dim;
    ASSERT_TRUE(cellOf(Words, Id, Op, Dim)) << Line;
    const std::vector<double> &Coeffs = Model.cost(Id, Op, Dim).coefficients();
    ASSERT_EQ(Coeffs.size(), Words.size() - 4) << Line;
    for (size_t I = 0; I != Coeffs.size(); ++I) {
      double Expected = std::strtod(Words[4 + I].c_str(), nullptr);
      EXPECT_EQ(std::memcmp(&Coeffs[I], &Expected, sizeof(double)), 0)
          << Line << ": coefficient " << I << " reads " << Coeffs[I]
          << ", strtod gives " << Expected;
    }
    ++Rows;
  }
  EXPECT_EQ(Rows, 176u);

  // save() writes the document back byte for byte, and the reference
  // loader reads the same model.
  std::ostringstream Saved;
  Model.save(Saved);
  EXPECT_EQ(Saved.str(), Document);
  PerformanceModel Reference;
  ASSERT_TRUE(referenceLoad(Document, Reference, &Error)) << Error;
  EXPECT_TRUE(Model == Reference);
}

TEST(ModelDocument, LoadFromFileMatchesLoadFromStream) {
  PerformanceModel FromFile, FromStream;
  ASSERT_TRUE(FromFile.loadFromFile(CheckedInModel));
  std::istringstream IS(readCheckedInModel());
  ASSERT_TRUE(FromStream.load(IS));
  EXPECT_TRUE(FromFile == FromStream);
}

const char *const ModelHeader = "cswitch-performance-model v1\n";

TEST(ModelDocument, AcceptedSpellingsMatchTheReference) {
  for (const char *Rows : {
           "list ArrayList populate time +4 +0.5\n",
           "list ArrayList populate time .5 5. 1E5 1e+5 1e-5 -0 +0\n",
           "list ArrayList populate time 000012 0.000 -000.5e-0003\n",
           "list ArrayList populate time 4.9e-324 "
           "2.2250738585072014e-308\n",
           "list ArrayList populate time 1e-400 -1e-400 0e999\n",
           "list ArrayList populate time 1.7976931348623157e308\n",
           "\tlist\tArrayList  populate\vtime\f4\r\n",
           "list ArrayList populate time 4\r\n"
           "list ArrayList iterate time 2\r\n",
           "# comment\n\nlist ArrayList populate time 4",
           "list ArrayList populate time 4\n\n\n",
           "list ArrayList populate time 1 2 3 4 5 6 7 8 9 10 11 12 13 14 "
           "15 16\n",
           "set OpenHashSet contains alloc 1\n"
           "map TreeMap remove contention 2\n",
       })
    expectSameAsReference(std::string(ModelHeader) + Rows, Rows);
}

TEST(ModelDocument, RefusedSpellingsMatchTheReference) {
  for (const char *Rows : {
           "list ArrayList populate time 4 nan\n",
           "list ArrayList populate time 4 -nan 1\n",
           "list ArrayList populate time inf\n",
           "list ArrayList populate time 4 -inf\n",
           "list ArrayList populate time 4 infinity\n",
           "list ArrayList populate time 1e999 4\n",
           "list ArrayList populate time 4 -1e999 4\n",
           "list ArrayList populate time +-5\n",
           "list ArrayList populate time 0x10\n",
           "list ArrayList populate time 4 1,5\n",
           "list ArrayList populate time 4 - 5\n",
           "list ArrayList populate time 4 e5\n",
           "list ArrayList populate time\n",
           "list ArrayList populate\n",
           "   \n",
           "\r\n",
           " # an indented comment is a row\n",
           "list ArrayList populate time 1 2 3 4 5 6 7 8 9 10 11 12 13 14 "
           "15 16 17\n",
           "list ArrayList populate energy 4\n",
           "list ArrayList populate time 4\n"
           "list ArrayList populate time 4\n",
           "list ArrayList Populate time 4\n",
           "list arraylist populate time 4\n",
           "lists ArrayList populate time 4\n",
           "list ArrayList populate Time 4\n",
       })
    expectSameAsReference(std::string(ModelHeader) + Rows, Rows);
  for (const char *Document :
       {"", "\n", "cswitch-performance-model v1\r\n",
        " cswitch-performance-model v1\n", "cswitch-performance-model v2\n"})
    expectSameAsReference(Document, Document);
}

// The extraction the format was defined with ends a coefficient where
// the number pattern ends, not at white space, and a coefficient that
// does not parse but runs to the end of its row ends the row. Both are
// kept, so every document the old loader accepted still loads the same.
TEST(ModelDocument, CoefficientsEndWhereTheNumberPatternEnds) {
  PerformanceModel Model;
  VariantId Id = VariantId::of(ListVariant::ArrayList);
  std::string Document = std::string(ModelHeader) +
                         "list ArrayList populate time 1.5.25 1-2 3e2.5\n";
  ASSERT_TRUE(Model.loadText(Document));
  EXPECT_EQ(Model.cost(Id, OperationKind::Populate, CostDimension::Time),
            Polynomial({1.5, 0.25, 1, -2, 300, 0.5}));
  for (const char *Last : {"-", "+", ".", "1e", "1e+", "1e999"}) {
    std::string Row = std::string(ModelHeader) +
                      "list ArrayList populate time 4 " + Last + "\n";
    ASSERT_TRUE(Model.loadText(Row)) << Last;
    EXPECT_EQ(Model.cost(Id, OperationKind::Populate, CostDimension::Time),
              Polynomial({4})) << Last;
    expectSameAsReference(Row, Last);
  }
}

TEST(ModelDocument, NulBytesMatchTheReference) {
  using namespace std::string_literals;
  for (const std::string &Rows :
       {"list ArrayList populate\0x time 4\n"s,
        "list ArrayList\0 populate time 4\n"s,
        "list ArrayList populate time 4\0\n"s,
        "list ArrayList populate time 4 \0 5\n"s,
        "\0list ArrayList populate time 4\n"s})
    expectSameAsReference(ModelHeader + Rows, "NUL row");
}

/// One seeded hostile edit of \p Document.
std::string mutate(const std::string &Document, SplitMix64 &Rng) {
  static const char *const Spellings[] = {
      "nan",  "-nan", "NaN",    "inf",   "-inf",   "+inf", "infinity",
      "INF",  "1e999", "-1e999", "1e+999", "1e-999", "+5",  "+-5",
      "0x1p3", ".",    "-",     "e5",    "1e",     "1.2.3", "+.5",
      "5.",   "00",   "1E5",   "4.9e-324", "\t", "\r", "#"};
  std::string Out = Document;
  size_t Pos = Rng.nextBelow(Out.size());
  switch (Rng.nextBelow(9)) {
  case 0: // Flip one byte to any value.
    Out[Pos] = static_cast<char>(Rng.nextBelow(256));
    break;
  case 1: // CRLF line ends from some line on.
    for (size_t I = Out.find('\n', Pos); I != std::string::npos;
         I = Out.find('\n', I + 2))
      Out.insert(I, 1, '\r');
    break;
  case 2: // A NUL byte.
    Out.insert(Pos, 1, '\0');
    break;
  case 3: { // A 64 KB line: a comment, a coefficient or white space.
    size_t Eol = Out.find('\n', Pos);
    std::string Long(64 * 1024, "#0 "[Rng.nextBelow(3)]);
    if (Long[0] == '0')
      Long = " 0." + Long + "1";
    Out.insert(Eol == std::string::npos ? Out.size() : Eol, Long);
    break;
  }
  case 4: { // Seventeen coefficients on one row.
    size_t Eol = Out.find('\n', Pos);
    std::string Extra;
    for (int I = 0; I != 13; ++I)
      Extra += " 1";
    Out.insert(Eol == std::string::npos ? Out.size() : Eol, Extra);
    break;
  }
  case 5: { // Replace one word with a hostile spelling.
    size_t Begin = Out.find_last_of(" \n", Pos);
    Begin = Begin == std::string::npos ? 0 : Begin + 1;
    size_t End = Out.find_first_of(" \n", Begin);
    Out.replace(Begin, (End == std::string::npos ? Out.size() : End) - Begin,
                Spellings[Rng.nextBelow(std::size(Spellings))]);
    break;
  }
  case 6: { // Duplicate a line.
    size_t Begin = Out.rfind('\n', Pos);
    Begin = Begin == std::string::npos ? 0 : Begin + 1;
    size_t End = Out.find('\n', Begin);
    End = End == std::string::npos ? Out.size() : End + 1;
    Out.insert(End, Out.substr(Begin, End - Begin));
    break;
  }
  case 7: // Truncate.
    Out.resize(Pos);
    break;
  default: // Delete a byte.
    Out.erase(Pos, 1);
    break;
  }
  return Out;
}

TEST(ModelDocumentFuzz, MutationsMatchTheReference) {
  const std::string Document = readCheckedInModel();
  ASSERT_FALSE(Document.empty());
  SplitMix64 Rng(0x28);
  for (int I = 0; I != 400; ++I) {
    std::string Mutant = mutate(Document, Rng);
    // Stack a second edit on every fourth mutant.
    if (I % 4 == 3)
      Mutant = mutate(Mutant, Rng);
    expectSameAsReference(Mutant, "mutant " + std::to_string(I));
    if (testing::Test::HasFatalFailure())
      return;
  }
}

TEST(ModelDocumentFuzz, TruncationAtEveryByte) {
  const std::string Document = readCheckedInModel();
  // Every prefix of a short document, against the reference.
  size_t Short = 0;
  for (int Line = 0; Line != 14; ++Line)
    Short = Document.find('\n', Short) + 1;
  for (size_t Len = 0; Len <= Short; ++Len) {
    expectSameAsReference(Document.substr(0, Len),
                          "prefix of " + std::to_string(Len) + " bytes");
    if (testing::Test::HasFatalFailure())
      return;
  }
  // Every prefix of the whole file: a refusal names the cut line and
  // changes nothing; an acceptance loads the rows before the cut line
  // and, from the cut row, a prefix of its coefficients (the last one
  // possibly cut short).
  PerformanceModel Whole;
  ASSERT_TRUE(Whole.loadText(Document));
  const PerformanceModel Before = defaultPerformanceModel();
  PerformanceModel Complete;
  size_t CompleteEnd = std::string::npos, CutLine = 0;
  for (size_t Len = Short; Len != Document.size(); ++Len) {
    std::string_view Prefix(Document.data(), Len);
    size_t LineBegin = Prefix.rfind('\n') + 1;
    if (LineBegin != CompleteEnd) {
      ASSERT_TRUE(Complete.loadText(Prefix.substr(0, LineBegin)));
      CompleteEnd = LineBegin;
      CutLine = 1 + std::count(Prefix.begin(), Prefix.end(), '\n');
    }
    PerformanceModel Loaded = Before;
    std::string Error;
    if (!Loaded.loadText(Prefix, &Error)) {
      ASSERT_EQ(Error.rfind("line " + std::to_string(CutLine) + ":", 0), 0u)
          << Len << ": " << Error;
      ASSERT_TRUE(Loaded == Before) << Len;
      continue;
    }
    PerformanceModel Expected = Complete;
    std::vector<std::string> Words =
        splitWords(std::string(Prefix.substr(LineBegin)));
    if (!Words.empty()) {
      VariantId Id;
      OperationKind Op;
      CostDimension Dim;
      ASSERT_TRUE(cellOf(Words, Id, Op, Dim)) << Len;
      const Polynomial &Cut = Loaded.cost(Id, Op, Dim);
      const std::vector<double> &Full = Whole.cost(Id, Op, Dim).coefficients();
      ASSERT_LE(Cut.coefficients().size(), Full.size()) << Len;
      ASSERT_TRUE(std::equal(Cut.coefficients().begin(),
                             Cut.coefficients().end() - 1, Full.begin()))
          << Len;
      Expected.setCost(Id, Op, Dim, Cut);
    }
    ASSERT_TRUE(Loaded == Expected) << Len;
  }
}

} // namespace
