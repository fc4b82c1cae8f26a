//===- ModelArtifactTest.cpp - cswitch-model-v2 codec tests ---------------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//

#include "fleet/ModelArtifact.h"

#include "model/DefaultModel.h"
#include "support/Codec.h"

#include "ExpectTotalDecoder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

using namespace cswitch;
using namespace cswitch::fleet;

namespace {

ModelArtifact sampleArtifact() {
  ModelArtifact Artifact;
  Artifact.HostFingerprint = "testhost/x86_64/c8";
  Artifact.FitTimestamp = 1754006400; // Fixed; the codec never reads clocks.
  Artifact.HoldoutResidual = 0.125;
  Artifact.Rows.push_back({AbstractionKind::List, 0,
                           OperationKind::Populate, CostDimension::Time,
                           Polynomial({1.5, 0.25, 0.0, 1e-3}), 0.02});
  Artifact.Rows.push_back({AbstractionKind::List, 0,
                           OperationKind::Populate, CostDimension::Alloc,
                           Polynomial({32.0}), 0.0});
  Artifact.Rows.push_back({AbstractionKind::Set, 2,
                           OperationKind::Contains, CostDimension::Time,
                           Polynomial({4.0, 0.5}), 0.5});
  Artifact.Rows.push_back({AbstractionKind::Map, 1, OperationKind::Remove,
                           CostDimension::Contention, Polynomial(), 0.0});
  return Artifact;
}

TEST(ModelArtifact, EncodeDecodeRoundTrips) {
  ModelArtifact Artifact = sampleArtifact();
  std::string Bytes = encodeModelArtifact(Artifact);
  ModelArtifact Decoded;
  std::string Error;
  ASSERT_TRUE(decodeModelArtifact(Bytes, Decoded, &Error)) << Error;
  EXPECT_EQ(Decoded, Artifact);
  // Canonical: re-encoding reproduces the exact bytes.
  EXPECT_EQ(encodeModelArtifact(Decoded), Bytes);
}

// Pinned before the format moved onto support/Codec.h: the encoding
// must stay byte-identical.
TEST(ModelArtifact, EncodingMatchesPinnedDigest) {
  std::string Bytes = encodeModelArtifact(sampleArtifact());
  EXPECT_EQ(Bytes.size(), 186u);
  EXPECT_EQ(codec::crc32(Bytes), 0x53DDE8EAu);
}

TEST(ModelArtifact, EmptyArtifactRoundTrips) {
  ModelArtifact Artifact;
  ModelArtifact Decoded;
  ASSERT_TRUE(decodeModelArtifact(encodeModelArtifact(Artifact), Decoded));
  EXPECT_EQ(Decoded, Artifact);
}

TEST(ModelArtifact, EncodingIsCanonicalAcrossInputOrder) {
  ModelArtifact Artifact = sampleArtifact();
  ModelArtifact Shuffled = Artifact;
  std::reverse(Shuffled.Rows.begin(), Shuffled.Rows.end());
  EXPECT_EQ(encodeModelArtifact(Shuffled), encodeModelArtifact(Artifact));
}

// The decoder must be total: truncation at EVERY offset is rejected
// without crashing, and the output is left empty.
TEST(ModelArtifact, TruncationAtEveryOffsetIsRejected) {
  expectTotalDecoder(encodeModelArtifact(sampleArtifact()),
                     decodeModelArtifact, encodeModelArtifact,
                     /*CheckCorruption=*/false);
}

// Flipping any single byte must never be silently accepted as the
// original document (CRCs cover header and rows; the envelope fields
// are structurally checked).
TEST(ModelArtifact, SingleByteCorruptionNeverYieldsOriginal) {
  expectTotalDecoder(encodeModelArtifact(sampleArtifact()),
                     decodeModelArtifact, encodeModelArtifact,
                     /*CheckCorruption=*/true);
}

TEST(ModelArtifact, BadMagicAndVersionAreRejected) {
  std::string Bytes = encodeModelArtifact(sampleArtifact());
  ModelArtifact Out;
  std::string Error;

  std::string WrongMagic = Bytes;
  WrongMagic[0] = 'X';
  EXPECT_FALSE(decodeModelArtifact(WrongMagic, Out, &Error));
  EXPECT_NE(Error.find("magic"), std::string::npos);

  // A store-v1 document is not a model artifact.
  EXPECT_FALSE(decodeModelArtifact("cswitch-store-v1\x01\x00", Out, &Error));

  std::string WrongVersion = Bytes;
  WrongVersion[16] = 0x7f; // The version varint sits right after magic.
  EXPECT_FALSE(decodeModelArtifact(WrongVersion, Out, &Error));
  EXPECT_NE(Error.find("version"), std::string::npos);
}

TEST(ModelArtifact, TrailingBytesAreRejected) {
  std::string Bytes = encodeModelArtifact(sampleArtifact());
  ModelArtifact Out;
  std::string Error;
  EXPECT_FALSE(decodeModelArtifact(Bytes + "x", Out, &Error));
  EXPECT_NE(Error.find("trailing"), std::string::npos);
}

TEST(ModelArtifact, NonFiniteValuesAreRejected) {
  ModelArtifact Artifact = sampleArtifact();
  Artifact.Rows[0].Cost =
      Polynomial({std::numeric_limits<double>::quiet_NaN()});
  ModelArtifact Out;
  std::string Error;
  EXPECT_FALSE(decodeModelArtifact(encodeModelArtifact(Artifact), Out,
                                   &Error));
  EXPECT_NE(Error.find("non-finite"), std::string::npos);

  ModelArtifact BadHeader = sampleArtifact();
  BadHeader.HoldoutResidual = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(
      decodeModelArtifact(encodeModelArtifact(BadHeader), Out, &Error));
}

TEST(ModelArtifact, DuplicateRowsAreRejected) {
  ModelArtifact Artifact = sampleArtifact();
  Artifact.Rows.push_back(Artifact.Rows.front());
  ModelArtifact Out;
  std::string Error;
  EXPECT_FALSE(decodeModelArtifact(encodeModelArtifact(Artifact), Out,
                                   &Error));
  EXPECT_NE(Error.find("order"), std::string::npos);
}

TEST(ModelArtifact, OutOfRangeEnumsAreRejected) {
  // Craft a row with variant index beyond the List pool by encoding a
  // legal artifact and checking the decoder's range guard via the
  // conversion path: rows reference enums, so an artifact built from a
  // real model can never be out of range — corrupt the variant byte
  // instead and require *some* rejection (CRC catches it first).
  ModelArtifact Artifact = sampleArtifact();
  std::string Bytes = encodeModelArtifact(Artifact);
  // Find the first row payload and bump its kind byte past the enum.
  // Kind byte is the first payload byte after the row-length varint;
  // rather than chase offsets, flip every byte to 0xFF and require that
  // no mutation is accepted as a *valid different* document with an
  // out-of-range enum (decode either fails or equals the original).
  for (size_t I = 16; I != Bytes.size(); ++I) {
    std::string Corrupt = Bytes;
    Corrupt[I] = static_cast<char>(0xFF);
    ModelArtifact Out;
    if (decodeModelArtifact(Corrupt, Out)) {
      for (const ModelArtifact::Row &Row : Out.Rows) {
        EXPECT_LT(static_cast<unsigned>(Row.Kind), NumAbstractionKinds);
        EXPECT_LT(Row.Variant, numVariantsOf(Row.Kind));
        EXPECT_LT(static_cast<unsigned>(Row.Op), NumOperationKinds);
        EXPECT_LT(static_cast<unsigned>(Row.Dim), NumCostDimensions);
      }
    }
  }
}

TEST(ModelArtifact, FileRoundTripIsAtomic) {
  ModelArtifact Artifact = sampleArtifact();
  const char *Path = "model_artifact_test.bin";
  std::string Error;
  ASSERT_TRUE(writeModelArtifactToFile(Path, Artifact, &Error)) << Error;
  ModelArtifact Read;
  ASSERT_TRUE(readModelArtifactFromFile(Path, Read, &Error)) << Error;
  EXPECT_EQ(Read, Artifact);
  // Overwrite installs the new artifact completely (tmp+rename).
  Artifact.FitTimestamp += 60;
  ASSERT_TRUE(writeModelArtifactToFile(Path, Artifact, &Error)) << Error;
  ASSERT_TRUE(readModelArtifactFromFile(Path, Read, &Error)) << Error;
  EXPECT_EQ(Read.FitTimestamp, Artifact.FitTimestamp);
  std::remove(Path);
  EXPECT_FALSE(readModelArtifactFromFile(Path, Read, &Error));
}

TEST(ModelArtifact, ModelConversionRoundTrips) {
  PerformanceModel Model = defaultPerformanceModel();
  ModelArtifact Artifact = artifactFromModel(Model);
  EXPECT_FALSE(Artifact.Rows.empty());
  PerformanceModel Back = modelFromArtifact(Artifact);
  // Every polynomial survives the trip.
  for (const ModelArtifact::Row &Row : Artifact.Rows)
    EXPECT_EQ(Back.cost({Row.Kind, Row.Variant}, Row.Op, Row.Dim),
              Row.Cost);
  // And the artifact of the round-tripped model is identical.
  EXPECT_EQ(artifactFromModel(Back), Artifact);
}

TEST(ModelArtifact, HostFingerprintIsStableAndNonEmpty) {
  std::string A = hostFingerprint();
  EXPECT_FALSE(A.empty());
  EXPECT_EQ(A, hostFingerprint());
  EXPECT_NE(A.find('/'), std::string::npos);
}

} // namespace
