//===- TuningArtifactTest.cpp - cswitch-tuning-v2 codec tests -------------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
//
// Fuzz-style totality tests of the tuned-configuration artifact codec,
// mirroring the store and trace codec tests: truncation at every
// offset, single-byte corruption, semantic validation (non-finite /
// out-of-range / non-integral values, unknown names, wrong row counts),
// and crash-safe file installs.
//
//===----------------------------------------------------------------------===//

#include "tuner/TuningArtifact.h"

#include "ExpectTotalDecoder.h"
#include "support/Codec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <limits>
#include <string>

using namespace cswitch;
using namespace cswitch::tuner;

namespace {

/// Artifacts compare through their canonical encoding (the codec's own
/// definition of identity).
bool sameArtifact(const TuningArtifact &A, const TuningArtifact &B) {
  return encodeTuningArtifact(A) == encodeTuningArtifact(B);
}

TuningArtifact sampleArtifact() {
  ParameterSet Params;
  Params.set(ParamId::AdaptiveListThreshold, 128);
  Params.set(ParamId::ContextWindow, 64);
  Params.set(ParamId::ContextFinishedRatio, 0.45);
  Params.set(ParamId::ContextWideRangeFactor, 6.5);
  TuningArtifact Artifact = artifactFromParams(Params);
  Artifact.HostFingerprint = "testhost/x86_64/c8";
  Artifact.Sweeps = 3;
  Artifact.Evaluations = 173;
  Artifact.CorpusDigest = "crc32:0badf00d";
  Artifact.TimeWeight = 1.0;
  Artifact.AllocWeight = 0.25;
  Artifact.WinnerFitness = 0.8125;
  Artifact.BaselineFitness = 1.0;
  return Artifact;
}

/// Replaces the value of the row named \p Name (present by
/// construction — artifactFromParams emits every parameter).
void setRow(TuningArtifact &Artifact, const std::string &Name,
            double Value) {
  for (TuningArtifact::Row &Row : Artifact.Rows)
    if (Row.Name == Name) {
      Row.Value = Value;
      return;
    }
  FAIL() << "no row named " << Name;
}

TEST(TuningArtifact, EncodeDecodeRoundTrips) {
  TuningArtifact Artifact = sampleArtifact();
  std::string Bytes = encodeTuningArtifact(Artifact);
  TuningArtifact Decoded;
  std::string Error;
  ASSERT_TRUE(decodeTuningArtifact(Bytes, Decoded, &Error)) << Error;
  EXPECT_TRUE(sameArtifact(Decoded, Artifact));
  EXPECT_EQ(Decoded.HostFingerprint, Artifact.HostFingerprint);
  EXPECT_EQ(Decoded.Sweeps, Artifact.Sweeps);
  EXPECT_EQ(Decoded.CorpusDigest, Artifact.CorpusDigest);
  EXPECT_EQ(Decoded.Rows.size(), NumTunableParams);
  // Canonical: re-encoding reproduces the exact bytes.
  EXPECT_EQ(encodeTuningArtifact(Decoded), Bytes);
}

TEST(TuningArtifact, EncodingIsCanonicalAcrossInputOrder) {
  TuningArtifact Artifact = sampleArtifact();
  TuningArtifact Shuffled = Artifact;
  std::reverse(Shuffled.Rows.begin(), Shuffled.Rows.end());
  EXPECT_EQ(encodeTuningArtifact(Shuffled), encodeTuningArtifact(Artifact));
}

// Pinned at v2: the encoding must stay byte-identical.
TEST(TuningArtifact, EncodingMatchesPinnedDigest) {
  std::string Bytes = encodeTuningArtifact(sampleArtifact());
  EXPECT_EQ(Bytes.size(), 305u);
  EXPECT_EQ(codec::crc32(Bytes), 0x8A149A4Au);
}

TEST(TuningArtifact, ParamsRoundTripThroughArtifact) {
  ParameterSet Params;
  Params.set(ParamId::AdaptiveSetThreshold, 512);
  Params.set(ParamId::AdaptiveMapThreshold, 16);
  Params.set(ParamId::ContextWindow, 8);
  ParameterSet Out;
  std::string Error;
  ASSERT_TRUE(paramsFromArtifact(artifactFromParams(Params), Out, &Error))
      << Error;
  EXPECT_EQ(Out, Params);
}

// The decoder must be total: truncation at EVERY offset is rejected
// without crashing, and the output is left empty.
TEST(TuningArtifact, TruncationAtEveryOffsetIsRejected) {
  expectTotalDecoder(encodeTuningArtifact(sampleArtifact()),
                     decodeTuningArtifact, encodeTuningArtifact,
                     /*CheckCorruption=*/false);
}

// Flipping any single byte must never be silently accepted as the
// original document (CRCs cover header and rows; the envelope fields
// are structurally checked).
TEST(TuningArtifact, SingleByteCorruptionNeverYieldsOriginal) {
  expectTotalDecoder(encodeTuningArtifact(sampleArtifact()),
                     decodeTuningArtifact, encodeTuningArtifact,
                     /*CheckCorruption=*/true);
}

// Whatever a mutated document decodes to must still be semantically
// valid — decode success implies a convertible, in-bounds ParameterSet.
TEST(TuningArtifact, EveryAcceptedMutationYieldsValidParams) {
  std::string Bytes = encodeTuningArtifact(sampleArtifact());
  for (size_t I = 17; I != Bytes.size(); ++I) {
    std::string Corrupt = Bytes;
    Corrupt[I] = static_cast<char>(0xFF);
    TuningArtifact Out;
    if (decodeTuningArtifact(Corrupt, Out)) {
      ParameterSet Params;
      EXPECT_TRUE(paramsFromArtifact(Out, Params))
          << "mutation at " << I << " decoded to inconvertible rows";
    }
  }
}

TEST(TuningArtifact, BadMagicAndVersionAreRejected) {
  std::string Bytes = encodeTuningArtifact(sampleArtifact());
  TuningArtifact Out;
  std::string Error;

  std::string WrongMagic = Bytes;
  WrongMagic[0] = 'X';
  EXPECT_FALSE(decodeTuningArtifact(WrongMagic, Out, &Error));
  EXPECT_NE(Error.find("magic"), std::string::npos);

  // Other cswitch documents are not tuning artifacts.
  EXPECT_FALSE(decodeTuningArtifact("cswitch-store-v1\x01\x00", Out, &Error));
  // Nor is a v1 tuning artifact.
  std::string V1 = Bytes;
  V1.replace(0, 17, "cswitch-tuning-v1");
  EXPECT_FALSE(decodeTuningArtifact(V1, Out, &Error));
  EXPECT_FALSE(decodeTuningArtifact("cswitch-optrace-v1\0\x01"
                                    "xxxx",
                                    Out, &Error));

  std::string WrongVersion = Bytes;
  WrongVersion[17] = 0x7f; // The version varint sits right after magic.
  EXPECT_FALSE(decodeTuningArtifact(WrongVersion, Out, &Error));
  EXPECT_NE(Error.find("version"), std::string::npos);
}

TEST(TuningArtifact, TrailingBytesAreRejected) {
  std::string Bytes = encodeTuningArtifact(sampleArtifact());
  TuningArtifact Out;
  std::string Error;
  EXPECT_FALSE(decodeTuningArtifact(Bytes + "x", Out, &Error));
  EXPECT_NE(Error.find("trailing"), std::string::npos);
}

TEST(TuningArtifact, NonFiniteValuesAreRejected) {
  TuningArtifact Artifact = sampleArtifact();
  setRow(Artifact, "context.wide_range_factor",
         std::numeric_limits<double>::quiet_NaN());
  TuningArtifact Out;
  std::string Error;
  EXPECT_FALSE(
      decodeTuningArtifact(encodeTuningArtifact(Artifact), Out, &Error));
  EXPECT_NE(Error.find("non-finite"), std::string::npos);

  TuningArtifact BadHeader = sampleArtifact();
  BadHeader.WinnerFitness = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(
      decodeTuningArtifact(encodeTuningArtifact(BadHeader), Out, &Error));

  TuningArtifact BadWeight = sampleArtifact();
  BadWeight.AllocWeight = -1.0;
  EXPECT_FALSE(
      decodeTuningArtifact(encodeTuningArtifact(BadWeight), Out, &Error));
  EXPECT_NE(Error.find("weight"), std::string::npos);
}

TEST(TuningArtifact, OutOfRangeValuesAreRejected) {
  TuningArtifact Artifact = sampleArtifact();
  setRow(Artifact, "adaptive.list.threshold", 1 << 20); // Max is 4096.
  TuningArtifact Out;
  std::string Error;
  EXPECT_FALSE(
      decodeTuningArtifact(encodeTuningArtifact(Artifact), Out, &Error));
  EXPECT_NE(Error.find("outside"), std::string::npos);

  TuningArtifact Low = sampleArtifact();
  setRow(Low, "context.finished_ratio", 0.0); // Min is 0.1.
  EXPECT_FALSE(decodeTuningArtifact(encodeTuningArtifact(Low), Out, &Error));
  EXPECT_NE(Error.find("outside"), std::string::npos);
}

TEST(TuningArtifact, NonIntegralIntegerValuesAreRejected) {
  TuningArtifact Artifact = sampleArtifact();
  setRow(Artifact, "context.window", 64.5);
  TuningArtifact Out;
  std::string Error;
  EXPECT_FALSE(
      decodeTuningArtifact(encodeTuningArtifact(Artifact), Out, &Error));
  EXPECT_NE(Error.find("integral"), std::string::npos);
}

TEST(TuningArtifact, UnknownParameterNamesAreRejected) {
  TuningArtifact Artifact = sampleArtifact();
  Artifact.Rows[0].Name = "no.such.parameter";
  TuningArtifact Out;
  std::string Error;
  EXPECT_FALSE(
      decodeTuningArtifact(encodeTuningArtifact(Artifact), Out, &Error));
  EXPECT_NE(Error.find("unknown parameter"), std::string::npos);
}

TEST(TuningArtifact, WrongRowCountsAreRejected) {
  // A missing parameter row.
  TuningArtifact Missing = sampleArtifact();
  Missing.Rows.pop_back();
  TuningArtifact Out;
  std::string Error;
  EXPECT_FALSE(
      decodeTuningArtifact(encodeTuningArtifact(Missing), Out, &Error));
  EXPECT_NE(Error.find("rows"), std::string::npos);

  // A duplicated row (encoder sorts, so the duplicate lands adjacent
  // and trips the strict-ascending check — or the count check first).
  TuningArtifact Duplicate = sampleArtifact();
  Duplicate.Rows.push_back(Duplicate.Rows.front());
  EXPECT_FALSE(
      decodeTuningArtifact(encodeTuningArtifact(Duplicate), Out, &Error));
}

TEST(TuningArtifact, HandBuiltBadParamsAreReportedNotInstalled) {
  TuningArtifact Artifact = sampleArtifact();
  Artifact.Rows[0].Name = "no.such.parameter";
  ParameterSet Params;
  std::string Error;
  EXPECT_FALSE(paramsFromArtifact(Artifact, Params, &Error));
  EXPECT_NE(Error.find("unknown"), std::string::npos);
}

TEST(TuningArtifact, FileRoundTripIsAtomic) {
  TuningArtifact Artifact = sampleArtifact();
  const char *Path = "tuning_artifact_test.cstune";
  std::string Error;
  ASSERT_TRUE(writeTuningArtifactToFile(Path, Artifact, &Error)) << Error;
  TuningArtifact Read;
  ASSERT_TRUE(readTuningArtifactFromFile(Path, Read, &Error)) << Error;
  EXPECT_TRUE(sameArtifact(Read, Artifact));
  // Overwrite installs the new artifact completely (tmp+rename).
  Artifact.Sweeps += 1;
  ASSERT_TRUE(writeTuningArtifactToFile(Path, Artifact, &Error)) << Error;
  ASSERT_TRUE(readTuningArtifactFromFile(Path, Read, &Error)) << Error;
  EXPECT_EQ(Read.Sweeps, Artifact.Sweeps);
  std::remove(Path);
  EXPECT_FALSE(readTuningArtifactFromFile(Path, Read, &Error));
}

} // namespace
