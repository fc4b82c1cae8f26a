//===- TraceFormatTest.cpp - cswitch-optrace-v1 format tests --------------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
//
// Round-trip and rejection tests of the binary operation-trace format:
// encode -> decode -> encode must reproduce the exact bytes (canonical
// encoding), every strict prefix of a valid document must fail to parse
// (truncation fuzzing), and corrupt headers/bodies must be rejected with
// the output trace left empty.
//
//===----------------------------------------------------------------------===//

#include "replay/TraceFormat.h"
#include "support/Codec.h"
#include "support/Random.h"

#include "ExpectTotalDecoder.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

using namespace cswitch;

namespace {

using codec::putVarint;

const char MagicBytes[] = "cswitch-optrace-"; // 16 bytes, no terminator.

/// A representative trace: two sites of different abstractions, ops that
/// jump between sites (negative zigzag deltas), interleaved instances,
/// and non-monotonic recorded sizes.
OpTrace sampleTrace() {
  OpTrace T;
  T.Sites.push_back({"Bench.cpp:10", AbstractionKind::List,
                     static_cast<unsigned>(ListVariant::ArrayList)});
  T.Sites.push_back({"Bench.cpp:20 with spaces", AbstractionKind::Map,
                     static_cast<unsigned>(MapVariant::ChainedHashMap)});
  T.OpsDropped = 3;
  T.InstancesSampled = 2;
  T.InstancesSkipped = 7;
  T.Ops = {
      {0, 0, TraceOpKind::InstanceBegin, OpClass::None, 0, 100},
      {1, 1, TraceOpKind::InstanceBegin, OpClass::None, 0, 150},
      {0, 0, TraceOpKind::Populate, OpClass::None, 1, 200},
      {0, 0, TraceOpKind::Populate, OpClass::None, 2, 210},
      {1, 1, TraceOpKind::Populate, OpClass::Miss, 1, 220},
      {0, 0, TraceOpKind::IndexGet, OpClass::Front, 2, 230},
      {0, 0, TraceOpKind::RemoveAt, OpClass::Back, 1, 240},
      {1, 1, TraceOpKind::Contains, OpClass::Hit, 1, 250},
      {1, 1, TraceOpKind::Clear, OpClass::None, 0, 260},
      {1, 1, TraceOpKind::InstanceEnd, OpClass::None, 0, 270},
      {0, 0, TraceOpKind::InstanceEnd, OpClass::None, 1, 280},
  };
  return T;
}

TEST(TraceFormat, RoundTripPreservesEveryField) {
  OpTrace Original = sampleTrace();
  std::string Bytes = encodeTrace(Original);
  OpTrace Decoded;
  std::string Error;
  ASSERT_TRUE(decodeTrace(Bytes, Decoded, &Error)) << Error;
  EXPECT_EQ(Decoded, Original);
  EXPECT_EQ(Decoded.durationNanos(), 180u); // 280 - 100.
}

TEST(TraceFormat, EncodingIsCanonical) {
  // write -> read -> write must produce identical bytes (the acceptance
  // criterion of the format).
  std::string First = encodeTrace(sampleTrace());
  OpTrace Decoded;
  ASSERT_TRUE(decodeTrace(First, Decoded));
  std::string Second = encodeTrace(Decoded);
  EXPECT_EQ(First, Second);
}

// Pinned before the format moved onto support/Codec.h: the encoding
// must stay byte-identical.
TEST(TraceFormat, EncodingMatchesPinnedDigest) {
  std::string Bytes = encodeTrace(sampleTrace());
  EXPECT_EQ(Bytes.size(), 120u);
  EXPECT_EQ(codec::crc32(Bytes), 0x9C3D8A4Bu);
}

TEST(TraceFormat, EmptyTraceRoundTrips) {
  OpTrace Empty;
  std::string Bytes = encodeTrace(Empty);
  OpTrace Decoded;
  ASSERT_TRUE(decodeTrace(Bytes, Decoded));
  EXPECT_EQ(Decoded, Empty);
  EXPECT_EQ(Decoded.durationNanos(), 0u);
}

TEST(TraceFormat, EveryStrictPrefixIsRejected) {
  // Truncation fuzz: the op count is declared up front, so no strict
  // prefix of a valid document can itself be a valid document. The trace
  // has no CRC framing, so a corrupted trace may decode to another one.
  expectTotalDecoder(encodeTrace(sampleTrace()), decodeTrace, encodeTrace,
                     /*CheckCorruption=*/false);
}

TEST(TraceFormat, RejectsBadMagic) {
  for (const char *Bad : {"", "x", "cswitch-profile-trace v1\n",
                          "CSWITCH-OPTRACE-\x01\x00"}) {
    OpTrace Out;
    std::string Error;
    EXPECT_FALSE(decodeTrace(Bad, Out, &Error));
    EXPECT_NE(Error.find("magic"), std::string::npos);
  }
}

TEST(TraceFormat, RejectsVersionMismatch) {
  std::string Bytes = encodeTrace(sampleTrace());
  ASSERT_GT(Bytes.size(), 16u);
  Bytes[16] = 2; // Version varint lives right after the magic.
  OpTrace Out;
  std::string Error;
  EXPECT_FALSE(decodeTrace(Bytes, Out, &Error));
  EXPECT_NE(Error.find("version 2"), std::string::npos);
  EXPECT_EQ(Out, OpTrace());
}

TEST(TraceFormat, RejectsTrailingBytes) {
  std::string Bytes = encodeTrace(sampleTrace());
  Bytes += '\0';
  OpTrace Out;
  std::string Error;
  EXPECT_FALSE(decodeTrace(Bytes, Out, &Error));
  EXPECT_NE(Error.find("trailing"), std::string::npos);
  EXPECT_EQ(Out, OpTrace());
}

TEST(TraceFormat, RejectsGarbageBodies) {
  // Valid magic followed by pseudo-random garbage must never parse into
  // a non-empty trace (it may parse as an empty one only if the bytes
  // happen to spell that out, which these seeds do not).
  SplitMix64 Rng(0xfeedface);
  for (int Doc = 0; Doc != 64; ++Doc) {
    std::string Bytes(MagicBytes, 16);
    Bytes += '\x01'; // Valid version so the body parser runs.
    size_t Len = 1 + Rng.nextBelow(64);
    for (size_t I = 0; I != Len; ++I)
      Bytes += static_cast<char>(Rng.nextBelow(256));
    OpTrace Out;
    if (!decodeTrace(Bytes, Out)) {
      EXPECT_EQ(Out, OpTrace());
    } else {
      // Garbage that accidentally parses (possible only via redundant
      // varint encodings of a near-empty document) must still round-trip
      // through the canonical encoder.
      OpTrace Again;
      ASSERT_TRUE(decodeTrace(encodeTrace(Out), Again));
      EXPECT_EQ(Again, Out);
    }
  }
}

TEST(TraceFormat, RejectsBadAbstractionKind) {
  std::string Bytes(MagicBytes, 16);
  putVarint(Bytes, 1); // version
  putVarint(Bytes, 1); // one site
  putVarint(Bytes, 1); // name length
  Bytes += 'a';
  Bytes += '\x09'; // abstraction kind 9: out of range.
  putVarint(Bytes, 0);
  OpTrace Out;
  std::string Error;
  EXPECT_FALSE(decodeTrace(Bytes, Out, &Error));
  EXPECT_NE(Error.find("abstraction"), std::string::npos);
}

TEST(TraceFormat, RejectsBadDeclaredVariant) {
  std::string Bytes(MagicBytes, 16);
  putVarint(Bytes, 1);
  putVarint(Bytes, 1);
  putVarint(Bytes, 1);
  Bytes += 'a';
  Bytes += '\x00';      // list
  putVarint(Bytes, 99); // No list variant 99.
  OpTrace Out;
  std::string Error;
  EXPECT_FALSE(decodeTrace(Bytes, Out, &Error));
  EXPECT_NE(Error.find("variant"), std::string::npos);
}

TEST(TraceFormat, RejectsBadOpKindByte) {
  OpTrace T;
  T.Sites.push_back({"s", AbstractionKind::List, 0});
  T.Ops = {{0, 0, TraceOpKind::InstanceBegin, OpClass::None, 0, 0}};
  std::string Bytes = encodeTrace(T);
  // The packed kind/class byte is the first op byte; 0xff decodes to
  // kind 31, far past NumTraceOpKinds.
  Bytes[Bytes.size() - 5] = static_cast<char>(0xff);
  OpTrace Out;
  std::string Error;
  EXPECT_FALSE(decodeTrace(Bytes, Out, &Error));
  EXPECT_NE(Error.find("kind"), std::string::npos);
}

TEST(TraceFormat, RejectsOpReferencingUnknownSite) {
  OpTrace T;
  T.Sites.push_back({"s", AbstractionKind::List, 0});
  T.Ops = {{5, 0, TraceOpKind::InstanceBegin, OpClass::None, 0, 0}};
  std::string Bytes = encodeTrace(T); // Encoder is format-agnostic here.
  OpTrace Out;
  std::string Error;
  EXPECT_FALSE(decodeTrace(Bytes, Out, &Error));
  EXPECT_NE(Error.find("range"), std::string::npos);
  EXPECT_EQ(Out, OpTrace());
}

TEST(TraceFormat, FileAndStreamRoundTrip) {
  OpTrace Original = sampleTrace();
  std::string Path = ::testing::TempDir() + "/cswitch_optrace_test.bin";
  ASSERT_TRUE(writeTraceToFile(Path, Original));
  OpTrace FromFile;
  ASSERT_TRUE(readTraceFromFile(Path, FromFile));
  EXPECT_EQ(FromFile, Original);
  std::remove(Path.c_str());

  std::istringstream IS(encodeTrace(Original));
  OpTrace FromStream;
  ASSERT_TRUE(readTrace(IS, FromStream));
  EXPECT_EQ(FromStream, Original);

  OpTrace Missing;
  std::string Error;
  EXPECT_FALSE(readTraceFromFile("no-such-dir/x.optrace", Missing, &Error));
  EXPECT_NE(Error.find("open"), std::string::npos);
}

TEST(TraceFormat, MissingFileResetsOutput) {
  OpTrace Out = sampleTrace(); // Stale content must not survive.
  std::string Error;
  EXPECT_FALSE(readTraceFromFile("no-such-dir/x.optrace", Out, &Error));
  EXPECT_EQ(Out, OpTrace());
  EXPECT_NE(Error.find("open"), std::string::npos) << Error;
}

TEST(TraceFormat, KindNamesAndProfileMapping) {
  EXPECT_STREQ(traceOpKindName(TraceOpKind::InstanceBegin), "begin");
  EXPECT_STREQ(traceOpKindName(TraceOpKind::RemoveValue), "remove-value");
  EXPECT_STREQ(opClassName(OpClass::Interior), "interior");

  EXPECT_EQ(toOperationKind(TraceOpKind::Populate), OperationKind::Populate);
  EXPECT_EQ(toOperationKind(TraceOpKind::IndexSet),
            OperationKind::IndexAccess);
  EXPECT_EQ(toOperationKind(TraceOpKind::InsertAt), OperationKind::Middle);
  EXPECT_FALSE(toOperationKind(TraceOpKind::InstanceBegin).has_value());
  EXPECT_FALSE(toOperationKind(TraceOpKind::Clear).has_value());
}

TEST(TraceFormat, ClassifyIndexCoversPositions) {
  EXPECT_EQ(classifyIndex(0, 10), OpClass::Front);
  EXPECT_EQ(classifyIndex(9, 10), OpClass::Back);
  EXPECT_EQ(classifyIndex(5, 10), OpClass::Interior);
  EXPECT_EQ(classifyIndex(0, 1), OpClass::Front);
}

} // namespace
