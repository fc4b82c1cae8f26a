//===- StoreFormatTest.cpp - cswitch-store-v1 format tests ----------------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
//
// Round-trip and rejection tests of the binary selection-store format,
// mirroring the cswitch-optrace-v1 suite: encode -> decode -> encode
// must reproduce the exact bytes (canonical encoding), every strict
// prefix of a valid document must fail to parse (truncation fuzzing),
// every single-byte corruption must be rejected (the per-record CRC32
// catches payload damage), and hand-crafted bad records (out-of-range
// kind/decision, disorder, duplicates) must leave the output empty.
//
//===----------------------------------------------------------------------===//

#include "store/StoreFormat.h"

#include "ExpectTotalDecoder.h"
#include "support/Codec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

using namespace cswitch;

namespace {

using codec::putVarint;

const char MagicBytes[] = "cswitch-store-v1"; // 16 bytes, no terminator.

/// A representative store: several sites across abstractions, two rules
/// on the same site name (Rtime and Ralloc decisions must not collide),
/// an empty rule name, and large counters that exercise multi-byte
/// varints.
std::vector<StoreSite> sampleSites() {
  std::vector<StoreSite> Sites;
  StoreSite A;
  A.Name = "App.cpp:42 query cache";
  A.Rule = "Rtime";
  A.Kind = AbstractionKind::Map;
  A.Decision = 2;
  A.Runs = 3;
  A.Instances = 1234;
  A.MaxSize = 100000;
  A.Counts = {1, 200, 30000, 4000000, 0, 700};
  Sites.push_back(A);

  StoreSite B = A; // Same name, different rule: a distinct site.
  B.Rule = "Ralloc";
  B.Decision = 0;
  B.Runs = 1;
  Sites.push_back(B);

  StoreSite C;
  C.Name = "idx";
  C.Rule = "";
  C.Kind = AbstractionKind::List;
  C.Decision = 1;
  C.Runs = 40;
  C.Instances = 7;
  C.MaxSize = 3;
  C.Counts = {0, 0, 0, 0, 0, 1};
  Sites.push_back(C);

  StoreSite D;
  D.Name = "members";
  D.Rule = "Rtime";
  D.Kind = AbstractionKind::Set;
  D.Decision = 0;
  D.Runs = 1;
  D.Instances = 0;
  D.MaxSize = 0;
  Sites.push_back(D);
  return Sites;
}

/// Hand-assembles a document from raw site payloads (each gets a length
/// prefix and a correct CRC unless \p BreakCrc).
std::string makeDocument(const std::vector<std::string> &Payloads,
                         bool BreakCrc = false) {
  std::string Out(MagicBytes, 16);
  putVarint(Out, 1); // version
  putVarint(Out, Payloads.size());
  for (const std::string &P : Payloads) {
    putVarint(Out, P.size());
    Out += P;
    uint32_t Crc = codec::crc32(P) ^ (BreakCrc ? 0xdeadbeef : 0);
    for (int I = 0; I != 4; ++I)
      Out += static_cast<char>((Crc >> (8 * I)) & 0xff);
  }
  return Out;
}

/// Raw payload of a single site record.
std::string makePayload(const StoreSite &S) {
  std::string P;
  putVarint(P, S.Name.size());
  P += S.Name;
  putVarint(P, S.Rule.size());
  P += S.Rule;
  P += static_cast<char>(S.Kind);
  putVarint(P, S.Decision);
  putVarint(P, S.Runs);
  putVarint(P, S.Instances);
  putVarint(P, S.MaxSize);
  for (uint64_t C : S.Counts)
    putVarint(P, C);
  return P;
}

TEST(StoreFormat, RoundTripPreservesEveryField) {
  std::vector<StoreSite> Original = sampleSites();
  std::string Bytes = encodeStore(Original);
  std::vector<StoreSite> Decoded;
  std::string Error;
  ASSERT_TRUE(decodeStore(Bytes, Decoded, &Error)) << Error;
  // encodeStore sorts, so compare as sets via canonical order.
  std::vector<StoreSite> Sorted = Original;
  std::sort(Sorted.begin(), Sorted.end(), StoreSite::orderedBefore);
  EXPECT_EQ(Decoded, Sorted);
}

TEST(StoreFormat, EncodingIsCanonical) {
  // write -> read -> write must produce identical bytes, and the input
  // order must not matter.
  std::string First = encodeStore(sampleSites());
  std::vector<StoreSite> Decoded;
  ASSERT_TRUE(decodeStore(First, Decoded));
  EXPECT_EQ(encodeStore(Decoded), First);

  std::vector<StoreSite> Reversed = sampleSites();
  std::reverse(Reversed.begin(), Reversed.end());
  EXPECT_EQ(encodeStore(Reversed), First);
}

// Pinned before the format moved onto support/Codec.h: the encoding
// must stay byte-identical.
TEST(StoreFormat, EncodingMatchesPinnedDigest) {
  std::string Bytes = encodeStore(sampleSites());
  EXPECT_EQ(Bytes.size(), 180u);
  EXPECT_EQ(codec::crc32(Bytes), 0xE9AF0DD9u);
}

TEST(StoreFormat, EmptyStoreRoundTrips) {
  std::string Bytes = encodeStore({});
  std::vector<StoreSite> Decoded;
  ASSERT_TRUE(decodeStore(Bytes, Decoded));
  EXPECT_TRUE(Decoded.empty());
}

TEST(StoreFormat, EveryStrictPrefixIsRejected) {
  // Truncation fuzz: the site count is declared up front and every
  // record is length-prefixed, so no strict prefix parses.
  expectTotalDecoder(encodeStore(sampleSites()), decodeStore, encodeStore,
                     /*CheckCorruption=*/true);
}

TEST(StoreFormat, EverySingleByteCorruptionIsRejected) {
  // Flip every byte of a valid document in turn. Magic/version/count
  // corruption trips the header checks; any payload or checksum byte
  // trips the per-record CRC32 (which detects all single-byte errors).
  std::string Bytes = encodeStore(sampleSites());
  for (size_t I = 0; I != Bytes.size(); ++I) {
    std::string Mutant = Bytes;
    Mutant[I] = static_cast<char>(~Mutant[I]);
    std::vector<StoreSite> Out;
    Out.push_back(StoreSite{});
    EXPECT_FALSE(decodeStore(Mutant, Out))
        << "corruption at offset " << I << " unexpectedly parsed";
    EXPECT_TRUE(Out.empty()) << "output not cleared at offset " << I;
  }
}

TEST(StoreFormat, RejectsBadMagic) {
  for (const char *Bad :
       {"", "x", "cswitch-optrace-\x01", "CSWITCH-STORE-V1\x01"}) {
    std::vector<StoreSite> Out;
    std::string Error;
    EXPECT_FALSE(decodeStore(Bad, Out, &Error));
    EXPECT_NE(Error.find("magic"), std::string::npos) << Error;
  }
}

TEST(StoreFormat, RejectsFutureVersion) {
  std::string Bytes = encodeStore(sampleSites());
  ASSERT_GT(Bytes.size(), 16u);
  Bytes[16] = 2; // Version byte follows the 16-byte magic.
  std::vector<StoreSite> Out;
  std::string Error;
  EXPECT_FALSE(decodeStore(Bytes, Out, &Error));
  EXPECT_NE(Error.find("version 2"), std::string::npos) << Error;
  EXPECT_NE(Error.find("expected 1"), std::string::npos) << Error;
}

TEST(StoreFormat, RejectsTrailingBytes) {
  std::string Bytes = encodeStore(sampleSites());
  Bytes += '\0';
  std::vector<StoreSite> Out;
  std::string Error;
  EXPECT_FALSE(decodeStore(Bytes, Out, &Error));
  EXPECT_NE(Error.find("trailing"), std::string::npos) << Error;
}

TEST(StoreFormat, RejectsFlippedCrc) {
  StoreSite S = sampleSites()[0];
  std::string Doc = makeDocument({makePayload(S)}, /*BreakCrc=*/true);
  std::vector<StoreSite> Out;
  std::string Error;
  EXPECT_FALSE(decodeStore(Doc, Out, &Error));
  EXPECT_NE(Error.find("crc"), std::string::npos) << Error;
}

TEST(StoreFormat, RejectsBadAbstractionKind) {
  StoreSite S = sampleSites()[0];
  std::string P = makePayload(S);
  // The kind byte sits right after the two length-prefixed strings.
  size_t KindOffset = 1 + S.Name.size() + 1 + S.Rule.size();
  P[KindOffset] = 9;
  std::vector<StoreSite> Out;
  std::string Error;
  EXPECT_FALSE(decodeStore(makeDocument({P}), Out, &Error));
  EXPECT_NE(Error.find("abstraction kind"), std::string::npos) << Error;
}

TEST(StoreFormat, RejectsOutOfRangeDecision) {
  StoreSite S;
  S.Name = "site";
  S.Rule = "Rtime";
  S.Kind = AbstractionKind::List;
  S.Decision = 200; // No abstraction has 200 variants.
  std::vector<StoreSite> Out;
  std::string Error;
  EXPECT_FALSE(decodeStore(makeDocument({makePayload(S)}), Out, &Error));
  EXPECT_NE(Error.find("decision"), std::string::npos) << Error;
}

TEST(StoreFormat, RejectsOversizedPayload) {
  // Extra bytes inside a record (beyond the fields) must be rejected
  // even when the CRC is consistent — forward compatibility is a new
  // version, not smuggled fields.
  StoreSite S = sampleSites()[2];
  std::string P = makePayload(S) + "extra";
  std::vector<StoreSite> Out;
  std::string Error;
  EXPECT_FALSE(decodeStore(makeDocument({P}), Out, &Error));
  EXPECT_NE(Error.find("oversized"), std::string::npos) << Error;
}

TEST(StoreFormat, RejectsDisorderedSites) {
  std::vector<StoreSite> Sites = sampleSites();
  std::sort(Sites.begin(), Sites.end(), StoreSite::orderedBefore);
  std::string Doc = makeDocument(
      {makePayload(Sites[1]), makePayload(Sites[0])}); // Swapped.
  std::vector<StoreSite> Out;
  std::string Error;
  EXPECT_FALSE(decodeStore(Doc, Out, &Error));
  EXPECT_NE(Error.find("order"), std::string::npos) << Error;
}

TEST(StoreFormat, RejectsDuplicateSites) {
  StoreSite S = sampleSites()[0];
  std::string Doc = makeDocument({makePayload(S), makePayload(S)});
  std::vector<StoreSite> Out;
  std::string Error;
  EXPECT_FALSE(decodeStore(Doc, Out, &Error));
  EXPECT_NE(Error.find("order"), std::string::npos) << Error;
}

TEST(StoreFormat, RejectsGarbageBodies) {
  // Deterministic pseudo-random garbage after a valid header must never
  // parse (and must never crash the total decoder).
  uint64_t State = 0x9e3779b97f4a7c15ull;
  auto Next = [&State] {
    State += 0x9e3779b97f4a7c15ull;
    uint64_t Z = State;
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    return Z ^ (Z >> 31);
  };
  for (int Round = 0; Round != 64; ++Round) {
    std::string Doc(MagicBytes, 16);
    size_t Len = Next() % 64;
    for (size_t I = 0; I != Len; ++I)
      Doc += static_cast<char>(Next() & 0xff);
    std::vector<StoreSite> Out;
    // Garbage after the magic can at best spell the empty document
    // (version 1, zero sites); a non-empty parse would mean the CRC
    // gate leaks.
    (void)decodeStore(Doc, Out);
    EXPECT_TRUE(Out.empty()) << "garbage round " << Round << " parsed";
  }
}

TEST(StoreFormat, FileRoundTripIsByteIdentical) {
  std::string Path = ::testing::TempDir() + "/cswitch_store_format_test.bin";
  std::vector<StoreSite> Sites = sampleSites();
  ASSERT_TRUE(writeStoreToFile(Path, Sites));

  std::vector<StoreSite> Loaded;
  std::string Error;
  ASSERT_TRUE(readStoreFromFile(Path, Loaded, &Error)) << Error;
  std::sort(Sites.begin(), Sites.end(), StoreSite::orderedBefore);
  EXPECT_EQ(Loaded, Sites);

  std::ifstream IS(Path, std::ios::binary);
  std::ostringstream Raw;
  Raw << IS.rdbuf();
  EXPECT_EQ(Raw.str(), encodeStore(Sites));
  std::remove(Path.c_str());
}

TEST(StoreFormat, ReadStoreConsumesStream) {
  std::string Bytes = encodeStore(sampleSites());
  std::istringstream IS(Bytes);
  std::vector<StoreSite> Out;
  ASSERT_TRUE(readStore(IS, Out));
  EXPECT_EQ(Out.size(), sampleSites().size());
}

TEST(StoreFormat, MissingFileFailsCleanly) {
  std::vector<StoreSite> Out;
  std::string Error;
  EXPECT_FALSE(
      readStoreFromFile("/nonexistent/dir/store.cswitchstore", Out, &Error));
  EXPECT_NE(Error.find("open"), std::string::npos) << Error;
}

} // namespace
