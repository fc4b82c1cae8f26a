//===- ExpectTotalDecoder.h - Shared decoder totality checks ----*- C++ -*-===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
//
// The totality contract every binary format of support/Codec.h makes,
// asserted once for all four suites. Documents are compared through
// their canonical encoding, each format's own definition of identity.
//
//===----------------------------------------------------------------------===//

#ifndef CSWITCH_TESTS_EXPECTTOTALDECODER_H
#define CSWITCH_TESTS_EXPECTTOTALDECODER_H

#include <gtest/gtest.h>

#include <string>
#include <string_view>

namespace cswitch {

/// Asserts that \p Decode is total over the valid document \p Bytes:
/// every strict prefix is rejected with a diagnosis and leaves a
/// previously filled output empty. With \p CheckCorruption (meant for
/// the CRC-framed formats), it also asserts that no single-byte
/// corruption decodes to the original document.
template <typename T>
void expectTotalDecoder(const std::string &Bytes,
                        bool (*Decode)(std::string_view, T &, std::string *),
                        std::string (*Encode)(const T &), bool CheckCorruption) {
  T Original;
  ASSERT_TRUE(Decode(Bytes, Original, nullptr));
  ASSERT_EQ(Encode(Original), Bytes) << "fixture is not canonical";
  const std::string Empty = Encode(T());

  for (size_t Len = 0; Len != Bytes.size(); ++Len) {
    T Out = Original; // Must be wiped on failure.
    std::string Error;
    EXPECT_FALSE(Decode(std::string_view(Bytes).substr(0, Len), Out, &Error))
        << "prefix of length " << Len << " unexpectedly parsed";
    EXPECT_EQ(Encode(Out), Empty) << "output not cleared at length " << Len;
    EXPECT_FALSE(Error.empty()) << "no diagnosis at length " << Len;
  }

  if (!CheckCorruption)
    return;
  for (size_t I = 0; I != Bytes.size(); ++I)
    for (unsigned Mask : {0x01u, 0x20u, 0x80u, 0xFFu}) {
      std::string Corrupt = Bytes;
      Corrupt[I] = static_cast<char>(Corrupt[I] ^ Mask);
      T Out;
      if (Decode(Corrupt, Out, nullptr)) {
        EXPECT_NE(Encode(Out), Bytes)
            << "flip 0x" << std::hex << Mask << " at " << std::dec << I
            << " decoded to the original";
      }
    }
}

} // namespace cswitch

#endif // CSWITCH_TESTS_EXPECTTOTALDECODER_H
