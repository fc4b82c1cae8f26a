//===- ModelSerializationFuzzTest.cpp - Serialization fuzzing ----------------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Randomized round-trip and robustness tests of the performance-model
/// text format: arbitrary coefficient patterns must survive save/load
/// bit-exactly, and mangled inputs must be rejected without crashing.
///
//===----------------------------------------------------------------------===//

#include "model/CostModel.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

using namespace cswitch;

namespace {

/// Builds a model with random sparse coverage and random coefficients in
/// every stored dimension (energy is derived, never set).
PerformanceModel randomModel(SplitMix64 &Rng) {
  PerformanceModel Model;
  for (size_t A = 0; A != NumAbstractionKinds; ++A) {
    auto Kind = static_cast<AbstractionKind>(A);
    for (size_t V = 0, E = numVariantsOf(Kind); V != E; ++V) {
      for (OperationKind Op : AllOperationKinds) {
        for (CostDimension Dim : StoredCostDimensions) {
          if (Rng.nextBelow(3) == 0)
            continue; // leave some triples empty.
          size_t Degree = Rng.nextBelow(4);
          std::vector<double> Coeffs;
          for (size_t D = 0; D != Degree + 1; ++D) {
            // Mix of magnitudes, including tiny, huge and negative.
            double Mag = std::pow(10.0, Rng.nextInRange(-9, 9));
            double Sign = Rng.nextBool(0.3) ? -1.0 : 1.0;
            Coeffs.push_back(Sign * Mag * Rng.nextDouble());
          }
          Model.setCost({Kind, static_cast<unsigned>(V)}, Op, Dim,
                        Polynomial(std::move(Coeffs)));
        }
      }
    }
  }
  return Model;
}

class SerializationFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SerializationFuzz, RoundTripIsExact) {
  SplitMix64 Rng(GetParam());
  PerformanceModel Model = randomModel(Rng);
  std::ostringstream OS;
  Model.save(OS);
  PerformanceModel Loaded;
  std::istringstream IS(OS.str());
  ASSERT_TRUE(Loaded.load(IS));
  for (size_t A = 0; A != NumAbstractionKinds; ++A) {
    auto Kind = static_cast<AbstractionKind>(A);
    for (size_t V = 0, E = numVariantsOf(Kind); V != E; ++V)
      for (OperationKind Op : AllOperationKinds)
        for (CostDimension Dim : AllCostDimensions)
          ASSERT_EQ(
              Loaded.cost({Kind, static_cast<unsigned>(V)}, Op, Dim),
              Model.cost({Kind, static_cast<unsigned>(V)}, Op, Dim));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerializationFuzz,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u,
                                           8u));

TEST(SerializationRobustness, TruncatedLinesRejected) {
  SplitMix64 Rng(99);
  PerformanceModel Model = randomModel(Rng);
  std::ostringstream OS;
  Model.save(OS);
  std::string Text = OS.str();
  // Chop the document at arbitrary points past the header: the loader
  // must either succeed (clean line boundary) or fail, never crash.
  for (size_t Cut = 30; Cut < Text.size(); Cut += 97) {
    PerformanceModel Loaded;
    std::istringstream IS(Text.substr(0, Cut));
    (void)Loaded.load(IS);
  }
  SUCCEED();
}

TEST(SerializationRobustness, GarbageInputRejected) {
  for (const char *Garbage :
       {"", "\n\n\n", "cswitch-performance-model v2\n",
        "cswitch-performance-model v1\nlist ArrayList populate time x\n",
        "cswitch-performance-model v1\n\xff\xfe\x00garbage"}) {
    PerformanceModel Model;
    std::istringstream IS(Garbage);
    EXPECT_FALSE(Model.load(IS)) << Garbage;
  }
}

TEST(SerializationRobustness, HeaderOnlyIsValidEmptyModel) {
  PerformanceModel Model;
  std::istringstream IS("cswitch-performance-model v1\n");
  EXPECT_TRUE(Model.load(IS));
  EXPECT_FALSE(Model.hasVariant(VariantId::of(ListVariant::ArrayList)));
}

} // namespace
