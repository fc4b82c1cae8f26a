//===- PolynomialTest.cpp - Polynomial unit tests --------------------------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//

#include "support/Polynomial.h"

#include <gtest/gtest.h>

#include <cstring>

using namespace cswitch;

namespace {

TEST(Polynomial, DefaultIsZero) {
  Polynomial P;
  EXPECT_EQ(P.degree(), 0u);
  EXPECT_DOUBLE_EQ(P.evaluate(0.0), 0.0);
  EXPECT_DOUBLE_EQ(P.evaluate(123.0), 0.0);
  EXPECT_TRUE(P.coefficients().empty());
}

TEST(Polynomial, EvaluatesConstant) {
  Polynomial P({7.5});
  EXPECT_EQ(P.degree(), 0u);
  EXPECT_DOUBLE_EQ(P.evaluate(-100.0), 7.5);
  EXPECT_DOUBLE_EQ(P.evaluate(100.0), 7.5);
}

TEST(Polynomial, EvaluatesLinear) {
  Polynomial P({1.0, 2.0});
  EXPECT_EQ(P.degree(), 1u);
  EXPECT_DOUBLE_EQ(P.evaluate(0.0), 1.0);
  EXPECT_DOUBLE_EQ(P.evaluate(3.0), 7.0);
}

TEST(Polynomial, EvaluatesCubicHorner) {
  // 2 - x + 3x^2 + 0.5x^3 at x = 2: 2 - 2 + 12 + 4 = 16.
  Polynomial P({2.0, -1.0, 3.0, 0.5});
  EXPECT_EQ(P.degree(), 3u);
  EXPECT_DOUBLE_EQ(P.evaluate(2.0), 16.0);
  EXPECT_DOUBLE_EQ(P.evaluate(0.0), 2.0);
}

TEST(Polynomial, EvaluateNonNegativeClampsBelowZero) {
  Polynomial P({-5.0, 1.0}); // negative below x = 5.
  EXPECT_DOUBLE_EQ(P.evaluateNonNegative(0.0), 0.0);
  EXPECT_DOUBLE_EQ(P.evaluateNonNegative(4.0), 0.0);
  EXPECT_DOUBLE_EQ(P.evaluateNonNegative(10.0), 5.0);
  // Plain evaluate is not clamped.
  EXPECT_DOUBLE_EQ(P.evaluate(0.0), -5.0);
}

TEST(Polynomial, AdditionAlignsDegrees) {
  Polynomial A({1.0, 2.0});
  Polynomial B({10.0, 0.0, 3.0});
  Polynomial Sum = A + B;
  EXPECT_EQ(Sum.degree(), 2u);
  EXPECT_DOUBLE_EQ(Sum.evaluate(2.0), 1.0 + 4.0 + 10.0 + 12.0);
}

TEST(Polynomial, AdditionWithZero) {
  Polynomial A({4.0, 1.0});
  Polynomial Sum = A + Polynomial();
  EXPECT_EQ(Sum, A);
}

TEST(Polynomial, ScaledMultipliesAllCoefficients) {
  Polynomial P({1.0, -2.0, 4.0});
  Polynomial S = P.scaled(0.5);
  EXPECT_DOUBLE_EQ(S.coefficients()[0], 0.5);
  EXPECT_DOUBLE_EQ(S.coefficients()[1], -1.0);
  EXPECT_DOUBLE_EQ(S.coefficients()[2], 2.0);
}

TEST(Polynomial, AssignLinearMatchesScaledSumBitForBit) {
  // Unequal lengths, signed zeros and an inexact product: every bit of
  // A.scaled(a) + B.scaled(b), including 0.0 + -0.0 = +0.0.
  const Polynomial Cases[] = {Polynomial(), Polynomial({-0.0}),
                              Polynomial({0.1, -0.0, 3e-8}),
                              Polynomial({-0.0, 7.25})};
  for (const Polynomial &A : Cases)
    for (const Polynomial &B : Cases) {
      Polynomial Expected = A.scaled(3.5) + B.scaled(0.02);
      Polynomial Got({9.0, 9.0, 9.0, 9.0, 9.0});
      Got.assignLinear(A, 3.5, B, 0.02);
      ASSERT_EQ(Got.coefficients().size(), Expected.coefficients().size());
      for (size_t I = 0; I != Got.coefficients().size(); ++I)
        EXPECT_EQ(std::memcmp(&Got.coefficients()[I],
                              &Expected.coefficients()[I], sizeof(double)),
                  0)
            << A.toString() << " | " << B.toString() << " @" << I;
    }
}

TEST(Polynomial, ToStringRendersTerms) {
  EXPECT_EQ(Polynomial().toString(), "0");
  EXPECT_EQ(Polynomial({3.0}).toString(), "3");
  EXPECT_EQ(Polynomial({3.0, 2.0}).toString(), "3 + 2*x");
  EXPECT_EQ(Polynomial({0.0, 0.0, 1.5}).toString(), "0 + 0*x + 1.5*x^2");
}

TEST(Polynomial, EqualityIsStructural) {
  EXPECT_EQ(Polynomial({1.0, 2.0}), Polynomial({1.0, 2.0}));
  EXPECT_FALSE(Polynomial({1.0}) == Polynomial({1.0, 0.0}));
}

} // namespace
