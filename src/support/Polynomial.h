//===- Polynomial.h - Dense univariate polynomials -------------*- C++ -*-===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dense univariate polynomials over double. The performance model of the
/// paper (§4.1.2) represents the cost of every critical collection
/// operation as a cubic polynomial of the collection size; this is the
/// value type those models are made of.
///
//===----------------------------------------------------------------------===//

#ifndef CSWITCH_SUPPORT_POLYNOMIAL_H
#define CSWITCH_SUPPORT_POLYNOMIAL_H

#include <cassert>
#include <cstddef>
#include <string>
#include <vector>

namespace cswitch {

/// A polynomial c0 + c1*x + c2*x^2 + ... with double coefficients.
///
/// The default-constructed polynomial is the zero polynomial. Degree is
/// structural (trailing zero coefficients are kept as written), matching
/// the fixed-degree fits produced by the model builder.
class Polynomial {
public:
  Polynomial() = default;

  /// Constructs from coefficients ordered low degree first.
  explicit Polynomial(std::vector<double> Coeffs)
      : Coefficients(std::move(Coeffs)) {}

  /// Returns the polynomial coefficients, low degree first (empty for the
  /// zero polynomial).
  const std::vector<double> &coefficients() const { return Coefficients; }

  /// Structural degree; the zero polynomial reports degree 0.
  size_t degree() const {
    return Coefficients.empty() ? 0 : Coefficients.size() - 1;
  }

  /// Evaluates at \p X using Horner's scheme.
  double evaluate(double X) const {
    double Acc = 0.0;
    for (size_t I = Coefficients.size(); I > 0; --I)
      Acc = Acc * X + Coefficients[I - 1];
    return Acc;
  }

  /// Evaluates at \p X and clamps negative predictions to zero.
  ///
  /// Cost models must never predict negative cost: a cubic fit to noisy
  /// measurements can dip below zero at small sizes, and a negative cost
  /// would invert the selection-rule ratios.
  double evaluateNonNegative(double X) const {
    double V = evaluate(X);
    return V < 0.0 ? 0.0 : V;
  }

  /// Pointwise sum.
  Polynomial operator+(const Polynomial &Other) const;

  /// Scalar multiple.
  Polynomial scaled(double Factor) const;

  /// Sets this polynomial to FactorA·A + FactorB·B in its own storage,
  /// bit-identical to `A.scaled(FactorA) + B.scaled(FactorB)` but with
  /// no temporaries. Neither \p A nor \p B may be this polynomial.
  void assignLinear(const Polynomial &A, double FactorA, const Polynomial &B,
                    double FactorB);

  /// Human-readable rendering, e.g. "3.5 + 0.25*x + 1e-3*x^2".
  std::string toString() const;

  bool operator==(const Polynomial &Other) const {
    return Coefficients == Other.Coefficients;
  }

private:
  std::vector<double> Coefficients;
};

} // namespace cswitch

#endif // CSWITCH_SUPPORT_POLYNOMIAL_H
