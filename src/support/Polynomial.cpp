//===- Polynomial.cpp - Dense univariate polynomials ---------------------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//

#include "support/Polynomial.h"

#include <algorithm>
#include <sstream>

using namespace cswitch;

Polynomial Polynomial::operator+(const Polynomial &Other) const {
  const auto &A = Coefficients;
  const auto &B = Other.Coefficients;
  std::vector<double> Sum(std::max(A.size(), B.size()), 0.0);
  for (size_t I = 0, E = A.size(); I != E; ++I)
    Sum[I] += A[I];
  for (size_t I = 0, E = B.size(); I != E; ++I)
    Sum[I] += B[I];
  return Polynomial(std::move(Sum));
}

Polynomial Polynomial::scaled(double Factor) const {
  std::vector<double> Coeffs = Coefficients;
  for (double &C : Coeffs)
    C *= Factor;
  return Polynomial(std::move(Coeffs));
}

void Polynomial::assignLinear(const Polynomial &A, double FactorA,
                              const Polynomial &B, double FactorB) {
  assert(&A != this && &B != this && "operands alias the result");
  const auto &CA = A.Coefficients;
  const auto &CB = B.Coefficients;
  // Same operation order as scaled() + operator+: 0.0, plus the scaled
  // A term, plus the scaled B term (so a -0.0 term sums to +0.0).
  Coefficients.assign(std::max(CA.size(), CB.size()), 0.0);
  for (size_t I = 0, E = CA.size(); I != E; ++I)
    Coefficients[I] += CA[I] * FactorA;
  for (size_t I = 0, E = CB.size(); I != E; ++I)
    Coefficients[I] += CB[I] * FactorB;
}

std::string Polynomial::toString() const {
  if (Coefficients.empty())
    return "0";
  std::ostringstream OS;
  for (size_t I = 0, E = Coefficients.size(); I != E; ++I) {
    if (I != 0)
      OS << " + ";
    OS << Coefficients[I];
    if (I == 1)
      OS << "*x";
    else if (I > 1)
      OS << "*x^" << I;
  }
  return OS.str();
}
