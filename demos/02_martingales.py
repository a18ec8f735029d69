"""Martingales of the walk: exponential weights, polynomials, site bases.

The exponential martingale exp(a*x - t(cosh a - 1)) generates monic
polynomials m_n with m_n(0, x) = x^n whose expectations are frozen in
time.  The backward heat operator exp(-t(cosh D - 1)) maps monomials to
them and, applied to the Lagrange basis polynomials of an initial
configuration, produces the site martingales whose determinant weights
the noncolliding conditioning.  Those polynomials have degree N - 1, so
the operator series is a finite sum, and one ``site_martingale_rows`` call
gives the rows at a whole batch of sites.
"""

import math

import numpy as np

from ncrw import (FiniteConfiguration, martingale_polynomial,
                  site_martingale_rows, scaled_bessel_i_all, truncation_radius)

print("martingale polynomials m_n(t, x):")
for n in range(5):
    row = "  ".join(f"{martingale_polynomial(n, 1.0, float(x)):8.3f}"
                    for x in range(-2, 3))
    print(f"  n={n}: {row}")

print("\nthe walk semigroup undoes them: sum_y p(t,y|u) m_n(t,y) = u^n")
t, u = 1.5, 2
radius = truncation_radius(t, 1e-24) + 6
weights = scaled_bessel_i_all(radius, t)
for n in range(6):
    total = math.fsum(weights[abs(y - u)] * martingale_polynomial(n, t, float(y))
                      for y in range(u - radius, u + radius + 1))
    print(f"  n={n}: recovered {total:.12f}   exact {float(u) ** n:.1f}")

print("\nsite martingales as a finite series: expanding each Lagrange basis "
      "polynomial in monomials\nand replacing x^n by m_n(t, x) gives the "
      "same row")
config = FiniteConfiguration((-1, 0, 3))
t, y = 1.2, 2
row = site_martingale_rows(config, t, [y])[0][0]
for k, uk in enumerate(config.sites):
    others = [v for v in config.sites if v != uk]
    coeffs = np.polynomial.polynomial.polyfromroots(others)
    expanded = math.fsum(float(c) * martingale_polynomial(n, t, float(y))
                         for n, c in enumerate(coeffs)) / math.prod(
                             uk - v for v in others)
    print(f"  M_{k}({t}, {y}): series {row[k]:+.12f}   "
          f"monomial expansion {expanded:+.12f}")

print("\nsite martingales of the configuration {0, 2, 5}, every row from one "
      "batched call:\nmean row stays the Kronecker delta, also at t = 22")
config = FiniteConfiguration((0, 2, 5))
for t in (1.0, 22.0):
    radius = truncation_radius(t, 1e-22) + 6
    weights = scaled_bessel_i_all(radius + 5, t)
    ys = range(-radius, 5 + radius + 1)
    rows = site_martingale_rows(config, t, ys)[0]
    for j, uj in enumerate(config.sites):
        p = np.array([weights[abs(y - uj)] for y in ys])
        means = [math.fsum(p * rows[:, k]) for k in range(len(config))]
        print(f"  t={t:4.0f}, start site u_{j}={uj}: E[M_k] = "
              + ", ".join(f"{m:+.10f}" for m in means))
