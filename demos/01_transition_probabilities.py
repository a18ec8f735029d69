"""The continuous-time simple random walk and its transition law.

The walk jumps at unit rate and steps +-1 with equal probability.  Its
transition probability has a closed form in scaled modified Bessel
functions, p(t, y|x) = e^{-t} I_{|y-x|}(t), which the package reads from
one table and this demo pits against the two independent routes that
``ncrw selftest`` checks it with: spectral quadrature over the circle and
Poissonization of the discrete-time walk.
"""

import math

from ncrw import scaled_bessel_i_all, truncation_radius
from ncrw.selftest import (transition_probability_poisson,
                           transition_probability_quadrature)

print("p(t, y|x) = e^{-t} I_{|y-x|}(t)  [three routes]")
print(f"{'t':>5} {'|y-x|':>5} {'bessel':>22} {'quadrature':>22} {'poisson':>22}")
for t in (0.5, 1.0, 2.0, 5.0):
    table = scaled_bessel_i_all(8, t)  # p(t, d|0) for d = 0..8
    for d in (0, 1, 3, 8):
        a = table[d]
        b = transition_probability_quadrature(t, 0, d)
        c = transition_probability_poisson(t, 0, d)
        print(f"{t:5.1f} {d:5d} {a:22.16f} {b:22.16f} {c:22.16f}")

print("\nconservation of probability on the truncated lattice:")
for t in (0.5, 2.0, 5.0):
    radius = truncation_radius(t, 1e-16)
    p = scaled_bessel_i_all(radius, t)
    total = p[0] + 2.0 * math.fsum(p[1:])
    print(f"  t={t:4.1f}: sum over |y| <= {radius:3d} of p = {total:.15f}")

print("\nno overflow at extreme arguments (scaled form):")
for n, t in ((0, 10_000.0), (10_000, 10_000.0), (200, 1_000.0)):
    print(f"  e^-t I_n(t) at n={n:6d}, t={t:8.0f}: "
          f"{scaled_bessel_i_all(n, t)[n]:.6e}")
