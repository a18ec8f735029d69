"""All correlations of the noncolliding walk are kernel determinants.

Starting N walks from a finite configuration and conditioning them never
to collide yields a determinantal process: the density is the kernel
diagonal, pair correlations are 2x2 determinants (showing the
characteristic repulsion), multi-time correlations mix times through the
backward indicator term, and moment generating functionals over finite
windows are finite Fredholm determinants.
"""

import numpy as np

from ncrw import (FiniteConfiguration, KernelSpec, MultiTimePointSet,
                  correlation_function, density_profile,
                  fredholm_generating_function, kernel_matrix)

config = FiniteConfiguration((0, 2))
spec = KernelSpec(config)

print("density profile rho(t, x) for walks started at {0, 2}:")
window = range(-4, 7)
for t in (0.0, 0.5, 1.0, 2.0):
    d = density_profile(spec, t, window)
    row = " ".join(f"{v:6.3f}" for v in d)
    print(f"  t={t:4.1f}: {row}   (sum over wide window ~ 2)")

print("\npair repulsion at t = 0.5: rho_2(x, y) vs rho(x) rho(y)")
pts = lambda *groups: MultiTimePointSet(tuple(groups))
for x, y in ((0, 1), (0, 2), (0, 4)):
    rho2 = correlation_function(spec, pts((0.5, (x, y))))
    rho_x = correlation_function(spec, pts((0.5, (x,))))
    rho_y = correlation_function(spec, pts((0.5, (y,))))
    print(f"  sites ({x},{y}): joint {rho2:8.5f}   product {rho_x * rho_y:8.5f}"
          f"   ratio {rho2 / (rho_x * rho_y):6.3f}")

print("\ntwo-time correlation (one particle at 0 at t=0.5 AND at 1 at t=1):")
val = correlation_function(spec, pts((0.5, (0,)), (1.0, (1,))))
print(f"  rho = {val:.8f} (gauge-free: prob and paper gauges agree)")
val_paper = correlation_function(KernelSpec(config, "paper"),
                                 pts((0.5, (0,)), (1.0, (1,))))
print(f"  paper-gauge evaluation: {val_paper:.8f}")

print("\nequal-time kernel is a projection of rank N:")
kt = kernel_matrix(spec, [(1.0, x) for x in range(-20, 23)])
print(f"  ||K@K - K||_max = {np.abs(kt @ kt - kt).max():.2e}, "
      f"trace = {np.trace(kt):.10f}")

print("\nvoid probabilities from the Fredholm determinant (chi = -1):")
for sites in ((1,), (0, 1), (-1, 1, 3)):
    void = fredholm_generating_function(spec, {(0.7, x): -1.0 for x in sites})
    print(f"  P(window {sites} empty at t=0.7) = {void:.6f}")
