"""Relaxation of the infinite lattice process to the sine-kernel state.

Walks started from every site of a*Z, conditioned never to collide, form
a determinantal process with an explicit kernel.  Shifting both time
arguments by tau and letting tau grow drives that kernel to the
stationary sine kernel at density 1/a.  The entire distance is carried by
an aliasing remainder whose integrand is damped strictly below 1, and the
gap decays like ~1/tau.
"""

from ncrw import (KernelSpec, LatticeSpec, lattice_kernel_remainder,
                  relaxation_sweep, sine_kernel)

lattice = LatticeSpec(2)
print("equal-time lattice kernel vs sine kernel at density 1/2")
taus = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)
report = relaxation_sweep(lattice, [(0.0, dx) for dx in range(6)], taus)

header = "  tau | " + " ".join(f"dx={dx:<8d}" for dx in range(6))
print(header)
print("  " + "-" * (len(header) - 2))
for i, tau in enumerate(report.tau_grid):
    row = " ".join(f"{report.gaps[i, j]:<11.2e}"
                   for j in range(len(report.displacements)))
    print(f"{tau:5.0f} | {row}")
print("  sine kernel values: "
      + ", ".join(f"{sine_kernel(0.5, dx):+.4f}" for dx in range(6)))
print(f"  tau * max-gap stays near a constant: "
      + ", ".join(f"{t * g:.3f}" for t, g in zip(taus, report.max_gap())))

print("\nthe gap IS the aliasing remainder (equal time):")
taus_shown = (4.0, 16.0)
ks = KernelSpec(lattice).values([(tau, 0) for tau in taus_shown],
                                [(tau, 1) for tau in taus_shown])
for tau, k in zip(taus_shown, ks):
    r = lattice_kernel_remainder(lattice, tau, 0, tau, 1)
    print(f"  tau={tau:4.0f}: K - K_sin = {k - sine_kernel(0.5, 1):+.3e}, "
          f"remainder = {r:+.3e}")

print("\ntwo-time displacement (dt = 1) relaxes the same way:")
report2 = relaxation_sweep(lattice, [(1.0, dx) for dx in (0, 1)],
                           (2.0, 8.0, 32.0))
for i, tau in enumerate(report2.tau_grid):
    print(f"  tau={tau:4.0f}: gaps "
          + ", ".join(f"{g:.2e}" for g in report2.gaps[i]))
