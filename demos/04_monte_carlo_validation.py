"""Two Monte Carlo estimators cross-validate the analytic kernels.

Expectations of the conditioned process can be sampled from plain
independent walks in two ways: keep only paths that stay ordered up to a
horizon T and weight by the Vandermonde ratio h(V(T))/h(u), or keep every
path and weight by the determinant det[M_{u_k}(T, V_j(T))] of the site
martingales at T (signed weights).  The martingale polynomials m_n are
monic, so that determinant equals h(V(T))/h(u) exactly: both estimators
use the same weight and differ only by the survival indicator, and the
tests and ``selftest`` check the identity on the site martingales, not
through the Monte Carlo.  Both must agree with each other and with the
kernel determinants; the absorbed-path weight, their difference, must
average to zero by antisymmetry.
"""

import time

from ncrw import (FiniteConfiguration, KernelSpec, MultiTimePointSet,
                  OccupationProduct, One, absorbed_weight_mean,
                  correlation_function, estimate_many)

config = FiniteConfiguration((0, 2))
spec = KernelSpec(config)
n_samples, horizon, seed = 20_000, 1.0, 7

points = [MultiTimePointSet(((0.5, (0,)),)),
          MultiTimePointSet(((0.5, (1,)),)),
          MultiTimePointSet(((0.5, (0, 1)),)),
          MultiTimePointSet(((0.5, (0,)), (1.0, (1,))))]
labels = ["density (0.5, 0)", "density (0.5, 1)", "pair t=0.5 {0,1}",
          "two-time (0.5,0)&(1,1)"]
functionals = [One()] + [OccupationProduct(p) for p in points]

print(f"{n_samples} samples, horizon T={horizon}, start {config.sites}\n")
t0 = time.perf_counter()
res_h = estimate_many(config, functionals, horizon, n_samples, seed, "h")
res_d = estimate_many(config, functionals, horizon, n_samples, seed, "dmr")
print(f"sampling took {time.perf_counter() - t0:.1f}s; "
      f"dmr effective sample size {res_d[0].effective_samples:.0f}\n")

print(f"{'functional':<24} {'analytic':>10} {'h-transform':>20} "
      f"{'determinant':>20}")
print(f"{'constant 1':<24} {1.0:>10.6f} "
      f"{res_h[0].mean:>12.6f} ({res_h[0].std_error:.4f}) "
      f"{res_d[0].mean:>12.6f} ({res_d[0].std_error:.4f})")
for label, p, rh, rd in zip(labels, points, res_h[1:], res_d[1:]):
    analytic = correlation_function(spec, p)
    print(f"{label:<24} {analytic:>10.6f} "
          f"{rh.mean:>12.6f} ({rh.std_error:.4f}) "
          f"{rd.mean:>12.6f} ({rd.std_error:.4f})")

absorbed = absorbed_weight_mean(config, horizon, n_samples, 11)
print(f"\nabsorbed-path weight mean (exactly 0 in expectation): "
      f"{absorbed.mean:+.5f} +- {absorbed.std_error:.5f}")

print("\nz-scores of each estimate against the kernel determinant:")
for label, p, rh, rd in zip(labels, points, res_h[1:], res_d[1:]):
    analytic = correlation_function(spec, p)
    zh = (rh.mean - analytic) / rh.std_error
    zd = (rd.mean - analytic) / rd.std_error
    print(f"  {label:<24} z_h = {zh:+5.2f}   z_dmr = {zd:+5.2f}")
