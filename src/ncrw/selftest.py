"""End-to-end numerical self-checks behind the ``selftest`` subcommand.

Each check pins an identity of the model to a fixed tolerance and runtime
budget: the Bessel table of the transition law against the two routes
defined here as its checks, martingale and determinant identities, the
projection property of equal-time kernels, gauge invariance of
correlations, the finite-window limit to the lattice kernel, relaxation
to the sine kernel, and the stationary-kernel rewrites.  The Monte Carlo
comparisons live in the test suite instead (they take minutes, not
seconds).

The tau = 32 relaxation gap and its friends are regression fixtures:
computed once from this code base, then frozen.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass
from typing import Callable, TextIO

import numpy as np

from .bessel import _check_order_time, scaled_bessel_i_all, truncation_radius
from .correlations import kernel_matrix
from .kernels import KernelSpec, LatticeSpec, StationarySpec, sine_kernel
from .martingales import (FiniteConfiguration, martingale_polynomial,
                          site_martingale_rows)
from .montecarlo import vandermonde_ratio
from .quadrature import gauss_legendre
from .relaxation import relaxation_sweep

# Equal-time relaxation gap max_{|dx|<=5} at tau = 32, a = 2 (criterion 8
# fixture, frozen after first computation by this implementation).
RELAXATION_GAP_FIXTURE_TAU32 = 0.004974808911999862
RELAXATION_FIXTURE_TOL = 1e-9


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        flag = "PASS" if self.passed else "FAIL"
        return f"{flag} {self.name}: {self.detail} [{self.seconds:.2f}s]"


def _finish(name: str, started: float, passed: bool, detail: str,
            budget: float | None = None) -> CheckResult:
    elapsed = time.perf_counter() - started
    if budget is not None and elapsed >= budget:
        passed = False
        detail += f"; runtime {elapsed:.2f}s over budget {budget:g}s"
    return CheckResult(name, passed, detail, elapsed)


def transition_probability_quadrature(t: float, x: int, y: int) -> float:
    """p(t, y|x) as (1/pi) int_0^pi cos(k(y-x)) e^{-(1-cos k)t} dk, whose
    entire integrand ``gauss_legendre`` resolves to 1e-14."""
    _check_order_time(0, t)
    d = abs(int(y) - int(x))
    return gauss_legendre(
        lambda k: np.cos(d * k) * np.exp((np.cos(k) - 1.0) * t),
        0.0, math.pi, tol=1e-14) / math.pi


def transition_probability_poisson(t: float, x: int, y: int) -> float:
    """p(t, y|x) = sum_j e^{-t} t^j / j! * C(j, (j+d)/2) / 2^j over j >= d =
    |y - x|, j = d (mod 2): the discrete walk, Poissonized, with e^{-t}
    t^j / j! kept as a mantissa and a power of two.  Within 1e-12 relative
    for 0 <= t <= 5000 (2e-13 at t = 5000); ``ValueError`` beyond."""
    _check_order_time(0, t)
    if t > 5000:
        raise ValueError(f"Poisson route covers t <= 5000, got {t}")
    d = abs(int(y) - int(x))
    # e^{-t} t^j / j! = weight * 2^-shift, with weight in [0.5, 1] or 0
    shift = int(t / math.log(2))
    weight = math.exp(shift * math.log(2) - t)
    terms = []
    j, binom = 0, 1  # binom = C(j, (j + d) // 2) from j = d on
    while True:
        if j >= d and (j - d) % 2 == 0:
            if j > d:  # C(j, k) from C(j - 2, k - 1), k = (j + d) / 2
                binom = binom * j * (j - 1) // ((j + d) // 2 * ((j - d) // 2))
            terms.append(math.ldexp(weight * (binom / (1 << j)), -shift))
        last = terms[-1] if terms else 0.0
        if j > t and math.ldexp(weight, -shift) <= 1e-18 * last:
            return math.fsum(terms)
        j += 1
        weight, e = math.frexp(weight * (t / j))
        shift -= e


def check_transition_triple() -> CheckResult:
    """Bessel form, Fourier quadrature and Poissonization agree pairwise."""
    started = time.perf_counter()
    worst = 0.0
    for t in (0.5, 1.0, 2.0, 5.0, 10.0):
        table = scaled_bessel_i_all(30, t)
        for d in range(31):
            a = float(table[d])
            b = transition_probability_quadrature(t, 0, d)
            c = transition_probability_poisson(t, 0, d)
            worst = max(worst, abs(a - b), abs(a - c), abs(b - c))
    return _finish("transition-triple-agreement", started, worst <= 1e-12,
                   f"max pairwise difference {worst:.2e} (tol 1e-12)",
                   budget=1.0)


def check_martingale_identities() -> CheckResult:
    """Semigroup inverts the polynomials and maps site martingales back to
    the Lagrange basis, at times where cancellation is severe."""
    started = time.perf_counter()
    worst_poly = 0.0
    for t in (0.5, 1.0, 2.0):
        radius = truncation_radius(t, 1e-30) + 4
        for u in range(-2, 3):
            it = scaled_bessel_i_all(radius, t)
            for n in range(9):
                total = math.fsum(
                    it[abs(y - u)] * martingale_polynomial(n, t, float(y))
                    for y in range(u - radius, u + radius + 1))
                worst_poly = max(worst_poly, abs(total - float(u) ** n))
    # sum_y p(t, y|x) M_k(t, y) = Phi^{u_k}(x), the rows at t = 0
    config = FiniteConfiguration((0, 2, 5))
    xs = range(-1, 7)
    basis = site_martingale_rows(config, 0.0, xs)[0]
    worst_site = 0.0
    for t in (0.5, 2.0, 14.0, 22.0):
        radius = truncation_radius(t, 1e-30) + 4
        ys = np.arange(xs[0] - radius, xs[-1] + radius + 1)
        rows = site_martingale_rows(config, t, ys)[0]
        it = scaled_bessel_i_all(radius + len(xs), t)
        for i, x in enumerate(xs):
            weights = it[np.abs(ys - x)]
            for k in range(len(config)):
                total = math.fsum(weights * rows[:, k])
                worst_site = max(worst_site, abs(total - basis[i, k]))
    ok = worst_poly <= 1e-8 and worst_site <= 1e-10
    return _finish("martingale-identities", started, ok,
                   f"semigroup residual {worst_poly:.2e} (tol 1e-8), "
                   f"site-martingale residual {worst_site:.2e} (tol 1e-10)",
                   budget=5.0)


def check_lagrange_determinant_identity() -> CheckResult:
    """h(z)/h(u) equals det[M_{u_k}(t, z_j)] of the site martingales for
    every t (the Lagrange basis matrix at t = 0), random instances."""
    started = time.perf_counter()
    rng = np.random.default_rng(20240)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 6))
        u = np.sort(rng.choice(np.arange(-10, 11), size=n, replace=False))
        z = rng.choice(np.arange(-10, 11), size=n, replace=False)
        config = FiniteConfiguration(tuple(int(v) for v in u))
        ratio = float(vandermonde_ratio(z, u))
        for t in (0.0, 0.5, 1.0, 2.0, 4.0):
            det = np.linalg.det(site_martingale_rows(config, t, z)[0])
            worst = max(worst, abs(float(det) - ratio) / abs(ratio))
    return _finish("lagrange-determinant-identity", started, worst <= 1e-10,
                   f"max relative residual {worst:.2e} (tol 1e-10)")


def check_equal_time_projection() -> CheckResult:
    """Equal-time kernel is a rank-N projection on a truncated window."""
    started = time.perf_counter()
    worst_proj = 0.0
    worst_trace = 0.0
    for sites in ((0, 2), (-2, 0, 3)):
        config = FiniteConfiguration(sites)
        for t in (0.5, 1.0, 2.0):
            radius = truncation_radius(t, 1e-24) + 4
            window = range(min(sites) - radius, max(sites) + radius + 1)
            kt = kernel_matrix(KernelSpec(config), [(t, x) for x in window])
            worst_proj = max(worst_proj, float(np.abs(kt @ kt - kt).max()))
            worst_trace = max(worst_trace,
                              abs(float(np.trace(kt)) - len(sites)))
    ok = worst_proj <= 1e-8 and worst_trace <= 1e-8
    return _finish("equal-time-projection", started, ok,
                   f"max |K.K - K| {worst_proj:.2e}, "
                   f"max |trace - N| {worst_trace:.2e} (tol 1e-8)",
                   budget=10.0)


_GAUGE_POINT_SETS = (
    [(0.5, 0), (0.5, 1)],
    [(0.3, 0), (0.8, 2), (1.2, 1)],
    [(0.4, -1), (0.4, 0), (1.1, 2), (1.6, 3)],
    [(1.0, 0)],
)


def check_gauge_invariance() -> CheckResult:
    """Correlation determinants identical in both gauge conventions."""
    started = time.perf_counter()
    variants = (FiniteConfiguration((0, 2)), LatticeSpec(2),
                StationarySpec(0.5))
    worst = 0.0
    for variant in variants:
        for points in _GAUGE_POINT_SETS:
            dp, da = (np.linalg.det(kernel_matrix(KernelSpec(variant, g), points))
                      for g in ("prob", "paper"))
            worst = max(worst, abs(dp - da) / max(abs(dp), 1e-12))
    return _finish("gauge-invariance", started, worst <= 1e-10,
                   f"max relative determinant mismatch {worst:.2e} (tol 1e-10)")


def check_lattice_from_finite() -> CheckResult:
    """Finite equidistant windows converge to the lattice kernel.

    The error decrease over L in {10, 20, 40} must be monotone and the
    stated acceptance threshold 1e-6 applies at L = 40.
    """
    started = time.perf_counter()
    points = [(0.5, 0), (0.5, 1)]
    target = kernel_matrix(KernelSpec(LatticeSpec(2)), points)
    errs = []
    for half_width in (10, 20, 40):
        config = FiniteConfiguration.equidistant(2, half_width)
        errs.append(np.abs(kernel_matrix(KernelSpec(config), points) - target))
    monotone = bool(np.all((errs[0] > errs[1]) & (errs[1] > errs[2])))
    final = float(errs[2].max())
    ok = monotone and final <= 1e-6
    return _finish(
        "lattice-from-finite-convergence", started, ok,
        f"monotone={monotone}, max error at L=40 is {final:.2e} "
        "(tol 1e-6; the window limit converges at rate ~1/L, see notes)")


def check_relaxation() -> CheckResult:
    """Equal-time gap to the sine kernel shrinks along the tau grid."""
    started = time.perf_counter()
    report = relaxation_sweep(LatticeSpec(2),
                              [(0.0, dx) for dx in range(-5, 6)],
                              (4.0, 8.0, 16.0, 32.0))
    per_tau = report.max_gap()
    monotone = bool(np.all(np.diff(per_tau) <= 1e-12))
    fixture_dev = abs(per_tau[-1] - RELAXATION_GAP_FIXTURE_TAU32)
    ok = monotone and fixture_dev <= RELAXATION_FIXTURE_TOL
    return _finish(
        "relaxation-to-sine-kernel", started, ok,
        f"max gaps per tau {np.array2string(per_tau, precision=3)}, "
        f"fixture deviation {fixture_dev:.2e}", budget=30.0)


def check_stationary_identities() -> CheckResult:
    """Fourier rewrite of the transition law against the Bessel table;
    sine kernel consistency."""
    started = time.perf_counter()
    worst_rewrite = max(
        abs(float(scaled_bessel_i_all(dx, t)[dx])
            - transition_probability_quadrature(t, 0, dx))
        for t in (0.5, 1.0, 2.0) for dx in (0, 1, 2, 5))
    ns = range(-10, 11)
    exact = all(
        KernelSpec(StationarySpec(rho)).values(
            [(0.0, 0)] * len(ns), [(0.0, n) for n in ns]).tolist()
        == [sine_kernel(rho, n) for n in ns] for rho in (0.5, 1.0 / 3.0))
    ok = worst_rewrite <= 1e-12 and exact
    return _finish("stationary-kernel-identities", started, ok,
                   f"rewrite residual {worst_rewrite:.2e} (tol 1e-12), "
                   f"equal-time closed form exact: {exact}")


ALL_CHECKS: tuple[Callable[[], CheckResult], ...] = (
    check_transition_triple,
    check_martingale_identities,
    check_lagrange_determinant_identity,
    check_equal_time_projection,
    check_gauge_invariance,
    check_lattice_from_finite,
    check_relaxation,
    check_stationary_identities,
)


def run_selftest(stream: TextIO = sys.stdout) -> int:
    """Run every check, print one pass/fail line each; 0 iff all passed."""
    results = []
    for check in ALL_CHECKS:
        result = check()
        results.append(result)
        print(result.line(), file=stream, flush=True)
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed",
          file=stream, flush=True)
    return 1 if failed else 0
