"""Spatio-temporal correlation kernels of the noncolliding walk.

Three kernels under one interface:

* ``kernel_finite``     - N walks started from a finite configuration,
* ``kernel_lattice``    - infinitely many walks started from a*Z,
* ``kernel_stationary`` - the translation-invariant equilibrium kernel at
  density rho (sine kernel at equal times).

Each kernel is defined up to a gauge: multiplying K(s,x;t,y) by
f(t,y)/f(s,x) changes no correlation determinant.  Two conventions are
implemented.  ``"prob"`` (canonical) assembles every term from genuine
transition probabilities e^{-t} I_n(t), keeping all magnitudes bounded;
``"paper"`` removes the factor e^{t-s}, which matches the bare
Bessel-product form of the finite kernel.  The two differ exactly by
e^{t-s} and all equal-time values coincide.

The lattice kernel has two independent evaluation routes: the defining
sum over initial sites ("sum") and a spectrally folded form ("spectral")
obtained by collapsing the sum over sites against the momentum integrals
(a Poisson-summation identity), which splits the kernel into a principal
band term plus an aliasing remainder.  The folded route has no
exponential cancellation and is used automatically at large times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .bessel import scaled_bessel_i, scaled_bessel_i_all, truncation_radius
from .errors import ConvergenceError
from .martingales import (FiniteConfiguration, LatticeSpec,
                          lattice_martingale_batch, site_martingale_row)
from .quadrature import gauss_legendre

GAUGES = ("prob", "paper")

# switch the lattice kernel to the folded route once the site-sum route
# would lose more than ~1e-10 to cancellation: its intermediate terms grow
# like exp(t * (1 - cos(pi/a))).
_SPECTRAL_SWITCH = 10.0
# the same ~1e-10 budget for the finite kernel: refuse a value whose
# estimated rounding error (see _check_rounding) is larger.
_ROUNDING_BUDGET = 1e-10
_EPS = float(np.finfo(float).eps)


class SpaceTimePoint(NamedTuple):
    t: float
    x: int


def as_point(p) -> SpaceTimePoint:
    t, x = p
    t = float(t)
    if not math.isfinite(t) or t < 0:
        raise ValueError(f"time coordinate must be finite and >= 0, got {t}")
    if x != int(x):
        raise ValueError(f"space coordinate must be an integer, got {x}")
    return SpaceTimePoint(t, int(x))


def _check_gauge(gauge: str) -> None:
    if gauge not in GAUGES:
        raise ValueError(f"gauge must be one of {GAUGES}, got {gauge!r}")


def sine_kernel(rho: float, n: int) -> float:
    """Equal-time equilibrium kernel sin(rho*pi*n) / (pi*n); rho at n = 0."""
    if not 0.0 < rho < 1.0:
        raise ValueError(f"density must be in (0, 1), got {rho}")
    n = int(n)
    if n == 0:
        return rho
    return math.sin(rho * math.pi * n) / (math.pi * n)


# ---------------------------------------------------------------------------
# finite configurations
# ---------------------------------------------------------------------------

def _check_rounding(operation: str, config: FiniteConfiguration, t: float,
                    spread: float) -> None:
    # spread is sum_k p(s, x|u_k) * (sum of absolute series terms of M_k);
    # eps times it estimates the rounding error of the kernel value.
    bound = _EPS * spread
    if not bound <= _ROUNDING_BUDGET:
        raise ConvergenceError(
            operation,
            f"rounding error bound {bound:.2g} above {_ROUNDING_BUDGET:g} for "
            f"N={len(config)} sites at t={t:g} (configuration too wide for "
            "double precision at this time)")


def kernel_finite(config: FiniteConfiguration, p, q,
                  gauge: str = "prob") -> float:
    """Correlation kernel for N walks started from ``config``.

    In the "prob" gauge:

        K(s,x;t,y) = sum_j p(s, x|u_j) M_j(t, y) - 1(s>t) p(s-t, x|y)

    with M_j the site martingale of u_j.  The "paper" gauge multiplies by
    e^{s-t}, which strips the transition-probability prefactors down to
    bare Bessel products.  Raises ``ConvergenceError`` when cancellation in
    the martingale series could cost more than ~1e-10 absolute.
    """
    _check_gauge(gauge)
    s, x = as_point(p)
    t, y = as_point(q)
    dist = np.abs(x - np.asarray(config.sites))
    weights = scaled_bessel_i_all(int(dist.max()), s)[dist]
    row, spread = site_martingale_row(config, t, y)
    _check_rounding("kernel_finite", config, t, float(weights @ spread))
    total = math.fsum(weights * row)
    if s > t:
        total -= scaled_bessel_i(abs(x - y), s - t)
    if gauge == "paper":
        total *= math.exp(s - t)
    return total


def equal_time_kernel_matrix(config: FiniteConfiguration, t: float,
                             window: Sequence[int]) -> np.ndarray:
    """Matrix K_t(x, y) over a site window (both gauges agree at equal time).

    K_t is the projection onto the N-dimensional span of the evolved
    initial states: K_t * K_t = K_t on Z and trace K_t = N.  Raises
    ``ConvergenceError`` under the same rounding guard as ``kernel_finite``,
    applied to every entry.
    """
    sites = [int(v) for v in window]
    dist = np.abs(np.asarray(sites)[:, None] - np.asarray(config.sites))
    trans = scaled_bessel_i_all(int(dist.max()), float(t))[dist]
    rows, spreads = zip(*(site_martingale_row(config, float(t), y)
                          for y in sites))
    _check_rounding("equal_time_kernel_matrix", config, t,
                    float((trans @ np.array(spreads).T).max()))
    return trans @ np.array(rows).T


# ---------------------------------------------------------------------------
# infinite equidistant lattice
# ---------------------------------------------------------------------------

def _lattice_site_sum(lattice: LatticeSpec, s: float, x: int, t: float,
                      y: int, eps_tail: float, tol: float) -> float:
    a = lattice.a
    # site weights itilde_{|x-aj|}(s) pair with martingale values of size up
    # to mhat_bound, so push the site radius until their product is tiny.
    mhat_bound = math.exp(t * (1.0 - math.cos(math.pi / a)))
    eps_eff = min(0.5, max(eps_tail / mhat_bound, 1e-280))
    r = truncation_radius(s, eps_eff)
    j_lo = math.ceil((x - r) / a)
    j_hi = math.floor((x + r) / a)
    if j_hi < j_lo:
        return 0.0
    js = np.arange(j_lo, j_hi + 1)
    it = scaled_bessel_i_all(int(max(abs(x - a * j_lo), abs(x - a * j_hi))), s)
    mhat = lattice_martingale_batch(lattice, js, t, y, tol=tol)
    return math.fsum(it[abs(x - a * j)] * mhat[i] for i, j in enumerate(js))


def lattice_kernel_g(lattice: LatticeSpec, dt: float, dx: int, *,
                     tol: float = 1e-13) -> float:
    """Principal band term of the folded lattice kernel:

    (1/2*pi*a) int_{-pi}^{pi} exp(i*lam*dx/a + dt*(1 - cos(lam/a))) dlam.

    Depends only on the displacement (dt, dx); at dt = 0 it equals the
    sine kernel at density 1/a.
    """
    a = lattice.a
    dx = int(dx)

    def integrand(lam):
        return np.cos(lam * dx / a) * np.exp(dt * (1.0 - np.cos(lam / a)))

    return gauss_legendre(integrand, 0.0, math.pi, tol=tol) / (math.pi * a)


def remainder_branches(lattice: LatticeSpec) -> list[tuple[int, float, float]]:
    """Nonempty momentum windows (m, lam_lo, lam_hi) of the aliasing sum.

    Folding sum_j e^{-i(theta+lam)j} against the site sum restricts theta
    to 2*pi*m - lam inside the annulus pi < |theta| <= a*pi; each shift m
    contributes the lam-window returned here (negative m mirror these).
    """
    a = lattice.a
    out = []
    for m in range(1, a // 2 + 2):
        lo = max(-math.pi, (2 * m - a) * math.pi)
        if lo < math.pi:
            out.append((m, lo, math.pi))
    return out


def lattice_kernel_remainder(lattice: LatticeSpec, s: float, x: int,
                             t: float, y: int, *,
                             tol: float = 1e-13) -> float:
    """Aliasing remainder of the folded lattice kernel.

    Sum over the nonzero comb shifts of

    (1/pi*a) int Re exp(i*(theta*x + lam*y)/a)
                 * exp((t-s)*(1 - cos(lam/a)) + s*(cos(theta/a) - cos(lam/a)))
    dlam,  theta = 2*pi*m - lam.

    The damping factor exp(s*(cos(theta/a) - cos(lam/a))) is < 1 on the
    annulus, so the remainder vanishes as both times grow: this is the
    entire distance from the lattice kernel to the stationary one.
    """
    a = lattice.a
    x = int(x)
    y = int(y)
    total = 0.0
    for m, lo, hi in remainder_branches(lattice):
        def integrand(lam, m=m):
            theta = 2.0 * math.pi * m - lam
            phase = np.cos((theta * x + lam * y) / a)
            expo = ((t - s) * (1.0 - np.cos(lam / a))
                    + s * (np.cos(theta / a) - np.cos(lam / a)))
            return phase * np.exp(expo)

        total += gauss_legendre(integrand, lo, hi, tol=tol) / (math.pi * a)
    return total


def kernel_lattice(lattice: LatticeSpec, p, q, gauge: str = "prob", *,
                   method: str = "auto", eps_tail: float = 1e-14,
                   tol: float = 1e-13) -> float:
    """Correlation kernel for the infinite equidistant configuration a*Z.

    ``method="sum"`` evaluates the defining sum over initial sites,
    ``method="spectral"`` the folded principal + remainder form; ``"auto"``
    picks the site sum while its cancellation error stays below ~1e-10 and
    the folded form beyond.  Both agree to quadrature accuracy in the
    overlap.
    """
    _check_gauge(gauge)
    s, x = as_point(p)
    t, y = as_point(q)
    a = lattice.a
    if method == "auto":
        method = "sum" if t * (1.0 - math.cos(math.pi / a)) <= _SPECTRAL_SWITCH \
            else "spectral"
    if method == "sum":
        total = _lattice_site_sum(lattice, s, x, t, y, eps_tail, tol)
    elif method == "spectral":
        total = (lattice_kernel_g(lattice, t - s, y - x, tol=tol)
                 + lattice_kernel_remainder(lattice, s, x, t, y, tol=tol))
    else:
        raise ValueError(f"method must be sum|spectral|auto, got {method!r}")
    if s > t:
        total -= scaled_bessel_i(abs(x - y), s - t)
    if gauge == "paper":
        total *= math.exp(s - t)
    return total


# ---------------------------------------------------------------------------
# stationary kernel
# ---------------------------------------------------------------------------

def kernel_stationary(rho: float, dt: float, dx: int, gauge: str = "prob", *,
                      tol: float = 1e-13) -> float:
    """Stationary kernel at density rho as a function of the displacement.

    Equal times give the sine kernel; for dt != 0 the two gauges read

        prob:   +- int cos(u*pi*dx) exp( dt*(1 - cos(u*pi))) du
        paper:  +- int cos(u*pi*dx) exp(-dt*cos(u*pi)) du

    over [0, rho] with "+" for dt > 0 and over [rho, 1] with "-" for
    dt < 0 (they differ by the gauge factor e^{dt}).
    """
    _check_gauge(gauge)
    if not 0.0 < rho < 1.0:
        raise ValueError(f"density must be in (0, 1), got {rho}")
    dt = float(dt)
    dx = int(dx)
    if dt == 0.0:
        return sine_kernel(rho, dx)

    if gauge == "prob":
        def integrand(u):
            return np.cos(u * math.pi * dx) * np.exp(dt * (1.0 - np.cos(u * math.pi)))
    else:
        def integrand(u):
            return np.cos(u * math.pi * dx) * np.exp(-dt * np.cos(u * math.pi))

    if dt > 0:
        return gauss_legendre(integrand, 0.0, rho, tol=tol)
    return -gauss_legendre(integrand, rho, 1.0, tol=tol)


# ---------------------------------------------------------------------------
# gauge handling and the tagged kernel choice
# ---------------------------------------------------------------------------

def gauge_transform(kernel: Callable[[tuple, tuple], float],
                    f: Callable[[float, int], float]):
    """Kernel (p, q) -> f(q)/f(p) * K(p, q) for a positive weight f(t, x).

    Correlation determinants over matched point sets are unchanged by this
    transformation; f(t, x) = e^{-t} maps the "prob" gauge to "paper".
    """

    def transformed(p, q):
        sp = as_point(p)
        sq = as_point(q)
        fp = f(sp.t, sp.x)
        fq = f(sq.t, sq.x)
        if not (fp > 0.0 and fq > 0.0):
            raise ValueError(
                f"gauge weight must be positive, got f{tuple(sp)}={fp}, f{tuple(sq)}={fq}")
        return fq / fp * kernel(sp, sq)

    return transformed


@dataclass(frozen=True)
class StationarySpec:
    """Stationary kernel choice at particle density 0 < rho < 1."""

    rho: float

    def __post_init__(self):
        if not 0.0 < self.rho < 1.0:
            raise ValueError(f"density must be in (0, 1), got {self.rho}")


@dataclass(frozen=True)
class KernelSpec:
    """Tagged kernel choice (finite | lattice | stationary) plus gauge."""

    variant: FiniteConfiguration | LatticeSpec | StationarySpec
    gauge: str = "prob"

    def __post_init__(self):
        _check_gauge(self.gauge)
        if not isinstance(self.variant,
                          (FiniteConfiguration, LatticeSpec, StationarySpec)):
            raise TypeError(f"unsupported kernel variant {self.variant!r}")

    def evaluate(self, p, q, *, eps_tail: float | None = None,
                 tol: float | None = None,
                 method: str | None = None) -> float:
        if isinstance(self.variant, FiniteConfiguration):
            return kernel_finite(self.variant, p, q, self.gauge)
        if isinstance(self.variant, LatticeSpec):
            kw = {k: v for k, v in
                  (("eps_tail", eps_tail), ("tol", tol), ("method", method))
                  if v is not None}
            return kernel_lattice(self.variant, p, q, self.gauge, **kw)
        sp = as_point(p)
        sq = as_point(q)
        kw = {} if tol is None else {"tol": tol}
        return kernel_stationary(self.variant.rho, sq.t - sp.t, sq.x - sp.x,
                                 self.gauge, **kw)

    @classmethod
    def parse(cls, text: str, gauge: str = "prob") -> "KernelSpec":
        """Parse "finite:u1,u2,..." | "lattice:a" | "stationary:rho"."""
        kind, _, arg = text.partition(":")
        if kind == "finite":
            sites = tuple(int(v) for v in arg.split(",") if v != "")
            return cls(FiniteConfiguration(sites), gauge)
        if kind == "lattice":
            return cls(LatticeSpec(int(arg)), gauge)
        if kind == "stationary":
            return cls(StationarySpec(float(arg)), gauge)
        raise ValueError(f"unknown kernel spec {text!r} "
                         "(expected finite:...|lattice:...|stationary:...)")
