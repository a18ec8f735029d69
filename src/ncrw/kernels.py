"""Spatio-temporal correlation kernels of the noncolliding walk.

One interface, ``KernelSpec``, tags three kernels with a gauge:

* ``FiniteConfiguration`` - N walks started from a finite configuration,
* ``LatticeSpec``         - infinitely many walks started from a*Z,
* ``StationarySpec``      - the translation-invariant equilibrium kernel at
  density rho (sine kernel at equal times).

``KernelSpec.values(ps, qs)`` is the only evaluation: it returns
K(ps[i], qs[i]) for a whole batch of point pairs, sharing Bessel tables,
site-martingale rows and momentum quadratures between the entries.
``kernel_matrix`` takes the same route and differs only in how the finite
kernel's rounding guard judges the batch: as one matrix, after balancing.

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
from typing import NamedTuple, Sequence

import numpy as np

from .bessel import scaled_bessel_i_all, truncation_radius
from .errors import ConvergenceError
from .martingales import (FiniteConfiguration, LatticeSpec,
                          lattice_martingale_batch, site_martingale_rows)
from .quadrature import gauss_legendre

GAUGES = ("prob", "paper")

# switch the lattice kernel to the folded route once the site-sum route
# would lose more than ~1e-10 to cancellation: its intermediate terms grow
# like exp(t * (1 - cos(pi/a))).
_SPECTRAL_SWITCH = 10.0
# the same ~1e-10 budget for the finite kernel: refuse a value whose
# estimated rounding error (see _finite_sums) is larger.
_ROUNDING_BUDGET = 1e-10
# sweeps of the balancing iteration that judges refused matrices
_BALANCE_SWEEPS = 100
_EPS = float(np.finfo(float).eps)


class SpaceTimePoint(NamedTuple):
    t: float
    x: int


def _split_points(points) -> tuple[np.ndarray, np.ndarray]:
    # times and integer sites of a batch of (t, x) points, validated
    arr = np.asarray(points, dtype=float).reshape(len(points), 2)
    t, x = arr[:, 0], arr[:, 1]
    bad = ~(np.isfinite(t) & (t >= 0))
    if bad.any():
        raise ValueError(f"time coordinate must be finite and >= 0, got {t[bad][0]}")
    bad = ~np.isfinite(x) | (x != np.round(x))
    if bad.any():
        raise ValueError(f"space coordinate must be an integer, got {x[bad][0]}")
    return t, x.astype(np.int64)


def sine_kernel(rho: float, n: int) -> float:
    """Equal-time equilibrium kernel sin(rho*pi*n) / (pi*n); rho at n = 0."""
    if not 0.0 < rho < 1.0:
        raise ValueError(f"density must be in (0, 1), got {rho}")
    n = int(n)
    if n == 0:
        return rho
    return math.sin(rho * math.pi * n) / (math.pi * n)


def _groups(*columns: np.ndarray):
    # (key, indices) for every distinct row of the key columns, by sorting;
    # not np.unique, whose first call imports numpy.ma (~1 MB of RSS)
    order = np.lexsort(columns)
    starts = np.any([c[order][1:] != c[order][:-1] for c in columns], axis=0)
    for idx in np.split(order, np.flatnonzero(starts) + 1):
        yield tuple(c[idx[0]].item() for c in columns), idx


def _bessel_rows(times: np.ndarray, orders: np.ndarray) -> np.ndarray:
    # p(t_i, .) at orders[i]: one scaled Bessel table per distinct time
    out = np.empty(orders.shape)
    for (t,), idx in _groups(times):
        n = orders[idx]
        out[idx] = scaled_bessel_i_all(int(n.max()), t)[n]
    return out


# ---------------------------------------------------------------------------
# finite configurations
# ---------------------------------------------------------------------------

def _finite_sums(config: FiniteConfiguration, s, x, t, y
                 ) -> tuple[np.ndarray, np.ndarray]:
    # sum_j p(s, x|u_j) M_j(t, y) per entry, with an estimate of its
    # rounding error: one Bessel table per distinct s and one site-martingale
    # row per distinct (t, y).  spread[k] is the sum of absolute series terms
    # of M_k, so eps * sum_k p(s, x|u_k) spread_k estimates the rounding
    # error of each entry (the "bound" B the guard judges).
    weights = _bessel_rows(s, np.abs(x[:, None] - np.asarray(config.sites)))
    rows = np.empty(weights.shape)
    spreads = np.empty(weights.shape)
    for (tv, yv), idx in _groups(t, y):
        rows[idx], spreads[idx] = site_martingale_rows(config, tv, [yv])
    return (np.einsum("ij,ij->i", weights, rows),
            _EPS * np.einsum("ij,ij->i", weights, spreads))


def _balance(a: np.ndarray) -> np.ndarray:
    # Osborne's iteration, as in LAPACK's gebal: the diagonal d for which
    # d_i |a_ij| / d_j has equal off-diagonal row and column sums, found one
    # index at a time with vector row and column sums, sweeping until no
    # factor moves by more than 1%.  Rows or columns that are zero off the
    # diagonal keep d_i = 1.
    b = np.abs(a)
    np.fill_diagonal(b, 0.0)
    d = np.ones(len(b))
    for _ in range(_BALANCE_SWEEPS):
        moved = False
        for i in range(len(b)):
            row, col = b[i].sum(), b[:, i].sum()
            if row == 0.0 or col == 0.0:
                continue
            f = math.sqrt(col / row)
            moved |= not 0.99 < f < 1.01
            b[i] *= f
            b[:, i] /= f
            d[i] *= f
        if not moved:
            break
    return d


def _rounding_guard(config: FiniteConfiguration, k: np.ndarray,
                    bound: np.ndarray, t: np.ndarray, matrix: bool) -> None:
    # Refuse entries whose rounding bound exceeds the budget.  A square
    # matrix K (row-major) is judged after diagonal balancing instead: D K
    # D^{-1} has the same determinant and entry errors d_i B_ij / d_j, so
    # only those need meet the budget.  Accepted batches pay nothing extra.
    what = "rounding error bound"
    worst = int(np.argmax(bound))
    if not bound[worst] <= _ROUNDING_BUDGET and matrix:
        n = math.isqrt(len(k))
        d = _balance(k.reshape(n, n))
        bound = (bound.reshape(n, n) * d[:, None] / d[None, :]).ravel()
        worst = int(np.argmax(bound))
        what = "balanced " + what
    if not bound[worst] <= _ROUNDING_BUDGET:
        raise ConvergenceError(
            "KernelSpec.values",
            f"{what} {bound[worst]:.2g} above {_ROUNDING_BUDGET:g} for "
            f"N={len(config)} sites at t={t[worst]:g} (configuration too "
            "wide for double precision at this time)")


# ---------------------------------------------------------------------------
# infinite equidistant lattice
# ---------------------------------------------------------------------------

def lattice_kernel_g(lattice: LatticeSpec, dt: float, dx, *,
                     tol: float = 1e-13):
    """Principal band term of the folded lattice kernel:

    (1/2*pi*a) int_{-pi}^{pi} exp(i*lam*dx/a + dt*(1 - cos(lam/a))) dlam.

    Depends only on the displacement (dt, dx); at dt = 0 it equals the
    sine kernel at density 1/a.  ``dx`` may be an integer array: one
    quadrature gives the term at every entry.
    """
    a = lattice.a
    dx = np.asarray(dx)

    def integrand(lam):
        lam = lam.reshape(lam.shape + (1,) * dx.ndim)
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


def lattice_kernel_remainder(lattice: LatticeSpec, s: float, x, t: float, y,
                             *, tol: float = 1e-13):
    """Aliasing remainder of the folded lattice kernel.

    Sum over the nonzero comb shifts of

    (1/pi*a) int Re exp(i*(theta*x + lam*y)/a)
                 * exp((t-s)*(1 - cos(lam/a)) + s*(cos(theta/a) - cos(lam/a)))
    dlam,  theta = 2*pi*m - lam.

    The damping factor exp(s*(cos(theta/a) - cos(lam/a))) is < 1 on the
    annulus, so the remainder vanishes as both times grow: this is the
    entire distance from the lattice kernel to the stationary one.  ``x``
    and ``y`` may be integer arrays of one shape: one quadrature per branch
    gives the remainder at every entry.
    """
    a = lattice.a
    x = np.asarray(x)
    y = np.asarray(y)
    total = 0.0
    for m, lo, hi in remainder_branches(lattice):
        def integrand(lam, m=m):
            lam = lam.reshape(lam.shape + (1,) * x.ndim)
            theta = 2.0 * math.pi * m - lam
            phase = np.cos((theta * x + lam * y) / a)
            expo = ((t - s) * (1.0 - np.cos(lam / a))
                    + s * (np.cos(theta / a) - np.cos(lam / a)))
            return phase * np.exp(expo)

        total += gauss_legendre(integrand, lo, hi, tol=tol) / (math.pi * a)
    return total


def _lattice_sums(lattice: LatticeSpec, s: float, x, t: float, y, *,
                  eps_tail: float, tol: float, method: str) -> np.ndarray:
    # The lattice kernel without the backward term at one (s, t), for the
    # site arrays x, y.  "sum" is the defining sum over initial sites,
    # sum_j p(s, x|aj) Mhat(t, y - aj); "spectral" the folded principal +
    # remainder form; "auto" picks the site sum while its cancellation error
    # stays below ~1e-10.
    a = lattice.a
    if method == "auto":
        method = "sum" if t * (1.0 - math.cos(math.pi / a)) <= _SPECTRAL_SWITCH \
            else "spectral"
    if method == "spectral":
        return (lattice_kernel_g(lattice, t - s, y - x, tol=tol)
                + lattice_kernel_remainder(lattice, s, x, t, y, tol=tol))
    # site weights p(s, x|aj) pair with martingale values of size up to
    # mhat_bound, so push the site radius until their product is tiny.
    mhat_bound = math.exp(t * (1.0 - math.cos(math.pi / a)))
    eps_eff = min(0.5, max(eps_tail / mhat_bound, 1e-280))
    r = truncation_radius(s, eps_eff)
    j_lo = -((r - x) // a)
    j_hi = (x + r) // a
    # rows with no site inside the radius (j_hi < j_lo) sum to zero
    js = j_lo[:, None] + np.arange(max(int((j_hi - j_lo).max()), 0) + 1)
    inside = js <= j_hi[:, None]
    from_x = np.where(inside, np.abs(x[:, None] - a * js), 0)
    from_y = np.where(inside, np.abs(y[:, None] - a * js), 0)
    if not inside.any():
        return np.zeros(len(x))
    it = scaled_bessel_i_all(int(from_x.max()), s)
    # Mhat depends on |y - aj| only: one batch over the distinct offsets the
    # group uses, never split, because the quadrature judges convergence
    # against the batch's largest value.
    used = np.sort(from_y[inside])
    offsets = used[np.concatenate(([True], used[1:] != used[:-1]))]
    mhat = lattice_martingale_batch(lattice, offsets, t, tol=tol)
    terms = np.where(inside,
                     it[from_x] * mhat[np.searchsorted(offsets, from_y)], 0.0)
    return np.array(list(map(math.fsum, terms.tolist())))


# ---------------------------------------------------------------------------
# stationary kernel
# ---------------------------------------------------------------------------

def _stationary_bands(rho: float, dt, dx, *, tol: float) -> np.ndarray:
    # The prob-gauge stationary kernel, backward term included, one vector
    # quadrature per distinct dt: int_0^rho cos(u*pi*dx) exp(dt*(1 -
    # cos(u*pi))) du for dt > 0, minus the same over [rho, 1] for dt < 0
    # (not int_0^rho - p(-dt, dx), which cancels two terms of size
    # ~1/sqrt(|dt|) down to one of size ~e^{-|dt|}); sine kernel at dt = 0.
    out = np.empty(len(dt))
    for (dtv,), idx in _groups(dt):
        n = dx[idx]
        if dtv == 0.0:
            out[idx] = [sine_kernel(rho, v) for v in n.tolist()]
            continue

        def integrand(u, dtv=dtv, n=n):
            u = u[:, None]
            return np.cos(u * math.pi * n) * np.exp(dtv * (1.0 - np.cos(u * math.pi)))

        lo, hi, sign = (0.0, rho, 1.0) if dtv > 0 else (rho, 1.0, -1.0)
        out[idx] = sign * gauss_legendre(integrand, lo, hi, tol=tol)
    return out


# ---------------------------------------------------------------------------
# the tagged kernel choice
# ---------------------------------------------------------------------------

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
        if self.gauge not in GAUGES:
            raise ValueError(f"gauge must be one of {GAUGES}, got {self.gauge!r}")
        if not isinstance(self.variant,
                          (FiniteConfiguration, LatticeSpec, StationarySpec)):
            raise TypeError(f"unsupported kernel variant {self.variant!r}")

    def values(self, ps: Sequence[SpaceTimePoint],
               qs: Sequence[SpaceTimePoint], *, eps_tail: float = 1e-14,
               tol: float = 1e-13, method: str = "auto") -> np.ndarray:
        """K(ps[i], qs[i]) for every i, as one array.

        In the "prob" gauge every variant reads

            K(s,x;t,y) = S(s,x;t,y) - 1(s>t) p(s-t, x|y),

        with S the variant's sum over initial sites: sum_j p(s, x|u_j)
        M_j(t, y) for a finite configuration (guarded: ``ConvergenceError``
        when cancellation in the martingale series could cost more than
        ~1e-10 absolute in an entry), the lattice sum over a*Z (``method``
        "sum", "spectral" or "auto", with ``eps_tail`` its site truncation),
        or the stationary band integral int_0^rho (``tol`` is the quadrature
        tolerance; for s > t the whole kernel is minus the complementary
        band int_rho^1).  The "paper" gauge multiplies by e^{s-t}.  Work
        shared between entries (Bessel tables, martingale rows, quadratures)
        is done once per batch, so callers pass every entry they need at
        once.
        """
        return self._evaluate(ps, qs, False, eps_tail, tol, method)

    def _evaluate(self, ps, qs, matrix: bool, eps_tail: float, tol: float,
                  method: str) -> np.ndarray:
        # ``values``; with ``matrix`` the batch is the row-major square
        # matrix K(p_i, p_j), whose finite rounding guard is judged after
        # balancing (see _rounding_guard)
        s, x = _split_points(ps)
        t, y = _split_points(qs)
        if len(s) != len(t):
            raise ValueError(f"got {len(s)} first points, {len(t)} second")
        if method not in ("auto", "sum", "spectral"):
            raise ValueError(f"method must be sum|spectral|auto, got {method!r}")
        if not len(s):
            return np.zeros(0)
        variant = self.variant
        bound = None
        if isinstance(variant, FiniteConfiguration):
            out, bound = _finite_sums(variant, s, x, t, y)
        elif isinstance(variant, LatticeSpec):
            out = np.empty(len(s))
            for (sv, tv), idx in _groups(s, t):
                out[idx] = _lattice_sums(variant, sv, x[idx], tv, y[idx],
                                         eps_tail=eps_tail, tol=tol,
                                         method=method)
        else:
            out = _stationary_bands(variant.rho, t - s, y - x, tol=tol)
        # the stationary band integral already holds the backward term
        back = (s > t) & (not isinstance(variant, StationarySpec))
        if back.any():
            out[back] -= _bessel_rows(s[back] - t[back],
                                      np.abs(x[back] - y[back]))
        if bound is not None:
            _rounding_guard(variant, out, bound, t, matrix)
        if self.gauge == "paper":
            out *= np.exp(s - t)
        return out

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
