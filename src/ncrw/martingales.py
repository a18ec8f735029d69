"""Martingale functions of the continuous-time simple random walk.

The walk's exponential martingale ``exp(a*x - t*(cosh a - 1))`` generates a
family of monic martingale polynomials m_n (discrete heat polynomials).
They are the images of the monomials under the backward heat operator
exp(-t*(cosh D - 1)), D = d/dx, which inverts the transition semigroup on
polynomials: sum_y p(t, y|x) m_n(t, y) = x^n.  Applied to the Lagrange
basis polynomials of a finite configuration, the operator yields the site
martingales whose determinants drive everything else in the package.  The
basis polynomials have degree N - 1, so the operator series stops after
N terms and is evaluated exactly as a finite sum, together with the sum of
its absolute terms, from which callers bound the cancellation.  One call
gives the rows of every site at a whole batch of final positions y, built
on (Y, N, N) arrays in blocks of bounded size.  The series weights
m! b_m(t) follow from one recurrence in exact integers (a float t is
p / 2^s exactly) and are each rounded once, for the rows and for
``martingale_polynomial``; where one leaves the double range (N >= 247
sites, degree 246, at t = 0.5) both are refused.  At t = 0 the rows are
the basis itself, for any N.
The infinite equidistant lattice a*Z (``LatticeSpec``) needs no site
martingales here: ``kernels`` folds its site sum into momentum integrals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import ConvergenceError


def _integers(values, what: str) -> tuple[int, ...]:
    # values as ints, refusing a non-integral or non-finite one instead of
    # truncating it toward zero
    values = tuple(values)
    for v in values:
        if not (isinstance(v, (int, np.integer)) or float(v).is_integer()):
            raise ValueError(f"{what} must be integers, got {v!r}")
    return tuple(int(v) for v in values)


@dataclass(frozen=True)
class FiniteConfiguration:
    """Strictly increasing integer sites of a finite particle configuration."""

    sites: tuple[int, ...]

    def __post_init__(self):
        sites = _integers(self.sites, "sites")
        if len(sites) < 1:
            raise ValueError("configuration needs at least one site")
        if any(b <= a for a, b in zip(sites, sites[1:])):
            raise ValueError(f"sites must be strictly increasing, got {sites}")
        object.__setattr__(self, "sites", sites)

    def __len__(self) -> int:
        return len(self.sites)

    @classmethod
    def equidistant(cls, a: int, half_width: int) -> "FiniteConfiguration":
        """Sites a*Z intersected with [-half_width, half_width]."""
        a, half_width = _integers((a, half_width), "spacing and half width")
        if a < 1:
            raise ValueError(f"spacing must be >= 1, got {a}")
        k_max = half_width // a
        return cls(tuple(a * k for k in range(-k_max, k_max + 1)))


@dataclass(frozen=True)
class LatticeSpec:
    """Infinite equidistant configuration a*Z with integer spacing a >= 2."""

    a: int

    def __post_init__(self):
        (a,) = _integers((self.a,), "lattice spacing")
        if a < 2:
            raise ValueError(f"lattice spacing must be an integer >= 2, got {a}")
        object.__setattr__(self, "a", a)

    @property
    def density(self) -> float:
        return 1.0 / self.a


def martingale_polynomial(n: int, t: float, x: float) -> float:
    """m_n(t, x); monic in x, m_n(0, x) = x^n, martingale along the walk.

    Its x^j coefficient is n!/j! b_{n-j}(t) = C(n, j) (n-j)! b_{n-j}(t),
    from the site rows' exact weights, so only the Horner sum in x rounds
    (1.3e-12 relative up to n = 200 for t <= 2, |x| <= 7).
    ``ConvergenceError`` once a weight, a term or the value overflows
    double precision (from n = 244 at t = 0.5, x = 1)."""
    if n < 0 or not (math.isfinite(t) and math.isfinite(x)):
        raise ValueError("need a degree >= 0 and a finite time and site, "
                         f"got n={n}, t={t}, x={x}")
    weights = _series_weights(n + 1, float(t)).tolist()
    total = 0.0
    try:
        for j in range(n, -1, -1):  # Horner in x; a zero weight adds 0.0
            w = weights[n - j]
            total = total * x + (math.comb(n, j) * w if w else 0.0)
    except OverflowError:  # C(n, j) past the double range
        total = math.inf
    if not math.isfinite(total):
        raise ConvergenceError("martingale_polynomial", f"m_{n}(t={t:g}, "
                               f"x={x:g}) overflows double precision")
    return total


# ---------------------------------------------------------------------------
# site martingales of a finite configuration
# ---------------------------------------------------------------------------

# ys per block of site_martingale_rows: at most 2^13 floats (64 KB) in each
# (Y, N, N) work array, so memory stays O(N^2 * block) for any number of ys
_ROW_BLOCK_FLOATS = 1 << 13


@lru_cache(maxsize=512)
def _series_weights(n_sites: int, t: float) -> np.ndarray:
    # w_m = m! * b_m(t) for m < n_sites (zero at odd m): the weights of
    # Phi^{(m)}(y) / m! in the heat-operator series.  F' = -t sinh(a) F for
    # F(a) = exp(-t(cosh a - 1)) gives w_{m+1} = -t sum_{k odd <= m}
    # C(m, k) w_{m-k}; with t = p / 2^s exactly, W_m = 2^(s m) w_m are
    # integers, W_{m+1} = -p sum C(m, k) W_{m-k} 2^(s k), and each weight
    # is W_m / 2^(s m), rounded once.
    p, q = t.as_integer_ratio()
    s = q.bit_length() - 1
    big = [1]                                      # W_m at even m, by m // 2
    out = np.zeros(n_sites)
    for m in range(0, n_sites, 2):
        if m:  # (1, 0, 0, ...) at t = 0, where the sum is all waste
            big.append(-p * sum(math.comb(m - 1, k) * big[(m - 1 - k) // 2]
                                << s * k for k in range(1, m, 2)) if p else 0)
        try:
            out[m] = big[-1] / q ** m
        except OverflowError:
            raise ConvergenceError(
                "series weights",
                f"m!*b_m(t) at m={m} overflows double precision at t={t:g} "
                f"(degree {n_sites - 1}, N={n_sites} sites)") from None
    out.setflags(write=False)
    return out


def _basis_taylor_rows(config: FiniteConfiguration, ys: np.ndarray,
                       powers: int | None = None) -> np.ndarray:
    # Entry [p, i, k] holds the coefficient of h^p (p < powers, all N by
    # default) in Phi^{u_k}(ys[i] + h):
    # the product over j != k of (y - u_j + h) / (u_k - u_j), built one
    # factor j at a time for every y and k at once.  The layout is
    # power-major, (power, y, k), so each factor step multiplies and adds
    # whole contiguous (y, k) planes.  Dividing each factor as it is applied
    # keeps wide configurations clear of overflow, and the row at a site
    # stays an exact Kronecker row.
    u = np.asarray(config.sites, dtype=float)
    n = len(u)
    gaps = u[None, :] - u[:, None]                 # [j, k] = u_k - u_j
    np.fill_diagonal(gaps, np.inf)
    inv = 1.0 / gaps
    ratio = (ys[None, :, None] - u[:, None, None]) / gaps[:, None, :]
    ratio[np.arange(n), :, np.arange(n)] = 1.0     # [j, i, k], 1 at j = k
    coef = np.zeros((powers or n, len(ys), n))
    coef[0] = 1.0
    for j in range(n):
        # before factor j only powers 0..j are nonzero
        top = min(j + 2, len(coef))
        shifted = coef[:top - 1] * inv[j]
        coef[:top] *= ratio[j]
        coef[1:top] += shifted
    return coef


def site_martingale_rows(config: FiniteConfiguration, t: float,
                         ys: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Martingales of every site of ``config`` at (t, y) for each y of ``ys``,
    with their spread; both of shape (len(ys), N).

    Entry [i, k] of the first array is M_k(t, ys[i]) = exp(-t(cosh D - 1))
    Phi^{u_k} at ys[i], the backward heat operator applied to the Lagrange
    basis polynomial of u_k.  The basis polynomial has degree N - 1, so the
    operator series is finite:

        M_k(t, y) = sum_{m even < N} b_m(t) Phi^{(m)}(y),

    with b_m(t) the Taylor coefficients of exp(-t(cosh a - 1)), expanded
    around y.  Entry [i, k] of the second array is the sum of the absolute
    terms of that series; machine epsilon times it estimates the rounding
    error of entry [i, k] (kernels refuse values whose weighted estimate is
    too large).  At t = 0 the row is the Lagrange basis Phi^{u_k}(y) itself,
    the Kronecker row at a site.

    The ys are worked through in blocks of max(1, 2^13 // N^2), weighted in
    place, so the work arrays stay below 2^13 floats (for N <= 90) however
    many ys there are; every entry is the same whatever the batch.
    ``ConvergenceError`` when a series weight overflows double precision
    (from N = 247 sites on at t = 0.5); ``ValueError`` for a t that is not
    finite and >= 0, or a non-integral or non-finite y.
    """
    if not 0 <= t < math.inf:
        raise ValueError(f"time must be finite and >= 0, got {t}")
    ys = np.asarray(ys).reshape(-1)
    if ys.dtype.kind not in "iu":
        bad = ~np.isfinite(ys.astype(float)) | (ys != np.round(ys))
        if bad.any():
            raise ValueError(f"final sites must be integers, got {ys[bad][0]!r}")
    return _site_rows(config, float(t), ys.astype(np.int64, copy=False))


def _site_rows(config: FiniteConfiguration, t: float,
               ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # site_martingale_rows on a checked time and int64 ys
    n = len(config)
    # at t = 0 the series is its first term, the basis itself, so the
    # higher Taylor coefficients (which overflow on wide configurations)
    # are never built
    weights = _series_weights(n, t) if t else np.ones(1)
    rows = np.empty((len(ys), n))
    spreads = np.empty((len(ys), n))
    block = max(1, _ROW_BLOCK_FLOATS // (n * n))
    for lo in range(0, len(ys), block):
        coef = _basis_taylor_rows(config, ys[lo:lo + block], len(weights))
        # weighted into (y, k, power) order: each sum over powers runs along
        # a contiguous last axis, so its rounding is the same for any layout
        terms = np.empty(coef.shape[1:] + coef.shape[:1])
        np.multiply(coef.transpose(1, 2, 0), weights, out=terms)
        rows[lo:lo + block] = terms.sum(axis=-1)
        spreads[lo:lo + block] = np.abs(terms, out=terms).sum(axis=-1)
    return rows, spreads
