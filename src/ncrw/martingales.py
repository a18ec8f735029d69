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
its absolute terms, from which callers bound the cancellation.  For the
infinite equidistant lattice the basis is the sinc function, and its
martingale is a momentum integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from .quadrature import gauss_legendre

MAX_MARTINGALE_DEGREE = 12


@dataclass(frozen=True)
class FiniteConfiguration:
    """Strictly increasing integer sites of a finite particle configuration."""

    sites: tuple[int, ...]

    def __post_init__(self):
        sites = tuple(int(s) for s in self.sites)
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
        k_max = half_width // a
        return cls(tuple(a * k for k in range(-k_max, k_max + 1)))


@dataclass(frozen=True)
class LatticeSpec:
    """Infinite equidistant configuration a*Z with integer spacing a >= 2."""

    a: int

    def __post_init__(self):
        if self.a != int(self.a) or self.a < 2:
            raise ValueError(f"lattice spacing must be an integer >= 2, got {self.a}")
        object.__setattr__(self, "a", int(self.a))

    @property
    def density(self) -> float:
        return 1.0 / self.a


@lru_cache(maxsize=None)
def _generating_coeffs(m: int) -> tuple[Fraction, ...]:
    # Taylor coefficients of exp(-t*(cosh a - 1)) in a: b_m(t) as a tuple of
    # Fractions indexed by the power of t.  Standard exp-of-series recurrence
    # b_m = (1/m) * sum_k k c_k b_{m-k} with c_k = -t/k! for even k >= 2.
    if m == 0:
        return (Fraction(1),)
    acc: dict[int, Fraction] = {}
    for k in range(2, m + 1, 2):
        prev = _generating_coeffs(m - k)
        scale = Fraction(-1, math.factorial(k - 1))
        for p, c in enumerate(prev):
            if c:
                acc[p + 1] = acc.get(p + 1, Fraction(0)) + scale * c
    top = max(acc) if acc else 0
    return tuple(Fraction(acc.get(p, 0), m) for p in range(top + 1))


@lru_cache(maxsize=None)
def _martingale_table(n: int) -> tuple[tuple[Fraction, ...], ...]:
    fact_n = math.factorial(n)
    rows = []
    for j in range(n + 1):
        scale = Fraction(fact_n, math.factorial(j))
        rows.append(tuple(scale * c for c in _generating_coeffs(n - j)))
    return tuple(rows)


def martingale_coefficients(n: int, *, n_max: int = MAX_MARTINGALE_DEGREE
                            ) -> tuple[tuple[Fraction, ...], ...]:
    """Exact coefficient table of m_n: entry j is the t-polynomial on x^j.

    m_n(t, x) = sum_j (sum_p coeffs[j][p] t^p) x^j, generated once by exact
    rational convolution of exp(a*x) with the even series of
    exp(-t*(cosh a - 1)).  Monic with m_n(0, x) = x^n by construction.
    Degrees above ``n_max`` are refused; raise the guard explicitly if a
    caller really wants them.
    """
    if n < 0 or n > n_max:
        raise ValueError(f"degree must be in 0..{n_max}, got {n}")
    return _martingale_table(n)


def martingale_polynomial(n: int, t: float, x: float, *,
                          n_max: int = MAX_MARTINGALE_DEGREE) -> float:
    """m_n(t, x); monic in x, m_n(0, x) = x^n, martingale along the walk."""
    table = martingale_coefficients(n, n_max=n_max)
    total = 0.0
    for row in reversed(table):  # Horner in x
        cj = 0.0
        for c in reversed(row):  # Horner in t
            cj = cj * t + float(c)
        total = total * x + cj
    return total


def vandermonde(xs: Sequence[float]) -> float:
    """prod_{j<k} (x_k - x_j); zero iff two entries coincide."""
    x = [float(v) for v in xs]
    total = 1.0
    for j in range(len(x)):
        for k in range(j + 1, len(x)):
            total *= x[k] - x[j]
    return total


def lagrange_basis(config: FiniteConfiguration, k: int, z: float) -> float:
    """prod_{j != k} (z - u_j) / (u_k - u_j); equals delta_{jk} at z = u_j."""
    u = config.sites
    if not 0 <= k < len(u):
        raise IndexError(f"site index {k} out of range for N={len(u)}")
    total = 1.0
    for j, uj in enumerate(u):
        if j != k:
            total *= (z - uj) / (u[k] - uj)
    return total


# ---------------------------------------------------------------------------
# site martingales of a finite configuration
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _series_weights(n_sites: int, t: float) -> np.ndarray:
    # m! * b_m(t) for m < n_sites (zero at odd m): the weights of
    # Phi^{(m)}(y) / m! in the heat-operator series, each evaluated exactly
    # in rationals and rounded once.
    tf = Fraction(t)
    out = np.zeros(n_sites)
    for m in range(0, n_sites, 2):
        acc = Fraction(0)
        for c in reversed(_generating_coeffs(m)):  # Horner in t
            acc = acc * tf + c
        out[m] = float(acc * math.factorial(m))
    out.setflags(write=False)
    return out


def _basis_taylor_rows(config: FiniteConfiguration, y: int) -> np.ndarray:
    # Row k holds the Taylor coefficients in h of Phi^{u_k}(y + h), lowest
    # power first: the product over j != k of (y - u_j + h) / (u_k - u_j),
    # built one factor j at a time for every k at once.  Dividing each factor
    # as it is applied keeps wide configurations clear of overflow, and the
    # row at a site stays an exact Kronecker row.
    u = np.asarray(config.sites, dtype=float)
    gaps = u[:, None] - u[None, :]
    np.fill_diagonal(gaps, np.inf)
    inv = 1.0 / gaps
    ratio = (y - u)[None, :] / gaps
    np.fill_diagonal(ratio, 1.0)
    coef = np.zeros((len(u), len(u)))
    coef[:, 0] = 1.0
    for j in range(len(u)):
        shifted = coef[:, :-1] * inv[:, j, None]
        coef *= ratio[:, j, None]
        coef[:, 1:] += shifted
    return coef


def site_martingale_row(config: FiniteConfiguration, t: float,
                        y: int) -> tuple[np.ndarray, np.ndarray]:
    """Martingales of every site of ``config`` at (t, y), with their spread.

    Entry k of the first array is M_k(t, y) = exp(-t(cosh D - 1)) Phi^{u_k}
    at y, the backward heat operator applied to the Lagrange basis
    polynomial of u_k.  The basis polynomial has degree N - 1, so the
    operator series is finite:

        M_k(t, y) = sum_{m even < N} b_m(t) Phi^{(m)}(y),

    with b_m(t) the Taylor coefficients of exp(-t(cosh a - 1)), expanded
    around y.  Entry k of the second array is the sum of the absolute terms
    of that series; machine epsilon times it estimates the rounding error
    of entry k (kernels refuse values whose weighted estimate is too
    large).  At t = 0 the row is the Kronecker row Phi^{u_k}(y).
    """
    if t < 0:
        raise ValueError(f"time must be >= 0, got {t}")
    terms = _basis_taylor_rows(config, int(y)) \
        * _series_weights(len(config), float(t))
    return terms.sum(axis=1), np.abs(terms).sum(axis=1)


# ---------------------------------------------------------------------------
# infinite equidistant lattice: martingales of the sinc basis
# ---------------------------------------------------------------------------

def lattice_martingale_batch(lattice: LatticeSpec, offsets: Sequence[int],
                             t: float, *, tol: float = 1e-13) -> np.ndarray:
    """Martingales of lattice sites a*k at (t, y), one per offset y - a*k.

    The martingale of site a*k is the backward transform of its sinc basis
    function sin(pi(z/a - k)) / (pi(z/a - k)):

        (1/2pi) int_{-pi}^{pi} exp(i*(y/a - k)*lam + t*(1 - cos(lam/a))) dlam,

    which depends on (y, k) only through the offset d = y - a*k and is even
    in d, so it is evaluated as (1/pi) int_0^pi cos(lam*d/a) exp(t*(1 -
    cos(lam/a))) dlam, one quadrature for the whole batch.  Reduces to the
    sinc at t = 0 and to the Kronecker delta at lattice points.
    """
    if t < 0:
        raise ValueError(f"time must be >= 0, got {t}")
    a = lattice.a
    d = np.asarray(offsets, dtype=float)

    def integrand(lam):
        lam = lam[:, None]
        return np.cos(lam * d / a) * np.exp(t * (1.0 - np.cos(lam / a)))

    return gauss_legendre(integrand, 0.0, math.pi, tol=tol) / math.pi
