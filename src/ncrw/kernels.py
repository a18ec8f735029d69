"""Spatio-temporal correlation kernels of the noncolliding walk.

One interface, ``KernelSpec``, tags three kernels with a gauge:

* ``FiniteConfiguration`` - N walks started from a finite configuration,
* ``LatticeSpec``         - infinitely many walks started from a*Z,
* ``StationarySpec``      - the translation-invariant equilibrium kernel at
  density rho (sine kernel at equal times).

``KernelSpec.values(ps, qs)`` is the only evaluation: it returns
K(ps[i], qs[i]) for a whole batch of point pairs, sharing Bessel tables,
site-martingale rows (once per distinct second point) and momentum
quadratures between the entries.  ``kernel_matrix`` takes the same route on
its n points, as given, and the n^2 pair indices, and differs only in how
the finite kernel's rounding guard judges the batch: as one matrix, after
balancing.

Each kernel is defined up to a gauge: multiplying K(s,x;t,y) by
f(t,y)/f(s,x) changes no correlation determinant.  Two conventions are
implemented.  ``"prob"`` (canonical) assembles every term from genuine
transition probabilities e^{-t} I_n(t), keeping all magnitudes bounded;
``"paper"`` removes the factor e^{t-s}, which matches the bare
Bessel-product form of the finite kernel.  The two differ exactly by
e^{t-s} and all equal-time values coincide.

The lattice kernel is evaluated in its spectrally folded form: collapsing
the defining sum over initial sites against the momentum integrals (a
Poisson-summation identity) leaves one momentum integral per comb shift m.
Shift m = 0 is the principal band term, the stationary kernel at density
1/a, and is evaluated as that kernel (backward term included); the shifts
m >= 1 are the aliasing remainder, the whole relaxation gap.  Each
distinct (s, t, y - x, x mod a) key of a batch is one column of a blocked
Gauss-Legendre quadrature over every remainder shift at once; a relaxation
sweep hands its tau x dx grid to that quadrature in tiles, unsorted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

from .bessel import scaled_bessel_i_all
from .errors import ConvergenceError
from .martingales import FiniteConfiguration, LatticeSpec, _site_rows
from .quadrature import gauss_legendre

GAUGES = ("prob", "paper")

# key-shift pairs per lattice quadrature: a block's node table holds up to
# 2048 nodes for each of them
_LATTICE_BLOCK_FLOATS = 512
# the same ~1e-10 budget for the finite kernel: refuse a value whose
# estimated rounding error (see _finite_sums) is larger.
_ROUNDING_BUDGET = 1e-10
# sweeps of the balancing iteration that judges refused matrices
_BALANCE_SWEEPS = 100
_EPS = float(np.finfo(float).eps)
_FAR_ORDER = 1024  # Bessel tables are built whole up to this order


def _split_points(points) -> tuple[np.ndarray, np.ndarray]:
    # times and integer sites of a batch of (t, x) points, validated
    arr = np.asarray(points, dtype=float).reshape(len(points), 2)
    t, x = arr[:, 0], arr[:, 1]
    bad = ~(np.isfinite(t) & (t >= 0))
    if bad.any():
        raise ValueError(f"time coordinate must be finite and >= 0, got {t[bad][0]}")
    bad = ~np.isfinite(x) | (x != x.round())
    if bad.any():
        raise ValueError(f"space coordinate must be an integer, got {x[bad][0]}")
    return t, x.astype(np.int64)


def sine_kernel(rho: float, n: int) -> float:
    """Equal-time equilibrium kernel sin(rho*pi*n) / (pi*n); rho at n = 0."""
    if not 0.0 < rho < 1.0:
        raise ValueError(f"density must be in (0, 1), got {rho}")
    if not float(n).is_integer():
        raise ValueError(f"displacement must be an integer, got {n}")
    n = int(n)
    if n == 0:
        return rho
    return math.sin(rho * math.pi * n) / (math.pi * n)


def _distinct(*columns: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    # the distinct rows of the key columns, as sorted columns (the last
    # column leads), and for every row the index of its distinct row; by
    # sorting, not np.unique, whose first call imports numpy.ma (~1 MB of RSS)
    order = np.lexsort(columns)
    cols = [c[order] for c in columns]
    new = np.empty(len(order), dtype=bool)
    new[:1] = True
    new[1:] = reduce(np.logical_or, [c[1:] != c[:-1] for c in cols])
    inverse = np.empty(len(order), dtype=np.intp)
    inverse[order] = new.cumsum() - 1
    return [c[new] for c in cols], inverse


def _bessel_rows(times: np.ndarray, orders: np.ndarray) -> np.ndarray:
    # p(t_i, .) at orders[i]: one scaled Bessel table per distinct time, up
    # to the largest order of that time; a single time needs no mask.  Past
    # _FAR_ORDER a table stops at the first n = _FAR_ORDER * 2^k where the
    # series bound e^{-t} (t/2)^n e^{t^2/(4(n+1))} / n! >= e^{-t} I_n(t) is
    # below e^{-746} < 2^-1075: orders from n on (decreasing) round to 0.
    keys = set(times.tolist())
    out = np.empty(orders.shape)
    for t in keys:
        idx = times == t if len(keys) > 1 else slice(None)
        n = orders[idx]
        top, cut = int(n.max()), _FAR_ORDER
        while cut < top and t and -746.0 <= (
                cut * math.log(t / 2) - t + t * t / (4 * cut + 4)
                - math.lgamma(cut + 1)):
            cut *= 2
        if cut < top:  # orders from cut on read as 0
            out[idx] = np.append(scaled_bessel_i_all(cut - 1, t), 0.0)[
                np.minimum(n, cut)]
        else:
            out[idx] = scaled_bessel_i_all(top, t)[n]
    return out


# ---------------------------------------------------------------------------
# finite configurations
# ---------------------------------------------------------------------------

def _finite_sums(config: FiniteConfiguration, s, x, t, y, i, j
                 ) -> tuple[np.ndarray, np.ndarray]:
    # sum_k p(s, x|u_k) M_k(t, y) - 1(s>t) p(s-t, x|y) for every entry
    # (s, x)[i], (t, y)[j] of the index arrays (or slices) i, j, with an
    # estimate of its rounding error: one Bessel table per distinct s, and
    # the site-martingale rows of the second points as passed, built once
    # per distinct t over that t's points (one call when there is one t).
    # spread[k] is the sum of absolute series terms of M_k, so
    # eps * sum_k p(s, x|u_k) spread_k estimates the rounding error of each
    # entry (the "bound" B the guard judges).
    weights = _bessel_rows(s, np.abs(x[:, None] - np.asarray(config.sites)))[i]
    times = set(t.tolist())
    rows, spreads = np.empty((2, len(y), len(config)))
    for tv in times:
        at = t == tv if len(times) > 1 else slice(None)
        rows[at], spreads[at] = _site_rows(config, tv, y[at])
    out = np.einsum("ij,ij->i", weights, rows[j])
    s, x, t, y = s[i], x[i], t[j], y[j]
    back = s > t
    if back.any():
        out[back] -= _bessel_rows(s[back] - t[back], np.abs(x[back] - y[back]))
    return out, _EPS * np.einsum("ij,ij->i", weights, spreads[j])


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

def remainder_branches(lattice: LatticeSpec) -> list[tuple[int, float]]:
    """Nonzero comb shifts (m, weight) of the folded lattice kernel.

    Folding sum_j e^{-i(theta+lam)j} against the site sum puts theta at
    2*pi*m - lam, one shift m per residue class mod a.  Over lam in
    [-pi, pi] the shifts m and a - m have the same real part, so m runs over
    1 .. a//2 with weight 2, except m = a/2 (even a), its own mirror, with
    weight 1.
    """
    a = lattice.a
    return [(m, 1.0 if 2 * m == a else 2.0) for m in range(1, a // 2 + 1)]


def _remainder_quadrature(lattice: LatticeSpec, sb, tb, rb, db, si, di,
                          tol: float) -> np.ndarray:
    # The aliasing remainder of the folded lattice kernel in one
    # Gauss-Legendre quadrature: column k is the sum over the
    # remainder_branches (m, w) of
    #
    #   (w/2*pi*a) int_{-pi}^{pi} cos(2*pi*m*x/a + lam*(y - x)/a)
    #       * exp(t - s - t*cos(lam/a) + s*cos((2*pi*m - lam)/a)) dlam
    #
    # at the damping pair (s, t) = (sb, tb)[si[k]] and the wave pair
    # (x mod a, y - x) = (rb, db)[di[k]].  (Shift m = 0, the principal band,
    # is the stationary kernel at density 1/a: see _stationary_bands.)  Node
    # tables are (shift, node, key), so the gathers run on the last axis.
    a = lattice.a
    shifts = remainder_branches(lattice)
    m = np.array([v for v, _ in shifts], dtype=float)[:, None, None]
    w = np.array([v for _, v in shifts])[:, None, None] / (2.0 * math.pi * a)
    phase = 2.0 * math.pi * m * rb / a
    freq = db / a

    def integrand(lam):
        lam = lam[:, None]
        damp = sb * np.cos((2.0 * math.pi * m - lam) / a)
        damp += tb * (1.0 - np.cos(lam / a)) - sb
        np.exp(damp, out=damp)
        wave = np.cos(phase + lam * freq)
        wave *= w
        return np.einsum("mnk,mnk->nk", damp[..., si], wave[..., di])

    return gauss_legendre(integrand, -math.pi, math.pi, tol=tol)


def _lattice_sums(lattice: LatticeSpec, s, x, t, y, tol: float) -> np.ndarray:
    # The aliasing remainder of every entry, which depends on (x, y) through
    # (y - x, x mod a) only: each distinct (s, t, y - x, x mod a) key is one
    # column of a _remainder_quadrature, in blocks of _LATTICE_BLOCK_FLOATS
    # key-shift pairs (a // 2 shifts), which bound the node tables of a wide
    # batch; keys are ordered by y - x, so a block holds keys of like
    # oscillation.
    (r, sk, tk, d), inverse = _distinct(x % lattice.a, s, t, y - x)
    per_block = max(1, _LATTICE_BLOCK_FLOATS // (lattice.a // 2))
    out = np.empty(len(d))
    for lo in range(0, len(d), per_block):
        blk = slice(lo, lo + per_block)
        (sb, tb), si = _distinct(sk[blk], tk[blk])
        (rb, db), di = _distinct(r[blk], d[blk])
        out[blk] = _remainder_quadrature(lattice, sb, tb, rb, db, si, di, tol)
    return out[inverse]


def lattice_kernel_remainder(lattice: LatticeSpec, s: float, x, t: float, y,
                             *, tol: float = 1e-13):
    """Aliasing remainder (shifts m >= 1) of the folded lattice kernel.

    Sum over the ``remainder_branches`` (m, w) of

    (w/2*pi*a) int_{-pi}^{pi} Re exp(i*(theta*x + lam*y)/a)
                 * exp((t-s)*(1 - cos(lam/a)) + s*(cos(theta/a) - cos(lam/a)))
    dlam,  theta = 2*pi*m - lam.

    The damping factor exp(s*(cos(theta/a) - cos(lam/a))) is < 1 inside
    the window, so the remainder vanishes as both times grow: this is the
    entire distance from the lattice kernel to the stationary one.  The
    arguments broadcast; their entries are checked (``ValueError``) and
    share the blocked quadrature of ``KernelSpec.values``.
    """
    s, x, t, y = np.broadcast_arrays(s, x, t, y)
    (sv, xv), (tv, yv) = (_split_points(np.c_[a.ravel(), b.ravel()])
                          for a, b in ((s, x), (t, y)))
    got = _lattice_sums(lattice, sv, xv, tv, yv, tol)
    return got.reshape(s.shape) if s.ndim else float(got[0])


# ---------------------------------------------------------------------------
# stationary kernel
# ---------------------------------------------------------------------------

def _stationary_bands(rho: float, dt, dx, *, tol: float) -> np.ndarray:
    # The prob-gauge stationary kernel, backward term included, one vector
    # quadrature per band over the distinct (dt, dx) columns of the batch:
    # int_0^rho cos(u*pi*dx) exp(dt*(1 - cos(u*pi))) du for dt > 0, minus
    # the same over [rho, 1] for dt < 0 (not int_0^rho - p(-dt, dx), which
    # cancels two terms of size ~1/sqrt(|dt|) down to one of size
    # ~e^{-|dt|}); sine kernel at dt = 0.
    (n, d), inverse = _distinct(dx, dt)
    # the columns are sorted by dt: dt < 0, then dt = 0, then dt > 0
    neg, pos = d.searchsorted(0.0), d.searchsorted(0.0, "right")
    out = np.empty(len(d))
    out[neg:pos] = [sine_kernel(rho, v) for v in n[neg:pos].tolist()]
    for first, stop, lo, hi, sign in ((pos, len(d), 0.0, rho, 1.0),
                                      (0, neg, rho, 1.0, -1.0)):
        if stop > first:
            def integrand(u, dv=d[first:stop], nv=n[first:stop]):
                u = u[:, None]
                return np.cos(u * math.pi * nv) * np.exp(dv * (1.0 - np.cos(u * math.pi)))

            out[first:stop] = sign * gauss_legendre(integrand, lo, hi, tol=tol)
    return out[inverse]


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

    def values(self, ps: Sequence[tuple[float, int]],
               qs: Sequence[tuple[float, int]], *,
               tol: float = 1e-13) -> np.ndarray:
        """K(ps[i], qs[i]) for every i, as one array.

        In the "prob" gauge every variant reads

            K(s,x;t,y) = S(s,x;t,y) - 1(s>t) p(s-t, x|y),

        with S the variant's sum over initial sites: sum_j p(s, x|u_j)
        M_j(t, y) for a finite configuration (guarded: ``ConvergenceError``
        when cancellation in the martingale series could cost more than
        ~1e-10 absolute in an entry), the lattice sum over a*Z (by its
        folded form: the stationary kernel at density 1/a plus the aliasing
        remainder), or the stationary band integral int_0^rho.  For s > t
        the stationary part is minus the complementary band int_rho^1,
        which holds the backward term.  ``tol`` is the quadrature
        tolerance.  The "paper" gauge multiplies by e^{s-t}.  Work shared
        between entries (Bessel tables, quadratures, and martingale rows,
        built once per distinct second point) is done once per batch, so
        callers pass every entry they need at once.
        Each band (s < t, s > t) is one quadrature over its distinct
        (t - s, y - x) columns: equal columns give equal values.  Each column
        keeps the value of the first level it passes at, on its own scale.

        The quadratures stop at 2048 nodes and raise ``ConvergenceError``
        there.  For single pairs on the lattice, while (t - s)*(1 -
        cos(pi/a)) <= 3, that happens only beyond |y - x| of about 615*a
        for s <= t: 1228 is accepted on a = 2, 1844 on a = 3 and 3076 on
        a = 5 (scanned in steps of 4 at s, t in {0, 1, 4, 8, 16}), and the
        first refusals lie at 1232-1408, 1848-1936 and 3080-3136.  For
        s > t the band over [1/a, 1] also bounds it, near |y - x| =
        1240*a/(a - 1): the first refusals lie at 1236-1564, 1852-1932 and
        1548-1596.  Where t - s is larger the integrand grows like
        exp((t - s)*(1 - cos(pi/a))) while the kernel need not, so wide
        pairs are refused earlier: on a = 2 from |y - x| = 92 at (s, t) =
        (0, 8).
        """
        return self._evaluate(ps, qs, None, tol)

    def _evaluate(self, ps, qs, pairs, tol: float) -> np.ndarray:
        # ``values`` when pairs is None; otherwise the entries K(ps[i],
        # qs[j]) of the index arrays (i, j) = pairs, the row-major square
        # matrix of kernel_matrix, whose finite rounding guard is judged
        # after balancing (see _rounding_guard).  Validation, Bessel rows
        # and martingale rows run on the points, not on the entries;
        # ``values`` dedupes its second points, which repeat in a grid.
        s, x = _split_points(ps)
        t, y = (s, x) if qs is ps else _split_points(qs)
        i, j = pairs or (slice(None), slice(None))
        if len(s[i]) != len(t[j]):
            raise ValueError(f"got {len(s)} first points, {len(t)} second")
        if not len(s):
            return np.zeros(0)
        variant = self.variant
        if isinstance(variant, FiniteConfiguration):
            (yq, tq), jq = ((y, t), j) if pairs else _distinct(y, t)
            out, bound = _finite_sums(variant, s, x, tq, yq, i, jq)
            _rounding_guard(variant, out, bound, t[j], pairs is not None)
        elif isinstance(variant, LatticeSpec):
            # the principal band (shift m = 0) is the stationary kernel at
            # density 1/a, backward term included
            out = _stationary_bands(variant.density, t[j] - s[i], y[j] - x[i],
                                    tol=tol)
            out += _lattice_sums(variant, s[i], x[i], t[j], y[j], tol)
        else:
            out = _stationary_bands(variant.rho, t[j] - s[i], y[j] - x[i],
                                    tol=tol)
        if self.gauge == "paper":
            out *= np.exp(s[i] - t[j])
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
