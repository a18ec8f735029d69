"""Independent oracles used to freeze expected values in the tests.

These deliberately avoid the package's evaluation strategies: direct
series summation with compensated accumulation for the Bessel values, the
signed Bessel transform summed ring by ring for site martingales (in
double precision, and at 60 digits with mpmath), the site-martingale rows
built one final site at a time, the finite kernel sums with one row call
per distinct (t, y), the lattice kernel by its defining sum
over initial sites and at 40 digits by its folded form, the stationary
kernel with one band quadrature per time lag, Karlin-McGregor
determinants of scipy's ``ive`` for equal-time correlations, a
jump-chain level simulation for
exit probabilities, per-sample walk paths with a jump-by-jump
exit-time loop as the reference for the block sampler, the block exit
scan by one three-key lexsort, and Gauss-Legendre refinement with one
integrand call per level.  The site-martingale Taylor rows are also
kept in their (y, k, power) layout, built on strided power slices.  The
dmr weight is kept as the determinant of site-martingale rows at the
final sites, Monte Carlo means and ESS as exact rationals over the
package's own sampled blocks, the martingale polynomials in exact
rationals from the exponential's Taylor recurrence, and the heat-operator
series weights from integer polynomial tables in t by an exact Horner sum.
It also holds small functions the package does not export, kept as
references for the tests: single transition probabilities, the scalar
Lagrange basis, signed Bessel values, the characteristic function,
Esscher weights, the sinc basis, gauge transforms, the relaxation gap
of a single cell, the leading 1/tau term of the lattice remainder and a
CSV writer that formats one value at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from ncrw.bessel import scaled_bessel_i_all, truncation_radius
from ncrw.errors import ConvergenceError
from ncrw.kernels import KernelSpec, StationarySpec, sine_kernel
from ncrw.martingales import (FiniteConfiguration, LatticeSpec,
                              _series_weights, site_martingale_rows)
from ncrw.quadrature import _GAUSS_MAX_NODES, _leggauss, gauss_legendre


def itilde(n: int, t: float) -> float:
    """exp(-t) I_n(t) = p(t, x + n|x), one entry of the package's table."""
    return float(scaled_bessel_i_all(n, t)[n])


def lagrange_basis(config: FiniteConfiguration, k: int, z: float) -> float:
    """prod_{j != k} (z - u_j) / (u_k - u_j); equals delta_{jk} at z = u_j.

    The scalar reference for the rows ``site_martingale_rows(config, 0, zs)``.
    """
    u = config.sites
    if not 0 <= k < len(u):
        raise IndexError(f"site index {k} out of range for N={len(u)}")
    total = 1.0
    for j, uj in enumerate(u):
        if j != k:
            total *= (z - uj) / (u[k] - uj)
    return total


def bessel_series(n: int, z: float) -> float:
    """I_n(z) summed straight from its power series.

    Terms accumulate through math.fsum until they drop below 1e-18
    relative; valid for moderate |z| only (unscaled).
    """
    half = 0.5 * z
    term = 1.0
    for j in range(1, n + 1):
        term *= half / j
    terms = [term]
    l = 0
    while True:
        l += 1
        term *= half * half / (l * (n + l))
        terms.append(term)
        if abs(term) <= 1e-18 * abs(math.fsum(terms)):
            return math.fsum(terms)
        if l > 500:
            raise RuntimeError("series oracle stalled")


def scaled_bessel_series(n: int, t: float) -> float:
    return math.exp(-t) * bessel_series(n, t)


def signed_bessel_i(n: int, z: float) -> float:
    """I_n(z) for any real z, via the parity I_n(-t) = (-1)^n I_n(t)."""
    if not math.isfinite(z):
        raise ValueError(f"argument must be finite, got {z}")
    mag = math.exp(abs(z)) * itilde(n, abs(z))
    if z < 0 and n % 2 == 1:
        return -mag
    return mag


def characteristic_function(t: float, z: complex) -> complex:
    """E[e^{izV(t)}] = exp(t (cos z - 1)) for the continuous-time walk."""
    if not math.isfinite(t) or t < 0:
        raise ValueError(f"time argument must be finite and >= 0, got {t}")
    zc = complex(z)
    if not (math.isfinite(zc.real) and math.isfinite(zc.imag)):
        raise ValueError(f"argument must be finite, got {z}")
    return complex(np.exp(t * (np.cos(zc) - 1.0)))


def poissonized_walk_probability(t: float, d: int, *, eps: float = 1e-20) -> float:
    """P(V(t) = d | V(0) = 0) by Poissonizing exact binomial step counts."""
    d = abs(d)
    weight = math.exp(-t)
    terms = []
    j = 0
    while True:
        if j >= d and (j - d) % 2 == 0 and weight > 0:
            terms.append(weight * (math.comb(j, (j + d) // 2) / 2.0 ** j))
        if j > t and weight < eps:
            break
        j += 1
        weight *= t / j
    return math.fsum(terms)


def poisson_route_comb(t: float, d: int) -> float:
    """``selftest.transition_probability_poisson(t, 0, d)`` with every
    binomial built afresh by ``math.comb``: the same terms, the same
    rounding, so the same float."""
    d = abs(d)
    shift = int(t / math.log(2))
    weight = math.exp(shift * math.log(2) - t)
    terms = []
    j = 0
    while True:
        if j >= d and (j - d) % 2 == 0:
            terms.append(math.ldexp(
                weight * (math.comb(j, (j + d) // 2) / (1 << j)), -shift))
        last = terms[-1] if terms else 0.0
        if j > t and math.ldexp(weight, -shift) <= 1e-18 * last:
            return math.fsum(terms)
        j += 1
        weight, e = math.frexp(weight * (t / j))
        shift -= e


def survival_probability_jump_chain(u: tuple[int, ...], horizon: float,
                                    n_samples: int, seed: int) -> tuple[float, float]:
    """P(no ordering violation up to the horizon) by simulating the
    embedded jump chain directly: exponential waiting times with total
    rate N, a uniformly chosen walker, a +-1 step.  Returns (estimate,
    standard error)."""
    rng = np.random.default_rng(seed)
    n_walks = len(u)
    hits = 0
    for _ in range(n_samples):
        pos = list(u)
        t = 0.0
        alive = True
        while True:
            t += rng.exponential(1.0 / n_walks)
            if t > horizon:
                break
            i = int(rng.integers(n_walks))
            pos[i] += 2 * int(rng.integers(2)) - 1
            if (i > 0 and pos[i] <= pos[i - 1]) or \
               (i < n_walks - 1 and pos[i] >= pos[i + 1]):
                alive = False
                break
        hits += alive
    p = hits / n_samples
    return p, math.sqrt(max(p * (1 - p), 1e-12) / n_samples)


# ---------------------------------------------------------------------------
# martingale and kernel helpers used only as references
# ---------------------------------------------------------------------------

def esscher_weight(alpha: float, t: float, x: int) -> float:
    """Exponential martingale exp(alpha*x - t*(cosh(alpha) - 1))."""
    if not math.isfinite(alpha):
        raise ValueError(f"tilt parameter must be finite, got {alpha}")
    if t < 0:
        raise ValueError(f"time must be >= 0, got {t}")
    return math.exp(alpha * x - t * (math.cosh(alpha) - 1.0))


@lru_cache(maxsize=None)
def series_polynomial(m: int) -> tuple[int, ...]:
    """m! * b_m(t) as integer coefficients indexed by the power of t, where
    b_m(t) are the Taylor coefficients of exp(-t*(cosh a - 1)) in a, from
    m! b_m = -t * sum_{k even >= 2} C(m-1, k-1) (m-k)! b_{m-k}: every
    coefficient is an integer (zero at odd m).  Polynomials in t, built
    apart from the package's recurrence on the weights' values."""
    if m == 0:
        return (1,)
    acc = [0] * (m // 2 + 1)
    for k in range(2, m + 1, 2):
        w = math.comb(m - 1, k - 1)
        for p, c in enumerate(series_polynomial(m - k)):
            acc[p + 1] -= w * c
    while len(acc) > 1 and not acc[-1]:
        acc.pop()
    return tuple(acc)


def series_weights_horner(n_sites: int, t: float) -> np.ndarray:
    """m! * b_m(t) for m < n_sites: each ``series_polynomial`` summed by
    Horner in t in exact rationals and rounded once; ``ConvergenceError``
    at the first weight past the double range."""
    tf = Fraction(t)
    out = np.zeros(n_sites)
    for m in range(0, n_sites, 2):
        acc = Fraction(0)
        for c in reversed(series_polynomial(m)):
            acc = acc * tf + c
        try:
            out[m] = float(acc)
        except OverflowError:
            raise ConvergenceError(
                "series weights",
                f"m!*b_m(t) at m={m} overflows double precision at t={t:g} "
                f"(degree {n_sites - 1}, N={n_sites} sites)") from None
    return out


def martingale_polynomial_exact(n: int, t: float, x: float) -> Fraction:
    """m_n(t, x) = sum_j n!/j! b_{n-j}(t) x^j in exact rationals, with b_m
    the Taylor coefficients of f(a) = exp(g(a)), g(a) = -t*(cosh a - 1),
    from m f_m = sum_i i g_i f_{m-i} (not the package's recurrence)."""
    t, x = Fraction(t), Fraction(x)
    g = [Fraction(0)] + [-t / math.factorial(i) if i % 2 == 0 else Fraction(0)
                         for i in range(1, n + 1)]
    b = [Fraction(1)]
    for m in range(1, n + 1):
        b.append(sum((i * g[i] * b[m - i] for i in range(2, m + 1, 2)),
                     Fraction(0)) / m)
    return sum(Fraction(math.factorial(n), math.factorial(j))
               * b[n - j] * x ** j for j in range(n + 1))


def lattice_basis(lattice: LatticeSpec, k: int, z: float) -> float:
    """sin(pi(z/a - k)) / (pi(z/a - k)): Lagrange basis of the lattice a*Z."""
    c = math.pi * (z / lattice.a - k)
    if abs(c) < 1e-4:
        c2 = c * c
        return 1.0 - c2 / 6.0 * (1.0 - c2 / 20.0 * (1.0 - c2 / 42.0))
    return math.sin(c) / c


def gauge_transform(kernel, f):
    """Kernel (p, q) -> f(q)/f(p) * K(p, q) for a positive weight f(t, x).

    Correlation determinants over matched point sets are unchanged by this
    transformation; f(t, x) = e^{-t} maps the "prob" gauge to "paper".
    """

    def transformed(p, q):
        sp = (float(p[0]), int(p[1]))
        sq = (float(q[0]), int(q[1]))
        fp = f(*sp)
        fq = f(*sq)
        if not (fp > 0.0 and fq > 0.0):
            raise ValueError(
                f"gauge weight must be positive, got f{sp}={fp}, f{sq}={fq}")
        return fq / fp * kernel(sp, sq)

    return transformed


def relaxation_gap(lattice: LatticeSpec, s: float, x: int, t: float, y: int,
                   tau: float, *, tol: float = 1e-13) -> float:
    """|K_lattice(s+tau, x; t+tau, y) - K_stationary(t-s, y-x)| at rho = 1/a.

    Both kernels in the probability gauge, so the comparison is
    gauge-consistent.
    """
    if tau < 0:
        raise ValueError(f"shift must be >= 0, got {tau}")
    lat = KernelSpec(lattice).values([(s + tau, x)], [(t + tau, y)], tol=tol)
    sta = KernelSpec(StationarySpec(lattice.density)).values(
        [(s, x)], [(t, y)], tol=tol)
    return abs(float(lat[0] - sta[0]))


# ---------------------------------------------------------------------------
# infinite lattice: the defining sum over initial sites
# ---------------------------------------------------------------------------

def lattice_martingale_batch(lattice: LatticeSpec, offsets, t: float, *,
                             tol: float = 1e-13) -> np.ndarray:
    """Martingales of lattice sites a*k at (t, y), one per offset y - a*k.

    The martingale of site a*k is the backward transform of its sinc basis
    function sin(pi(z/a - k)) / (pi(z/a - k)):

        (1/2pi) int_{-pi}^{pi} exp(i*(y/a - k)*lam + t*(1 - cos(lam/a))) dlam,

    which depends on (y, k) only through the offset d = y - a*k and is even
    in d, so it is evaluated as (1/pi) int_0^pi cos(lam*d/a) exp(t*(1 -
    cos(lam/a))) dlam, one quadrature for the whole batch.  Reduces to the
    sinc at t = 0 and to the Kronecker delta at lattice points.  Equals
    a times the principal band (shift m = 0) of the folded lattice kernel at
    dt = t, the stationary kernel at density 1/a.
    """
    if t < 0:
        raise ValueError(f"time must be >= 0, got {t}")
    a = lattice.a
    d = np.asarray(offsets, dtype=float)

    def integrand(lam):
        lam = lam[:, None]
        return np.cos(lam * d / a) * np.exp(t * (1.0 - np.cos(lam / a)))

    return gauss_legendre(integrand, 0.0, math.pi, tol=tol) / math.pi


def stationary_bands_per_dt(rho: float, dt, dx, *, tol: float = 1e-13
                            ) -> np.ndarray:
    """The prob-gauge stationary kernel at each (dt[i], dx[i]) with one
    vector quadrature per distinct dt: int_0^rho cos(u*pi*dx) exp(dt*(1 -
    cos(u*pi))) du for dt > 0, minus the same over [rho, 1] for dt < 0, the
    sine kernel at dt = 0.  The reference for ``kernels._stationary_bands``,
    which integrates every column of a band in one quadrature."""
    dt, dx = np.asarray(dt, dtype=float), np.asarray(dx, dtype=np.int64)
    out = np.empty(len(dt))
    for dtv in sorted(set(dt.tolist())):
        idx = dt == dtv
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


def band_mpmath(dt: float, dx: int, lo, hi, dps: int = 40):
    """int_lo^hi cos(u*pi*dx) exp(dt*(1 - cos(u*pi))) du as an mpmath
    number of ``dps`` digits.

    Over [0, 1/a] it is the principal band (shift m = 0) of the folded
    lattice kernel, for either sign of dt; over [rho, 1] the complementary
    band of the stationary kernel.
    """
    import mpmath as mp

    with mp.workdps(dps):
        def f(u):
            return mp.cos(u * mp.pi * dx) * mp.exp(dt * (1 - mp.cos(u * mp.pi)))

        return mp.quad(f, [mp.mpf(lo), mp.mpf(hi)])


def lattice_principal_band(lattice: LatticeSpec, dt: float, dx: int) -> float:
    """Principal band (shift m = 0) of the folded lattice kernel,
    int_0^{1/a} cos(u*pi*dx) exp(dt*(1 - cos(u*pi))) du: the lattice
    martingale over a for dt >= 0, ``band_mpmath`` for dt < 0."""
    import mpmath as mp

    if dt >= 0:
        return float(lattice_martingale_batch(lattice, [dx], dt)[0]) / lattice.a
    return float(band_mpmath(dt, dx, 0, 1 / mp.mpf(lattice.a)))


def lattice_kernel_mpmath(lattice: LatticeSpec, s: float, x: int, t: float,
                          y: int, dps: int = 40) -> float:
    """Lattice kernel K(s, x; t, y) (prob gauge) by its folded form at
    ``dps`` digits: the band int_0^{1/a} (for s > t minus the complementary
    band int_{1/a}^1, which holds the backward term) plus the comb shifts
    m = 1 .. a//2 of the aliasing remainder,

        (w/2*pi*a) int_{-pi}^{pi} cos(2*pi*m*x/a + lam*(y - x)/a)
            * exp(t - s - t*cos(lam/a) + s*cos((2*pi*m - lam)/a)) dlam,

    with weight w = 1 at m = a/2 and 2 otherwise.
    """
    import mpmath as mp

    a = lattice.a
    with mp.workdps(dps):
        rho = mp.mpf(1) / a
        if s > t:
            total = -band_mpmath(t - s, y - x, rho, 1, dps)
        else:
            total = band_mpmath(t - s, y - x, 0, rho, dps)
        s_, t_ = mp.mpf(s), mp.mpf(t)
        for m in range(1, a // 2 + 1):
            w = 1 if 2 * m == a else 2

            def f(lam, m=m):
                return mp.cos(2 * mp.pi * m * x / a + lam * (y - x) / a) * \
                    mp.exp(t_ - s_ - t_ * mp.cos(lam / a)
                           + s_ * mp.cos((2 * mp.pi * m - lam) / a))

            total += w * mp.quad(f, [-mp.pi, 0, mp.pi]) / (2 * mp.pi * a)
        return float(total)


def relaxation_law(lattice: LatticeSpec, s: float, x: int, t: float,
                   y: int) -> float:
    """Leading Watson term of the aliasing remainder at large s + t,

        e^{(t-s)(1 - cos(pi/a))} * C / (pi*(s + t)*sin(pi/a)),

    from the end lam = pi of the m = 1 remainder, where its damping
    exponent vanishes with slope (s + t)*sin(pi/a)/a.  C = cos(pi*(2x +
    dx)/a) for a >= 3, with dx = y - x; for a = 2 both ends lam = +-pi
    contribute and C = cos(pi*x)*cos(pi*dx/2).  The next term is
    O((s + t)^-2), so where C = 0 this term says nothing.
    """
    a, dx = lattice.a, y - x
    if a == 2:
        c = math.cos(math.pi * x) * math.cos(math.pi * dx / 2)
    else:
        c = math.cos(math.pi * (2 * x + dx) / a)
    return (math.exp((t - s) * (1.0 - math.cos(math.pi / a))) * c
            / (math.pi * (s + t) * math.sin(math.pi / a)))


def lattice_kernel_site_sum(lattice: LatticeSpec, s: float, x: int, t: float,
                            y: int, *, eps_tail: float = 1e-14,
                            tol: float = 1e-13) -> float:
    """Lattice kernel K(s, x; t, y) (prob gauge) by its defining site sum,

        sum_j p(s, x|aj) Mhat(t, y - aj) - 1(s>t) p(s-t, x|y),

    over the sites aj within the radius where p(s, x|aj) times the largest
    martingale exp(t*(1 - cos(pi/a))) drops below ``eps_tail``, summed by
    fsum.  Its terms grow like that bound, so its cancellation error does
    too: a reference while t*(1 - cos(pi/a)) stays small.
    """
    a = lattice.a
    growth = math.exp(t * (1.0 - math.cos(math.pi / a)))
    r = truncation_radius(s, min(0.5, max(eps_tail / growth, 1e-280)))
    js = range(-((r - x) // a), (x + r) // a + 1)
    value = 0.0
    if len(js):
        gaps = [abs(x - a * j) for j in js]
        weights = scaled_bessel_i_all(max(gaps), s)[gaps]
        mhat = lattice_martingale_batch(lattice, [y - a * j for j in js], t,
                                        tol=tol)
        value = math.fsum((weights * mhat).tolist())
    if s > t:
        value -= itilde(abs(x - y), s - t)
    return value


# ---------------------------------------------------------------------------
# signed Bessel transform: the ring-sum reference for site martingales
# ---------------------------------------------------------------------------

def _signed_weight_scan(t: float, max_radius: int):
    # Yields (k, weight_k) with weight_k = (-1)^k e^{2t} itilde_k(t), the
    # coefficient of f(x +- k) in e^t sum_w I_{|w-x|}(-t) f(w).
    size = 64
    vals = scaled_bessel_i_all(size, t)
    amp = math.exp(2.0 * t)
    for k in range(max_radius + 1):
        if k > size:
            size *= 2
            vals = scaled_bessel_i_all(size, t)
        yield k, (amp if k % 2 == 0 else -amp) * vals[k]


def _ring_sum(ring, floor: float, t: float, eps_tail: float, max_radius: int):
    # fsum of ring(k, weight_k) over k until three consecutive rings beyond
    # ``floor`` stay below eps_tail; works for scalar and vector rings.
    rings = []
    quiet = 0
    for k, w in _signed_weight_scan(t, max_radius):
        ring_k = np.atleast_1d(ring(k, w))
        rings.append(ring_k)
        if k > floor and np.max(np.abs(ring_k)) < eps_tail:
            quiet += 1
            if quiet >= 3:
                stacked = np.stack(rings)
                return np.array([math.fsum(col) for col in stacked.T])
        else:
            quiet = 0
    raise ConvergenceError("backward_transform",
                           f"terms still above {eps_tail:g} at radius {max_radius}")


def backward_transform(f, degree: int, t: float, x: int, *,
                       eps_tail: float = 1e-14, max_radius: int = 4096) -> float:
    """e^t sum_w I_{|w-x|}(-t) f(w) for f of at most polynomial growth.

    ``degree`` bounds the growth of f so the truncation radius is safe.
    The alternating cancellation costs roughly eps * e^{2t} absolute error.
    """
    if t == 0.0:
        return float(f(x))
    return float(_ring_sum(
        lambda k, w: w * f(x) if k == 0 else w * (f(x + k) + f(x - k)),
        t + degree, t, eps_tail, max_radius)[0])


def backward_transform_exp(alpha: float, t: float, x: int, *,
                           eps_tail: float = 1e-14,
                           max_radius: int = 4096) -> float:
    """The transform applied to w -> exp(alpha*(w - x)); its exact value is
    exp(-t*(cosh(alpha) - 1))."""
    if t == 0.0:
        return 1.0
    return float(_ring_sum(
        lambda k, w: w if k == 0 else w * 2.0 * math.cosh(alpha * k),
        t * math.exp(abs(alpha)), t, eps_tail, max_radius)[0])


def ring_site_martingale_row(config: FiniteConfiguration, t: float, y: int, *,
                             eps_tail: float = 1e-14,
                             max_radius: int = 4096) -> np.ndarray:
    """Every site martingale at (t, y) by the ring-by-ring signed Bessel
    sum over the Lagrange basis values; accurate only while eps * e^{2t}
    is small."""
    def basis_row(w):
        return np.array([lagrange_basis(config, k, float(w))
                         for k in range(len(config))])

    if t == 0.0:
        return basis_row(y)
    return _ring_sum(
        lambda k, w: w * basis_row(y) if k == 0
        else w * (basis_row(y + k) + basis_row(y - k)),
        t + len(config) - 1, t, eps_tail, max_radius)


def site_martingale_row_loop(config: FiniteConfiguration, t: float,
                             y: int) -> tuple[np.ndarray, np.ndarray]:
    """Every site martingale at (t, y) and its spread, one final site at a
    time: the per-site reference for ``site_martingale_rows``, with the
    Taylor rows built on an (N, N) array and the diagonal set by
    ``fill_diagonal``."""
    u = np.asarray(config.sites, dtype=float)
    gaps = u[:, None] - u[None, :]
    np.fill_diagonal(gaps, np.inf)
    inv = 1.0 / gaps
    ratio = (int(y) - u)[None, :] / gaps
    np.fill_diagonal(ratio, 1.0)
    coef = np.zeros((len(u), len(u)))
    coef[:, 0] = 1.0
    for j in range(len(u)):
        shifted = coef[:, :-1] * inv[:, j, None]
        coef *= ratio[:, j, None]
        coef[:, 1:] += shifted
    terms = coef * _series_weights(len(config), float(t))
    return terms.sum(axis=1), np.abs(terms).sum(axis=1)


def _bessel_per_time(times: np.ndarray, orders: np.ndarray) -> np.ndarray:
    # p(t_i, .) at orders[i], each distinct time from one scaled Bessel table
    # up to the largest order asked of that time
    out = np.empty(orders.shape)
    for tv in set(times.tolist()):
        sel = times == tv
        out[sel] = scaled_bessel_i_all(int(orders[sel].max()), tv)[orders[sel]]
    return out


def finite_sums_per_site(config: FiniteConfiguration, s, x, t, y
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Finite kernel entries sum_j p(s, x|u_j) M_j(t, y) - 1(s>t)
    p(s-t, x|y) and their rounding bounds eps * sum_j p(s, x|u_j)
    spread_j, with one ``site_martingale_rows`` call per distinct (t, y):
    the per-site reference for ``kernels._finite_sums``, which makes one
    call per distinct t."""
    s, t = np.asarray(s, dtype=float), np.asarray(t, dtype=float)
    x, y = np.asarray(x, dtype=np.int64), np.asarray(y, dtype=np.int64)
    weights = _bessel_per_time(s, np.abs(x[:, None] - np.asarray(config.sites)))
    rows, spreads, memo = np.empty(weights.shape), np.empty(weights.shape), {}
    for i, key in enumerate(zip(t.tolist(), y.tolist())):
        if key not in memo:
            memo[key] = site_martingale_rows(config, key[0], [key[1]])
        rows[i], spreads[i] = memo[key][0][0], memo[key][1][0]
    out = np.einsum("ij,ij->i", weights, rows)
    back = s > t
    if back.any():
        out[back] -= _bessel_per_time(s[back] - t[back], np.abs(x[back] - y[back]))
    eps = float(np.finfo(float).eps)
    return out, eps * np.einsum("ij,ij->i", weights, spreads)


def karlin_mcgregor(sites, t: float, ys) -> float:
    """Probability that the noncolliding walks from ``sites`` sit exactly at
    ``ys`` at time t, by Karlin-McGregor: det[p(t, y_j|u_i)] * h(ys)/h(sites)
    with scipy's ``ive`` for p and h the Vandermonde product."""
    from scipy.special import ive
    u = np.asarray(sites, dtype=float)
    y = np.asarray(ys, dtype=float)
    det = np.linalg.det(ive(np.abs(u[:, None] - y[None, :]), t))
    pairs = [(j, k) for j in range(len(u)) for k in range(j + 1, len(u))]
    return det * math.prod((y[k] - y[j]) / (u[k] - u[j]) for j, k in pairs)


def kernel_finite_mpmath(sites, s: float, x: int, t: float, y: int,
                         dps: int = 60) -> float:
    """Finite-configuration kernel (probability gauge) from the ring sum at
    ``dps`` digits: sum_k p(s, x|u_k) e^t sum_w I_{|w-y|}(-t) Phi_k(w)
    minus 1(s>t) p(s-t, x|y), with the ring sum run well past the decay
    of its weights."""
    import mpmath as mp

    with mp.workdps(dps):
        s_, t_ = mp.mpf(s), mp.mpf(t)
        radius = int(3 * t + 60 + 2 * len(sites))
        signed = [mp.besseli(n, -t_) for n in range(radius + 1)]

        def basis(k, w):
            out = mp.mpf(1)
            for j, uj in enumerate(sites):
                if j != k:
                    out *= mp.mpf(w - uj) / (sites[k] - uj)
            return out

        total = mp.mpf(0)
        for k, uk in enumerate(sites):
            if t == 0:
                m_k = basis(k, y)
            else:
                m_k = mp.exp(t_) * mp.fsum(signed[abs(w - y)] * basis(k, w)
                                           for w in range(y - radius,
                                                          y + radius + 1))
            total += mp.exp(-s_) * mp.besseli(abs(x - uk), s_) * m_k
        if s > t:
            total -= mp.exp(t_ - s_) * mp.besseli(abs(x - y), s_ - t_)
        return float(total)


# ---------------------------------------------------------------------------
# per-sample walk paths: the reference for ncrw.montecarlo.WalkBlock
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WalkPath:
    """One continuous-time +-1 walk: jump times in (0, horizon] and steps."""

    start: int
    horizon: float
    jump_times: np.ndarray
    steps: np.ndarray

    def __post_init__(self):
        jt = np.asarray(self.jump_times, dtype=float)
        st = np.asarray(self.steps, dtype=np.int64)
        if jt.shape != st.shape:
            raise ValueError("jump_times and steps must have equal length")
        if jt.size and (jt[0] <= 0.0 or jt[-1] > self.horizon
                        or np.any(np.diff(jt) <= 0.0)):
            raise ValueError("jump times must increase strictly within (0, horizon]")
        if st.size and not np.all(np.abs(st) == 1):
            raise ValueError("steps must be +-1")
        object.__setattr__(self, "jump_times", jt)
        object.__setattr__(self, "steps", st)
        object.__setattr__(self, "_cum", np.cumsum(st))

    def position(self, t: float) -> int:
        """Right-continuous position at time t <= horizon."""
        if not 0.0 <= t <= self.horizon:
            raise ValueError(f"query time {t} outside [0, {self.horizon}]")
        idx = int(np.searchsorted(self.jump_times, t, side="right"))
        return self.start + (int(self._cum[idx - 1]) if idx else 0)


@dataclass(frozen=True)
class WalkEnsemble:
    """Independent walks labeled by the (strictly increasing) start sites."""

    config: FiniteConfiguration
    paths: tuple[WalkPath, ...]

    def __post_init__(self):
        if len(self.paths) != len(self.config):
            raise ValueError("one path per configuration site required")
        horizons = {p.horizon for p in self.paths}
        if len(horizons) != 1:
            raise ValueError(f"paths carry mismatched horizons {horizons}")
        for p, u in zip(self.paths, self.config.sites):
            if p.start != u:
                raise ValueError("path starts must match the configuration")

    def positions(self, t: float) -> np.ndarray:
        return np.array([p.position(t) for p in self.paths])


def sample_walk(start: int, horizon: float, rng: np.random.Generator) -> WalkPath:
    """Unit-rate Poisson jump times on (0, horizon], i.i.d. +-1 steps."""
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    n = int(rng.poisson(horizon)) if horizon > 0 else 0
    times = np.sort(horizon * (1.0 - rng.random(n)))
    steps = 2 * rng.integers(0, 2, size=n) - 1
    return WalkPath(int(start), float(horizon), times, steps)


def sample_ensemble(config: FiniteConfiguration, horizon: float,
                    rng: np.random.Generator) -> WalkEnsemble:
    return WalkEnsemble(config, tuple(sample_walk(u, horizon, rng)
                                      for u in config.sites))


def exit_time(ensemble: WalkEnsemble) -> float:
    """First jump time at which the strict ordering fails; inf if none.

    The ordering can only change at jump instants, and with +-1 steps from
    a strictly ordered integer start the first violation is an equality of
    neighbors.  Simultaneous jumps have probability zero; if float ties
    occur they are processed in walk-index order.
    """
    paths = ensemble.paths
    n_walks = len(paths)
    if n_walks == 1:
        return math.inf
    pos = np.array(ensemble.config.sites, dtype=np.int64)
    times = np.concatenate([p.jump_times for p in paths])
    if times.size == 0:
        return math.inf
    walk = np.concatenate([np.full(p.jump_times.size, i, dtype=np.int64)
                           for i, p in enumerate(paths)])
    steps = np.concatenate([p.steps for p in paths])
    order = np.lexsort((walk, times))
    for idx in order:
        i = walk[idx]
        pos[i] += steps[idx]
        if (i > 0 and pos[i] <= pos[i - 1]) or \
           (i < n_walks - 1 and pos[i] >= pos[i + 1]):
            return float(times[idx])
    return math.inf


def ensembles_of_block(block) -> list[WalkEnsemble]:
    """One per-sample ensemble for each sample of a block, built from the
    block's own jumps sorted into time order walk by walk."""
    n_walks = len(block.config)
    bounds = np.searchsorted(block.owner, np.arange(block.n * n_walks + 1))
    out = []
    for b in range(block.n):
        paths = []
        for i, u in enumerate(block.config.sites):
            lo, hi = bounds[b * n_walks + i], bounds[b * n_walks + i + 1]
            order = np.argsort(block.times[lo:hi])
            paths.append(WalkPath(u, block.horizon, block.times[lo:hi][order],
                                  block.steps[lo:hi][order]))
        out.append(WalkEnsemble(block.config, tuple(paths)))
    return out


def exit_times_lexsort(block) -> np.ndarray:
    """``WalkBlock.exit_times`` by one three-key lexsort of every jump, in
    (sample, time, walk) order, and one int64 argsort of ``key * M + rank``
    that groups the gap moves by (sample, gap) in time order."""
    n_walks = len(block.config)
    exits = np.full(block.n, math.inf)
    if n_walks == 1 or block.owner.size == 0:
        return exits
    sample, walk = np.divmod(block.owner, n_walks)
    order = np.lexsort((walk, block.times, sample))
    sample, walk, steps = sample[order], walk[order], block.steps[order]
    jump = np.arange(order.size)
    left, right = walk > 0, walk < n_walks - 1
    rank = np.concatenate((jump[left], jump[right]))
    gap = np.concatenate((walk[left] - 1, walk[right]))
    move = np.concatenate((steps[left], -steps[right]))
    key = sample[rank] * (n_walks - 1) + gap
    by_gap = np.argsort(key * order.size + rank)
    key, rank, move = key[by_gap], rank[by_gap], move[by_gap]
    total = np.cumsum(move)
    first = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    before = np.repeat(total[first] - move[first],
                       np.diff(np.r_[first, key.size]))
    start_gaps = np.diff(np.asarray(block.config.sites, dtype=np.int64))
    hit = np.sort(rank[start_gaps[gap[by_gap]] + total - before == 0])
    hit_sample = sample[hit]
    earliest = np.diff(hit_sample, prepend=-1) != 0
    exits[hit_sample[earliest]] = block.times[order][hit[earliest]]
    return exits


def determinant_weight(config: FiniteConfiguration, t: float,
                       positions: np.ndarray) -> np.ndarray:
    """det[M_{u_k}(t, V_j)] of the site martingales at the final sites, per
    sample: the dmr weight by the determinant route, with rows from
    ``site_martingale_row_loop`` at each distinct final site.  In exact
    arithmetic it equals ``vandermonde_ratio(positions, config.sites)``."""
    sites, index = np.unique(positions, return_inverse=True)
    rows = np.array([site_martingale_row_loop(config, t, y)[0]
                     for y in sites.tolist()])
    return np.linalg.det(rows[index.reshape(positions.shape)])


def estimate_exact(blocks, functional) -> tuple[Fraction, Fraction]:
    """The mean and ESS of the dmr estimator in exact rationals over the
    same sampled blocks: Fraction Vandermonde weights h(V(T))/h(u) and
    exact sums of f*w, |w| and w^2."""
    n, s_fw, s_abs, s_sq = 0, Fraction(0), Fraction(0), Fraction(0)
    for block in blocks:
        u, T = block.config.sites, block.horizon
        values = functional.evaluate(
            {t: block.positions(t) for t in (*functional.times, T)})
        for v, f in zip(block.positions(T).tolist(), values.tolist()):
            w = math.prod((Fraction(v[k] - v[j], u[k] - u[j])
                           for j in range(len(u))
                           for k in range(j + 1, len(u))), start=Fraction(1))
            s_fw += Fraction(f) * w
            s_abs += abs(w)
            s_sq += w * w
        n += block.n
    return s_fw / n, s_abs ** 2 / s_sq


# ---------------------------------------------------------------------------
# site-martingale Taylor rows in (y, k, power) layout
# ---------------------------------------------------------------------------

def basis_taylor_rows_yk(config: FiniteConfiguration,
                         ys: np.ndarray) -> np.ndarray:
    """Entry [i, k, p] is the coefficient of h^p in Phi^{u_k}(ys[i] + h),
    built one factor j at a time on the strided power slices of a (y, k,
    power) array: the same products and sums as ``_basis_taylor_rows``,
    whose layout is (power, y, k)."""
    u = np.asarray(config.sites, dtype=float)
    n = len(u)
    gaps = u[:, None] - u[None, :]
    np.fill_diagonal(gaps, np.inf)
    inv = 1.0 / gaps
    ratio = (ys[:, None] - u[None, :])[:, None, :] / gaps
    ratio.reshape(len(ys), n * n)[:, ::n + 1] = 1.0
    coef = np.zeros((len(ys), n, n))
    coef[:, :, 0] = 1.0
    for j in range(n):
        shifted = coef[:, :, :-1] * inv[:, j, None]
        coef *= ratio[:, :, j, None]
        coef[:, :, 1:] += shifted
    return coef


def site_martingale_rows_yk(config: FiniteConfiguration, t: float, ys
                            ) -> tuple[np.ndarray, np.ndarray]:
    """``site_martingale_rows`` from ``basis_taylor_rows_yk`` over the whole
    batch at once: weighted terms summed over the contiguous power axis."""
    ys = np.asarray(ys, dtype=np.int64).reshape(-1)
    terms = basis_taylor_rows_yk(config, ys) * _series_weights(len(config),
                                                               float(t))
    return terms.sum(axis=-1), np.abs(terms).sum(axis=-1)


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def gauss_legendre_levelwise(f, a: float, b: float, *, tol: float = 1e-13):
    """Gauss-Legendre with node doubling from 32 nodes, one call of ``f`` per
    level, every component judged at each level until all pass at once.

    Where every component first passes at one level, it gives the bits of
    ``quadrature.gauss_legendre``, which makes one call of ``f`` on the 32
    and 64 nodes together and keeps each component from the first level at
    which it passes.
    """
    tol = max(tol, 5e-15)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)

    def level(n):
        x, w = _leggauss(n)
        vals = np.asarray(f(mid + half * x))
        return half * np.dot(w[None], vals.reshape(n, -1)).reshape(
            vals.shape[1:])

    n = 32
    prev = level(n)
    while 2 * n <= _GAUSS_MAX_NODES:
        n *= 2
        cur = level(n)
        if np.all(np.abs(cur - prev) <= tol * np.maximum(1.0, np.abs(cur))):
            return cur if np.ndim(cur) else np.asarray(cur).item()
        prev = cur
    raise ConvergenceError("gauss_legendre_levelwise",
                           f"no convergence to {tol:g}")


# ---------------------------------------------------------------------------
# command-line output
# ---------------------------------------------------------------------------

def csv_per_value(header: list[str], rows) -> str:
    """A CSV table written one value at a time: floats by
    ``format(v, '.17g')``, everything else by ``str``."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format(float(v), ".17g")
                              if isinstance(v, float) else str(v)
                              for v in row))
    return "\n".join(lines) + "\n"
