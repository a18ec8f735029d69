"""Scaled modified Bessel functions and the walk transition probability.

Everything downstream is built from the scaled function

    itilde_n(t) = exp(-t) * I_n(t),   n >= 0, t >= 0,

which stays in [0, 1] and therefore never overflows.  ``I_n`` is the
modified Bessel function of the first kind of integer order.  The single
step transition probability of the continuous-time simple symmetric
random walk on Z is exactly ``p(t, y|x) = itilde_{|y-x|}(t)``, read from
one table: ``scaled_bessel_i_all(n, t)[n]`` with n = |y - x|.  Two
independent evaluation routes are provided as oracles for it: the Fourier
integral by the package's one quadrature rule (Gauss-Legendre) and
Poissonization of the discrete walk.

Evaluation strategy: one backward recurrence for the ratios
I_k / I_{k-1}, which lie in [0, 1), normalized with
``itilde_0 + 2*sum_k itilde_k = 1``, for every ``t``.  It never forms the
unscaled ``I_n``.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError
from .quadrature import gauss_legendre


def _check_order_time(n: int, t: float) -> None:
    if n != int(n) or n < 0:
        raise ValueError(f"Bessel order must be a nonnegative integer, got {n}")
    if not math.isfinite(t):
        raise ValueError(f"time argument must be finite, got {t}")
    if t < 0:
        raise ValueError(f"time argument must be >= 0, got {t}")


@lru_cache(maxsize=512)
def _scaled_all_cached(n_max: int, t: float) -> np.ndarray:
    # The ratios r_k = I_k / I_{k-1} by the backward recurrence
    # r_k = t / (2k + t*r_{k+1}), started at 0 from an index high enough that
    # the wanted orders are fully converged.  They lie in [0, 1), so their
    # products itilde_k / itilde_0 never overflow, and the normalisation
    # itilde_0 + 2*sum_k itilde_k = 1 fixes itilde_0.
    top = max(n_max, int(math.ceil(t)))
    start = top + 10 + int(2.0 * math.sqrt(40.0 * (top + 1)))
    ratios = []
    r = 0.0
    for k in range(start, 0, -1):
        r = t / (2.0 * k + t * r)
        ratios.append(r)
    products = np.cumprod(ratios[::-1])
    out = np.empty(n_max + 1)
    out[0] = 1.0 / (1.0 + 2.0 * products.sum())
    out[1:] = out[0] * products[:n_max]
    out.setflags(write=False)
    return out


def scaled_bessel_i_all(n_max: int, t: float) -> np.ndarray:
    """Read-only array of exp(-t) I_n(t) for n = 0..n_max."""
    _check_order_time(n_max, t)
    return _scaled_all_cached(int(n_max), float(t))


def truncation_radius(t: float, eps: float) -> int:
    """Largest order n with itilde_n(t) >= eps (0 if none).

    itilde_n(t) is decreasing in n, so lattice sums over |y - x| <= radius
    capture all but an O(eps) tail.  Found by scanning outward from
    ceil(t) + 10.
    """
    _check_order_time(0, t)
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    if t == 0.0:
        return 0
    guess = int(math.ceil(t)) + 10
    while True:
        vals = scaled_bessel_i_all(guess, t)
        below = np.nonzero(vals < eps)[0]
        if below.size:
            return int(below[0]) - 1 if below[0] > 0 else 0
        guess *= 2
        if guess > 10_000_000:
            raise ConvergenceError("truncation_radius",
                                   f"no decay below {eps:g} found for t={t}")


def transition_probability_quadrature(t: float, x: int, y: int) -> float:
    """p(t, y|x) as (1/pi) int_0^pi cos(k(y-x)) e^{-(1-cos k)t} dk.

    The integrand is entire, so Gauss-Legendre with node doubling
    (``quadrature.gauss_legendre``) converges spectrally; nodes double until
    successive levels agree to 1e-14.  Independent of the Bessel evaluation
    path.
    """
    _check_order_time(0, t)
    d = abs(int(y) - int(x))

    def integrand(k):
        return np.cos(d * k) * np.exp(-(1.0 - np.cos(k)) * t)

    return gauss_legendre(integrand, 0.0, math.pi, tol=1e-14) / math.pi


def transition_probability_poisson(t: float, x: int, y: int) -> float:
    """p(t, y|x) by Poissonization of the discrete-time simple walk.

    sum_j e^{-t} t^j / j! * P(S_j = y - x) with S_j the j-step +-1 walk,
    P(S_j = d) = C(j, (j+d)/2) / 2^j for j >= |d|, j = d (mod 2).  Each
    binomial is an exact integer updated from that of j - 2; the Poisson
    weight is carried as a mantissa and a power of two, so e^{-t} never
    underflows; the outer sum is compensated and stops past j = t once the
    weight drops below 1e-18 of the last term.  Domain 0 <= t <= 5000,
    where it meets 1e-12 relative (rounding grows about linearly in t:
    2e-13 at t = 5000); ``ValueError`` beyond.  Third independent route
    for the transition kernel.
    """
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
