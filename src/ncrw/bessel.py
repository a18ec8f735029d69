"""Scaled modified Bessel functions and the walk transition probability.

Everything downstream is built from the scaled function

    itilde_n(t) = exp(-t) * I_n(t),   n >= 0, t >= 0,

which stays in [0, 1] and therefore never overflows.  ``I_n`` is the
modified Bessel function of the first kind of integer order.  The single
step transition probability of the continuous-time simple symmetric
random walk on Z is exactly ``p(t, y|x) = itilde_{|y-x|}(t)``, read from
one table: ``scaled_bessel_i_all(n, t)[n]`` with n = |y - x|, the one
production route.  Its two independent checks, the Fourier integral and
Poissonization of the discrete walk, live in ``selftest``.

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
