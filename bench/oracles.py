"""Reference values computed apart from ``ncrw``.

Only numpy, ``scipy.special.ive``, ``scipy.integrate.quad`` and closed
forms are used here; no ``ncrw`` route is imported.  Every function states
the identity it rests on.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.special import ive

# Fixed Gauss-Legendre rule on [0, pi] for the lattice site martingales.
# Their integrands are entire and oscillate at most ~(window + radius)/a
# times over the interval, far below what 256 nodes resolve.
_GL_X, _GL_W = np.polynomial.legendre.leggauss(256)
_LAM = 0.5 * math.pi * (_GL_X + 1.0)
_LAM_W = 0.5 * math.pi * _GL_W


def p(t: float, d) -> np.ndarray:
    """Transition probability p_t(x|y) = e^{-t} I_{|x-y|}(t) of the walk."""
    return ive(np.abs(np.asarray(d, dtype=float)), float(t))


def vandermonde(xs) -> float:
    x = [float(v) for v in xs]
    out = 1.0
    for j in range(len(x)):
        for k in range(j + 1, len(x)):
            out *= x[k] - x[j]
    return out


def karlin_mcgregor(config, groups) -> float:
    """Probability that the noncolliding walks from ``config`` sit exactly at
    ``groups[k][1]`` at time ``groups[k][0]`` for every k.

    Each group must hold N = len(config) sites.  The noncolliding process is
    the Doob h-transform of N independent walks with h = Vandermonde, so by
    Karlin-McGregor the path probability is the product of the per-step
    determinants det[p_dt(x_i | x'_j)] times h(x_last) / h(config).
    """
    prev = np.asarray(config, dtype=float)
    t_prev = 0.0
    value = 1.0
    for t, sites in groups:
        x = np.asarray(sites, dtype=float)
        value *= np.linalg.det(p(t - t_prev, x[:, None] - prev[None, :]))
        prev, t_prev = x, t
    return value * vandermonde(prev) / vandermonde(config)


def single_walk_kernel(u: int, s: float, x: int, t: float, y: int) -> float:
    """Kernel of one walk started at u (prob gauge).

    For N = 1 the Lagrange basis is the constant 1, whose martingale is 1,
    so K(s,x;t,y) = p_s(x|u) - 1(s>t) p_{s-t}(x|y).
    """
    value = float(p(s, x - u))
    if s > t:
        value -= float(p(s - t, x - y))
    return value


def lattice_kernel(a: int, s: float, x: int, t: float, y: int) -> float:
    """Kernel of the walks started from aZ (prob gauge), by its site sum.

    K = sum_j p_s(x|aj) M_j(t,y) - 1(s>t) p_{s-t}(x|y), where the martingale
    of the sinc basis at aj is
    M_j(t,y) = (1/pi) int_0^pi cos((y/a - j) lam) exp(t (1 - cos(lam/a))) dlam.
    Its terms grow like exp(t (1 - cos(pi/a))), so keep t below ~8.
    """
    growth = math.exp(t * (1.0 - math.cos(math.pi / a)))
    r = 0
    while float(p(s, r)) * growth > 1e-19:
        r += 1
    js = np.arange(math.ceil((x - r) / a), math.floor((x + r) / a) + 1)
    weights = p(s, x - a * js)
    damp = np.exp(t * (1.0 - np.cos(_LAM / a)))
    phase = np.cos(np.outer(y / a - js, _LAM))
    mart = (phase * damp[None, :]) @ _LAM_W / math.pi
    value = math.fsum(weights * mart)
    if s > t:
        value -= float(p(s - t, x - y))
    return value


def stationary_kernel(rho: float, dt: float, dx: int) -> float:
    """Stationary kernel at density rho (prob gauge), displacement (dt, dx).

    The band projection evolved by the walk semigroup:
    int_0^rho cos(pi u dx) exp(dt (1 - cos(pi u))) du - 1(dt<0) p_{-dt}(dx),
    which is sin(pi rho dx)/(pi dx) (rho at dx = 0) when dt = 0.
    """
    if dt == 0.0:
        return rho if dx == 0 else math.sin(math.pi * rho * dx) / (math.pi * dx)
    band, _ = quad(lambda u: math.cos(math.pi * u * dx)
                   * math.exp(dt * (1.0 - math.cos(math.pi * u))),
                   0.0, rho, epsabs=1e-13, epsrel=1e-12, limit=200)
    if dt < 0:
        band -= float(p(-dt, dx))
    return band
