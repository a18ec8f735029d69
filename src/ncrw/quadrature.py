"""Adaptive quadrature helpers.

Two rules cover every integral in the package:

* equally weighted nodes over a full period (trapezoidal rule, spectrally
  accurate for smooth periodic integrands),
* Gauss-Legendre with node doubling for smooth non-periodic integrands
  (the lattice momentum integrals are entire in the integration variable
  but not periodic over the integration window).

Both double the node count until two successive refinements agree and both
accept vector-valued integrands (shape ``(n_nodes, ...)`` -> integral of
shape ``(...)``).
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import ConvergenceError

_leggauss_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    got = _leggauss_cache.get(n)
    if got is None:
        got = leggauss(n)
        got[0].setflags(write=False)
        got[1].setflags(write=False)
        _leggauss_cache[n] = got
    return got


def periodic_mean(f, *, n_start: int = 16, tol: float = 1e-13,
                  max_nodes: int = 1 << 18) -> float:
    """Mean value (1/2pi) * integral over [-pi, pi) of a 2pi-periodic f.

    ``f`` must accept an ndarray of nodes.  Node count doubles until two
    successive levels agree to ``tol`` (absolute, relative to max(1, |I|)).
    """
    if n_start < 4:
        raise ValueError(f"node count must be >= 4, got {n_start}")
    n = int(n_start)
    nodes = -np.pi + 2.0 * np.pi * np.arange(n) / n
    prev = float(np.mean(f(nodes)))
    while 2 * n <= max_nodes:
        n *= 2
        nodes = -np.pi + 2.0 * np.pi * np.arange(n) / n
        cur = float(np.mean(f(nodes)))
        if abs(cur - prev) <= tol * max(1.0, abs(cur)):
            return cur
        prev = cur
    raise ConvergenceError("periodic_mean",
                           f"no convergence to {tol:g} within {max_nodes} nodes")


def gauss_legendre(f, a: float, b: float, *, n_start: int = 32,
                   tol: float = 1e-13, max_nodes: int = 2048):
    """Integral of ``f`` over [a, b] by Gauss-Legendre with node doubling.

    ``f`` maps an ndarray of nodes to values (scalar or vector per node);
    convergence is judged in the max norm relative to max(1, ||I||_inf).
    Returns a float for scalar integrands, an ndarray otherwise.

    Tolerances are floored just above the doubling noise floor, and the
    node count is capped: Gauss node generation is quadratic in n, so an
    integrand that fails at 2048 nodes needs splitting, not refinement.
    """
    tol = max(tol, 5e-15)
    if b <= a:
        if b == a:
            probe = np.asarray(f(np.array([a])))
            return np.zeros(probe.shape[1:]) if probe.ndim > 1 else 0.0
        raise ValueError(f"empty integration interval [{a}, {b}]")
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)

    def level(n):
        x, w = _leggauss(n)
        vals = np.asarray(f(mid + half * x))
        return half * np.tensordot(w, vals, axes=(0, 0))

    n = int(n_start)
    prev = level(n)
    while 2 * n <= max_nodes:
        n *= 2
        cur = level(n)
        err = np.max(np.abs(cur - prev))
        scale = max(1.0, float(np.max(np.abs(cur))))
        if err <= tol * scale:
            return cur if np.ndim(cur) else np.asarray(cur).item()
        prev = cur
    raise ConvergenceError("gauss_legendre",
                           f"no convergence to {tol:g} within {max_nodes} nodes")
