"""Adaptive quadrature.

One rule covers every integral in the package: Gauss-Legendre with node
doubling.  The integrands (the transition law's Fourier integral, the
sine-kernel bands and the lattice momentum integrals) are entire in the
integration variable, so the rule converges spectrally on any interval,
periodic or not.  The node count doubles until two successive levels
agree, each component on its own, and vector-valued integrands are
accepted (shape ``(n_nodes, ...)`` -> integral of shape ``(...)``).
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError

_GAUSS_MAX_NODES = 2048
_leggauss_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _legendre_roots(n: int) -> tuple[np.ndarray, np.ndarray]:
    # Newton iteration on the positive roots of P_n from Tricomi's guesses,
    # P_n and P_{n-1} by the three-term recurrence: O(n) memory, where a
    # companion-matrix eigensolve holds an n x n matrix.
    m = (n + 1) // 2
    x = np.cos(np.pi * (np.arange(1, m + 1) - 0.25) / (n + 0.5))
    while True:
        p_prev, p = np.ones(m), x
        for k in range(2, n + 1):
            p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
        dp = n * (x * p - p_prev) / (x * x - 1.0)
        step = p / dp
        x = x - step
        if np.max(np.abs(step)) <= 1e-15:
            return x, 2.0 / ((1.0 - x * x) * dp * dp)


def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1], cached."""
    got = _leggauss_cache.get(n)
    if got is None:
        x, w = _legendre_roots(n)
        nodes = np.concatenate((-x, x[::-1][n % 2:]))
        weights = np.concatenate((w, w[::-1][n % 2:]))
        got = (nodes, weights * (2.0 / weights.sum()))
        got[0].setflags(write=False)
        got[1].setflags(write=False)
        _leggauss_cache[n] = got
    return got


def gauss_legendre(f, a: float, b: float, *, tol: float = 1e-13):
    """Integral of ``f`` over [a, b] by Gauss-Legendre with node doubling.

    ``f`` maps an ndarray of nodes to values (scalar or vector per node).
    Each component is judged on its own scale, |I_k - I'_k| <= tol *
    max(1, |I_k|) between successive levels, and keeps the value of the
    first level it passes at, so the rounding noise of the levels that other
    components need cannot fail it.  Levels 32 and 64 are one call of ``f``.
    Returns a float for scalar integrands, an ndarray otherwise; raises
    ``ValueError`` unless a < b, and ``ConvergenceError`` once a column that
    has not passed is not finite.

    Refinement runs from 32 to at most 2048 nodes.  Tolerances are floored
    just above the doubling noise floor, and the node count is capped:
    Gauss node generation is quadratic in n, so an integrand that fails at
    2048 nodes needs splitting, not refinement.
    """
    tol = max(tol, 5e-15)
    if b <= a:
        raise ValueError(f"empty integration interval [{a}, {b}]")
    mid, half = 0.5 * (a + b), 0.5 * (b - a)

    def weigh(n, vals):
        # np.tensordot(w, vals, axes=(0, 0)) without its Python overhead
        w = _leggauss(n)[1][None]
        return half * np.dot(w, vals.reshape(n, -1)).reshape(vals.shape[1:])

    # one call of f on both first levels, each weighed in the layout that
    # a call of its own gives (BLAS rounding depends on the layout)
    vals = np.asarray(f(mid + half * np.concatenate(
        (_leggauss(32)[0], _leggauss(64)[0]))))
    prev = weigh(32, vals[:32].copy(order="K"))
    n, cur = 64, weigh(64, vals[32:].copy(order="K"))
    # each column keeps the value of the first level at which it passes
    out, done = np.array(cur), np.zeros(np.shape(cur), dtype=bool)
    while True:
        passed = np.abs(cur - prev) <= tol * np.maximum(1.0, np.abs(cur))
        np.copyto(out, cur, where=passed & ~done)
        done |= passed
        if done.all():
            return out if out.ndim else out.item()
        if not np.isfinite(cur[~done]).all():  # no level will pass it
            raise ConvergenceError("gauss_legendre", f"integrand overflows "
                                   f"double precision at {n} nodes")
        if 2 * n > _GAUSS_MAX_NODES:
            raise ConvergenceError("gauss_legendre", f"no convergence to "
                                   f"{tol:g} within {_GAUSS_MAX_NODES} nodes")
        n *= 2
        prev, cur = cur, weigh(n, np.asarray(f(mid + half * _leggauss(n)[0])))
