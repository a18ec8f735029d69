"""Determinantal correlation functions and finite Fredholm determinants.

Every spatio-temporal correlation of the noncolliding walk is the
determinant of the kernel matrix over the chosen space-time points, and
moment generating functionals over finitely supported test functions are
finite determinants det(I + K chi), with chi given as a mapping from
space-time points to weights (chi = expm1(f) for a test function f).
Determinants are evaluated by dense LU; the expansion over point subsets
is kept only as a test oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .kernels import KernelSpec
from .martingales import _integers

MAX_CORRELATION_POINTS = 12
MAX_FREDHOLM_SUPPORT = 14


@dataclass(frozen=True)
class MultiTimePointSet:
    """Site groups at strictly increasing times, sites ordered within groups."""

    groups: tuple[tuple[float, tuple[int, ...]], ...]

    def __post_init__(self):
        groups = [(float(t), tuple(sites)) for t, sites in self.groups]
        times = [t for t, _ in groups]
        if not all(0 <= t < math.inf for t in times):
            raise ValueError(f"times must be finite and >= 0, got {times}")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError(f"times must be strictly increasing, got {times}")
        norm = []
        for t, sites in groups:
            ss = _integers(sites, "sites")
            if not ss:
                raise ValueError("every time group needs at least one site")
            if any(b <= a for a, b in zip(ss, ss[1:])):
                raise ValueError(f"sites within a group must increase, got {ss}")
            norm.append((t, ss))
        object.__setattr__(self, "groups", tuple(norm))

    def flatten(self) -> list[tuple[float, int]]:
        return [(t, x) for t, sites in self.groups for x in sites]

    @property
    def n_points(self) -> int:
        return sum(len(sites) for _, sites in self.groups)

    @property
    def max_time(self) -> float:
        return self.groups[-1][0]


def kernel_matrix(spec: KernelSpec, points: Sequence[tuple[float, int]], *,
                  tol: float = 1e-13) -> np.ndarray:
    """Matrix K(points[i], points[j]), all entries in one batch.

    Options as for ``KernelSpec.values``.  A finite configuration's rounding
    guard judges the matrix as a whole: when some entry misses the absolute
    budget, the matrix is balanced (K -> D K D^{-1} with D diagonal, which
    changes no determinant) and refused only if an entry error bound of the
    balanced matrix still exceeds it.
    """
    n = len(points)
    return spec._evaluate(points, points, np.divmod(np.arange(n * n), n),
                          tol).reshape(n, n)


def correlation_function(spec: KernelSpec, pts: MultiTimePointSet, *,
                         tol: float = 1e-13) -> float:
    """Correlation of occupying all sites of ``pts`` at their times.

    Determinant of the n x n kernel matrix over the flattened points;
    independent of the gauge carried by ``spec``.
    """
    n = pts.n_points
    if n > MAX_CORRELATION_POINTS:
        raise ValueError(
            f"point set has {n} points, above the determinant guard "
            f"{MAX_CORRELATION_POINTS}")
    return float(np.linalg.det(kernel_matrix(spec, pts.flatten(), tol=tol)))


def density_profile(spec: KernelSpec, t: float, window: Sequence[int], *,
                    tol: float = 1e-13) -> np.ndarray:
    """One-point correlation K(t,x;t,x) for x over the window.

    Evaluates the diagonal only: off-diagonal entries of a wide window can
    be refused by the finite kernel's rounding guard when the diagonal is
    accurate.
    """
    pts = np.empty((len(window), 2))
    pts[:, 0], pts[:, 1] = t, window
    return spec.values(pts, pts, tol=tol)


def fredholm_generating_function(spec: KernelSpec,
                                 chi: Mapping[tuple[float, int], float], *,
                                 tol: float = 1e-13) -> float:
    """Moment generating functional det(I + K chi) over the support of chi.

    ``chi`` maps space-time points (t, x) to finite weights; for a test
    function f pass chi = expm1(f), so chi = -1 gives void probabilities.
    Exact (up to kernel truncation error) because chi is supported on
    finitely many space-time points: the operator determinant collapses to
    an ordinary determinant indexed by the support.
    """
    n = len(chi)
    if n > MAX_FREDHOLM_SUPPORT:
        raise ValueError(f"test support of {n} points above guard {MAX_FREDHOLM_SUPPORT}")
    weights = np.array(list(chi.values()), dtype=float)
    bad = weights[~np.isfinite(weights)]
    if bad.size:
        raise ValueError(f"chi values must be finite, got {bad[0]}")
    mat = np.eye(n) + kernel_matrix(spec, list(chi), tol=tol) * weights
    return float(np.linalg.det(mat))
