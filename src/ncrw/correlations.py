"""Determinantal correlation functions and finite Fredholm determinants.

Every spatio-temporal correlation of the noncolliding walk is the
determinant of the kernel matrix over the chosen space-time points, and
moment generating functionals over finitely supported test functions are
finite determinants det(I + K chi).  Determinants are evaluated by dense
LU; the expansion over point subsets is kept only as a test oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .kernels import KernelSpec
from .martingales import _integers

MAX_CORRELATION_POINTS = 12
MAX_FREDHOLM_SUPPORT = 14


def _timed(groups) -> list[tuple[float, tuple]]:
    # (t, payload) groups with float times, finite, >= 0 and increasing
    groups = [(float(t), tuple(payload)) for t, payload in groups]
    times = [t for t, _ in groups]
    if not all(0 <= t < math.inf for t in times):
        raise ValueError(f"times must be finite and >= 0, got {times}")
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError(f"times must be strictly increasing, got {times}")
    return groups


@dataclass(frozen=True)
class MultiTimePointSet:
    """Site groups at strictly increasing times, sites ordered within groups."""

    groups: tuple[tuple[float, tuple[int, ...]], ...]

    def __post_init__(self):
        norm = []
        for t, sites in _timed(self.groups):
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
    pts = np.asarray(points, dtype=float).reshape(n, 2)
    return spec._evaluate(pts, pts, np.divmod(np.arange(n * n), n),
                          tol).reshape(n, n)


def correlation_from_points(spec: KernelSpec,
                            points: Sequence[tuple[float, int]], *,
                            tol: float = 1e-13) -> float:
    """det K over an explicit point list (no ordering constraints)."""
    return float(np.linalg.det(kernel_matrix(spec, points, tol=tol)))


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
    return correlation_from_points(spec, pts.flatten(), tol=tol)


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


@dataclass(frozen=True)
class TestFunctionSet:
    """Finitely supported test functions f_t, one per (increasing) time.

    Stored as ((t, ((site, f_value), ...)), ...); the moment generating
    functional pairs the kernel with chi = e^f - 1, so f = -inf encodes
    chi = -1 (void-probability weights).
    """

    groups: tuple[tuple[float, tuple[tuple[int, float], ...]], ...]

    def __post_init__(self):
        norm = []
        for t, support in _timed(self.groups):
            sites = _integers((x for x, _ in support), "support sites")
            if len(set(sites)) != len(sites):
                raise ValueError(f"duplicate support site at time {t}")
            sup = tuple(sorted(zip(sites, (float(f) for _, f in support))))
            norm.append((t, sup))
        object.__setattr__(self, "groups", tuple(norm))

    @classmethod
    def from_chi(cls, groups) -> "TestFunctionSet":
        """Build from chi values; f = log(1 + chi), chi = -1 -> f = -inf."""
        conv = []
        for t, support in groups:
            conv.append((t, tuple((x, math.log1p(c) if c > -1.0 else -math.inf)
                                  for x, c in support)))
        return cls(tuple(conv))

    def chi_points(self) -> list[tuple[float, int, float]]:
        return [(t, x, math.expm1(f)) for t, sup in self.groups
                for x, f in sup]


def fredholm_generating_function(spec: KernelSpec, tests: TestFunctionSet,
                                 *, tol: float = 1e-13) -> float:
    """Moment generating functional det(I + K chi) over the test support.

    Exact (up to kernel truncation error) because chi is supported on
    finitely many space-time points: the operator determinant collapses to
    an ordinary determinant indexed by the support.
    """
    chi_pts = tests.chi_points()
    n = len(chi_pts)
    if n > MAX_FREDHOLM_SUPPORT:
        raise ValueError(f"test support of {n} points above guard {MAX_FREDHOLM_SUPPORT}")
    points = [(t, x) for t, x, _ in chi_pts]
    chi = np.array([c for _, _, c in chi_pts])
    mat = np.eye(n) + kernel_matrix(spec, points, tol=tol) * chi[None, :]
    return float(np.linalg.det(mat))
