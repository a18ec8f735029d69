"""Relaxation of the lattice process toward the stationary sine-kernel state.

Shifting both time arguments of the lattice kernel by tau and letting tau
grow drives it to the stationary kernel at density rho = 1/a.  The whole
gap is carried by the aliasing remainder of the folded kernel (the
principal band term already *is* the stationary kernel), whose integrand
carries a damping factor strictly below 1 away from the band edge.  No
rate is asserted anywhere: the diagnostics record gap tables over a tau
grid and check monotone trends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import kernels
from .kernels import LatticeSpec


@dataclass(frozen=True)
class RelaxationReport:
    """Gap table over a tau grid for a set of space-time displacements."""

    lattice: LatticeSpec
    displacements: tuple[tuple[float, int], ...]  # (dt, dx)
    tau_grid: tuple[float, ...]
    lattice_values: np.ndarray    # shape (len(tau_grid), len(displacements))
    stationary_values: np.ndarray  # shape (len(displacements),)
    gaps: np.ndarray              # shape like lattice_values

    def max_gap(self) -> np.ndarray:
        """Worst gap over displacements, per tau."""
        return self.gaps.max(axis=1)


def relaxation_sweep(lattice: LatticeSpec,
                     displacements: Sequence[tuple[float, int]],
                     tau_grid: Sequence[float], *,
                     tol: float = 1e-13) -> RelaxationReport:
    """Evaluate the gap matrix over (tau, displacement) cells.

    Each displacement (dt, dx) compares K(tau, 0; tau + dt, dx) with the
    stationary value, both in the probability gauge.  The principal band of
    the lattice kernel is the stationary kernel, so it is integrated once
    per displacement, and each lattice cell adds its aliasing remainder to
    it; the remainders of every cell are one batch.  Both are computed
    directly on the displacements, validated once here.
    """
    taus = tuple(float(v) for v in tau_grid)
    if any(b <= a for a, b in zip(taus, taus[1:])):
        raise ValueError(f"tau grid must be strictly increasing, got {taus}")
    if not all(0 <= v < math.inf for v in taus):
        raise ValueError(f"tau grid must be finite and >= 0, got {taus}")
    disp = tuple((float(dt), int(dx)) for dt, dx in displacements)
    dt, dx = np.array(disp).reshape(-1, 2).T
    if not np.isfinite(dt).all():
        raise ValueError("time coordinate must be finite and >= 0, got "
                         f"{abs(dt[~np.isfinite(dt)][0])}")
    # dt < 0 puts the first point later: s = tau - dt, t = tau
    s, t, dx = np.maximum(-dt, 0.0), np.maximum(dt, 0.0), dx.astype(np.int64)
    stationary = kernels._stationary_bands(lattice.density, t - s, dx, tol=tol)
    tau = np.array(taus)[:, None]
    y = np.tile(dx, len(taus))
    lattice_vals = stationary + kernels._lattice_sums(
        lattice, (tau + s).ravel(), np.zeros_like(y), (tau + t).ravel(), y, tol
    ).reshape(len(taus), len(dx))
    gaps = np.abs(lattice_vals - stationary[None, :])
    return RelaxationReport(lattice, disp, taus, lattice_vals, stationary,
                            gaps)
