"""Relaxation of the lattice process toward the stationary sine-kernel state.

Shifting both time arguments of the lattice kernel by tau and letting tau
grow drives it to the stationary kernel at density rho = 1/a.  The whole
gap is carried by the aliasing remainder of the folded kernel (the
principal band term already *is* the stationary kernel), whose integrand
carries a damping factor strictly below 1 away from the band edge.  The
diagnostics assert no rate: they record gap tables over a tau grid and
check monotone trends.  Domain: the remainder follows its leading 1/tau
term within 8/tau relative, checked up to tau = 8192; then the quadrature
misses its boundary layer and the gap drops below 1e-13, with no error,
from tau of about 10.5k on a = 2, 17.9k on a = 3, 42.8k on a = 5 and 103k
on a = 8.
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
    it.  Each dt's tau x dx grid goes to the remainder quadrature in tiles
    of at most 512 key-shift pairs, unsorted.  Both are computed directly
    on the displacements, validated once here.
    """
    taus = tuple(float(v) for v in tau_grid)
    if any(b <= a for a, b in zip(taus, taus[1:])):
        raise ValueError(f"tau grid must be strictly increasing, got {taus}")
    if not all(0 <= v < math.inf for v in taus):
        raise ValueError(f"tau grid must be finite and >= 0, got {taus}")
    disp = []
    for dt, dx in displacements:
        if not float(dx).is_integer():
            raise ValueError(f"space coordinate must be an integer, got {dx}")
        disp.append((float(dt), int(dx)))
    dt, dx = np.array(disp).reshape(-1, 2).T
    if not np.isfinite(dt).all():
        raise ValueError("time coordinate must be finite and >= 0, got "
                         f"{abs(dt[~np.isfinite(dt)][0])}")
    # dt < 0 puts the first point later: s = tau - dt, t = tau
    s, t, dx = np.maximum(-dt, 0.0), np.maximum(dt, 0.0), dx.astype(np.int64)
    stationary = kernels._stationary_bands(lattice.density, t - s, dx, tol=tol)
    # tiles of at most per_tile cells, dx-major like _lattice_sums' blocks
    tau, remainder = np.array(taus), np.empty((len(taus), len(dx)))
    per_tile = max(1, kernels._LATTICE_BLOCK_FLOATS // (lattice.a // 2))
    nt = min(len(taus), per_tile)  # taus per tile, then per_tile // nt dx
    for lag in dict.fromkeys(dt.tolist()) if nt else ():
        col = np.flatnonzero(dt == lag)
        for j in range(0, len(col), per_tile // nt):
            cj = col[j:j + per_tile // nt]
            for i in range(0, len(taus), nt):
                ti = tau[i:i + nt]
                remainder[i:i + nt, cj] = kernels._remainder_quadrature(
                    lattice, ti + s[cj[0]], ti + t[cj[0]], 0, dx[cj],
                    np.tile(np.arange(len(ti)), len(cj)),
                    np.repeat(np.arange(len(cj)), len(ti)), tol
                ).reshape(len(cj), len(ti)).T
    lattice_vals = stationary + remainder
    gaps = np.abs(lattice_vals - stationary[None, :])
    return RelaxationReport(lattice, tuple(disp), taus, lattice_vals,
                            stationary, gaps)
