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

from .kernels import (LatticeSpec, kernel_lattice, kernel_stationary,
                      remainder_branches)
from .quadrature import _leggauss


def remainder_damping_max(lattice: LatticeSpec, s_scale: float = 1.0, *,
                          n_nodes: int = 256) -> float:
    """Largest damping factor exp(cos(theta/a) - cos(lam/a)) on the shifts.

    Sampled on the Gauss-Legendre nodes the remainder quadrature uses;
    strictly below 1 on every branch, which is what forces the remainder
    to die out under time shifts.
    """
    a = lattice.a
    worst = 0.0
    nodes, _ = _leggauss(n_nodes)
    for m, lo, hi in remainder_branches(lattice):
        lam = 0.5 * (lo + hi) + 0.5 * (hi - lo) * nodes
        theta = 2.0 * math.pi * m - lam
        damp = np.exp(s_scale * (np.cos(theta / a) - np.cos(lam / a)))
        worst = max(worst, float(damp.max()))
    return worst


def relaxation_gap(lattice: LatticeSpec, s: float, x: int, t: float, y: int,
                   tau: float, *, tol: float = 1e-13) -> float:
    """|K_lattice(s+tau, x; t+tau, y) - K_stationary(t-s, y-x)| at rho = 1/a.

    Both kernels in the probability gauge, so the comparison is
    gauge-consistent.
    """
    if tau < 0:
        raise ValueError(f"shift must be >= 0, got {tau}")
    lat = kernel_lattice(lattice, (s + tau, x), (t + tau, y), "prob", tol=tol)
    sta = kernel_stationary(lattice.density, t - s, y - x, "prob", tol=tol)
    return abs(lat - sta)


@dataclass(frozen=True)
class RelaxationReport:
    """Gap table over a tau grid for a set of space-time displacements."""

    lattice: LatticeSpec
    displacements: tuple[tuple[float, int], ...]  # (dt, dx)
    tau_grid: tuple[float, ...]
    base_site: int
    lattice_values: np.ndarray    # shape (len(tau_grid), len(displacements))
    stationary_values: np.ndarray  # shape (len(displacements),)
    gaps: np.ndarray              # shape like lattice_values

    def gap_non_increasing(self, from_index: int = 0) -> np.ndarray:
        """Per-displacement flag: gaps non-increasing along tau_grid[from_index:]."""
        g = self.gaps[from_index:]
        return np.all(np.diff(g, axis=0) <= 1e-12, axis=0)

    def max_gap(self) -> np.ndarray:
        """Worst gap over displacements, per tau."""
        return self.gaps.max(axis=1)


def relaxation_sweep(lattice: LatticeSpec,
                     displacements: Sequence[tuple[float, int]],
                     tau_grid: Sequence[float], *, base_site: int = 0,
                     tol: float = 1e-13, threads: int = 1) -> RelaxationReport:
    """Evaluate the gap matrix over (tau, displacement) cells.

    Each displacement (dt, dx) compares K(tau + base, x0; tau + base + dt,
    x0 + dx) with the stationary value; cells are independent and may be
    computed by a thread pool, assembled in deterministic order.
    """
    taus = tuple(float(v) for v in tau_grid)
    if any(b <= a for a, b in zip(taus, taus[1:])):
        raise ValueError(f"tau grid must be strictly increasing, got {taus}")
    if any(v < 0 for v in taus):
        raise ValueError("tau grid must be >= 0")
    disp = tuple((float(dt), int(dx)) for dt, dx in displacements)
    rho = lattice.density
    stationary = np.array([kernel_stationary(rho, dt, dx, "prob", tol=tol)
                           for dt, dx in disp])

    def cell(tau, dt, dx):
        if dt < 0:
            s, t = tau - dt, tau
        else:
            s, t = tau, tau + dt
        return kernel_lattice(lattice, (s, base_site),
                              (t, base_site + dx), "prob", tol=tol)

    jobs = [(i, j, tau, dt, dx) for i, tau in enumerate(taus)
            for j, (dt, dx) in enumerate(disp)]
    lattice_vals = np.empty((len(taus), len(disp)))
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(lambda job: cell(*job[2:]), jobs))
        for (i, j, *_), val in zip(jobs, results):
            lattice_vals[i, j] = val
    else:
        for i, j, tau, dt, dx in jobs:
            lattice_vals[i, j] = cell(tau, dt, dx)
    gaps = np.abs(lattice_vals - stationary[None, :])
    return RelaxationReport(lattice, disp, taus, base_site,
                            lattice_vals, stationary, gaps)
