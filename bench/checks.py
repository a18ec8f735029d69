"""Checks of every request's output against ``oracles.py``.

``check(request, text)`` returns None when the output is right and a short
reason otherwise.  The tolerances sit far above today's measured errors
(about 1e-13 on kernel values) and far below the perturbations the tests in
``test_bench.py`` show they catch (1e-6 on one kernel value, 6 standard
errors on a Monte Carlo estimate, a gap that grows with tau).
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math

import numpy as np

import oracles

KERNEL_TOL = 1e-10      # absolute, on single kernel values
CORR_ABS_TOL = 1e-10    # correlations: absolute plus relative part
CORR_REL_TOL = 1e-8
MASS_TOL = 1e-9         # |sum of rho - N| for finite densities
PERIOD_TOL = 1e-11      # |sum over a period of rho - 1| on the lattice
Z_BOUND = 5.5           # |z| of a Monte Carlo estimate
# Relax cells are compared with the lattice oracle while its terms grow by
# at most e^GROWTH_MAX, i.e. t (1 - cos(pi/a)) <= GROWTH_MAX.  That holds
# the site-sum cells and, past the program's switch at 10, spectral cells
# of every spacing (a = 2 at tau 12, 3 at 24, 4 at 48, 5 at 64).  The
# oracle's cancellation error grows like eps e^g, so the tolerance does too;
# at g = 15 it is 3.4e-9, against measured errors of 1.6e-12 and spectral
# remainders of 4e-3 to 3e-2.
GROWTH_MAX = 15.0
GROWTH_TOL = 1e-15

# Relax and analytic requests repeat the same kernel cells; the oracles are
# pure, so each cell is computed once per run.
lattice_kernel = functools.lru_cache(maxsize=None)(oracles.lattice_kernel)
stationary_kernel = functools.lru_cache(maxsize=None)(oracles.stationary_kernel)


def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _close(value: float, ref: float, abs_tol: float, rel_tol: float = 0.0) -> bool:
    return abs(value - ref) <= abs_tol + rel_tol * abs(ref)


def _bounded(value: float, rho1: list[float]) -> str | None:
    """A simple point process has 0 <= rho_n <= every one-point density."""
    if value < -CORR_ABS_TOL or value > min(rho1) + CORR_ABS_TOL:
        return f"correlation {value!r} outside [0, min rho_1 = {min(rho1)!r}]"
    return None


def _points(groups):
    return [(t, x) for t, sites in groups for x in sites]


def _det_check(value: float, matrix: np.ndarray, rho1: list[float]) -> str | None:
    ref = float(np.linalg.det(matrix))
    if not _close(value, ref, CORR_ABS_TOL, CORR_REL_TOL):
        return f"correlation {value!r}, reference {ref!r}"
    return _bounded(value, rho1)


def _check_finite_correlation(req, text):
    value = json.loads(text)["value"]
    ref = oracles.karlin_mcgregor(req.params["config"], req.params["groups"])
    if not _close(value, ref, CORR_ABS_TOL, CORR_REL_TOL):
        return f"correlation {value!r}, Karlin-McGregor {ref!r}"
    return None


def _check_lattice_correlation(req, text):
    a = req.params["a"]
    pts = _points(req.params["groups"])
    mat = np.array([[lattice_kernel(a, s, x, t, y) for t, y in pts]
                    for s, x in pts])
    return _det_check(json.loads(text)["value"], mat, list(np.diag(mat)))


def _check_stationary_correlation(req, text):
    rho = req.params["rho"]
    pts = _points(req.params["groups"])
    mat = np.array([[stationary_kernel(rho, t - s, y - x) for t, y in pts]
                    for s, x in pts])
    return _det_check(json.loads(text)["value"], mat, [rho] * len(pts))


def _density_rows(text):
    rows = _rows(text)
    return [int(r["x"]) for r in rows], [float(r["rho"]) for r in rows]


def _check_finite_density(req, text):
    config, t = req.params["config"], req.params["t"]
    xs, rho = _density_rows(text)
    if xs != list(range(xs[0], xs[0] + len(xs))):
        return "density rows are not consecutive sites"
    bad = [r for r in rho if not -KERNEL_TOL <= r <= 1.0 + KERNEL_TOL]
    if bad:
        return f"density {bad[0]!r} outside [0, 1]"
    mass = math.fsum(rho)
    if not _close(mass, len(config), MASS_TOL):
        return f"sum of rho is N {mass - len(config):+.3g}"
    if len(config) == 1:
        ref = oracles.p(t, np.asarray(xs) - config[0])
        worst = float(np.max(np.abs(np.asarray(rho) - ref)))
        if worst > KERNEL_TOL:
            return f"single-walk density off by {worst:.3g}"
    return None


def _check_finite_point_density(req, text):
    value = float(text)
    if not -KERNEL_TOL <= value <= 1.0 + KERNEL_TOL:
        return f"density {value!r} outside [0, 1]"
    return None


def _check_lattice_density(req, text):
    a, t = req.params["a"], req.params["t"]
    xs, rho = _density_rows(text)
    for i in range(len(rho) - a + 1):
        mass = math.fsum(rho[i:i + a])
        if not _close(mass, 1.0, PERIOD_TOL):
            return f"rho over sites {xs[i]}..{xs[i] + a - 1} sums to {mass!r}"
    for x, r in zip(xs, rho):
        ref = lattice_kernel(a, t, x, t, x)
        if not _close(r, ref, KERNEL_TOL):
            return f"lattice density at {x}: {r!r}, reference {ref!r}"
    return None


def _check_stationary_density(req, text):
    rho = req.params["rho"]
    _, vals = _density_rows(text)
    if any(not _close(v, rho, KERNEL_TOL) for v in vals):
        return f"stationary density differs from {rho}"
    return None


def _grid_check(text, reference) -> str | None:
    rows = _rows(text)
    for r in rows:
        s, x, t, y = float(r["s"]), int(r["x"]), float(r["t"]), int(r["y"])
        value, ref = float(r["value"]), reference(s, x, t, y)
        if not _close(value, ref, KERNEL_TOL):
            return f"K({s},{x};{t},{y}) = {value!r}, reference {ref!r}"
    return None


def _grid_rows_match(req, text) -> str | None:
    rows = _rows(text)
    (xlo, xhi), (ylo, yhi) = req.params["xs"], req.params["ys"]
    want = [(x, y) for x in range(xlo, xhi + 1) for y in range(ylo, yhi + 1)]
    got = [(int(r["x"]), int(r["y"])) for r in rows]
    return None if got == want else "grid rows do not cover X x Y in order"


def _check_single_walk_grid(req, text):
    u = req.params["u"]
    return _grid_rows_match(req, text) or _grid_check(
        text, lambda s, x, t, y: oracles.single_walk_kernel(u, s, x, t, y))


def _check_lattice_grid(req, text):
    a = req.params["a"]
    return _grid_rows_match(req, text) or _grid_check(
        text, lambda s, x, t, y: lattice_kernel(a, s, x, t, y))


def _check_stationary_grid(req, text):
    rho = req.params["rho"]
    return _grid_rows_match(req, text) or _grid_check(
        text, lambda s, x, t, y: stationary_kernel(rho, t - s, y - x))


def _check_simulate(req, text):
    doc = json.loads(text)
    groups = req.params["groups"]
    config = req.params["config"]
    if doc["n_samples"] != req.units:
        return f"n_samples {doc['n_samples']} != {req.units}"
    analytic = doc["analytic_value"]
    if all(len(sites) == len(config) for _, sites in groups):
        ref = oracles.karlin_mcgregor(config, groups)
        if not _close(analytic, ref, CORR_ABS_TOL, CORR_REL_TOL):
            return f"analytic value {analytic!r}, Karlin-McGregor {ref!r}"
    se = doc["std_error"]
    if not se or se <= 0.0 or not math.isfinite(se):
        return f"standard error {se!r}"
    z = (doc["estimate"] - analytic) / se
    if doc["z_score"] is None or not _close(doc["z_score"], z, 1e-9, 1e-9):
        return f"z_score {doc['z_score']!r} is not (estimate - analytic)/se"
    if abs(z) > Z_BOUND:
        return f"|z| = {abs(z):.2f} above {Z_BOUND}"
    if not 0.0 < doc["ess"] <= doc["n_samples"] + 1e-9:
        return f"ess {doc['ess']!r} outside (0, n_samples]"
    return None


def _check_relaxation(req, text):
    a, dt = req.params["a"], req.params["dt"]
    taus, dx_max = req.params["taus"], req.params["dx_max"]
    rows = _rows(text)
    if len(rows) != len(taus) * (dx_max + 1):
        return f"{len(rows)} rows for {len(taus)} taus x {dx_max + 1} dx"
    rho = 1.0 / a
    station = [stationary_kernel(rho, dt, dx) for dx in range(dx_max + 1)]
    max_gap = {}
    for r in rows:
        tau, dx = float(r["tau"]), int(r["dx"])
        lat, sta, gap = (float(r["lattice_value"]), float(r["stationary_value"]),
                         float(r["gap"]))
        if not _close(sta, station[dx], KERNEL_TOL):
            return f"stationary({dt},{dx}) = {sta!r}, reference {station[dx]!r}"
        if not _close(gap, abs(lat - sta), 1e-15, 1e-12):
            return f"gap {gap!r} != |lattice - stationary| at tau={tau}, dx={dx}"
        s, t = (tau - dt, tau) if dt < 0 else (tau, tau + dt)
        growth = t * (1.0 - math.cos(math.pi / a))
        if growth <= GROWTH_MAX:
            ref = lattice_kernel(a, s, 0, t, dx)
            if not _close(lat, ref, KERNEL_TOL + GROWTH_TOL * math.exp(growth)):
                return f"lattice value at tau={tau}, dx={dx}: {lat!r}, reference {ref!r}"
        max_gap[tau] = max(max_gap.get(tau, 0.0), gap)
    late = [max_gap[t] for t in taus if t >= 16.0]
    for t0, g0, g1 in zip([t for t in taus if t >= 16.0], late, late[1:]):
        if g1 > g0 + 1e-12:
            return f"max gap grows after tau={t0}: {g0!r} -> {g1!r}"
    return None


_CHECKS = {
    "finite_correlation": _check_finite_correlation,
    "lattice_correlation": _check_lattice_correlation,
    "stationary_correlation": _check_stationary_correlation,
    "finite_density": _check_finite_density,
    "finite_point_density": _check_finite_point_density,
    "lattice_density": _check_lattice_density,
    "stationary_density": _check_stationary_density,
    "single_walk_grid": _check_single_walk_grid,
    "lattice_grid": _check_lattice_grid,
    "stationary_grid": _check_stationary_grid,
    "simulate": _check_simulate,
    "relaxation": _check_relaxation,
}


def check(req, text: str) -> str | None:
    """None if ``text`` is a correct answer to ``req``, else the reason."""
    try:
        return _CHECKS[req.kind](req, text)
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
