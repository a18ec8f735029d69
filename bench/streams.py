"""Request streams of the three workloads.

A workload is a closed loop of ``ncrw`` CLI argv lists, driven by one
client with no think time.  The stream is cut into rounds; round ``r`` of
seed ``s`` is drawn from its own generator, so a run is a prefix of whole
rounds and the same seed always yields the same requests.  Every round has
the same make-up (request kinds, sizes and the fixed known-fault set); the
seed moves sites, times and configurations only.

Each request carries what its check needs, so ``checks.py`` never parses
the argv back.  This module uses only the standard library: it is imported
before the timed phase and must not pull numpy or scipy in early.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("analytic", "mc", "relax")

# Times of the analytic stream: a quarter grid up to t = 4, where the finite
# route of today meets 1e-9.  A grid, not a continuum, because users type
# such times and because repeated times are what a Bessel-table cache serves.
TIME_GRID = tuple(0.25 * k for k in range(1, 17))

# Monte Carlo requests: samples per request, gaps between start sites and
# the occupation time.  Every |z| must stay within checks.Z_BOUND on every
# seed, so the estimates must be near-Gaussian at a few hundred samples.
# Heavy tails seen on the way: gaps 1-3 made the h-transform weights
# heavy-tailed (ESS 1.5 of 400, |z| = 23); gaps 4-6 with points up to T gave
# |z| = 5.3 in ~6500 requests; gaps 6-8 with points at t <= 0.5 gave 5.09 in
# ~5000.  Wide gaps keep both estimators' weights near 1 and points at
# t = 0.25 keep the occupation probabilities near 1/2.  320 samples keep a
# run above 200 requests on a slow host.
MC_SAMPLES = 320
MC_GAPS = (10, 11, 12)
MC_POINT_TIME = 0.25

# Relaxation tau values: a short-time part and a long-time part that always
# holds at least two values >= 16, where the max gap must be non-increasing.
TAU_SHORT = (1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0)
TAU_LONG = (16.0, 24.0, 32.0, 48.0, 64.0)


@dataclass(frozen=True)
class Request:
    """One CLI call: its argv, the check to run and the work units it does."""

    argv: tuple[str, ...]
    kind: str
    units: int
    params: dict = field(default_factory=dict, compare=False)
    known_fault: str | None = None


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def _fmt_t(t: float) -> str:
    return repr(float(t))


def ive_tail_radius(t: float, eps: float) -> int:
    """Smallest n with e^{-t} I_n(t) < eps, from the power series in logs."""
    half = math.log(0.5 * t)
    n = 0
    while True:
        terms = [-t + (2 * l + n) * half - math.lgamma(l + 1) - math.lgamma(n + l + 1)
                 for l in range(0, int(2 * t) + 40)]
        top = max(terms)
        if top + math.log(math.fsum(math.exp(v - top) for v in terms)) < math.log(eps):
            return n
        n += 1


def density_window(sites, t: float) -> tuple[int, int]:
    """Window that holds all but ~1e-15 of the density mass at time t.

    Single-walk tails beyond the e^{-t} I_n(t) < 1e-16 radius, plus a margin
    for the outward push of the non-colliding neighbours.
    """
    r = ive_tail_radius(t, 1e-16) + 4
    return min(sites) - r, max(sites) + r


# ---------------------------------------------------------------------------
# analytic: determinantal queries
# ---------------------------------------------------------------------------

def _finite_config(rng: random.Random, n: int) -> tuple[int, ...]:
    """Equidistant (spacing 2 or 3) or irregular (gaps 1..3) sites, shifted."""
    if rng.random() < 0.5:
        step = rng.choice((2, 3))
        start = -step * (n // 2) + rng.randint(-2, 2)
        return tuple(start + step * k for k in range(n))
    sites = [rng.randint(-3, 1) - n]
    for _ in range(n - 1):
        sites.append(sites[-1] + rng.choice((1, 2, 3)))
    return tuple(sites)


def _times(rng: random.Random, k: int, grid=TIME_GRID) -> list[float]:
    return sorted(rng.sample(grid, k))


def _full_group(rng: random.Random, near) -> tuple[int, ...]:
    """N strictly increasing sites, each within 2 of a site of ``near``."""
    while True:
        xs = sorted({v + rng.randint(-2, 2) for v in near})
        if len(xs) == len(near):
            return tuple(xs)


def _at_args(groups) -> list[str]:
    out = []
    for t, sites in groups:
        out += ["--at", f"{_fmt_t(t)}:{_csv(sites)}"]
    return out


def finite_correlation(rng: random.Random, n_sites: int, n_groups: int) -> Request:
    """Correlation whose every time group holds N sites (Karlin-McGregor)."""
    config = _finite_config(rng, n_sites)
    groups = []
    prev = config
    for t in _times(rng, n_groups):
        prev = _full_group(rng, prev)
        groups.append((t, prev))
    n = n_sites * n_groups
    argv = ("correlation", "--spec", f"finite:{_csv(config)}", *_at_args(groups))
    return Request(argv, "finite_correlation", n * n,
                   {"config": config, "groups": tuple(groups)})


# Sites of the lattice and stationary correlations.  Displacements stay
# within 10: beyond, the quadrature fails to converge for some times (the
# stationary kernel at |dx| = 12, the a = 2 lattice kernel at |x - y| >= 15;
# see the FOUND line in CHANGES.md), which would fail only some seeds.
FREE_SITES = range(-5, 6)


def _free_groups(rng: random.Random, n_points: int, n_groups: int):
    sizes = [1] * n_groups
    for _ in range(n_points - n_groups):
        sizes[rng.randrange(n_groups)] += 1
    return tuple((t, tuple(sorted(rng.sample(FREE_SITES, k))))
                 for t, k in zip(_times(rng, n_groups), sizes))


def lattice_correlation(rng: random.Random, n_points: int, n_groups: int) -> Request:
    a = rng.choice((2, 3, 4))
    groups = _free_groups(rng, n_points, n_groups)
    argv = ("correlation", "--spec", f"lattice:{a}", *_at_args(groups))
    return Request(argv, "lattice_correlation", n_points * n_points,
                   {"a": a, "groups": groups})


def stationary_correlation(rng: random.Random, n_points: int,
                           n_groups: int) -> Request:
    rho = rng.choice((0.2, 0.25, 0.4, 0.5, 0.6, 0.75))
    groups = _free_groups(rng, n_points, n_groups)
    argv = ("correlation", "--spec", f"stationary:{rho}", *_at_args(groups))
    return Request(argv, "stationary_correlation", n_points * n_points,
                   {"rho": rho, "groups": groups})


def _density_request(config, t: float, known_fault: str | None = None) -> Request:
    lo, hi = density_window(config, t)
    argv = ("density", "--spec", f"finite:{_csv(config)}", "--t", _fmt_t(t),
            "--window", f"{lo}:{hi}")
    return Request(argv, "finite_density", hi - lo + 1,
                   {"config": tuple(config), "t": t}, known_fault)


def finite_density(rng: random.Random, n_sites: int) -> Request:
    # Today's ring-sum route loses digits like e^{2t}: at N = 21 and t = 4 the
    # density mass is off by up to 2e-9 on some configurations, past the 1e-9
    # check, so N = 21 stays at t <= 3 (3.6e-11 over 60 configurations).
    grid = TIME_GRID if n_sites < 21 else TIME_GRID[:12]
    return _density_request(_finite_config(rng, n_sites), rng.choice(grid))


def lattice_density(rng: random.Random, a: int) -> Request:
    lo = rng.randint(-8, 4)
    hi = lo + 3 * a - 1
    t = rng.choice(TIME_GRID)
    argv = ("density", "--spec", f"lattice:{a}", "--t", _fmt_t(t),
            "--window", f"{lo}:{hi}")
    return Request(argv, "lattice_density", hi - lo + 1, {"a": a, "t": t})


def stationary_density(rng: random.Random) -> Request:
    rho = rng.choice((0.2, 0.25, 0.4, 0.5, 0.6, 0.75))
    lo = rng.randint(-10, 0)
    argv = ("density", "--spec", f"stationary:{rho}", "--t",
            _fmt_t(rng.choice(TIME_GRID)), "--window", f"{lo}:{lo + 9}")
    return Request(argv, "stationary_density", 10, {"rho": rho})


def _grid(rng: random.Random, spec: str, width: int, kind: str, params: dict,
          centre: int = 0) -> Request:
    s, t = rng.choice(TIME_GRID), rng.choice(TIME_GRID)
    xlo = centre + rng.randint(-4, 0) - width // 2
    ylo = centre + rng.randint(-4, 0) - width // 2
    xhi, yhi = xlo + width - 1, ylo + width - 1
    argv = ("kernel", "--spec", spec, "--grid",
            f"{_fmt_t(s)},{xlo}:{xhi},{_fmt_t(t)},{ylo}:{yhi}")
    return Request(argv, kind, width * width,
                   dict(params, s=s, t=t, xs=(xlo, xhi), ys=(ylo, yhi)))


def single_walk_grid(rng: random.Random) -> Request:
    u = rng.randint(-3, 3)
    return _grid(rng, f"finite:{u}", 7, "single_walk_grid", {"u": u}, u)


def lattice_grid(rng: random.Random) -> Request:
    a = rng.choice((2, 3, 4))
    return _grid(rng, f"lattice:{a}", 6, "lattice_grid", {"a": a})


def stationary_grid(rng: random.Random) -> Request:
    rho = rng.choice((0.2, 0.25, 0.4, 0.5, 0.6, 0.75))
    return _grid(rng, f"stationary:{rho}", 6, "stationary_grid", {"rho": rho})


# Finite requests at large t that today's ring-sum route gets wrong without
# raising: the same three in every round, independent of the seed.
_WIDE = tuple(range(-20, 21, 2))
KNOWN_FAULTS = (
    _density_request((0, 2, 5), 14.0,
                     "finite density at t=14: sum of rho is N - 9e-4"),
    _density_request((0, 2, 5), 22.0,
                     "finite density at t=22: sum of rho is N - 429"),
    Request(("kernel", "--spec", f"finite:{_csv(_WIDE)}",
             "--point", "25,0", "--point", "25,0"),
            "finite_point_density", 1, {"config": _WIDE, "t": 25.0, "x": 0},
            "finite kernel on 2Z in [-20,20] at t=25: density -3.8e6"),
)

# (N sites, time groups): 2 to 12 points in 1 to 4 groups of N sites each.
_FULL_SHAPES = ((1, 2), (1, 4), (2, 1), (2, 3), (3, 2), (3, 4), (4, 3), (6, 2),
                (12, 1))
# (points, groups) for the lattice and stationary correlations.
_FREE_SHAPES = ((2, 1), (4, 2), (7, 3), (12, 4))


def analytic_round(rng: random.Random) -> list[Request]:
    # Two of every regular shape per round: the two slow known-fault
    # densities are then 3% of the requests and the 95th percentile falls
    # among the heaviest regular requests, not on the edge of the faults.
    reqs = []
    for _ in range(2):
        reqs += [finite_correlation(rng, n, g) for n, g in _FULL_SHAPES]
        reqs += [finite_density(rng, n) for n in (1, 3, 5, 8, 13, 21)]
        reqs += [lattice_density(rng, a) for a in (2, 3, 4)]
        reqs.append(stationary_density(rng))
        reqs += [lattice_correlation(rng, n, g) for n, g in _FREE_SHAPES]
        reqs += [stationary_correlation(rng, n, g) for n, g in _FREE_SHAPES]
        reqs += [single_walk_grid(rng), lattice_grid(rng), stationary_grid(rng)]
    reqs += KNOWN_FAULTS
    return reqs


# ---------------------------------------------------------------------------
# mc: Monte Carlo validation
# ---------------------------------------------------------------------------

def simulate_request(config, T: float, groups, estimator: str, seed: int,
                     samples: int = MC_SAMPLES) -> Request:
    # --config is passed fused: the CLI reads a separate value that starts
    # with '-' as a flag (see the FOUND line in CHANGES.md).
    argv = ("simulate", f"--config={_csv(config)}", "--T", _fmt_t(T),
            "--samples", str(samples), "--estimator", estimator,
            "--seed", str(seed), *_at_args(groups))
    return Request(argv, "simulate", samples,
                   {"config": tuple(config), "groups": tuple(groups),
                    "estimator": estimator, "T": T})


def _mc_points(rng: random.Random, config):
    """1 to 3 start sites, to be found occupied at MC_POINT_TIME."""
    k = rng.randint(1, min(3, len(config)))
    return ((MC_POINT_TIME, tuple(sorted(rng.sample(config, k)))),)


def mc_round(rng: random.Random) -> list[Request]:
    reqs = []
    for n in (2, 3, 4, 5):
        for estimator in ("h", "dmr"):
            sites = [rng.randint(-4, 1)]
            for _ in range(n - 1):
                sites.append(sites[-1] + rng.choice(MC_GAPS))
            T = rng.choice((0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0))
            reqs.append(simulate_request(sites, T, _mc_points(rng, sites),
                                         estimator, rng.randrange(1 << 30)))
    return reqs


# Run after the timed phase on one thread and on two; the texts must match.
# 4096 samples are two of estimate_many's 2048-sample thread chunks.
FIXED_MC = simulate_request((-1, 1, 4), 1.0, ((0.5, (1, 4)),), "dmr", 5,
                            samples=4096)


# ---------------------------------------------------------------------------
# relax: relaxation sweeps
# ---------------------------------------------------------------------------

def relaxation_request(a: int, dt: float, dx_max: int, taus) -> Request:
    argv = ("relaxation", "--a", str(a), "--dt", _fmt_t(dt),
            "--dx-max", str(dx_max), "--tau", _csv(_fmt_t(v) for v in taus))
    return Request(argv, "relaxation", len(taus) * (dx_max + 1),
                   {"a": a, "dt": dt, "dx_max": dx_max, "taus": tuple(taus)})


def relax_round(rng: random.Random) -> list[Request]:
    reqs = []
    for a in (2, 3, 4, 5):
        for dt in (0.0, 0.5, -0.5, 1.0):
            taus = sorted(rng.sample(TAU_SHORT, rng.randint(1, 4))
                          + rng.sample(TAU_LONG, rng.randint(2, 5)))
            reqs.append(relaxation_request(a, dt, rng.randint(4, 8), taus))
    return reqs


_ROUNDS = {"analytic": analytic_round, "mc": mc_round, "relax": relax_round}


def round_requests(workload: str, seed: int, index: int) -> list[Request]:
    """Requests of round ``index`` of the stream for ``seed``."""
    return _ROUNDS[workload](random.Random(f"ncrw-bench/{workload}/{seed}/{index}"))


def warmup_requests(workload: str) -> list[Request]:
    """Seed-independent pass that touches every request type of a workload.

    One request of each kind (per estimator, per lattice spacing) from a
    round no run uses.  It fills the lru caches and the Gauss-Legendre node
    tables that the first timed request would otherwise pay for.
    """
    seen, reqs = set(), []
    for req in round_requests(workload, -1, 0):
        key = (req.kind, req.params.get("estimator"), req.params.get("a"))
        if key not in seen:
            seen.add(key)
            reqs.append(req)
    return reqs
