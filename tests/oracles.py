"""Independent oracles used to freeze expected values in the tests.

These deliberately avoid the package's evaluation strategies: direct
series summation with compensated accumulation for the Bessel values, a
jump-chain level simulation for exit probabilities, and per-sample walk
paths with a jump-by-jump exit-time loop as the reference for the block
sampler.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ncrw.martingales import FiniteConfiguration


def bessel_series(n: int, z: float) -> float:
    """I_n(z) summed straight from its power series.

    Terms accumulate through math.fsum until they drop below 1e-18
    relative; valid for moderate |z| only (unscaled).
    """
    half = 0.5 * z
    term = 1.0
    for j in range(1, n + 1):
        term *= half / j
    terms = [term]
    l = 0
    while True:
        l += 1
        term *= half * half / (l * (n + l))
        terms.append(term)
        if abs(term) <= 1e-18 * abs(math.fsum(terms)):
            return math.fsum(terms)
        if l > 500:
            raise RuntimeError("series oracle stalled")


def scaled_bessel_series(n: int, t: float) -> float:
    return math.exp(-t) * bessel_series(n, t)


def poissonized_walk_probability(t: float, d: int, *, eps: float = 1e-20) -> float:
    """P(V(t) = d | V(0) = 0) by Poissonizing exact binomial step counts."""
    d = abs(d)
    weight = math.exp(-t)
    terms = []
    j = 0
    while True:
        if j >= d and (j - d) % 2 == 0 and weight > 0:
            terms.append(weight * (math.comb(j, (j + d) // 2) / 2.0 ** j))
        if j > t and weight < eps:
            break
        j += 1
        weight *= t / j
    return math.fsum(terms)


def survival_probability_jump_chain(u: tuple[int, ...], horizon: float,
                                    n_samples: int, seed: int) -> tuple[float, float]:
    """P(no ordering violation up to the horizon) by simulating the
    embedded jump chain directly: exponential waiting times with total
    rate N, a uniformly chosen walker, a +-1 step.  Returns (estimate,
    standard error)."""
    rng = np.random.default_rng(seed)
    n_walks = len(u)
    hits = 0
    for _ in range(n_samples):
        pos = list(u)
        t = 0.0
        alive = True
        while True:
            t += rng.exponential(1.0 / n_walks)
            if t > horizon:
                break
            i = int(rng.integers(n_walks))
            pos[i] += 2 * int(rng.integers(2)) - 1
            if (i > 0 and pos[i] <= pos[i - 1]) or \
               (i < n_walks - 1 and pos[i] >= pos[i + 1]):
                alive = False
                break
        hits += alive
    p = hits / n_samples
    return p, math.sqrt(max(p * (1 - p), 1e-12) / n_samples)


# ---------------------------------------------------------------------------
# per-sample walk paths: the reference for ncrw.montecarlo.WalkBlock
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WalkPath:
    """One continuous-time +-1 walk: jump times in (0, horizon] and steps."""

    start: int
    horizon: float
    jump_times: np.ndarray
    steps: np.ndarray

    def __post_init__(self):
        jt = np.asarray(self.jump_times, dtype=float)
        st = np.asarray(self.steps, dtype=np.int64)
        if jt.shape != st.shape:
            raise ValueError("jump_times and steps must have equal length")
        if jt.size and (jt[0] <= 0.0 or jt[-1] > self.horizon
                        or np.any(np.diff(jt) <= 0.0)):
            raise ValueError("jump times must increase strictly within (0, horizon]")
        if st.size and not np.all(np.abs(st) == 1):
            raise ValueError("steps must be +-1")
        object.__setattr__(self, "jump_times", jt)
        object.__setattr__(self, "steps", st)
        object.__setattr__(self, "_cum", np.cumsum(st))

    def position(self, t: float) -> int:
        """Right-continuous position at time t <= horizon."""
        if not 0.0 <= t <= self.horizon:
            raise ValueError(f"query time {t} outside [0, {self.horizon}]")
        idx = int(np.searchsorted(self.jump_times, t, side="right"))
        return self.start + (int(self._cum[idx - 1]) if idx else 0)


@dataclass(frozen=True)
class WalkEnsemble:
    """Independent walks labeled by the (strictly increasing) start sites."""

    config: FiniteConfiguration
    paths: tuple[WalkPath, ...]

    def __post_init__(self):
        if len(self.paths) != len(self.config):
            raise ValueError("one path per configuration site required")
        horizons = {p.horizon for p in self.paths}
        if len(horizons) != 1:
            raise ValueError(f"paths carry mismatched horizons {horizons}")
        for p, u in zip(self.paths, self.config.sites):
            if p.start != u:
                raise ValueError("path starts must match the configuration")

    def positions(self, t: float) -> np.ndarray:
        return np.array([p.position(t) for p in self.paths])


def sample_walk(start: int, horizon: float, rng: np.random.Generator) -> WalkPath:
    """Unit-rate Poisson jump times on (0, horizon], i.i.d. +-1 steps."""
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    n = int(rng.poisson(horizon)) if horizon > 0 else 0
    times = np.sort(horizon * (1.0 - rng.random(n)))
    steps = 2 * rng.integers(0, 2, size=n) - 1
    return WalkPath(int(start), float(horizon), times, steps)


def sample_ensemble(config: FiniteConfiguration, horizon: float,
                    rng: np.random.Generator) -> WalkEnsemble:
    return WalkEnsemble(config, tuple(sample_walk(u, horizon, rng)
                                      for u in config.sites))


def exit_time(ensemble: WalkEnsemble) -> float:
    """First jump time at which the strict ordering fails; inf if none.

    The ordering can only change at jump instants, and with +-1 steps from
    a strictly ordered integer start the first violation is an equality of
    neighbors.  Simultaneous jumps have probability zero; if float ties
    occur they are processed in walk-index order.
    """
    paths = ensemble.paths
    n_walks = len(paths)
    if n_walks == 1:
        return math.inf
    pos = np.array(ensemble.config.sites, dtype=np.int64)
    times = np.concatenate([p.jump_times for p in paths])
    if times.size == 0:
        return math.inf
    walk = np.concatenate([np.full(p.jump_times.size, i, dtype=np.int64)
                           for i, p in enumerate(paths)])
    steps = np.concatenate([p.steps for p in paths])
    order = np.lexsort((walk, times))
    for idx in order:
        i = walk[idx]
        pos[i] += steps[idx]
        if (i > 0 and pos[i] <= pos[i - 1]) or \
           (i < n_walks - 1 and pos[i] >= pos[i + 1]):
            return float(times[idx])
    return math.inf


def ensembles_of_block(block) -> list[WalkEnsemble]:
    """One per-sample ensemble for each sample of a block, built from the
    block's own jumps sorted into time order walk by walk."""
    n_walks = len(block.config)
    bounds = np.searchsorted(block.owner, np.arange(block.n * n_walks + 1))
    out = []
    for b in range(block.n):
        paths = []
        for i, u in enumerate(block.config.sites):
            lo, hi = bounds[b * n_walks + i], bounds[b * n_walks + i + 1]
            order = np.argsort(block.times[lo:hi])
            paths.append(WalkPath(u, block.horizon, block.times[lo:hi][order],
                                  block.steps[lo:hi][order]))
        out.append(WalkEnsemble(block.config, tuple(paths)))
    return out
