"""Monte Carlo cross-validation of the analytic kernels.

Two estimators express expectations of the noncolliding walk through
plain independent walks started from the same configuration:

* h-transform: weight surviving paths (no ordering violation up to the
  horizon T) by the Vandermonde ratio h(V(T))/h(u);
* martingale determinant: weight *all* paths by det[M_{u_k}(T, V_j(T))]
  of the site martingales at T - signed weights, no conditioning.

The backward heat operator maps x^n to the monic martingale polynomial
m_n(T, x), so it is unit upper-triangular on polynomials and
det[M_{u_k}(T, v_j)] = h(v)/h(u) at every T: both estimators use the
weight ``vandermonde_ratio`` and differ only by the survival indicator.
Both are unbiased for the same quantities, since the absorbed-path weight
that separates them averages to zero.  Tests and ``selftest`` check the
identity on the site martingales, not through the Monte Carlo.

Samples are drawn in blocks of ``BLOCK_SIZE``: block b holds samples
b*BLOCK_SIZE onwards and draws from its own generator seeded by
(seed, b); block sums are reduced in block order.  Results are therefore
bit-identical for a given seed and sample count however the work is
scheduled, and memory stays O(BLOCK_SIZE) whatever the sample count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Protocol, Sequence

import numpy as np

from .correlations import MultiTimePointSet
from .martingales import FiniteConfiguration

BLOCK_SIZE = 2048


@dataclass(frozen=True, eq=False)
class WalkBlock:
    """``n`` samples of independent continuous-time +-1 walks, one walk per
    configuration site, with every jump stored flat.

    Jump k moves walk ``owner[k] % N`` of sample ``owner[k] // N`` by
    ``steps[k]`` at ``times[k]`` in (0, horizon].  ``owner`` is sorted;
    jump times within one walk are in draw order, not time order.
    """

    config: FiniteConfiguration
    horizon: float
    n: int
    owner: np.ndarray
    times: np.ndarray
    steps: np.ndarray

    @classmethod
    def sample(cls, config: FiniteConfiguration, horizon: float, n: int,
               rng: np.random.Generator) -> "WalkBlock":
        """Unit-rate Poisson jump counts, uniform jump times, i.i.d. steps."""
        if not 0 <= horizon < math.inf:
            raise ValueError(f"horizon must be finite and >= 0, got {horizon}")
        n_walks = len(config)
        counts = rng.poisson(horizon, size=(n, n_walks))
        owner = np.repeat(np.arange(n * n_walks), counts.ravel())
        times = horizon * (1.0 - rng.random(owner.size))
        steps = 2 * rng.integers(0, 2, size=owner.size) - 1
        return cls(config, float(horizon), n, owner, times, steps)

    @classmethod
    def sweep(cls, config: FiniteConfiguration, horizon: float,
              n_samples: int, seed: int) -> Iterator["WalkBlock"]:
        """The blocks of ``n_samples`` samples for ``seed``, in order."""
        for b, lo in enumerate(range(0, n_samples, BLOCK_SIZE)):
            rng = np.random.default_rng((int(seed), b))
            yield cls.sample(config, horizon,
                             min(BLOCK_SIZE, n_samples - lo), rng)

    def positions(self, t: float) -> np.ndarray:
        """Right-continuous walk positions at time t, shape (n, N)."""
        if not 0.0 <= t <= self.horizon:
            raise ValueError(f"query time {t} outside [0, {self.horizon}]")
        steps = self.steps if t == self.horizon else \
            np.where(self.times <= t, self.steps, 0)
        n_walks = len(self.config)
        moved = np.bincount(self.owner, weights=steps,
                            minlength=self.n * n_walks)
        return (np.asarray(self.config.sites, dtype=np.int64)
                + moved.astype(np.int64).reshape(self.n, n_walks))

    def exit_times(self) -> np.ndarray:
        """Per sample, the first jump time at which the strict ordering
        fails; inf if none.

        With +-1 steps from a strictly ordered start the first violation
        is a zero of a neighbour gap, which takes at least as many moves
        of that gap as its start width; only samples with such a gap are
        scanned.  Their jumps are taken in (sample, time, walk) order, so
        jumps at equal times in one sample go in walk order.  Row r of a
        position table holds every walk's displacement after jump r: each
        jump's step scattered into its walk's column, summed down the rows
        and restarted at each sample's first jump.  A sample exits at its
        first row where a neighbour difference equals minus the start gap.
        Memory is O(candidate jumps x N) per block.
        """
        n_walks = len(self.config)
        exits = np.full(self.n, math.inf)
        start_gaps = np.diff(np.asarray(self.config.sites, dtype=np.int64))
        walk_jumps = np.bincount(self.owner, minlength=self.n * n_walks
                                 ).reshape(self.n, n_walks)
        can_close = (walk_jumps[:, :-1] + walk_jumps[:, 1:]
                     >= start_gaps).any(axis=1)
        jumps = np.flatnonzero(can_close[self.owner // n_walks])
        if jumps.size == 0:
            return exits
        sample, walk = np.divmod(self.owner[jumps], n_walks)
        times = self.times[jumps]
        order = np.lexsort((walk, times, sample))
        sample, times = sample[order], times[order]
        moved = np.zeros((order.size, n_walks), dtype=np.int64)
        moved[np.arange(order.size), walk[order]] = self.steps[jumps][order]
        # each sample's first row also takes back the moves of the sample
        # before it, so the running sum restarts there
        first = np.flatnonzero(np.diff(sample, prepend=-1))
        moved[first[1:]] -= np.add.reduceat(moved, first, axis=0)[:-1]
        np.cumsum(moved, axis=0, out=moved)
        hit = np.flatnonzero((np.diff(moved, axis=1) == -start_gaps).any(axis=1))
        hit_sample = sample[hit]
        earliest = np.diff(hit_sample, prepend=-1) != 0
        exits[hit_sample[earliest]] = times[hit[earliest]]
        return exits


def vandermonde_ratio(v, u: Sequence[float]) -> np.ndarray:
    """h(v)/h(u) as a product of pairwise ratios, over the last axis of v."""
    v = np.asarray(v, dtype=float)
    if v.shape[-1] != len(u):
        raise ValueError("length mismatch")
    total = np.ones(v.shape[:-1])
    for j in range(len(u)):
        for k in range(j + 1, len(u)):
            total *= (v[..., k] - v[..., j]) / (u[k] - u[j])
    return total


# ---------------------------------------------------------------------------
# path functionals (bounded multi-time occupation statistics)
# ---------------------------------------------------------------------------

class PathFunctional(Protocol):
    """Bounded functional of the unlabeled configuration path.

    ``times`` lists the query times; ``evaluate`` receives the walk
    positions of a block of samples, shape (B, N), at each of them and at
    the horizon, and returns the B values.  Restricting to this structure
    keeps the two estimators consuming exactly the same observable.
    """

    @property
    def times(self) -> tuple[float, ...]: ...

    def evaluate(self, positions: dict[float, np.ndarray]) -> np.ndarray: ...


@dataclass(frozen=True)
class One:
    """Constant functional; its estimate checks estimator normalization."""

    @property
    def times(self) -> tuple[float, ...]:
        return ()

    def evaluate(self, positions) -> np.ndarray:
        return np.ones(len(next(iter(positions.values()))))


@dataclass(frozen=True)
class OccupationProduct:
    """Product over the point set of indicators {site occupied at time}."""

    points: MultiTimePointSet

    @property
    def times(self) -> tuple[float, ...]:
        return tuple(t for t, _ in self.points.groups)

    def evaluate(self, positions) -> np.ndarray:
        hit = np.ones(len(next(iter(positions.values()))), dtype=bool)
        for t, sites in self.points.groups:
            occupied = positions[t]
            for s in sites:
                hit &= (occupied == s).any(axis=1)
        return hit.astype(float)


@dataclass(frozen=True)
class EstimatorResult:
    mean: float
    std_error: float
    n_samples: int
    effective_samples: float


class _Moments:
    """Block-by-block compensated sums of v and v^2."""

    def __init__(self):
        self.s1 = 0.0
        self.s2 = 0.0

    def add(self, v: np.ndarray) -> None:
        self.s1 = math.fsum((self.s1, math.fsum(v.tolist())))
        self.s2 = math.fsum((self.s2, math.fsum((v * v).tolist())))

    def result(self, n: int, effective_samples: float,
               weighted: int) -> EstimatorResult:
        # with fewer than 2 samples of nonzero weight the sample variance
        # says nothing: the standard error is inf, never 0
        mean = self.s1 / n
        se = math.sqrt(max(self.s2 - self.s1 * mean, 0.0) / (n - 1) / n) \
            if weighted > 1 else math.inf
        return EstimatorResult(mean, se, n, effective_samples)


def _validate(T: float, n_samples: int, seed: int) -> float:
    # the horizon first: a bad one is not reported as a time beyond it
    T = float(T)
    if not 0 <= T < math.inf:
        raise ValueError(f"horizon must be finite and >= 0, got {T}")
    if n_samples < 1:
        raise ValueError(f"need n_samples >= 1, got {n_samples}")
    if seed < 0 or seed != int(seed):
        raise ValueError(f"seed must be a nonnegative integer, got {seed}")
    return T


def estimate_many(config: FiniteConfiguration,
                  functionals: Sequence[PathFunctional], T: float,
                  n_samples: int, seed: int,
                  estimator: str = "h") -> list[EstimatorResult]:
    """Estimate several functionals from one shared sample sweep.

    Each sample path V is weighted by w = h(V(T))/h(u), the Vandermonde
    ratio.  ``estimator="h"``: conditioned-path weight 1(no collision up
    to T) * w.  ``estimator="dmr"``: det[M_{u_k}(T, V_j(T))] of the site
    martingales at T over unconditioned paths (signed weights), which is w
    itself: the martingale polynomials are monic, so the determinant is
    h(V(T))/h(u) at every T.  The two differ only by the survival
    indicator.
    """
    if estimator not in ("h", "dmr"):
        raise ValueError(f"estimator must be 'h' or 'dmr', got {estimator!r}")
    T = _validate(T, n_samples, seed)
    query_times = sorted({t for f in functionals for t in f.times})
    if query_times and query_times[-1] > T:
        raise ValueError(f"functional time {query_times[-1]} beyond horizon {T}")
    if query_times and query_times[0] < 0:
        raise ValueError("functional times must be >= 0")
    u = config.sites
    moments = [_Moments() for _ in functionals]
    weights = _Moments()
    weighted = 0
    for block in WalkBlock.sweep(config, T, n_samples, seed):
        final = block.positions(T)
        w = vandermonde_ratio(final, u)
        if estimator == "h":
            w = np.where(block.exit_times() <= T, 0.0, w)
        weights.add(np.abs(w))
        weighted += int(np.count_nonzero(w))
        positions = {t: final if t == T else block.positions(t)
                     for t in (*query_times, T)}
        for m, f in zip(moments, functionals):
            m.add(f.evaluate(positions) * w)
    ess = weights.s1 ** 2 / weights.s2 if weights.s2 > 0 else 0.0
    return [m.result(n_samples, ess, weighted) for m in moments]


def absorbed_weight_mean(config: FiniteConfiguration, T: float,
                         n_samples: int, seed: int) -> EstimatorResult:
    """Mean of 1(collision by T) * h(V(T))/h(u); zero in expectation.

    The antisymmetry of h under exchanging the colliding pair kills this
    term exactly, which is what makes the unconditioned determinant
    estimator equal the conditioned one.
    """
    T = _validate(T, n_samples, seed)
    moments = _Moments()
    weighted = 0
    for block in WalkBlock.sweep(config, T, n_samples, seed):
        w = np.where(block.exit_times() <= T,
                     vandermonde_ratio(block.positions(T), config.sites), 0.0)
        moments.add(w)
        weighted += int(np.count_nonzero(w))
    return moments.result(n_samples, float(n_samples), weighted)

