import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncrw.bessel import scaled_bessel_i_all
from ncrw.correlations import MultiTimePointSet, correlation_function
from ncrw.kernels import KernelSpec
from ncrw.martingales import FiniteConfiguration
from ncrw.montecarlo import (BLOCK_SIZE, OccupationProduct, One, WalkBlock,
                             absorbed_weight_mean, estimate_many,
                             vandermonde_ratio)

from oracles import (WalkPath, determinant_weight, ensembles_of_block,
                     exit_time, exit_times_lexsort, sample_ensemble,
                     survival_probability_jump_chain)

XI = FiniteConfiguration((0, 2))
ONE_WALK = FiniteConfiguration((0,))


def pts(*groups):
    return MultiTimePointSet(tuple(groups))


def h_estimate(functional, T, n, seed):
    return estimate_many(XI, [functional], T, n, seed, "h")[0]


def dmr_estimate(functional, T, n, seed):
    return estimate_many(XI, [functional], T, n, seed, "dmr")[0]


class TestWalkPath:
    def test_no_jumps_at_zero_horizon(self):
        rng = np.random.default_rng(0)
        block = WalkBlock.sample(FiniteConfiguration((3,)), 0.0, 5, rng)
        assert block.times.size == 0
        assert block.positions(0.0).tolist() == [[3]] * 5

    def test_position_right_continuous(self):
        p = WalkPath(0, 2.0, np.array([0.5, 1.5]), np.array([1, -1]))
        assert p.position(0.4999) == 0
        assert p.position(0.5) == 1
        assert p.position(1.5) == 0
        assert p.position(2.0) == 0
        with pytest.raises(ValueError):
            p.position(2.5)

    def test_invariant_guards(self):
        with pytest.raises(ValueError):
            WalkPath(0, 1.0, np.array([0.5, 0.5]), np.array([1, 1]))
        with pytest.raises(ValueError):
            WalkPath(0, 1.0, np.array([0.5]), np.array([2]))
        with pytest.raises(ValueError):
            WalkPath(0, 1.0, np.array([1.5]), np.array([1]))

    def test_poisson_jump_count(self):
        t, n = 3.0, 20_000
        rng = np.random.default_rng(42)
        block = WalkBlock.sample(ONE_WALK, t, n, rng)
        mean = np.mean(np.bincount(block.owner, minlength=n))
        assert abs(mean - t) <= 3.0 * math.sqrt(t / n)

    def test_empirical_transition_probability(self):
        t, n = 1.0, 20_000
        rng = np.random.default_rng(11)
        dist = np.abs(WalkBlock.sample(ONE_WALK, t, n, rng).positions(t)[:, 0])
        table = scaled_bessel_i_all(2, t)
        for d in (0, 1, 2):
            count = int(np.sum(dist == d))
            # both +-d for d > 0
            p = table[d] * (1 if d == 0 else 2)
            se = math.sqrt(p * (1 - p) / n)
            assert abs(count / n - p) <= 3.5 * se


def exit_of_jumps(sites, jumps):
    """Exit time of one sample given as (walk, time, step) jumps listed by
    walk; the block sampler and the per-sample oracle must agree on it."""
    owner, times, steps = (np.array(c) for c in zip(*jumps))
    block = WalkBlock(FiniteConfiguration(sites), 1.0, 1, owner,
                      times.astype(float), steps)
    (ens,) = ensembles_of_block(block)
    assert block.exit_times()[0] == exit_time(ens)
    return exit_time(ens)


class TestExitTime:
    def test_single_walk_never_exits(self):
        rng = np.random.default_rng(1)
        config = FiniteConfiguration((5,))
        assert exit_time(sample_ensemble(config, 4.0, rng)) == math.inf
        block = WalkBlock.sample(config, 4.0, 100, rng)
        assert np.all(block.exit_times() == math.inf)

    def test_adjacent_first_jump_collides(self):
        # start (0, 1): walker 0 stepping up (or 1 stepping down) collides
        assert exit_of_jumps((0, 1), [(0, 0.3, 1)]) == 0.3
        assert exit_of_jumps((0, 1), [(1, 0.3, -1)]) == 0.3

    def test_separating_jump_keeps_order(self):
        assert exit_of_jumps((0, 1), [(0, 0.3, -1)]) == math.inf

    def test_simultaneous_jumps_move_in_walk_order(self):
        # both step up at 0.5: walker 0 moves first and lands on walker 1
        assert exit_of_jumps((0, 1), [(0, 0.5, 1), (1, 0.5, 1)]) == 0.5
        # both step down: walker 0 moves first, away from walker 1
        assert exit_of_jumps((0, 1), [(0, 0.5, -1), (1, 0.5, -1)]) == math.inf

    def test_survival_matches_jump_chain_oracle(self):
        u, horizon = (0, 2), 1.0
        n = 20_000
        hits = sum(int(np.sum(block.exit_times() > horizon))
                   for block in WalkBlock.sweep(FiniteConfiguration(u),
                                                horizon, n, 99))
        p_pkg = hits / n
        p_oracle, se_oracle = survival_probability_jump_chain(u, horizon,
                                                              20_000, 123)
        se = math.hypot(se_oracle, math.sqrt(p_pkg * (1 - p_pkg) / n))
        assert abs(p_pkg - p_oracle) <= 3.0 * se


class TestBlockMatchesOracle:
    """The block sampler against per-sample ensembles built from the same
    jumps: equal exit times, equal positions at T and at query times."""

    @pytest.mark.parametrize("sites, horizon", [
        ((5,), 2.0),
        ((0, 1), 1.0),
        ((0, 2), 0.05),          # most samples have no jumps
        ((0, 2), 2.0),
        ((-1, 0, 3), 1.5),
        ((-4, -2, 0, 1, 4), 1.0),
        ((0, 1, 2, 3, 4), 0.0),  # no jumps at all
    ])
    def test_exit_times_and_positions(self, sites, horizon):
        config = FiniteConfiguration(sites)
        block = WalkBlock.sample(config, horizon, 600,
                                 np.random.default_rng((3, len(sites))))
        ensembles = ensembles_of_block(block)
        queries = [0.0, horizon / 3, horizon / 2, horizon]
        if block.times.size:
            queries.append(float(block.times[block.times.size // 2]))
        exits = block.exit_times()
        for b, ens in enumerate(ensembles):
            assert exits[b] == exit_time(ens)
        for t in queries:
            expected = np.array([ens.positions(t) for ens in ensembles])
            np.testing.assert_array_equal(block.positions(t), expected)
        if len(sites) > 1 and horizon > 0.5:
            assert 0 < np.isfinite(exits).sum() < block.n
        if horizon == 0.05:
            assert np.sum(np.bincount(block.owner // len(sites),
                                      minlength=block.n) == 0) > block.n / 2

    def test_sweep_blocks(self):
        blocks = list(WalkBlock.sweep(XI, 1.0, 2 * BLOCK_SIZE + 5, 7))
        assert [b.n for b in blocks] == [BLOCK_SIZE, BLOCK_SIZE, 5]
        again = WalkBlock.sample(XI, 1.0, BLOCK_SIZE,
                                 np.random.default_rng((7, 1)))
        np.testing.assert_array_equal(blocks[1].times, again.times)


@st.composite
def walk_blocks(draw, max_gap=12, tied=False):
    """A sampled block: N from 1 to 8, n up to BLOCK_SIZE, T in {0, 0.3, 1,
    2, 5}; with ``tied``, jump times rounded up to a 1/4 grid (capped at the
    horizon), so that equal (sample, time) pairs are common."""
    n_walks = draw(st.integers(1, 8))
    gaps = draw(st.lists(st.integers(1, max_gap), min_size=n_walks - 1,
                         max_size=n_walks - 1))
    start = draw(st.integers(-6, 6))
    sites = tuple(start + g for g in itertools.accumulate([0, *gaps]))
    horizon = draw(st.sampled_from((0.0, 0.3, 1.0, 2.0, 5.0)))
    n = draw(st.integers(1, BLOCK_SIZE))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    block = WalkBlock.sample(FiniteConfiguration(sites), horizon, n, rng)
    if tied:
        block = dataclasses.replace(
            block, times=np.minimum(np.ceil(block.times * 4) / 4, horizon))
    return block


class TestExitScanMatchesLexsort:
    """The exit scan, which skips samples in which no gap can close,
    against the lexsort scan of every jump."""

    @settings(max_examples=60, deadline=None)
    @given(block=walk_blocks())
    def test_random_blocks(self, block):
        assert np.array_equal(block.exit_times(), exit_times_lexsort(block))

    @settings(max_examples=60, deadline=None)
    @given(block=walk_blocks(max_gap=3, tied=True))
    def test_tied_blocks(self, block):
        assert np.array_equal(block.exit_times(), exit_times_lexsort(block))

    def test_tied_block_has_ties_and_exits(self):
        config = FiniteConfiguration((0, 1, 3, 4))
        block = WalkBlock.sample(config, 2.0, 500, np.random.default_rng(4))
        block = dataclasses.replace(block, times=np.ceil(block.times * 4) / 4)
        key = block.owner // len(config) * 100 + block.times * 4
        assert np.unique(key).size < key.size
        exits = block.exit_times()
        assert 0 < np.isfinite(exits).sum() < block.n
        assert np.array_equal(exits, exit_times_lexsort(block))


class TestEstimators:
    def test_h_normalization(self):
        r = h_estimate(One(), 1.0, 30_000, 7)
        assert abs(r.mean - 1.0) <= 3.0 * r.std_error

    def test_dmr_normalization_and_ess(self):
        r = dmr_estimate(One(), 1.0, 30_000, 7)
        assert abs(r.mean - 1.0) <= 3.0 * r.std_error
        assert r.effective_samples >= 1_000

    def test_absorbed_weight_cancellation(self):
        r = absorbed_weight_mean(XI, 1.0, 30_000, 11)
        assert abs(r.mean) <= 3.0 * r.std_error

    def test_estimators_agree_and_match_kernel(self):
        p = pts((0.5, (0,)))
        analytic = correlation_function(KernelSpec(XI), p)
        rh = h_estimate(OccupationProduct(p), 1.0, 30_000, 3)
        rd = dmr_estimate(OccupationProduct(p), 1.0, 30_000, 3)
        assert abs(rh.mean - analytic) <= 3.0 * rh.std_error
        assert abs(rd.mean - analytic) <= 3.0 * rd.std_error
        joint = math.hypot(rh.std_error, rd.std_error)
        assert abs(rh.mean - rd.mean) <= 3.0 * joint

    def test_horizon_independence(self):
        p = pts((0.5, (0,)))
        r1 = h_estimate(OccupationProduct(p), 1.0, 20_000, 5)
        r2 = h_estimate(OccupationProduct(p), 1.5, 20_000, 6)
        joint = math.hypot(r1.std_error, r2.std_error)
        assert abs(r1.mean - r2.mean) <= 3.0 * joint

    def test_two_time_determinant(self):
        p = pts((0.5, (0,)), (1.0, (1,)))
        analytic = correlation_function(KernelSpec(XI), p)
        r = dmr_estimate(OccupationProduct(p), 1.0, 30_000, 17)
        assert abs(r.mean - analytic) <= 3.0 * r.std_error

    def test_occupation_bound(self):
        p = pts((0.5, (1,)))
        for estimator in ("h", "dmr"):
            r = estimate_many(XI, [OccupationProduct(p)], 1.0, 20_000, 9,
                              estimator)[0]
            assert -3.0 * r.std_error <= r.mean <= 1.0 + 3.0 * r.std_error

    def test_validation(self):
        with pytest.raises(ValueError):
            estimate_many(XI, [One()], 1.0, 0, 1)
        with pytest.raises(ValueError):
            estimate_many(XI, [One()], 1.0, 10, -1)
        with pytest.raises(ValueError):
            estimate_many(XI, [One()], 1.0, 10, 1, "bogus")
        with pytest.raises(ValueError):
            estimate_many(XI, [OccupationProduct(pts((2.0, (0,))))],
                          1.0, 10, 1)
        for horizon in (math.nan, math.inf, -1.0):
            with pytest.raises(ValueError, match="horizon"):
                estimate_many(XI, [One()], horizon, 10, 1)

    @pytest.mark.parametrize("estimator", ["h", "dmr"])
    def test_negative_horizon_named_before_query_times(self, estimator):
        # the query time 0 lies beyond T = -1, but the horizon is at fault
        at_zero = OccupationProduct(pts((0.0, (0,))))
        for call in (lambda: estimate_many(XI, [at_zero], -1, 10, 1,
                                           estimator),
                     lambda: absorbed_weight_mean(XI, -1, 10, 1)):
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value) == \
                "horizon must be finite and >= 0, got -1.0"


class TestDeterminantWeight:
    """The dmr weight h(V(T))/h(u) against the determinant of the site
    martingales at the final sites, ``oracles.determinant_weight``."""

    @pytest.mark.parametrize("sites, T, seed", [
        ((0, 2), 1.0, 9), ((-1, 1, 4), 1.5, 5), ((-3, 0, 1, 4, 6), 0.75, 31)])
    def test_dmr_matches_determinant_route(self, sites, T, seed):
        config = FiniteConfiguration(sites)
        functionals = [One(), OccupationProduct(pts((T / 2, sites[:1])))]
        n = BLOCK_SIZE + 100
        got = estimate_many(config, functionals, T, n, seed, "dmr")
        blocks = list(WalkBlock.sweep(config, T, n, seed))
        w = np.concatenate([determinant_weight(config, T, b.positions(T))
                            for b in blocks])
        ess = np.abs(w).sum() ** 2 / (w * w).sum()
        for r, f in zip(got, functionals):
            fw = w * np.concatenate([
                f.evaluate({t: b.positions(t) for t in (*f.times, T)})
                for b in blocks])
            for a, b in ((r.mean, fw.mean()),
                         (r.std_error, fw.std(ddof=1) / math.sqrt(n)),
                         (r.effective_samples, ess)):
                assert abs(a - b) <= 1e-12 * max(1.0, abs(b))


class TestErrorBar:
    """Fewer than 2 samples of nonzero weight give an infinite error bar."""

    def test_no_survivor(self):
        # (0, 1, 2, 3) up to T = 8: no path of these 320 survives
        config = FiniteConfiguration((0, 1, 2, 3))
        r = estimate_many(config, [OccupationProduct(pts((8.0, (0, 1))))],
                          8.0, 320, 3, "h")[0]
        assert (r.mean, r.std_error, r.effective_samples) == (0.0, math.inf,
                                                              0.0)

    def test_one_survivor(self):
        config = FiniteConfiguration((0, 1, 2, 3))
        r = estimate_many(config, [One()], 8.0, 320, 0, "h")[0]
        assert r.mean > 0 and r.effective_samples == 1.0
        assert r.std_error == math.inf

    def test_single_sample(self):
        r = dmr_estimate(One(), 1.0, 1, 0)
        assert r.std_error == math.inf

    def test_two_weighted_samples_give_a_finite_error(self):
        r = h_estimate(One(), 0.0, 2, 0)
        assert (r.mean, r.std_error) == (1.0, 0.0)


class TestReproducibility:
    def test_bit_identical_reruns(self):
        a = h_estimate(One(), 1.0, 2_000, 7)
        b = h_estimate(One(), 1.0, 2_000, 7)
        assert a == b

    def test_seed_changes_results(self):
        a = h_estimate(One(), 1.0, 2_000, 7)
        b = h_estimate(One(), 1.0, 2_000, 8)
        assert a.mean != b.mean


class TestEmpiricalCorrelation:
    def test_initial_configuration_exact_for_h(self):
        p = pts((0.0, (0, 2)))
        got = estimate_many(XI, [OccupationProduct(p)], 0.0, 500, 2, "h")[0]
        assert got.mean == 1.0
        assert got.std_error == 0.0

    def test_pair_correlation_vs_determinant(self):
        p = pts((0.5, (0, 1)))
        analytic = correlation_function(KernelSpec(XI), p)
        got = estimate_many(XI, [OccupationProduct(p)], 1.0, 30_000, 21,
                            "dmr")[0]
        assert abs(got.mean - analytic) <= 3.0 * got.std_error

    def test_vandermonde_ratio(self):
        assert vandermonde_ratio((0, 1, 3), (0, 1, 3)) == 1.0
        assert vandermonde_ratio((0, 2), (0, 1)) == 2.0
        with pytest.raises(ValueError):
            vandermonde_ratio((0, 1), (0, 1, 2))
