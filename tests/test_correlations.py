import itertools
import math

import numpy as np
import pytest

from ncrw.correlations import (MultiTimePointSet, correlation_function,
                               density_profile, fredholm_generating_function,
                               kernel_matrix)
from ncrw.kernels import KernelSpec, StationarySpec, sine_kernel
from ncrw.martingales import (FiniteConfiguration, LatticeSpec,
                              site_martingale_rows)

XI = FiniteConfiguration((0, 2))
SPEC = KernelSpec(XI)


def pts(*groups):
    return MultiTimePointSet(tuple(groups))


def det_k(spec, points):
    return float(np.linalg.det(kernel_matrix(spec, points)))


def subset_expansion(spec, chi):
    # det(I + K chi) expanded over subsets of the support, each weighted by
    # its product of chi values
    keys = list(chi)
    full = kernel_matrix(spec, keys)
    series = 0.0
    for r in range(len(keys) + 1):
        for idx in itertools.combinations(range(len(keys)), r):
            weight = math.prod(chi[keys[i]] for i in idx)
            det = float(np.linalg.det(full[np.ix_(idx, idx)])) if idx else 1.0
            series += weight * det
    return series


class TestMultiTimePointSet:
    def test_validation(self):
        p = pts((0.5, (0, 2)), (1.0, (1,)))
        assert p.n_points == 3
        assert p.max_time == 1.0
        assert p.flatten() == [(0.5, 0), (0.5, 2), (1.0, 1)]
        with pytest.raises(ValueError):
            pts((1.0, (0,)), (0.5, (1,)))  # times must increase
        with pytest.raises(ValueError):
            pts((0.5, (2, 0)))  # sites must increase
        with pytest.raises(ValueError):
            pts((0.5, ()))

    def test_rejects_non_integer_sites(self):
        # 0.7 must not become site 0
        for bad in (0.7, math.nan, math.inf):
            with pytest.raises(ValueError, match="integers"):
                pts((0.5, (bad, 2)))
        assert pts((0.5, (0.0, 2))).flatten() == [(0.5, 0), (0.5, 2)]


class TestCorrelationFunction:
    def test_initial_configuration_density(self):
        assert correlation_function(SPEC, pts((0.0, (0,)))) == 1.0
        assert correlation_function(SPEC, pts((0.0, (1,)))) == 0.0
        assert correlation_function(SPEC, pts((0.0, (0, 2)))) == 1.0

    def test_point_count_guard(self):
        big = pts((0.5, tuple(range(13))))
        with pytest.raises(ValueError):
            correlation_function(SPEC, big)

    def test_permutation_invariance(self):
        points = [(0.5, 0), (0.5, 1), (1.0, 2), (1.0, -1)]
        base = det_k(SPEC, points)
        rng = np.random.default_rng(3)
        for _ in range(5):
            perm = rng.permutation(len(points))
            shuffled = [points[i] for i in perm]
            assert det_k(SPEC, shuffled) == pytest.approx(
                base, rel=1e-12, abs=1e-15)

    def test_gauge_independence(self):
        p = pts((0.5, (0,)), (1.0, (1, 2)))
        v_prob = correlation_function(KernelSpec(XI, "prob"), p)
        v_paper = correlation_function(KernelSpec(XI, "paper"), p)
        assert v_prob == pytest.approx(v_paper, rel=1e-10)

    def test_equal_time_positivity(self):
        for sites in [(0,), (1,), (0, 1), (0, 2), (-1, 1, 3)]:
            v = correlation_function(SPEC, pts((0.7, sites)))
            assert v >= -1e-10

    def test_stationary_pair_decoupling(self):
        # sine kernel vanishes at even displacements for rho = 1/2, so the
        # pair correlation factorizes there
        spec = KernelSpec(StationarySpec(0.5))
        v = correlation_function(spec, pts((0.0, (0, 2))))
        assert v == pytest.approx(0.25, abs=1e-14)


class TestDensityProfile:
    def test_initial_indicator(self):
        d = density_profile(SPEC, 0.0, range(-3, 6))
        want = [1.0 if x in (0, 2) else 0.0 for x in range(-3, 6)]
        assert np.allclose(d, want)

    def test_trace_identity(self):
        d = density_profile(SPEC, 1.0, range(-24, 27))
        assert math.fsum(d) == pytest.approx(2.0, abs=1e-6)

    def test_lattice_density_flattens_toward_mean(self):
        spec = KernelSpec(LatticeSpec(2))
        devs = []
        for t in (0.5, 2.0, 8.0):
            d = density_profile(spec, t, range(0, 2))
            devs.append(max(abs(v - 0.5) for v in d))
        assert devs[0] > devs[1] > devs[2]


class TestFredholm:
    def test_empty_tests(self):
        assert fredholm_generating_function(SPEC, {}) == 1.0

    def test_void_probability_at_time_zero(self):
        hit = {(0.0, 0): -1.0, (0.0, 1): -1.0}
        miss = {(0.0, 1): -1.0, (0.0, 3): -1.0}
        assert fredholm_generating_function(SPEC, hit) == pytest.approx(0.0,
                                                                        abs=1e-14)
        assert fredholm_generating_function(SPEC, miss) == pytest.approx(1.0,
                                                                         abs=1e-14)

    def test_subset_expansion_oracle(self):
        chi = {(0.7, -1): 0.25, (0.7, 0): -0.4, (0.7, 2): 0.3,
               (1.4, 0): -0.15, (1.4, 1): 0.2}
        got = fredholm_generating_function(SPEC, chi)
        keys = list(chi)
        brute = 0.0
        for r in range(len(keys) + 1):
            for sub in itertools.combinations(keys, r):
                weight = math.prod(chi[k] for k in sub)
                brute += weight * det_k(SPEC, list(sub))
        assert got == pytest.approx(brute, abs=1e-10)

    def test_expansion_matches_correlation_series(self):
        # one time, window of 4 sites: expansion in correlation functions
        window = (-1, 0, 1, 2)
        t = 0.8
        c_val = 0.35
        got = fredholm_generating_function(SPEC, {(t, x): c_val
                                                  for x in window})
        series = 0.0
        for r in range(len(window) + 1):
            for sub in itertools.combinations(window, r):
                rho = correlation_function(SPEC, pts((t, sub))) if sub else 1.0
                series += (c_val ** r) * rho
        assert got == pytest.approx(series, abs=1e-9)

    def test_expansion_consistency_eight_point_window(self):
        # two times, eight support points in all: det(I + K chi) equals the
        # full expansion over point subsets weighted by chi products
        chi = {(0.5, x): c for x, c in zip((-2, -1, 0, 1), (0.3, -0.25, 0.4, 0.2))}
        chi.update({(1.1, x): c for x, c in zip((0, 1, 2, 3),
                                                (-0.35, 0.15, 0.28, -0.1))})
        got = fredholm_generating_function(SPEC, chi)
        assert got == pytest.approx(subset_expansion(SPEC, chi), abs=1e-9)

    def test_chi_below_minus_one(self):
        # chi = -2 is a weight like any other: it must not be clamped to -1
        spec = KernelSpec(FiniteConfiguration((0, 2, 5)))
        chi = {(0.5, 0): -2.0, (0.5, 1): 0.3, (0.5, 3): -0.4, (0.5, 5): 0.2,
               (1.2, -1): 0.25, (1.2, 2): -0.6, (1.2, 4): 0.1, (1.2, 6): 0.5}
        got = fredholm_generating_function(spec, chi)
        assert got == pytest.approx(subset_expansion(spec, chi), abs=1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_chi(self, bad):
        with pytest.raises(ValueError, match="chi values must be finite"):
            fredholm_generating_function(SPEC, {(0.5, 0): 0.1, (0.5, 1): bad})

    def test_support_guard(self):
        fredholm_generating_function(SPEC, {(0.5, x): 0.1 for x in range(14)})
        with pytest.raises(ValueError, match="above guard 14"):
            fredholm_generating_function(SPEC, {(0.5, x): 0.1
                                                for x in range(15)})

    def test_rejects_non_integer_support(self):
        # 0.5 must not become site 0
        for bad in (0.5, math.nan, -math.inf):
            with pytest.raises(ValueError, match="integer"):
                fredholm_generating_function(SPEC, {(0.5, bad): 0.1,
                                                    (0.5, 2): 0.2})
        assert fredholm_generating_function(SPEC, {(0.5, 2.0): 0.1}) == \
            fredholm_generating_function(SPEC, {(0.5, 2): 0.1})


class TestKernelMatrix:
    def test_diagonal_is_a_density(self):
        # the kernel matrix itself need not be symmetric (the equal-time
        # projection is oblique), but its diagonal is the density
        m = kernel_matrix(SPEC, [(0.5, x) for x in range(-2, 4)])
        d = np.diag(m)
        assert np.all(d >= -1e-10)
        assert np.all(d <= 1.0 + 1e-10)


@pytest.mark.parametrize("call,bad", [
    (lambda: sine_kernel(0.5, 1.5), "1.5"),
    (lambda: FiniteConfiguration.equidistant(0, 10), "0"),
    (lambda: FiniteConfiguration.equidistant(1.5, 10), "1.5"),
    (lambda: site_martingale_rows(XI, math.inf, [0]), "inf"),
])
def test_bad_input_raises_value_error_naming_it(call, bad):
    with pytest.raises(ValueError, match=f"got {bad}$"):
        call()
