import importlib.util
import math
import os
import sys
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncrw.bessel import scaled_bessel_i_all, truncation_radius
from ncrw.errors import ConvergenceError
from ncrw.martingales import (_ROW_BLOCK_FLOATS, FiniteConfiguration,
                              LatticeSpec, _basis_taylor_rows,
                              _series_weights, martingale_polynomial,
                              site_martingale_rows)
from ncrw.montecarlo import vandermonde_ratio
from oracles import (backward_transform, backward_transform_exp,
                     basis_taylor_rows_yk, esscher_weight, lagrange_basis,
                     lattice_basis, lattice_martingale_batch,
                     martingale_polynomial_exact, ring_site_martingale_row,
                     series_polynomial, series_weights_horner,
                     site_martingale_row_loop, site_martingale_rows_yk)


def transition_weights(t, center, radius):
    it = scaled_bessel_i_all(radius, t)
    return {y: it[abs(y - center)] for y in range(center - radius,
                                                  center + radius + 1)}


class TestConfigurationTypes:
    def test_valid(self):
        c = FiniteConfiguration((-3, 0, 2))
        assert len(c) == 3
        assert c.sites == (-3, 0, 2)

    def test_rejects_unsorted_or_repeated(self):
        with pytest.raises(ValueError):
            FiniteConfiguration((2, 0))
        with pytest.raises(ValueError):
            FiniteConfiguration((0, 0, 5))
        with pytest.raises(ValueError):
            FiniteConfiguration(())

    def test_rejects_non_integer_sites(self):
        # 0.5 must not become site 0
        for bad in (0.5, math.nan, math.inf):
            with pytest.raises(ValueError, match="integers"):
                FiniteConfiguration((bad, 2))
        assert FiniteConfiguration((-1.0, np.int64(2))).sites == (-1, 2)

    def test_lattice_spec(self):
        assert LatticeSpec(2).density == 0.5
        with pytest.raises(ValueError):
            LatticeSpec(1)

    def test_lattice_spec_rejects_non_finite_spacing(self):
        for bad in (math.inf, math.nan, 2.5):
            with pytest.raises(ValueError, match="lattice spacing"):
                LatticeSpec(bad)
        assert LatticeSpec(3.0).a == 3

    def test_equidistant(self):
        assert FiniteConfiguration.equidistant(2, 4).sites == \
            (-4, -2, 0, 2, 4)


class TestEsscherWeight:
    def test_trivial(self):
        assert esscher_weight(0.0, 3.0, 7) == 1.0
        assert esscher_weight(1.3, 0.0, 0) == 1.0
        assert esscher_weight(1.0, 1.0, 2) == pytest.approx(
            math.exp(2.0 - (math.cosh(1.0) - 1.0)), rel=1e-15)

    def test_positive_and_guards(self):
        assert esscher_weight(-4.0, 2.0, -3) > 0.0
        with pytest.raises(ValueError):
            esscher_weight(math.inf, 1.0, 0)
        with pytest.raises(ValueError):
            esscher_weight(0.5, -1.0, 0)

    @pytest.mark.parametrize("alpha", [0.25, -0.5, 1.0])
    def test_martingale_mean(self, alpha):
        # sum_y p(t, y|x) G_alpha(t, y) = G_alpha(0, x)
        t, x = 1.5, 2
        radius = truncation_radius(t, 1e-25) + 10
        total = math.fsum(w * esscher_weight(alpha, t, y)
                          for y, w in transition_weights(t, x, radius).items())
        assert total == pytest.approx(esscher_weight(alpha, 0.0, x),
                                      rel=1e-12)


class TestMartingalePolynomials:
    def test_low_degree_closed_forms(self):
        for t in (0.0, 0.7, 2.0):
            for x in (-2.0, 0.0, 3.0):
                assert martingale_polynomial(0, t, x) == 1.0
                assert martingale_polynomial(1, t, x) == x
                assert martingale_polynomial(2, t, x) == \
                    pytest.approx(x * x - t, rel=1e-15, abs=1e-15)
                assert martingale_polynomial(3, t, x) == \
                    pytest.approx(x ** 3 - 3 * t * x, rel=1e-15, abs=1e-15)
                assert martingale_polynomial(4, t, x) == pytest.approx(
                    x ** 4 - 6 * t * x * x + 3 * t * t - t, rel=1e-15,
                    abs=1e-15)

    def test_example_value(self):
        assert martingale_polynomial(4, 1.0, 0.0) == pytest.approx(2.0)

    def test_initial_condition_monic(self):
        # the coefficient of x^j is C(n, j) times series_polynomial(n - j)
        assert series_polynomial(0) == (1,)  # monic, no t dependence
        for m in range(1, 13):
            assert series_polynomial(m)[0] == 0  # vanishes at t = 0
        assert martingale_polynomial(5, 0.0, 1.5) == 1.5 ** 5

    @pytest.mark.parametrize("x", [1.0, -1.0])
    def test_wide_degree_at_time_zero(self, x):
        # m_1100(0, x) = x^1100: the zero weights add nothing, so no
        # C(1100, 550) * 0.0 leaves the double range on the way
        assert martingale_polynomial(1100, 0.0, x) == 1.0

    def test_wide_degree_overflow_refused(self):
        with pytest.raises(ConvergenceError, match="overflows"):
            martingale_polynomial(1100, 0.0, 2.0)

    def test_degree_guard(self):
        assert martingale_polynomial(13, 0.0, 2.0) == 2.0 ** 13
        with pytest.raises(ValueError):
            martingale_polynomial(-1, 1.0, 0.0)

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("n", [40, 60, 100, 150, 200])
    def test_high_degree_against_exact_rationals(self, n, t):
        # only the Horner sum in x rounds; a Horner sum in t of the integer
        # tables lost 1.7e-10 at n = 60 and all digits by n = 200
        for x in (-3.0, 0.0, 1.0, 2.5, 7.0):
            exact = martingale_polynomial_exact(n, t, x)
            got = martingale_polynomial(n, t, x)
            assert abs(float((Fraction(got) - exact) / exact)) <= 1e-11

    @pytest.mark.parametrize("n", [244, 250])
    def test_overflow_refused(self, n):
        # m! * b_m(0.5) leaves the double range at m = 246; at n = 244 the
        # weights are finite but C(n, j) times them is not (an inf - inf
        # gave nan)
        assert math.isfinite(martingale_polynomial(240, 0.5, 1.0))
        with pytest.raises(ConvergenceError, match="overflows"):
            martingale_polynomial(n, 0.5, 1.0)

    @pytest.mark.parametrize("t,x", [(math.nan, 1.0), (math.inf, 1.0),
                                     (-math.inf, 1.0), (1.0, math.nan)])
    def test_non_finite_argument_refused(self, t, x):
        with pytest.raises(ValueError, match="finite time and site"):
            martingale_polynomial(3, t, x)

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_semigroup_inverts_polynomials(self, t):
        radius = truncation_radius(t, 1e-30) + 4
        for u in range(-2, 3):
            weights = transition_weights(t, u, radius)
            for n in range(9):
                total = math.fsum(w * martingale_polynomial(n, t, float(y))
                                  for y, w in weights.items())
                assert total == pytest.approx(float(u) ** n, abs=1e-8)

    @pytest.mark.parametrize("alpha", [0.25, -0.25, 0.5, -0.5, 1.0])
    def test_generating_function_partial_sums(self, alpha):
        # partial sums approach the exponential martingale within a bound
        # from the first three omitted terms (they decay geometrically)
        for t in (0.5, 1.0, 2.0):
            for x in range(-3, 4):
                partial = math.fsum(
                    martingale_polynomial(n, t, float(x)) * alpha ** n
                    / math.factorial(n) for n in range(13))
                tail = [abs(martingale_polynomial(n, t, float(x))
                            * alpha ** n) / math.factorial(n)
                        for n in (13, 14, 15)]
                assert tail[2] <= max(tail[0], 1e-15)  # decaying regime
                bound = 2.0 * (tail[0] + tail[1] + tail[2])
                target = esscher_weight(alpha, t, x)
                assert abs(partial - target) <= bound + 1e-13


class TestBackwardTransform:
    """The ring-sum oracle in tests/oracles.py against closed forms."""

    def test_constant(self):
        assert backward_transform(lambda w: 1.0, 0, 1.3, 2) == \
            pytest.approx(1.0, abs=1e-12)

    def test_reproduces_martingale_polynomials(self):
        for n in range(7):
            for t, x in [(0.5, 0), (1.0, 2), (2.0, -3)]:
                got = backward_transform(lambda w, n=n: float(w) ** n, n, t, x)
                assert got == pytest.approx(
                    martingale_polynomial(n, t, float(x)), rel=1e-10,
                    abs=1e-10)

    def test_time_zero_evaluates_in_place(self):
        assert backward_transform(lambda w: w * w, 2, 0.0, 5) == 25.0

    @pytest.mark.parametrize("alpha", [-1.0, -0.5, 0.25, 1.0])
    @pytest.mark.parametrize("t", [0.5, 2.0, 5.0])
    def test_exponential_identity(self, alpha, t):
        got = backward_transform_exp(alpha, t, 3)
        assert got == pytest.approx(math.exp(-t * (math.cosh(alpha) - 1.0)),
                                    abs=1e-10)

    def test_divergence_guard(self):
        with pytest.raises(ConvergenceError):
            # super-exponential growth beats the signed weights' decay
            backward_transform(lambda w: math.exp(min(float(w * w), 700.0)),
                               0, 4.0, 0, max_radius=64)


class TestLagrangeBasis:
    """The scalar oracle, and the t = 0 rows that replace it in the package."""

    def test_kronecker(self):
        c = FiniteConfiguration((0, 2))
        assert lagrange_basis(c, 0, 0.0) == 1.0
        assert lagrange_basis(c, 0, 2.0) == 0.0
        assert lagrange_basis(c, 0, 4.0) == pytest.approx(-1.0)

    def test_index_guard(self):
        with pytest.raises(IndexError):
            lagrange_basis(FiniteConfiguration((0, 2)), 2, 1.0)


    def test_rows_at_time_zero_match_oracle_bitwise(self):
        # off the sites too, where the rows are not Kronecker rows
        rng = np.random.default_rng(3)
        for _ in range(40):
            n = int(rng.integers(1, 10))
            sites = tuple(sorted(int(v) for v in
                                 rng.choice(np.arange(-20, 21), n,
                                            replace=False)))
            c = FiniteConfiguration(sites)
            zs = [z for z in range(-25, 26) if z not in sites]
            rows = site_martingale_rows(c, 0.0, zs)[0]
            want = [[lagrange_basis(c, k, float(z)) for k in range(n)]
                    for z in zs]
            assert rows.tolist() == want


class TestVandermonde:
    """``vandermonde_ratio`` h(v)/h(u) against determinants of np.vander."""

    def test_small(self):
        assert vandermonde_ratio((0, 1, 2), (0, 1, 3)) == 2.0 / 6.0
        assert vandermonde_ratio((0, 0, 5), (0, 1, 3)) == 0.0
        assert vandermonde_ratio((7,), (3,)) == 1.0
        assert vandermonde_ratio([[0, 2], [2, 0]], (0, 1)).tolist() == [2.0,
                                                                         -2.0]

    def test_against_determinant(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            v = rng.normal(size=n) * 3.0
            u = rng.normal(size=n) * 3.0
            det = (np.linalg.det(np.vander(v, increasing=True))
                   / np.linalg.det(np.vander(u, increasing=True)))
            assert vandermonde_ratio(v, u) == pytest.approx(det, rel=1e-9,
                                                            abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(u=st.lists(st.integers(-30, 30), min_size=1, max_size=6,
                      unique=True),
           data=st.data(),
           t=st.floats(0.0, 4.0))
    def test_site_martingale_determinant(self, u, data, t):
        # the backward heat operator is unit upper-triangular on monomials,
        # so det[M_{u_k}(t, v_j)] = h(v)/h(u) at every t: the identity the
        # dmr weight rests on.  Within 1e-10 relative, plus the rounding of
        # an LU whose rows multiply to far more than the determinant (their
        # product bounds |det|), as when clustered sites u meet final sites
        # v outside their hull: u = (-12, -11, -10, -7, 0), v = (0, ..., 4)
        # at t = 0 gives 1.7e-10 relative, 2.7e-22 of that product
        v = data.draw(st.lists(st.integers(-30, 30), min_size=len(u),
                               max_size=len(u), unique=True))
        config = FiniteConfiguration(tuple(sorted(u)))
        rows = site_martingale_rows(config, t, v)[0]
        det = np.linalg.det(rows)
        ratio = float(vandermonde_ratio(v, config.sites))
        scale = np.prod(np.linalg.norm(rows, axis=1))
        assert abs(det - ratio) <= 1e-10 * abs(ratio) + 1e-14 * scale


def site_martingale(config, k, t, y):
    return float(site_martingale_rows(config, t, [y])[0][0, k])


class TestSiteMartingale:
    def test_kronecker_at_time_zero(self):
        c = FiniteConfiguration((0, 2))
        assert site_martingale(c, 0, 0.0, 0) == 1.0
        assert site_martingale(c, 1, 0.0, 0) == 0.0
        assert site_martingale(c, 1, 0.0, 2) == 1.0

    def test_polynomial_expansion_oracle(self):
        # expand the Lagrange polynomial in monomials and sum martingale
        # polynomials: must match the series expanded around y
        c = FiniteConfiguration((-1, 0, 3))
        t, y = 1.2, 2
        row = site_martingale_rows(c, t, [y])[0][0]
        for k in range(3):
            others = [u for i, u in enumerate(c.sites) if i != k]
            coeffs = np.polynomial.polynomial.polyfromroots(others)
            scale = np.prod([c.sites[k] - u for u in others])
            oracle = sum(float(cf) * martingale_polynomial(n, t, float(y))
                         for n, cf in enumerate(coeffs)) / scale
            assert row[k] == pytest.approx(oracle, rel=1e-10, abs=1e-10)

    def test_martingale_mean_is_kronecker(self):
        c = FiniteConfiguration((0, 2))
        t = 1.0
        radius = truncation_radius(t, 1e-25) + 8
        for j, uj in enumerate(c.sites):
            weights = transition_weights(t, uj, radius)
            for k in range(len(c)):
                total = math.fsum(w * site_martingale(c, k, t, y)
                                  for y, w in weights.items())
                assert total == pytest.approx(float(j == k), abs=1e-8)

    def test_single_site_configuration_trivial(self):
        c = FiniteConfiguration((4,))
        for t, y in [(0.0, 4), (1.5, -2), (3.0, 9)]:
            assert site_martingale(c, 0, t, y) == pytest.approx(1.0,
                                                                abs=1e-12)

    def test_matches_ring_sum_oracle(self):
        # at t <= 2 the ring sum loses at most ~eps * e^4 to cancellation
        rng = np.random.default_rng(11)
        for _ in range(60):
            n = int(rng.integers(1, 9))
            sites = tuple(sorted(int(v) for v in
                                 rng.choice(np.arange(-12, 13), n,
                                            replace=False)))
            c = FiniteConfiguration(sites)
            t = float(rng.uniform(0.0, 2.0))
            y = int(rng.integers(-15, 16))
            (row,), (spread,) = site_martingale_rows(c, t, [y])
            want = ring_site_martingale_row(c, t, y)
            np.testing.assert_allclose(row, want, rtol=1e-12, atol=1e-12)
            assert np.all(spread >= np.abs(row))

    def test_kronecker_rows_exact_at_sites(self):
        c = FiniteConfiguration((-7, -2, 0, 5, 11))
        for k, u in enumerate(c.sites):
            (row,), (spread,) = site_martingale_rows(c, 0.0, [u])
            assert row.tolist() == [float(i == k) for i in range(len(c))]
            assert spread.tolist() == row.tolist()

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            site_martingale_rows(FiniteConfiguration((0, 2)), -1.0, [0])

    def test_non_integral_sites_rejected(self):
        # 0.5 must not become the Kronecker row of site 0
        c = FiniteConfiguration((0, 2))
        for bad in ([0.5], [0, math.inf], np.array([1.0, math.nan])):
            with pytest.raises(ValueError, match="integers"):
                site_martingale_rows(c, 0.0, bad)
        rows = site_martingale_rows(c, 0.0, np.array([0.0, 1.0]))[0]
        assert rows.tolist() == [[1.0, 0.0], [0.5, 0.5]]


class TestSiteMartingaleBatch:
    """``site_martingale_rows`` against the per-site loop of the oracles."""

    @pytest.mark.parametrize("t", [0.0, 0.5, 3.0, 14.0])
    def test_bit_equal_to_per_site_loop(self, t):
        rng = np.random.default_rng(int(10 * t) + 5)
        for n in (1, 2, 5, 9, 12):
            sites = tuple(sorted(int(v) for v in
                                 rng.choice(np.arange(-30, 31), n,
                                            replace=False)))
            c = FiniteConfiguration(sites)
            # unsorted ys with repeats; at N >= 9 they cross a block boundary
            count = _ROW_BLOCK_FLOATS // (n * n) + 5 if n >= 9 else 40
            ys = rng.integers(-40, 41, size=count)
            rows, spreads = site_martingale_rows(c, t, ys)
            assert rows.shape == spreads.shape == (count, n)
            for i, y in enumerate(ys.tolist()):
                row, spread = site_martingale_row_loop(c, t, y)
                assert np.array_equal(rows[i], row)
                assert np.array_equal(spreads[i], spread)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 40), data=st.data(),
           t=st.sampled_from((0.0, 0.25, 0.5, 2.0, 14.0)))
    def test_power_major_rows_match_y_major_oracle(self, n, data, t):
        # the (power, y, k) Taylor rows, which update only the powers a
        # factor can reach, against the (y, k, power) ones, which update
        # all; the blocked rows and spreads against one unblocked batch.
        # The ys span up to three row blocks and hit the sites, where the
        # rows at t = 0 are Kronecker rows.
        gaps = data.draw(st.lists(st.integers(1, 6), min_size=n - 1,
                                  max_size=n - 1))
        sites = tuple(np.cumsum([-10, *gaps]).tolist())
        block = max(1, _ROW_BLOCK_FLOATS // (n * n))
        count = data.draw(st.integers(0, min(3 * block + 1, 400)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        ys = np.concatenate([rng.permutation(sites)[:block + 1],
                             rng.integers(sites[0] - 20, sites[-1] + 21,
                                          size=count)])
        c = FiniteConfiguration(sites)
        got = _basis_taylor_rows(c, ys).transpose(1, 2, 0)
        want = basis_taylor_rows_yk(c, ys)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        for got, want in zip(site_martingale_rows(c, t, ys),
                             site_martingale_rows_yk(c, t, ys)):
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))
        if t == 0.0:
            rows = site_martingale_rows(c, t, ys)[0]
            at = np.searchsorted(sites, ys)
            hit = np.isin(ys, sites)
            assert hit[:min(n, block + 1)].all()
            assert np.array_equal(rows[hit], np.eye(n)[at[hit]])

    def test_empty_batch(self):
        rows, spreads = site_martingale_rows(FiniteConfiguration((0, 3)),
                                             1.0, [])
        assert rows.shape == spreads.shape == (0, 2)

    def test_memory_stays_blocked(self):
        # 300 ys at N = 60: unblocked, four (Y, N, N) work arrays of 8.6 MB;
        # in blocks of 2^13 // 60^2 = 2 ys, 58 KB each (0.75 MB peak with
        # the 0.29 MB of rows and spreads; blocks of 2^16 floats took 2.4 MB)
        c = FiniteConfiguration(tuple(range(0, 120, 2)))
        site_martingale_rows(c, 0.5, [0])  # series weights cached untraced
        tracemalloc.start()
        try:
            site_martingale_rows(c, 0.5, np.arange(-150, 150))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5e6

    def test_series_weights_match_taylor_coefficients(self):
        # m! * [a^m] exp(-t(cosh a - 1)), from mpmath's Taylor expansion
        import mpmath as mp
        for t in (0.5, 3.0, 14.0):
            weights = _series_weights(31, t)
            with mp.workdps(80):
                taylor = mp.taylor(lambda a: mp.exp(-t * (mp.cosh(a) - 1)),
                                   0, 30)
                want = [float(c * mp.factorial(m))
                        for m, c in enumerate(taylor)]
            assert np.all(weights[1::2] == 0.0)
            np.testing.assert_allclose(weights[::2], want[::2], rtol=1e-15)

    @pytest.mark.parametrize("t", [0.0, 0.1, 0.25, 1 / 3, 0.5, 3.75, 14.0,
                                   22.0])
    def test_series_weights_match_exact_horner(self, t):
        # the integer recurrence against the integer tables in t, each
        # exact and rounded once: the same bits, or the same refusal at the
        # same m
        for n in (1, 2, 31, 120, 246):
            try:
                want = series_weights_horner(n, t)
            except ConvergenceError as exc:
                with pytest.raises(ConvergenceError) as got:
                    _series_weights(n, t)
                assert str(got.value) == str(exc)
            else:
                assert _series_weights(n, t).tobytes() == want.tobytes()

    @pytest.mark.parametrize("t", [0.0, 0.25, 3.75, 14.0])
    def test_series_weights_are_prefixes(self, t):
        # each weight is evaluated on its own: N sites take the first N
        # weights of any larger configuration, bit for bit
        full = _series_weights(60, t)
        for n in (1, 2, 3, 13, 21, 59):
            assert _series_weights(n, t).tobytes() == full[:n].tobytes()

    def test_series_weights_cache_holds_stream_keys(self, monkeypatch):
        # the (N, t) keys of twelve rounds of the benchmark's analytic
        # stream: a second pass over them makes no cache misses
        path = os.path.join(os.path.dirname(__file__), os.pardir, "bench",
                            "streams.py")
        spec = importlib.util.spec_from_file_location("bench_streams", path)
        streams = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, streams)
        spec.loader.exec_module(streams)
        keys = []
        for index in range(12):
            for req in streams.round_requests("analytic", 77, index):
                p = req.params
                if "config" in p:
                    times = [t for t, _ in p["groups"]] if "groups" in p \
                        else [p["t"]]
                    keys += [(len(p["config"]), float(t)) for t in times]
                elif "u" in p:
                    keys.append((1, float(p["t"])))
        assert len(set(keys)) > 64
        _series_weights.cache_clear()
        for key in keys:
            _series_weights(*key)
        misses = _series_weights.cache_info().misses
        assert misses == len(set(keys))
        for key in keys:
            _series_weights(*key)
        assert _series_weights.cache_info().misses == misses

    @pytest.mark.parametrize("n", [247, 400])
    def test_overflowing_series_refused(self, n):
        # m! * b_m(t) passes the double range at m = 246 for t = 0.5
        c = FiniteConfiguration(tuple(range(n)))
        with pytest.raises(ConvergenceError, match="overflows"):
            site_martingale_rows(c, 0.5, [0])

    def test_largest_configuration_below_overflow(self):
        weights = _series_weights(246, 0.5)
        assert np.all(np.isfinite(weights))
        assert np.abs(weights).max() > 1e300
        # no weight but the first is nonzero at t = 0, whatever N
        c = FiniteConfiguration(tuple(range(247)))
        assert site_martingale_rows(c, 0.0, [5])[0][0].tolist() == [
            float(k == 5) for k in range(247)]

    def test_wide_configuration_at_time_zero(self):
        # 1101 sites at t = 0: the rows are the basis itself, with no
        # tables in t and no higher Taylor coefficients (which overflow
        # here) on the way
        c = FiniteConfiguration(tuple(range(1101)))
        start = time.perf_counter()
        rows, spreads = site_martingale_rows(c, 0.0, [5, 600])
        assert time.perf_counter() - start < 5.0
        assert rows.tolist() == np.eye(1101)[[5, 600]].tolist()
        assert spreads.tolist() == rows.tolist()


class TestLatticeBasis:
    def test_lattice_points(self):
        lat = LatticeSpec(2)
        assert lattice_basis(lat, 3, 6.0) == 1.0
        assert abs(lattice_basis(lat, 3, 8.0)) < 1e-15
        assert lattice_basis(lat, 0, 1.0) == pytest.approx(2.0 / math.pi)

    def test_removable_singularity_series(self):
        lat = LatticeSpec(3)
        # just off a lattice point: series branch, continuous with sin form
        a = lattice_basis(lat, 1, 3.0 + 1e-5)
        b = math.sin(math.pi * 1e-5 / 3) / (math.pi * 1e-5 / 3)
        assert a == pytest.approx(b, rel=1e-12)

    def test_finite_window_limit(self):
        # Lagrange bases of growing equidistant windows approach the sinc
        lat = LatticeSpec(2)
        zs = [1.0, 2.5, -3.0, 0.5]
        errs = []
        for half in (10, 20, 40, 80):
            config = FiniteConfiguration.equidistant(2, half)
            k_center = len(config) // 2  # site 0
            err = max(abs(lagrange_basis(config, k_center, z)
                          - lattice_basis(lat, 0, z)) for z in zs)
            errs.append(err)
        assert errs[0] > errs[1] > errs[2] > errs[3]


class TestLatticeMartingale:
    def test_kronecker_at_time_zero(self):
        lat = LatticeSpec(2)
        # offsets y - a*k of (k, y) = (3, 6), (3, 8), (0, 1)
        m = lattice_martingale_batch(lat, [0, 2, 1], 0.0)
        assert m[0] == pytest.approx(1.0, abs=1e-13)
        assert m[1] == pytest.approx(0.0, abs=1e-13)
        assert m[2] == pytest.approx(2.0 / math.pi, abs=1e-13)

    def test_martingale_mean_is_kronecker(self):
        lat = LatticeSpec(2)
        t, j = 0.8, 1
        radius = truncation_radius(t, 1e-20) + 6
        weights = transition_weights(t, 2 * j, radius)
        for k in (0, 1, 2):
            ys = list(weights)
            mhat = lattice_martingale_batch(lat, [y - 2 * k for y in ys], t)
            total = math.fsum(weights[y] * m for y, m in zip(ys, mhat))
            assert total == pytest.approx(float(j == k), abs=1e-8)
