import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ncrw import kernels
from ncrw.bessel import scaled_bessel_i_all, truncation_radius
from ncrw.correlations import (MultiTimePointSet, correlation_function,
                               density_profile, kernel_matrix)
from ncrw.errors import ConvergenceError
from ncrw.kernels import (GAUGES, KernelSpec, StationarySpec,
                          lattice_kernel_remainder, sine_kernel)
from ncrw.martingales import (_ROW_BLOCK_FLOATS, FiniteConfiguration,
                              LatticeSpec)
from ncrw.quadrature import gauss_legendre
from ncrw.relaxation import relaxation_sweep
from oracles import (band_mpmath, finite_sums_per_site, gauge_transform,
                     itilde, karlin_mcgregor, kernel_finite_mpmath,
                     lagrange_basis, lattice_kernel_mpmath,
                     lattice_kernel_site_sum, lattice_principal_band,
                     stationary_bands_per_dt)

WIDE = FiniteConfiguration.equidistant(2, 20)  # 2Z in [-20, 20], N = 21


def kernel_value(variant, p, q, gauge="prob", **opts):
    """K(p, q) from a batch of one."""
    return KernelSpec(variant, gauge).values([p], [q], **opts)[0]


def stationary_value(rho, dt, dx, gauge="prob"):
    """Stationary K at displacement (dt, dx), from a batch of one."""
    p, q = ((0.0, 0), (dt, dx)) if dt >= 0 else ((-dt, 0), (0.0, dx))
    return kernel_value(StationarySpec(rho), p, q, gauge)


def equal_time_matrix(config, t, window):
    return kernel_matrix(KernelSpec(config), [(t, x) for x in window])


def split_form_oracle(config, p, q, eps_tail=1e-16):
    """Bare-Bessel ("paper" gauge) kernel assembled from its two displayed
    pieces: the diagonal initial-site sum plus the off-configuration sum,
    minus the backward indicator term.  Independent summation route."""
    s, x = p
    t, y = q
    sites = config.sites
    total = math.fsum(
        itilde(abs(x - uj), s) * (-1) ** abs(y - uj)
        * itilde(abs(y - uj), t)
        for uj in sites) * math.exp(s + t)
    radius = truncation_radius(t, eps_tail) + 5 * len(sites) + 10
    terms = []
    for w in range(y - radius, y + radius + 1):
        if w in sites:
            continue
        for j, uj in enumerate(sites):
            terms.append(itilde(abs(x - uj), s)
                         * (-1) ** abs(y - w) * itilde(abs(y - w), t)
                         * lagrange_basis(config, j, float(w)))
    total += math.exp(s + t) * math.fsum(terms)
    if s > t:
        total -= math.exp(s - t) * itilde(abs(x - y), s - t)
    return total


class TestKernelFinite:
    def test_initial_time_collapse(self):
        c = FiniteConfiguration((0, 2))
        assert kernel_value(c, (0, 0), (0, 0)) == 1.0
        assert kernel_value(c, (0, 2), (0, 2)) == 1.0
        assert kernel_value(c, (0, 1), (0, 1)) == 0.0
        assert kernel_value(c, (0, 5), (0, 5)) == 0.0

    @pytest.mark.parametrize("p,q", [
        ((1.0, 0), (1.0, 0)), ((1.0, -1), (1.0, 2)),
        ((0.5, 1), (1.5, 0)), ((1.5, 1), (0.5, 2)),
    ])
    def test_split_form_oracle(self, p, q):
        c = FiniteConfiguration((0, 2))
        got = kernel_value(c, p, q, "paper")
        want = split_form_oracle(c, p, q)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-9)

    def test_gauge_factor_exact(self):
        c = FiniteConfiguration((-1, 3))
        p, q = (0.8, 0), (1.7, 2)
        prob = kernel_value(c, p, q, "prob")
        paper = kernel_value(c, p, q, "paper")
        assert prob == pytest.approx(paper * math.exp(q[0] - p[0]),
                                     rel=1e-12)

    def test_polynomial_expansion_oracle(self):
        # assemble the kernel with site martingales rebuilt from monomial
        # expansions of the basis polynomials (independent summation route)
        from ncrw.martingales import martingale_polynomial
        c = FiniteConfiguration((0, 2))
        s = t = 1.0
        for x in (-1, 0, 1, 2, 3):
            for y in (-1, 0, 1, 2, 3):
                oracle = 0.0
                for j, uj in enumerate(c.sites):
                    others = [u for i, u in enumerate(c.sites) if i != j]
                    coeffs = np.polynomial.polynomial.polyfromroots(others)
                    scale = math.prod(uj - u for u in others)
                    m_val = sum(
                        float(cf) * martingale_polynomial(n, t, float(y))
                        for n, cf in enumerate(coeffs)) / scale
                    oracle += itilde(abs(x - uj), s) * m_val
                got = kernel_value(c, (s, x), (t, y))
                assert got == pytest.approx(oracle, rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("t", [0.5, 2.0, 40.0, 700.0])
    def test_far_site_reads_zero_from_a_short_table(self, monkeypatch, t):
        # with a site 10^5 away the tables stop at the first order proven to
        # round to 0; the near entries keep the values of whole tables
        spec = KernelSpec(FiniteConfiguration((0, 3)))
        ps = [(t, x) for x in (-2, 0, 1, 5, 30, 100_000)]
        qs = [(t / 2, y) for y in (0, 1, 3, 4, 2, 0)]  # s > t: back terms
        calls = []
        monkeypatch.setattr(kernels, "scaled_bessel_i_all",
                            lambda n, tv: calls.append(n) or
                            scaled_bessel_i_all(n, tv))
        got = spec.values(ps, qs)
        assert max(calls) < 2048
        monkeypatch.setattr(kernels, "_FAR_ORDER", 1 << 20)
        whole = spec.values(ps, qs)
        assert max(calls) == 100_000
        assert got[-1] == whole[-1] == 0.0
        assert got[:-1] == pytest.approx(whole[:-1], rel=1e-15, abs=0)

    def test_rejects_bad_gauge_and_points(self):
        c = FiniteConfiguration((0, 2))
        with pytest.raises(ValueError):
            kernel_value(c, (0.5, 0), (0.5, 1), "weird")
        with pytest.raises(ValueError):
            kernel_value(c, (-0.5, 0), (0.5, 1))


class TestEqualTimeProjection:
    @pytest.mark.parametrize("sites", [(0, 2), (-2, 0, 3)])
    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_projection_and_trace(self, sites, t):
        c = FiniteConfiguration(sites)
        radius = truncation_radius(t, 1e-24) + 4
        window = range(min(sites) - radius, max(sites) + radius + 1)
        kt = equal_time_matrix(c, t, window)
        assert np.abs(kt @ kt - kt).max() < 1e-8
        assert np.trace(kt) == pytest.approx(len(sites), abs=1e-8)

    def test_matrix_matches_pointwise(self):
        c = FiniteConfiguration((0, 2))
        window = range(-4, 7)
        kt = equal_time_matrix(c, 1.0, window)
        for i, x in enumerate(window):
            for j, y in enumerate(window):
                assert kt[i, j] == pytest.approx(
                    kernel_value(c, (1.0, x), (1.0, y)), abs=1e-12)


def window_around(sites, t):
    radius = truncation_radius(t, 1e-24) + 4
    return range(min(sites) - radius, max(sites) + radius + 1)


class TestFiniteLargeTime:
    """Times where the signed Bessel ring sum loses every digit (its error
    grows like eps * e^{2t}); the exact series must not, or must refuse."""

    @pytest.mark.parametrize("t", [14.0, 22.0, 50.0])
    def test_projection_and_trace(self, t):
        sites = (0, 2, 5)
        kt = equal_time_matrix(FiniteConfiguration(sites), t,
                               window_around(sites, t))
        assert np.trace(kt) == pytest.approx(3.0, abs=1e-12)
        assert np.abs(kt @ kt - kt).max() < 1e-12

    def test_mpmath_oracle(self):
        c = FiniteConfiguration((0, 2, 5))
        assert kernel_value(c, (14.0, 1), (14.0, 1)) == pytest.approx(
            0.14767246884563603, abs=1e-10)
        for p, q in [((14.0, 1), (14.0, 1)), ((13.0, -2), (14.5, 4)),
                     ((15.0, 3), (12.0, 0))]:
            want = kernel_finite_mpmath(c.sites, *p, *q)
            assert kernel_value(c, p, q) == pytest.approx(want, abs=1e-10)

    def test_wide_configuration_mpmath_value(self):
        # kernel_finite_mpmath(WIDE.sites, 25, 0, 25, 0) at 60 digits
        assert kernel_value(WIDE, (25.0, 0), (25.0, 0)) == pytest.approx(
            0.2745580094176918, abs=1e-10)

    def test_wide_configuration_refused_when_cancellation_wins(self):
        with pytest.raises(ConvergenceError):
            kernel_value(WIDE, (50.0, 0), (50.0, 0))
        with pytest.raises(ConvergenceError):
            equal_time_matrix(WIDE, 50.0, range(-3, 4))

    @pytest.mark.parametrize("n", [247, 400])
    def test_overflowing_series_refused(self, n):
        spec = KernelSpec(FiniteConfiguration(tuple(range(n))))
        with pytest.raises(ConvergenceError, match="overflows"):
            density_profile(spec, 0.5, range(3))

    @settings(max_examples=40, deadline=None, derandomize=True,
              database=None)
    @given(st.lists(st.integers(-12, 12), min_size=1, max_size=8,
                    unique=True),
           st.floats(0.0, 30.0))
    def test_trace_and_densities_or_refusal(self, sites, t):
        sites = tuple(sorted(sites))
        try:
            kt = equal_time_matrix(FiniteConfiguration(sites), t,
                                   window_around(sites, t))
        except ConvergenceError:
            return
        rho = np.diag(kt)
        assert np.trace(kt) == pytest.approx(len(sites), abs=1e-9)
        assert np.all((rho >= -1e-9) & (rho <= 1.0 + 1e-9))


class TestBalancedGuard:
    """Matrices are judged after diagonal balancing, entries one by one."""

    # 12-site equal-time correlations that the absolute budget refuses
    # (bounds 1.1e-10 to 1.6e-10); balanced, their bounds are below 3e-13.
    # The first determinant is 1.1e-14 from entries of size up to 35: the
    # guard's first-order error estimate for it is 2.3e-7 relative, and it
    # lands 4.1e-9 from Karlin-McGregor.
    WINDOWS = [
        ((-12, -9, -7, -6, -5, -4, -3, -2, -1, 1, 3, 5), 4.0,
         (-14, -10, -9, -7, -5, -4, -3, -2, -1, 0, 3, 4), 1e-8),
        ((-12, -9, -6, -4, -2, -1, 0, 1, 2, 3, 4, 5), 2.5,
         (-14, -8, -6, -3, -2, -1, 0, 1, 2, 3, 4, 6), 1e-9),
        ((-14, -11, -8, -5, -4, -3, -2, -1, 1, 2, 3, 4), 3.5,
         (-16, -11, -8, -6, -3, -2, -1, 0, 1, 2, 3, 6), 1e-9),
    ]

    @pytest.mark.parametrize("sites, t, ys, rel", WINDOWS)
    def test_refused_windows_match_karlin_mcgregor(self, sites, t, ys, rel):
        spec = KernelSpec(FiniteConfiguration(sites))
        points = [(t, y) for y in ys]
        with pytest.raises(ConvergenceError):
            spec.values(np.repeat(points, len(ys), axis=0),
                        np.tile(points, (len(ys), 1)))
        want = karlin_mcgregor(sites, t, ys)
        for gauge in GAUGES:
            got = correlation_function(KernelSpec(spec.variant, gauge),
                                       MultiTimePointSet(((t, ys),)))
            assert got == pytest.approx(want, rel=rel)

    @pytest.mark.parametrize("t, window", [
        (50.0, range(-3, 4)), (50.0, range(-20, 21)), (25.0, range(-20, 21))])
    def test_cancellation_still_refused(self, t, window):
        with pytest.raises(ConvergenceError, match="balanced"):
            equal_time_matrix(WIDE, t, window)

    def test_accepted_matrices_skip_balancing(self, monkeypatch):
        def fail(a):
            raise AssertionError("balanced a matrix the budget accepts")

        monkeypatch.setattr(kernels, "_balance", fail)
        kt = equal_time_matrix(FiniteConfiguration((0, 2, 5)), 14.0,
                               window_around((0, 2, 5), 14.0))
        assert np.trace(kt) == pytest.approx(3.0, abs=1e-12)

    def test_balance_equalizes_row_and_column_sums(self):
        rng = np.random.default_rng(3)
        a = rng.uniform(0.5, 1.0, (6, 6)) \
            * np.exp(rng.uniform(-20, 20, 6))[:, None]
        a[2, :] = 0.0          # a zero row keeps its scale
        d = kernels._balance(a)
        b = np.abs(a) * d[:, None] / d[None, :]
        np.fill_diagonal(b, 0.0)
        live = [i for i in range(6) if i != 2]
        np.testing.assert_allclose(b.sum(axis=1)[live], b.sum(axis=0)[live],
                                   rtol=0.05)
        assert d[2] == 1.0


class TestKernelLattice:
    def test_initial_time_collapse(self):
        lat = LatticeSpec(2)
        assert kernel_value(lat, (0, 0), (0, 0)) == pytest.approx(1.0)
        assert kernel_value(lat, (0, 1), (0, 1)) == pytest.approx(
            0.0, abs=1e-14)
        assert kernel_value(lat, (0, -4), (0, -4)) == pytest.approx(1.0)

    @pytest.mark.parametrize("pt", [
        ((0.5, 0), (0.5, 0)), ((0.5, 0), (0.5, 1)), ((0.3, 1), (0.9, 0)),
        ((1.5, 0), (0.7, 2)), ((6.0, 0), (6.0, 1)), ((8.0, 1), (8.0, 3)),
    ])
    def test_sum_and_spectral_routes_agree(self, pt):
        # the folded route against the defining site sum
        lat = LatticeSpec(2)
        p, q = pt
        a = lattice_kernel_site_sum(lat, *p, *q)
        b = kernel_value(lat, p, q)
        assert a == pytest.approx(b, abs=1e-11)

    def test_spacing_three_routes_agree(self):
        lat = LatticeSpec(3)
        for p, q in [((0.5, 0), (0.5, 1)), ((1.0, 2), (2.0, 0))]:
            a = lattice_kernel_site_sum(lat, *p, *q)
            b = kernel_value(lat, p, q)
            assert a == pytest.approx(b, abs=1e-11)

    @settings(max_examples=200, deadline=None)
    @given(a=st.sampled_from([2, 3, 4, 5, 6, 7, 9]),
           s=st.integers(0, 16), t=st.integers(0, 16),
           x=st.integers(-12, 12), y=st.integers(-12, 12))
    def test_matches_site_sum_oracle(self, a, s, t, x, y):
        # s and t on the quarter grid up to 4, s = 0 and s > t included
        lat = LatticeSpec(a)
        want = lattice_kernel_site_sum(lat, s / 4, x, t / 4, y)
        got = kernel_value(lat, (s / 4, x), (t / 4, y))
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want))

    def test_large_time_near_stationary(self):
        # at tau = 64 the remainder is small: near the sine kernel
        lat = LatticeSpec(2)
        v = kernel_value(lat, (64.0, 0), (64.0, 0))
        assert abs(v - 0.5) < 3e-3

    def test_finite_window_convergence_monotone(self):
        lat = LatticeSpec(2)
        for x, y in [(0, 0), (0, 1), (1, 1)]:
            target = kernel_value(lat, (0.5, x), (0.5, y))
            errs = [abs(kernel_value(FiniteConfiguration.equidistant(2, L),
                                     (0.5, x), (0.5, y)) - target)
                    for L in (10, 20, 40)]
            assert errs[0] > errs[1] > errs[2]

    def test_gauge_factor_exact(self):
        lat = LatticeSpec(2)
        p, q = (0.8, 0), (1.7, 1)
        prob = kernel_value(lat, p, q, "prob")
        paper = kernel_value(lat, p, q, "paper")
        assert prob == pytest.approx(paper * math.exp(q[0] - p[0]),
                                     rel=1e-12)

    def test_far_pair_refused_on_a_small_batch(self):
        # a batch of one key fails its quadrature at 2048 nodes; nothing
        # is allocated per offset from 0 to 100000, as a site sum over
        # every offset would
        tracemalloc.start()
        try:
            with pytest.raises(ConvergenceError):
                kernel_value(LatticeSpec(2), (0.5, 0), (0.5, 100000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6

    def test_wide_sweep_is_blocked(self):
        # 2408 cells (dx 0..300, 8 taus) in one batch: one quadrature over
        # every key at once would stack ~100 MB of node tables
        taus = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)
        relaxation_sweep(LatticeSpec(2), [(0.0, 1)], taus)
        tracemalloc.start()
        try:
            report = relaxation_sweep(LatticeSpec(2),
                                      [(0.0, dx) for dx in range(301)], taus)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.gaps.shape == (8, 301)
        assert peak < 20e6

    def test_backward_band_domain(self):
        # for s > t the band over [1/a, 1] bounds |y - x| too: on a = 5
        # near 1240 a / (a - 1) = 1550
        lat = LatticeSpec(5)
        got = kernel_value(lat, (4.0, 0), (1.0, 1500))
        want = lattice_kernel_site_sum(lat, 4.0, 0, 1.0, 1500)
        assert got == pytest.approx(want, abs=1e-13)
        with pytest.raises(ConvergenceError):
            kernel_value(lat, (4.0, 0), (1.0, 1600))

    @pytest.mark.parametrize("a", [2, 3])
    @pytest.mark.parametrize("lag", [10.0, 20.0, 30.0, 40.0])
    def test_large_backward_lag(self, a, lag):
        # s - t large: the band and the backward term p(s - t) are both of
        # size ~1/sqrt(s - t) while their difference is ~e^{-(s - t)(1 -
        # cos(pi/a))}, so the kernel must come from the complementary band
        lat = LatticeSpec(a)
        ps = [(0.5 + lag, 0)] * 2
        qs = [(0.5, 0), (0.5, 1)]
        want = np.array([lattice_kernel_mpmath(lat, *p, *q)
                         for p, q in zip(ps, qs)])
        for gauge, factor in (("prob", 1.0), ("paper", math.exp(lag))):
            got = KernelSpec(lat, gauge).values(ps, qs)
            assert got == pytest.approx(want * factor, rel=1e-12)

    @pytest.mark.parametrize("a, inside, beyond", [(2, 1200, 1240),
                                                    (3, 1800, 1860),
                                                    (5, 3000, 3090)])
    def test_displacement_domain(self, a, inside, beyond):
        # the stated limit of 2048 nodes: |y - x| up to about 615 a
        lat = LatticeSpec(a)
        got = kernel_value(lat, (1.0, 0), (1.0, inside))
        want = lattice_kernel_site_sum(lat, 1.0, 0, 1.0, inside)
        assert got == pytest.approx(want, abs=1e-13)
        with pytest.raises(ConvergenceError):
            kernel_value(lat, (1.0, 0), (1.0, beyond))


class TestKernelStationary:
    def test_equal_time_closed_form(self):
        assert stationary_value(0.5, 0.0, 0) == 0.5
        assert stationary_value(0.5, 0.0, 1) == pytest.approx(1.0 / math.pi)
        for rho in (0.5, 1.0 / 3.0):
            for n in range(-10, 11):
                assert stationary_value(rho, 0.0, n) == sine_kernel(rho, n)

    def test_proof_form_consistency(self):
        # paper-gauge value equals e^{-dt} times the principal band
        # integral of the folded lattice kernel at rho = 1/a
        lat = LatticeSpec(2)
        got = stationary_value(0.5, 0.7, 2, "paper")
        g = lattice_principal_band(lat, 0.7, 2)
        assert got == pytest.approx(math.exp(-0.7) * g, abs=1e-10)

    def test_backward_branch_sign(self):
        # dt < 0 branch: minus the complementary frequency window
        self.test_backward_branch_large_lag(0.4, -1.3, 1)

    @pytest.mark.parametrize("rho, dt, dx", [(0.5, -30.0, 0), (0.5, -40.0, 0),
                                             (0.5, -40.0, 3)])
    def test_backward_branch_large_lag(self, rho, dt, dx):
        # the paper gauge multiplies the prob value by e^{|dt|}, so the value
        # must not come from a cancellation of two O(1) terms
        def integrand(u):
            return np.cos(u * math.pi * dx) * np.exp(-dt * np.cos(u * math.pi))

        want = -gauss_legendre(integrand, rho, 1.0)
        assert stationary_value(rho, dt, dx, "paper") == pytest.approx(
            want, rel=1e-12)

    def test_gauge_factor(self):
        v_prob = stationary_value(0.5, 0.9, 1, "prob")
        v_paper = stationary_value(0.5, 0.9, 1, "paper")
        assert v_prob == pytest.approx(v_paper * math.exp(0.9), rel=1e-12)

    def test_density_guard(self):
        for bad in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ValueError):
                stationary_value(bad, 0.0, 0)
            with pytest.raises(ValueError):
                sine_kernel(bad, 0)

    def test_sine_kernel_values(self):
        assert sine_kernel(0.5, 0) == 0.5
        assert sine_kernel(0.5, 2) == pytest.approx(0.0, abs=1e-16)
        assert sine_kernel(1.0 / 3.0, 1) == pytest.approx(
            math.sin(math.pi / 3.0) / math.pi)


# the densities of the benchmark's stationary requests, and time lags of
# both signs on its quarter time grid
BAND_RHOS = (0.2, 0.25, 0.4, 0.5, 0.6, 0.75)
BAND_LAGS = tuple(0.25 * k for k in range(-15, 16))
WIDE_LAGS = tuple(0.25 * k for k in range(-64, 65))


class TestStationaryBands:
    """``_stationary_bands`` integrates every (dt, dx) column of a band in
    one quadrature; ``oracles.stationary_bands_per_dt`` makes one per time
    lag."""

    @settings(max_examples=25, deadline=None)
    @given(rho=st.sampled_from(BAND_RHOS),
           cols=st.lists(st.tuples(st.sampled_from(BAND_LAGS),
                                   st.integers(-10, 10)),
                         min_size=1, max_size=6))
    def test_mixed_lags_match_per_lag_oracle(self, rho, cols):
        dt = np.array([c[0] for c in cols])
        dx = np.array([c[1] for c in cols], dtype=np.int64)
        got = kernels._stationary_bands(rho, dt, dx, tol=1e-13)
        want = stationary_bands_per_dt(rho, dt, dx, tol=1e-13)
        assert np.all(np.abs(got - want) <= 1e-15 * np.maximum(1.0, np.abs(got)))
        for v, d, n in zip(got.tolist(), dt.tolist(), dx.tolist()):
            exact = band_mpmath(d, n, 0, rho, 20) if d >= 0 else \
                -band_mpmath(d, n, rho, 1, 20)
            assert abs(v - float(exact)) <= 1e-13 * max(1.0, abs(v))

    def test_mixed_scale_batch(self):
        # the small, fast-oscillating column beside the one at dt = 8
        # (4.3e4) stays as accurate as on its own (2.1e-15 either way)
        dt, dx = np.array([8.0, 0.25]), np.array([0, 600])
        both = kernels._stationary_bands(0.75, dt, dx, tol=1e-13)
        alone = kernels._stationary_bands(0.75, dt[1:], dx[1:], tol=1e-13)[0]
        assert both[0] == pytest.approx(float(band_mpmath(8.0, 0, 0, 0.75)),
                                        rel=1e-14)
        exact = float(band_mpmath(0.25, 600, 0, 0.75))
        assert abs(alone - exact) <= 5e-15
        assert abs(both[1] - exact) <= abs(alone - exact) + 1e-17

    def test_value_does_not_depend_on_its_batch(self):
        # judged against the batch's largest column (14, 0), about 2e10,
        # the first entry was accepted at 9.63e-3
        spec = KernelSpec(StationarySpec(0.75))
        both = spec.values([(0, 0), (0, 0)], [(0.25, 1052), (14, 0)])
        alone = spec.values([(0, 0)], [(0.25, 1052)])[0]
        assert alone == pytest.approx(-7.790960432265542e-08, rel=1e-12)
        assert abs(both[0] - alone) <= 1e-13

    @settings(max_examples=20, deadline=None)
    @given(rho=st.sampled_from((0.75, 0.9)),
           col=st.tuples(st.sampled_from(BAND_LAGS), st.integers(-1100, 1100)),
           big=st.tuples(st.sampled_from(WIDE_LAGS[-17:]),
                         st.integers(-40, 40)),
           others=st.lists(st.tuples(st.sampled_from(WIDE_LAGS),
                                     st.integers(-40, 40)), max_size=3))
    def test_value_alone_equals_value_in_a_batch(self, rho, col, big, others):
        # a column of a batch that holds one of magnitude up to 3e13 (lag
        # 12 to 16); the batch answers each value as alone, or refuses
        spec = KernelSpec(StationarySpec(rho))

        def values(cols):
            return spec.values([(max(0.0, -dt), 0) for dt, _ in cols],
                               [(max(0.0, dt), dx) for dt, dx in cols])

        try:
            alone = values([col])[0]
        except ConvergenceError:
            assume(False)
        try:
            in_batch = values([col, big, *others])[0]
        except ConvergenceError:
            return
        assert abs(in_batch - alone) <= 1e-13 * max(1.0, abs(alone))

    def test_one_quadrature_per_band(self, monkeypatch):
        # a 4-group correlation has six time lags of each sign
        calls, quad = [], kernels.gauss_legendre

        def spy(f, a, b, **opts):
            calls.append((a, b))
            return quad(f, a, b, **opts)

        monkeypatch.setattr(kernels, "gauss_legendre", spy)
        pts = MultiTimePointSet(((0.25, (-3, 0, 4)), (1.0, (-1, 2, 5)),
                                 (1.75, (0, 1, 3)), (3.5, (-5, 2, 4))))
        correlation_function(KernelSpec(StationarySpec(0.4)), pts)
        assert sorted(calls) == [(0.0, 0.4), (0.4, 1.0)]

    @pytest.mark.parametrize("variant", [StationarySpec(0.6), LatticeSpec(2),
                                         LatticeSpec(3)],
                             ids=["stationary", "lattice2", "lattice3"])
    def test_equal_keys_equal_values(self, variant):
        # entries with one (dt, dx) (on the lattice also one s, t and
        # x mod a) are one column of the batch, so exactly equal; one
        # quadrature per time lag over repeated columns left some apart
        spec = KernelSpec(variant)
        points = [(t, x) for t in (0.25, 1.0, 1.75, 2.5) for x in range(-4, 5)]
        mat = kernel_matrix(spec, points)
        seen = {}
        for (s, x), row in zip(points, mat.tolist()):
            for (t, y), v in zip(points, row):
                key = (t - s, y - x) if isinstance(variant, StationarySpec) \
                    else (s, t, y - x, x % variant.a)
                seen.setdefault(key, set()).add(v)
        assert len(seen) < len(points) ** 2
        assert all(len(v) == 1 for v in seen.values())


class TestGaugeTransform:
    def test_identity_weight(self):
        c = FiniteConfiguration((0, 2))
        base = lambda p, q: kernel_value(c, p, q)
        k2 = gauge_transform(base, lambda t, x: 1.0)
        p, q = (0.5, 0), (1.0, 1)
        assert k2(p, q) == base(p, q)

    def test_exponential_weight_maps_gauges(self):
        c = FiniteConfiguration((0, 2))
        prob = lambda p, q: kernel_value(c, p, q, "prob")
        to_paper = gauge_transform(prob, lambda t, x: math.exp(-t))
        for p, q in [((0.5, 0), (1.0, 1)), ((1.2, 2), (0.4, 0))]:
            assert to_paper(p, q) == pytest.approx(
                kernel_value(c, p, q, "paper"), rel=1e-12)

    def test_positive_weight_guard(self):
        base = lambda p, q: 1.0
        k2 = gauge_transform(base, lambda t, x: t - 1.0)
        with pytest.raises(ValueError):
            k2((0.5, 0), (2.0, 0))

    @pytest.mark.parametrize("c_exp", [1.0, -1.0, 0.3, -0.3])
    def test_correlations_invariant(self, c_exp):
        # equal multi-time point sets: determinant unchanged by any gauge
        config = FiniteConfiguration((0, 2))
        points = [(0.4, 0), (0.9, 1), (0.9, 2), (1.3, -1)]
        base = lambda p, q: kernel_value(config, p, q)
        warped = gauge_transform(base,
                                 lambda t, x, c=c_exp: math.exp(c * t))
        m1 = np.array([[base(p, q) for q in points] for p in points])
        m2 = np.array([[warped(p, q) for q in points] for p in points])
        d1, d2 = np.linalg.det(m1), np.linalg.det(m2)
        assert d2 == pytest.approx(d1, rel=1e-10, abs=1e-14)


class TestKernelSpec:
    def test_parse_roundtrip(self):
        s = KernelSpec.parse("finite:0,2")
        assert isinstance(s.variant, FiniteConfiguration)
        assert s.variant.sites == (0, 2)
        s = KernelSpec.parse("lattice:3", gauge="paper")
        assert isinstance(s.variant, LatticeSpec) and s.gauge == "paper"
        s = KernelSpec.parse("stationary:0.25")
        assert isinstance(s.variant, StationarySpec)
        with pytest.raises(ValueError):
            KernelSpec.parse("circle:1")

    def test_stationary_evaluate_depends_on_displacement_only(self):
        s = KernelSpec(StationarySpec(0.5))
        v1 = s.values([(0.25, 2)], [(1.0, 4)])[0]
        v2 = s.values([(5.25, -7)], [(6.0, -5)])[0]
        assert v1 == v2  # same (dt, dx): identical code path and value

    def test_evaluate_passes_tolerances(self):
        s = KernelSpec(LatticeSpec(2))
        p = (0.5, 0)
        # tol decides where node doubling stops at this far point, in
        # values and in kernel_matrix, which hands it on
        far = (0.75, 60)
        for kernel in (lambda tol: s.values([p], [far], tol=tol)[0],
                       lambda tol: kernel_matrix(s, [p, far], tol=tol)[0, 1]):
            loose, tight = kernel(1e-9), kernel(1e-13)
            assert loose != tight
            assert loose == pytest.approx(tight, abs=1e-12)

    def test_point_validation(self):
        with pytest.raises(ValueError):
            KernelSpec(FiniteConfiguration((0,))).values([(1.0, 0.5)],
                                                         [(1.0, 0)])


VARIANTS = (FiniteConfiguration((0, 2, 5)), FiniteConfiguration((-3, -1, 4)),
            LatticeSpec(2), LatticeSpec(3), StationarySpec(0.5),
            StationarySpec(0.3))


class TestBatchedValues:
    @pytest.mark.parametrize("gauge", ["prob", "paper"])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_matrix_equals_entries_one_at_a_time(self, variant, gauge):
        # random times repeat within the matrix, so batches share tables and
        # quadratures; at t = 12 the a = 2 lattice integrand grows like e^12
        spec = KernelSpec(variant, gauge)
        rng = np.random.default_rng(11)
        times = [0.0, 0.75, 2.5] if isinstance(variant, FiniteConfiguration) \
            else [0.0, 0.75, 2.5, 9.0, 12.0]
        points = [(float(rng.choice(times)), int(rng.integers(-5, 6)))
                  for _ in range(8)]
        mat = kernel_matrix(spec, points)
        for i, p in enumerate(points):
            for j, q in enumerate(points):
                want = spec.values([p], [q])[0]
                assert abs(mat[i, j] - want) <= 1e-12 * max(1.0, abs(want))

    @pytest.mark.parametrize("gauge", GAUGES)
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_matrix_bit_equal_to_values_over_pairs(self, variant, gauge):
        # kernel_matrix evaluates its n points and the pair indices, values
        # the n^2 pairs themselves: the same entries, s > t ones included
        spec = KernelSpec(variant, gauge)
        points = [(t, x) for t in (0.0, 0.75, 2.5) for x in (-4, 1, 3)]
        ps, qs = [p for p in points for _ in points], points * len(points)
        got = kernel_matrix(spec, points).ravel()
        assert np.array_equal(got, spec.values(ps, qs))

    @pytest.mark.parametrize("gauge", GAUGES)
    def test_balanced_matrix_bit_equal_to_pairs(self, gauge):
        # values refuses these n^2 pairs, the matrix passes after
        # balancing: its entries are those of the unguarded pair route
        spec = KernelSpec(WIDE, gauge)
        points = [(2.0, x) for x in window_around(WIDE.sites, 2.0)] + \
            [(1.5, x) for x in range(-10, 11, 5)]
        ps, qs = [p for p in points for _ in points], points * len(points)
        with pytest.raises(ConvergenceError):
            spec.values(ps, qs)
        s, x = kernels._split_points(ps)
        t, y = kernels._split_points(qs)
        want = kernels._finite_sums(WIDE, s, x, t, y, slice(None),
                                    slice(None))[0]
        if gauge == "paper":
            want *= np.exp(s - t)
        assert (s > t).any()
        assert np.array_equal(kernel_matrix(spec, points).ravel(), want)

    def test_length_checks(self):
        spec = KernelSpec(LatticeSpec(2))
        assert spec.values([], []).shape == (0,)
        with pytest.raises(ValueError):
            spec.values([(0.5, 0)], [])

    def test_density_is_diagonal_only(self):
        # in the prob gauge off-diagonal entries grow like y^{N-1} toward
        # the window edge: such an entry alone is refused, the diagonal is
        # not, and the full matrix is judged after balancing.  It is then a
        # projection: trace K = sum_ij K_ij K_ji = N, both gauge invariant.
        spec = KernelSpec(WIDE)
        window = window_around(WIDE.sites, 2.0)
        rho = density_profile(spec, 2.0, window)
        assert rho.sum() == pytest.approx(21.0, abs=1e-9)
        with pytest.raises(ConvergenceError):
            spec.values([(2.0, 0)], [(2.0, window[-1])])
        mat = kernel_matrix(spec, [(2.0, x) for x in window])
        assert np.array_equal(np.diag(mat), rho)
        assert np.sum(mat * mat.T) == pytest.approx(21.0, abs=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(keys=st.one_of(
        st.lists(st.integers(-4, 4), min_size=1, max_size=40),
        st.lists(st.sampled_from([0.0, -0.0, 0.25, 1.5, 5e-324, 4.0]),
                 min_size=1, max_size=40)))
    def test_distinct_one_column_matches_lexsort(self, keys):
        # one key column against the same column twice: bit-identical
        keys = np.array(keys)
        (one,), inverse = kernels._distinct(keys)
        (first, second), inverse2 = kernels._distinct(keys, keys)
        assert one.tobytes() == first.tobytes() == second.tobytes()
        assert np.array_equal(inverse, inverse2)
        assert np.array_equal(one[inverse], keys)
        assert np.all(one[1:] > one[:-1])


class TestFiniteRowBatching:
    """``_finite_sums`` builds rows once per distinct t, over that t's second
    points as passed; every value and rounding bound equals that of one
    ``site_martingale_rows`` call per distinct (t, y)
    (``oracles.finite_sums_per_site``)."""

    CONFIGS = [FiniteConfiguration((0,)), FiniteConfiguration((0, 2, 5)),
               FiniteConfiguration((-9, -7, -6, -3, -1, 0, 2, 3, 5, 8, 9, 12)),
               WIDE]

    @staticmethod
    def assert_matches_oracle(config, ps, qs, i=slice(None), j=slice(None)):
        # the entries (ps[i], qs[j]), by default the pairs (ps[e], qs[e])
        s, x = kernels._split_points(ps)
        t, y = kernels._split_points(qs)
        want, want_bound = finite_sums_per_site(config, s[i], x[i], t[j], y[j])
        got, bound = kernels._finite_sums(config, s, x, t, y, i, j)
        assert np.array_equal(got, want)
        assert np.array_equal(bound, want_bound)
        return want

    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"N{len(c)}")
    def test_mixed_batch_bit_equal(self, config):
        # several times, repeated (t, y) pairs and s > t entries in one batch
        rng = np.random.default_rng(len(config))
        lo, hi = min(config.sites[0], -3), max(config.sites[-1], 3)
        times = (0.0, 0.5, 1.25, 2.0)
        ps = [(float(rng.choice(times)), int(rng.integers(lo, hi + 1)))
              for _ in range(60)]
        qs = [(float(rng.choice(times)), int(rng.integers(lo, hi + 1)))
              for _ in range(60)]
        ps, qs = ps + ps[:10], qs + qs[:10]
        s, t = kernels._split_points(ps)[0], kernels._split_points(qs)[0]
        assert (s > t).any() and len(set(t.tolist())) == 4
        want = self.assert_matches_oracle(config, ps, qs)
        assert np.array_equal(KernelSpec(config).values(ps, qs), want)

    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"N{len(c)}")
    def test_kernel_matrix_bit_equal(self, config):
        points = [(t, x) for t in (0.25, 1.0, 1.75)
                  for x in range(config.sites[0] - 2, config.sites[-1] + 3, 3)]
        # kernel_matrix takes its points as given: a repeated point's rows
        # are built twice, and equal
        for points in (points, points[:2] + points[-1:] + points[2:]):
            n = len(points)
            want = self.assert_matches_oracle(
                config, [p for p in points for _ in range(n)], points * n)
            idx = np.arange(n)
            pairs = (np.repeat(idx, n), np.tile(idx, n))
            assert np.array_equal(
                self.assert_matches_oracle(config, points, points, *pairs),
                want)
            got = kernel_matrix(KernelSpec(config), points)
            assert np.array_equal(got.ravel(), want)

    def test_block_boundary_bit_equal(self):
        # the ys of t = 1.5 span several blocks of site_martingale_rows
        ys = range(-20, 21)
        assert len(ys) > _ROW_BLOCK_FLOATS // len(WIDE) ** 2
        ps = [(s, x) for s in (0.5, 1.5, 3.0) for x in (-21, 0, 7)]
        qs = [(1.5, y) for y in ys] + [(0.75, y) for y in ys[::7]]
        pairs = [(p, q) for p in ps for q in qs]
        want = self.assert_matches_oracle(WIDE, *zip(*pairs))
        got = KernelSpec(WIDE).values(*zip(*pairs))
        assert np.array_equal(got, want)

    def test_guard_decisions(self):
        # K(t, 0; t, 0) answered at t = 25 (60 digits: 0.2745580094176918)
        # and a bound over the budget at t = 50, in both routes
        at = np.array([25.0, 50.0])
        sites = np.zeros(2, dtype=np.int64)
        want, bound = finite_sums_per_site(WIDE, at, sites, at, sites)
        assert want[0] == 0.27455800941788766
        assert bound[0] <= kernels._ROUNDING_BUDGET < bound[1]
        assert kernel_value(WIDE, (25.0, 0), (25.0, 0)) == want[0]
        with pytest.raises(ConvergenceError):
            kernel_value(WIDE, (50.0, 0), (50.0, 0))

    @pytest.fixture
    def row_calls(self, monkeypatch):
        # (t, ys) of every call of the row builder
        calls, rows = [], kernels._site_rows

        def spy(config, t, ys):
            calls.append((t, ys.tolist()))
            return rows(config, t, ys)

        monkeypatch.setattr(kernels, "_site_rows", spy)
        return calls

    def test_one_row_call_per_density_window(self, row_calls):
        density_profile(KernelSpec(WIDE), 3.0, range(-44, 45))
        assert [t for t, _ in row_calls] == [3.0]

    def test_one_row_call_per_correlation_time(self, row_calls):
        times = (0.5, 1.0, 2.25, 3.0)
        points = [(t, x) for t in times for x in (-1, 2, 4)]
        np.linalg.det(kernel_matrix(
            KernelSpec(FiniteConfiguration((0, 2, 5))), points))
        assert sorted(t for t, _ in row_calls) == list(times)
        assert all(ys == [-1, 2, 4] for _, ys in row_calls)

    def test_grid_rows_once_per_second_point(self, row_calls):
        # a W x W kernel grid has W distinct second points: values builds
        # their rows once each, in one call
        xs, ys = range(-3, 4), range(-2, 5)
        ps = [(0.5, x) for x in xs for _ in ys]
        qs = [(1.25, y) for _ in xs for y in ys]
        config = FiniteConfiguration((0, 2, 5))
        got = KernelSpec(config).values(ps, qs)
        assert row_calls == [(1.25, list(ys))]
        assert np.array_equal(got, finite_sums_per_site(
            config, *kernels._split_points(ps), *kernels._split_points(qs))[0])

    def test_density_window_memory(self):
        # 89 diagonal entries at N = 21 in blocks of 2^13 // 21^2 = 18 ys:
        # (18, 21, 21) work arrays of 64 KB each, not one (89, 21, 21) block
        spec = KernelSpec(WIDE)
        density_profile(spec, 3.0, range(-44, 45))  # tables cached untraced
        tracemalloc.start()
        try:
            density_profile(spec, 3.0, range(-44, 45))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 640e3


class TestLatticeSpectralParts:
    def test_principal_term_is_stationary_plus_indicator(self):
        lat = LatticeSpec(2)
        for dt, dx in [(0.0, 0), (0.0, 3), (0.8, 1), (-0.6, 2)]:
            g = lattice_principal_band(lat, dt, dx)
            want = stationary_value(0.5, dt, dx, "prob")
            if dt < 0:
                want += itilde(abs(dx), -dt)
            assert g == pytest.approx(want, abs=1e-12)

    def test_remainder_vanishes_with_time_shift(self):
        lat = LatticeSpec(2)
        vals = [abs(lattice_kernel_remainder(lat, tau, 0, tau, 1))
                for tau in (1.0, 2.0, 4.0, 8.0, 16.0)]
        assert all(b < a for a, b in zip(vals, vals[1:]))
