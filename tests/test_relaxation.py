import math
import re

import numpy as np
import pytest

from ncrw import kernels
from ncrw.bessel import scaled_bessel_i_all
from ncrw.kernels import (KernelSpec, StationarySpec, lattice_kernel_remainder,
                          sine_kernel)
from ncrw.martingales import LatticeSpec
from ncrw.quadrature import gauss_legendre
from ncrw.relaxation import RelaxationReport, relaxation_sweep
from oracles import (itilde, lattice_kernel_site_sum, lattice_principal_band,
                     relaxation_gap, relaxation_law)

LAT2 = LatticeSpec(2)


def kernel_value(lattice, p, q):
    return KernelSpec(lattice).values([p], [q])[0]


def gap_non_increasing(report, from_index=0):
    """Per-displacement flag: gaps non-increasing from tau_grid[from_index]."""
    return np.all(np.diff(report.gaps[from_index:], axis=0) <= 1e-12, axis=0)


class TestDecomposition:
    @pytest.mark.parametrize("s,x,t,y", [
        (0.5, 0, 0.5, 1), (2.0, 1, 1.0, 0), (3.0, 0, 4.0, 2), (1.0, 1, 1.0, 1),
    ])
    def test_site_sum_equals_principal_plus_remainder(self, s, x, t, y):
        # the defining site sum against the analytically folded form
        kl = lattice_kernel_site_sum(LAT2, s, x, t, y)
        indicator = itilde(abs(x - y), s - t) if s > t else 0.0
        got = kl + indicator
        want = lattice_principal_band(LAT2, t - s, y - x) + \
            lattice_kernel_remainder(LAT2, s, x, t, y)
        assert got == pytest.approx(want, abs=1e-8)

    def test_spacing_three(self):
        lat = LatticeSpec(3)
        s, x, t, y = 1.0, 0, 2.0, 1
        kl = lattice_kernel_site_sum(lat, s, x, t, y)
        want = lattice_principal_band(lat, t - s, y - x) + \
            lattice_kernel_remainder(lat, s, x, t, y)
        assert kl == pytest.approx(want, abs=1e-8)

    def test_remainder_decreasing_under_shift(self):
        vals = [abs(lattice_kernel_remainder(LAT2, 1.0 + tau, 0, 2.0 + tau, 1))
                for tau in (1.0, 2.0, 4.0, 8.0, 16.0)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_uniformity_window_probe(self):
        # max of |R| over an 11 x 11 displacement window shrinks in tau
        maxima = []
        for tau in (4.0, 8.0, 16.0):
            worst = max(abs(lattice_kernel_remainder(LAT2, tau, x, tau, y))
                        for x in range(-5, 6) for y in range(-5, 6))
            maxima.append(worst)
        assert maxima[0] > maxima[1] > maxima[2]


class TestRelaxationGap:
    def test_initial_odd_site_gap(self):
        # tau = 0 at an odd site: empty density against sine kernel 1/2
        gap = relaxation_gap(LAT2, 0.0, 1, 0.0, 1, 0.0)
        assert gap == pytest.approx(0.5, abs=1e-12)

    def test_gap_equals_remainder_at_equal_time(self):
        for tau in (2.0, 6.0):
            gap = relaxation_gap(LAT2, 0.0, 0, 0.0, 1, tau)
            rem = abs(lattice_kernel_remainder(LAT2, tau, 0, tau, 1))
            assert gap == pytest.approx(rem, abs=1e-8)

    def test_small_at_large_shift(self):
        assert relaxation_gap(LAT2, 0.0, 0, 0.0, 0, 64.0) < 1e-2

    def test_tau_guard(self):
        with pytest.raises(ValueError):
            relaxation_gap(LAT2, 0.0, 0, 0.0, 0, -1.0)


class TestRelaxationSweep:
    def test_equal_time_columns_non_increasing(self):
        report = relaxation_sweep(LAT2, [(0.0, dx) for dx in range(6)],
                                  (1.0, 2.0, 4.0, 8.0, 16.0, 32.0))
        flags = gap_non_increasing(report, from_index=2)  # tau >= 4
        assert flags.all()
        assert isinstance(report, RelaxationReport)
        assert report.gaps.shape == (6, 6)

    def test_limit_matches_sine_kernel_spacing_three(self):
        lat = LatticeSpec(3)
        report = relaxation_sweep(lat, [(0.0, dx) for dx in range(4)],
                                  (32.0, 64.0))
        for j, (_, dx) in enumerate(report.displacements):
            assert report.lattice_values[0, j] == pytest.approx(
                sine_kernel(1.0 / 3.0, dx), abs=1e-2)
            # and the gap keeps shrinking as the shift doubles
            assert report.gaps[1, j] < report.gaps[0, j]

    def test_unit_spacing_rejected(self):
        with pytest.raises(ValueError):
            LatticeSpec(1)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            relaxation_sweep(LAT2, [(0.0, 0)], (2.0, 1.0))
        with pytest.raises(ValueError):
            relaxation_sweep(LAT2, [(0.0, 0)], (-1.0, 1.0))

    @pytest.mark.parametrize("taus", [(math.nan,), (2.0, math.nan),
                                      (math.inf,), (2.0, math.inf)])
    def test_non_finite_tau_rejected(self, taus):
        # NaN passes both order checks; before the finite check it ran the
        # quadrature to ConvergenceError (and inf warned on the way)
        with pytest.raises(ValueError, match="finite and >= 0"):
            relaxation_sweep(LAT2, [(0.0, 0)], taus)

    def test_sweep_matches_cells_one_at_a_time(self):
        # one batch over every cell against one values call per cell
        for lat, dt in ((LAT2, 0.0), (LAT2, -0.5), (LatticeSpec(3), 1.0),
                        (LatticeSpec(6), 0.3), (LatticeSpec(9), -2.25)):
            disp = [(dt, dx) for dx in range(-2, 5)]
            taus = (0.5, 2.0, 8.0, 12.0, 32.0)
            report = relaxation_sweep(lat, disp, taus)
            for i, tau in enumerate(taus):
                for j, (_, dx) in enumerate(disp):
                    s, t = tau + max(-dt, 0.0), tau + max(dt, 0.0)
                    want = kernel_value(lat, (s, 0), (t, dx))
                    assert report.lattice_values[i, j] == pytest.approx(
                        want, abs=1e-15)
            for j, (_, dx) in enumerate(disp):
                want = KernelSpec(StationarySpec(1.0 / lat.a)).values(
                    [(max(-dt, 0.0), 0)], [(max(dt, 0.0), dx)])[0]
                assert report.stationary_values[j] == pytest.approx(
                    want, abs=1e-15)

    @staticmethod
    def sweep_calls(monkeypatch, a, dxs, taus):
        # the band and remainder integrals a sweep calls, counted
        calls = dict.fromkeys(("_stationary_bands", "_remainder_quadrature",
                               "_lattice_sums"), 0)
        for name in calls:
            def counted(*args, _f=getattr(kernels, name), _name=name, **kw):
                calls[_name] += 1
                return _f(*args, **kw)
            monkeypatch.setattr(kernels, name, counted)
        relaxation_sweep(LatticeSpec(a), [(0.5, dx) for dx in dxs], taus)
        return calls

    @pytest.mark.parametrize("taus", [(4.0,), (0.5, 1, 2, 4, 8, 16, 32)])
    def test_band_and_remainder_integrated_once(self, monkeypatch, taus):
        # the principal band is the stationary kernel, so a sweep makes one
        # band call however many taus it has, and a grid of one tile makes
        # one remainder quadrature, with no keys to sort
        assert self.sweep_calls(monkeypatch, 3, range(-2, 5), taus) == {
            "_stationary_bands": 1, "_remainder_quadrature": 1,
            "_lattice_sums": 0}

    def test_one_remainder_quadrature_per_tile(self, monkeypatch):
        # 8 taus x 301 dx on a = 2: tiles of 64 dx x 8 taus (512 cells)
        calls = self.sweep_calls(monkeypatch, 2, range(301),
                                 (0.5, 1, 2, 4, 8, 16, 32, 64))
        assert calls == {"_stationary_bands": 1, "_remainder_quadrature": 5,
                         "_lattice_sums": 0}

    WIDE = [(0.0, dx) for dx in range(301)]
    WIDE_TAUS = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)

    @pytest.mark.parametrize("a,disp,taus,exact", [
        (2, [], (1.0, 4.0), True),
        (2, [(0.0, 1)], (), True),
        (3, [(0.5, 3), (0.5, -2), (0.5, 3), (0.5, 0), (0.5, -7)],
         (0.5, 4.0, 16.0), False),
        (5, [(0.0, 1), (-0.5, 2), (1.0, 0), (0.0, -3), (-0.5, 2)],
         (0.0, 2.0, 8.0), False),
        (6, [(0.3, dx) for dx in range(-3, 9)], (0.5, 2.0, 8.0, 32.0), True),
        (9, [(-2.25, dx) for dx in range(-3, 9)], (0.5, 2.0, 8.0, 32.0), True),
        (2, WIDE, WIDE_TAUS, False),
        (6, WIDE, WIDE_TAUS, False),
    ])
    def test_sweep_is_stationary_plus_remainder(self, a, disp, taus, exact):
        # the sweep's tiles against lattice_kernel_remainder on the whole
        # grid, whose keys _lattice_sums sorts and blocks: a one-tile sweep
        # with ascending dx has the same columns in the same places; across
        # tiles a column may sit elsewhere in its BLAS product
        lat = LatticeSpec(a)
        report = relaxation_sweep(lat, disp, taus)
        dt, dx = np.array(disp, dtype=float).reshape(-1, 2).T
        tau = np.array(taus, dtype=float)[:, None]
        want = report.stationary_values + lattice_kernel_remainder(
            lat, tau + np.maximum(-dt, 0.0), 0, tau + np.maximum(dt, 0.0),
            dx.astype(np.int64))
        assert report.lattice_values.shape == (len(taus), len(disp))
        if exact:
            assert np.array_equal(report.lattice_values, want)
        else:
            assert np.all(np.abs(report.lattice_values - want)
                          <= 1e-15 * np.maximum(1.0, np.abs(want)))

    @pytest.mark.parametrize("a,dt", [(2, 0.5), (5, -1.0), (6, 0.0)])
    def test_stationary_values_are_kernel_values(self, a, dt):
        # the sweep calls the band integral directly, on the same columns
        lat = LatticeSpec(a)
        dx = list(range(-2, 7))
        report = relaxation_sweep(lat, [(dt, v) for v in dx], [0.0, 4.0])
        want = KernelSpec(StationarySpec(lat.density)).values(
            [(max(-dt, 0.0), 0)] * len(dx), [(max(dt, 0.0), v) for v in dx])
        assert np.array_equal(report.stationary_values, want)

    @pytest.mark.parametrize("dt", [math.nan, math.inf, -math.inf])
    def test_non_finite_dt_refused(self, monkeypatch, dt):
        def unreachable(*args, **kw):
            raise AssertionError("no band integral for a refused sweep")

        monkeypatch.setattr(kernels, "_stationary_bands", unreachable)
        monkeypatch.setattr(kernels, "_lattice_sums", unreachable)
        monkeypatch.setattr(kernels, "_remainder_quadrature", unreachable)
        with pytest.raises(ValueError, match="time coordinate must be finite"):
            relaxation_sweep(LAT2, [(0.5, 0), (dt, 1)], [1.0])

    @pytest.mark.parametrize("dx", [1.5, -0.25, math.nan, math.inf])
    def test_non_integral_dx_refused(self, monkeypatch, dx):
        # 1.5 was truncated to the dx = 1 row and reported as (0.0, 1)
        def unreachable(*args, **kw):
            raise AssertionError("no band integral for a refused sweep")

        monkeypatch.setattr(kernels, "_stationary_bands", unreachable)
        monkeypatch.setattr(kernels, "_remainder_quadrature", unreachable)
        with pytest.raises(ValueError, match=f"must be an integer, got {dx}"):
            relaxation_sweep(LAT2, [(0.0, 0), (0.0, dx)], (1.0,))

    @pytest.mark.parametrize("s,x,t,y,what", [
        (1.0, 0.5, 1.0, 2, "space coordinate must be an integer, got 0.5"),
        (1.0, 0, 1.0, [2, 2.5], "must be an integer, got 2.5"),
        (-1.0, 0, 1.0, 2, "time coordinate must be finite and >= 0, got -1.0"),
        (math.inf, 0, 1.0, 2, "finite and >= 0, got inf"),
        (math.nan, 0, 1.0, 2, "finite and >= 0, got nan"),
        (1.0, 0, [1.0, -2.0], 2, "finite and >= 0, got -2.0")])
    def test_remainder_refuses_bad_points(self, monkeypatch, s, x, t, y, what):
        # x = 0.5 answered the x = 0 value, s = -1 and s = inf answered
        # 2.2e-17 and 0.0, and s = nan ran the full 2048-node scan
        def unreachable(*args, **kw):
            raise AssertionError("no quadrature for refused points")

        monkeypatch.setattr(kernels, "_remainder_quadrature", unreachable)
        with pytest.raises(ValueError, match=re.escape(what)):
            lattice_kernel_remainder(LAT2, s, x, t, y)

    @pytest.mark.parametrize("a,dt", [(2, 0.5), (5, -1.0), (6, 0.0)])
    def test_lattice_values_are_stationary_plus_remainder(self, a, dt):
        lat = LatticeSpec(a)
        dx = np.arange(-2, 7)
        tau = np.array([0.0, 3.0, 16.0])[:, None]
        report = relaxation_sweep(lat, [(dt, v) for v in dx], tau.ravel())
        rem = lattice_kernel_remainder(lat, tau + max(-dt, 0.0), 0,
                                       tau + max(dt, 0.0), dx)
        assert np.array_equal(report.lattice_values,
                              report.stationary_values + rem)
        assert np.array_equal(report.gaps, np.abs(
            report.lattice_values - report.stationary_values))


class TestRelaxationLaw:
    # the remainder against the leading Watson term of oracles.relaxation_law
    TAUS = (1024.0, 2048.0, 4096.0, 8192.0)

    @pytest.mark.parametrize("a", [2, 3, 5])
    @pytest.mark.parametrize("dt", [-1.0, 0.0, 1.0])
    def test_remainder_follows_the_law(self, a, dt):
        # the next term is O(tau^-2), so tau * |R/law - 1| stays bounded
        # (it is constant in tau, at most 5.24 here)
        lat = LatticeSpec(a)
        report = relaxation_sweep(lat, [(dt, dx) for dx in range(3)],
                                  self.TAUS)
        rem = report.lattice_values - report.stationary_values
        checked = 0
        for i, tau in enumerate(self.TAUS):
            s, t = tau + max(-dt, 0.0), tau + max(dt, 0.0)
            for dx in range(3):
                law = relaxation_law(lat, s, 0, t, dx)
                if abs(law) * (s + t) < 1e-9:
                    continue  # C = 0: the law's leading term vanishes
                assert tau * abs(rem[i, dx] / law - 1.0) <= 8.0
                checked += 1
        assert checked == len(self.TAUS) * (2 if a == 2 else 3)

    @pytest.mark.xfail(strict=True, reason="at tau = 32768 the integrand's "
                       "boundary layer at lam = pi falls between the nodes of "
                       "the first two levels, which agree on 0: the sweep "
                       "reports a gap of 0 without error")
    def test_remainder_resolved_beyond_8192(self):
        report = relaxation_sweep(LAT2, [(0.0, 0)], (32768.0,))
        rem = report.lattice_values[0, 0] - report.stationary_values[0]
        law = relaxation_law(LAT2, 32768.0, 0, 32768.0, 0)  # 4.86e-6
        assert 32768.0 * abs(rem / law - 1.0) <= 8.0


class TestStationaryRewrite:
    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("dx", [0, 1, 2, 5])
    def test_transition_probability_frequency_form(self, t, dx):
        # circle average rewritten as a [0, 1] frequency integral, against
        # the Bessel table
        lhs = float(scaled_bessel_i_all(dx, t)[dx])

        def integrand(u):
            return np.cos(u * math.pi * dx) * \
                np.exp(-(1.0 - np.cos(u * math.pi)) * t)

        rhs = gauss_legendre(integrand, 0.0, 1.0)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_stationary_equal_time_is_sine_kernel_exactly(self):
        for rho in (0.5, 1.0 / 3.0):
            for n in range(-10, 11):
                got = KernelSpec(StationarySpec(rho)).values([(0.0, 0)],
                                                             [(0.0, n)])[0]
                assert got == sine_kernel(rho, n)

    def test_stationary_matches_frequency_integral_route(self):
        # equal-time closed form against the band-limited integral
        for rho in (0.5, 0.3):
            for n in (0, 1, 3):
                def integrand(lam):
                    return np.cos(lam * n)

                want = gauss_legendre(integrand, 0.0, rho * math.pi) / math.pi
                assert sine_kernel(rho, n) == pytest.approx(want, abs=1e-12)
