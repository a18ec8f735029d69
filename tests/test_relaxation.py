import math

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
                     relaxation_gap)

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

    @pytest.mark.parametrize("taus", [(4.0,), (0.5, 1, 2, 4, 8, 16, 32)])
    def test_band_and_remainder_integrated_once(self, monkeypatch, taus):
        # the principal band is the stationary kernel, so a sweep makes one
        # band call however many taus it has, and one remainder batch
        calls = dict.fromkeys(("_stationary_bands", "_lattice_sums"), 0)
        for name in calls:
            def counted(*args, _f=getattr(kernels, name), _name=name, **kw):
                calls[_name] += 1
                return _f(*args, **kw)
            monkeypatch.setattr(kernels, name, counted)
        relaxation_sweep(LatticeSpec(3), [(0.5, dx) for dx in range(-2, 5)],
                         taus)
        assert calls == {"_stationary_bands": 1, "_lattice_sums": 1}

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
        with pytest.raises(ValueError, match="time coordinate must be finite"):
            relaxation_sweep(LAT2, [(0.5, 0), (dt, 1)], [1.0])

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
