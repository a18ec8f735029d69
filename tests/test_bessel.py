import math

import numpy as np
import pytest

from ncrw import quadrature
from ncrw.bessel import scaled_bessel_i_all, truncation_radius
from ncrw.selftest import (transition_probability_poisson,
                           transition_probability_quadrature)

from ncrw.errors import ConvergenceError

from oracles import (characteristic_function, itilde, poisson_route_comb,
                     poissonized_walk_probability, scaled_bessel_series,
                     signed_bessel_i)


def transition_probability(t, x, y):
    return itilde(abs(y - x), t)


def test_scaled_bessel_at_zero():
    assert itilde(0, 0.0) == 1.0
    assert itilde(3, 0.0) == 0.0


def test_scaled_bessel_series_value():
    # 0.21526928924893768 frozen from the compensated series oracle
    assert itilde(1, 2.0) == pytest.approx(0.21526928924893768,
                                                    abs=1e-15)
    assert itilde(1, 2.0) == pytest.approx(
        scaled_bessel_series(1, 2.0), abs=1e-15)


@pytest.mark.parametrize("n,t", [(0, 0.3), (2, 1.0), (7, 4.5), (1, 30.0),
                                 (12, 49.0), (0, 55.0), (25, 60.0),
                                 (40, 120.0)])
def test_scaled_bessel_matches_series_oracle(n, t):
    # the oracle's unscaled series is fine up to t ~ 150
    assert itilde(n, t) == pytest.approx(scaled_bessel_series(n, t),
                                                  rel=1e-12)


def test_series_recurrence_crossover_consistent():
    # values straddling the series/backward-recurrence switch agree
    for n in (0, 3, 11):
        lo = itilde(n, 49.999)
        hi = itilde(n, 50.001)
        assert abs(hi - lo) < 1e-4 * lo


def test_large_order_and_time_no_overflow():
    for n, t in [(10_000, 10_000.0), (10_000, 1.0), (0, 10_000.0),
                 (123, 10_000.0)]:
        v = itilde(n, t)
        assert math.isfinite(v)
        assert 0.0 <= v <= 1.0
    # asymptotic check: itilde_0(t) ~ 1/sqrt(2 pi t) * (1 + 1/(8t))
    t = 10_000.0
    ref = (1.0 + 1.0 / (8 * t)) / math.sqrt(2 * math.pi * t)
    assert itilde(0, t) == pytest.approx(ref, rel=1e-7)


def test_scaled_bessel_all_consistent_and_readonly():
    arr = scaled_bessel_i_all(25, 3.7)
    for n in (0, 1, 7, 25):
        assert arr[n] == pytest.approx(itilde(n, 3.7), rel=1e-14)
    with pytest.raises(ValueError):
        arr[0] = 2.0


def test_scaled_bessel_rejects_bad_input():
    with pytest.raises(ValueError):
        scaled_bessel_i_all(-1, 1.0)
    with pytest.raises(ValueError):
        scaled_bessel_i_all(2, -0.5)
    with pytest.raises(ValueError):
        scaled_bessel_i_all(2, math.nan)


def test_signed_bessel_parity_exact():
    for n in range(6):
        for t in (0.5, 2.0, 7.3):
            assert signed_bessel_i(n, -t) == (-1) ** n * signed_bessel_i(n, t)


def test_signed_bessel_value():
    # 1.2660658777520084 frozen from the series oracle
    assert signed_bessel_i(0, 1.0) == pytest.approx(1.2660658777520084,
                                                    rel=1e-14)
    assert signed_bessel_i(2, -3.0) == signed_bessel_i(2, 3.0)
    assert signed_bessel_i(1, -3.0) == -signed_bessel_i(1, 3.0)
    with pytest.raises(ValueError):
        signed_bessel_i(1, math.inf)


def test_transition_probability_initial_condition():
    assert transition_probability(0.0, 5, 5) == 1.0
    assert transition_probability(0.0, 5, 6) == 0.0


def test_transition_probability_value():
    # 0.46575960759364043 frozen from the Poissonization oracle
    assert transition_probability(1.0, 0, 0) == pytest.approx(
        0.46575960759364043, abs=1e-14)
    assert transition_probability(1.0, 0, 0) == pytest.approx(
        poissonized_walk_probability(1.0, 0), abs=1e-14)


def test_transition_probability_symmetry_exact():
    for t in (0.7, 2.5):
        for x, y in [(0, 4), (-3, 2), (5, -5)]:
            assert transition_probability(t, x, y) == \
                transition_probability(t, y, x)


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0, 5.0, 10.0])
def test_three_routes_agree(t):
    for d in range(0, 31, 3):
        a = transition_probability(t, 0, d)
        b = transition_probability_quadrature(t, 0, d)
        c = transition_probability_poisson(t, 0, d)
        assert a == pytest.approx(b, abs=1e-12)
        assert a == pytest.approx(c, abs=1e-12)
        assert b == pytest.approx(c, abs=1e-12)


@pytest.mark.parametrize("t", [0.0, 0.5, 1.0, 3.7, 20.0, 100.0, 700.0, 1000.0])
def test_poisson_route_bit_equal_to_fresh_binomials(t):
    # the binomial carried from term to term is exact: the same floats
    for d in (0, 1, 2, 5, 30, 101):
        assert transition_probability_poisson(t, 0, d) == \
            poisson_route_comb(t, d)


@pytest.mark.parametrize("t", [700.0, 709.0, 740.0, 750.0, 1000.0, 5000.0])
def test_poisson_route_where_e_to_minus_t_underflows(t):
    # e^{-t} is subnormal past t ~ 708 and 0 past t ~ 745
    table = scaled_bessel_i_all(5, t)
    for d in (0, 5):
        assert transition_probability_poisson(t, 0, d) == pytest.approx(
            table[d], rel=1e-12, abs=0)


@pytest.mark.parametrize("t,d", [(0.5, 30), (1.0, 40), (10.0, 60)])
def test_poisson_route_relative_far_out(t, d):
    # terms far below 1e-18: the sum must not stop before j reaches d
    assert transition_probability_poisson(t, 0, d) == pytest.approx(
        scaled_bessel_i_all(d, t)[d], rel=1e-12, abs=0)


def test_poisson_route_refuses_beyond_its_domain():
    with pytest.raises(ValueError, match="5001"):
        transition_probability_poisson(5001.0, 0, 0)


def test_quadrature_node_guard():
    with pytest.raises(ValueError):
        transition_probability_quadrature(-1.0, 0, 0)


@pytest.mark.parametrize("d", [30, 100, 300, 1200])
@pytest.mark.parametrize("t", [1.0, 100.0, 1000.0])
def test_fourier_route_matches_bessel_table_far_out(d, t):
    # the Fourier integral at wide displacements and long times, where the
    # cos(d*k) oscillation needs up to 2048 Gauss-Legendre nodes
    got = transition_probability_quadrature(t, 0, d)
    assert abs(got - float(scaled_bessel_i_all(d, t)[d])) <= 1e-14


@pytest.mark.parametrize("a,b", [(1.0, 0.0), (0.5, 0.5)])
def test_gauss_legendre_refuses_empty_interval(a, b):
    calls = []
    with pytest.raises(ValueError, match="empty integration interval"):
        quadrature.gauss_legendre(lambda x: calls.append(x) or x, a, b)
    assert not calls


def test_gauss_legendre_stops_at_node_cap(monkeypatch):
    # an integrand no rule of at most 2048 nodes resolves: the refinement
    # must give up at the cap without building a larger node table
    monkeypatch.setattr(quadrature, "_leggauss_cache", {})
    with pytest.raises(ConvergenceError, match="2048 nodes"):
        quadrature.gauss_legendre(lambda x: np.cos(1e5 * x), 0.0, 1.0)
    assert max(quadrature._leggauss_cache) == 2048


@pytest.mark.parametrize("shape", [(), (1,), (5,), (2, 3), (3, 1, 4)])
def test_gauss_legendre_levels_match_tensordot(shape):
    # a polynomial integrand is converged at the second level (64 nodes);
    # its value is the tensordot of the weights with the node table, exactly
    coef = np.random.default_rng(len(shape)).normal(size=(3, *shape))

    def f(x):
        x = x.reshape(-1, *[1] * len(shape))
        return coef[0] + coef[1] * x + coef[2] * x ** 5

    x, w = quadrature._leggauss(64)
    want = 1.5 * np.tensordot(w, f(0.5 + 1.5 * x), axes=(0, 0))
    got = quadrature.gauss_legendre(f, -1.0, 2.0)
    assert np.shape(got) == shape
    assert np.array_equal(got, want)
    if not shape:
        assert isinstance(got, float)


@pytest.mark.parametrize("n", [32, 33, 64, 128, 256, 512, 1024, 2048])
def test_gauss_legendre_nodes_match_numpy(n):
    # Newton nodes against numpy's companion-matrix eigensolve; weights
    # agree to 1e-14 up to 512 nodes, 1.1e-13 at 2048
    x, w = quadrature._leggauss(n)
    x_ref, w_ref = np.polynomial.legendre.leggauss(n)
    assert np.abs(x - x_ref).max() <= 1e-15
    assert np.abs(w - w_ref).max() <= (1e-14 if n <= 512 else 2.5e-13)
    assert abs(w.sum() - 2.0) <= 1e-15


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0, 5.0])
def test_normalization(t):
    radius = truncation_radius(t, 1e-16)
    vals = scaled_bessel_i_all(radius, t)
    total = vals[0] + 2.0 * math.fsum(vals[1:])
    assert total == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("s,t", [(0.5, 0.5), (1.0, 2.0)])
def test_semigroup(s, t):
    x, y = 0, 3
    radius = truncation_radius(s + t, 1e-20) + 5
    lhs = math.fsum(
        transition_probability(s, x, z) * transition_probability(t, z, y)
        for z in range(-radius, radius + 1))
    assert lhs == pytest.approx(transition_probability(s + t, x, y),
                                abs=1e-10)


def test_truncation_radius_brackets_decay():
    for t in (0.5, 2.0, 9.0):
        r = truncation_radius(t, 1e-16)
        vals = scaled_bessel_i_all(r + 1, t)
        assert vals[r] >= 1e-16
        assert vals[r + 1] < 1e-16
    assert truncation_radius(0.0, 1e-16) == 0


def test_characteristic_function():
    assert characteristic_function(3.0, 0.0) == 1.0
    assert characteristic_function(1.0, math.pi) == pytest.approx(
        math.exp(-2.0), rel=1e-15)
    # moment generating direction: cos(i a) = cosh(a)
    got = characteristic_function(2.0, 1j)
    assert got == pytest.approx(math.exp(2.0 * (math.cosh(1.0) - 1.0)),
                                rel=1e-15)
    with pytest.raises(ValueError):
        characteristic_function(1.0, complex(math.nan, 0.0))
