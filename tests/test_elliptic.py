"""Theta kernel tests: brute-force oracles, symmetries, derived kernels."""

import cmath
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ellrs import (
    Characteristic,
    DegenerateWeights,
    ModelParams,
    NonconvergentSeries,
    PoleAtLatticePoint,
    TorusParams,
    dedekind_eta,
    lattice_distance,
    phi_kernel,
    theta_band,
    theta_char,
    theta_char_deriv,
    theta_level,
    theta_odd,
    theta_odd_deriv,
    theta_odd_pair,
    theta_table,
    zeta_log,
)
from ellrs.elliptic import (_series_window, _theta_pair, _window_coefficients, lattice_guard,
                            lattice_reduce)
from conftest import PI, rand_complex, theta_brute, theta_brute_deriv

ODD = Characteristic(Fraction(1, 2), Fraction(1, 2))
EVEN = Characteristic(Fraction(0), Fraction(0))


class TestThetaChar:
    def test_odd_vanishes_at_origin(self):
        assert abs(theta_char(ODD, 0.0, 1j)) < 1e-13

    def test_even_characteristic_symmetric(self):
        a = theta_char(EVEN, 0.3, 1j)
        b = theta_char(EVEN, -0.3, 1j)
        assert abs(a - b) < 1e-13 * abs(a)

    def test_direct_summation_oracle(self):
        val = theta_char(ODD, 0.3, 1j)
        ref = theta_brute(0.5, 0.5, 0.3, 1j)
        assert abs(val - ref) < 1e-12 * abs(ref)

    def test_reduction_consistency(self):
        # with and without internal reduction, |Im z| <= Im tau
        rng = np.random.default_rng(1)
        for _ in range(100):
            z = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
            val = theta_char(ODD, z, 1j)
            ref = theta_brute(0.5, 0.5, z, 1j)
            assert abs(val - ref) <= 1e-11 * max(abs(ref), 1e-30)

    def test_quasi_periodicity_sweep(self):
        rng = np.random.default_rng(2)
        torus = TorusParams(1j)
        for _ in range(100):
            z = complex(rng.uniform(-1.5, 1.5), rng.uniform(-2, 2))
            v = theta_odd(z, torus)
            v1 = theta_odd(z + 1, torus)
            vtau = theta_odd(z + 1j, torus)
            assert abs(v1 + v) < 1e-10 * max(abs(v), abs(v1))
            pref = -cmath.exp(-1j * PI * 1j - 2j * PI * z)
            assert abs(vtau - pref * v) < 1e-10 * max(abs(vtau), abs(pref * v))

    def test_series_cap_raises(self):
        with pytest.raises(NonconvergentSeries):
            theta_char(ODD, 0.1, 1e-5j)

    def test_value_overflow_raises(self):
        with pytest.raises(NonconvergentSeries):
            theta_char(ODD, 200j, 1j)

    def test_rejects_lower_half_plane(self):
        with pytest.raises(ValueError):
            theta_char(ODD, 0.1, -1j)


class TestThetaCharDeriv:
    def test_odd_deriv_at_origin_matches_fd(self):
        d = theta_char_deriv(ODD, 0.0, 1j)
        h = 1e-6
        fd = (theta_char(ODD, h, 1j) - theta_char(ODD, -h, 1j)) / (2 * h)
        assert abs(d) > 1.0  # theta'(0) = -2*pi*etaD^3 != 0
        assert abs(d - fd) < 1e-7 * abs(d)

    def test_even_deriv_vanishes_at_origin(self):
        assert abs(theta_char_deriv(EVEN, 0.0, 1j)) < 1e-13

    def test_direct_summation_deriv_oracle(self):
        z = 0.41 + 0.1j
        val = theta_char_deriv(ODD, z, 1j)
        ref = theta_brute_deriv(0.5, 0.5, z, 1j)
        assert abs(val - ref) < 1e-12 * abs(ref)

    def test_fd_consistency_sweep(self):
        rng = np.random.default_rng(3)
        h = 1e-6
        for _ in range(25):
            z = rand_complex(rng, 0.8)
            d = theta_char_deriv(ODD, z, 1j)
            fd = (theta_char(ODD, z + h, 1j) - theta_char(ODD, z - h, 1j)) / (2 * h)
            assert abs(d - fd) < 1e-6 * max(abs(d), 1.0)


class TestThetaOdd:
    def test_zero_at_origin(self, torus_i):
        assert abs(theta_odd(0.0, torus_i)) < 1e-13

    def test_oddness(self, torus_i):
        assert abs(theta_odd(0.25, torus_i) + theta_odd(-0.25, torus_i)) < 1e-13

    def test_unit_shift_vs_direct_summation(self, torus_i):
        lhs = theta_odd(0.25 + 1, torus_i)
        rhs = -theta_brute(0.5, 0.5, 0.25, 1j)
        assert abs(lhs - rhs) < 1e-12 * abs(rhs)


class TestThetaOddPair:
    """The array kernel against the scalar kernels it must reproduce."""

    @pytest.mark.parametrize("tau", [0.5j, 1j, 2j, -0.3 + 0.5j, 2.4 + 1j])
    def test_matches_scalar_elementwise(self, tau):
        torus = TorusParams(tau)
        # generic points (off the lattice) out to |Im z| = 10
        x = np.linspace(-1.5, 1.5, 7) + 0.013
        y = np.linspace(-10, 10, 21) + 0.007
        z = x[:, None] + 1j * y[None, :]
        value, deriv = theta_odd_pair(z, torus)
        for idx in np.ndindex(z.shape):
            want = theta_odd(z[idx], torus)
            want_d = theta_odd_deriv(z[idx], torus)
            assert abs(value[idx] - want) <= 1e-15 * abs(want)
            assert abs(deriv[idx] - want_d) <= 1e-15 * abs(want_d)

    @pytest.mark.parametrize("shape", [(), (1,), (5,), (2, 3, 4)])
    def test_keeps_shape(self, torus_i, shape):
        rng = np.random.default_rng(7)
        z = rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape)
        value, deriv = theta_odd_pair(z, torus_i)
        assert value.shape == shape and deriv.shape == shape

    def test_nonconvergent_exactly_where_scalar(self, torus_i):
        # |theta| overflows from Im z of about 14 at tau = i
        zs = 0.1 + 1j * np.arange(12.0, 16.0, 0.125)
        scalar_raises = []
        for z in zs:
            try:
                theta_odd(z, torus_i)
                scalar_raises.append(False)
            except NonconvergentSeries:
                scalar_raises.append(True)
        assert any(scalar_raises) and not all(scalar_raises)
        for z, raises in zip(zs, scalar_raises):
            if raises:
                with pytest.raises(NonconvergentSeries):
                    theta_odd_pair(np.array([z]), torus_i)
            else:
                theta_odd_pair(np.array([z]), torus_i)
        with pytest.raises(NonconvergentSeries):
            theta_odd_pair(zs, torus_i)
        # the series cap depends on tau alone
        with pytest.raises(NonconvergentSeries):
            theta_odd_pair(np.array([0.1]), TorusParams(1e-5j))

    def test_table_layout(self, torus_i):
        x = np.array([0.11 + 0.03j, 0.43 - 0.06j, -0.37 + 0.09j])
        y = np.array([0.06 + 0.01j, 0.39 - 0.08j])
        offsets = (-0.1, 0, 0.1 + 0.2j)
        value, deriv = theta_table(x, y, offsets, torus_i)
        assert value.shape == (3, 3, 2)
        for d, delta in enumerate(offsets):
            for k in range(3):
                for s in range(2):
                    z = x[k] - y[s] + delta
                    want, want_d = theta_odd(z, torus_i), theta_odd_deriv(z, torus_i)
                    assert abs(value[d, k, s] - want) <= 1e-15 * abs(want)
                    assert abs(deriv[d, k, s] - want_d) <= 1e-15 * abs(want_d)

    def test_peak_memory_of_a_batched_call(self, torus_i):
        # the window lives in one [elements x window] array of powers, 13 per element at tau = i
        rng = np.random.default_rng(11)
        z = rng.uniform(-2, 2, 20_000) + 1j * rng.uniform(-2, 2, 20_000)
        theta_odd_pair(z[:2], torus_i)  # fill the coefficient cache outside the trace
        tracemalloc.start()
        try:
            value, deriv = theta_odd_pair(z, torus_i)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * (value.nbytes + deriv.nbytes)

    def test_window_coefficients_cached_read_only(self):
        torus = TorusParams(0.37 + 1.3j)
        theta_odd_pair(np.array([0.1, 0.2j]), torus)
        hits = _window_coefficients.cache_info().hits
        first = _window_coefficients(torus.tau, _series_window(torus.tau.imag))
        theta_odd_pair(np.array([0.3 - 0.1j]), torus)
        assert _window_coefficients.cache_info().hits == hits + 2
        second = _window_coefficients(torus.tau, _series_window(torus.tau.imag))
        for old, new in zip(first, second):
            assert old is new and not old.flags.writeable

    def test_lattice_distance_elementwise(self):
        rng = np.random.default_rng(8)
        p, q = np.meshgrid(np.arange(-10, 11), np.arange(-10, 11))
        for tau in (1j, 0.45 + 0.6j):
            z = rng.uniform(-3, 3, (4, 5)) + 1j * rng.uniform(-3, 3, (4, 5))
            z[0, 0] = 2 - tau
            got = lattice_distance(z, tau)
            assert got.shape == z.shape and got[0, 0] < 1e-15
            # brute force: the nearest of the points p + q*tau with |p|, |q| <= 10
            want = np.abs(z[..., None] - (p + q * tau).ravel()).min(axis=-1)
            assert np.abs(got - want).max() < 1e-14
            assert abs(lattice_distance(complex(z[1, 2]), tau) - want[1, 2]) < 1e-14

    @pytest.mark.parametrize("tau", [2.5 + 0.3j, -3.2 + 0.8j, 0.4 + 0.05j])
    def test_lattice_distance_exact_for_skewed_tau(self, tau):
        # a 3x3 neighbour check overstates up to 41 % of these distances, by up to 0.36
        rng = np.random.default_rng(9)
        z = rng.uniform(-3, 3, 4000) + 1j * rng.uniform(-3, 3, 4000)
        p = np.arange(-90, 91)
        want = np.full(z.shape, np.inf)
        for q in range(-90, 91):
            want = np.minimum(want, np.abs(z[:, None] - q * tau - p).min(axis=1))
        assert np.abs(lattice_distance(z, tau) - want).max() <= 1e-14

    def test_lattice_distance_unchanged_at_square_tau(self):
        # at tau = i the rows |q| <= 1 give the 3x3 neighbour check bit for bit
        rng = np.random.default_rng(10)
        z = rng.uniform(-3, 3, 4000) + 1j * rng.uniform(-3, 3, 4000)
        z0 = lattice_reduce(z, 1j)[0]
        cells = np.array([dp + dq * 1j for dp in (-1, 0, 1) for dq in (-1, 0, 1)])
        assert np.array_equal(lattice_distance(z, 1j), np.abs(z0[:, None] - cells).min(axis=1))

    def test_lattice_guard_names_first_offender(self):
        with pytest.raises(DegenerateWeights, match=r"w=\(2\+1j\) is within 1e-10"):
            lattice_guard([0.3, 2 + 1j, 1 + 2j], 1j, "w", error=DegenerateWeights)
        lattice_guard([0.3, 0.5j], 1j, "w")


def _mp_theta_pair(mp, a, b, z, tau):
    """(theta[a,b], d/dz theta[a,b]) at 40 digits: the direct series over m_peak +- 30."""
    a, b, z, tau = mp.mpf(a), mp.mpf(b), mp.mpc(z), mp.mpc(tau)
    peak = int(mp.nint(-a - mp.im(z + b) / mp.im(tau)))
    value = deriv = mp.mpc(0)
    for m in range(peak - 30, peak + 31):
        term = mp.exp(1j * mp.pi * (m + a) ** 2 * tau + 2j * mp.pi * (m + a) * (z + b))
        value += term
        deriv += 2j * mp.pi * (m + a) * term
    return complex(value), complex(deriv)


# the odd, (1/2, 0) and (0, 0) characteristics and the band characteristics of n = 3, 6, 8
_ORACLE_CHARS = [(0.5, 0.5)] + [
    (float(a), 0.0)
    for a in sorted({Fraction(0)} | {Fraction(n - 2 * j, 2 * n) for n in (3, 6, 8)
                                     for j in range(n)})
]


class TestMpmathOracle:
    """_theta_pair against a 40-digit direct sum that shares none of its code."""

    @pytest.mark.parametrize("tau", [0.5j, 1j, 0.3 + 1.2j, -0.4 + 0.8j, 2j, 0.5 + 3j, 8j])
    def test_value_and_derivative(self, tau):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(12)
        z = rng.uniform(-2, 2, 5) + 2.5j * tau.imag * rng.uniform(-1, 1, 5)
        with mpmath.workdps(40):
            for a, b in _ORACLE_CHARS:
                value, deriv = _theta_pair(a, b, z, tau)
                for k in range(z.size):
                    want, want_d = _mp_theta_pair(mpmath.mp, a, b, z[k], tau)
                    assert abs(value[k] - want) <= 1e-13 * abs(want)
                    assert abs(deriv[k] - want_d) <= 1e-13 * abs(want_d)


_TAUS = st.builds(complex, st.floats(-2, 2), st.floats(0.5, 4))
_CELLS = st.floats(-2, 2)


class TestThetaProperties:
    """Oddness and quasi-periodicity of (theta, theta') at generated tau and z.

    z = x + y*tau lies within two cells of the origin, lattice points included, so
    each residual is scaled by (|theta| + |theta'|)(1 + |z| + |tau|): the size of the
    rounding error of the argument times the local slope, where theta itself may vanish.
    """

    @staticmethod
    def _pairs(tau, x, y):
        z = x + y * tau
        value, deriv = theta_odd_pair(np.array([z, -z, z + 1, z + tau]), TorusParams(tau))
        scale = 1e-12 * (abs(value[0]) + abs(deriv[0])) * (1 + abs(z) + abs(tau))
        return z, value, deriv, scale

    @settings(derandomize=True, deadline=None)
    @given(tau=_TAUS, x=_CELLS, y=_CELLS)
    def test_odd(self, tau, x, y):
        _, value, deriv, scale = self._pairs(tau, x, y)
        assert abs(value[1] + value[0]) <= scale
        assert abs(deriv[1] - deriv[0]) <= scale

    @settings(derandomize=True, deadline=None)
    @given(tau=_TAUS, x=_CELLS, y=_CELLS)
    def test_unit_shift(self, tau, x, y):
        _, value, deriv, scale = self._pairs(tau, x, y)
        assert abs(value[2] + value[0]) <= scale
        assert abs(deriv[2] + deriv[0]) <= scale

    @settings(derandomize=True, deadline=None)
    @given(tau=_TAUS, x=_CELLS, y=_CELLS)
    def test_tau_shift(self, tau, x, y):
        # theta(z + tau) = f(z) theta(z), f = -exp(-i pi tau - 2 pi i z), so
        # theta'(z + tau) = f(z) (theta'(z) - 2 pi i theta(z))
        z, value, deriv, scale = self._pairs(tau, x, y)
        f = -cmath.exp(-1j * PI * tau - 2j * PI * z)
        assert abs(value[3] - f * value[0]) <= abs(f) * scale
        assert abs(deriv[3] - f * (deriv[0] - 2j * PI * value[0])) <= abs(f) * scale


class TestThetaFamilies:
    def test_band_n1_definition_collapse(self, torus_i):
        params = ModelParams(1, 0.23, torus_i)
        z = 0.2 + 0.1j
        want = theta_char(Characteristic(Fraction(1, 2), Fraction(0)), z + 0.5, 1j)
        assert abs(theta_band(0, z, params) - want) < 1e-13 * abs(want)

    def test_band_direct_oracle(self, params3):
        # theta^(0) at n=3: characteristics (1/2, 0), argument z + 1/2, modulus 3*tau
        val = theta_band(0, 0.2, params3)
        ref = theta_brute(0.5, 0.0, 0.2 + 0.5, 3j)
        assert abs(val - ref) < 1e-12 * abs(ref)

    def test_band_index_mod_n(self, params3):
        rng = np.random.default_rng(4)
        for _ in range(5):
            z = rand_complex(rng)
            a = theta_band(3, z, params3)
            b = theta_band(0, z, params3)
            assert abs(a - b) < 1e-13 * max(abs(a), 1e-30)

    def test_level_direct_oracle(self, params3):
        # theta_1 at n=3: characteristics (1/2 - 1/3, 0), argument 3*(z+1/2)
        val = theta_level(1, 0.1, params3)
        ref = theta_brute(0.5 - 1.0 / 3.0, 0.0, 3 * (0.1 + 0.5), 3j)
        assert abs(val - ref) < 1e-12 * abs(ref)

    def test_level_band_substitution(self, params3):
        # theta_j(z) = theta^(j)(n*z + (n-1)/2) by matching arguments
        rng = np.random.default_rng(5)
        n = params3.n
        for _ in range(10):
            z = rand_complex(rng)
            a = theta_level(2, z, params3)
            b = theta_band(2, n * z + (n - 1) / 2.0, params3)
            assert abs(a - b) < 1e-12 * max(abs(a), 1e-30)

    def test_level_index_mod_n(self, params2):
        z = 0.17 - 0.05j
        a = theta_level(2, z, params2)
        b = theta_level(0, z, params2)
        assert abs(a - b) < 1e-13 * max(abs(a), 1e-30)


class TestBandArrays:
    """Array j and z through theta_band / theta_level against scalar calls."""

    @pytest.mark.parametrize("tau", [0.5j, 1j, 0.3 + 1.2j])
    @pytest.mark.parametrize("func", [theta_band, theta_level])
    def test_matches_scalar_elementwise(self, tau, func):
        rng = np.random.default_rng(12)
        for n in (1, 2, 3, 5):
            params = ModelParams(n, 0.23, TorusParams(tau))
            j = np.arange(-n, 2 * n)[:, None]  # indices below 0 and above n - 1 too
            z = rng.uniform(-1.5, 1.5, (1, 6)) + 1j * rng.uniform(-1.5, 1.5, (1, 6))
            got = func(j, z, params)
            assert got.shape == (j.size, z.size)
            for (a, b), value in np.ndenumerate(got):
                want = func(int(j[a, 0]), complex(z[0, b]), params)
                assert isinstance(want, complex)
                assert abs(value - want) <= 1e-15 * abs(want)

    @pytest.mark.parametrize("func, im_z", [
        (theta_band, np.arange(22.0, 30.0, 0.25)),
        (theta_level, np.arange(7.0, 10.0, 0.125)),
    ])
    def test_nonconvergent_exactly_where_scalar(self, params3, func, im_z):
        zs = 0.1 + 1j * im_z
        scalar_raises = []
        for z in zs:
            try:
                func(1, z, params3)
                scalar_raises.append(False)
            except NonconvergentSeries:
                scalar_raises.append(True)
        assert any(scalar_raises) and not all(scalar_raises)
        bands = np.arange(params3.n)
        for z, raises in zip(zs, scalar_raises):
            if raises:
                with pytest.raises(NonconvergentSeries):
                    func(bands, np.array([z]), params3)
            else:
                func(bands, np.array([z]), params3)
        with pytest.raises(NonconvergentSeries):
            func(bands[:, None], zs[None, :], params3)


class TestDedekindEta:
    def test_closed_form_at_i(self):
        want = math.gamma(0.25) / (2 * PI ** 0.75)
        got = dedekind_eta(1j)
        assert abs(got - want) < 1e-13

    def test_long_product_oracle(self):
        # independent 200-term product
        tau = 2j
        q = cmath.exp(2j * PI * tau)
        prod = 1.0 + 0j
        for m in range(1, 201):
            prod *= 1 - q ** m
        want = cmath.exp(1j * PI * tau / 12) * prod
        assert abs(dedekind_eta(tau) - want) < 1e-14

    def test_modular_transform(self):
        tau = 2j
        lhs = dedekind_eta(-1 / tau)
        rhs = cmath.sqrt(-1j * tau) * dedekind_eta(tau)
        assert abs(lhs - rhs) < 1e-13


class TestZetaAndPhi:
    def test_zeta_real_on_real_axis(self, torus_i):
        assert abs(zeta_log(0.5, torus_i).imag) < 1e-12

    def test_zeta_odd(self, torus_i):
        z = 0.23 + 0.11j
        assert abs(zeta_log(-z, torus_i) + zeta_log(z, torus_i)) < 1e-11

    def test_zeta_pole_guard(self, torus_i):
        with pytest.raises(PoleAtLatticePoint):
            zeta_log(1e-12, torus_i)

    def test_phi_symmetric(self, torus_i):
        a = phi_kernel(0.2, 0.31, torus_i)
        b = phi_kernel(0.31, 0.2, torus_i)
        assert abs(a - b) < 1e-13 * abs(a)

    def test_phi_functional_relation(self, torus_i):
        # theta'(0) * Phi_z(x) Phi_z(y) = Phi_z(x+y) * (zeta sum); the bare
        # identity without theta'(0) fails at order one
        rng = np.random.default_rng(6)
        tp0 = theta_odd_deriv(0.0, torus_i)
        for _ in range(10):
            z, x, y = (rand_complex(rng, 0.4) for _ in range(3))
            lhs = tp0 * phi_kernel(z, x, torus_i) * phi_kernel(z, y, torus_i)
            rhs = phi_kernel(z, x + y, torus_i) * (
                zeta_log(z, torus_i) + zeta_log(x, torus_i) + zeta_log(y, torus_i)
                - zeta_log(z + x + y, torus_i)
            )
            assert abs(lhs - rhs) < 1e-9 * (abs(lhs) + abs(rhs))

    def test_phi_zero_when_arguments_cancel(self, torus_i):
        val = phi_kernel(0.2, -0.2, torus_i)
        assert abs(val) < 1e-12

    def test_phi_pole_guard(self, torus_i):
        with pytest.raises(PoleAtLatticePoint):
            phi_kernel(1e-12, 0.3, torus_i)


class TestDomainTypes:
    def test_torus_rejects_bad_tau(self):
        with pytest.raises(ValueError):
            TorusParams(1.0 + 0j)
        with pytest.raises(ValueError):
            TorusParams(0.3 - 1j)

    def test_characteristic_reduces_fractions(self):
        ch = Characteristic(Fraction(2, 4), Fraction(-3, 6))
        assert ch.a == Fraction(1, 2)
        assert ch.b == Fraction(-1, 2)
        assert ch.b.denominator > 0

    def test_model_params_rejects_lattice_eta(self, torus_i):
        with pytest.raises(ValueError):
            ModelParams(2, 1.0 + 0j, torus_i)
        with pytest.raises(ValueError):
            ModelParams(2, 1e-12, torus_i)

    def test_model_params_rejects_lattice_eta_over_n(self, torus_i):
        # eta itself clears the tolerance but eta/3 does not
        with pytest.raises(ValueError):
            ModelParams(3, 3.0 + 1.2e-10, torus_i)

    def test_model_params_rejects_bad_n(self, torus_i):
        with pytest.raises(ValueError):
            ModelParams(0, 0.23, torus_i)

    @pytest.mark.parametrize("tau", [complex(math.nan, 1), complex(math.inf, 1),
                                     complex(0, math.inf)])
    def test_nonfinite_tau_refused(self, tau):
        # the kernels that take a raw tau too: dedekind_eta's product never ended on NaN
        for call in (TorusParams, dedekind_eta, lambda t: theta_char(ODD, 0.1, t)):
            with pytest.raises(ValueError, match="tau must be finite"):
                call(tau)

    @pytest.mark.parametrize("eta", [math.nan, math.inf, complex(0.23, math.nan)])
    def test_model_params_rejects_nonfinite_eta(self, torus_i, eta):
        with pytest.raises(ValueError, match="eta must be finite"):
            ModelParams(2, eta, torus_i)

    def test_model_params_rejects_bool_n(self, torus_i):
        # bool is a subclass of int, so True would otherwise read as n = 1
        with pytest.raises(ValueError, match="n must be a positive integer"):
            ModelParams(True, 0.23, torus_i)
