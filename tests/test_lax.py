"""Lax operator, Backlund coefficient and generating function tests."""

import cmath
import math

import numpy as np
import pytest

from ellrs import (
    ModelParams,
    NonconvergentSeries,
    PathThroughZero,
    PhaseConfig,
    PoleAtLatticePoint,
    TorusParams,
    Trajectory,
    WeightVector,
    backlund_C,
    backlund_t,
    backlund_ttilde,
    eigenvector_residual,
    generating_function,
    kernel_residual,
    ks_identity_residual,
    lax_classical,
    lax_equation_residual,
    lax_gauge,
    m_matrix,
    make_backlund_step,
    phi_inverse,
    phi_matrix,
    phi_kernel,
    r_matrix,
    s_mu,
    theta_odd,
)
from conftest import rand_complex


@pytest.fixture(scope="module")
def fixture_step(fixture_lam, fixture_mu):
    return make_backlund_step(fixture_lam, fixture_mu, 0.1, 0.17 + 0.05j)


def random_step(rng, params, c_scale=0.3):
    """Backlund data with mu a mild deformation of lambda (bounded condition)."""
    from test_intertwiners import random_weights

    while True:
        try:
            lam = random_weights(rng, params)
            mu = WeightVector(
                lam.lam - params.eta / params.n
                + 0.1 * np.array([rand_complex(rng, 0.5) for _ in range(params.n)]),
                params,
            )
            c = rand_complex(rng, c_scale)
            u = rand_complex(rng, 0.4)
            return make_backlund_step(lam, mu, c, u)
        except Exception:
            continue


class TestLaxClassical:
    def test_matches_naive_double_sum(self, fixture_step):
        z, v = 0.31 + 0.11j, fixture_step.v
        cfg = fixture_step.source
        lam = cfg.lam
        eta = lam.params.eta
        got = lax_classical(z, cfg, v)
        pb = phi_inverse(z - v - eta, lam)
        p0 = phi_matrix(z - v, lam).entries
        n = lam.n
        want = np.zeros((n, n), dtype=complex)
        for j in range(n):
            for i in range(n):
                for k in range(n):
                    want[j, i] += pb[k, j] * p0[i, k] * cfg.t[k]
        assert np.abs(got - want).max() < 1e-11 * np.abs(want).max()

    def test_det_zero_at_v(self, fixture_step):
        v = fixture_step.v
        cfg = fixture_step.source
        near = abs(np.linalg.det(lax_classical(v + 1e-6, cfg, v)))
        far = abs(np.linalg.det(lax_classical(v + 0.1, cfg, v)))
        assert near < 1e-4 * far

    def test_n1_closed_form(self, torus_i):
        params = ModelParams(1, 0.23, torus_i)
        lam = WeightVector(np.array([0.21 + 0.02j]), params)
        cfg = PhaseConfig(lam, np.array([1.7 - 0.4j]))
        z, v = 0.4 + 0.1j, 0.05
        got = lax_classical(z, cfg, v)[0, 0]
        want = cfg.t[0] * theta_odd(z - v, torus_i) / theta_odd(z - v - 0.23, torus_i)
        assert abs(got - want) < 1e-11 * abs(want)


class TestLaxGauge:
    def test_conjugation_consistency(self, fixture_step):
        z, v = 0.31 + 0.11j, fixture_step.v
        cfg = fixture_step.source
        lam = cfg.lam
        eta = lam.params.eta
        lf = lax_classical(z, cfg, v)
        p = phi_matrix(z - v - eta, lam).entries
        pb = phi_inverse(z - v - eta, lam)
        n = lam.n
        want = np.zeros((n, n), dtype=complex)
        for kp in range(n):
            for k in range(n):
                for i in range(n):
                    for j in range(n):
                        want[kp, k] += p[j, kp] * pb[k, i] * lf[j, i]
        got = lax_gauge(z, cfg, v)
        assert np.abs(got - want).max() < 1e-9 * np.abs(want).max()

    def test_conjl_special_case(self, fixture_step, torus_i):
        # v = -eta removes the zero-point offset; the gauge entries then
        # reduce to the bare conjugation coefficients, row k' carrying t_k'
        cfg = fixture_step.source
        lam = cfg.lam
        eta = lam.params.eta
        z = 0.27 + 0.09j
        got = lax_gauge(z, cfg, -eta)
        n = lam.n
        for kp in range(n):
            for k in range(n):
                want = theta_odd(z + eta / n + lam.lam[k] - lam.lam[kp], torus_i)
                want /= theta_odd(z, torus_i)
                for j in range(n):
                    if j != k:
                        want *= theta_odd(lam.lam[j] - lam.lam[kp] + eta / n, torus_i)
                        want /= theta_odd(lam.lam[j] - lam.lam[k], torus_i)
                want *= cfg.t[kp]
                assert abs(got[kp, k] - want) < 1e-9 * abs(want)

    def test_diagonal_entry_direct_composition(self, fixture_step, torus_i):
        # k = k' entry at z - v - eta = 0.3, straight from the Phi * product form
        cfg = fixture_step.source
        lam = cfg.lam
        params = lam.params
        eta, n = params.eta, params.n
        v = fixture_step.v
        z = v + eta + 0.3
        got = lax_gauge(z, cfg, v)
        for k in range(n):
            want = phi_kernel(0.3, eta / n, torus_i)
            for l in range(n):
                want *= theta_odd(lam.lam[l] - lam.lam[k] + eta / n, torus_i)
                if l != k:
                    want /= theta_odd(lam.lam[l] - lam.lam[k], torus_i)
            want *= cfg.t[k]
            assert abs(got[k, k] - want) < 1e-10 * abs(want)


class TestBacklundCoefficients:
    def test_t_shift_invariance_2pi(self, fixture_lam, fixture_mu):
        a = backlund_t(fixture_lam, fixture_mu, 0.1)
        b = backlund_t(fixture_lam, fixture_mu, 0.1 + 2j * math.pi)
        assert np.abs(a - b).max() < 1e-12 * np.abs(a).max()

    def test_ttilde_shift_invariance_2pi(self, fixture_lam, fixture_mu):
        a = backlund_ttilde(fixture_lam, fixture_mu, 0.1)
        b = backlund_ttilde(fixture_lam, fixture_mu, 0.1 + 2j * math.pi)
        assert np.abs(a - b).max() < 1e-12 * np.abs(a).max()

    def test_n1_formulas(self, torus_i):
        params = ModelParams(1, 0.23, torus_i)
        lam = WeightVector(np.array([0.3 + 0.05j]), params)
        mu = WeightVector(np.array([0.18 - 0.02j]), params)
        c = 0.07 - 0.03j
        d = lam.lam[0] - mu.lam[0]
        want = cmath.exp(c) * theta_odd(d + 0.23, torus_i) / theta_odd(d, torus_i)
        assert abs(backlund_t(lam, mu, c)[0] - want) < 1e-12 * abs(want)
        # the m != k product is empty, so t~ collapses onto t
        assert abs(backlund_ttilde(lam, mu, c)[0] - want) < 1e-12 * abs(want)
        c1 = backlund_C(lam, mu)[0]
        want_c = theta_odd(-0.23, torus_i) / theta_odd(d, torus_i)
        assert abs(c1 - want_c) < 1e-12 * abs(want_c)

    def test_C_permutation_covariance(self, params3, fixture_lam, fixture_mu):
        base = backlund_C(fixture_lam, fixture_mu)
        swapped_mu = WeightVector(fixture_mu.lam[[1, 0, 2]], params3)
        swapped = backlund_C(fixture_lam, swapped_mu)
        assert np.abs(swapped - base[[1, 0, 2]]).max() < 1e-12 * np.abs(base).max()

    def test_step_evaluates_each_formula_once(self, fixture_lam, fixture_mu, monkeypatch):
        import ellrs.lax as lax

        calls = []
        for name in ("_t", "_ttilde", "_C"):
            formula = getattr(lax, name)
            monkeypatch.setattr(lax, name, lambda *a, f=formula, k=name: calls.append(k) or f(*a))
        step = make_backlund_step(fixture_lam, fixture_mu, 0.1, 0.17 + 0.05j)
        assert sorted(calls) == ["_C", "_t", "_ttilde"]
        assert np.array_equal(step.source.t, backlund_t(fixture_lam, fixture_mu, 0.1))

    def test_array_records_compare_by_identity(self, params3, fixture_lam, fixture_mu):
        # records holding arrays compare and hash by identity, not field by field
        def build():
            step = make_backlund_step(fixture_lam, fixture_mu, 0.1, 0.17 + 0.05j)
            traj = Trajectory.initial(step.mu, step.t_tilde, step.c)
            return (WeightVector(fixture_lam.lam, params3), phi_matrix(0.3, fixture_lam),
                    r_matrix(0.3, params3), step.source, step, traj.last, traj)

        for first, second in zip(build(), build()):
            assert first == first and first != second
            assert hash(first) != hash(second)

    def test_global_shift_invariance(self, params3, fixture_lam, fixture_mu):
        # all arguments are differences, so a common shift changes nothing
        delta = 0.13 - 0.21j
        a = backlund_t(fixture_lam, fixture_mu, 0.1)
        b = backlund_t(
            WeightVector(fixture_lam.lam + delta, params3),
            WeightVector(fixture_mu.lam + delta, params3),
            0.1,
        )
        assert np.abs(a - b).max() < 1e-10 * np.abs(a).max()


class TestMandResiduals:
    def test_kernel_property(self, fixture_step):
        assert kernel_residual(fixture_step) < 1e-9

    def test_kernel_direct_contraction(self, fixture_step):
        lam, mu = fixture_step.source.lam, fixture_step.mu
        eta = lam.params.eta
        mg = m_matrix(fixture_step.u, lam, mu, fixture_step.v)
        psi = np.array([s_mu(x + eta / 3, mu) for x in lam.lam])
        assert np.abs(mg @ psi).max() < 1e-9 * np.abs(mg).max() * np.abs(psi).max()

    @pytest.mark.parametrize("site", ["backlund_t", "backlund_ttilde", "backlund_C",
                                      "lax_gauge", "m_matrix", "lax_equation_residual",
                                      "eigenvector_residual", "kernel_residual"])
    def test_lattice_guard(self, site, fixture_step, params3):
        lam, mu, v = fixture_step.source.lam, fixture_step.mu, fixture_step.v
        # mu_0 = lambda_1 + 1 + tau puts lambda_1 - mu_0 on the lattice;
        # z = v + eta puts the gauge matrices' z - v - eta there
        bad_mu = WeightVector(np.concatenate(([lam.lam[1] + 1 + params3.tau], mu.lam[1:])), params3)
        z = v + params3.eta
        # the residuals at z = u: sum(mu) - sum(lambda) - eta = 0 puts u - v - eta on the lattice
        on_lattice = WeightVector(mu.lam + (lam.total - mu.total + params3.eta) / 3, params3)
        at_u = make_backlund_step(lam, on_lattice, 0.1, 0.17 + 0.05j)
        calls = {
            "backlund_t": lambda: backlund_t(lam, bad_mu, 0.1),
            "backlund_ttilde": lambda: backlund_ttilde(lam, bad_mu, 0.1),
            "backlund_C": lambda: backlund_C(lam, bad_mu),
            "lax_gauge": lambda: lax_gauge(z, fixture_step.source, v),
            "m_matrix": lambda: m_matrix(z, lam, mu, v),
            "lax_equation_residual": lambda: lax_equation_residual(z, fixture_step),
            "eigenvector_residual": lambda: eigenvector_residual(at_u),
            "kernel_residual": lambda: kernel_residual(at_u),
        }
        with pytest.raises(PoleAtLatticePoint, match=site):
            calls[site]()

    def test_lax_equation_fixture(self, fixture_step):
        rng = np.random.default_rng(12)
        for _ in range(5):
            z = rand_complex(rng, 0.4)
            assert lax_equation_residual(z, fixture_step) < 1e-8

    def test_lax_equation_random_n2(self, params2):
        rng = np.random.default_rng(13)
        for _ in range(20):
            step = random_step(rng, params2)
            z = rand_complex(rng, 0.4)
            if abs(z - step.v - 0.23) < 0.03:
                z += 0.11
            assert lax_equation_residual(z, step) < 1e-8

    def test_lax_homogeneity(self, fixture_lam, fixture_mu):
        # scaling t by e^s and shifting c by s rescales both products equally
        z = 0.33 + 0.21j
        s = 0.4 - 0.15j
        step_a = make_backlund_step(fixture_lam, fixture_mu, 0.1, 0.17 + 0.05j)
        step_b = make_backlund_step(fixture_lam, fixture_mu, 0.1 + s, 0.17 + 0.05j)
        ra = lax_equation_residual(z, step_a)
        rb = lax_equation_residual(z, step_b)
        assert abs(ra - rb) < 1e-12

    def test_eigenvector_fixture(self, fixture_step):
        assert eigenvector_residual(fixture_step) < 1e-8

    def test_eigenvector_n1_reduces_to_t_definition(self, torus_i):
        params = ModelParams(1, 0.23, torus_i)
        lam = WeightVector(np.array([0.3 + 0.05j]), params)
        mu = WeightVector(np.array([0.18 - 0.02j]), params)
        step = make_backlund_step(lam, mu, 0.07, 0.4)
        assert eigenvector_residual(step) < 1e-10

    def test_residual_sweep(self, torus_i):
        rng = np.random.default_rng(14)
        for n in (2, 3):
            params = ModelParams(n, 0.23, torus_i)
            for _ in range(10):
                step = random_step(rng, params)
                assert eigenvector_residual(step) < 1e-8
                assert kernel_residual(step) < 1e-8

    def test_spectral_transfer(self, fixture_step):
        # char polys of L and L~ agree wherever M is well conditioned
        rng = np.random.default_rng(15)
        lam = fixture_step.source.lam
        tilde_cfg = PhaseConfig(fixture_step.mu, fixture_step.t_tilde)
        for _ in range(5):
            z = rand_complex(rng, 0.4)
            mg = m_matrix(z, lam, fixture_step.mu, fixture_step.v)
            if np.linalg.cond(mg) >= 1e8:
                continue
            pa = np.poly(lax_gauge(z, fixture_step.source, fixture_step.v))
            pb = np.poly(lax_gauge(z, tilde_cfg, fixture_step.v))
            assert np.abs(pa - pb).max() < 1e-7 * np.abs(pa).max()


class TestKSIdentity:
    def test_random_n3(self, params3):
        rng = np.random.default_rng(16)
        for _ in range(10):
            xs = np.array([rand_complex(rng, 0.4) for _ in range(3)])
            ys = np.array([rand_complex(rng, 0.4) for _ in range(3)])
            xi = rand_complex(rng, 0.3)
            if min(abs(xs[i] - xs[j]) for i in range(3) for j in range(i)) < 0.05:
                continue
            assert ks_identity_residual(xs, ys, xi, 1, params3) < 1e-9

    def test_n1_reduces_to_addition(self, torus_i):
        params = ModelParams(1, 0.23, torus_i)
        xs, ys, xi = np.array([0.31 + 0.04j]), np.array([0.12 - 0.06j]), 0.2 + 0.1j
        assert ks_identity_residual(xs, ys, xi, 0, params) < 1e-10

    def test_x_equals_y(self, params3):
        xs = np.array([0.11 + 0.03j, 0.43 - 0.06j, -0.37 + 0.09j])
        xi = 0.19 + 0.07j
        assert ks_identity_residual(xs, xs, xi, 2, params3) < 1e-9


README_LAM = [0.11 + 0.03j, 0.43 - 0.06j, -0.37 + 0.09j]

# (tau, lambda, mu, c, u) for the gradient contracts of generating_function
GRADIENT_CASES = {
    "readme_n3": (1j, README_LAM, np.array(README_LAM) - 0.05 - 0.02j + 0.01 * np.arange(3),
                  0.1, 0.17 + 0.05j),
    # lambda_2 - mu_1 = -0.276 + 0.008i: a straight path to it from 1/2 grazes the zero at 0
    "tau_i_n2_near_zero": (1j, [0.2377 - 0.1268j, -0.1231 - 0.2131j],
                           [0.1532 - 0.221j, -0.1682 - 0.1567j], 0.1, 0.2),
    "n1": (1j, [0.3 + 0.05j], [0.18 - 0.02j], 0.07 - 0.03j, 0.4),
    "n4_skew_tau": (0.3 + 1.2j, README_LAM + [0.24 + 0.35j],
                    np.array(README_LAM + [0.24 + 0.35j]) - 0.05 - 0.02j + 0.01 * np.arange(4),
                    0.1, 0.17 + 0.05j),
}


def _dilog_points():
    """A log-radius x angle grid, the unit circle, points near z = 1 and z = 0, and
    both sides of the cut [1, inf) (real z with imaginary part +0 and -0)."""
    grid = np.exp(np.add.outer(np.linspace(-12, 12, 25), 1j * np.linspace(-np.pi, np.pi, 24,
                                                                          endpoint=False)))
    circle = np.exp(1j * np.linspace(-np.pi, np.pi, 61))
    near_one = 1 + np.multiply.outer([1e-12, 1e-6, 1e-2], np.exp(1j * np.linspace(0, 6, 8)))
    cut = np.array([1.0, 1 + 1e-9, 1.5, 2.0, 7.0, 1e5])
    return np.concatenate((grid.ravel(), circle, near_one.ravel(), [0, 1e-300, 0.5, -1],
                           cut + 0j, np.array([complex(x, -0.0) for x in cut])))


class TestDilogarithm:
    def test_matches_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        from ellrs.lax import _dilog

        z = _dilog_points()
        got = _dilog(z)
        with mpmath.workdps(30):
            # a zero imaginary part stands for the limit from its side of the cut
            want = np.array([complex(mpmath.polylog(2, mpmath.mpc(p.real, p.imag or
                                                                  math.copysign(1e-40, p.imag))))
                             for p in z])
        assert np.all(np.abs(got - want) <= 1e-14 * np.maximum(1, np.abs(want)))

    def test_matches_scipy_spence(self):
        spence = pytest.importorskip("scipy.special").spence
        from ellrs.lax import _dilog

        # off the cut, where spence(1 - z) may take either side
        z = _dilog_points()
        z = z[(z.imag != 0) | (z.real < 1)]
        want = spence(1 - z)
        assert np.all(np.abs(_dilog(z) - want) <= 1e-13 * np.maximum(1, np.abs(want)))


class TestGeneratingFunction:
    @pytest.mark.parametrize("case", GRADIENT_CASES)
    def test_gradients_match_t_and_ttilde(self, case):
        tau, lam, mu, c, u = GRADIENT_CASES[case]
        n = len(lam)
        params = ModelParams(n, 0.23, TorusParams(tau))
        lam, mu = WeightVector(np.array(lam), params), WeightVector(np.array(mu), params)
        t, tt = backlund_t(lam, mu, c), backlund_ttilde(lam, mu, c)
        h = 1e-5
        for k in range(n):
            dv = np.zeros(n, dtype=complex)
            dv[k] = h
            fp = generating_function(WeightVector(lam.lam + dv, params), mu, c, u)
            fm = generating_function(WeightVector(lam.lam - dv, params), mu, c, u)
            assert abs(cmath.exp((fp - fm) / (2 * h)) - t[k]) < 1e-5 * abs(t[k])
            gp = generating_function(lam, WeightVector(mu.lam + dv, params), c, u)
            gm = generating_function(lam, WeightVector(mu.lam - dv, params), c, u)
            assert abs(cmath.exp(-(gp - gm) / (2 * h)) - tt[k]) < 1e-5 * abs(tt[k])

    @pytest.mark.parametrize("case", ["readme_n3", "n4_skew_tau"])
    @pytest.mark.parametrize("draws", [2, 3])
    def test_stack_gives_one_value_per_draw(self, case, draws):
        tau, lam, mu, c, u = GRADIENT_CASES[case]
        n = len(lam)
        params = ModelParams(n, 0.23, TorusParams(tau))
        rng = np.random.default_rng(draws)
        jitter = rng.uniform(-1, 1, (draws, n)) + 1j * rng.uniform(-1, 1, (draws, n))
        lams = np.array(lam) + 0.02 * jitter
        cs = c + 0.01 * np.arange(draws)
        mu1 = WeightVector(np.array(mu), params)
        for mus in (mu1, WeightVector(np.broadcast_to(mu1.lam, (draws, n)) + 0.01j, params)):
            got = generating_function(WeightVector(lams, params), mus, cs, u)
            assert got.shape == (draws,)
            for d in range(draws):
                mu_d = mus if mus.lam.ndim == 1 else WeightVector(mus.lam[d], params)
                want = generating_function(WeightVector(lams[d], params), mu_d, cs[d], u)
                assert abs(got[d] - want) <= 1e-12 * max(1.0, abs(want))

    @pytest.mark.parametrize("tau", [1j, 0.5j, 0.3 + 1.2j, -0.4 + 0.8j])
    def test_antiderivative_matches_mpmath_quad(self, tau):
        # S(b) - S(a) against the quadrature of a branch of log theta that is
        # continuous along [a, b]; the segments keep clear of the zeros and of
        # the vertical cuts of S, and one passes 0.008 above the zero at 0
        mpmath = pytest.importorskip("mpmath")
        from ellrs.lax import _log_theta_antiderivative

        nome = mpmath.exp(1j * mpmath.pi * tau)
        theta = lambda x: -mpmath.jtheta(1, mpmath.pi * x, nome)
        for a, b in ((0.1 + 0.05j, 0.3 - 0.1j), (-0.1 + 0.008j, 0.1 + 0.008j),
                     (0.4 + 0.3j, 0.6 + 0.35j), (0.2 - 0.7j, 0.3 - 0.6j)):
            with mpmath.workdps(20):
                mid = (a + b) / 2
                ref = theta(mid)
                f = lambda x: mpmath.log(theta(x) / ref) + mpmath.log(ref)
                want = complex(mpmath.quad(f, [a, mid, b]))
            sa, sb = _log_theta_antiderivative(np.array([a, b]), tau)
            k = round(((sb - sa - want) / (2j * math.pi * (b - a))).real)
            assert abs(sb - sa - want - 2j * math.pi * k * (b - a)) < 1e-12 * abs(want)

    def test_lambda_gradient_matches_t(self, params3, fixture_lam, fixture_mu):
        c, u = 0.1, 0.17 + 0.05j
        t = backlund_t(fixture_lam, fixture_mu, c)
        h = 1e-5
        for k in range(3):
            dv = np.zeros(3, dtype=complex)
            dv[k] = h
            fp = generating_function(WeightVector(fixture_lam.lam + dv, params3), fixture_mu, c, u)
            fm = generating_function(WeightVector(fixture_lam.lam - dv, params3), fixture_mu, c, u)
            grad = (fp - fm) / (2 * h)
            assert abs(cmath.exp(grad) - t[k]) < 1e-5 * abs(t[k])

    def test_mu_gradient_matches_ttilde(self, params3, fixture_lam, fixture_mu):
        c, u = 0.1, 0.17 + 0.05j
        tt = backlund_ttilde(fixture_lam, fixture_mu, c)
        h = 1e-5
        for k in range(3):
            dv = np.zeros(3, dtype=complex)
            dv[k] = h
            fp = generating_function(fixture_lam, WeightVector(fixture_mu.lam + dv, params3), c, u)
            fm = generating_function(fixture_lam, WeightVector(fixture_mu.lam - dv, params3), c, u)
            grad = (fp - fm) / (2 * h)
            assert abs(cmath.exp(-grad) - tt[k]) < 1e-5 * abs(tt[k])

    def test_c_gradient_is_v(self, fixture_lam, fixture_mu):
        u = 0.17 + 0.05j
        v = u + fixture_lam.total - fixture_mu.total
        h = 1e-5
        fp = generating_function(fixture_lam, fixture_mu, 0.1 + h, u)
        fm = generating_function(fixture_lam, fixture_mu, 0.1 - h, u)
        assert abs((fp - fm) / (2 * h) - v) < 1e-10

    @pytest.mark.parametrize("tau, lam", [(1e-7j, 0.3 + 0.05j), (1j, 0.3 + 200j)])
    def test_out_of_range_raises_typed_error(self, tau, lam):
        # far too many q-terms, or e^{2 pi i x} beyond double precision
        params = ModelParams(1, 0.23, TorusParams(tau))
        with pytest.raises(NonconvergentSeries):
            generating_function(WeightVector(np.array([lam]), params),
                                WeightVector(np.array([0.18 - 0.02j]), params), 0.1, 0.2)

    def test_path_through_zero(self, params3, fixture_lam):
        # lambda_1 - mu_1 lands within the path clearance of the base lattice zero
        mu = WeightVector(fixture_lam.lam - 5e-4, params3)
        with pytest.raises(PathThroughZero):
            generating_function(fixture_lam, mu, 0.1, 0.0)
