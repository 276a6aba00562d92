"""Intertwiner matrix tests: inverses, determinant identity, cross-sum formula."""

import cmath
import math

import numpy as np
import pytest

from ellrs import (
    DegenerateWeights,
    ModelParams,
    NearSingular,
    PhaseConfig,
    TorusParams,
    WeightVector,
    cross_sum_residual,
    dedekind_eta,
    det_residual,
    lax_classical,
    phi_inverse,
    phi_matrix,
    phi_tilde0,
    theta_level,
    theta_odd,
)
from ellrs.intertwiners import det_phi_closed_form
from conftest import rand_complex


def random_weights(rng, params, min_sep=0.05):
    while True:
        vals = np.array([rand_complex(rng, 0.4) for _ in range(params.n)])
        seps = [abs(vals[i] - vals[j]) for i in range(params.n) for j in range(i)]
        if not seps or min(seps) > min_sep:
            return WeightVector(vals, params)


class TestPhiMatrix:
    def test_n1_collapse(self, torus_i):
        params = ModelParams(1, 0.23, torus_i)
        lam = WeightVector(np.array([0.3 + 0.1j]), params)
        m = phi_matrix(0.2, lam)
        want = theta_level(1, 0.2, params) / (1j * dedekind_eta(1j))
        assert abs(m.entries[0, 0] - want) < 1e-13 * abs(want)

    def test_entry_direct_composition(self, params3, fixture_lam):
        # row i=1, column k=2 in 1-based labels
        m = phi_matrix(0.2, fixture_lam)
        want = theta_level(1, 0.2 / 3 - fixture_lam.pairing(1), params3)
        want /= 1j * dedekind_eta(1j)
        assert abs(m.entries[0, 1] - want) < 1e-13 * abs(want)

    def test_det_vanishes_at_zero(self, fixture_lam):
        ent = phi_matrix(0.0, fixture_lam).entries
        scale = np.abs(ent).max() ** fixture_lam.n
        assert abs(np.linalg.det(ent)) < 1e-10 * scale

    def test_depends_only_on_pairings(self, params3, fixture_lam):
        shifted = WeightVector(fixture_lam.lam + (0.17 - 0.08j), params3)
        a = phi_matrix(0.2, fixture_lam).entries
        b = phi_matrix(0.2, shifted).entries
        assert np.abs(a - b).max() < 1e-12 * np.abs(a).max()

    def test_pairings_of_a_stack_with_n_draws(self, params3, fixture_lam):
        lam = fixture_lam.lam
        stack = WeightVector(np.stack((lam, lam[::-1] + 0.1, 2 * lam)), params3)
        for d in range(3):
            one = WeightVector(stack.lam[d], params3)
            assert np.abs(stack.pairings()[d] - one.pairings()).max() < 1e-15
            for k in range(3):
                assert abs(stack.pairing(k)[d] - one.pairing(k)) < 1e-15

    def test_degenerate_weights_rejected(self, params3):
        with pytest.raises(DegenerateWeights):
            WeightVector(np.array([0.1, 0.1, 0.4]), params3)


class TestPhiInverse:
    def test_both_orderings_identity(self, fixture_lam):
        m = phi_matrix(0.2, fixture_lam).entries
        mb = phi_inverse(0.2, fixture_lam)
        eye = np.eye(3)
        assert np.abs(mb @ m - eye).max() < 1e-10
        assert np.abs(m @ mb - eye).max() < 1e-10

    def test_near_singular_at_det_zero(self, fixture_lam):
        with pytest.raises(NearSingular):
            phi_inverse(1e-13, fixture_lam)

    def test_refusal_names_every_refused_draw(self, fixture_lam):
        with pytest.raises(NearSingular, match=r"z=\(1e-13\+0j\)") as exc:
            phi_inverse(np.array([0.2, 1e-13, 0.3 + 0.1j, 1e-13]), fixture_lam)
        assert list(exc.value.draws) == [1, 3]

    def test_cofactor_oracle_n2(self, params2):
        lam = WeightVector(np.array([0.21 + 0.04j, -0.33 - 0.12j]), params2)
        m = phi_matrix(0.27, lam).entries
        mb = phi_inverse(0.27, lam)
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        cof = np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]]) / det
        assert np.abs(mb - cof).max() < 1e-10 * np.abs(cof).max()

    def test_inverse_sweep(self, torus_i):
        rng = np.random.default_rng(7)
        for n in (2, 3, 4):
            params = ModelParams(n, 0.23, torus_i)
            for _ in range(10):
                lam = random_weights(rng, params)
                z = rand_complex(rng, 0.4)
                if abs(z) < 0.05:
                    continue
                m = phi_matrix(z, lam).entries
                mb = phi_inverse(z, lam)
                assert np.abs(mb @ m - np.eye(n)).max() < 1e-10
                assert np.abs(m @ mb - np.eye(n)).max() < 1e-10


class TestPhiTilde0:
    def test_extrapolation_consistent(self, fixture_lam, torus_i):
        got = phi_tilde0(fixture_lam)
        # independent three-node quadratic Richardson oracle (error ~ h^3)
        hs = (4e-5, 2e-5, 1e-5)
        vals = [theta_odd(h, torus_i) * phi_inverse(h, fixture_lam) for h in hs]
        ref = np.zeros_like(vals[0])
        for i, hi in enumerate(hs):
            w = 1.0
            for j, hj in enumerate(hs):
                if j != i:
                    w *= (0.0 - hj) / (hi - hj)
            ref = ref + w * vals[i]
        assert np.abs(got - ref).max() < 1e-8

    def test_two_scale_nodes_already_close(self, fixture_lam, torus_i):
        f = lambda h: theta_odd(h, torus_i) * phi_inverse(h, fixture_lam)
        assert np.abs(f(1e-5) - f(5e-6)).max() < 1e-3

    def test_lagrange_basis_identity(self, params3, fixture_lam, torus_i):
        # sum_m phibar(eta)[k, m] theta_m((Lambda+eta)/n - x)
        #   = i*etaD * theta(eta + lam_k - x)/theta(eta) * prod_{l != k} ...
        rng = np.random.default_rng(8)
        eta = params3.eta
        pb = phi_inverse(eta, fixture_lam)
        lam = fixture_lam.lam
        big = fixture_lam.total
        ie = 1j * dedekind_eta(1j)
        for _ in range(5):
            x = rand_complex(rng, 0.4)
            for k in range(3):
                lhs = sum(
                    pb[k, m] * theta_level(m + 1, (big + eta) / 3 - x, params3)
                    for m in range(3)
                )
                rhs = ie * theta_odd(eta + lam[k] - x, torus_i) / theta_odd(eta, torus_i)
                for l in range(3):
                    if l != k:
                        rhs *= theta_odd(lam[l] - x, torus_i)
                        rhs /= theta_odd(lam[l] - lam[k], torus_i)
                assert abs(lhs - rhs) < 1e-9 * (abs(lhs) + abs(rhs))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("tau", [1j, 0.3 + 1.2j])
    def test_closed_form_against_mpmath(self, n, tau):
        # theta(h) * phi(h)^-1 at h = 1e-35 with 70 digits, where it is the limit to
        # about 35 digits; phi(h) summed from the theta_j series directly
        mp = pytest.importorskip("mpmath").mp
        mp.dps = 70
        params = ModelParams(n, 0.23, TorusParams(tau))
        lam = random_weights(np.random.default_rng(70 + n), params)
        t, h, half = mp.mpc(tau), mp.mpf("1e-35"), mp.mpf(1) / 2

        def theta(a, b, w, q_tau):
            return mp.fsum(mp.exp(1j * mp.pi * (m + a) ** 2 * q_tau
                                  + 2j * mp.pi * (m + a) * (w + b)) for m in range(-30, 31))

        qn = mp.exp(2j * mp.pi * t)
        ie = 1j * mp.exp(1j * mp.pi * t / 12) * mp.fprod(1 - qn ** m for m in range(1, 120))
        lm = [mp.mpc(complex(x)) for x in lam.lam]
        pair = [x - mp.fsum(lm) / n for x in lm]
        phi = mp.matrix(n, n)
        for i in range(n):
            a = mp.mpf(n - 2 * ((i + 1) % n)) / (2 * n)
            for k in range(n):
                phi[i, k] = theta(a, 0, n * (h / n - pair[k] + half), n * t) / ie
        ref = theta(half, half, h, t) * mp.inverse(phi)
        ref = np.array([[complex(ref[k, i]) for i in range(n)] for k in range(n)])
        assert np.abs(phi_tilde0(lam) - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_n1_scalar_case(self, torus_i):
        # theta(z)*phibar(z) -> i*etaD as z -> 0 for a single weight
        params = ModelParams(1, 0.23, torus_i)
        lam = WeightVector(np.array([0.21 + 0.05j]), params)
        got = phi_tilde0(lam)[0, 0]
        want = 1j * dedekind_eta(1j)
        assert abs(got - want) < 1e-9


class TestStacks:
    """The stacked layer against one call per draw; one draw is the case with no draw axis."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("tau", [1j, 0.3 + 1.2j])
    def test_stack_matches_loop(self, n, tau):
        params = ModelParams(n, 0.23, TorusParams(tau))
        rng = np.random.default_rng(60 + n)
        lams = [random_weights(rng, params).lam for _ in range(5)]
        # z, z - v - eta and z - v stay clear of the lattice
        z = np.array([0.5 + rand_complex(rng, 0.15) for _ in range(5)])
        t = rng.uniform(0.5, 1.5, (5, n)) + 1j * rng.uniform(-0.5, 0.5, (5, n))
        stack, v = WeightVector(np.array(lams), params), 0.05

        def layer(z, lam, t):
            return dict(phi=phi_matrix(z, lam).entries, phi_scalar_z=phi_matrix(0.3, lam).entries,
                        phibar=phi_inverse(z, lam), det=det_phi_closed_form(z, lam),
                        tilde=phi_tilde0(lam), lax=lax_classical(z, PhaseConfig(lam, t), v))

        got = layer(z, stack, t)
        for d in range(5):
            for key, want in layer(z[d], WeightVector(lams[d], params), t[d]).items():
                err = np.abs(got[key][d] - want).max() / np.abs(want).max()
                assert err <= 1e-13, (key, d, err)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("tau", [1j, 0.3 + 1.2j])
    def test_residuals_of_a_stack(self, n, tau):
        # one residual per draw, as one call per draw gives it, and small for every draw
        params = ModelParams(n, 0.23, TorusParams(tau))
        rng = np.random.default_rng(70 + n)
        lams = [random_weights(rng, params).lam for _ in range(4)]
        mus = [random_weights(rng, params).lam for _ in range(4)]
        z = np.array([0.5 + rand_complex(rng, 0.15) for _ in range(4)])
        u = np.array([rand_complex(rng, 0.4) for _ in range(4)])
        lam, mu = WeightVector(np.array(lams), params), WeightVector(np.array(mus), params)
        one = [(WeightVector(lams[d], params), WeightVector(mus[d], params)) for d in range(4)]
        cases = [(det_residual(z, lam), [det_residual(z[d], one[d][0]) for d in range(4)]),
                 (det_residual(0.2, lam), [det_residual(0.2, one[d][0]) for d in range(4)])]
        for k, k2 in {(0, n - 1), (n - 1, 0)}:
            cases.append((cross_sum_residual(z, u, lam, mu, k, k2),
                          [cross_sum_residual(z[d], u[d], *one[d], k, k2) for d in range(4)]))
            cases.append((cross_sum_residual(z, 0.3, lam, mu, k, k2),
                          [cross_sum_residual(z[d], 0.3, *one[d], k, k2) for d in range(4)]))
        for got, want in cases:
            assert isinstance(want[0], float) and got.shape == (4,)
            assert np.abs(got - want).max() <= 1e-13 and got.max() < 1e-10


class TestDetFormula:
    def test_fixture_residual(self, fixture_lam):
        assert det_residual(0.2, fixture_lam) < 1e-10

    def test_random_n2(self, params2):
        rng = np.random.default_rng(9)
        for _ in range(20):
            lam = random_weights(rng, params2)
            z = rand_complex(rng, 0.4)
            assert det_residual(z, lam) < 1e-10

    def test_both_sides_vanish_at_zero(self, fixture_lam):
        assert det_residual(0.0, fixture_lam) < 1e-12

    def test_winding_number_one_zero_per_cell(self, fixture_lam):
        # the phase of det phi(z) winds once around the boundary of a cell
        # that contains a single lattice point
        shift = 0.31 + 0.27j
        corners = [shift, shift + 1, shift + 1 + 1j, shift + 1j, shift]
        loop = []
        for a, b in zip(corners[:-1], corners[1:]):
            loop.extend(a + (b - a) * f for f in np.linspace(0.0, 1.0, 41)[:-1])
        loop.append(loop[0])
        total = 0.0
        prev = None
        for z in loop:
            ang = cmath.phase(np.linalg.det(phi_matrix(z, fixture_lam).entries))
            if prev is not None:
                d = ang - prev
                while d > math.pi:
                    d -= 2 * math.pi
                while d < -math.pi:
                    d += 2 * math.pi
                total += d
            prev = ang
        winding = total / (2 * math.pi)
        assert abs(winding - 1.0) < 0.05


class TestCrossSum:
    def test_fixture_all_index_pairs(self, fixture_lam, fixture_mu):
        for k in range(3):
            for k2 in range(3):
                res = cross_sum_residual(0.2, 0.3, fixture_lam, fixture_mu, k, k2)
                assert res < 1e-9

    def test_inverse_relation_limit(self, fixture_lam):
        # mu = lambda, u = 0 collapses the formula to the inverse relation
        for k in range(3):
            for k2 in range(3):
                res = cross_sum_residual(0.2, 0.0, fixture_lam, fixture_lam, k, k2)
                assert res < 1e-10

    def test_random_sweep(self, torus_i):
        rng = np.random.default_rng(10)
        for n in (2, 3, 4):
            params = ModelParams(n, 0.23, torus_i)
            for _ in range(8):
                lam = random_weights(rng, params)
                mu = random_weights(rng, params)
                z = rand_complex(rng, 0.4)
                u = rand_complex(rng, 0.4)
                if abs(z) < 0.05:
                    continue
                k = int(rng.integers(n))
                k2 = int(rng.integers(n))
                assert cross_sum_residual(z, u, lam, mu, k, k2) < 1e-9
