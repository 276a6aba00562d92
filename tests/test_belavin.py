"""Belavin R-matrix tests: entries, sparsity, Yang-Baxter equation."""

import numpy as np
import pytest

from ellrs import (ModelParams, TorusParams, WeightVector, phi_matrix, r_matrix, theta_band,
                   theta_odd, ybe_residual)
from ellrs.belavin import _ybe_sides
from conftest import rand_complex


class TestRMatrix:
    def test_entry_direct_composition(self, params2):
        z, eta = 0.3, 0.23
        r = r_matrix(z, params2).entries
        # ((i,j),(i',j')) = ((0,1),(1,0))
        pre = theta_band(0, z, params2) * theta_band(1, z, params2) / theta_band(1, 0.0, params2)
        want = pre * theta_band(1, z + eta, params2) / (
            theta_band(1, eta, params2) * theta_band(0, z, params2)
        )
        assert abs(r[0, 1, 1, 0] - want) < 1e-12 * abs(want)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_matches_entry_loop(self, torus_i, n):
        # the cancelled-form entries, one at a time with a running product
        params = ModelParams(n, 0.23 + 0.05j, torus_i)
        z = 0.31 + 0.07j
        r = r_matrix(z, params).entries
        band = [[theta_band(k, x, params) for k in range(n)]
                for x in (z, params.eta, z + params.eta)]
        denom0 = np.prod([theta_band(k, 0.0, params) for k in range(1, n)])
        want = np.zeros((n, n, n, n), dtype=complex)
        for i in range(n):
            for j in range(n):
                for i2 in range(n):
                    j2 = (i + j - i2) % n
                    num = 1.0 + 0j
                    for k in range(n):
                        if k != (i - j2) % n:
                            num *= band[0][k]
                    want[i, j, i2, j2] = (band[2][(i2 - j2) % n] * num
                                          / (band[1][(i2 - i) % n] * denom0))
        assert np.abs(r - want).max() <= 4e-15 * np.abs(want).max()

    def test_sparsity_exact(self, params3):
        r = r_matrix(0.31 + 0.07j, params3).entries
        n = 3
        for i in range(n):
            for j in range(n):
                for i2 in range(n):
                    for j2 in range(n):
                        if (i + j) % n != (i2 + j2) % n:
                            assert r[i, j, i2, j2] == 0

    def test_n1_scalar(self, torus_i):
        params = ModelParams(1, 0.23, torus_i)
        z = 0.37 + 0.11j
        r = r_matrix(z, params).entries
        want = theta_band(0, z + 0.23, params) / theta_band(0, 0.23, params)
        assert abs(r[0, 0, 0, 0] - want) < 1e-12 * abs(want)
        assert abs(r[0, 0, 0, 0]) > 0

    def test_regular_at_zero_is_permutation(self, params2):
        # the theta^(i-j')(z) denominator cancels exactly, so R(0) is the
        # permutation operator rather than a 0/0 singularity
        r = r_matrix(0.0, params2).entries
        n = 2
        for i in range(n):
            for j in range(n):
                for i2 in range(n):
                    for j2 in range(n):
                        want = 1.0 if (i == j2 and j == i2) else 0.0
                        assert abs(r[i, j, i2, j2] - want) < 1e-12

    def test_band_zero_in_z_is_harmless(self, params2):
        # z on a theta^(k) zero set only kills numerator factors
        r = r_matrix(1j, params2).entries
        assert np.all(np.isfinite(r))
        assert np.abs(r).max() > 0


class TestYangBaxter:
    def test_fixture_n2(self, params2):
        assert ybe_residual(0.3, 0.12, params2) < 1e-8

    def test_random_n3(self, params3):
        rng = np.random.default_rng(11)
        for _ in range(10):
            z, w = rand_complex(rng, 0.35), rand_complex(rng, 0.35)
            assert ybe_residual(z, w, params3) < 1e-8

    def test_degenerate_equal_arguments(self, params2):
        z = 0.21 + 0.13j
        assert ybe_residual(z, z, params2) < 1e-8

    def test_einsum_against_naive_loops(self, params2):
        # the contraction order is the dominant failure mode; pin it with a
        # six-index loop oracle on n = 2
        n = 2
        z, w = 0.29 + 0.05j, 0.11 - 0.08j
        r12 = r_matrix(z - w, params2).entries
        r13 = r_matrix(z, params2).entries
        r23 = r_matrix(w, params2).entries
        lhs, rhs = _ybe_sides(r12, r13, r23)
        naive_l = np.zeros_like(lhs)
        naive_r = np.zeros_like(rhs)
        rng_n = range(n)
        for a in rng_n:
            for b in rng_n:
                for c in rng_n:
                    for s in rng_n:
                        for t in rng_n:
                            for u in rng_n:
                                accl = 0j
                                accr = 0j
                                for x in rng_n:
                                    for y in rng_n:
                                        for r in rng_n:
                                            accl += r12[a, b, x, y] * r13[x, c, s, r] * r23[y, r, t, u]
                                            accr += r23[b, c, x, y] * r13[a, y, r, u] * r12[r, x, s, t]
                                naive_l[a, b, c, s, t, u] = accl
                                naive_r[a, b, c, s, t, u] = accr
        assert np.abs(lhs - naive_l).max() < 1e-13 * np.abs(lhs).max()
        assert np.abs(rhs - naive_r).max() < 1e-13 * np.abs(rhs).max()

    def test_scaling_covariance(self, params2):
        # YBE is homogeneous: rescaling R leaves the relative residual intact
        z, w = 0.3, 0.12
        r12 = r_matrix(z - w, params2).entries
        r13 = r_matrix(z, params2).entries
        r23 = r_matrix(w, params2).entries

        def rel(r12_, r13_, r23_):
            lhs, rhs = _ybe_sides(r12_, r13_, r23_)
            return np.abs(lhs - rhs).max() / np.abs(lhs).max()

        base = rel(r12, r13, r23)
        scaled = rel(2.7j * r12, -0.4 * r13, (1.3 - 0.2j) * r23)
        assert abs(base - scaled) < 1e-12


class TestVertexFace:
    """R against the intertwining vectors c_k(z, lam) = phi(z)[lam; :, k], the k = l case:

        Rhat c_k(z1, lam) (x) c_k(z2, lam + eta e_k)
            = theta(z1 - z2 + eta) / theta(eta) * c_k(z1, lam + eta e_k) (x) c_k(z2, lam)

    with Rhat = r_matrix(z1 - z2).entries.reshape(n*n, n*n).T.  The YBE holds for R and
    for its transpose alike, so this is the check that tells the two apart."""

    @staticmethod
    def sides(n, tau, eta, draws=50):
        """Rhat acting on the left side and the right side, both [draw, n*n], for seeded
        draws of (lam, z1, z2, k)."""
        torus = TorusParams(tau)
        params = ModelParams(n, eta, torus)
        rng = np.random.default_rng(100 + n)
        rows = []
        for _ in range(draws):
            lam = rng.uniform(-0.5, 0.5, n) + 1j * rng.uniform(-0.5, 0.5, n)
            z1, z2 = (complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)) for _ in range(2))
            rows.append((lam, z1, z2, int(rng.integers(n))))
        lam, z1, z2, k = (np.array(col) for col in zip(*rows))
        shifted = lam + eta * np.eye(n)[k]
        index = np.arange(draws)

        def c(z, weights):
            return phi_matrix(z, WeightVector(weights, params)).entries[index, :, k]

        def tensor(a, b):
            return (a[:, :, None] * b[:, None, :]).reshape(draws, n * n)

        r_hat = np.array([r_matrix(d, params).entries.reshape(n * n, n * n) for d in z1 - z2])
        ratio = theta_odd(z1 - z2 + eta, torus) / theta_odd(eta, torus)
        rhs = ratio[:, None] * tensor(c(z1, shifted), c(z2, lam))
        vec = tensor(c(z1, lam), c(z2, shifted))
        return r_hat, vec, rhs

    @staticmethod
    def rel(lhs, rhs):
        return np.abs(lhs - rhs).max(axis=-1) / np.abs(rhs).max(axis=-1)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("tau, eta", [(1j, 0.23), (0.3 + 1.2j, 0.23 + 0.05j)])
    def test_transpose_intertwines(self, n, tau, eta):
        r_hat, vec, rhs = self.sides(n, tau, eta)
        assert self.rel(np.einsum("dji,dj->di", r_hat, vec), rhs).max() <= 1e-12
        if n >= 3:
            # negative control: the untransposed reading misses on every draw
            # (at n = 2 the two readings agree on these vectors)
            assert self.rel(np.einsum("dij,dj->di", r_hat, vec), rhs).min() > 1e-2
