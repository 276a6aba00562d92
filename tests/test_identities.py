"""Identity harness tests: per-check sweeps, suite determinism, failure probe."""

import json

import numpy as np
import pytest

from ellrs import ModelParams, SuiteConfig, TorusParams, run_all, theta_odd
from ellrs.identities import (
    _lemma_weights,
    check_backlund_residuals,
    check_commute,
    check_conjugation,
    check_det_formula,
    check_functional_relation,
    check_ks,
    check_lagrange,
    check_lemma,
    check_null_sum,
    check_ybe,
)
from ellrs.lax import _ks_sides
from conftest import rand_complex

EXPECTED_NAMES = {
    "commute",
    "conjugation",
    "det_formula_n3",
    "eigenvector",
    "functional_relation",
    "kernel",
    "ks_identity",
    "lagrange_N3",
    "lax_equation",
    "lemma_N3",
    "null_sum_N3",
    "ybe",
}


class TestIndividualChecks:
    def test_functional_relation(self, torus_i):
        rep = check_functional_relation(100, 42, torus_i)
        assert rep.passed and rep.draws == 100

    def test_functional_relation_other_tau(self):
        rep = check_functional_relation(30, 7, TorusParams(2j))
        assert rep.passed

    def test_lagrange_sizes(self, torus_i):
        assert check_lagrange(3, 50, 42, torus_i).passed
        assert check_lagrange(4, 20, 42, TorusParams(1.5j)).passed

    def test_lagrange_degenerate_n1(self, torus_i):
        rep = check_lagrange(1, 50, 42, torus_i)
        assert rep.passed and rep.max_residual == 0.0
        assert "degenerate" in json.loads(rep.worst_params)["note"]

    def test_null_sum_sizes(self, torus_i):
        assert check_null_sum(2, 50, 42, torus_i, tol=1e-10).passed
        assert check_null_sum(1, 5, 42, torus_i).passed
        assert check_null_sum(5, 20, 42, torus_i).passed

    def test_lemma_small_xi(self, params3, torus_i):
        # shrinking xi keeps both sides of the scalar identities in agreement
        rep = check_lemma(3, 20, 42, torus_i, tol=1e-8)
        assert rep.passed

    def test_lemma_n1(self, torus_i):
        assert check_lemma(1, 20, 42, torus_i).passed

    def test_commute(self, params2, params3):
        assert check_commute(20, 42, params2).passed
        assert check_commute(10, 42, params3).passed

    def test_det_formula(self, params2, torus_i):
        assert check_det_formula(2, 50, 42, params2).passed
        assert check_det_formula(4, 20, 42, ModelParams(4, 0.23, torus_i)).passed

    def test_conjugation(self, params3):
        assert check_conjugation(10, 42, params3).passed

    def test_ks(self, params3):
        assert check_ks(50, 42, params3).passed

    def test_backlund_residuals(self, params3):
        reps = check_backlund_residuals(10, 42, params3)
        assert [r.identity_name for r in reps] == ["eigenvector", "kernel", "lax_equation"]
        assert all(r.passed for r in reps)

    def test_ybe(self, params2):
        assert check_ybe(10, 42, params2).passed


def lemma_weights_loop(xs, ys, xi, torus):
    """w_y(j), w_x(j) of the exchange lemma, one scalar theta call per factor."""
    n = len(xs)
    wy, wx = [], []
    for j in range(n):
        val = 1.0 + 0j
        for m in range(n):
            if m != j:
                d = ys[j] - ys[m]
                val *= theta_odd(d - xi, torus) / theta_odd(d, torus)
        for s in range(n):
            d = xs[s] - ys[j]
            val *= theta_odd(d - xi, torus) / theta_odd(d, torus)
        wy.append(val)
        val = 1.0 + 0j
        for m in range(n):
            if m != j:
                d = xs[j] - xs[m]
                val *= theta_odd(d + xi, torus) / theta_odd(d, torus)
        for s in range(n):
            d = xs[j] - ys[s]
            val *= theta_odd(d - xi, torus) / theta_odd(d, torus)
        wx.append(val)
    return np.array(wy), np.array(wx)


def ks_sides_loop(xs, ys, xi, kprime, torus):
    """Both sides of the closing ks identity, one scalar theta call per factor."""
    n = len(xs)
    z = n * xi + sum(xs) - sum(ys)
    lhs = 0j
    for k in range(n):
        term = theta_odd(z + xs[kprime] - xs[k] - xi, torus)
        for s in range(n):
            term *= theta_odd(xs[k] - ys[s] + xi, torus)
        for l in range(n):
            if l != k:
                term *= theta_odd(xs[kprime] - xs[l] - xi, torus)
                term /= theta_odd(xs[k] - xs[l], torus)
        lhs += term
    rhs = theta_odd(z, torus)
    for s in range(n):
        rhs *= theta_odd(xs[kprime] - ys[s], torus)
    return lhs, rhs


class TestBatchedSides:
    """The batched theta products against scalar-loop oracles."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_lemma_weights_match_loop(self, n):
        rng = np.random.default_rng(30 + n)
        for tau in (1j, 0.3 + 1.2j):
            torus = TorusParams(tau)
            xs = np.array([[rand_complex(rng) for _ in range(n)] for _ in range(6)])
            ys = np.array([[rand_complex(rng) for _ in range(n)] for _ in range(6)])
            xi = np.array([rand_complex(rng, 0.3) for _ in range(6)])
            wy, wx = _lemma_weights(xs, ys, xi, torus)
            for d in range(6):
                want_y, want_x = lemma_weights_loop(xs[d], ys[d], xi[d], torus)
                assert np.abs(wy[d] - want_y).max() <= 1e-12 * np.abs(want_y).max()
                assert np.abs(wx[d] - want_x).max() <= 1e-12 * np.abs(want_x).max()

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_ks_sides_match_loop(self, n):
        rng = np.random.default_rng(40 + n)
        for tau in (1j, 0.3 + 1.2j):
            torus = TorusParams(tau)
            for _ in range(6):
                xs = np.array([rand_complex(rng) for _ in range(n)])
                ys = np.array([rand_complex(rng) for _ in range(n)])
                xi = rand_complex(rng, 0.3)
                kp = int(rng.integers(n))
                lhs, rhs = _ks_sides(xs, ys, xi, kp, torus)
                want_l, want_r = ks_sides_loop(xs, ys, xi, kp, torus)
                assert abs(lhs - want_l) <= 1e-12 * abs(want_l)
                assert abs(rhs - want_r) <= 1e-12 * abs(want_r)


class TestRunAll:
    def test_default_config_all_pass(self, params3):
        reports = run_all(SuiteConfig(params=params3, seed=42))
        assert len(reports) >= 10
        assert {r.identity_name for r in reports} == EXPECTED_NAMES
        assert all(r.passed for r in reports)
        # reports arrive sorted by identity name
        names = [r.identity_name for r in reports]
        assert names == sorted(names)

    def test_seed_reproducibility(self, params3):
        a = run_all(SuiteConfig(params=params3, seed=42, draws=5))
        b = run_all(SuiteConfig(params=params3, seed=42, draws=5))
        assert a == b  # dataclass equality covers every field, byte for byte

    def test_seed_changes_draws(self, params3):
        a = run_all(SuiteConfig(params=params3, seed=42, draws=5))
        b = run_all(SuiteConfig(params=params3, seed=43, draws=5))
        assert any(x.max_residual != y.max_residual for x, y in zip(a, b))

    def test_tight_tolerance_detects_floor(self, params3):
        reports = run_all(SuiteConfig(params=params3, seed=42, tol=1e-15, draws=5))
        assert any(not r.passed for r in reports)

    def test_passed_iff_below_tol(self, params3):
        for rep in run_all(SuiteConfig(params=params3, seed=1, draws=3)):
            assert rep.passed == (rep.max_residual < rep.tol)


class TestParameterGrid:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("tau", [1j, 1.5j, 0.3 + 1.2j])
    @pytest.mark.parametrize("eta", [0.23, 0.1 + 0.05j])
    def test_default_tolerances_across_grid(self, n, tau, eta):
        params = ModelParams(n, eta, TorusParams(tau))
        reports = run_all(SuiteConfig(params=params, seed=11, draws=4))
        failed = [r.identity_name for r in reports if not r.passed]
        assert not failed, f"failed at n={n}, tau={tau}, eta={eta}: {failed}"
