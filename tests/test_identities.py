"""Identity harness tests: per-check sweeps, suite determinism, failure probe."""

import json
import sys

import numpy as np
import pytest

import ellrs.elliptic as elliptic
import ellrs.identities as identities
import ellrs.intertwiners as intertwiners
from ellrs import (ModelParams, NearSingular, PhaseConfig, SuiteConfig, TorusParams, WeightVector,
                   eigenvector_residual, kernel_residual, lax_equation_residual, lax_gauge,
                   m_matrix, make_backlund_step, phi_matrix, run_all, theta_odd)
from ellrs.identities import (
    _draw_backlund,
    _lemma_weights,
    _rng_for,
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
    draw_generic,
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

# worst_params keys of every report of a default run_all; the benchmark re-evaluates the
# functional relation at its z, x, y and the determinant formula at its z
WORST_KEYS = {
    "commute": {"k", "kprime", "lambda", "z_minus_v"},
    "conjugation": {"k", "kprime", "lambda", "z"},
    "det_formula_n{n}": {"z"},
    "eigenvector": {"c", "lambda", "mu", "u"},
    "functional_relation": {"x", "y", "z"},
    "kernel": {"c", "lambda", "mu", "u"},
    "ks_identity": {"kprime", "x", "xi", "y"},
    "lagrange_N3": {"x", "y", "z"},
    "lax_equation": {"c", "lambda", "mu", "u", "z"},
    "lemma_N3": {"i", "k", "x", "xi", "y", "z"},
    "null_sum_N3": {"x", "y"},
    "ybe": {"w", "z"},
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


def theta_ratio_prod(num_args, den_args, torus):
    """prod theta(num) / prod theta(den), one scalar theta call per factor."""
    out = 1.0 + 0j
    for a in num_args:
        out *= theta_odd(a, torus)
    for a in den_args:
        out /= theta_odd(a, torus)
    return out


def gauge_loop(z, v, lam, rows, weights, eta, torus):
    """[k', k] = theta(Z + lam_k - rows_k' + h) / theta(Z)
    * prod_{l != k} theta(lam_l - rows_k' + h) / theta(lam_l - lam_k) * weights_k',
    with Z = z - v - eta and h = eta/n, one scalar theta call per factor."""
    n = len(lam)
    big_z, h = z - v - eta, eta / n
    out = np.empty((n, n), dtype=complex)
    for kp in range(n):
        for k in range(n):
            others = [l for l in range(n) if l != k]
            out[kp, k] = weights[kp] * theta_ratio_prod(
                [big_z + lam[k] - rows[kp] + h] + [lam[l] - rows[kp] + h for l in others],
                [big_z] + [lam[l] - lam[k] for l in others], torus)
    return out


def backlund_loop(lam, mu, c, u, z, eta, torus):
    """t, t~, C, psi, L(u), L(z), L~(z), M(u), M(z) of one Backlund step,
    one scalar theta call per factor."""
    n = len(lam)
    h = eta / n
    t = [np.exp(c) * theta_ratio_prod([lam[k] - m + h for m in mu], [lam[k] - m for m in mu], torus)
         for k in range(n)]
    tt = [np.exp(c) * theta_ratio_prod(
        [mu[m] - mu[k] - h for m in range(n) if m != k] + [l - mu[k] + h for l in lam],
        [mu[m] - mu[k] + h for m in range(n) if m != k] + [l - mu[k] for l in lam], torus)
        for k in range(n)]
    C = [theta_ratio_prod([m - mu[k] - h for m in mu], [l - mu[k] for l in lam], torus)
         for k in range(n)]
    psi = [theta_ratio_prod([lam[k] + h - m for m in mu], [], torus) for k in range(n)]
    v = u + sum(lam) - sum(mu)
    return dict(t=t, t_tilde=tt, C=C, psi=psi,
                L_u=gauge_loop(u, v, lam, lam, t, eta, torus),
                L_z=gauge_loop(z, v, lam, lam, t, eta, torus),
                Lt_z=gauge_loop(z, v, mu, mu, tt, eta, torus),
                M_u=gauge_loop(u, v, lam, mu, C, eta, torus),
                M_z=gauge_loop(z, v, lam, mu, C, eta, torus))


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

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("tau", [1j, 0.3 + 1.2j])
    def test_backlund_batch_matches_loop(self, n, tau):
        # the stacked step against one scalar-theta loop per draw
        params = ModelParams(n, 0.23, TorusParams(tau))
        rng = _rng_for("batch_oracle", n)
        rows = [_draw_backlund(rng, params) for _ in range(6)]
        lam, mu, c, u = (np.array([r[i] for r in rows], dtype=complex) for i in range(4))
        lam, mu = (WeightVector(w.reshape(6, n), params) for w in (lam, mu))
        step = make_backlund_step(lam, mu, c, u)
        z = np.array([draw_generic(rng, tau, avoid=(v + params.eta,)) for v in step.v])
        got = dict(t=step.source.t, t_tilde=step.t_tilde, C=step.C, psi=step._psi,
                   L_u=lax_gauge(u, step.source, step.v), L_z=lax_gauge(z, step.source, step.v),
                   Lt_z=lax_gauge(z, PhaseConfig(mu, step.t_tilde), step.v),
                   M_u=m_matrix(u, lam, mu, step.v), M_z=m_matrix(z, lam, mu, step.v))
        for d in range(6):
            want = backlund_loop(lam.lam[d], mu.lam[d], c[d], u[d], z[d], params.eta, params.torus)
            for key, value in want.items():
                value = np.asarray(value)
                err = np.abs(got[key][d] - value).max() / np.abs(value).max()
                assert err <= 1e-13, (key, d, err)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("tau", [1j, 0.3 + 1.2j])
    def test_ks_batch_matches_loop(self, n, tau):
        rng = np.random.default_rng(50 + n)
        torus = TorusParams(tau)
        xs = rng.uniform(-0.5, 0.5, (8, n)) + 1j * rng.uniform(-0.5, 0.5, (8, n))
        ys = rng.uniform(-0.5, 0.5, (8, n)) + 1j * rng.uniform(-0.5, 0.5, (8, n))
        xi = rng.uniform(-0.3, 0.3, 8) + 1j * rng.uniform(-0.3, 0.3, 8)
        kp = rng.integers(n, size=8)
        lhs, rhs = _ks_sides(xs, ys, xi, kp, torus)
        for d in range(8):
            want_l, want_r = ks_sides_loop(xs[d], ys[d], xi[d], kp[d], torus)
            assert abs(lhs[d] - want_l) <= 1e-13 * abs(want_l)
            assert abs(rhs[d] - want_r) <= 1e-13 * abs(want_r)


class TestKernelCalls:
    """Kernel calls of the batched sweeps, counted by wrapping the one theta series."""

    @staticmethod
    def count_calls(monkeypatch, run):
        calls = []
        series = elliptic._theta_pair

        def counted(a, b, z, tau):
            calls.append(np.broadcast(np.asarray(a), np.asarray(z)).size)
            return series(a, b, z, tau)

        monkeypatch.setattr(elliptic, "_theta_pair", counted)
        run()
        monkeypatch.setattr(elliptic, "_theta_pair", series)
        return calls

    @pytest.mark.parametrize("check", [check_backlund_residuals, check_ks])
    def test_call_count_does_not_depend_on_draws(self, check, params3, monkeypatch):
        few = self.count_calls(monkeypatch, lambda: check(5, 42, params3))
        many = self.count_calls(monkeypatch, lambda: check(25, 42, params3))
        assert len(few) == len(many) <= 30

    def test_backlund_tables_built_once(self, params3, fixture_lam, fixture_mu, monkeypatch):
        # a step evaluates its lambda-mu, mu-mu, lambda-lambda and theta(mu_k - mu_m) tables
        # once each, when it is built, and shares them among t, t~, C and the residual frames;
        # a residual adds only its z-dependent calls: theta(z - v - eta) once, and one shifted
        # table per gauge matrix.  The Backlund sweep makes 12 calls at any draw count
        build = self.count_calls(monkeypatch,
                                 lambda: make_backlund_step(fixture_lam, fixture_mu, 0.1, 0.2))
        assert len(build) == 4
        step = make_backlund_step(fixture_lam, fixture_mu, 0.1, 0.2)
        assert len(self.count_calls(monkeypatch, lambda: eigenvector_residual(step))) == 2
        assert len(self.count_calls(monkeypatch, lambda: kernel_residual(step))) == 2
        assert len(self.count_calls(monkeypatch,
                                    lambda: lax_equation_residual(0.3 + 0.1j, step))) == 4
        assert len(self.count_calls(monkeypatch,
                                    lambda: check_backlund_residuals(25, 42, params3))) == 12

    def test_m_matrix_calls(self, fixture_lam, fixture_mu, monkeypatch):
        # coupling, lambda-lambda and theta(mu_k - mu_m - eta/n) tables, then the z-dependent two
        calls = self.count_calls(monkeypatch,
                                 lambda: m_matrix(0.3 + 0.1j, fixture_lam, fixture_mu, 0.2))
        assert len(calls) == 5

    def test_lattice_distance_calls_of_a_default_run(self, params3, monkeypatch):
        # one distance call per rejection-sampling candidate: 2,128 at n = 3, seed 42
        calls, original = [], elliptic.lattice_distance

        def counted(z, tau):
            calls.append(z)
            return original(z, tau)

        for module in list(sys.modules.values()):
            if module.__name__.startswith("ellrs") and getattr(module, "lattice_distance",
                                                                None) is original:
                monkeypatch.setattr(module, "lattice_distance", counted)
        run_all(SuiteConfig(params=params3, seed=42))
        assert 0 < len(calls) <= 2128

    def test_no_call_exceeds_2000_elements(self, monkeypatch, torus_i):
        params = ModelParams(4, 0.23, torus_i)
        sizes = self.count_calls(monkeypatch, lambda: run_all(SuiteConfig(params=params, seed=42)))
        assert max(sizes) <= 2000


class TestPhiRedraw:
    def test_refused_rows_are_redrawn(self, params3, monkeypatch):
        # a condition limit of 50 refuses about one matrix in five of both sweeps
        monkeypatch.setattr(intertwiners, "_COND_LIMIT", 50.0)
        inverse, calls = identities.phi_inverse, []

        def spy(z, lam):
            refused = np.flatnonzero(np.linalg.cond(phi_matrix(z, lam).entries) > 50.0)
            calls.append((lam.lam, refused))
            try:
                return inverse(z, lam)
            except NearSingular as exc:
                assert list(exc.draws) == list(refused)
                raise

        monkeypatch.setattr(identities, "phi_inverse", spy)
        for check in (check_commute, check_conjugation):
            calls.clear()
            rep = check(20, 42, params3)
            assert rep.draws == 20 and rep.passed
            assert sum(len(r) for _, r in calls) > 0
        # conjugation inverts once per evaluation: only the refused rows change
        for (before, refused), (after, _) in zip(calls, calls[1:]):
            changed = np.flatnonzero(np.any(before != after, axis=1))
            assert list(changed) == list(refused)


class TestRunAll:
    def test_default_config_all_pass(self, params3):
        reports = run_all(SuiteConfig(params=params3, seed=42))
        assert len(reports) >= 10
        assert {r.identity_name for r in reports} == EXPECTED_NAMES
        assert all(r.passed for r in reports)
        # reports arrive sorted by identity name
        names = [r.identity_name for r in reports]
        assert names == sorted(names)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_worst_params_keys(self, n, torus_i):
        reports = run_all(SuiteConfig(params=ModelParams(n, 0.23, torus_i), seed=42))
        worst = {r.identity_name: json.loads(r.worst_params) for r in reports}
        assert {name: set(w) for name, w in worst.items()} == {
            name.format(n=n): keys for name, keys in WORST_KEYS.items()}
        # complex values as [re, im], weight rows as lists of them, indices as ints
        assert all(len(worst["functional_relation"][key]) == 2 for key in "xyz")
        assert np.array(worst[f"det_formula_n{n}"]["z"]).shape == (n, 2)
        assert np.array(worst["commute"]["lambda"]).shape == (n, 2)
        assert all(isinstance(worst["lemma_N3"][key], int) for key in "ik")

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

    def test_zero_draws_refused(self, params3):
        # a sweep without draws has no residual to report
        with pytest.raises(ValueError, match="at least one draw"):
            run_all(SuiteConfig(params=params3, seed=42, draws=0))
        for check in (check_ybe, check_ks, check_commute):
            with pytest.raises(ValueError, match="at least one draw"):
                check(0, 42, params3)

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
