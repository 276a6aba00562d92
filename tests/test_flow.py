"""Discrete-flow tests: Newton round trips, trajectories, commutativity."""

import cmath
import itertools

import numpy as np
import pytest

import ellrs.flow as flow
from ellrs import (
    DegenerateSolution,
    ModelParams,
    NoConvergence,
    PoleAtLatticePoint,
    SolverConfig,
    Trajectory,
    WeightVector,
    backlund_commutativity_residual,
    backlund_t,
    discrete_rs_residual,
    lattice_distance,
    nearest_assignment,
    solve_next,
    step,
    theta_odd,
    trajectory_residuals,
)
from conftest import rand_complex
from test_intertwiners import random_weights


def random_pair(rng, params):
    """(lambda, mu) with mu inside the free-flow branch's Newton basin.

    The step equation is multivalued in mu (distinct Backlund branches sit a
    finite distance apart), so round-trip recovery is only asserted for
    target draws near the default guess lambda - eta/n.
    """
    while True:
        lam = random_weights(rng, params)
        try:
            mu = WeightVector(
                lam.lam - params.eta / params.n
                + 0.05 * np.array([rand_complex(rng, 0.5) for _ in range(params.n)]),
                params,
            )
            return lam, mu
        except Exception:
            continue


class TestSolveNext:
    def test_round_trip_recovers_mu(self, torus_i):
        rng = np.random.default_rng(20)
        for n in (2, 3, 4):
            params = ModelParams(n, 0.23, torus_i)
            for _ in range(8):
                lam, mu_star = random_pair(rng, params)
                c = rand_complex(rng, 0.3)
                t = backlund_t(lam, mu_star, c)
                mu = solve_next(lam, t, c)
                _, dist = nearest_assignment(mu.lam, mu_star.lam, params.tau)
                assert dist < 1e-8

    def test_n1_against_grid_oracle(self, torus_i):
        params = ModelParams(1, 0.23, torus_i)
        lam = WeightVector(np.array([0.3 + 0.05j]), params)
        mu_star = 0.21 - 0.03j
        c = 0.07
        t = cmath.exp(c) * theta_odd(lam.lam[0] - mu_star + 0.23, torus_i) \
            / theta_odd(lam.lam[0] - mu_star, torus_i)
        mu = solve_next(lam, np.array([t]), c)

        # coarse independent search for the residual minimum over the cell
        def resid(m):
            return abs(
                cmath.exp(c) * theta_odd(lam.lam[0] - m + 0.23, torus_i)
                / theta_odd(lam.lam[0] - m, torus_i) - t
            )

        grid = [
            complex(x, y)
            for x in np.linspace(-0.5, 0.5, 101)
            for y in np.linspace(-0.5, 0.5, 101)
        ]
        best = min(grid, key=resid)
        _, dist = nearest_assignment(np.array([best]), mu.lam, params.tau)
        assert dist < 0.02  # within a grid cell of the Newton answer
        _, dist_star = nearest_assignment(mu.lam, np.array([mu_star]), params.tau)
        assert dist_star < 1e-8

    @pytest.mark.parametrize("multistart", [0, -2])
    def test_multistart_below_one_refused(self, multistart):
        with pytest.raises(ValueError, match="multistart must be at least 1"):
            SolverConfig(multistart=multistart)

    def test_zero_t_rejected(self, fixture_lam):
        with pytest.raises(ValueError):
            solve_next(fixture_lam, np.array([0.0, 1.0, 1.0]), 0.1)

    def test_unsolvable_raises(self, fixture_lam):
        t = np.array([1e30, 1.0, 1.0])
        with pytest.raises((NoConvergence, DegenerateSolution)):
            solve_next(fixture_lam, t, 0.1, SolverConfig(max_iter=20, multistart=2))

    def test_stagnation_ends_attempt(self, fixture_lam, monkeypatch):
        # every start stalls in its first line search: one evaluation at the start
        # plus 24 halvings, then the attempt ends instead of creeping on
        calls = []
        equation = flow._step_equation
        monkeypatch.setattr(flow, "_step_equation", lambda *a: calls.append(1) or equation(*a))
        with pytest.raises(NoConvergence):
            solve_next(fixture_lam, np.array([1e30, 1.0, 1.0]), 0.1)
        assert len(calls) <= SolverConfig().multistart * 25

    def test_no_convergence_reports_best_residual(self, fixture_lam, monkeypatch):
        # the error carries the least relative residual of any iterate, over all starts;
        # the iterates are the start of each attempt and every line-search trial whose
        # residual max_k |r_k| fell below that of the iterate before it
        t, attempts = np.array([1e30, 1.0, 1.0]), []
        newton, equation = flow._newton, flow._step_equation

        def new_attempt(*args):
            attempts.append([])
            return newton(*args)

        def recorded(*args):
            res, jac = equation(*args)
            size, iterates = np.max(np.abs(res)), attempts[-1]
            if not iterates or size < iterates[-1][0]:
                iterates.append((size, np.max(np.abs(res) / np.abs(t))))
            return res, jac

        monkeypatch.setattr(flow, "_newton", new_attempt)
        monkeypatch.setattr(flow, "_step_equation", recorded)
        with pytest.raises(NoConvergence) as info:
            solve_next(fixture_lam, t, 0.1, SolverConfig(multistart=3))
        assert info.value.attempts == 3 and len(attempts) == 3
        seen = [rel for iterates in attempts for _, rel in iterates]
        assert len(seen) >= 3 and info.value.best_residual == min(seen)
        assert f"best relative residual {min(seen):.3g}" in str(info.value)

    def test_deterministic(self, fixture_lam, fixture_mu):
        t = backlund_t(fixture_lam, fixture_mu, 0.1)
        a = solve_next(fixture_lam, t, 0.1)
        b = solve_next(fixture_lam, t, 0.1)
        assert np.array_equal(a.lam, b.lam)

    def test_guess_is_honored(self, fixture_lam, fixture_mu):
        t = backlund_t(fixture_lam, fixture_mu, 0.1)
        mu = solve_next(fixture_lam, t, 0.1, guess=fixture_mu)
        assert np.abs(mu.lam - fixture_mu.lam).max() < 1e-8


class TestStepEquation:
    def test_jacobian_matches_central_differences(self, torus_i):
        # oracle: central differences of the residual, column by column
        rng = np.random.default_rng(22)
        h = 1e-6
        for n in (1, 2, 3, 4):
            params = ModelParams(n, 0.23, torus_i)
            for _ in range(4):
                lam, mu = random_pair(rng, params)
                c = rand_complex(rng, 0.3)
                t = backlund_t(lam, mu, c)
                trial = mu.lam + 0.02 * np.array([rand_complex(rng) for _ in range(n)])

                def residual(m):
                    return flow._step_equation(m, lam.lam, t, c, params)[0]

                res, jac = flow._step_equation(trial, lam.lam, t, c, params)
                want = backlund_t(lam, WeightVector(trial, params), c) - t
                assert np.abs(res - want).max() == 0
                fd = np.empty((n, n), dtype=complex)
                for s in range(n):
                    dm = np.zeros(n, dtype=complex)
                    dm[s] = h
                    fd[:, s] = (residual(trial + dm) - residual(trial - dm)) / (2 * h)
                assert np.abs(jac - fd).max() < 1e-7 * np.abs(jac).max()

    def test_jacobian_pole_guard(self, fixture_lam, fixture_mu):
        params = fixture_lam.params
        t = backlund_t(fixture_lam, fixture_mu, 0.1)
        mu = fixture_mu.lam.copy()
        mu[1] = fixture_lam.lam[0] + params.eta / params.n + 1j + 1e-12
        with pytest.raises(PoleAtLatticePoint, match="_step_equation"):
            flow._step_equation(mu, fixture_lam.lam, t, 0.1, params)

    def test_zero_theta_stalls_the_attempt(self, monkeypatch, fixture_lam, fixture_mu):
        params = fixture_lam.params
        t = backlund_t(fixture_lam, fixture_mu, 0.1)
        table = flow.theta_table

        def zero_corner(*args):
            th, dth = table(*args)
            th[0, 0, 0] = 0
            return th, dth

        monkeypatch.setattr(flow, "theta_table", zero_corner)
        with pytest.raises(FloatingPointError):
            flow._step_equation(fixture_mu.lam, fixture_lam.lam, t, 0.1, params)
        with pytest.raises(NoConvergence):
            solve_next(fixture_lam, t, 0.1, SolverConfig(max_iter=5, multistart=2))

    def test_programming_errors_propagate(self, monkeypatch, fixture_lam, fixture_mu):
        t = backlund_t(fixture_lam, fixture_mu, 0.1)

        def broken(*args):
            raise TypeError("broken kernel")

        monkeypatch.setattr(flow, "theta_table", broken)
        with pytest.raises(TypeError):
            solve_next(fixture_lam, t, 0.1)


class TestTrajectory:
    def test_ten_steps_and_residuals(self, fixture_lam, fixture_mu):
        t0 = backlund_t(fixture_lam, fixture_mu, 0.1)
        traj = Trajectory.initial(fixture_lam, t0, 0.1)
        for _ in range(10):
            traj = step(traj, 0.1)
        assert len(traj.steps) == 11
        residuals = trajectory_residuals(traj)
        assert len(residuals) == 9
        assert max(residuals) < 1e-8

    def test_lattice_jump_is_not_repeated(self, params2):
        # README start restricted to n = 2: at a = 58 Newton lands lambda_0 on
        # the root one period below; plain 2*lambda(a) - lambda(a-1)
        # extrapolation repeated that jump every step and aborted at a = 71
        lam = WeightVector(np.array([0.11 + 0.03j, 0.43 - 0.06j]), params2)
        mu = WeightVector(np.array([0.06 + 0.01j, 0.39 - 0.08j]), params2)
        traj = Trajectory.initial(lam, backlund_t(lam, mu, 0.1), 0.1)
        for _ in range(100):
            traj = step(traj, 0.1)
        assert max(trajectory_residuals(traj)) < 1e-8

    def test_first_step_recovers_seed_mu(self, fixture_lam, fixture_mu):
        t0 = backlund_t(fixture_lam, fixture_mu, 0.1)
        traj = step(Trajectory.initial(fixture_lam, t0, 0.1), 0.1)
        assert np.abs(traj.steps[1].lam.lam - fixture_mu.lam).max() < 1e-8

    def test_on_shell_t_consistency(self, fixture_lam, fixture_mu):
        # Lax weights from the step-(a) formula at time a+1 must agree with
        # the step-(a+1) companion formula
        t0 = backlund_t(fixture_lam, fixture_mu, 0.1)
        traj = Trajectory.initial(fixture_lam, t0, 0.1)
        for _ in range(3):
            traj = step(traj, 0.1)
        s0, s1, s2 = traj.steps[1], traj.steps[2], traj.steps[3]
        via_next = backlund_t(s1.lam, s2.lam, s1.c)
        assert np.abs(via_next - s1.t).max() < 1e-8 * np.abs(s1.t).max()

    def test_deterministic_trajectory(self, fixture_lam, fixture_mu):
        t0 = backlund_t(fixture_lam, fixture_mu, 0.1)

        def run():
            traj = Trajectory.initial(fixture_lam, t0, 0.1)
            for _ in range(4):
                traj = step(traj, 0.1)
            return traj

        ta, tb = run(), run()
        for sa, sb in zip(ta.steps, tb.steps):
            assert np.array_equal(sa.lam.lam, sb.lam.lam)
            assert np.array_equal(sa.t, sb.t)


class TestDiscreteRS:
    def test_chained_triple(self, fixture_lam, fixture_mu):
        t0 = backlund_t(fixture_lam, fixture_mu, 0.1)
        traj = Trajectory.initial(fixture_lam, t0, 0.1)
        traj = step(traj, 0.08)
        traj = step(traj, 0.12)
        p, c, n_ = traj.steps
        assert discrete_rs_residual(p.lam, c.lam, n_.lam, p.c, c.c) < 1e-8

    def test_time_reversal_with_eta_flip(self, torus_i, fixture_lam, fixture_mu):
        # reversing time swaps prev/next, negates the c difference and flips
        # the sign of eta; then both sides invert termwise
        t0 = backlund_t(fixture_lam, fixture_mu, 0.1)
        traj = Trajectory.initial(fixture_lam, t0, 0.1)
        traj = step(traj, 0.08)
        traj = step(traj, 0.12)
        p, c, n_ = traj.steps
        neg = ModelParams(3, -0.23, torus_i)
        re = lambda wv: WeightVector(wv.lam, neg)
        fwd = discrete_rs_residual(p.lam, c.lam, n_.lam, p.c, c.c)
        rev = discrete_rs_residual(re(n_.lam), re(c.lam), re(p.lam), c.c, p.c)
        assert fwd < 1e-8
        assert rev < 1e-8

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_equation_of_motion_off_shell(self, torus_i, n):
        # on arbitrary weights |t - t~| / (|t| + |t~|) equals the relative residual of the
        # equation of motion written out as theta products, which share the factor t / lhs
        params = ModelParams(n, 0.23, torus_i)
        rng = np.random.default_rng(90 + n)
        h = 0.23 / n
        for _ in range(5):
            prv, cur, nxt = (rng.uniform(-0.4, 0.4, n) + 1j * rng.uniform(-0.4, 0.4, n)
                             for _ in range(3))
            cp, cc = complex(*rng.uniform(-0.3, 0.3, 2)), complex(*rng.uniform(-0.3, 0.3, 2))
            want = 0.0
            for k in range(n):
                lhs = cmath.exp(cc - cp)
                for m in range(n):
                    if m != k:
                        lhs *= (theta_odd(cur[m] - cur[k] + h, torus_i)
                                / theta_odd(cur[m] - cur[k] - h, torus_i))
                rhs = 1.0
                for s in range(n):
                    dn, dp = cur[k] - nxt[s], cur[k] - prv[s]
                    rhs *= theta_odd(dn, torus_i) / theta_odd(dn + h, torus_i)
                    rhs *= theta_odd(dp - h, torus_i) / theta_odd(dp, torus_i)
                want = max(want, abs(lhs - rhs) / (abs(lhs) + abs(rhs)))
            got = discrete_rs_residual(*(WeightVector(w, params) for w in (prv, cur, nxt)), cp, cc)
            assert abs(got - want) <= 1e-12 * want

    def test_trajectory_residuals_match_slices(self, fixture_lam, fixture_mu):
        traj = Trajectory.initial(fixture_lam, backlund_t(fixture_lam, fixture_mu, 0.1), 0.1)
        assert trajectory_residuals(traj) == []
        for _ in range(5):
            traj = step(traj, 0.1)
        s = traj.steps
        want = [discrete_rs_residual(s[a - 1].lam, s[a].lam, s[a + 1].lam, s[a - 1].c, s[a].c)
                for a in range(1, 5)]
        assert np.allclose(trajectory_residuals(traj), want, rtol=1e-12, atol=0)

    def test_n1_scalar_closed_form(self, torus_i):
        params = ModelParams(1, 0.23, torus_i)
        lam = WeightVector(np.array([0.31 + 0.06j]), params)
        mu = WeightVector(np.array([0.22 - 0.01j]), params)
        t0 = backlund_t(lam, mu, 0.05)
        traj = Trajectory.initial(lam, t0, 0.05)
        traj = step(traj, 0.05)
        traj = step(traj, 0.05)
        p, c, n_ = traj.steps
        res = discrete_rs_residual(p.lam, c.lam, n_.lam, p.c, c.c)
        assert res < 1e-8
        # scalar closed form: the m != k products are empty
        lhs = 1.0 + 0j
        rhs = theta_odd(c.lam.lam[0] - n_.lam.lam[0], torus_i) \
            / theta_odd(c.lam.lam[0] - n_.lam.lam[0] + 0.23, torus_i) \
            * theta_odd(c.lam.lam[0] - p.lam.lam[0] - 0.23, torus_i) \
            / theta_odd(c.lam.lam[0] - p.lam.lam[0], torus_i)
        assert abs(lhs - rhs) / (abs(lhs) + abs(rhs)) < 1e-8


class TestCommutativity:
    def test_fixture_pair(self, fixture_lam, fixture_mu):
        t0 = backlund_t(fixture_lam, fixture_mu, 0.1)
        res = backlund_commutativity_residual(fixture_lam, t0, 0.1, -0.07)
        assert res < 1e-7

    def test_identical_parameters(self, fixture_lam, fixture_mu):
        t0 = backlund_t(fixture_lam, fixture_mu, 0.1)
        res = backlund_commutativity_residual(fixture_lam, t0, 0.1, 0.1)
        assert res < 1e-9

    def test_random_n2(self, params2):
        rng = np.random.default_rng(21)
        for _ in range(5):
            lam, mu = random_pair(rng, params2)
            t0 = backlund_t(lam, mu, 0.1)
            res = backlund_commutativity_residual(lam, t0, 0.08, -0.05)
            assert res < 1e-7


class TestNearestAssignment:
    """The in-package assignment against brute force and, when installed, SciPy."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_minimum_total_matches_brute_force(self, n):
        rng = np.random.default_rng(100 + n)
        for tau in (1j, 0.3 + 1.2j):
            for _ in range(20):
                a = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
                b = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
                perm, worst = nearest_assignment(a, b, tau)
                dist = lattice_distance(a[:, None] - b[None, :], tau)
                best = min(sum(dist[i, p[i]] for i in range(n))
                           for p in itertools.permutations(range(n)))
                assert sorted(perm) == list(range(n))
                assert abs(dist[np.arange(n), perm].sum() - best) < 1e-12
                assert worst == dist[np.arange(n), perm].max()

    def test_columns_match_scipy(self):
        # random costs have one optimum; small integer costs have many, and the
        # ties must resolve as SciPy resolves them
        linear_sum_assignment = pytest.importorskip("scipy.optimize").linear_sum_assignment
        rng = np.random.default_rng(7)
        for trial in range(3000):
            n = int(rng.integers(1, 9))
            m = int(rng.integers(n, 10))
            cost = rng.random((n, m)) if trial % 2 else rng.integers(0, 3, (n, m)) * 1.0
            assert flow._min_cost_assignment(cost.tolist()) == list(linear_sum_assignment(cost)[1])

    @pytest.mark.parametrize("shape", [(1, 1), (1, 4), (4, 1), (3, 5), (5, 3)])
    def test_rectangular_matches_scipy(self, shape):
        linear_sum_assignment = pytest.importorskip("scipy.optimize").linear_sum_assignment
        rng = np.random.default_rng(sum(shape))
        a = rng.uniform(-1, 1, shape[0]) + 1j * rng.uniform(-1, 1, shape[0])
        b = rng.uniform(-1, 1, shape[1]) + 1j * rng.uniform(-1, 1, shape[1])
        perm, worst = nearest_assignment(a, b, 1j)
        dist = lattice_distance(a[:, None] - b[None, :], 1j)
        rows, cols = linear_sum_assignment(dist)
        assert np.array_equal(perm[rows], cols)
        assert np.all(np.delete(perm, rows) == -1)  # rows of a left without a partner
        assert worst == dist[rows, cols].max()
