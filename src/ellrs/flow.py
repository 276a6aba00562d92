"""Discrete-time evolution driven by the Backlund map.

One step solves the coupling condition

    t_k = e^c * prod_s theta(lambda_k - mu_s + eta/n) / theta(lambda_k - mu_s)

for the next positions mu = lambda(a+1) (damped Newton on the multiplicative
residual, analytic Jacobian through zeta), then updates the Lax weights via
the companion product formula.  mu is only defined as an unordered set, so
components are matched across steps by nearest assignment modulo the lattice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .elliptic import (ModelParams, _scalar, lattice_distance, lattice_guard, lattice_reduce,
                       theta_table)
from .errors import DegenerateSolution, DegenerateWeights, EllrsError, NoConvergence
from .intertwiners import WeightVector
from .lax import PhaseConfig, _t, backlund_t, backlund_ttilde

# Newton steps longer than this (per component) are rescaled; keeps trial
# points inside a couple of lattice cells where theta stays representable
_MAX_NEWTON_STEP = 0.45
# failures of one Newton attempt that end the attempt, not the solve; the
# table arithmetic raises FloatingPointError instead of producing inf or nan
_ATTEMPT_ERRORS = (EllrsError, np.linalg.LinAlgError, FloatingPointError)
_RAISE_ALL = dict(divide="raise", invalid="raise", over="raise")


@dataclass(frozen=True)
class SolverConfig:
    """Knobs of the Newton solver behind solve_next."""

    tol: float = 1e-11
    max_iter: int = 50
    multistart: int = 5

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        for name in ("max_iter", "multistart"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")


@dataclass(frozen=True, eq=False)
class StepState:
    """One time slice (a, lambda(a), t(a), c(a)) of a trajectory."""

    a: int
    lam: WeightVector
    t: np.ndarray
    c: complex


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Ordered Backlund steps interpreted as discrete time evolution."""

    steps: tuple[StepState, ...]
    params: ModelParams

    @classmethod
    def initial(cls, lam: WeightVector, t, c: complex) -> "Trajectory":
        t = np.asarray(t, dtype=complex).reshape(-1)
        return cls((StepState(0, lam, t, complex(c)),), lam.params)

    @property
    def last(self) -> StepState:
        return self.steps[-1]


# ---------------------------------------------------------------------------
# assignment modulo the lattice
# ---------------------------------------------------------------------------

def _min_cost_assignment(cost: list[list[float]]) -> list[int]:
    """Column of each row in an exact minimum-total-cost assignment, rows <= columns:
    shortest augmenting paths with dual potentials u, v (Jonker-Volgenant, in the form
    and tie-breaking of Crouse, IEEE TAES 52, 2016).  On lists, since at the size of a
    weight vector NumPy's per-call overhead would cost more than the O(n^2 m) arithmetic."""
    n, m = len(cost), len(cost[0])
    u, v, col4row, row4col = [0.0] * n, [0.0] * m, [-1] * n, [-1] * m
    for cur in range(n):
        short, path = [math.inf] * m, [-1] * m
        remaining, seen = list(range(m - 1, -1, -1)), []
        i, low = cur, 0.0
        while i >= 0:  # grow the shortest-path tree until it reaches a free column
            base, row, best, index = low - u[i], cost[i], math.inf, 0
            for it, j in enumerate(remaining):
                s, r = short[j], base + row[j] - v[j]
                if r < s:
                    path[j] = i
                    short[j] = s = r
                if s < best or (s == best and row4col[j] < 0):
                    best, index = s, it
            low, j = best, remaining[index]
            remaining[index] = remaining[-1]
            remaining.pop()
            seen.append(j)
            i = row4col[j]
        u[cur] += low
        for j in seen:
            v[j] -= low - short[j]
            if row4col[j] >= 0:
                u[row4col[j]] += low - short[j]
        while i != cur:  # augment along the path back to cur
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
    return col4row


def nearest_assignment(a, b, tau: complex) -> tuple[np.ndarray, float]:
    """Match components of a to components of b modulo the lattice.

    The exact assignment on pairwise lattice distances, which minimises their
    total.  Returns (perm, max_distance) with a[i] ~ b[perm[i]]; when a is the
    longer, its unmatched components get perm[i] = -1.
    """
    a = np.asarray(a, dtype=complex).reshape(-1)
    b = np.asarray(b, dtype=complex).reshape(-1)
    dist = lattice_distance(a[:, None] - b[None, :], tau)
    if a.size <= b.size:
        pairs = list(enumerate(_min_cost_assignment(dist.tolist())))
    else:  # match every component of b instead
        pairs = [(i, j) for j, i in enumerate(_min_cost_assignment(dist.T.tolist()))]
    perm = [-1] * a.size
    for i, j in pairs:
        perm[i] = j
    return np.array(perm), float(max(dist[i, j] for i, j in pairs))


# ---------------------------------------------------------------------------
# Newton solve for the next positions
# ---------------------------------------------------------------------------

def _step_equation(mu: np.ndarray, lam: np.ndarray, t: np.ndarray, c: complex,
                   params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Residual r_k = backlund_t(lam, mu, c)_k - t_k of the step equation at mu, and its Jacobian

    d r_k / d mu_s = prod_k * (zeta(lam_k - mu_s) - zeta(lam_k - mu_s + eta/n)),

    zeta = theta'/theta with its poles on the lattice, from one theta table at
    lam_k - mu_s + delta, delta = 0, eta/n.
    """
    h = params.eta / params.n
    d = lam[:, None] - mu[None, :]
    lattice_guard(np.stack((d, d + h)), params.tau, "_step_equation: lambda_k - mu_s (+ eta/n)")
    th, dth = theta_table(lam, mu, (0, h), params.torus)
    with np.errstate(**_RAISE_ALL):
        prod = _t(th, c)
        zeta = dth / th
    return prod - t, prod[:, None] * (zeta[0] - zeta[1])


def solve_next(
    lam: WeightVector,
    t,
    c: complex,
    cfg: SolverConfig = SolverConfig(),
    guess: WeightVector | None = None,
) -> WeightVector:
    """Solve the step equation for mu = lambda(a+1).

    Newton iteration on r_k(mu) = e^c prod_s(...) - t_k with damped steps and
    deterministic multistart (guess perturbed by 0.05-scale offsets drawn from
    a fixed per-attempt seed).  Convergence criterion: max_k |r_k|/|t_k| < tol.
    """
    params = lam.params
    n = params.n
    t = PhaseConfig(lam, t).t
    base_guess = guess.lam if guess is not None else lam.lam - params.eta / n

    degenerate, best = None, math.inf  # the last attempt's DegenerateWeights, if it made one
    for attempt in range(cfg.multistart):
        mu = np.array(base_guess, dtype=complex)
        if attempt > 0:
            rng = np.random.default_rng([attempt, 0xB1])
            mu = mu + 0.05 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        mu, reached = _newton(mu, lam.lam, t, c, params, cfg)
        best = min(best, reached)
        if mu is None:
            degenerate = None
            continue
        # mu is defined only as an unordered set; order it along the guess
        perm, _ = nearest_assignment(base_guess, mu, params.tau)
        try:
            return WeightVector(mu[perm], params)
        except DegenerateWeights as exc:
            # converged onto a degenerate root; retry from a perturbed start
            degenerate = exc
    if degenerate is None:
        raise NoConvergence(f"solve_next failed from {cfg.multistart} starts of at most "
                            f"{cfg.max_iter} iterations; best relative residual {best:.3g}",
                            best_residual=best, attempts=cfg.multistart)
    raise DegenerateSolution(f"solve_next converged onto degenerate weights: {degenerate}")


def _newton(mu, lam_arr, t, c, params, cfg):
    """One damped Newton attempt from mu: (the root, or None if the attempt
    fails, and the smallest relative residual max_k |r_k|/|t_k| it reached)."""
    scale, best = np.abs(t), math.inf
    try:
        res, jac = _step_equation(mu, lam_arr, t, c, params)
    except _ATTEMPT_ERRORS:
        return None, best
    for _ in range(cfg.max_iter):
        best = min(best, float(np.max(np.abs(res) / scale)))
        if best < cfg.tol:
            return mu, best
        try:
            delta = np.linalg.solve(jac, -res)
        except _ATTEMPT_ERRORS:
            return None, best
        big = np.max(np.abs(delta))
        if big > _MAX_NEWTON_STEP:
            delta *= _MAX_NEWTON_STEP / big
        # halve the step until the residual actually decreases
        factor = 1.0
        base = np.max(np.abs(res))
        for _ in range(24):
            try:
                trial = _step_equation(mu + factor * delta, lam_arr, t, c, params)
                if np.max(np.abs(trial[0])) < base:
                    break
            except _ATTEMPT_ERRORS:
                pass
            factor /= 2
        else:
            return None, best  # stagnation: no decrease along the Newton direction
        mu, (res, jac) = mu + factor * delta, trial
    best = min(best, float(np.max(np.abs(res) / scale)))
    return (mu if best < cfg.tol else None), best


# ---------------------------------------------------------------------------
# trajectory stepping and residuals
# ---------------------------------------------------------------------------

def step(traj: Trajectory, c_next: complex, cfg: SolverConfig = SolverConfig()) -> Trajectory:
    """Append one time slice: solve for lambda(a+1), update t by the companion
    formula, install c(a+1) = c_next.

    The Newton guess extrapolates lambda(a) by the last displacement
    lambda(a) - lambda(a-1), reduced modulo the lattice, when history exists,
    else it is the free-flow shift lambda - eta/n.  The reduction keeps a
    root that landed one period away from repeating that jump every step.
    """
    if not traj.steps:
        raise ValueError("trajectory is empty")
    cur = traj.last
    params = traj.params
    guess = None
    if len(traj.steps) >= 2:
        prev = traj.steps[-2]
        shift = lattice_reduce(cur.lam.lam - prev.lam.lam, params.tau)[0]
        try:
            guess = WeightVector(cur.lam.lam + shift, params)
        except DegenerateWeights:
            guess = None
    nxt = solve_next(cur.lam, cur.t, cur.c, cfg, guess=guess)
    t_next = backlund_ttilde(cur.lam, nxt, cur.c)
    state = StepState(cur.a + 1, nxt, t_next, complex(c_next))
    return Trajectory(traj.steps + (state,), params)


def discrete_rs_residual(
    lam_prev: WeightVector,
    lam_cur: WeightVector,
    lam_next: WeightVector,
    c_prev: complex,
    c_cur: complex,
) -> float:
    """Relative residual of the second-order discrete equation of motion

    e^{c(a)-c(a-1)} prod_{m != k} theta(lam_mk(a)+eta/n)/theta(lam_mk(a)-eta/n)
      = prod_s theta(lam_k(a)-lam_s(a+1))/theta(lam_k(a)-lam_s(a+1)+eta/n)
               * theta(lam_k(a)-lam_s(a-1)-eta/n)/theta(lam_k(a)-lam_s(a-1))

    which says that the t of the step a -> a+1 equals the t~ of the step a-1 -> a:
    max over k of |t - t~| / (|t| + |t~|), one per draw for stacked weights.
    """
    t = backlund_t(lam_cur, lam_next, c_cur)
    t_tilde = backlund_ttilde(lam_prev, lam_cur, c_prev)
    return _scalar(np.max(np.abs(t - t_tilde) / (np.abs(t) + np.abs(t_tilde)), axis=-1))


def trajectory_residuals(traj: Trajectory) -> list[float]:
    """discrete_rs_residual for every interior time slice of the trajectory, in one stacked call."""
    lam = np.array([s.lam.lam for s in traj.steps])
    c = np.array([s.c for s in traj.steps])
    prev, cur, nxt = (WeightVector(lam[a:len(lam) - 2 + a], traj.params) for a in range(3))
    return discrete_rs_residual(prev, cur, nxt, c[:-2], c[1:-1]).tolist()


def backlund_commutativity_residual(
    lam: WeightVector,
    t,
    c1: complex,
    c2: complex,
    cfg: SolverConfig = SolverConfig(),
) -> float:
    """Compose B_{c1} then B_{c2} and in the opposite order; return the larger
    of the lambda mismatch (nearest assignment mod lattice) and the t mismatch.
    """
    params = lam.params

    def apply(lam_in: WeightVector, t_in, c: complex):
        mu = solve_next(lam_in, t_in, c, cfg)
        return mu, backlund_ttilde(lam_in, mu, c)

    l1, t1 = apply(lam, t, c1)
    l12, t12 = apply(l1, t1, c2)
    l2, t2 = apply(lam, t, c2)
    l21, t21 = apply(l2, t2, c1)
    perm, lam_dist = nearest_assignment(l12.lam, l21.lam, params.tau)
    t_dist = float(np.abs(t12 - t21[perm]).max())
    return max(lam_dist, t_dist)
