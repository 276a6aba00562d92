"""Randomized two-sided verification of every standalone theta identity.

Each check evaluates its left and right sides through disjoint call paths
(matrix inversions on one side, bare theta products on the other, and so on)
so a single implementation bug cannot cancel out of both sides.  Draws are
uniform over the fundamental cell and rejection-resampled (_retry) a fixed
distance away from every theta zero that appears in a denominator, which keeps
the condition numbers bounded and the fixed tolerances meaningful.  Every check
draws its rows in sweep order (_columns), evaluates one stacked residual over
them, and reports its worst draw (_report).

The functional relation and the interpolation identity carry an explicit
theta'(0) factor on the product side; the bare odd theta has
theta'(0) = -2*pi*etaD(tau)^3, not 1, and the factor is what closes them.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass

import numpy as np

from .belavin import ybe_residual
from .elliptic import (
    ModelParams,
    TorusParams,
    _drop_diagonal,
    dedekind_eta,
    lattice_distance,
    theta_level,
    theta_odd_deriv,
    theta_odd_pair,
    theta_table,
)
from .errors import NearSingular
from .intertwiners import WeightVector, det_phi_closed_form, phi_inverse, phi_matrix
from .lax import (
    PhaseConfig,
    _ks_sides,
    eigenvector_residual,
    kernel_residual,
    lax_equation_residual,
    lax_gauge,
    make_backlund_step,
)

_MIN_ZERO_DIST = 0.02
_MAX_RETRIES = 200


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of one randomized identity sweep."""

    identity_name: str
    draws: int
    max_residual: float
    worst_params: str
    seed: int
    tol: float
    passed: bool


@dataclass(frozen=True)
class SuiteConfig:
    """Configuration for run_all: model parameters plus optional overrides."""

    params: ModelParams
    seed: int = 42
    tol: float | None = None  # overrides every per-check tolerance when set
    draws: int | None = None  # overrides every per-check draw count when set


def _rng_for(name: str, seed: int) -> np.random.Generator:
    # one independent, reproducible stream per identity
    return np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, zlib.crc32(name.encode())])


def _draw_cell(rng: np.random.Generator, tau: complex) -> complex:
    # uniform over the cell: z = x + y*tau with x, y in [0, 1)
    return rng.uniform() + rng.uniform() * tau


def _retry(draw, guarded, tau: complex, what: str):
    """The first draw() whose guarded(candidate) points all lie _MIN_ZERO_DIST or more
    from the lattice, within _MAX_RETRIES attempts."""
    for _ in range(_MAX_RETRIES):
        candidate = draw()
        if lattice_distance(guarded(candidate), tau).min() >= _MIN_ZERO_DIST:
            return candidate
    raise RuntimeError(f"could not draw {what}")


def draw_generic(rng: np.random.Generator, tau: complex, avoid=()):
    """A cell-uniform draw that clears the lattice and every avoid-point mod lattice."""
    centers = np.array([0, *avoid], dtype=complex)
    return _retry(lambda: _draw_cell(rng, tau), lambda z: z - centers, tau,
                  "a generic point (avoid set too dense)")


def _draw_points(rng, tau: complex, count: int, avoid=(), shifts=(0,)) -> list[complex]:
    """count draws that clear the avoid points and, moved by each shift, the draws before them."""
    out: list[complex] = []
    for _ in range(count):
        out.append(draw_generic(rng, tau, avoid=[*avoid, *(p + s for s in shifts for p in out)]))
    return out


def _spread(params: ModelParams) -> tuple:
    """Shifts for _draw_points that also clear the +-eta/n offsets of gauge-frame denominators."""
    return (0, params.eta / params.n, -params.eta / params.n)


def _columns(draws: int, draw_row) -> list[np.ndarray]:
    """The columns of `draws` rows of draw_row(), drawn in sweep order, stacked [draw, ...]."""
    if draws < 1:
        raise ValueError(f"a sweep needs at least one draw, got {draws}")
    return [np.array(column) for column in zip(*(draw_row() for _ in range(draws)))]


def _diffs(a, b) -> np.ndarray:
    """[..., i, j] = a_i - b_j over the last axis of stacked draws."""
    return a[..., :, None] - b[..., None, :]


def _rel_diff(lhs, rhs):
    return np.abs(lhs - rhs) / (np.abs(lhs) + np.abs(rhs) + 1e-300)


def _phi_sweep(params: ModelParams, draws: int, draw_row, sides):
    """(weights [draw, n], z [draw], sides(weights, z)) of a sweep through phi and phibar.

    draw_row() draws one (weights, z) row.  Every row is drawn first, in sweep order, and
    sides evaluates phi and phibar once over the stack; the rows whose phibar is refused as
    NearSingular are redrawn in place and the stack is evaluated again.
    """
    lam, z = _columns(draws, draw_row)
    for _ in range(_MAX_RETRIES):
        try:
            return lam, z, sides(WeightVector(lam, params), z)
        except NearSingular as exc:
            for d in exc.draws:
                lam[d], z[d] = draw_row()
    raise RuntimeError("could not draw a well-conditioned phi sweep")


def _report(name, residuals, seed, tol, axes=(), **columns) -> IdentityReport:
    """Report of a sweep from its residuals, indexed [draw, *axes] in sweep order.

    The worst entry is the first maximum, as a running strict maximum over the sweep
    finds it.  Its worst_params hold the value of every draw column (indexed [draw, ...])
    at its draw, [re, im] for each complex number, and its trailing residual indices under
    the names in axes.
    """
    residuals = np.asarray(residuals, dtype=float)
    where = np.unravel_index(np.argmax(residuals), residuals.shape)
    max_residual = float(residuals[where])
    worst = dict(zip(axes, map(int, where[1:])))
    for key, column in columns.items():
        v = column[where[0]]
        worst[key] = (np.stack((v.real, v.imag), -1) if np.iscomplexobj(v) else v).tolist()
    return _summary(name, len(residuals), max_residual, worst, seed, tol)


def _summary(name, draws, max_residual, worst, seed, tol) -> IdentityReport:
    """The report with plain Python fields; it passes when max_residual < tol."""
    return IdentityReport(name, draws, max_residual, json.dumps(worst, sort_keys=True), int(seed),
                          float(tol), bool(max_residual < tol))


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------

def check_functional_relation(draws: int, seed: int, torus: TorusParams,
                              tol: float = 1e-9) -> IdentityReport:
    """theta'(0) * Phi_z(x) Phi_z(y) = Phi_z(x+y) (zeta(z)+zeta(x)+zeta(y)-zeta(z+x+y))."""
    rng = _rng_for("functional_relation", seed)
    tau = torus.tau
    tp0 = theta_odd_deriv(0.0, torus)

    def row():
        z = draw_generic(rng, tau)
        x = draw_generic(rng, tau, avoid=(-z,))
        # keep x+y and z+x+y away from the zero sets on both sides
        return z, x, draw_generic(rng, tau, avoid=(-z, -x, -x - z))

    z, x, y = _columns(draws, row)
    th, dth = theta_odd_pair(np.stack((z, x, y, x + y, z + x, z + y, z + x + y)), torus)
    zeta = dth / th
    # Phi_z(w) = theta(z+w) / (theta(z) theta(w))
    lhs = tp0 * th[4] / (th[0] * th[1]) * th[5] / (th[0] * th[2])
    rhs = th[6] / (th[0] * th[3]) * (zeta[0] + zeta[1] + zeta[2] - zeta[6])
    return _report("functional_relation", _rel_diff(lhs, rhs), seed, tol, z=z, x=x, y=y)


def _constrained_points(rng, tau, count):
    """x_i, y_i with sum(x - y) = 0, all mutual differences kept generic."""
    def draw():
        ys = _draw_points(rng, tau, count)
        xs = _draw_points(rng, tau, count - 1, avoid=ys)
        return xs + [sum(ys) - sum(xs)], ys

    # the closing x_N = sum(y) - sum(x_<N) must clear the lattice, the y and the other x
    return _retry(draw, lambda p: p[0][-1] - np.array([0, *p[1], *p[0][:-1]]), tau,
                  "a constrained point set")


def _lagrange_weights(xs, ys, torus: TorusParams) -> np.ndarray:
    """w_i = prod_j theta(y_i - x_j) / prod_{j != i} theta(y_i - y_j), over stacked draws."""
    th = theta_odd_pair(np.stack((_diffs(ys, xs), _diffs(ys, ys))), torus)[0]
    return np.prod(th[0], axis=-1) / np.prod(_drop_diagonal(th[1]), axis=-1)


def check_lagrange(N: int, draws: int, seed: int, torus: TorusParams,
                   tol: float = 1e-9) -> IdentityReport:
    """Elliptic Lagrange interpolation under sum(x_i - y_i) = 0, x = x_1:

    theta'(0) * prod_i theta(z-x_i)/theta(z-y_i)
        = sum_i (zeta(z-y_i) - zeta(x_1-y_i)) * prod_j theta(y_i-x_j)
          / prod_{j != i} theta(y_i-y_j)
    """
    name = f"lagrange_N{N}"
    rng = _rng_for(name, seed)
    tau = torus.tau
    if N == 1:
        # the constraint forces x_1 = y_1; both sides collapse to theta'(0)
        return _summary(name, 0, 0.0, {"note": "degenerate N=1"}, seed, tol)
    tp0 = theta_odd_deriv(0.0, torus)

    def row():
        x, y = _constrained_points(rng, tau, N)
        return x, y, draw_generic(rng, tau, avoid=x + y)

    xs, ys, z = _columns(draws, row)
    th, dth = theta_odd_pair(np.stack((z[:, None] - xs, z[:, None] - ys, xs[:, :1] - ys)), torus)
    zeta = dth / th
    lhs = tp0 * np.prod(th[0] / th[1], axis=-1)
    rhs = np.sum((zeta[1] - zeta[2]) * _lagrange_weights(xs, ys, torus), axis=-1)
    return _report(name, _rel_diff(lhs, rhs), seed, tol, x=xs, y=ys, z=z)


def check_null_sum(N: int, draws: int, seed: int, torus: TorusParams,
                   tol: float = 1e-9) -> IdentityReport:
    """sum_i prod_j theta(y_i-x_j) / prod_{j != i} theta(y_i-y_j) = 0
    under sum(x_i - y_i) = 0 (absolute residual, scaled by the largest term)."""
    name = f"null_sum_N{N}"
    rng = _rng_for(name, seed)
    tau = torus.tau
    if N == 1:
        # single term theta(y_1 - x_1) = theta(0) = 0 exactly
        (ys,) = _columns(draws, lambda: ([draw_generic(rng, tau)],))
        residuals = np.full(draws, abs(theta_odd_pair(0.0, torus)[0]) / (1.0 + 1e-300))
        return _report(name, residuals, seed, tol, x=ys, y=ys)
    xs, ys = _columns(draws, lambda: _constrained_points(rng, tau, N))
    w = _lagrange_weights(xs, ys, torus)
    residuals = np.abs(np.sum(w, axis=-1)) / (np.abs(w).max(axis=-1, initial=0.0) + 1e-300)
    return _report(name, residuals, seed, tol, x=xs, y=ys)


def _lemma_weights(xs, ys, xi, torus: TorusParams) -> tuple[np.ndarray, np.ndarray]:
    """(w_y, w_x) of check_lemma over stacked draws, indexed [draw, j]."""
    xi3 = xi[:, None, None]
    # [d, j, m] = y_j - y_m and x_j - x_m;  [d, s, j] = x_s - y_j
    yy, xx, xy = _diffs(ys, ys), _diffs(xs, xs), _diffs(xs, ys)
    th = theta_odd_pair(np.stack((yy - xi3, yy, xx + xi3, xx, xy - xi3, xy)), torus)[0]
    own_y = np.prod(_drop_diagonal(th[0]) / _drop_diagonal(th[1]), axis=2)
    own_x = np.prod(_drop_diagonal(th[2]) / _drop_diagonal(th[3]), axis=2)
    cross = th[4] / th[5]
    return own_y * np.prod(cross, axis=1), own_x * np.prod(cross, axis=2)


def check_lemma(N: int, draws: int, seed: int, torus: TorusParams,
                tol: float = 1e-9) -> IdentityReport:
    """The exchange lemma and the two scalar identities behind it.

    For free indices i, k and generic x, y, xi, z, with
    w_y(j) = prod_{m != j} theta(y_jm - xi)/theta(y_jm)
             * prod_s theta(x_s - y_j - xi)/theta(x_s - y_j)
    w_x(j) = prod_{m != j} theta(x_jm + xi)/theta(x_jm)
             * prod_s theta(x_j - y_s - xi)/theta(x_j - y_s):

      (two)   sum_j w_y(j) = sum_j w_x(j)
      (one)   same with weights zeta(y_ij+xi) + zeta(y_j-x_k+xi)
              vs zeta(y_i-x_j+xi) + zeta(x_jk+xi)
      (full)  same with weights Phi_z(.) Phi_z(.) on both sides

    All three sub-residuals are folded into one report.
    """
    name = f"lemma_N{N}"
    rng = _rng_for(name, seed)
    tau = torus.tau

    def row():
        ys = _draw_points(rng, tau, N)
        xs = _draw_points(rng, tau, N, avoid=ys)
        pts = ys + xs
        xi = draw_generic(rng, tau, avoid=[a - b for a in pts for b in pts])
        z = draw_generic(rng, tau, avoid=[-(a - b + xi) for a in pts for b in pts] + [-xi])
        return ys, xs, xi, z, int(rng.integers(N)), int(rng.integers(N))

    ys, xs, xi, z, i0, k0 = _columns(draws, row)
    wy, wx = _lemma_weights(xs, ys, xi, torus)
    # Phi_z and zeta arguments, [d, j]: left y_i - y_j + xi, y_j - x_k + xi;
    # right y_i - x_j + xi, x_j - x_k + xi
    rows_d = np.arange(draws)
    yi, xk, xi2 = ys[rows_d, i0][:, None], xs[rows_d, k0][:, None], xi[:, None]
    args = np.stack((yi - ys + xi2, ys - xk + xi2, yi - xs + xi2, xs - xk + xi2))
    th, dth = theta_odd_pair(np.stack((args, z[:, None] + args)), torus)
    zeta = dth[0] / th[0]
    phi = th[1] / (theta_odd_pair(z, torus)[0][:, None] * th[0])
    residuals = np.max([
        _rel_diff(wy.sum(axis=1), wx.sum(axis=1)),
        _rel_diff(((zeta[0] + zeta[1]) * wy).sum(axis=1), ((zeta[2] + zeta[3]) * wx).sum(axis=1)),
        _rel_diff((phi[0] * phi[1] * wy).sum(axis=1), (phi[2] * phi[3] * wx).sum(axis=1)),
    ], axis=0)
    return _report(name, residuals, seed, tol, x=xs, y=ys, xi=xi, z=z, i=i0, k=k0)


def check_commute(draws: int, seed: int, params: ModelParams,
                  tol: float = 1e-8) -> IdentityReport:
    """Commutativity of the two elementary modifications:

    sum_i phi(z-v)[lam; i,k'] phibar(z-v-eta)[lam; k,i]
      = prod_{m != k'} theta(lam_k'm) / prod_{m != k} theta(lam_mk)
        * prod_l theta(lam_lk' + eta/n)/theta(lam_kl + eta/n)
        * sum_i phibar(z-v-eta)[-lam; k',i] phi(z-v)[-lam; i,k]

    Both sums go through genuine matrix inversions (at lam and at -lam).
    """
    rng = _rng_for("commute", seed)
    tau, eta, n = params.tau, params.eta, params.n

    def sides(lam, zv):
        neg = WeightVector(-lam.lam, params)
        # [k, k'] = sum_i pb[k, i] pf[i, k'], and sum_i qb[k', i] qf[i, k]
        return (phi_inverse(zv - eta, lam) @ phi_matrix(zv, lam).entries,
                (phi_inverse(zv - eta, neg) @ phi_matrix(zv, neg).entries).swapaxes(-1, -2))

    # zv stands for z - v
    lam, zvs, (lhs, sums) = _phi_sweep(params, draws, lambda: (
        _draw_points(rng, tau, n, shifts=_spread(params)), draw_generic(rng, tau, avoid=(eta,))),
        sides)
    # [delta, d, a, b] = theta(lam_a - lam_b + delta), delta = 0, eta/n
    th = theta_table(lam, lam, (0, eta / n), params.torus)[0]
    own = _drop_diagonal(th[0])
    # pref[d, k, k'] = prod_{m != k'} own[k', m] / prod_{m != k} own[m, k]
    #                  * prod_l th1[l, k'] / prod_l th1[k, l]
    pref = (np.prod(own, axis=2)[:, None, :] / np.prod(own, axis=1)[:, :, None]
            * np.prod(th[1], axis=1)[:, None, :] / np.prod(th[1], axis=2)[:, :, None])
    return _report("commute", _rel_diff(lhs, pref * sums), seed, tol, ("k", "kprime"),
                   **{"lambda": lam, "z_minus_v": zvs})


def check_det_formula(n: int, draws: int, seed: int, params: ModelParams,
                      tol: float = 1e-9) -> IdentityReport:
    """det(theta_i(z_j)) against the closed product form (independent paths)."""
    name = f"det_formula_n{n}"
    rng = _rng_for(name, seed)
    if params.n != n:
        params = ModelParams(n, params.eta, params.torus)
    (zs,) = _columns(draws, lambda: (_draw_points(rng, params.tau, n),))
    det = np.linalg.det(theta_level(np.arange(1, n + 1)[:, None], zs[:, None, :], params))
    # the closed form of det phi at the weights -z_j, pulled back to det(theta) by (i*etaD)^n
    rhs = (1j * dedekind_eta(params.tau)) ** n * det_phi_closed_form(zs.sum(axis=1),
                                                              WeightVector(-zs, params))
    return _report(name, _rel_diff(det, rhs), seed, tol, z=zs)


def check_conjugation(draws: int, seed: int, params: ModelParams,
                      tol: float = 1e-9) -> IdentityReport:
    """Gauge conjugation of the factorized operator:

    sum_i phibar(z)[lam; k,i] phi(z+eta)[lam; i,k']
      = theta(z + eta/n + lam_kk')/theta(z)
        * prod_{j != k} theta(lam_jk' + eta/n)/theta(lam_jk)
    """
    rng = _rng_for("conjugation", seed)
    tau, eta, n = params.tau, params.eta, params.n
    lam, z, lhs = _phi_sweep(
        params, draws, lambda: (_draw_points(rng, tau, n), draw_generic(rng, tau)),
        lambda lam, z: phi_inverse(z, lam) @ phi_matrix(z + eta, lam).entries)  # [k, k']
    # the right side is the gauge-frame L, transposed, at z + eta with v = 0 and unit weights
    rhs = lax_gauge(z + eta, PhaseConfig(WeightVector(lam, params), np.ones((draws, n))), 0)
    return _report("conjugation", _rel_diff(lhs, rhs.swapaxes(-1, -2)), seed, tol,
                   ("k", "kprime"), **{"lambda": lam, "z": z})


def check_ks(draws: int, seed: int, params: ModelParams, tol: float = 1e-9) -> IdentityReport:
    """The closing theta identity behind the eigenvector computation."""
    rng = _rng_for("ks_identity", seed)
    tau, n = params.tau, params.n

    def draw():
        xs = _draw_points(rng, tau, n)
        ys = _draw_points(rng, tau, n, avoid=xs, shifts=())
        xi = draw_generic(rng, tau, avoid=[a - b for a in xs for b in xs])
        return xs, ys, xi, int(rng.integers(n))

    # keep the constrained z = n xi + sum(x) - sum(y) off the lattice so the scale stays bounded
    def row():
        return _retry(draw, lambda r: n * r[2] + sum(r[0]) - sum(r[1]), tau, "a KS row")

    xs, ys, xi, kp = _columns(draws, row)
    lhs, rhs = _ks_sides(xs, ys, xi, kp, params.torus)
    # relative to |rhs| = |theta(z)| prod_s |theta(x_k' - y_s)|
    return _report("ks_identity", np.abs(lhs - rhs) / (np.abs(rhs) + 1e-300), seed, tol,
                   x=xs, y=ys, xi=xi, kprime=kp)


def _draw_backlund(rng, params):
    """Free data (lambda, mu, c, u) of a random Backlund step with bounded condition numbers.

    Every theta argument that ends up in a denominator (lambda_k - mu_s, mu_mk +- eta/n,
    lambda pairwise, u - v - eta) is kept _MIN_ZERO_DIST from the lattice by the avoid sets,
    far outside the guards of the step formulas."""
    tau, n, spread = params.tau, params.n, _spread(params)

    def draw():
        lam = np.array(_draw_points(rng, tau, n, shifts=spread))
        mu = np.array(_draw_points(rng, tau, n, avoid=[*lam, *(lam + spread[1])], shifts=spread))
        c = complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3))
        return lam, mu, c, _draw_cell(rng, tau)

    # the gauge matrices divide by theta(u - v - eta) = theta(sum(mu) - sum(lambda) - eta)
    return _retry(draw, lambda s: -(np.add.reduce(s[0]) - np.add.reduce(s[1])) - params.eta, tau,
                  "a generic Backlund step")


def check_backlund_residuals(draws: int, seed: int, params: ModelParams,
                             tol: float = 1e-8):
    """Eigenvector, kernel and discrete-Lax residuals on random Backlund data.

    Returns the three aggregated reports (eigenvector, kernel, lax_equation).
    """
    rng = _rng_for("backlund_residuals", seed)

    def row():
        lam, mu, c, u = _draw_backlund(rng, params)
        v = u + np.add.reduce(lam) - np.add.reduce(mu)  # the zero shift of the step
        return lam, mu, c, u, draw_generic(rng, params.tau, avoid=(v + params.eta,))

    lam, mu, c, u, z = _columns(draws, row)
    step = make_backlund_step(WeightVector(lam, params), WeightVector(mu, params), c, u)
    residuals = np.stack((eigenvector_residual(step), kernel_residual(step),
                          lax_equation_residual(z, step)), axis=-1)
    data = {"lambda": lam, "mu": mu, "c": c, "u": u}
    return (_report("eigenvector", residuals[:, 0], seed, tol, **data),
            _report("kernel", residuals[:, 1], seed, tol, **data),
            _report("lax_equation", residuals[:, 2], seed, tol, z=z, **data))


def check_ybe(draws: int, seed: int, params: ModelParams, tol: float = 1e-8) -> IdentityReport:
    """Yang-Baxter residual for the Belavin R-matrix at random (z, w)."""
    rng = _rng_for("ybe", seed)
    z, w = _columns(draws, lambda: (_draw_cell(rng, params.tau), _draw_cell(rng, params.tau)))
    return _report("ybe", [ybe_residual(a, b, params) for a, b in zip(z, w)], seed, tol, z=z, w=w)


# ---------------------------------------------------------------------------
# suite driver
# ---------------------------------------------------------------------------

def run_all(config: SuiteConfig) -> list[IdentityReport]:
    """Run every identity check plus the Lax-side residual suite and the YBE.

    Deterministic for a fixed seed: each check owns an rng stream derived
    from (seed, check name), and reports are merged by identity name.  Each
    check keeps its own default tolerance unless config.tol is set.
    """
    params, seed, torus = config.params, config.seed, config.params.torus
    tol = {} if config.tol is None else {"tol": config.tol}

    def ndraws(default):
        return config.draws if config.draws is not None else default

    reports = [
        check_functional_relation(ndraws(100), seed, torus, **tol),
        check_lagrange(3, ndraws(50), seed, torus, **tol),
        check_null_sum(3, ndraws(50), seed, torus, **tol),
        check_lemma(3, ndraws(30), seed, torus, **tol),
        check_commute(ndraws(20), seed, params, **tol),
        check_det_formula(params.n, ndraws(50), seed, params, **tol),
        check_conjugation(ndraws(20), seed, params, **tol),
        check_ks(ndraws(50), seed, params, **tol),
        *check_backlund_residuals(ndraws(25), seed, params, **tol),
        check_ybe(ndraws(15), seed, params, **tol),
    ]
    reports.sort(key=lambda rep: rep.identity_name)
    return reports
