"""Randomized two-sided verification of every standalone theta identity.

Each check evaluates its left and right sides through disjoint call paths
(matrix inversions on one side, bare theta products on the other, and so on)
so a single implementation bug cannot cancel out of both sides.  Draws are
uniform over the fundamental cell and rejection-resampled a fixed distance
away from every theta zero that appears in a denominator, which keeps the
condition numbers bounded and the fixed tolerances meaningful.

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

    @classmethod
    def from_sweep(cls, name, draws, max_residual, worst, seed, tol):
        return cls(
            identity_name=name,
            draws=draws,
            max_residual=float(max_residual),
            worst_params=json.dumps(worst, sort_keys=True),
            seed=int(seed),
            tol=float(tol),
            passed=bool(max_residual < tol),
        )


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


def _cx(z: complex) -> list[float]:
    return [z.real, z.imag]


def _draw_cell(rng: np.random.Generator, tau: complex) -> complex:
    # uniform over the cell: z = x + y*tau with x, y in [0, 1)
    return rng.uniform() + rng.uniform() * tau


def draw_generic(rng: np.random.Generator, tau: complex, avoid=(), min_dist=_MIN_ZERO_DIST):
    """Cell-uniform draw, resampled until it clears the lattice and every
    avoid-point mod lattice."""
    centers = np.array([0, *avoid], dtype=complex)
    for _ in range(_MAX_RETRIES):
        z = _draw_cell(rng, tau)
        if lattice_distance(z - centers, tau).min() >= min_dist:
            return z
    raise RuntimeError("rejection sampling exhausted; avoid set too dense")


def _draw_points(rng, tau: complex, count: int, avoid=(), shifts=(0,)) -> list[complex]:
    """count draws that clear the avoid points and, moved by each shift, the draws before them."""
    out: list[complex] = []
    for _ in range(count):
        out.append(draw_generic(rng, tau, avoid=[*avoid, *(p + s for s in shifts for p in out)]))
    return out


def _spread(params: ModelParams) -> tuple:
    """Shifts for _draw_points that also clear the +-eta/n offsets of gauge-frame denominators."""
    return (0, params.eta / params.n, -params.eta / params.n)


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
    rows = [draw_row() for _ in range(draws)]
    for _ in range(_MAX_RETRIES):
        lam = np.array([r[0] for r in rows], dtype=complex).reshape(draws, params.n)
        z = np.array([r[1] for r in rows], dtype=complex)
        try:
            return lam, z, sides(WeightVector(lam, params), z)
        except NearSingular as exc:
            for d in exc.draws:
                rows[d] = draw_row()
    raise RuntimeError("could not draw a well-conditioned phi sweep")


def _report(name, residuals, describe, seed, tol) -> IdentityReport:
    """Report of a sweep from its residuals, indexed [draw, ...] in sweep order.

    The worst entry is the first maximum, as a running strict maximum over the
    sweep finds it; describe(index) gives its worst_params.
    """
    residuals = np.asarray(residuals, dtype=float)
    if residuals.size == 0:
        return IdentityReport.from_sweep(name, len(residuals), -1.0, {}, seed, tol)
    where = np.unravel_index(np.argmax(residuals), residuals.shape)
    return IdentityReport.from_sweep(name, len(residuals), residuals[where],
                                     describe(*map(int, where)), seed, tol)


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------

def check_functional_relation(draws: int, seed: int, torus: TorusParams,
                              tol: float = 1e-9) -> IdentityReport:
    """theta'(0) * Phi_z(x) Phi_z(y) = Phi_z(x+y) (zeta(z)+zeta(x)+zeta(y)-zeta(z+x+y))."""
    rng = _rng_for("functional_relation", seed)
    tau = torus.tau
    tp0 = theta_odd_deriv(0.0, torus)
    points = []
    for _ in range(draws):
        z = draw_generic(rng, tau)
        x = draw_generic(rng, tau, avoid=(-z,))
        # keep x+y and z+x+y away from the zero sets on both sides
        y = draw_generic(rng, tau, avoid=(-z, -x, -x - z))
        points.append((z, x, y))
    z, x, y = np.array(points, dtype=complex).reshape(draws, 3).T
    th, dth = theta_odd_pair(np.stack((z, x, y, x + y, z + x, z + y, z + x + y)), torus)
    zeta = dth / th
    # Phi_z(w) = theta(z+w) / (theta(z) theta(w))
    lhs = tp0 * th[4] / (th[0] * th[1]) * th[5] / (th[0] * th[2])
    rhs = th[6] / (th[0] * th[3]) * (zeta[0] + zeta[1] + zeta[2] - zeta[6])
    return _report("functional_relation", _rel_diff(lhs, rhs),
                   lambda d: {"z": _cx(z[d]), "x": _cx(x[d]), "y": _cx(y[d])}, seed, tol)


def _constrained_points(rng, tau, count):
    """x_i, y_i with sum(x - y) = 0, all mutual differences kept generic."""
    for _ in range(_MAX_RETRIES):
        ys = _draw_points(rng, tau, count)
        xs = _draw_points(rng, tau, count - 1, avoid=ys)
        closing = sum(ys) - sum(xs)
        if lattice_distance(closing - np.array([0, *ys, *xs]), tau).min() >= _MIN_ZERO_DIST:
            return xs + [closing], ys
    raise RuntimeError("could not draw a constrained point set")


def _lagrange_weights(xs, ys, torus: TorusParams) -> np.ndarray:
    """w_i = prod_j theta(y_i - x_j) / prod_{j != i} theta(y_i - y_j), over stacked draws."""
    th = theta_odd_pair(np.stack((_diffs(ys, xs), _diffs(ys, ys))), torus)[0]
    return np.prod(th[0], axis=-1) / np.prod(_drop_diagonal(th[1]), axis=-1)


def _describe_xy(xs, ys):
    return lambda d: {"x": [_cx(x) for x in xs[d]], "y": [_cx(y) for y in ys[d]]}


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
        return IdentityReport.from_sweep(name, 0, 0.0, {"note": "degenerate N=1"}, seed, tol)
    tp0 = theta_odd_deriv(0.0, torus)
    xs, ys, zs = [], [], []
    for _ in range(draws):
        x, y = _constrained_points(rng, tau, N)
        zs.append(draw_generic(rng, tau, avoid=x + y))
        xs.append(x)
        ys.append(y)
    xs, ys = np.array(xs, dtype=complex).reshape(draws, N), np.array(ys, dtype=complex).reshape(draws, N)
    z = np.array(zs, dtype=complex)[:, None]
    th, dth = theta_odd_pair(np.stack((z - xs, z - ys, xs[:, :1] - ys)), torus)
    zeta = dth / th
    lhs = tp0 * np.prod(th[0] / th[1], axis=-1)
    rhs = np.sum((zeta[1] - zeta[2]) * _lagrange_weights(xs, ys, torus), axis=-1)
    describe = _describe_xy(xs, ys)
    return _report(name, _rel_diff(lhs, rhs),
                   lambda d: dict(describe(d), z=_cx(zs[d])), seed, tol)


def check_null_sum(N: int, draws: int, seed: int, torus: TorusParams,
                   tol: float = 1e-9) -> IdentityReport:
    """sum_i prod_j theta(y_i-x_j) / prod_{j != i} theta(y_i-y_j) = 0
    under sum(x_i - y_i) = 0 (absolute residual, scaled by the largest term)."""
    name = f"null_sum_N{N}"
    rng = _rng_for(name, seed)
    tau = torus.tau
    if N == 1:
        # single term theta(y_1 - x_1) = theta(0) = 0 exactly
        ys = np.array([[draw_generic(rng, tau)] for _ in range(draws)], dtype=complex)
        residuals = np.full(draws, abs(theta_odd_pair(0.0, torus)[0]) / (1.0 + 1e-300))
        return _report(name, residuals, _describe_xy(ys, ys), seed, tol)
    pts = np.array([_constrained_points(rng, tau, N) for _ in range(draws)], dtype=complex)
    xs, ys = pts.reshape(draws, 2, N).transpose(1, 0, 2)
    w = _lagrange_weights(xs, ys, torus)
    residuals = np.abs(np.sum(w, axis=-1)) / (np.abs(w).max(axis=-1, initial=0.0) + 1e-300)
    return _report(name, residuals, _describe_xy(xs, ys), seed, tol)


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
    rows = []
    for _ in range(draws):
        ys = _draw_points(rng, tau, N)
        xs = _draw_points(rng, tau, N, avoid=ys)
        xi = draw_generic(rng, tau, avoid=[a - b for a in ys + xs for b in ys + xs])
        z = draw_generic(
            rng, tau,
            avoid=[-(a - b + xi) for a in ys + xs for b in ys + xs] + [-xi],
        )
        i0 = int(rng.integers(N))
        k0 = int(rng.integers(N))
        rows.append((ys, xs, xi, z, i0, k0))
    ys = np.array([r[0] for r in rows], dtype=complex).reshape(draws, N)
    xs = np.array([r[1] for r in rows], dtype=complex).reshape(draws, N)
    xi, z = (np.array([r[c] for r in rows], dtype=complex) for c in (2, 3))
    i0, k0 = (np.array([r[c] for r in rows], dtype=int) for c in (4, 5))
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
    return _report(name, residuals, lambda d: {
        "x": [_cx(x) for x in xs[d]], "y": [_cx(y) for y in ys[d]],
        "xi": _cx(xi[d]), "z": _cx(z[d]), "i": int(i0[d]), "k": int(k0[d]),
    }, seed, tol)


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
    residuals = _rel_diff(lhs, pref * sums)
    return _report("commute", residuals, lambda d, k, kp: {
        "lambda": [_cx(x) for x in lam[d]], "z_minus_v": _cx(zvs[d]), "k": k, "kprime": kp,
    }, seed, tol)


def check_det_formula(n: int, draws: int, seed: int, params: ModelParams,
                      tol: float = 1e-9) -> IdentityReport:
    """det(theta_i(z_j)) against the closed product form (independent paths)."""
    name = f"det_formula_n{n}"
    rng = _rng_for(name, seed)
    if params.n != n:
        params = ModelParams(n, params.eta, params.torus)
    tau = params.tau
    zs = np.array([_draw_points(rng, tau, n) for _ in range(draws)], dtype=complex)
    zs = zs.reshape(draws, n)
    mat = theta_level(np.arange(1, n + 1)[:, None], zs[:, None, :], params)
    det = np.linalg.det(mat.reshape(draws, n, n))
    # the closed form of det phi at the weights -z_j, pulled back to det(theta) by (i*etaD)^n
    rhs = (1j * dedekind_eta(tau)) ** n * det_phi_closed_form(zs.sum(axis=1),
                                                              WeightVector(-zs, params))
    return _report(name, _rel_diff(det, rhs), lambda d: {"z": [_cx(z) for z in zs[d]]}, seed, tol)


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
    residuals = _rel_diff(lhs, rhs.swapaxes(-1, -2))
    return _report("conjugation", residuals, lambda d, k, kp: {
        "lambda": [_cx(x) for x in lam[d]], "z": _cx(z[d]), "k": k, "kprime": kp,
    }, seed, tol)


def check_ks(draws: int, seed: int, params: ModelParams, tol: float = 1e-9) -> IdentityReport:
    """The closing theta identity behind the eigenvector computation."""
    rng = _rng_for("ks_identity", seed)
    tau = params.tau
    n = params.n
    rows = []
    while len(rows) < draws:
        xs = _draw_points(rng, tau, n)
        ys = _draw_points(rng, tau, n, avoid=xs, shifts=())
        xi = draw_generic(rng, tau, avoid=[a - b for a in xs for b in xs])
        kp = int(rng.integers(n))
        # keep the constrained z off the lattice so the scale stays bounded
        z = n * xi + sum(xs) - sum(ys)
        if lattice_distance(z, tau) < _MIN_ZERO_DIST:
            continue
        rows.append((xs, ys, xi, kp))
    xs, ys = (np.array([r[c] for r in rows], dtype=complex).reshape(draws, n) for c in (0, 1))
    lhs, rhs = _ks_sides(xs, ys, np.array([r[2] for r in rows], dtype=complex),
                         np.array([r[3] for r in rows], dtype=int), params.torus)
    # relative to |rhs| = |theta(z)| prod_s |theta(x_k' - y_s)|
    return _report("ks_identity", np.abs(lhs - rhs) / (np.abs(rhs) + 1e-300), lambda d: {
        "x": [_cx(x) for x in rows[d][0]], "y": [_cx(y) for y in rows[d][1]],
        "xi": _cx(rows[d][2]), "kprime": rows[d][3],
    }, seed, tol)


def _draw_backlund(rng, params):
    """Free data (lambda, mu, c, u) of a random Backlund step with bounded condition numbers.

    Every theta argument that ends up in a denominator (lambda_k - mu_s, mu_mk +- eta/n,
    lambda pairwise, u - v - eta) is kept _MIN_ZERO_DIST from the lattice by the avoid sets,
    far outside the guards of the step formulas."""
    tau, n, spread = params.tau, params.n, _spread(params)
    for _ in range(_MAX_RETRIES):
        lam = np.array(_draw_points(rng, tau, n, shifts=spread))
        mu = np.array(_draw_points(rng, tau, n, avoid=[*lam, *(lam + spread[1])], shifts=spread))
        c = complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3))
        u = _draw_cell(rng, tau)
        # the gauge matrices divide by theta(u - v - eta)
        if lattice_distance(-(np.add.reduce(lam) - np.add.reduce(mu)) - params.eta,
                            tau) >= _MIN_ZERO_DIST:
            return lam, mu, c, u
    raise RuntimeError("could not draw a generic Backlund step")


def check_backlund_residuals(draws: int, seed: int, params: ModelParams,
                             tol: float = 1e-8):
    """Eigenvector, kernel and discrete-Lax residuals on random Backlund data.

    Returns the three aggregated reports (eigenvector, kernel, lax_equation).
    """
    rng = _rng_for("backlund_residuals", seed)
    rows, zs = [], []
    for _ in range(draws):
        rows.append(_draw_backlund(rng, params))
        lam, mu, _, u = rows[-1]
        v = u + np.add.reduce(lam) - np.add.reduce(mu)  # the zero shift of the step
        zs.append(draw_generic(rng, params.tau, avoid=(v + params.eta,)))
    lam, mu, c, u = (np.array([r[i] for r in rows], dtype=complex) for i in range(4))
    lam, mu = (WeightVector(w.reshape(draws, params.n), params) for w in (lam, mu))
    step = make_backlund_step(lam, mu, c, u)
    residuals = np.stack((eigenvector_residual(step), kernel_residual(step),
                          lax_equation_residual(np.array(zs, dtype=complex), step)), axis=-1)
    records = [{"lambda": [_cx(x) for x in lam.lam[d]], "mu": [_cx(x) for x in mu.lam[d]],
                "c": _cx(c[d]), "u": _cx(u[d])} for d in range(draws)]
    return (_report("eigenvector", residuals[:, 0], records.__getitem__, seed, tol),
            _report("kernel", residuals[:, 1], records.__getitem__, seed, tol),
            _report("lax_equation", residuals[:, 2], lambda d: dict(records[d], z=_cx(zs[d])),
                    seed, tol))


def check_ybe(draws: int, seed: int, params: ModelParams, tol: float = 1e-8) -> IdentityReport:
    """Yang-Baxter residual for the Belavin R-matrix at random (z, w)."""
    rng = _rng_for("ybe", seed)
    points = [(_draw_cell(rng, params.tau), _draw_cell(rng, params.tau)) for _ in range(draws)]
    residuals = [ybe_residual(z, w, params) for z, w in points]
    return _report("ybe", residuals, lambda d: {"z": _cx(points[d][0]), "w": _cx(points[d][1])},
                   seed, tol)


# ---------------------------------------------------------------------------
# suite driver
# ---------------------------------------------------------------------------

def run_all(config: SuiteConfig) -> list[IdentityReport]:
    """Run every identity check plus the Lax-side residual suite and the YBE.

    Deterministic for a fixed seed: each check owns an rng stream derived
    from (seed, check name), and reports are merged by identity name.
    """
    params = config.params
    torus = params.torus
    seed = config.seed

    def tol(default):
        return config.tol if config.tol is not None else default

    def ndraws(default):
        return config.draws if config.draws is not None else default

    reports = [
        check_functional_relation(ndraws(100), seed, torus, tol(1e-9)),
        check_lagrange(3, ndraws(50), seed, torus, tol(1e-9)),
        check_null_sum(3, ndraws(50), seed, torus, tol(1e-9)),
        check_lemma(3, ndraws(30), seed, torus, tol(1e-9)),
        check_commute(ndraws(20), seed, params, tol(1e-8)),
        check_det_formula(params.n, ndraws(50), seed, params, tol(1e-9)),
        check_conjugation(ndraws(20), seed, params, tol(1e-9)),
        check_ks(ndraws(50), seed, params, tol(1e-9)),
        *check_backlund_residuals(ndraws(25), seed, params, tol(1e-8)),
        check_ybe(ndraws(15), seed, params, tol(1e-8)),
    ]
    reports.sort(key=lambda rep: rep.identity_name)
    return reports
