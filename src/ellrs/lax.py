"""Factorized Lax operators, Backlund map data and the associated identities.

Conventions, fixed once for the whole package:

* The factorized ("vector") frame stores L(z)^j_i as a matrix [j, i]:

      L(z)[j, i] = sum_k phibar(z-v-eta)[lam; k, j] * phi(z-v)[lam; i, k] * t_k

  so L has its determinant zero at P_v and pole at P_{v+eta}.

* The gauge frame stores L_{k',k}(z) as a matrix [k', k]:

      L[k', k] = Phi_{z-v-eta}(lam_k - lam_k' + eta/n)
                 * prod_l theta(lam_l - lam_k' + eta/n)
                 / prod_{l != k} theta(lam_l - lam_k)  *  t_k'

  (the l = k factor of the product cancels the Phi denominator; the code
  works with the cancelled form so only genuine poles can trip the guards).

* All residual checks that involve the modification kernel s_mu are taken at
  the modification point z = u; the Lax equation itself holds for every z.

* Every formula and residual below also takes a stack of steps: weights [..., n]
  with leading draw axes, and c, u, z broadcast against them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .elliptic import (
    _EXP_LIMIT,
    _SERIES_EPS,
    ModelParams,
    _drop_diagonal,
    _scalar,
    lattice_guard,
    theta_odd_pair,
    theta_table,
)
from .errors import NonconvergentSeries, PathThroughZero
from .intertwiners import WeightVector, phi_inverse, phi_matrix

# arguments of the generating function closer than this to a theta zero are
# rejected: dF diverges there
_PATH_CLEARANCE = 1e-3
# q-terms of the log-theta antiderivative beyond this (Im tau below about 1.5e-3)
# are refused rather than summed
_MAX_Q_TERMS = 4096


# ---------------------------------------------------------------------------
# phase-space records
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PhaseConfig:
    """One point (lambda, t) of the RS phase space, or a stack of them."""

    lam: WeightVector
    t: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t, dtype=complex).reshape(self.lam.lam.shape[:-1] + (-1,))
        if t.shape != self.lam.lam.shape:
            raise ValueError(f"expected {self.lam.n} Lax weights, got {t.shape}")
        if np.any(t == 0) or not np.all(np.isfinite(t)):
            raise ValueError("Lax weights t_k must be nonzero and finite")
        t.setflags(write=False)
        object.__setattr__(self, "t", t)


@dataclass(frozen=True, eq=False)
class BacklundStep:
    """One Backlund transformation (lambda,t) -> (mu,t~), built by make_backlund_step:
    t, t~, C, the zero shift v = u + sum(lambda - mu) and the z-independent residual
    factors _psi and _frames."""

    source: PhaseConfig
    mu: WeightVector
    c: complex
    u: complex
    t_tilde: np.ndarray
    C: np.ndarray
    v: complex
    _psi: np.ndarray = field(repr=False)
    _frames: tuple = field(repr=False)


def make_backlund_step(lam: WeightVector, mu: WeightVector, c: complex, u: complex) -> BacklundStep:
    """The BacklundStep of the free data (lambda, mu, c, u), from four theta tables evaluated
    once each: lambda-mu (coupling), mu-mu, lambda-lambda and theta(mu_k - mu_m).  It keeps
    the z-independent factors of the residuals: _psi_k = s_mu(lambda_k + eta/n), the eigenvector
    of L(u) and kernel of M(u) read off the coupling table, and _frames, those of L, L~ and M."""
    c, u = (_scalar(np.asarray(x, dtype=complex)) for x in (c, u))
    th = _coupling_table(lam, mu, "backlund_t")
    source = PhaseConfig(lam, _t(th, c))
    mm = _mu_table(mu, "backlund_ttilde")
    t_tilde, C = _ttilde(th, mm, c), _C(th, mm[0])
    own = _own_table(lam)
    mu_den = theta_table(mu.lam, mu.lam, (0,), mu.params.torus)[0][0]
    frames = (_gauge_frame(own[1], own[0], source.t), _gauge_frame(mm[1], mu_den, t_tilde),
              _gauge_frame(th[1], own[0], C))
    return BacklundStep(source, mu, c, u, t_tilde, C, u + lam.total - mu.total,
                        np.prod(th[1], axis=-1), frames)


# ---------------------------------------------------------------------------
# Backlund coefficient formulas
# ---------------------------------------------------------------------------

def _coupling_table(lam: WeightVector, mu: WeightVector, what: str) -> np.ndarray:
    """theta(lambda_k - mu_s + delta) for delta = 0, eta/n, indexed [delta, ..., k, s]."""
    params = lam.params
    lattice_guard(lam.lam[..., :, None] - mu.lam[..., None, :], params.tau,
                  f"{what}: lambda_k - mu_s")
    return theta_table(lam.lam, mu.lam, (0, params.eta / params.n), params.torus)[0]


def _mu_table(mu: WeightVector, what: str) -> np.ndarray:
    """theta(mu_k - mu_m + delta) for delta = -eta/n, eta/n, indexed [delta, ..., k, m]."""
    params = mu.params
    n, h = params.n, params.eta / params.n
    off = ~np.eye(n, dtype=bool)
    lattice_guard((mu.lam[..., :, None] - mu.lam[..., None, :] + h)[..., off], params.tau,
                  f"{what}: mu_k - mu_m + eta/n")
    return theta_table(mu.lam, mu.lam, (-h, h), params.torus)[0]


def _t(th: np.ndarray, c) -> np.ndarray:
    """backlund_t from the coupling table th."""
    return np.exp(c)[..., None] * np.prod(th[1] / th[0], axis=-1)


def _ttilde(th: np.ndarray, mm: np.ndarray, c) -> np.ndarray:
    """backlund_ttilde from the coupling and mu-mu tables."""
    ratio = _drop_diagonal(mm[0] / mm[1])  # the m = k factor is not part of the product
    return np.exp(c)[..., None] * np.prod(ratio, axis=-2) * np.prod(th[1] / th[0], axis=-2)


def _C(th: np.ndarray, below: np.ndarray) -> np.ndarray:
    """backlund_C from the coupling table and below [..., s, k] = theta(mu_sk - eta/n)."""
    return np.prod(below, axis=-2) / np.prod(th[0], axis=-2)


def backlund_t(lam: WeightVector, mu: WeightVector, c: complex) -> np.ndarray:
    """t_k = e^c * prod_s theta(lambda_k - mu_s + eta/n) / theta(lambda_k - mu_s)."""
    return _t(_coupling_table(lam, mu, "backlund_t"), c)


def backlund_ttilde(lam: WeightVector, mu: WeightVector, c: complex) -> np.ndarray:
    """t~_k = e^c * prod_{m != k} theta(mu_mk - eta/n)/theta(mu_mk + eta/n)
    * prod_s theta(lambda_s - mu_k + eta/n)/theta(lambda_s - mu_k)."""
    th = _coupling_table(lam, mu, "backlund_ttilde")
    return _ttilde(th, _mu_table(mu, "backlund_ttilde"), c)


def backlund_C(lam: WeightVector, mu: WeightVector) -> np.ndarray:
    """C_k = prod_s theta(mu_sk - eta/n) / theta(lambda_s - mu_k)."""
    th = _coupling_table(lam, mu, "backlund_C")
    return _C(th, theta_table(mu.lam, mu.lam, (-mu.params.eta / mu.n,), mu.params.torus)[0][0])


# ---------------------------------------------------------------------------
# Lax matrices
# ---------------------------------------------------------------------------

def lax_classical(z: complex, cfg: PhaseConfig, v: complex) -> np.ndarray:
    """Factorized-frame L(z) as a matrix [j, i]; see module docstring."""
    lam = cfg.lam
    params = lam.params
    pb = phi_inverse(z - v - params.eta, lam)  # [..., k, j]
    p0 = phi_matrix(z - v, lam).entries  # [..., i, k]
    return (pb.swapaxes(-1, -2) * cfg.t[..., None, :]) @ p0.swapaxes(-1, -2)


def _own_table(lam: WeightVector) -> np.ndarray:
    """theta(lam_l - lam_k + delta) for delta = 0, eta/n, indexed [delta, ..., l, k]."""
    return theta_table(lam.lam, lam.lam, (0, lam.params.eta / lam.n), lam.params.torus)[0]


def _gauge_frame(num: np.ndarray, den: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The z-independent part of a gauge matrix, [..., k', k]:
    prod_{l != k} theta(lam_l - rows_k' + eta/n) / prod_{l != k} theta(lam_lk) * weights_k',
    from the tables num [..., l, k'] = theta(lam_l - rows_k' + eta/n) and
    den [..., l, k] = theta(lam_l - lam_k)."""
    own = np.prod(num, axis=-2)[..., :, None] / num.swapaxes(-1, -2)
    return own / np.prod(_drop_diagonal(den), axis=-2)[..., None, :] * weights[..., :, None]


def _gauge_factors(z, v, params: ModelParams, pairs, what: str):
    """The z-dependent factors of gauge matrices, with one guard on z - v - eta:
    theta(z - v - eta) with two trailing axes, and for each (cols, rows) of pairs
    the table [..., k', k] = theta(z - v - eta + cols_k - rows_k' + eta/n).
    A gauge matrix is its table / theta(z - v - eta) * its _gauge_frame."""
    big_z = np.asarray(z - v - params.eta)
    lattice_guard(big_z, params.tau, f"{what}: z - v - eta")
    shifted = [theta_table(big_z[..., None] + cols, rows, (params.eta / params.n,),
                           params.torus)[0][0].swapaxes(-1, -2) for cols, rows in pairs]
    return theta_odd_pair(big_z, params.torus)[0][..., None, None], shifted


def lax_gauge(z: complex, cfg: PhaseConfig, v: complex) -> np.ndarray:
    """Gauge-frame L_{k',k}(z) as a matrix [k', k]; rows carry t_{k'}."""
    lam = cfg.lam
    own = _own_table(lam)
    theta_z, (shifted,) = _gauge_factors(z, v, lam.params, [(lam.lam, lam.lam)], "lax_gauge")
    return shifted / theta_z * _gauge_frame(own[1], own[0], cfg.t)


def m_matrix(z: complex, lam: WeightVector, mu: WeightVector, v: complex) -> np.ndarray:
    """Gauge-frame M_{k',k}(z) = Phi_{z-v-eta}(lam_k - mu_k' + eta/n)
    * prod_l theta(lam_l - mu_k' + eta/n) / prod_{l != k} theta(lam_lk) * C_k',
    with v the zero shift u + sum(lambda - mu) of the step (BacklundStep.v).
    """
    th = _coupling_table(lam, mu, "m_matrix")
    below = theta_table(mu.lam, mu.lam, (-mu.params.eta / mu.n,), mu.params.torus)[0][0]
    frame = _gauge_frame(th[1], _own_table(lam)[0], _C(th, below))
    theta_z, (shifted,) = _gauge_factors(z, v, lam.params, [(lam.lam, mu.lam)], "m_matrix")
    return shifted / theta_z * frame


# ---------------------------------------------------------------------------
# residual checks
# ---------------------------------------------------------------------------

def s_mu(x, mu: WeightVector):
    """Kernel section s_mu(x) = prod_l theta(x - mu_l), elementwise over an array x;
    the draw axes of a stack mu broadcast against the trailing axes of x."""
    d = np.asarray(x, dtype=complex)[..., None] - mu.lam
    return _scalar(np.prod(theta_odd_pair(d, mu.params.torus)[0], axis=-1))


def lax_equation_residual(z, step: BacklundStep) -> float:
    """Max-norm of M(z) L(z) - L~(z) M(z) in the gauge frame, relative."""
    lam, mu = step.source.lam.lam, step.mu.lam
    theta_z, shifted = _gauge_factors(z, step.v, step.mu.params,
                                      [(lam, lam), (mu, mu), (lam, mu)], "lax_equation_residual")
    lg, ltg, mg = (table / theta_z * frame for table, frame in zip(shifted, step._frames))
    lhs = mg @ lg
    return np.abs(lhs - ltg @ mg).max(axis=(-2, -1)) / np.abs(lhs).max(axis=(-2, -1))


def eigenvector_residual(step: BacklundStep) -> float:
    """Residual of sum_k L(u)_{k',k} s_mu(lam_k + eta/n) = e^c s_mu(lam_k' + eta/n)."""
    lam, psi = step.source.lam, step._psi
    theta_z, (shifted,) = _gauge_factors(step.u, step.v, lam.params, [(lam.lam, lam.lam)],
                                         "eigenvector_residual")
    lg = shifted / theta_z * step._frames[0]
    rhs = np.exp(step.c)[..., None] * psi
    return np.abs((lg @ psi[..., None])[..., 0] - rhs).max(axis=-1) / np.abs(rhs).max(axis=-1)


def kernel_residual(step: BacklundStep) -> float:
    """Residual of sum_k M(u)_{k',k} s_mu(lam_k + eta/n) = 0.

    Scaled by the row magnitudes with the z-dependent theta factor stripped,
    so the n = 1 collapse (where that single factor itself vanishes and the
    1x1 matrix M(u) is identically zero) stays a meaningful check.
    """
    theta_z, (factors,) = _gauge_factors(step.u, step.v, step.mu.params,
                                         [(step.source.lam.lam, step.mu.lam)], "kernel_residual")
    mg = factors / theta_z * step._frames[2]
    theta_scale = np.maximum(1.0, np.abs(factors).max(axis=(-2, -1)))
    safe = np.where(np.abs(factors) < 1e-150, 1.0, factors)
    stripped = np.abs(mg / safe) * np.abs(step._psi)[..., None, :]
    scale = stripped.sum(axis=-1).max(axis=-1) * theta_scale
    return np.abs((mg @ step._psi[..., None])[..., 0]).max(axis=-1) / (scale + 1e-300)


def _ks_sides(xs: np.ndarray, ys: np.ndarray, xi, kprime, torus):
    """Both sides of the closing theta identity of ks_identity_residual, over
    leading draw axes: xs, ys [..., n], and xi and kprime [...] with the draw axes of xs."""
    xi = np.asarray(xi, dtype=complex)[..., None]
    z = xs.shape[-1] * xi + np.add.reduce(xs - ys, axis=-1, keepdims=True)
    xk = np.take_along_axis(xs, np.asarray(kprime)[..., None], axis=-1)  # [..., 1] = x_k'
    # [..., k, s] = theta(x_k - y_s + xi); [..., k, l] = theta(x_kl), the l = k factor excluded
    xy = theta_odd_pair(xs[..., :, None] - ys[..., None, :] + xi[..., None], torus)[0]
    den = _drop_diagonal(theta_table(xs, xs, (0,), torus)[0][0])
    # [0, ..., l] = theta(x_k'l - xi) and [1, ..., k] = theta(z + x_k'k - xi)
    d = xk - xs
    row = theta_odd_pair(np.stack((d - xi, d + (z - xi))), torus)[0]
    ratio = _drop_diagonal(row[0][..., None, :] / den)
    lhs = np.sum(row[1] * np.prod(xy, axis=-1) * np.prod(ratio, axis=-1), axis=-1)
    th = theta_odd_pair(np.concatenate((z, xk - ys), axis=-1), torus)[0]  # z, x_k' - y_s
    return lhs, th[..., 0] * np.prod(th[..., 1:], axis=-1)


def ks_identity_residual(xvec, yvec, xi, kprime, params: ModelParams) -> float:
    """Residual of the closing theta identity

    sum_k theta(z + x_k'k - xi) prod_s theta(x_k - y_s + xi)
          prod_{l != k} theta(x_k'l - xi)/theta(x_kl)
        = theta(z) prod_s theta(x_k' - y_s),   z = n*xi + sum_k (x_k - y_k),

    one per draw for stacked xvec, yvec [..., n] with xi and kprime [...]."""
    xs, ys = (np.asarray(v, dtype=complex) for v in (xvec, yvec))
    if ys.shape[-1:] != xs.shape[-1:]:
        raise ValueError("xvec and yvec must have the same length")
    lhs, rhs = _ks_sides(xs, ys, xi, kprime, params.torus)
    return np.abs(lhs - rhs)


# ---------------------------------------------------------------------------
# generating function
# ---------------------------------------------------------------------------

# B_2j / (2j+1)! for j = 1..13, the coefficients of Li2 as a series in u = -log(1 - z)
_LI2_SERIES = tuple(b / math.factorial(2 * j + 3) for j, b in enumerate((
    1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510, 43867 / 798,
    -174611 / 330, 854513 / 138, -236364091 / 2730, 8553103 / 6)))


def _dilog(z) -> np.ndarray:
    """Principal-branch Li2(z) = -int_0^z log(1 - t)/t dt elementwise, cut along [1, inf);
    on the cut the sign of a zero imaginary part picks the side.  Inversion and reflection
    bring z to |u| < 1.3, where Li2 = u - u^2/4 + sum_j B_2j u^(2j+1)/(2j+1)!."""
    z = np.array(z, dtype=complex)
    out, sign = np.zeros_like(z), np.ones(z.shape)
    big = np.abs(z) > 1  # Li2(z) = -Li2(1/z) - pi^2/6 - log(-z)^2/2
    out[big] = -math.pi ** 2 / 6 - 0.5 * np.log(-z[big]) ** 2
    z[big], sign[big] = 1 / z[big], -1
    # Li2(z) = pi^2/6 - log(z) log(1 - z) - Li2(1 - z), where the product is 0 at z = 1
    near = z.real > 0.5
    w = z[near]
    out[near] += sign[near] * (math.pi ** 2 / 6 - np.log(w) * np.log(1 - np.where(w == 1, 0, w)))
    z[near], sign[near] = 1 - w, -sign[near]
    u = -np.log(1 - z)
    u2, acc = u * u, np.zeros_like(u)
    for coef in reversed(_LI2_SERIES):
        acc = acc * u2 + coef
    return out + sign * (u - u2 / 4 + u * u2 * acc)


def _log_theta_antiderivative(x: np.ndarray, tau: complex) -> np.ndarray:
    """S(x) = int log theta elementwise, integrated termwise from the Jacobi triple product

        theta(x) = A e^{-pi i x} (1 - w) prod_{m>=1} (1 - q^m w)(1 - q^m / w),
        w = e^{2 pi i x},  q = e^{2 pi i tau},  A = -i e^{pi i tau/4} prod_{m>=1} (1 - q^m),

    as x log A - pi i x^2/2 + [-Li2(w) - sum_m Li2(q^m w) + sum_m Li2(q^m / w)] / (2 pi i).
    """
    reach = float(np.abs(x.imag).max())
    # |q^m w|^{+-1} <= e^{-2 pi (m Im tau - reach)}: terms past `count` are below _SERIES_EPS
    count = math.ceil((reach - math.log(_SERIES_EPS) / (2 * math.pi)) / tau.imag)
    if count > _MAX_Q_TERMS or 2 * math.pi * reach > _EXP_LIMIT:
        raise NonconvergentSeries(f"log-theta antiderivative out of range at |Im x| = {reach} "
                                  f"(tau={tau}, {count} q-terms)")
    qm = np.exp(2j * math.pi * tau * np.arange(1, count + 1))
    log_a = -0.5j * math.pi + 0.25j * math.pi * tau + np.log(1 - qm).sum()
    w = np.exp(2j * math.pi * x)[..., None]
    series = -_dilog(w[..., 0]) - _dilog(qm * w).sum(axis=-1) + _dilog(qm / w).sum(axis=-1)
    return x * log_a - 0.5j * math.pi * x * x + series / (2j * math.pi)


def generating_function(lam: WeightVector, mu: WeightVector, c, u):
    """Scalar potential F of the Backlund map, one per draw for a stack, with

        exp( dF/dlambda_k) = t_k,
        exp(-dF/dmu_k)     = t~_k,
        dF/dc              = u + sum_k (lambda_k - mu_k) = v.

    F = sum_{k,k'} [S(lam_k - mu_k' + eta/n) - S(lam_k - mu_k')]
        + sum_{k<k'} [S(mu_kk' - eta/n) - S(mu_kk' + eta/n)]
        + c * (u + sum_k (lam_k - mu_k)),      S(x) = int log theta.

    The mu-mu part is an ordered sum (each pair once), so every S enters with
    an integer coefficient.  S has one vertical cut per lattice zero p + m*tau,
    running down from it for m <= 0 and up from it for m >= 1, across which S
    changes by 2 pi i (x - p - m*tau).  F is therefore defined only up to terms
    2 pi i (integer * x + constant) in its arguments x, which exp of its
    gradients does not see.  An argument of S within _PATH_CLEARANCE of a theta
    zero, where dF diverges, raises PathThroughZero.
    """
    params = lam.params
    n, h = params.n, params.eta / params.n
    d = lam.lam[..., :, None] - mu.lam[..., None, :]
    draws = d.shape[:-2]
    k, kp = np.triu_indices(n, 1)
    e = np.broadcast_to(mu.lam[..., k] - mu.lam[..., kp], draws + k.shape)
    # the first half enters F with +1, the second with -1
    args = np.concatenate([a.reshape(draws + (-1,)) for a in (d + h, e - h, d, e + h)], axis=-1)
    lattice_guard(args, params.tau, "generating_function: argument of S", _PATH_CLEARANCE,
                  PathThroughZero)
    s = _log_theta_antiderivative(args, params.tau)
    half = args.shape[-1] // 2
    return _scalar(s[..., :half].sum(axis=-1) - s[..., half:].sum(axis=-1)
                   + c * (u + lam.total - mu.total))
