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
"""

from __future__ import annotations

import cmath
import math
from dataclasses import InitVar, dataclass, field

import numpy as np

from .elliptic import (
    _EXP_LIMIT,
    _SERIES_EPS,
    ModelParams,
    lattice_guard,
    theta_odd,
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
    """One point (lambda, t) of the RS phase space."""

    lam: WeightVector
    t: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t, dtype=complex).reshape(-1)
        if t.shape != (self.lam.n,):
            raise ValueError(f"expected {self.lam.n} Lax weights, got {t.shape}")
        if np.any(t == 0) or not np.all(np.isfinite(t)):
            raise ValueError("Lax weights t_k must be nonzero and finite")
        t.setflags(write=False)
        object.__setattr__(self, "t", t)


@dataclass(frozen=True, eq=False)
class BacklundStep:
    """One Backlund transformation (lambda,t) -> (mu,t~), built from the free
    data (lambda, mu, c, u): t, t~ and C by their defining formulas, and the
    zero shift v = u + sum(lambda - mu)."""

    lam: InitVar[WeightVector]
    mu: WeightVector
    c: complex
    u: complex
    source: PhaseConfig = field(init=False)
    t_tilde: np.ndarray = field(init=False)
    C: np.ndarray = field(init=False)
    v: complex = field(init=False)

    def __post_init__(self, lam: WeightVector):
        mu, c, u = self.mu, complex(self.c), complex(self.u)
        derived = dict(c=c, u=u, source=PhaseConfig(lam, backlund_t(lam, mu, c)),
                       t_tilde=backlund_ttilde(lam, mu, c), C=backlund_C(lam, mu),
                       v=u + lam.total - mu.total)
        for name, value in derived.items():
            object.__setattr__(self, name, value)


def make_backlund_step(lam: WeightVector, mu: WeightVector, c: complex, u: complex) -> BacklundStep:
    """The BacklundStep of the free data (lambda, mu, c, u)."""
    return BacklundStep(lam, mu, c, u)


# ---------------------------------------------------------------------------
# Backlund coefficient formulas
# ---------------------------------------------------------------------------

def _coupling_table(lam: WeightVector, mu: WeightVector, what: str) -> np.ndarray:
    """theta(lambda_k - mu_s + delta) for delta = 0, eta/n, indexed [delta, k, s]."""
    params = lam.params
    lattice_guard(lam.lam[:, None] - mu.lam[None, :], params.tau, f"{what}: lambda_k - mu_s")
    return theta_table(lam.lam, mu.lam, (0, params.eta / params.n), params.torus)[0]


def backlund_t(lam: WeightVector, mu: WeightVector, c: complex) -> np.ndarray:
    """t_k = e^c * prod_s theta(lambda_k - mu_s + eta/n) / theta(lambda_k - mu_s)."""
    th = _coupling_table(lam, mu, "backlund_t")
    return cmath.exp(c) * np.prod(th[1] / th[0], axis=1)


def backlund_ttilde(lam: WeightVector, mu: WeightVector, c: complex) -> np.ndarray:
    """t~_k = e^c * prod_{m != k} theta(mu_mk - eta/n)/theta(mu_mk + eta/n)
    * prod_s theta(lambda_s - mu_k + eta/n)/theta(lambda_s - mu_k)."""
    params = lam.params
    n, h = params.n, params.eta / params.n
    th = _coupling_table(lam, mu, "backlund_ttilde")
    off = ~np.eye(n, dtype=bool)
    lattice_guard((mu.lam[:, None] - mu.lam[None, :] + h)[off], params.tau,
                  "backlund_ttilde: mu_k - mu_m + eta/n")
    mm = theta_table(mu.lam, mu.lam, (-h, h), params.torus)[0]
    ratio = mm[0] / mm[1]
    np.fill_diagonal(ratio, 1)  # the m = k factor is not part of the product
    return cmath.exp(c) * np.prod(ratio, axis=0) * np.prod(th[1] / th[0], axis=0)


def backlund_C(lam: WeightVector, mu: WeightVector) -> np.ndarray:
    """C_k = prod_s theta(mu_sk - eta/n) / theta(lambda_s - mu_k)."""
    params = lam.params
    th = _coupling_table(lam, mu, "backlund_C")
    mm = theta_table(mu.lam, mu.lam, (-params.eta / params.n,), params.torus)[0][0]
    return np.prod(mm, axis=0) / np.prod(th[0], axis=0)


# ---------------------------------------------------------------------------
# Lax matrices
# ---------------------------------------------------------------------------

def lax_classical(z: complex, cfg: PhaseConfig, v: complex) -> np.ndarray:
    """Factorized-frame L(z) as a matrix [j, i]; see module docstring."""
    lam = cfg.lam
    params = lam.params
    pb = phi_inverse(z - v - params.eta, lam)  # [k, j]
    p0 = phi_matrix(z - v, lam).entries  # [i, k]
    return pb.T @ np.diag(cfg.t) @ p0.T


def _gauge_matrix(z: complex, v: complex, lam: WeightVector, rows: np.ndarray,
                  weights: np.ndarray, what: str) -> np.ndarray:
    """[k', k] = Phi_{z-v-eta}(lam_k - rows_k' + eta/n)
    * prod_l theta(lam_l - rows_k' + eta/n) / prod_{l != k} theta(lam_lk) * weights_k',
    with the l = k factor cancelled against the Phi denominator."""
    params = lam.params
    n, eta, torus = params.n, params.eta, params.torus
    big_z = z - v - eta
    lattice_guard(big_z, params.tau, f"{what}: z - v - eta")
    h = eta / n
    # [l, k'] = theta(lam_l - rows_k' + eta/n) and [k, k'] = the same shifted by z-v-eta
    num = theta_table(lam.lam, rows, (h,), torus)[0][0]
    shifted = theta_table(big_z + lam.lam, rows, (h,), torus)[0][0]
    # [l, k] = theta(lam_l - lam_k); the diagonal is the excluded l = k factor
    den = theta_table(lam.lam, lam.lam, (0,), torus)[0][0]
    np.fill_diagonal(den, 1)
    out = shifted.T / theta_odd(big_z, torus) * (np.prod(num, axis=0)[:, None] / num.T)
    return out / np.prod(den, axis=0)[None, :] * weights[:, None]


def lax_gauge(z: complex, cfg: PhaseConfig, v: complex) -> np.ndarray:
    """Gauge-frame L_{k',k}(z) as a matrix [k', k]; rows carry t_{k'}."""
    return _gauge_matrix(z, v, cfg.lam, cfg.lam.lam, cfg.t, "lax_gauge")


def m_matrix(z: complex, lam: WeightVector, mu: WeightVector, v: complex) -> np.ndarray:
    """Gauge-frame M_{k',k}(z) = Phi_{z-v-eta}(lam_k - mu_k' + eta/n)
    * prod_l theta(lam_l - mu_k' + eta/n) / prod_{l != k} theta(lam_lk) * C_k',
    with v the zero shift u + sum(lambda - mu) of the step (BacklundStep.v).
    """
    return _gauge_matrix(z, v, lam, mu.lam, backlund_C(lam, mu), "m_matrix")


# ---------------------------------------------------------------------------
# residual checks
# ---------------------------------------------------------------------------

def s_mu(x, mu: WeightVector):
    """Kernel section s_mu(x) = prod_l theta(x - mu_l), elementwise over an array x."""
    d = np.asarray(x, dtype=complex)[..., None] - mu.lam
    val = np.prod(theta_odd_pair(d, mu.params.torus)[0], axis=-1)
    return complex(val) if val.ndim == 0 else val


def lax_equation_residual(z: complex, step: BacklundStep) -> float:
    """Max-norm of M(z) L(z) - L~(z) M(z) in the gauge frame, relative."""
    lam = step.source.lam
    lg = lax_gauge(z, step.source, step.v)
    ltg = lax_gauge(z, PhaseConfig(step.mu, step.t_tilde), step.v)
    mg = m_matrix(z, lam, step.mu, step.v)
    lhs = mg @ lg
    return float(np.abs(lhs - ltg @ mg).max() / np.abs(lhs).max())


def eigenvector_residual(step: BacklundStep) -> float:
    """Residual of sum_k L(u)_{k',k} s_mu(lam_k + eta/n) = e^c s_mu(lam_k' + eta/n)."""
    lam = step.source.lam
    psi = s_mu(lam.lam + lam.params.eta / lam.n, step.mu)
    lg = lax_gauge(step.u, step.source, step.v)
    rhs = cmath.exp(step.c) * psi
    return float(np.abs(lg @ psi - rhs).max() / np.abs(rhs).max())


def kernel_residual(step: BacklundStep) -> float:
    """Residual of sum_k M(u)_{k',k} s_mu(lam_k + eta/n) = 0.

    Scaled by the row magnitudes with the z-dependent theta factor stripped,
    so the n = 1 collapse (where that single factor itself vanishes and the
    1x1 matrix M(u) is identically zero) stays a meaningful check.
    """
    lam = step.source.lam
    params = lam.params
    psi = s_mu(lam.lam + params.eta / params.n, step.mu)
    mg = m_matrix(step.u, lam, step.mu, step.v)
    big_z = step.u - step.v - params.eta
    # [k', k] = theta(big_z + lam_k - mu_k' + eta/n)
    factors = theta_table(big_z + lam.lam, step.mu.lam, (params.eta / params.n,),
                          params.torus)[0][0].T
    theta_scale = max(1.0, float(np.abs(factors).max()))
    safe = np.where(np.abs(factors) < 1e-150, 1.0, factors)
    stripped = np.abs(mg / safe) * np.abs(psi)[None, :]
    scale = float(stripped.sum(axis=1).max()) * theta_scale
    return float(np.abs(mg @ psi).max() / (scale + 1e-300))


def _ks_sides(xs: np.ndarray, ys: np.ndarray, xi: complex, kprime: int,
              torus) -> tuple[complex, complex]:
    """Both sides of the closing theta identity of ks_identity_residual."""
    n = xs.size
    z = n * xi + np.add.reduce(xs - ys)
    # [delta, k, s] = theta(x_k - y_s + delta) and theta(x_k - x_l + delta)
    xy = theta_table(xs, ys, (xi, 0), torus)[0]
    xx = theta_table(xs, xs, (0, -xi, z - xi), torus)[0]
    # [k, l] = theta(x_k'l - xi) / theta(x_kl); the l = k factor is not part of the product
    den = xx[0]
    np.fill_diagonal(den, 1)
    ratio = xx[1][kprime] / den
    np.fill_diagonal(ratio, 1)
    lhs = np.sum(xx[2][kprime] * np.prod(xy[0], axis=1) * np.prod(ratio, axis=1))
    return complex(lhs), theta_odd(z, torus) * complex(np.prod(xy[1][kprime]))


def ks_identity_residual(xvec, yvec, xi: complex, kprime: int, params: ModelParams) -> float:
    """Residual of the closing theta identity

    sum_k theta(z + x_k'k - xi) prod_s theta(x_k - y_s + xi)
          prod_{l != k} theta(x_k'l - xi)/theta(x_kl)
        = theta(z) prod_s theta(x_k' - y_s),   z = n*xi + sum_k (x_k - y_k).
    """
    xs = np.asarray(xvec, dtype=complex).reshape(-1)
    ys = np.asarray(yvec, dtype=complex).reshape(-1)
    if ys.size != xs.size:
        raise ValueError("xvec and yvec must have the same length")
    lhs, rhs = _ks_sides(xs, ys, xi, kprime, params.torus)
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# generating function
# ---------------------------------------------------------------------------

def _log_theta_antiderivative(x: np.ndarray, tau: complex) -> np.ndarray:
    """S(x) = int log theta elementwise, integrated termwise from the Jacobi triple product

        theta(x) = A e^{-pi i x} (1 - w) prod_{m>=1} (1 - q^m w)(1 - q^m / w),
        w = e^{2 pi i x},  q = e^{2 pi i tau},  A = -i e^{pi i tau/4} prod_{m>=1} (1 - q^m),

    as x log A - pi i x^2/2 + [-Li2(w) - sum_m Li2(q^m w) + sum_m Li2(q^m / w)] / (2 pi i).
    """
    # deferred: importing scipy.special costs about half a second
    from scipy.special import spence

    reach = float(np.abs(x.imag).max())
    # |q^m w|^{+-1} <= e^{-2 pi (m Im tau - reach)}: terms past `count` are below _SERIES_EPS
    count = math.ceil((reach - math.log(_SERIES_EPS) / (2 * math.pi)) / tau.imag)
    if count > _MAX_Q_TERMS or 2 * math.pi * reach > _EXP_LIMIT:
        raise NonconvergentSeries(f"log-theta antiderivative out of range at |Im x| = {reach} "
                                  f"(tau={tau}, {count} q-terms)")
    qm = np.exp(2j * math.pi * tau * np.arange(1, count + 1))
    log_a = -0.5j * math.pi + 0.25j * math.pi * tau + np.log(1 - qm).sum()
    w = np.exp(2j * math.pi * x)[..., None]
    li2 = lambda z: spence(1 - z)
    series = -li2(w[..., 0]) - li2(qm * w).sum(axis=-1) + li2(qm / w).sum(axis=-1)
    return x * log_a - 0.5j * math.pi * x * x + series / (2j * math.pi)


def generating_function(lam: WeightVector, mu: WeightVector, c: complex, u: complex) -> complex:
    """Scalar potential F of the Backlund map, with

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
    d = (lam.lam[:, None] - mu.lam[None, :]).ravel()
    k, kp = np.triu_indices(n, 1)
    e = mu.lam[k] - mu.lam[kp]
    # the first half enters F with +1, the second with -1
    args = np.concatenate((d + h, e - h, d, e + h))
    lattice_guard(args, params.tau, "generating_function: argument of S", _PATH_CLEARANCE,
                  PathThroughZero)
    s = _log_theta_antiderivative(args, params.tau)
    half = args.size // 2
    return complex(s[:half].sum() - s[half:].sum() + c * (u + lam.total - mu.total))
