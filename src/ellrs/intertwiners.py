"""Intertwining-vector matrices phi(z), their inverses and determinant identities.

The matrix entries are

    phi(z)[i, k] = theta_i(z/n - <lambda, ebar_k>) / (sqrt(-1) * etaD(tau))

with rows i = 1..n running over the theta_i family and columns k = 1..n over
the weight directions; <lambda, ebar_k> = lambda_k - (sum_j lambda_j)/n.
The inverse matrix phibar is indexed [k, i] so that phibar @ phi = identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .elliptic import (
    ModelParams,
    _scalar,
    dedekind_eta,
    lattice_guard,
    theta_level,
    theta_odd_pair,
)
from .errors import DegenerateWeights, NearSingular

_COND_LIMIT = 1e12


@dataclass(frozen=True, eq=False)
class WeightVector:
    """A weight lambda in C^n, or a stack [..., n] of them, with lattice-genericity enforced."""

    lam: np.ndarray
    params: ModelParams

    def __post_init__(self):
        lam = np.array(self.lam, dtype=complex, ndmin=1)
        n = self.params.n
        if lam.shape[-1] != n:
            raise ValueError(f"expected {n} weight components, got {lam.shape}")
        lattice_guard((lam[..., :, None] - lam[..., None, :])[..., ~np.eye(n, dtype=bool)],
                      self.params.tau, "lambda_i - lambda_j", error=DegenerateWeights)
        lam.setflags(write=False)
        object.__setattr__(self, "lam", lam)

    @property
    def n(self) -> int:
        return self.params.n

    @property
    def total(self):
        """Lambda = sum_j lambda_j, one per draw for a stack."""
        return _scalar(np.add.reduce(self.lam, axis=-1))

    def pairing(self, k: int):
        """<lambda, ebar_k> = lambda_k - Lambda/n (k is 0-based), one per draw for a stack."""
        return _scalar(self.pairings()[..., k])

    def pairings(self) -> np.ndarray:
        """<lambda, ebar_k> for every k, indexed [..., k]."""
        return self.lam - np.add.reduce(self.lam, axis=-1, keepdims=True) / self.n


@dataclass(frozen=True, eq=False)
class IntertwinerMatrix:
    """phi(z): entries[..., i, k] as in the module docstring, plus its inputs."""

    entries: np.ndarray
    z: complex
    lam: WeightVector


def phi_matrix(z, lam: WeightVector) -> IntertwinerMatrix:
    """Build phi(z) for the weight vector lam, z broadcast against its draw axes."""
    params = lam.params
    n = params.n
    ie = 1j * dedekind_eta(params.tau)
    z = np.asarray(z, dtype=complex)
    # rows run over theta_1 .. theta_n (theta_n = theta_0); the row order
    # fixes the sign of the determinant identity
    rows = np.arange(1, n + 1)[:, None]
    entries = theta_level(rows, z[..., None, None] / n - lam.pairings()[..., None, :], params) / ie
    entries.setflags(write=False)
    return IntertwinerMatrix(entries, _scalar(z), lam)


def phi_inverse(z, lam: WeightVector) -> np.ndarray:
    """phibar(z): inverse of phi(z), indexed [..., k, i].

    Computed by an LU solve against the identity rather than the closed-form
    cofactor expression; raises NearSingular, naming the first refused z and
    carrying the flat indices of every refused draw, when a condition estimate
    exceeds 1e12 (z near the lattice or weights nearly degenerate).
    """
    phi = phi_matrix(z, lam).entries
    cond = np.linalg.cond(phi)
    refused = np.flatnonzero(~(cond <= _COND_LIMIT))  # also refuses nan
    if refused.size:
        first = refused[0]
        bad_z = complex(np.broadcast_to(np.asarray(z), cond.shape).flat[first])
        raise NearSingular(f"phi(z) at z={bad_z} has condition estimate {cond.flat[first]:.3e}",
                           draws=refused)
    return np.linalg.solve(phi, np.broadcast_to(np.eye(lam.n, dtype=complex), phi.shape))


def _weight_factor(lam: WeightVector) -> np.ndarray:
    """sign(n) * prod_{i<j} theta(lambda_i - lambda_j)/(i*etaD), one per draw, so that
    det phi(z) = theta(z)/(i*etaD) times it.  For the rows theta_1..theta_n,
    sign(n) = (-1)^(n-1) * (-1)^(n(n-1)/2); both factors are forced by the n = 1
    collapse and verified numerically for n <= 5."""
    params = lam.params
    n = params.n
    earlier, later = np.triu_indices(n, 1)
    th = theta_odd_pair(lam.lam[..., earlier] - lam.lam[..., later], params.torus)[0]
    sign = (-1) ** (n - 1) * (-1) ** (n * (n - 1) // 2)
    return sign * np.prod(th / (1j * dedekind_eta(params.tau)), axis=-1)


def phi_tilde0(lam: WeightVector) -> np.ndarray:
    """Regularized inverse at the determinant zero: lim_{z->0} theta(z)*phibar(z), [..., k, i].

    By the closed form of det phi it equals i*etaD * adj phi(0) / _weight_factor,
    with the adjugate taken from the (n-1)x(n-1) minors of phi(0).
    """
    n = lam.n
    phi = phi_matrix(0.0, lam).entries
    # keep[i] = the indices 0..n-1 other than i; minors[..., i, k] drops row i and column k
    keep = np.arange(n - 1) + (np.arange(n - 1) >= np.arange(n)[:, None])
    minors = np.linalg.det(phi[..., keep[:, None, :, None], keep[None, :, None, :]])
    adj = ((-1) ** np.add.outer(np.arange(n), np.arange(n)) * minors).swapaxes(-1, -2)
    return 1j * dedekind_eta(lam.params.tau) * adj / _weight_factor(lam)[..., None, None]


def det_phi_closed_form(z, lam: WeightVector):
    """Closed form for det phi(z), one per draw with z broadcast against the draw axes:

    sign(n) * theta(sum z_j)/(i*etaD) * prod_{i<j} theta(z_j - z_i)/(i*etaD)

    with z_j = z/n - <lambda, ebar_j>, so sum z_j = z and
    z_j - z_i = lambda_i - lambda_j.
    """
    params = lam.params
    theta_z = theta_odd_pair(z, params.torus)[0]
    return _scalar(theta_z / (1j * dedekind_eta(params.tau)) * _weight_factor(lam))


def det_residual(z, lam: WeightVector):
    """|det phi(z) - closed form|, both sides evaluated independently; one float per draw
    for a stack, with z broadcast against its draw axes."""
    return _scalar(np.abs(np.linalg.det(phi_matrix(z, lam).entries) - det_phi_closed_form(z, lam)))


def cross_sum_residual(z, u, lam: WeightVector, mu: WeightVector, k: int, k2: int):
    """Residual of the cross-sum formula, one float per draw for a stack (z, u broadcast
    against the draw axes of lam and mu):

    sum_i phibar(z)[mu; k, i] * phi(z+u)[lam; i, k2]
        = theta(z + u/n + <mu,ebar_k> - <lam,ebar_k2>) / theta(z)
          * prod_{l != k} theta(u/n + <mu,ebar_l> - <lam,ebar_k2>) / theta(mu_l - mu_k)

    The left side goes through the matrix inverse, the right side through
    theta products only, so the two paths share no intermediate.
    """
    n = lam.n
    lhs = np.add.reduce(phi_inverse(z, mu)[..., k, :] * phi_matrix(z + u, lam).entries[..., :, k2],
                        axis=-1)
    pm = mu.pairings()
    z, at_k = np.asarray(z)[..., None], np.arange(n) == k
    # [..., l] = theta(u/n + <mu,ebar_l> - <lam,ebar_k2>) / theta(mu_l - mu_k), with z added
    # to the numerator and standing for the denominator at l = k
    num = np.asarray(u)[..., None] / n + pm - lam.pairings()[..., k2, None] + np.where(at_k, z, 0)
    den = np.where(at_k, z, pm - pm[..., k, None])
    th = theta_odd_pair(np.stack(np.broadcast_arrays(num, den)), lam.params.torus)[0]
    return _scalar(np.abs(lhs - np.prod(th[0] / th[1], axis=-1)))
