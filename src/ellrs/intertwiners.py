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
    theta_odd,
    theta_odd_pair,
)
from .errors import DegenerateWeights, NearSingular

_COND_LIMIT = 1e12
# two-point Richardson nodes for the z -> 0 limit of theta(z)*phibar(z);
# truncation error scales like the node spacing squared
_TILDE_NODES = (1e-5, 5e-6)


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

    def pairing(self, k: int) -> complex:
        """<lambda, ebar_k> = lambda_k - Lambda/n (k is 0-based)."""
        return complex(self.lam[k] - self.total / self.n)

    def pairings(self) -> np.ndarray:
        return self.lam - self.total / self.n


@dataclass(frozen=True, eq=False)
class IntertwinerMatrix:
    """phi(z): entries[i, k] as in the module docstring, plus its inputs."""

    entries: np.ndarray
    z: complex
    lam: WeightVector


def phi_matrix(z: complex, lam: WeightVector) -> IntertwinerMatrix:
    """Build phi(z) for the weight vector lam."""
    params = lam.params
    n = params.n
    ie = 1j * dedekind_eta(params.tau)
    # rows run over theta_1 .. theta_n (theta_n = theta_0); the row order
    # fixes the sign of the determinant identity
    rows = np.arange(1, n + 1)[:, None]
    entries = theta_level(rows, z / n - lam.pairings()[None, :], params) / ie
    entries.setflags(write=False)
    return IntertwinerMatrix(entries, complex(z), lam)


def phi_inverse(z: complex, lam: WeightVector) -> np.ndarray:
    """phibar(z): inverse of phi(z), indexed [k, i].

    Computed by an LU solve against the identity rather than the closed-form
    cofactor expression; raises NearSingular when the condition estimate
    exceeds 1e12 (z near the lattice or weights nearly degenerate).
    """
    phi = phi_matrix(z, lam).entries
    cond = np.linalg.cond(phi)
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise NearSingular(f"phi(z) at z={complex(z)} has condition estimate {cond:.3e}")
    inv = np.linalg.solve(phi, np.eye(lam.n, dtype=complex))
    return inv


def phi_tilde0(lam: WeightVector) -> np.ndarray:
    """Regularized inverse at the determinant zero: lim_{z->0} theta(z)*phibar(z).

    Evaluated by two-point Richardson extrapolation, linear in the node z0.
    """
    torus = lam.params.torus
    h0, h1 = _TILDE_NODES

    def f(z0):
        return theta_odd(z0, torus) * phi_inverse(z0, lam)

    f0, f1 = f(h0), f(h1)
    # linear model f(h) = f(0) + D*h:  eliminate D from the two nodes
    return (h0 * f1 - h1 * f0) / (h0 - h1)


def det_prefactor(n: int) -> int:
    """Sign constant in the determinant identity for rows theta_1..theta_n.

    det(theta_i(z_j)) = sign * theta(sum z_j)/(i*etaD) *
                        prod_{i<j} theta(z_j - z_i)/(i*etaD) * (i*etaD)^n,
    equivalently det phi(z) drops the trailing (i*etaD)^n.  The sign carries
    an extra (-1)^{n(n-1)/2} relative to the bare (-1)^{n-1}; both factors are
    forced by the n = 1 collapse and verified numerically for n <= 5.
    """
    return (-1) ** (n - 1) * (-1) ** (n * (n - 1) // 2)


def det_phi_closed_form(z: complex, lam: WeightVector) -> complex:
    """Closed form for det phi(z):

    sign(n) * theta(sum z_j)/(i*etaD) * prod_{i<j} theta(z_j - z_i)/(i*etaD)

    with z_j = z/n - <lambda, ebar_j>, so sum z_j = z and
    z_j - z_i = lambda_i - lambda_j.
    """
    params = lam.params
    n = params.n
    torus = params.torus
    ie = 1j * dedekind_eta(params.tau)
    zs = z / n - lam.pairings()
    # theta(sum z_j) and theta(z_j - z_i) for i < j, each over i*etaD
    later, earlier = np.tril_indices(n, -1)
    args = np.concatenate(([np.add.reduce(zs)], zs[later] - zs[earlier]))
    return det_prefactor(n) * complex(np.prod(theta_odd_pair(args, torus)[0] / ie))


def det_residual(z: complex, lam: WeightVector) -> float:
    """|det phi(z) - closed form|, both sides evaluated independently."""
    det = complex(np.linalg.det(phi_matrix(z, lam).entries))
    return abs(det - det_phi_closed_form(z, lam))


def cross_sum_residual(
    z: complex,
    u: complex,
    lam: WeightVector,
    mu: WeightVector,
    k: int,
    k2: int,
) -> float:
    """Residual of the cross-sum formula

    sum_i phibar(z)[mu; k, i] * phi(z+u)[lam; i, k2]
        = theta(z + u/n + <mu,ebar_k> - <lam,ebar_k2>) / theta(z)
          * prod_{l != k} theta(u/n + <mu,ebar_l> - <lam,ebar_k2>) / theta(mu_l - mu_k)

    The left side goes through the matrix inverse, the right side through
    theta products only, so the two paths share no intermediate.
    """
    params = lam.params
    n = params.n
    torus = params.torus
    pb = phi_inverse(z, mu)
    pu = phi_matrix(z + u, lam).entries
    lhs = complex(np.add.reduce(pb[k, :] * pu[:, k2]))
    pl = lam.pairings()
    pm = mu.pairings()
    others = np.arange(n) != k
    th = theta_odd_pair(np.concatenate((
        [z + u / n + pm[k] - pl[k2], z], u / n + pm[others] - pl[k2], pm[others] - pm[k],
    )), torus)[0]
    rhs = th[0] / th[1] * np.prod(th[2:n + 1] / th[n + 1:])
    return abs(lhs - rhs)
