"""Belavin's Z_n-symmetric elliptic R-matrix and its Yang-Baxter check.

Entries (all indices mod n):

    R(z)[i j, i' j'] = delta_{i+j, i'+j'} * theta^(i'-j')(z + eta)
                       / (theta^(i'-i)(eta) * theta^(i-j')(z))
                       * prod_{k=0}^{n-1} theta^(k)(z) / prod_{k=1}^{n-1} theta^(k)(0)

The Yang-Baxter equation is checked in the standard difference form
R12(z-w) R13(z) R23(w) = R23(w) R13(z) R12(z-w); that convention is fixed
here once and pinned by a loop-oracle test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .elliptic import ModelParams, theta_band


@dataclass(frozen=True, eq=False)
class RTensor:
    """R(z) as an (n,n,n,n) array: entries[i, j, i2, j2] = R(z)^{ij}_{i2 j2}.

    The operator that intertwines the vectors c_k(z, lam) = phi(z)[lam; :, k] is the
    transpose entries.reshape(n*n, n*n).T, which maps (i, j) to (i2, j2); _ybe_sides reads
    the untransposed layout [out1, out2, in1, in2], and the YBE holds in both readings."""

    entries: np.ndarray
    z: complex
    params: ModelParams


def r_matrix(z: complex, params: ModelParams) -> RTensor:
    """Build the Belavin R-matrix at spectral parameter z.

    The theta^(i-j')(z) denominator always cancels against the matching factor
    of prod_k theta^(k)(z), so the entries are computed in the cancelled form

        R[i j, i' j'] = delta * theta^(i'-j')(z+eta) / theta^(i'-i)(eta)
                        * prod_{k != i-j'} theta^(k)(z) / prod_{k>=1} theta^(k)(0)

    which stays regular in z everywhere; in particular R(0) is the permutation
    operator.  The eta denominators never vanish for a valid ModelParams: the
    zero set of theta^(k) is k*tau + Z + n*tau*Z, inside the lattice that
    ModelParams keeps eta away from.
    """
    n, eta = params.n, params.eta
    bands = np.arange(n)
    band_z = theta_band(bands, z, params)
    band_eta = theta_band(bands, eta, params)
    band_ze = theta_band(bands, z + eta, params)
    denom0 = np.prod(theta_band(bands[1:], 0.0, params))
    # others[s] = prod_{k != s} theta^(k)(z), without a division, so zero band values are safe
    others = np.prod(np.where(np.eye(n, dtype=bool), 1, band_z), axis=1)
    i, j, i2 = np.indices((n, n, n))
    j2 = (i + j - i2) % n  # delta_{i+j, i'+j'} sparsity
    entries = np.zeros((n, n, n, n), dtype=complex)
    entries[i, j, i2, j2] = band_ze[(i2 - j2) % n] * others[(i - j2) % n] / (
        band_eta[(i2 - i) % n] * denom0)
    entries.setflags(write=False)
    return RTensor(entries, complex(z), params)


def _ybe_sides(r12: np.ndarray, r13: np.ndarray, r23: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Triple contractions of both YBE orderings over C^n x C^n x C^n.

    Tensor legs are ordered (space1, space2, space3), flattened row-major; an
    operator product A.B contracts A's input indices with B's output indices.
    With R[out1, out2, in1, in2]:

      LHS[a,b,c; s,t,u] = sum_{x,y,r} R12[a,b,x,y] R13[x,c,s,r] R23[y,r,t,u]
      RHS[a,b,c; s,t,u] = sum_{x,y,w} R23[b,c,y,w] R13[a,w,x,u] R12[x,y,s,t]
    """
    lhs = np.einsum("abxy,xcsr,yrtu->abcstu", r12, r13, r23)
    rhs = np.einsum("bcyw,awxu,xyst->abcstu", r23, r13, r12)
    return lhs, rhs


def ybe_residual(z: complex, w: complex, params: ModelParams) -> float:
    """Max-norm difference of the two YBE contractions, relative to max |entry|."""
    r12 = r_matrix(z - w, params).entries
    r13 = r_matrix(z, params).entries
    r23 = r_matrix(w, params).entries
    lhs, rhs = _ybe_sides(r12, r13, r23)
    scale = np.abs(lhs).max()
    return float(np.abs(lhs - rhs).max() / scale)
