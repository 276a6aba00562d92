"""Independent theta and eta evaluation for the benchmark's output checks.

Nothing here imports ellrs.  The theta series is summed directly over one
fixed window of indices with no lattice reduction of the argument, and the
Dedekind eta is a fixed-length product, so a fault in the package's reduced
summation cannot cancel out of a check.

Conventions follow the package:

    theta[a,b](z, tau) = sum_m exp(pi*i*(m+a)^2*tau + 2*pi*i*(m+a)*(z+b))
    theta(z)           = theta[1/2,1/2](z, tau)             (odd theta)
    theta^(j)(z)       = theta[1/2 - j/n, 0](z + 1/2, n*tau)
    theta_j(z)         = theta[1/2 - j/n, 0](n*(z + 1/2), n*tau)
"""

from __future__ import annotations

import cmath
import math

import numpy as np

# |m| <= 40 covers |Im z| up to about 30 at Im tau = 1 with terms below 1e-40
# of the peak on both ends; the benchmark's arguments stay below |Im z| = 10
_M = 40
_PI = math.pi


def theta_char(a: float, b: float, z, tau: complex, deriv: bool = False):
    """theta[a,b](z, tau) (or its z-derivative), elementwise over array z."""
    m = np.arange(-_M, _M + 1, dtype=float) + a
    zz = np.asarray(z, dtype=complex)[..., None]
    terms = np.exp((1j * _PI * tau) * m * m + (2j * _PI) * m * (zz + b))
    if deriv:
        terms = (2j * _PI) * m * terms
    return terms.sum(axis=-1)


def theta(z, tau: complex):
    """Odd theta[1/2,1/2](z, tau)."""
    return theta_char(0.5, 0.5, z, tau)


def zeta(z, tau: complex):
    """theta'(z) / theta(z) of the odd theta."""
    return theta_char(0.5, 0.5, z, tau, deriv=True) / theta(z, tau)


def theta_prime0(tau: complex) -> complex:
    return complex(theta_char(0.5, 0.5, 0.0, tau, deriv=True))


def theta_band(j: int, z, n: int, tau: complex):
    """theta^(j)(z) for the rank-n model."""
    return theta_char(0.5 - (j % n) / n, 0.0, np.asarray(z, dtype=complex) + 0.5, n * tau)


def theta_level(j: int, z, n: int, tau: complex):
    """theta_j(z) for the rank-n model."""
    return theta_char(0.5 - (j % n) / n, 0.0, n * (np.asarray(z, dtype=complex) + 0.5), n * tau)


def dedekind_eta(tau: complex) -> complex:
    """exp(pi*i*tau/12) * prod_{m=1}^{60} (1 - q^m), q = exp(2*pi*i*tau)."""
    q = cmath.exp(2j * _PI * tau)
    prod = 1.0 + 0j
    for m in range(1, 61):
        prod *= 1.0 - q ** m
    return cmath.exp(1j * _PI * tau / 12) * prod
