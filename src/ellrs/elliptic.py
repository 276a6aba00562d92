"""Theta functions with rational characteristics and the derived elliptic kernels.

Everything in this module is built from the series

    theta[a,b](z, tau) = sum_m exp(pi*i*(m+a)^2*tau + 2*pi*i*(m+a)*(z+b))

with rational characteristics a, b and Im(tau) > 0.  Arguments are first
reduced into the fundamental cell through the quasi-periodicity factors

    theta[a,b](z + p + q*tau) =
        exp(2*pi*i*a*p - pi*i*tau*q^2 - 2*pi*i*q*(z+b)) * theta[a,b](z)

(p, q integers), after which a short centered series gives close to machine
precision.  All functions are pure; nothing here holds mutable state.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import NonconvergentSeries, PoleAtLatticePoint

_PI = math.pi
# series terms are dropped once their magnitude bound falls below
# _SERIES_EPS times the peak term; |m - m_peak| is capped at _SERIES_CAP
_SERIES_EPS = 1e-17
_SERIES_CAP = 500
# exp() of a larger real part overflows double precision
_EXP_LIMIT = 700.0


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TorusParams:
    """Modulus tau of the curve C/(Z + tau*Z), with Im(tau) > 0.

    reduction_tol is the lattice-proximity tolerance: arguments closer than
    this to a pole lattice are rejected by the kernels that would diverge.
    """

    tau: complex
    reduction_tol: float = 1e-10

    def __post_init__(self):
        tau = complex(self.tau)
        if not tau.imag > 0:
            raise ValueError(f"Im(tau) must be strictly positive, got tau={tau}")
        if not self.reduction_tol > 0:
            raise ValueError(f"reduction_tol must be positive, got {self.reduction_tol}")
        object.__setattr__(self, "tau", tau)


@dataclass(frozen=True)
class Characteristic:
    """Rational theta characteristics (a, b), stored as exact fractions."""

    a: Fraction
    b: Fraction

    def __post_init__(self):
        # Fraction() normalizes sign and reduces; this also accepts ints/strings
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))


ODD_CHAR = Characteristic(Fraction(1, 2), Fraction(1, 2))


@dataclass(frozen=True)
class ModelParams:
    """Rank n, coupling eta and the torus; fixes the theta_j / theta^(j) families.

    The model proper needs n >= 2, but every formula collapses cleanly to
    n = 1, so only n >= 1 is enforced here.  eta and eta/n must stay away
    from the lattice or the R-matrix and Lax denominators degenerate.
    """

    n: int
    eta: complex
    torus: TorusParams

    def __post_init__(self):
        if not (isinstance(self.n, int) and self.n >= 1):
            raise ValueError(f"n must be a positive integer, got {self.n!r}")
        eta = complex(self.eta)
        object.__setattr__(self, "eta", eta)
        tol = self.torus.reduction_tol
        if lattice_distance(eta, self.torus.tau) < tol:
            raise ValueError(f"eta={eta} is within {tol} of the lattice")
        if lattice_distance(eta / self.n, self.torus.tau) < tol:
            raise ValueError(f"eta/n={eta / self.n} is within {tol} of the lattice")

    @property
    def tau(self) -> complex:
        return self.torus.tau


# ---------------------------------------------------------------------------
# lattice reduction
# ---------------------------------------------------------------------------

def lattice_reduce(z: complex, tau: complex) -> tuple[complex, int, int]:
    """Split z = z0 + p + q*tau with Im(z0) in [-Im(tau)/2, Im(tau)/2).

    Returns (z0, p, q) with integers p, q.
    """
    z = complex(z)
    q = round(z.imag / tau.imag)
    z1 = z - q * tau
    p = round(z1.real)
    return z1 - p, p, q


def _lattice_reduce_array(z: np.ndarray, tau: complex):
    """lattice_reduce elementwise: (z0, p, q) arrays, p and q integer-valued floats."""
    q = np.rint(z.imag / tau.imag)
    z1 = z - q * tau
    p = np.rint(z1.real)
    return z1 - p, p, q


def lattice_distance(z, tau: complex):
    """Distance from z to the nearest point of Z + tau*Z, elementwise for an array z."""
    if isinstance(z, np.ndarray):
        z0 = _lattice_reduce_array(z, tau)[0]
        cells = np.array([dp + dq * tau for dp in (-1, 0, 1) for dq in (-1, 0, 1)])
        return np.abs(z0[..., None] - cells).min(axis=-1)
    z0, _, _ = lattice_reduce(z, tau)
    # rounding per axis is not exact for skewed lattices; check neighbors
    best = abs(z0)
    for dp in (-1, 0, 1):
        for dq in (-1, 0, 1):
            best = min(best, abs(z0 - dp - dq * tau))
    return best


# ---------------------------------------------------------------------------
# theta series core
# ---------------------------------------------------------------------------

def _series_window(im_tau: float) -> int:
    """Half-width M of the summation window [m_peak - M, m_peak + M].

    Outside it the term bound exp(-pi*Im(tau)*(m+a)^2 + 2*pi*|Im(z+b)|*|m+a|)
    has dropped below _SERIES_EPS times the peak term.
    """
    # exp(-pi*im_tau*d^2) < eps  <=>  d > sqrt(-ln(eps)/(pi*im_tau))
    halfwidth = math.sqrt(-math.log(_SERIES_EPS) / (_PI * im_tau)) + 1.0
    M = int(math.ceil(halfwidth)) + 1
    if M > _SERIES_CAP:
        raise NonconvergentSeries(
            f"series window {M} exceeds cap {_SERIES_CAP} (Im tau = {im_tau})"
        )
    return M


def _overflow(z, tau: complex) -> NonconvergentSeries:
    return NonconvergentSeries(
        f"|theta| overflows double precision at z={complex(z)} (tau={tau})"
    )


def _series_pair(a: float, b: float, z: complex, tau: complex) -> tuple[complex, complex]:
    """Centered theta series and its z-derivative, no argument reduction."""
    im_tau = tau.imag
    y = (z + b).imag
    m_peak = -a - y / im_tau
    M = _series_window(im_tau)
    m = np.arange(round(m_peak) - M, round(m_peak) + M + 1, dtype=float) + a
    expo = (1j * _PI * tau) * m * m + (2j * _PI) * m * (z + b)
    terms = np.exp(expo)
    value = complex(np.add.reduce(terms))
    deriv = complex(np.add.reduce((2j * _PI) * m * terms))
    return value, deriv


def _theta_pair(ch: Characteristic, z: complex, tau: complex) -> tuple[complex, complex]:
    """(theta, theta') at z after lattice reduction of the argument."""
    tau = complex(tau)
    if not tau.imag > 0:
        raise ValueError(f"Im(tau) must be strictly positive, got tau={tau}")
    a = float(ch.a)
    b = float(ch.b)
    z0, p, q = lattice_reduce(complex(z), tau)
    value, deriv = _series_pair(a, b, z0, tau)
    expo = 2j * _PI * a * p - 1j * _PI * tau * q * q - 2j * _PI * q * (z0 + b)
    if expo.real > _EXP_LIMIT:
        raise _overflow(z, tau)
    pref = cmath.exp(expo)
    # d/dz of the reduction prefactor contributes the -2*pi*i*q term
    return pref * value, pref * (deriv - 2j * _PI * q * value)


def theta_odd_pair(z, torus: TorusParams) -> tuple[np.ndarray, np.ndarray]:
    """(theta, theta') of the odd theta, elementwise over an array z.

    Each element is reduced as lattice_reduce does and summed over the same
    window as the scalar kernels, so the values are theta_odd and
    theta_odd_deriv up to rounding.  The output keeps the shape of z.
    Raises NonconvergentSeries if the scalar kernels would at any element.
    """
    tau = torus.tau
    z = np.asarray(z, dtype=complex)
    a = b = 0.5
    M = _series_window(tau.imag)
    z0, p, q = _lattice_reduce_array(z, tau)
    expo = 2j * _PI * a * p - 1j * _PI * tau * q * q - 2j * _PI * q * (z0 + b)
    over = expo.real > _EXP_LIMIT
    if over.any():
        raise _overflow(z[over][0], tau)
    zb = (z0 + b)[..., None]
    m_peak = -a - zb.imag / tau.imag
    m = (np.rint(m_peak) + np.arange(-M, M + 1)) + a
    terms = np.exp((1j * _PI * tau) * m * m + (2j * _PI) * m * zb)
    value = np.add.reduce(terms, axis=-1)
    deriv = np.add.reduce((2j * _PI) * m * terms, axis=-1)
    pref = np.exp(expo)
    return pref * value, pref * (deriv - 2j * _PI * q * value)


def theta_table(x, y, offsets, torus: TorusParams) -> tuple[np.ndarray, np.ndarray]:
    """(theta, theta') of the odd theta at x_k - y_s + delta, indexed [delta, k, s].

    One array evaluation over every pairwise difference of x and y and every
    offset delta of the stack: the shape of the Backlund and flow products.
    """
    d = np.asarray(x, dtype=complex)[:, None] - np.asarray(y, dtype=complex)[None, :]
    return theta_odd_pair(d + np.asarray(offsets, dtype=complex)[:, None, None], torus)


# ---------------------------------------------------------------------------
# public kernels
# ---------------------------------------------------------------------------

def theta_char(ch: Characteristic, z: complex, tau: complex) -> complex:
    """theta[a,b](z, tau) = sum_m exp(pi*i*(m+a)^2*tau + 2*pi*i*(m+a)*(z+b))."""
    return _theta_pair(ch, z, tau)[0]


def theta_char_deriv(ch: Characteristic, z: complex, tau: complex) -> complex:
    """d/dz theta[a,b](z, tau), summed termwise."""
    return _theta_pair(ch, z, tau)[1]


def theta_odd(z: complex, torus: TorusParams) -> complex:
    """The distinguished odd theta: theta[1/2,1/2](z, tau).

    Vanishes exactly on the lattice Z + tau*Z and satisfies
    theta(z+1) = -theta(z), theta(z+tau) = -exp(-pi*i*tau - 2*pi*i*z)*theta(z).
    """
    return theta_char(ODD_CHAR, z, torus.tau)


def theta_odd_deriv(z: complex, torus: TorusParams) -> complex:
    """d/dz of the odd theta."""
    return theta_char_deriv(ODD_CHAR, z, torus.tau)


def _band_char(j: int, n: int) -> Characteristic:
    return Characteristic(Fraction(1, 2) - Fraction(j % n, n), Fraction(0))


def theta_band(j: int, z: complex, params: ModelParams) -> complex:
    """theta^(j)(z) = theta[1/2 - j/n, 0](z + 1/2, n*tau); index j taken mod n."""
    n = params.n
    return theta_char(_band_char(j, n), z + 0.5, n * params.tau)


def theta_level(j: int, z: complex, params: ModelParams) -> complex:
    """theta_j(z) = theta[1/2 - j/n, 0](n*(z + 1/2), n*tau); index j taken mod n."""
    n = params.n
    return theta_char(_band_char(j, n), n * (z + 0.5), n * params.tau)


def dedekind_eta(tau: complex) -> complex:
    """Dedekind eta: exp(pi*i*tau/12) * prod_{m>=1} (1 - q^m), q = exp(2*pi*i*tau).

    The product is truncated once |q^m| < 1e-16, i.e. once the remaining
    factors differ from 1 by less than that.
    """
    tau = complex(tau)
    if not tau.imag > 0:
        raise ValueError(f"Im(tau) must be strictly positive, got tau={tau}")
    q = cmath.exp(2j * _PI * tau)
    prod = 1.0 + 0j
    qm = 1.0 + 0j
    while True:
        qm *= q
        if abs(qm) < 1e-16:
            break
        prod *= 1.0 - qm
    return cmath.exp(1j * _PI * tau / 12) * prod


def zeta_log(z: complex, torus: TorusParams) -> complex:
    """Logarithmic derivative zeta(z) = theta'(z)/theta(z) of the odd theta.

    Has simple poles exactly on the lattice, hence the proximity guard.
    """
    if lattice_distance(z, torus.tau) < torus.reduction_tol:
        raise PoleAtLatticePoint(f"zeta_log: z={complex(z)} is lattice-proximate")
    value, deriv = _theta_pair(ODD_CHAR, z, torus.tau)
    return deriv / value


def phi_kernel(z: complex, x: complex, torus: TorusParams) -> complex:
    """Kronecker-type kernel Phi_z(x) = theta(z+x) / (theta(z)*theta(x))."""
    tol = torus.reduction_tol
    tau = torus.tau
    if lattice_distance(z, tau) < tol:
        raise PoleAtLatticePoint(f"phi_kernel: z={complex(z)} is lattice-proximate")
    if lattice_distance(x, tau) < tol:
        raise PoleAtLatticePoint(f"phi_kernel: x={complex(x)} is lattice-proximate")
    return theta_odd(z + x, torus) / (theta_odd(z, torus) * theta_odd(x, torus))
