"""Theta functions with rational characteristics and the derived elliptic kernels.

Everything in this module is built from the series

    theta[a,b](z, tau) = sum_m exp(pi*i*(m+a)^2*tau + 2*pi*i*(m+a)*(z+b))

with rational characteristics a, b and Im(tau) > 0.  Arguments are first
reduced into the fundamental cell through the quasi-periodicity factors

    theta[a,b](z + p + q*tau) =
        exp(2*pi*i*a*p - pi*i*tau*q^2 - 2*pi*i*q*(z+b)) * theta[a,b](z)

(p, q integers), after which a short centered series gives close to machine
precision.  All functions are pure; the one cache, of the window
coefficients per tau, holds read-only arrays.
"""

from __future__ import annotations

import cmath
import functools
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
# arguments closer than this to a pole lattice are refused by the kernels
# that would diverge there
_LATTICE_TOL = 1e-10
# arg multipliers of the two window bases: V = q/W (j < 0) and U = W*q (j >= 0)
_SIDES = np.array([-1.0, 1.0])


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

def _checked_tau(tau) -> complex:
    """complex(tau), or ValueError unless tau is finite with Im(tau) > 0."""
    tau = complex(tau)
    if not (cmath.isfinite(tau) and tau.imag > 0):
        raise ValueError(f"tau must be finite with Im(tau) > 0, got tau={tau}")
    return tau


@dataclass(frozen=True)
class TorusParams:
    """Modulus tau of the curve C/(Z + tau*Z), with Im(tau) > 0."""

    tau: complex

    def __post_init__(self):
        object.__setattr__(self, "tau", _checked_tau(self.tau))


@dataclass(frozen=True)
class Characteristic:
    """Rational theta characteristics (a, b), stored as exact fractions."""

    a: Fraction
    b: Fraction

    def __post_init__(self):
        # Fraction() normalizes sign and reduces; this also accepts ints/strings
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))


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
        if not (type(self.n) is int and self.n >= 1):  # type(), since True is an int too
            raise ValueError(f"n must be a positive integer, got {self.n!r}")
        eta = complex(self.eta)
        if not cmath.isfinite(eta):
            raise ValueError(f"eta must be finite, got eta={eta}")
        object.__setattr__(self, "eta", eta)
        lattice_guard([eta, eta / self.n], self.torus.tau, "eta or eta/n", error=ValueError)

    @property
    def tau(self) -> complex:
        return self.torus.tau


# ---------------------------------------------------------------------------
# lattice reduction
# ---------------------------------------------------------------------------

def lattice_reduce(z, tau: complex):
    """Split z = z0 + p + q*tau with Im(z0) in [-Im(tau)/2, Im(tau)/2], elementwise.

    Returns (z0, p, q) with the shape of z, p and q integer-valued floats.
    """
    z = np.asarray(z, dtype=complex)
    q = np.rint(z.imag / tau.imag)
    z1 = z - q * tau
    p = np.rint(z1.real)
    return z1 - p, p, q


def lattice_distance(z, tau: complex):
    """Distance from z to the nearest point of Z + tau*Z, elementwise and exact for any tau:
    in the Lagrange-Gauss reduced frame Z + tau*Z = w1 * (Z + t*Z), Im t >= sqrt(3)/2, it lies
    in a row q0 - 1, q0 or q0 + 1, q0 = rint(Im(z/w1) / Im t), at p = rint(Re(z/w1 - q*t))."""
    w1, w2 = 1 + 0j, complex(tau)
    while abs(w2 := w2 - round((w2 / w1).real) * w1) < abs(w1):
        w1, w2 = w2, w1
    t = w2 / w1 if (w2 / w1).imag > 0 else -w2 / w1
    z = np.asarray(z, dtype=complex) / w1
    w = z[..., None] - (np.rint(z.imag / t.imag)[..., None] + np.arange(-1, 2)) * t
    return abs(w1) * np.abs(w - np.rint(w.real)).min(axis=-1)


def lattice_guard(z, tau: complex, what: str, tol: float = _LATTICE_TOL,
                  error: type[Exception] = PoleAtLatticePoint) -> None:
    """Raise error, naming the first offending element, if any element of z
    lies within tol of Z + tau*Z: the lattice-proximity guard of every module."""
    z = np.asarray(z, dtype=complex)
    near = lattice_distance(z, tau) < tol
    if near.any():
        raise error(f"{what}={complex(z[near][0])} is within {tol} of the lattice")


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


@functools.lru_cache(maxsize=64)
def _window_coefficients(tau: complex, M: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(side, k, coef) of the window j = -M..M, cached per (tau, M) and read-only.

    With q = exp(i*pi*tau) and k = |j|, term j of the centred series is
    lead * base**k * q**(k*(k-1)), where base is U = W*q for j >= 0 (side 1) and
    V = q/W for j < 0 (side 0): after peak centring |U|, |V| <= 1, so no power overflows.
    coef[:, 0] = q**(k*(k-1)) and coef[:, 1] = j*coef[:, 0] give sum_j term and
    sum_j j*term as one product with the powers.
    """
    j = np.arange(-M, M + 1)
    k = np.abs(j)
    side = (j >= 0).astype(np.intp)
    qk = np.exp((1j * _PI * tau) * (k * (k - 1)))
    coef = np.stack([qk, j * qk], axis=-1)
    for arr in (side, k, coef):
        arr.setflags(write=False)
    return side, k, coef


def _window_sums(arg: np.ndarray, tau: complex, M: int) -> np.ndarray:
    """[..., 2] sums over j = -M..M of W**j * q**(j*j) * (1, j), W = exp(arg).

    The array of powers, the one [elements x window] temporary, is freed on return.
    einsum rather than a matmul: BLAS rounds differently at different batch sizes,
    and an array call must agree with the scalar calls of its elements.
    """
    side, k, coef = _window_coefficients(tau, M)
    powers = np.exp(np.multiply.outer(arg, _SIDES) + 1j * _PI * tau)[..., side]
    return np.einsum("...k,kc->...c", np.power(powers, k, out=powers), coef)


def _theta_pair(a, b: float, z, tau: complex) -> tuple[np.ndarray, np.ndarray]:
    """(theta[a,b], d/dz theta[a,b]) elementwise: the one theta series.

    a broadcasts against z.  Each argument is reduced by lattice_reduce, summed
    over the centred window of _series_window and mapped back through the
    quasi-periodicity factor.  With m = m0 + j around the peak index m0 the
    window is a sum of powers of W = exp(2*pi*i*(tau*m0 + zb)) (_window_sums),
    so each element costs three exp() calls and one [elements x window] temporary.
    Raises NonconvergentSeries when the window exceeds its cap or that factor
    overflows double precision at any element.
    """
    tau = _checked_tau(tau)
    M = _series_window(tau.imag)
    z = np.asarray(z, dtype=complex)
    z0, p, q = lattice_reduce(z, tau)
    zb = z0 + b
    expo = 2j * _PI * a * p - 1j * _PI * tau * q * q - 2j * _PI * q * zb
    over = expo.real > _EXP_LIMIT
    if over.any():
        bad = complex(np.broadcast_to(z, over.shape)[over][0])
        raise NonconvergentSeries(f"|theta| overflows double precision at z={bad} (tau={tau})")
    m0 = np.rint(-a - zb.imag / tau.imag) + a
    arg = (2j * _PI) * (tau * m0 + zb)
    # the peak term exp(i*pi*tau*m0^2 + 2*pi*i*m0*zb) times the reduction prefactor
    lead = np.exp(expo + (0.5 * m0) * arg + (1j * _PI) * m0 * zb)
    sums = _window_sums(arg, tau, M)
    # d/dz: 2*pi*i*m per term, and -2*pi*i*q from the reduction prefactor
    return lead * sums[..., 0], (2j * _PI) * lead * ((m0 - q) * sums[..., 0] + sums[..., 1])


def _scalar(values: np.ndarray):
    """A Python number for a 0-d result, else the array itself."""
    return values.item() if values.ndim == 0 else values


def theta_odd_pair(z, torus: TorusParams) -> tuple[np.ndarray, np.ndarray]:
    """(theta, theta') of the odd theta, elementwise over an array z.

    The output keeps the shape of z (0-d arrays for a scalar z).
    """
    return _theta_pair(0.5, 0.5, z, torus.tau)


def theta_table(x, y, offsets, torus: TorusParams) -> tuple[np.ndarray, np.ndarray]:
    """(theta, theta') of the odd theta at x_k - y_s + delta, indexed [delta, ..., k, s].

    One array evaluation over every pairwise difference of x and y, with leading draw
    axes broadcast, and every offset delta: the shape of the Backlund and flow products.
    """
    d = np.asarray(x, dtype=complex)[..., None] - np.asarray(y, dtype=complex)[..., None, :]
    return theta_odd_pair(np.add.outer(np.asarray(offsets, dtype=complex), d), torus)


def _drop_diagonal(values: np.ndarray) -> np.ndarray:
    """values with the [..., i, i] entries set to 1: the excluded j = i factor of a product."""
    return np.where(np.eye(values.shape[-1], dtype=bool), 1, values)


# ---------------------------------------------------------------------------
# public kernels
# ---------------------------------------------------------------------------

def theta_char(ch: Characteristic, z, tau: complex):
    """theta[a,b](z, tau) = sum_m exp(pi*i*(m+a)^2*tau + 2*pi*i*(m+a)*(z+b)),
    elementwise over an array z."""
    return _scalar(_theta_pair(float(ch.a), float(ch.b), z, tau)[0])


def theta_char_deriv(ch: Characteristic, z, tau: complex):
    """d/dz theta[a,b](z, tau), summed termwise, elementwise over an array z."""
    return _scalar(_theta_pair(float(ch.a), float(ch.b), z, tau)[1])


def theta_odd(z, torus: TorusParams):
    """The distinguished odd theta: theta[1/2,1/2](z, tau).

    Vanishes exactly on the lattice Z + tau*Z and satisfies
    theta(z+1) = -theta(z), theta(z+tau) = -exp(-pi*i*tau - 2*pi*i*z)*theta(z).
    """
    return _scalar(theta_odd_pair(z, torus)[0])


def theta_odd_deriv(z, torus: TorusParams):
    """d/dz of the odd theta."""
    return _scalar(theta_odd_pair(z, torus)[1])


def _band(j, w, params: ModelParams):
    """theta[1/2 - j/n, 0](w, n*tau) elementwise, with j taken mod n."""
    n = params.n
    return _scalar(_theta_pair((n - 2 * np.mod(j, n)) / (2 * n), 0.0, w, n * params.tau)[0])


def theta_band(j, z, params: ModelParams):
    """theta^(j)(z) = theta[1/2 - j/n, 0](z + 1/2, n*tau); index j taken mod n.

    j and z broadcast together; scalar j and z give a complex.
    """
    return _band(j, np.asarray(z) + 0.5, params)


def theta_level(j, z, params: ModelParams):
    """theta_j(z) = theta[1/2 - j/n, 0](n*(z + 1/2), n*tau); index j taken mod n.

    j and z broadcast together; scalar j and z give a complex.
    """
    return _band(j, params.n * (np.asarray(z) + 0.5), params)


def dedekind_eta(tau: complex) -> complex:
    """Dedekind eta: exp(pi*i*tau/12) * prod_{m>=1} (1 - q^m), q = exp(2*pi*i*tau).

    The product is truncated once |q^m| < 1e-16, i.e. once the remaining
    factors differ from 1 by less than that.
    """
    tau = _checked_tau(tau)
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
    lattice_guard(z, torus.tau, "zeta_log: z")
    value, deriv = theta_odd_pair(z, torus)
    return complex(deriv / value)


def phi_kernel(z: complex, x: complex, torus: TorusParams) -> complex:
    """Kronecker-type kernel Phi_z(x) = theta(z+x) / (theta(z)*theta(x))."""
    lattice_guard([z, x], torus.tau, "phi_kernel: z or x")
    th = theta_odd_pair(np.array([z + x, z, x], dtype=complex), torus)[0]
    return complex(th[0] / (th[1] * th[2]))
