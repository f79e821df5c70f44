"""Real-analytic Eisenstein series for the full modular group, with ingredients.

The series is evaluated either as a truncated coset sum over coprime bottom
rows (absolutely convergent for Re(s) > 1) or through its Fourier expansion

    E(s, z) = y^s + C1 * (xi(2s-1)/xi(2s)) * y^(1-s)
              + C2 / xi(2s) * sqrt(y) * sum_n n^(s-1/2) sigma_(1-2s)(n)
                                            K_(s-1/2)(2 pi n y) cos(2 pi n x),

where xi is the completed zeta function and (C1, C2) = (1, 4), the standard
expansion (Iwaniec, Spectral Methods of Automorphic Forms, ch. 3).  The
acceptance criterion for the evaluator fits both constants by least squares
against the coset sum and checks them against these values.  The Fourier
form is valid on the critical line, where the coset sum diverges.  Next to
s = 1/2, where the two xi poles cancel, xi(2s) E(s, z) comes from a Cauchy
circle instead (Trefethen and Weideman, SIAM Review 56 (2014) 385-458).

Everything on the Fourier side is vectorized over arrays of s: zeta() uses a
truncated Dirichlet sum with Euler-Maclaurin correction terms (Bernoulli
numbers built exactly at import), xi's Gamma is a shifted Stirling series,
the divisor sums come from a sieve table, and bessel_k() is a fixed-node
quadrature along the steepest-descent path of its integral representation
(Gil, Segura and Temme, J. Comput. Phys. 175 (2002) 398-411).  Node counts,
padding widths and summation orders come from each element alone.  Tests
check that a batch of bessel_k values equals elementwise calls bit for bit,
and that batched E* agrees with scalar calls to a relative 1e-14 (not bit
for bit: in-place complex products in _fourier_pieces and zeta take numpy's
SIMD loops on long arrays, which round differently from length-1 arrays).
Tests also check bessel_k against mpmath to a relative 1e-10 for
|Re order| <= 10, |Im order| <= 60 and 0.1 <= x <= 60, including Im order
close to x, and the completed series against mpmath up to Im s = 40 on the
critical line.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import DivergentSumError, DomainError, NumericalError, ValidationError


def _bernoulli_exact(m_max: int) -> list[Fraction]:
    """B_0 ... B_m_max exactly, from sum_k C(m+1, k) B_k = 0 (B_1 = -1/2).

    B_k vanishes for odd k >= 3, so only the even terms enter the sums.
    """
    b = [Fraction(1), Fraction(-1, 2)]
    for m in range(2, m_max + 1):
        if m % 2:
            b.append(Fraction(0))
            continue
        acc = 1 + (m + 1) * b[1]
        binom = (m + 1) * m // 2  # C(m+1, k) for k = 2
        for k in range(2, m, 2):
            acc += binom * b[k]
            binom = binom * (m + 1 - k) * (m - k) // ((k + 1) * (k + 2))
        b.append(-acc / (m + 1))
    return b


_BERNOULLI_EXACT = _bernoulli_exact(60)
_BERNOULLI = np.array([float(b) for b in _BERNOULLI_EXACT])

#: (C1, C2) of the Fourier expansion in the module docstring
FOURIER_CONSTANTS = (1.0, 4.0)


def _as_array(v, dtype) -> tuple[np.ndarray, tuple]:
    """(v flattened to 1-d, the shape of v)."""
    arr = np.asarray(v, dtype=dtype)
    return arr.ravel(), arr.shape


def _unwrap(out: np.ndarray, shape: tuple):
    """A complex for a scalar argument, else out in the argument's shape."""
    return complex(out[0]) if shape == () else out.reshape(shape)


def zeta(s):
    """Riemann zeta by Dirichlet sum plus Euler-Maclaurin tail, elementwise.

    Accepts a scalar (returns a complex) or an array of s.  Tests check it
    against mpmath for |Im s| <= 480: relative error below
    1e-12 at Re s = 1.5 and 2.5, and on the critical line, where the
    relative error grows next to the zeros, error below
    1e-11 * max(1, |zeta(s)|).
    """
    sv, shape = _as_array(s, complex)
    if np.any(np.abs(sv - 1.0) < 1e-12):
        raise DomainError("zeta has a pole at s = 1")
    N = np.maximum(32, (0.8 * np.abs(sv.imag)).astype(int) + 16)
    # the Dirichlet sum runs over rows padded to a multiple of 32 that depends
    # on the element's own N, so its summation order ignores the batch
    padded = 32 * -(-N // 32)
    total = np.zeros(sv.shape, dtype=complex)
    for width in sorted(set(padded.tolist())):
        idx = np.flatnonzero(padded == width)
        n = np.arange(1, width + 1)
        terms = np.exp(-np.multiply.outer(sv[idx], np.log(n)))
        total[idx] = np.sum(np.where(n < N[idx, None], terms, 0.0), axis=1)
    total += N ** (1.0 - sv) / (sv - 1.0) + 0.5 * N ** (-sv)
    rising = sv.copy()  # (s)_(2k-1) built up incrementally
    npow = N ** (-sv - 1.0)
    for k in range(1, 26):  # Euler-Maclaurin terms through B_50
        total += _BERNOULLI[2 * k] / math.factorial(2 * k) * rising * npow
        rising *= (sv + 2 * k - 1) * (sv + 2 * k)
        npow /= N * N
    return _unwrap(total, shape)


#: Stirling series arguments are shifted up to |w| >= _STIRLING_RADIUS
_STIRLING_RADIUS = 16
#: B_2k / (2k (2k - 1)) for k = 1 ... 12, highest first (Horner order)
_STIRLING = [float(_BERNOULLI_EXACT[2 * k] / (2 * k * (2 * k - 1))) for k in range(12, 0, -1)]
_SHIFTS = np.arange(_STIRLING_RADIUS)


def _gamma(z):
    """Complex Gamma for Re z >= 1/4, elementwise (what :func:`xi` needs).

    Each element is shifted by the smallest n >= 0 with |z + n| >= 16 and
    Gamma(z) = Gamma(z + n) / (z (z + 1) ... (z + n - 1)); log Gamma(z + n)
    is the Stirling series (DLMF 5.11.1) through B_24, whose remainder is
    below 1e-22 there (DLMF 5.11.ii).  The shift product is one masked row
    per element, so every value depends only on its own argument.  Overflow
    gives a non-finite value.
    """
    zv, shape = _as_array(z, complex)  # 1-d: numpy's 0-d loops round differently
    n = np.ceil(np.sqrt(np.maximum(_STIRLING_RADIUS**2 - zv.imag**2, 0.0)) - zv.real)
    n = np.maximum(n, 0.0)
    w = zv + n
    product = np.where(_SHIFTS < n[:, None], zv[:, None] + _SHIFTS, 1.0).prod(axis=1)
    inv = 1.0 / w
    inv2 = inv * inv
    series = _STIRLING[0]
    for c in _STIRLING[1:]:
        series = series * inv2 + c
    log_gamma = (w - 0.5) * np.log(w) - w + 0.5 * math.log(2.0 * math.pi) + series * inv
    return (np.exp(log_gamma) / product).reshape(shape)


def xi(u):
    """Completed zeta pi^(-u/2) Gamma(u/2) zeta(u), symmetric under u -> 1-u.

    Arguments left of the symmetry line are reflected first, which keeps the
    trivial zeros of zeta from colliding with gamma poles numerically.
    Accepts a scalar (returns a complex) or an array.
    """
    uv, shape = _as_array(u, complex)
    pole = (np.abs(uv) < 1e-12) | (np.abs(uv - 1.0) < 1e-12)
    if np.any(pole):
        raise DomainError(f"xi has a pole at u = {uv[pole][0]}")
    uv = np.where(uv.real < 0.5, 1.0 - uv, uv)
    return _unwrap(np.pi ** (-uv / 2.0) * _gamma(uv / 2.0) * zeta(uv), shape)


# -- K-Bessel on the steepest-descent path -------------------------------

#: tails end where the integrand is below exp(-_DROP) of its saddle value
_DROP = 40.0
#: K_(i tau)(x) ~ exp(-pi tau / 2) underflows double precision beyond this
_MAX_IMAG_ORDER = 400.0


def _legendre(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """P_n(x), P_n'(x) and 1 - x^2, by (k + 1) P_k+1 = (2k + 1) x P_k - k P_k-1."""
    p0, p1 = np.ones_like(x), x
    for k in range(1, n):
        p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
    one_minus_x2 = (1.0 - x) * (1.0 + x)
    return p1, n * (p0 - x * p1) / one_minus_x2, one_minus_x2


@functools.lru_cache(maxsize=128)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes (ascending) and weights on [-1, 1].

    Newton's method on P_n from x_k = cos(pi (k - 1/4) / (n + 1/2)) finds the
    nodes in [0, 1); the others are their mirror images, so the rule is
    exactly symmetric.  The weights 2 / ((1 - x^2) P_n'(x)^2) include the
    first-order effect of the last Newton correction r (below the rounding of
    x), which matters where 1 - x^2 is small.
    """
    x = np.cos(np.pi * (np.arange(1, (n + 1) // 2 + 1) - 0.25) / (n + 0.5))
    for _ in range(50):
        p, dp, _ = _legendre(n, x)
        step = p / dp
        x = x - step
        if np.max(np.abs(step)) <= 1e-15:
            break
    p, dp, one_minus_x2 = _legendre(n, x)
    w = 2.0 / (one_minus_x2 * dp * dp) * (1.0 + 2.0 * x * (p / dp) / one_minus_x2)
    odd = n % 2
    if odd:
        x[-1] = 0.0
    return np.concatenate((-x, x[::-1][odd:])), np.concatenate((w, w[::-1][odd:]))


def _nodes(count: np.ndarray) -> np.ndarray:
    """Node counts rounded up to a multiple of 8 (at least 8)."""
    return 8 * np.ceil(np.maximum(count, 8.0) / 8.0).astype(int)


class _Path(NamedTuple):
    """Path u(t) = t + i sigma(t) of K_nu(x) = 1/2 int exp(nu u - x cosh u) du.

    One entry per element, for Re nu >= 0 and Im nu >= 0.  sigma is the
    steepest-descent curve of the order i * tau_path: the level set
    x sinh t sin sigma = tau_path t - c0 through the saddle t0 + i sigma(t0)
    (sinh u = i tau_path / x).  When tau_path > x the saddles are
    +-t0 + i pi/2 and the path runs along Im u = pi/2 between them; otherwise
    t0 = 0 and there is one saddle on the imaginary axis.  tau_path equals
    Im nu except near the turning point Im nu = x, where the exact curve has
    a corner on a scale too fine for the nodes; there it is moved off x by a
    fraction of the saddle width.  For Re nu = 0 and tau_path = Im nu the
    phase is constant on the tails.

    Each tail t0 + delta, delta in [0, length], has Gauss-Legendre nodes in v
    with delta = peak + scale * sinh(v): dense at the integrand's peak
    (delta = peak, nonzero for Re nu > 0) and geometric towards the end.
    """

    a: np.ndarray
    tau: np.ndarray
    x: np.ndarray
    tau_path: np.ndarray
    cosh_t0: np.ndarray
    sinh_t0: np.ndarray
    t0: np.ndarray
    c0: np.ndarray
    peak: np.ndarray
    scale: np.ndarray
    v_lo: np.ndarray
    v_hi: np.ndarray
    n_tail: np.ndarray
    n_segment: np.ndarray

    def take(self, idx: np.ndarray) -> "_Path":
        return _Path(*(field[idx] for field in self))


def _path(nu: np.ndarray, x: np.ndarray) -> _Path:
    """Path geometry and node counts, computed from each (nu, x) alone."""
    a, tau = nu.real, nu.imag
    with np.errstate(divide="ignore"):
        # saddle width: quadratic scale, or cubic where two saddles merge
        width = np.minimum(np.abs(x * x + nu * nu) ** -0.25, np.cbrt(6.0 / np.abs(nu)))
    kappa = np.minimum(0.25, 0.25 * width * width)
    tau_path = np.where(tau <= x, np.minimum(tau, x * (1.0 - kappa)),
                        np.maximum(tau, x * (1.0 + kappa)))
    cosh_t0 = np.maximum(tau_path / x, 1.0)
    sinh_t0 = np.sqrt(np.maximum(tau_path * tau_path - x * x, 0.0)) / x
    t0 = np.log(cosh_t0 + sinh_t0)
    c0 = tau_path * t0 - x * sinh_t0
    # for Re nu > 0 the modulus peaks near the saddle of nu itself
    peak = np.maximum(np.arcsinh(nu / x).real - t0, 0.0)
    turning = t0 + np.sqrt(np.maximum(1.0 - tau_path / x, 0.0))
    scale = np.minimum(width, turning + peak)

    # tail length: beyond t_half, sin(sigma) <= 1/2, so the exponent is at
    # most a t - x cosh(t) cos(30 deg); t_decay is where that bound has
    # fallen _DROP below the saddle value
    beta = np.arcsin(np.minimum(tau_path / x, 1.0))
    saddle = np.where(t0 > 0, a * t0 - tau * np.pi / 2, -tau * beta - x * np.cos(beta))
    t_half = np.maximum(t0, 1.0)
    t_decay = np.maximum(t0, np.arcsinh(a / x)) + 1.0
    for _ in range(6):
        t_half = np.arcsinh(2.0 * tau_path * t_half / x)
        t_decay = np.arccosh(np.maximum(1.0, (a * t_decay - saddle + _DROP) / (0.866 * x)))
    length = np.maximum(np.maximum(t_half, t_decay), t0 + peak + 3.0 * scale) - t0
    v_lo = -np.arcsinh(peak / scale)
    v_hi = np.arcsinh((length - peak) / scale)
    n_tail = _nodes(8.0 * (v_hi - v_lo) + a + 6.0 * np.maximum(0.0, -np.log(x)) + 12.0)
    # the segment integrand oscillates with frequency up to tau
    n_segment = np.where(t0 > 0, _nodes(0.65 * tau * t0 + 24.0), 0)
    return _Path(a, tau, x, tau_path, cosh_t0, sinh_t0, t0, c0, peak, scale, v_lo, v_hi,
                 n_tail, n_segment)


def _tails(p: _Path, n: int) -> np.ndarray:
    """Both tails, integrated with n nodes each; the left one mirrors the right."""
    a, tau, x, tau_path, cosh_t0, sinh_t0, t0, c0, peak, scale, v_lo, v_hi = (
        field[:, None] for field in p[:12])
    gx, gw = _gauss_legendre(n)
    half = 0.5 * (v_hi - v_lo)
    v = v_lo + half * (gx + 1.0)
    delta = peak + scale * np.sinh(v)
    weight = half * gw * scale * np.cosh(v)
    t = t0 + delta
    sh, ch = np.sinh(t), np.cosh(t)
    gap = np.maximum(x - tau_path, 0.0)  # x cosh(t0) - tau_path
    two_sinh2 = 2.0 * np.sinh(0.5 * delta) ** 2  # cosh(delta) - 1
    # 1 - sin(sigma) = (x sinh t - tau_path t + c0) / (x sinh t), expanded
    # about t0 so that it keeps its relative accuracy next to the saddle
    one_minus_sin = (x * (sinh_t0 * two_sinh2 + cosh_t0 * (np.sinh(delta) - delta))
                     + gap * delta) / (x * sh)
    sin_s = 1.0 - one_minus_sin
    cos_s = np.sqrt(one_minus_sin * (2.0 - one_minus_sin))
    sigma = np.arctan2(sin_s, cos_s)
    # d sigma / dt = (tau_path - x cosh t sin sigma) / (x sinh t cos sigma)
    dsigma = (x * ch * one_minus_sin - x * (cosh_t0 * two_sinh2 + sinh_t0 * np.sinh(delta))
              - gap) / (x * sh * cos_s)
    modulus = -tau * sigma - x * ch * cos_s
    phase = (tau - tau_path) * t + c0  # Im(nu u - x cosh u) - a sigma on the right
    right = np.exp(modulus + a * t + 1j * (phase + a * sigma)) * (1.0 + 1j * dsigma)
    left = np.exp(modulus - a * t + 1j * (a * sigma - phase)) * (1.0 - 1j * dsigma)
    return np.sum((right + left) * weight, axis=1)


def _segment(p: _Path, n: int) -> np.ndarray:
    """The segment Im u = pi/2, |Re u| <= t0, with n nodes."""
    a, tau, x, t0 = (field[:, None] for field in (p.a, p.tau, p.x, p.t0))
    gx, gw = _gauss_legendre(n)
    t = t0 * gx
    exponent = a * t - tau * np.pi / 2 + 1j * (tau * t + a * np.pi / 2 - x * np.sinh(t))
    return p.t0 * np.sum(np.exp(exponent) * gw, axis=1)


def bessel_k(order, x):
    """Modified Bessel function of the second kind K_order(x), elementwise.

    ``order`` (complex) and ``x`` (real, > 0) broadcast against each other;
    scalars give a complex.  K is even in the order and real for real
    orders.  The integral 1/2 int exp(order u - x cosh u) du is taken with
    fixed Gauss-Legendre nodes along the steepest-descent path (see _Path);
    node counts depend on each element's own (order, x).  Tests check the
    relative error against mpmath to 1e-10 for |Re order| <= 10,
    |Im order| <= 60 and 0.1 <= x <= 60, Im order close to x included, and
    against scipy for real orders up to 50.  For x < Im order, K_order(x)
    oscillates in x; next to its zeros only the absolute error (about
    1e-12 of exp(-pi |Im order| / 2)) is meaningful.
    """
    nu = np.asarray(order, dtype=complex)
    xv = np.asarray(x, dtype=float)
    if not np.all(xv > 0):
        raise DomainError(f"bessel_k requires x > 0, got {x}")
    if not np.all(np.isfinite(nu)):
        raise DomainError(f"bessel_k requires a finite order, got {order}")
    if np.any(np.abs(nu.imag) > _MAX_IMAG_ORDER):
        raise DomainError(f"bessel_k requires |Im order| <= {_MAX_IMAG_ORDER:g}, got {order}")
    shape = np.broadcast_shapes(nu.shape, xv.shape)
    nu, xv = (np.broadcast_to(v, shape).ravel() for v in (nu, xv))
    nu = np.where(nu.real < 0, -nu, nu)
    conj = nu.imag < 0  # K of the conjugate order is the conjugate, for real x
    nu = np.where(conj, nu.conj(), nu)
    p = _path(nu, xv)
    out = np.zeros(nu.shape, dtype=complex)
    for n in sorted(set(p.n_tail.tolist())):
        idx = np.flatnonzero(p.n_tail == n)
        out[idx] += _tails(p.take(idx), int(n))
    for n in sorted(set(p.n_segment[p.n_segment > 0].tolist())):
        idx = np.flatnonzero(p.n_segment == n)
        out[idx] += _segment(p.take(idx), int(n))
    out = 0.5 * np.where(conj, out.conj(), out)
    out = np.where(nu.imag == 0, out.real, out)
    return _unwrap(out, shape)


# -- Eisenstein series ---------------------------------------------------


@dataclass(frozen=True, slots=True)
class UpperHalfPoint:
    """A point x + iy in the upper half plane."""

    x: float
    y: float

    def __post_init__(self):
        if not self.y > 0:
            raise ValidationError(f"upper half plane requires y > 0, got y = {self.y}")
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValidationError(f"point x + iy must be finite, got x = {self.x}, y = {self.y}")


@dataclass
class EisensteinParams:
    """Evaluation request: spectral parameter, truncations, and mode."""

    s: complex
    n_terms: int = 30
    mode: str = "fourier"

    def __post_init__(self):
        if self.mode not in ("fourier", "lattice_sum"):
            raise ValidationError(f"unknown mode {self.mode!r}")
        if self.n_terms < 0:
            raise ValidationError(f"n_terms must be >= 0, got {self.n_terms}")


def _lattice_sum(s: complex, z: UpperHalfPoint) -> complex:
    """Coset sum over coprime bottom rows, shell by shell to max(|c|, |d|) = 2000."""
    s = complex(s)
    if s.real <= 1.0:
        raise DivergentSumError(f"coset sum diverges for Re(s) <= 1, got {s}")
    x, y = z.x, z.y
    total = complex(y**s)  # the (c, d) = (0, 1) class
    for m in range(1, 2001):
        d_full = np.arange(-m, m + 1)
        c_edge = np.arange(1, m)  # empty for m = 1
        c_all = np.concatenate([np.full_like(d_full, m), c_edge, c_edge])
        d_all = np.concatenate([d_full, np.full_like(c_edge, m), np.full_like(c_edge, -m)])
        cop = np.gcd(c_all, np.abs(d_all)) == 1
        c_all, d_all = c_all[cop], d_all[cop]
        r2 = (c_all * x + d_all) ** 2 + (c_all * y) ** 2
        total += y**s * np.sum(r2 ** (-s))
    return total


@functools.lru_cache(maxsize=8)
def _divisors(n_terms: int) -> tuple[np.ndarray, ...]:
    """Sieve table: entry n - 1 holds the divisors of n, for n <= n_terms."""
    table: list[list[int]] = [[] for _ in range(n_terms)]
    for d in range(1, n_terms + 1):
        for m in range(d, n_terms + 1, d):
            table[m - 1].append(d)
    return tuple(np.array(divs) for divs in table)


#: largest accepted Debye estimate exp(-phi) of the first omitted Fourier term
TRUNCATION_TOL = 1e-11


def _require_converged(s: np.ndarray, y: float, n_terms: int) -> None:
    """Refuse a truncation whose first omitted term is not negligible.

    K_(i tau)(X) decays like exp(-phi) with phi = sqrt(X^2 - tau^2) -
    tau arccos(tau / X) past its turning point X = tau (Debye), and does not
    decay before it.  With X = 2 pi (n_terms + 1) y for the first omitted
    term and phi decreasing in tau, the largest |Im s| decides.
    """
    tau = float(np.max(np.abs(s.imag)))
    x = 2.0 * np.pi * (n_terms + 1) * y
    phi = math.sqrt(x * x - tau * tau) - tau * math.acos(tau / x) if x > tau else 0.0
    if math.exp(-phi) > TRUNCATION_TOL:
        raise DomainError(
            f"n_terms = {n_terms} Fourier terms do not converge at y = {y:g} for "
            f"|Im s| = {tau:g}: the first omitted term is about {math.exp(-phi):.2g} "
            f"(limit {TRUNCATION_TOL:g}); raise n_terms or move z up"
        )


def _fourier_pieces(s: np.ndarray, z: UpperHalfPoint, n_terms: int):
    """xi(2s), xi(2s-1) and the Bessel sum of the Fourier expansion, per s.

    The Bessel sum is sum_n n^(s-1/2) sigma_(1-2s)(n) K_(s-1/2)(2 pi n y)
    cos(2 pi n x); it is invariant under s -> 1-s.  Arrays stay of length
    len(s) (times the Bessel path nodes inside bessel_k): one Fourier term per
    loop step.  Both xi values come from one xi call; it is elementwise, so
    they equal two separate calls bit for bit.  Raises DomainError when the
    first omitted term is not negligible (see :func:`_require_converged`).
    """
    _require_converged(s, z.y, n_terms)
    order = s - 0.5
    log_n = np.log(np.arange(1, n_terms + 1))
    # overflow shows up as a non-finite piece and is reported below
    with np.errstate(over="ignore", invalid="ignore"):
        powers = np.exp(np.multiply.outer(1.0 - 2.0 * s, log_n))  # d^(1-2s), d <= n_terms
        acc = np.zeros(s.shape, dtype=complex)
        for n, divisors in enumerate(_divisors(n_terms), start=1):
            sigma = powers[:, divisors - 1].sum(axis=1)
            acc += (np.exp(order * log_n[n - 1]) * sigma
                    * bessel_k(order, 2.0 * np.pi * n * z.y) * np.cos(2.0 * np.pi * n * z.x))
        both = xi(np.concatenate([2.0 * s, 2.0 * s - 1.0]))
        pieces = both[:s.size], both[s.size:], acc
    if not all(np.all(np.isfinite(piece)) for piece in pieces):
        raise NumericalError(f"Fourier expansion overflows double precision for s in {s}")
    return pieces


def _completed(s: np.ndarray, z: UpperHalfPoint, n_terms: int) -> np.ndarray:
    """xi(2s) y^s + C1 xi(2s-1) y^(1-s) + C2 sqrt(y) * Bessel sum, per s."""
    c1, c2 = FOURIER_CONSTANTS
    xi_2s, xi_2s1, acc = _fourier_pieces(s, z, n_terms)
    return xi_2s * z.y**s + c1 * xi_2s1 * z.y ** (1.0 - s) + c2 * np.sqrt(z.y) * acc


_CENTER_ZONE = 1e-3
#: trapezoid ring h_j = r exp(2 pi i (j + 1/2) / n), r = 0.1, n = 24, about 1/2;
#: E*'s poles at s = 0 and 1 put its error at about (2r)^n
_RING = 0.1 * np.exp(2j * np.pi * (np.arange(24) + 0.5) / 24)


def _center_coefficients(ring_values: np.ndarray) -> np.ndarray:
    """Taylor coefficients a_k, k < n, at c of f given at c + h_j: the means of f h_j^(-k)."""
    k = np.arange(_RING.size)
    return np.mean(ring_values[:, None] * _RING[:, None] ** -k, axis=0)


def eisenstein_gl2(params: EisensteinParams, z: UpperHalfPoint) -> complex:
    """Evaluate the real-analytic Eisenstein series for the full modular group.

    Inside xi's pole window |2s - 1| < 1e-12, E = E*(s, z) (2s - 1): xi has
    residue 1 at 1, so 1/xi(2s) = (2s - 1)(1 + O(2s - 1)), and E(1/2, z) = 0.
    Inside the window |2s| < 1e-12 about xi's other pole, E(0, z) = 1.
    Elsewhere E = E*(s, z) / xi(2s).
    """
    if params.mode == "lattice_sum":
        return _lattice_sum(params.s, z)
    s = complex(params.s)
    if abs(2.0 * s) < 1e-12:
        return 1.0 + 0.0j
    completed = eisenstein_gl2_completed(s, z, params.n_terms)
    if abs(2.0 * s - 1.0) < 1e-12:
        return completed * (2.0 * s - 1.0) + 0.0  # + 0.0 turns -0.0 into +0.0
    return completed / xi(2.0 * s)


def eisenstein_gl2_completed(s, z: UpperHalfPoint, n_terms: int = 30):
    """Completed series xi(2s) E(s, z), symmetric under s -> 1-s.

    Accepts a scalar s (returns a complex) or an array of s, evaluated in one
    pass.  Assembled directly from the Fourier pieces so no xi factor is
    divided out and remultiplied; decays exponentially on the critical line.
    Within 1e-3 of s = 1/2, where the constant term's two xi poles cancel,
    E* is its Taylor series in (s - 1/2)^2, with coefficients from a 24-point
    trapezoid ring of radius 0.1 in the same pass; offsets s - 1/2 = +-u give
    the same bits (s = 1/2 +- i tau, say).  Tests check the zone to a relative 1e-13.
    """
    sv, shape = _as_array(s, complex)
    near = np.abs(sv - 0.5) < _CENTER_ZONE
    if not np.any(near):
        return _unwrap(_completed(sv, z, n_terms), shape)
    values = _completed(np.concatenate([sv[~near], 0.5 + _RING]), z, n_terms)
    out = np.empty(sv.shape, dtype=complex)
    out[~near] = values[:-_RING.size]
    coeffs = _center_coefficients(values[-_RING.size:])
    out[near] = np.polyval(coeffs[::2][::-1], (sv[near] - 0.5) ** 2)
    return _unwrap(out, shape)
