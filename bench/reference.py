"""Reference values that share no code with poletrace.

Everything here is written from the formulas, not from the package:

* closed forms of the singular line and planar integrals and of the
  correction term (a, c and nu are recomputed from the model parameters);
* the completed Eisenstein series E*(s, z) = xi(2s) E(s, z) from its Fourier
  expansion with the exact constants (1, 4), in two versions: a NumPy one
  (trapezoid-rule K-Bessel, mpmath xi) that is fast enough to use at every
  quadrature node, and an mpmath one for the accuracy grid, where the values
  reach 1e-27 and only high precision gives a true reference;
* a deformed-contour quadrature of a continued line integral: the contour
  is dragged by the poles instead of adding a residue, and it is integrated
  with fixed composite Gauss-Legendre panels instead of the package's
  adaptive driver.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np

mp.mp.dps = 30


# -- models ----------------------------------------------------------------


def model_data(desc: dict) -> tuple[float, float, int]:
    """(a, c, nu) of a model descriptor as the CLI reads it."""
    kind = desc["kind"]
    if kind == "GL2Q":
        return 1.0, 0.0, 1
    if kind == "HilbertMaass":
        t = desc["t"]
        return 1.0, sum(x * x for x in t) / len(t), 1
    if kind == "GL3Cuspidal":
        return 6.0, (float(desc["t_f"]) ** 2 + 0.25) / 3.0, 2
    raise ValueError(f"no line data for model kind {kind!r}")


def continued_pole(c: float, w_end: complex, flipped: bool) -> complex:
    root = np.sqrt(complex((w_end - 0.5) ** 2 + c))
    return 0.5 - root if flipped else 0.5 + root


def correction(a: float, nu: int, s_star: complex, n_star: complex) -> complex:
    """Term picked up by a branch-flipping continuation."""
    if nu == 1:
        return 4j * math.pi * n_star / (a * (1.0 - 2.0 * s_star))
    return 8j * math.pi * n_star / (a**2 * (1.0 - 2.0 * s_star) ** 3)


def singular_line(a: float, c: float, nu: int, w: complex) -> complex:
    """Full-line integral of 1/(a((s-1/2)^2 - q))^nu for Re w > 1/2."""
    s_plus = 0.5 + np.sqrt(complex((w - 0.5) ** 2 + c))
    if nu == 1:
        return 2j * math.pi / (a * (1.0 - 2.0 * s_plus))
    return 4j * math.pi / (a**2 * (2.0 * s_plus - 1.0) ** 3)


def planar_singular(w: complex) -> complex:
    return math.pi / w**2


def planar_gaussian(w: complex) -> complex:
    """Integral of exp(-|eta|^2) / (|eta|^2 + w^2)^2 over the plane."""
    a = mp.mpc(w) ** 2
    return complex(mp.pi * (1 / a - mp.exp(a) * mp.e1(a)))


def gaussian(s, width: float = 1.0):
    return np.exp(((np.asarray(s, dtype=complex) - 0.5) / width) ** 2)


# -- Eisenstein series -----------------------------------------------------


def _xi(u: complex) -> complex:
    with mp.workdps(20):
        u = mp.mpc(u)
        return complex(mp.pi ** (-u / 2) * mp.gamma(u / 2) * mp.zeta(u))


def _sigma_matrix(n_terms: int) -> np.ndarray:
    n = np.arange(1, n_terms + 1)
    return (n[:, None] % n[None, :] == 0).astype(float)


def _bessel_k_trapezoid(order: np.ndarray, x: np.ndarray, h: float = 0.05) -> np.ndarray:
    """K_order(x) = int_0^inf exp(-x cosh t) cosh(order t) dt by the trapezoid rule.

    The rule converges geometrically because the integrand is analytic in a
    strip; it is cut where the integrand falls below e^-60 of its peak.
    """
    t_max = float(np.arccosh(1.0 + 60.0 / np.min(x))) + 1.0
    t = np.arange(0.0, t_max, h)
    w = np.full(t.shape, h)
    w[0] = 0.5 * h
    f = np.exp(-x[..., None] * np.cosh(t)) * np.cosh(order[..., None] * t)
    return f @ w


def estar(s, x: float, y: float, n_terms: int) -> np.ndarray:
    """E*(s, z) at z = x + iy for an array of s; NumPy with mpmath xi."""
    s = np.atleast_1d(np.asarray(s, dtype=complex))
    n = np.arange(1, n_terms + 1, dtype=float)
    sigma = np.exp((1.0 - 2.0 * s)[:, None] * np.log(n)[None, :]) @ _sigma_matrix(n_terms).T
    order = np.broadcast_to((s - 0.5)[:, None], (len(s), n_terms))
    arg = np.broadcast_to(2.0 * np.pi * n * y, (len(s), n_terms))
    k = _bessel_k_trapezoid(order, arg)
    terms = n ** (s[:, None] - 0.5) * sigma * k * np.cos(2.0 * np.pi * n * x)
    xi_2s = np.array([_xi(2 * v) for v in s])
    xi_2s1 = np.array([_xi(2 * v - 1) for v in s])
    return xi_2s * y**s + xi_2s1 * y ** (1.0 - s) + 4.0 * np.sqrt(y) * terms.sum(axis=1)


def estar_mp(s: complex, x: float, y: float, n_terms: int) -> complex:
    """E*(s, z) in mpmath at 30 digits (slow; for the accuracy grid)."""
    s = mp.mpc(s)
    x, y = mp.mpf(x), mp.mpf(y)
    acc = mp.mpc(0)
    for n in range(1, n_terms + 1):
        sigma = mp.fsum(mp.mpf(d) ** (1 - 2 * s) for d in range(1, n + 1) if n % d == 0)
        acc += mp.mpf(n) ** (s - 0.5) * sigma * mp.besselk(s - 0.5, 2 * mp.pi * n * y) \
            * mp.cos(2 * mp.pi * n * x)
    xi = lambda u: mp.pi ** (-u / 2) * mp.gamma(u / 2) * mp.zeta(u)
    return complex(xi(2 * s) * y**s + xi(2 * s - 1) * y ** (1 - s) + 4 * mp.sqrt(y) * acc)


def eisenstein(s: complex, x: float, y: float, n_terms: int = 12) -> complex:
    """The non-completed series E(s, z), for Re s > 1."""
    return estar_mp(s, x, y, n_terms) / _xi(2 * s)


def bessel_k_mp(order: complex, x: float) -> complex:
    return complex(mp.besselk(order, x))


def zeta_mp(s: complex) -> complex:
    return complex(mp.zeta(s))


# -- deformed-contour quadrature ------------------------------------------

_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)


def _panels(f, a: complex, b: complex, n: int) -> complex:
    edges = np.linspace(0.0, 1.0, n + 1)
    mids, halves = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
    t = (mids[:, None] + halves[:, None] * _GL_X[None, :]).ravel()
    weights = (halves[:, None] * _GL_W[None, :]).ravel()
    return complex(np.sum(weights * f(a + t * (b - a))) * (b - a))


def contour_integral(numerator, a: float, c: float, nu: int, w_end: complex,
                     T: float, detour: float = 0.25) -> complex:
    """Continued line integral at w_end after a branch-flipping path.

    The continued pole s* (upper left) is kept right of the contour by a
    box-shaped detour, and the other pole (its mirror 1 - s*, lower right)
    left of it.  The integrand is invariant under s -> 1 - s and so is the
    contour, so the integral is twice the integral over its upper half:
    from 1/2 up past s* to 1/2 + iT.  ``numerator`` maps an array of s to
    N(s), which must decay so that the part beyond T is negligible.
    """
    q = complex((w_end - 0.5) ** 2 + c)
    s_star = 0.5 - np.sqrt(q)
    x0, y0 = s_star.real - detour, s_star.imag
    lo, hi = y0 - detour, y0 + detour
    if lo <= 0.1:
        raise ValueError(f"continued pole {s_star} too close to the real axis for the detour")

    def f(s):
        return numerator(s) / (a * ((s - 0.5) ** 2 - q)) ** nu

    pieces = [
        (0.5, 0.5 + 1j * lo, max(1, math.ceil(lo / 0.6))),
        (0.5 + 1j * lo, x0 + 1j * lo, 1),
        (x0 + 1j * lo, x0 + 1j * hi, 1),
        (x0 + 1j * hi, 0.5 + 1j * hi, 1),
    ]
    edges = [hi] + [e for e in (2.0, 3.5, 5.5, 8.0, 11.0, 14.0) if hi + 0.3 < e < T] + [T]
    pieces += [(0.5 + 1j * u, 0.5 + 1j * v, 1) for u, v in zip(edges[:-1], edges[1:])]
    return 2.0 * sum(_panels(f, p, q_, n) for p, q_, n in pieces)


def rel(got: complex, want: complex) -> float:
    """Relative error of ``got`` against the nonzero reference ``want``."""
    return abs(got - want) / abs(want)
