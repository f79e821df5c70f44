"""Adaptive quadrature on the critical line and closed-form singular integrals.

The adaptive core is a globally adaptive Gauss-Kronrod 7/15 scheme for
complex-valued integrands of a real variable.  Subdivision always splits the
interval with the largest embedded error estimate (first such interval on
ties) and the final reduction sums intervals in position order, so results
are bit-stable regardless of evaluation interleaving.

Line integrals over s = 1/2 + i tau are truncated at |tau| = T and completed
with the analytic tails of the singular factor (arctan-type for simple
poles, elementary for double poles) instead of pushing T to extremes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    AsymmetricNumeratorError,
    PoleOnContourError,
    QuadratureFailureError,
    ValidationError,
)
from .models import SpectralModel, denominator, eigenvalue, lambda_w, radicand

# Gauss-Kronrod 7/15 nodes and weights on [-1, 1] (positive half; node 0 last).
_XGK = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769, 0.741531185599394,
    0.586087235467691, 0.405845151377397, 0.207784955007898, 0.0,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250, 0.140653259715525,
    0.169004726639267, 0.190350578064785, 0.204432940075298, 0.209482141084728,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119, 0.417959183673469,
])

_NODES = np.concatenate((-_XGK[:-1], _XGK[::-1]))          # 15 ascending nodes
_WEIGHTS_K = np.concatenate((_WGK[:-1], _WGK[::-1]))
_WEIGHTS_G = np.zeros(15)
_WEIGHTS_G[1:-1:2] = np.concatenate((_WG[:-1], _WG[::-1]))  # Gauss nodes interleave


def _gk15(f: Callable, a: float, b: float) -> tuple[complex, float]:
    """One Gauss-Kronrod 7/15 panel; returns (value, error estimate)."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    fx = np.asarray(f(mid + half * _NODES), dtype=complex)
    k = half * np.sum(_WEIGHTS_K * fx)
    g = half * np.sum(_WEIGHTS_G * fx)
    return k, abs(k - g)


def adaptive_quadrature(
    f: Callable,
    a: float,
    b: float,
    tol: float = 1e-11,
    initial_points=None,
    max_intervals: int = 8192,
) -> tuple[complex, float]:
    """Integrate a complex-valued f over [a, b] by adaptive GK15.

    ``f`` must accept an ndarray of real abscissae.  Convergence requires the
    summed error estimates to fall below tol * max(1, |integral|); exceeding
    ``max_intervals`` raises with the worst interval attached.
    """
    pts = [a, b] if initial_points is None else sorted(set([a, b] + list(initial_points)))
    pts = [p for p in pts if a <= p <= b]
    intervals = []
    for lo, hi in zip(pts[:-1], pts[1:]):
        val, err = _gk15(f, lo, hi)
        intervals.append([lo, hi, val, err])

    while True:
        total = sum(iv[2] for iv in intervals)
        total_err = sum(iv[3] for iv in intervals)
        # roundoff floor: no point refining below the summation noise level
        noise = 50.0 * np.finfo(float).eps * sum(abs(iv[2]) for iv in intervals)
        if total_err <= max(tol * max(1.0, abs(total)), noise):
            break
        if len(intervals) >= max_intervals:
            worst = max(intervals, key=lambda iv: iv[3])
            raise QuadratureFailureError(
                f"adaptive quadrature stalled at {len(intervals)} intervals "
                f"(err {total_err:.3g}); worst interval [{worst[0]:g}, {worst[1]:g}]",
                worst_interval=(worst[0], worst[1]),
                est_error=total_err,
            )
        errs = np.array([iv[3] for iv in intervals])
        k = int(np.argmax(errs))
        lo, hi, _, _ = intervals[k]
        mid = 0.5 * (lo + hi)
        left = [lo, mid, *_gk15(f, lo, mid)]
        right = [mid, hi, *_gk15(f, mid, hi)]
        intervals[k : k + 1] = [left, right]

    intervals.sort(key=lambda iv: iv[0])
    value = sum(iv[2] for iv in intervals)
    est_error = float(sum(iv[3] for iv in intervals))
    return value, est_error


def _line_initial_points(T: float) -> list[float]:
    pts = [0.0]
    x = 1.0
    while x < T:
        pts.extend([x, -x])
        x *= 8.0
    return pts


def adaptive_line_quadrature(
    f: Callable, T: float, tol: float = 1e-11, max_intervals: int = 8192
) -> tuple[complex, float]:
    """Integral of f(s) ds over the critical line, truncated at |Im s| <= T.

    The orientation is upward: ds = i dtau with s = 1/2 + i tau.  Returns the
    value and the summed error estimate of the adaptive scheme.
    """
    if T <= 0:
        raise ValidationError(f"truncation height must be positive, got {T}")

    def g(tau):
        return np.asarray(f(0.5 + 1j * np.asarray(tau)), dtype=complex)

    value, err = adaptive_quadrature(
        g, -T, T, tol=tol, initial_points=_line_initial_points(T), max_intervals=max_intervals
    )
    return 1j * value, err


# -- closed forms -------------------------------------------------------


def singular_line_integral(model: SpectralModel, s_star: complex) -> complex:
    """Closed form of the full-line integral of 1/(lambda(s) - lambda(w))^nu.

    ``s_star`` is the pole the caller is tracking; the residue expression
    depends on which side of the critical line it lies.  For a simple pole
    the value is 2 pi i / (a (1 - 2 s*)) right of the line and
    2 pi i / (a (2 s* - 1)) left of it; for a double pole it is
    4 pi i / (a^2 (2 s* - 1)^3) right of the line and its negative left of it.
    """
    s_star = complex(s_star)
    x = s_star.real - 0.5
    if abs(x) <= 1e-12 * (1.0 + abs(s_star)):
        raise PoleOnContourError(f"pole {s_star} lies on the critical line")
    a = model.a
    if model.nu == 1:
        if x > 0:
            return 2j * np.pi / (a * (1.0 - 2.0 * s_star))
        return 2j * np.pi / (a * (2.0 * s_star - 1.0))
    value = 4j * np.pi / (a**2 * (2.0 * s_star - 1.0) ** 3)
    return value if x > 0 else -value


def singular_line_tail(model: SpectralModel, w: complex, T: float) -> complex:
    """Analytic value of the singular integral over |Im s| > T.

    Uses the antiderivatives of 1/(tau^2 + q)^nu with q = (w - 1/2)^2 + c;
    both tails are equal because the integrand is even in tau.
    """
    q = radicand(model, w)
    rq = np.sqrt(complex(q))
    a = model.a
    gap = np.pi / 2.0 - np.arctan(T / rq)
    if model.nu == 1:
        return -(2j / a) * gap / rq
    return (2j / a**2) * (gap / (2.0 * q * rq) - T / (2.0 * q * (T**2 + q)))


def singular_line_quadrature(
    model: SpectralModel,
    w: complex,
    T: float = 1e5,
    tol: float = 1e-11,
) -> tuple[complex, float]:
    """Quadrature oracle for the singular line integral, tail included.

    Integrates the literal eigenvalue difference (not the factorized form)
    over |Im s| <= T and adds the closed-form tail beyond T.
    """
    lw = lambda_w(model, w)
    nu = model.nu

    def f(s):
        s = np.asarray(s, dtype=complex)
        lam = np.array([eigenvalue(model, sv) for sv in s.ravel()]).reshape(s.shape)
        return 1.0 / (lam - lw) ** nu

    value, err = adaptive_line_quadrature(f, T, tol=tol)
    return value + singular_line_tail(model, w, T), err


# -- pole-subtraction regularization ------------------------------------


@dataclass
class LineIntegrandSpec:
    """A numerator/denominator pair to integrate over the critical line."""

    numerator: Callable
    model: SpectralModel
    w: complex
    T: float = 40.0
    tol: float = 1e-11

    def __post_init__(self):
        if self.T <= 0:
            raise ValidationError(f"T must be positive, got {self.T}")
        if self.tol <= 0:
            raise ValidationError(f"tol must be positive, got {self.tol}")


@dataclass
class RegularizedResult:
    """Outcome of a pole-subtracted line integral.

    ``total`` is always ``principal + singular``; ``tail_bound`` bounds the
    neglected numerator tail beyond the truncation height.
    """

    principal: complex
    singular: complex
    est_error: float
    tail_bound: float

    @property
    def total(self) -> complex:
        return self.principal + self.singular


def check_line_symmetry(
    numerator: Callable, T: float, tol: float = 1e-8, n_probe: int = 64
) -> float:
    """Max asymmetry |N(1/2 + i tau) - N(1/2 - i tau)| over a probe grid.

    Raises when the asymmetry exceeds tol * max |N|.
    """
    tau = np.concatenate((
        np.linspace(0.0, min(4.0, T), n_probe // 2),
        np.geomspace(max(1e-3, min(4.0, T)), T, n_probe // 2),
    ))
    values = np.asarray(numerator(np.concatenate((0.5 + 1j * tau, 0.5 - 1j * tau))), dtype=complex)
    up, dn = values[: len(tau)], values[len(tau) :]
    scale = float(np.max(np.abs(up)))
    worst = float(np.max(np.abs(up - dn)))
    if worst > tol * max(scale, 1e-300):
        raise AsymmetricNumeratorError(
            f"numerator asymmetry {worst:.3g} exceeds {tol:g} * max|N| = {tol * scale:.3g}"
        )
    return worst


def regularized_line_integral(
    spec: LineIntegrandSpec,
    s_star: complex,
    symmetry_tol: float = 1e-8,
) -> RegularizedResult:
    """Pole-subtracted line integral with closed-form singular part.

    principal = integral of (N(s) - N(s*)) / (lambda(s) - lambda(w))^nu over
    the full line: quadrature on |Im s| <= T, then the analytic tail of the
    singular factor weighted by the constant part of the numerator beyond T
    (its edge value minus the subtracted N(s*)).  This makes the result exact
    for constant numerators and leaves decaying ones untouched; the modeling
    error is reported in ``tail_bound``.  singular = N(s*) times the
    closed-form singular integral.
    """
    model, w, T = spec.model, spec.w, spec.T
    s_star = complex(s_star)
    if abs(s_star.real - 0.5) <= 1e-12 * (1.0 + abs(s_star)):
        raise PoleOnContourError(f"pole {s_star} lies on the critical line")
    check_line_symmetry(spec.numerator, T, tol=symmetry_tol)

    n_star = complex(spec.numerator(s_star))
    nu = model.nu

    def f(s):
        s = np.asarray(s, dtype=complex)
        return (np.asarray(spec.numerator(s), dtype=complex) - n_star) / (
            denominator(model, s, w) ** nu
        )

    body, err = adaptive_line_quadrature(f, T, tol=spec.tol)
    n_up = complex(spec.numerator(0.5 + 1j * T))
    n_dn = complex(spec.numerator(0.5 - 1j * T))
    n_edge = 0.5 * (n_up + n_dn)
    principal = body + (n_edge - n_star) * singular_line_tail(model, w, T)
    singular = n_star * singular_line_integral(model, s_star)

    edge = max(abs(n_up), abs(n_dn))
    q = abs(radicand(model, w))
    if nu == 1:
        tail_scale = 2.0 * (np.pi / 2 - np.arctan(T / np.sqrt(q))) / (model.a * np.sqrt(q))
    else:
        tail_scale = 2.0 / (3.0 * model.a**2 * max(T**3 - q * T, T))
    tail_bound = float(edge * abs(tail_scale))

    return RegularizedResult(
        principal=principal, singular=singular, est_error=err, tail_bound=tail_bound
    )


def direct_line_integral(
    numerator: Callable,
    model: SpectralModel,
    w: complex,
    T: float = 40.0,
    tol: float = 1e-11,
) -> tuple[complex, float]:
    """Plain truncated quadrature of N(s) / (lambda(s) - lambda(w))^nu."""
    nu = model.nu

    def f(s):
        s = np.asarray(s, dtype=complex)
        return np.asarray(numerator(s), dtype=complex) / denominator(model, s, w) ** nu

    return adaptive_line_quadrature(f, T, tol=tol)
