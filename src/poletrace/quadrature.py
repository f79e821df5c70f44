"""Adaptive quadrature on the critical line and closed-form singular integrals.

The adaptive core is a globally adaptive Gauss-Kronrod 7/15 scheme for
complex-valued integrands of a real variable, after QUADPACK QAG with its
panels held in arrays.  Each round bisects every panel whose embedded error
estimate exceeds its even share target / n_panels of the target
max(tol * max(1, |integral|), summation noise), and the largest one in any
case; all new panels are evaluated with one call of the integrand, and both
rules of a panel come from one reduction over its own 15 products.  Every
sum over panels is a ``math.fsum``, so a result depends on the set of panels
and not on their order, and reruns are bit for bit identical.  A non-finite
integrand value makes the summed error estimate non-finite, and the round
that meets it fails, naming a panel that holds it.

Line integrals over s = 1/2 + i tau are truncated at |tau| = T and completed
with the analytic tails of the singular factor (arctan-type for simple
poles, elementary for double poles) instead of pushing T to extremes.
"""

from __future__ import annotations

import functools
import math
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
_WEIGHTS_KG = np.stack((_WEIGHTS_K, _WEIGHTS_G))           # one row per rule
#: relative summation noise below which a round does not refine
_NOISE = 50.0 * np.finfo(float).eps


def _gk15(f: Callable, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Kronrod 7/15 on the panels [lo_k, hi_k], all nodes in one call of f.

    Returns the values and error estimates of the panels.  Each panel's sums
    run over its own 15 nodes, so they do not depend on the other panels.
    """
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    x = mid[:, None] + half[:, None] * _NODES
    fx = np.asarray(f(x.ravel()), dtype=complex).reshape(x.shape)
    kg = np.add.reduce(fx[:, None, :] * _WEIGHTS_KG, axis=2)
    k = half * kg[:, 0]
    g = half * kg[:, 1]
    return k, np.abs(k - g)


@np.errstate(invalid="ignore")  # a non-finite value raises below, not as a warning
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
    summed error estimates to fall below tol * max(1, |integral|); a round
    that starts with ``max_intervals`` panels or more raises with the worst
    interval attached, and so does a non-finite integrand value.
    """
    seeds = [] if initial_points is None else initial_points
    pts = np.array(sorted({a, b, *seeds}), dtype=float)
    pts = pts[(pts >= a) & (pts <= b)]
    lo, hi = pts[:-1], pts[1:]
    val, err = _gk15(f, lo, hi)
    while True:
        total_err = math.fsum(err.tolist())
        if not math.isfinite(total_err):  # a NaN or inf estimate spoils the sum
            k = int(np.argmax(~np.isfinite(err)))
            raise QuadratureFailureError(
                f"integrand is not finite on [{lo[k]:g}, {hi[k]:g}]",
                worst_interval=(float(lo[k]), float(hi[k])),
                est_error=total_err,
            )
        total = complex(math.fsum(val.real.tolist()), math.fsum(val.imag.tolist()))
        # roundoff floor: no point refining below the summation noise level
        noise = _NOISE * math.fsum(np.abs(val).tolist())
        target = max(tol * max(1.0, abs(total)), noise)
        if total_err <= target:
            return total, total_err
        worst = int(np.argmax(err))
        if len(lo) >= max_intervals:
            raise QuadratureFailureError(
                f"adaptive quadrature stalled at {len(lo)} intervals "
                f"(err {total_err:.3g}); worst interval [{lo[worst]:g}, {hi[worst]:g}]",
                worst_interval=(float(lo[worst]), float(hi[worst])),
                est_error=total_err,
            )
        split = err > target / len(lo)
        # panels all at their share can still sum, rounded, above the target
        split[worst] = True
        mid = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate((lo[split], mid))
        new_hi = np.concatenate((mid, hi[split]))
        new_val, new_err = _gk15(f, new_lo, new_hi)
        keep = ~split
        lo = np.concatenate((lo[keep], new_lo))
        hi = np.concatenate((hi[keep], new_hi))
        val = np.concatenate((val[keep], new_val))
        err = np.concatenate((err[keep], new_err))


def _line_initial_points(T: float) -> list[float]:
    pts = [0.0]
    x = 1.0
    while x < T:
        pts.extend([x, -x])
        x *= 8.0
    return pts


def adaptive_line_quadrature(f: Callable, T: float, tol: float = 1e-11) -> tuple[complex, float]:
    """Integral of f(s) ds over the critical line, truncated at |Im s| <= T.

    The orientation is upward: ds = i dtau with s = 1/2 + i tau.  Returns the
    value and the summed error estimate of the adaptive scheme.
    """
    if T <= 0:
        raise ValidationError(f"truncation height must be positive, got {T}")

    def g(tau):
        return f(0.5 + 1j * tau)

    value, err = adaptive_quadrature(g, -T, T, tol=tol, initial_points=_line_initial_points(T))
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
    over |Im s| <= T and adds the closed-form tail beyond T.  Each integrand
    call evaluates :func:`models.eigenvalue` once, on all its nodes; the
    array evaluation equals scalar calls bit for bit.
    """
    lw = lambda_w(model, w)
    nu = model.nu

    def f(s):
        return 1.0 / (eigenvalue(model, s) - lw) ** nu

    value, err = adaptive_line_quadrature(f, T, tol=tol)
    return value + singular_line_tail(model, w, T), err


# -- line integrals of a numerator ---------------------------------------

#: relative asymmetry of the numerator on the critical line that is accepted
SYMMETRY_TOL = 1e-8


@functools.lru_cache(maxsize=16)
def _probe_heights(T: float) -> np.ndarray:
    """The 64 probe heights of :func:`check_line_symmetry` in [0, T], read-only."""
    tau = np.concatenate((
        np.linspace(0.0, min(4.0, T), 32),
        np.geomspace(max(1e-3, min(4.0, T)), T, 32),
    ))
    tau.flags.writeable = False
    return tau


def check_line_symmetry(numerator: Callable, T: float) -> float:
    """Max asymmetry |N(1/2 + i tau) - N(1/2 - i tau)| over 64 heights in [0, T].

    The numerator is called once, on all probe points; the heights are built
    once per T.  Raises when the asymmetry exceeds :data:`SYMMETRY_TOL` * max |N|.
    """
    tau = _probe_heights(T)
    values = np.asarray(numerator(np.concatenate((0.5 + 1j * tau, 0.5 - 1j * tau))), dtype=complex)
    up, dn = values[: len(tau)], values[len(tau) :]
    scale = float(np.max(np.abs(up)))
    worst = float(np.max(np.abs(up - dn)))
    if worst > SYMMETRY_TOL * max(scale, 1e-300):
        raise AsymmetricNumeratorError(
            f"numerator asymmetry {worst:.3g} exceeds {SYMMETRY_TOL:g} * max|N| "
            f"= {SYMMETRY_TOL * scale:.3g}"
        )
    return worst


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
