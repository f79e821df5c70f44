"""Planar quadrature for the most-continuous spectral component.

Integrals over the plane of N(eta) / (|eta|^2 + w^2)^2 are computed in polar
coordinates: the angle by periodic trapezoid sums, refined per radius by
doubling (they converge geometrically for smooth integrands), and the radius
by the adaptive Gauss-Kronrod scheme.  The singular integral of
1 / (|eta|^2 + w^2)^2 has the closed form pi / w^2, which regularization
trades against the circle value of the numerator at radius |w|.  Carried
across the imaginary axis it picks up no extra term, since the singular value
is pi / w^2 on both sides; :func:`verify_no_branching_planar` checks this.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import PoleOnContourError, QuadratureFailureError, ValidationError
from .quadrature import adaptive_quadrature

#: radius of the planar disk integrals, in units of max(1, |w|)
DISK_RADIUS_FACTOR = 50.0
#: angular points at which every circle's trapezoid sum must have converged
MAX_ANGLE = 1 << 13


@dataclass
class RegularizedResult:
    """Outcome of a circle-subtracted planar integral.

    ``total`` is always ``principal + singular``; ``tail_bound`` bounds the
    neglected numerator tail beyond the truncation radius.
    """

    principal: complex
    singular: complex
    est_error: float
    tail_bound: float

    @property
    def total(self) -> complex:
        return self.principal + self.singular


def _off_axis(w) -> complex:
    """complex(w), refused on the imaginary axis, where the pole circle meets the plane.

    Written as ``not >``, the test also refuses a NaN or infinite w.
    """
    w = complex(w)
    if not abs(w.real) > 1e-12 * (1.0 + abs(w)):
        raise PoleOnContourError(f"w = {w} must be finite and off the imaginary axis")
    return w


def _disk_radius(w: complex) -> float:
    """Truncation radius T(w) of the planar disk integrals."""
    return DISK_RADIUS_FACTOR * max(1.0, abs(w))


def planar_singular_integral(w: complex) -> complex:
    """Closed form pi / w^2 of the planar singular integral, for finite w off the axis."""
    return np.pi / _off_axis(w) ** 2


def _angular_integrals(numerator2d: Callable, radii, tol: float) -> np.ndarray:
    """Integral over the angle of the numerator on each circle |eta| = r.

    Every radius doubles its own uniform trapezoid grid, from 32 points, until
    two successive sums agree to tol * max(1, |sum|), so a value does not
    depend on which radii share a call.  Level 2n reuses level n: its sum is
    the mean of level n's sum and the sum over the n new midpoints.  A radius
    that has not converged at :data:`MAX_ANGLE` points raises.
    """
    radii = np.asarray(radii, dtype=float)

    def trapezoid(r: np.ndarray, n: int, offset: float) -> np.ndarray:
        theta = (2.0 * np.pi / n) * (np.arange(n) + offset)
        vals = np.asarray(numerator2d(r[:, None] * np.cos(theta), r[:, None] * np.sin(theta)),
                          dtype=complex)
        return 2.0 * np.pi * vals.mean(axis=1)

    n = 32
    prev = trapezoid(radii, n, 0.0)
    out = np.empty_like(prev)
    todo = np.arange(radii.size)
    while n < MAX_ANGLE:
        cur = 0.5 * (prev + trapezoid(radii[todo], n, 0.5))
        n *= 2
        gap = np.abs(cur - prev)
        done = gap <= tol * np.maximum(1.0, np.abs(cur))
        out[todo[done]] = cur[done]
        todo, prev, gap = todo[~done], cur[~done], gap[~done]
        if not todo.size:
            return out
    raise QuadratureFailureError(
        f"angular refinement at radius {radii[todo[0]]:g} did not converge at {MAX_ANGLE} points",
        est_error=float(gap[0]),
    )


def circle_average(numerator2d: Callable, radius: float, tol: float = 1e-11) -> complex:
    """Line integral of the numerator over the circle of the given radius.

    The angular mean (this value divided by 2 pi r) is what the planar
    regularization subtracts.
    """
    if radius <= 0:
        raise ValidationError(f"radius must be positive, got {radius}")
    return radius * complex(_angular_integrals(numerator2d, [radius], tol)[0])


def planar_direct_integral(
    numerator2d: Callable, w: complex, tol: float = 1e-9
) -> tuple[complex, float]:
    """Quadrature of N(eta) / (|eta|^2 + w^2)^2 over the disk |eta| <= T(w)."""
    w = _off_axis(w)
    T = _disk_radius(w)

    def f(r):
        return r * _angular_integrals(numerator2d, r, tol) / (r**2 + w**2) ** 2

    seeds = sorted({abs(w) * f0 for f0 in (0.25, 0.5, 1.0, 2.0, 4.0)} | {1.0, T / 4})
    return adaptive_quadrature(f, 0.0, T, tol=tol, initial_points=seeds)


def planar_regularized_integral(
    numerator2d: Callable, w: complex, tol: float = 1e-9
) -> RegularizedResult:
    """Circle-subtracted planar integral with closed-form singular part.

    Subtracts the angular mean j_w of the numerator on the circle |eta| = |w|,
    integrates the difference over the disk with
    :func:`planar_direct_integral`, and adds j_w times pi / w^2.  The constant
    part of the tail beyond the disk, j_w pi / (T^2 + w^2), is completed
    analytically.
    """
    w = _off_axis(w)
    T = _disk_radius(w)
    aw = abs(w)
    j_w = circle_average(numerator2d, aw, tol=tol) / (2.0 * np.pi * aw)
    body, err = planar_direct_integral(lambda x, y: numerator2d(x, y) - j_w, w, tol=tol)
    principal = body - j_w * np.pi / (T**2 + w**2)
    edge = abs(_angular_integrals(numerator2d, [T], tol)[0]) / (2.0 * np.pi)
    tail_bound = float(edge * np.pi / abs(T**2 + w**2))
    return RegularizedResult(principal, j_w * planar_singular_integral(w), err, tail_bound)


def radial_singular_quadrature(w: complex) -> tuple[complex, float]:
    """Radial quadrature oracle 2 pi int_0^inf r dr / (r^2 + w^2)^2.

    Integrates up to R = 400 max(1, |w|) and completes with the elementary
    tail pi / (R^2 + w^2).
    """
    w = _off_axis(w)
    R = 400.0 * max(1.0, abs(w))

    def f(r):
        return 2.0 * np.pi * r / (r**2 + w**2) ** 2

    seeds = sorted({abs(w) * f0 for f0 in (0.5, 1.0, 2.0)} | {R / 8})
    value, err = adaptive_quadrature(f, 0.0, R, tol=1e-10, initial_points=seeds)
    return value + np.pi / (R**2 + w**2), err


@dataclass
class NoBranchingReport:
    """Planar continuation across the imaginary axis versus direct quadrature."""

    continued: complex
    direct: complex
    singular_right: complex
    singular_left: complex
    est_error: float
    tol: float

    @property
    def difference(self) -> complex:
        return self.continued - self.direct

    @property
    def passed(self) -> bool:
        return abs(self.difference) <= self.tol * max(1.0, abs(self.direct))


def verify_no_branching_planar(
    numerator2d: Callable, w: complex, tol: float = 1e-6
) -> NoBranchingReport:
    """Check that the planar continuation picks up no extra term.

    Regularizes at w (Re w > 0), carries the formula across the imaginary
    axis to the mirror point -conj(w) (the singular value is again pi / w^2,
    so the extra terms cancel), and compares with direct quadrature there.
    """
    singular_right = planar_singular_integral(w)
    w = complex(w)
    if not w.real > 0:
        raise ValidationError(f"w must have positive real part, got {w}")
    w_left = -w.conjugate()
    reg_left = planar_regularized_integral(numerator2d, w_left, tol=min(tol, 1e-8))
    direct_left, err = planar_direct_integral(numerator2d, w_left, tol=min(tol, 1e-8))
    return NoBranchingReport(reg_left.total, direct_left, singular_right,
                             planar_singular_integral(w_left), err + reg_left.est_error, tol)
