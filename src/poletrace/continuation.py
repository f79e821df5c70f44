"""Pathwise continuation of the spectral line integrals.

The pole s(w) = 1/2 + sqrt((w - 1/2)^2 + c) is continued along a w-path by
tracking the square root of the radicand curve.  A pole sits on the critical
line exactly when the radicand lies on the negative real axis, so every
crossing of that cut carries the tracked pole, and its partner 1 - s(w),
across the line; on the w-plane this happens where the path crosses the
critical line outside the segment between the branch points 1/2 +- i sqrt(c),
and never when it crosses inside it.  One rule decides the branch from that
statement in closed form, one division per crossing: ``continue`` and
``diff`` apply it to the path's segments (:func:`paths.branch_sign`), and
:func:`continue_pole`, for the ``trace`` command, to the chords between the
path's samples, which gives the same count at every step.  One invariant
therefore decides the value: a correction term is owed exactly when the
branch ends flipped (``trace.final_sign == -1``), whatever the path
geometry.  Paths may cross the critical line any number of times and end on
either side of it.  The correction is the moderate-growth term

    nu = 1:   4 pi i * N(s*) / (a   (1 - 2 s*))
    nu = 2:   8 pi i * N(s*) / (a^2 (1 - 2 s*)^3)

with s* the continued pole, on top of the direct line integral at the path
end; the difference of a branch-flipping and a branch-keeping continuation
to the same end point is exactly that term.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidPathPairError, PoleOnContourError, ValidationError
from .models import SpectralModel, radicand
from .numerators import Numerator
from .paths import (
    BranchSign,
    BranchTrace,
    WPath,
    _branch_trace,
    _segment_crossing,
    branch_sign,
    sample_path,
)
from .planar import planar_direct_integral, planar_regularized_integral, planar_singular_integral
from .quadrature import check_line_symmetry, direct_line_integral, singular_line_tail

#: minimum distance from the critical line of the poles at the path end
ENDPOINT_MARGIN = 0.05
#: default sampling step along w-paths (the ``trace`` command)
PATH_STEP = 0.01


@dataclass(frozen=True)
class CorrectionTerm:
    """The moderate-growth term picked up by a branch-flipping continuation."""

    s_star: complex
    nu: int
    coefficient: complex
    numerator_value: complex

    @property
    def term_value(self) -> complex:
        return self.coefficient * self.numerator_value

    def as_dict(self) -> dict:
        return {
            "s_star": [self.s_star.real, self.s_star.imag],
            "nu": self.nu,
            "coefficient": [self.coefficient.real, self.coefficient.imag],
            "numerator_value": [self.numerator_value.real, self.numerator_value.imag],
            "term_value": [self.term_value.real, self.term_value.imag],
        }


@dataclass
class ContinuationResult:
    """Endpoint value of a pathwise continuation plus its bookkeeping."""

    endpoint_value: complex
    corrections: list[CorrectionTerm]
    trace: BranchSign
    est_error: float = 0.0

    def as_dict(self) -> dict:
        return {
            "endpoint": [self.endpoint_value.real, self.endpoint_value.imag],
            "corrections": [c.as_dict() for c in self.corrections],
            "crossings": self.trace.cut_crossings,
            "final_sign": self.trace.final_sign,
            "est_error": self.est_error,
        }


def correction_coefficient(model: SpectralModel, s_star: complex) -> complex:
    """Closed-form coefficient multiplying N(s*) in the correction term."""
    s_star = complex(s_star)
    if model.nu == 1:
        return 4j * np.pi / (model.a * (1.0 - 2.0 * s_star))
    return 8j * np.pi / (model.a**2 * (1.0 - 2.0 * s_star) ** 3)


def _correction_term(numerator: Callable, model: SpectralModel, s_star: complex) -> CorrectionTerm:
    return CorrectionTerm(
        s_star=s_star,
        nu=model.nu,
        coefficient=correction_coefficient(model, s_star),
        numerator_value=complex(numerator(s_star)),
    )


def continue_pole(model: SpectralModel, path: WPath, step: float = PATH_STEP) -> BranchTrace:
    """The integrand pole s(w) at the samples of a w-path, on the continued branch.

    The trace's sqrt samples are roots of the radicand (w - 1/2)^2 + c, so
    the pole trajectory is 1/2 plus the root.  The cut crossings are counted
    by the rule of :func:`paths.branch_sign` on the chords between samples;
    only a chord that meets the critical line, and does not run along it,
    can cross.  Consecutive samples lie on one path segment and the rule is
    additive along a segment, so ``cut_crossings`` and ``final_sign`` are
    those of :func:`paths.branch_sign` at every step, and so are the guards.
    """
    branch_sign(model, path)
    w = sample_path(path, step).samples
    u = w.real - 0.5
    crossings = np.zeros(len(w) - 1, dtype=int)
    for k in np.flatnonzero((u[:-1] * u[1:] <= 0.0) & (u[:-1] != u[1:])).tolist():
        crossings[k] = _segment_crossing(complex(w[k]), complex(w[k + 1]), float(model.c))
    return _branch_trace(radicand(model, w), crossings)


def _require_settings(T: float, tol: float) -> None:
    for name, value in (("T", T), ("tol", tol)):
        if not (np.isfinite(value) and value > 0):
            raise ValidationError(f"{name} must be positive and finite, got {value}")


def _require_poles_off_line(model: SpectralModel, w_end: complex) -> None:
    """The poles 1/2 +- sqrt(q) at the path end must keep clear of the line."""
    root = np.sqrt(complex(radicand(model, w_end)))
    if abs(root.real) <= ENDPOINT_MARGIN:
        raise PoleOnContourError(
            f"poles 1/2 +- ({root:.6g}) at endpoint {w_end} lie within "
            f"{ENDPOINT_MARGIN} of the critical line"
        )


def _line_integral(
    numerator: Callable, model: SpectralModel, w_end: complex, T: float, tol: float
) -> tuple[complex, float]:
    """The direct line integral at the path end, completed beyond T where it can be.

    A constant numerator's integrand decays only like |tau|^(-2 nu), so its
    part beyond |Im s| = T is added in closed form
    (:func:`quadrature.singular_line_tail`); no tail is added for the other
    numerators.
    """
    direct, err = direct_line_integral(numerator, model, w_end, T=T, tol=tol)
    if isinstance(numerator, Numerator) and numerator.kind == "constant":
        tail = numerator.value * numerator.scale * singular_line_tail(model, w_end, T)
        direct += complex(tail)
    return direct, err


def _continued(
    numerator: Callable, model: SpectralModel, trace: BranchSign, direct: complex, err: float
) -> ContinuationResult:
    """The direct value at the path end plus the term a flipped branch owes."""
    corrections: list[CorrectionTerm] = []
    endpoint_value = direct
    if trace.final_sign == -1:
        term = _correction_term(numerator, model, trace.end_pole)
        corrections.append(term)
        endpoint_value = direct + term.term_value
    return ContinuationResult(
        endpoint_value=endpoint_value, corrections=corrections, trace=trace, est_error=err
    )


def continue_integral(
    numerator: Callable,
    model: SpectralModel,
    path: WPath,
    T: float = 40.0,
    tol: float = 1e-11,
) -> ContinuationResult:
    """Continue the spectral line integral along a w-path.

    The endpoint value is the direct quadrature at the path end plus, when
    the tracked branch ends flipped, the closed-form correction term at the
    continued pole.  The path may cross the critical line any number of
    times; the poles at its end must stay :data:`ENDPOINT_MARGIN` away from
    the line.
    """
    _require_settings(T, tol)
    w_end = path.end
    _require_poles_off_line(model, w_end)
    check_line_symmetry(numerator, T)
    trace = branch_sign(model, path)
    direct, err = _line_integral(numerator, model, w_end, T, tol)
    return _continued(numerator, model, trace, direct, err)


def branching_difference(
    numerator: Callable,
    model: SpectralModel,
    w_end: complex,
    path1: WPath,
    path2: WPath,
    T: float = 40.0,
    tol: float = 1e-11,
) -> tuple[complex, CorrectionTerm]:
    """Difference of the continuations along an outside and an inside path.

    Both paths must end at ``w_end``.  The pair is accepted when the tracked
    branch says so: ``path1`` ends flipped (``final_sign == -1``) and
    ``path2`` ends on the branch it started on.  Either path may cross the
    critical line any number of times.  The two continuations share their
    end point, so the symmetry probe and the direct integral run once.
    Returns the numerically computed difference and, independently, the
    closed-form correction term at the continued pole
    s* = 1/2 - sqrt((w_end - 1/2)^2 + c); the two agree for a correct
    continuation pipeline.
    """
    _require_settings(T, tol)
    w_end = complex(w_end)
    for path in (path1, path2):
        if path.end != w_end:
            raise InvalidPathPairError(f"path {path.label!r} does not end at w_end = {w_end}")
    _require_poles_off_line(model, w_end)
    outside, inside = branch_sign(model, path1), branch_sign(model, path2)
    if outside.final_sign != -1 or inside.final_sign != +1:
        raise InvalidPathPairError(
            f"path {path1.label!r} must flip the tracked branch and path {path2.label!r} "
            f"keep it; their final signs are {outside.final_sign:+d} and "
            f"{inside.final_sign:+d}"
        )

    check_line_symmetry(numerator, T)
    direct, err = _line_integral(numerator, model, w_end, T, tol)
    r1 = _continued(numerator, model, outside, direct, err)
    r2 = _continued(numerator, model, inside, direct, err)
    difference = r1.endpoint_value - r2.endpoint_value

    s_star = 0.5 - np.sqrt(radicand(model, w_end))
    return difference, _correction_term(numerator, model, s_star)


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
    numerator2d: Callable,
    w_left: complex,
    w_right: complex,
    T: float | None = None,
    tol: float = 1e-6,
) -> NoBranchingReport:
    """Check that the planar continuation picks up no extra term.

    Regularizes at ``w_right``, carries the formula across the imaginary
    axis to the mirrored ``w_left`` (the singular value is again pi / w^2,
    so the extra terms cancel), and compares with direct quadrature there.
    """
    w_left, w_right = complex(w_left), complex(w_right)
    if w_right.real <= 0:
        raise ValidationError(f"w_right must have positive real part, got {w_right}")
    if abs(w_left.real + w_right.real) > 1e-12 * (1 + abs(w_right)) or abs(
        w_left.imag - w_right.imag
    ) > 1e-12 * (1 + abs(w_right)):
        raise ValidationError(
            f"w_left = {w_left} is not the mirror of w_right = {w_right} across the axis"
        )

    reg_left = planar_regularized_integral(numerator2d, w_left, T=T, tol=min(tol, 1e-8))
    direct_left, err = planar_direct_integral(numerator2d, w_left, T=T, tol=min(tol, 1e-8))
    return NoBranchingReport(
        continued=reg_left.total,
        direct=direct_left,
        singular_right=planar_singular_integral(w_right),
        singular_left=planar_singular_integral(w_left),
        est_error=err + reg_left.est_error,
        tol=tol,
    )
