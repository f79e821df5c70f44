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
to the same end point is exactly that term, so ``diff`` computes no line
integral.

Known defect: the nu = 2 (GL3Cuspidal) term is wrong.  The residue at the
double pole gives 8 pi i N(s*) / (a^2 (2 s* - 1)^3) - 4 pi i N'(s*) /
(a^2 (2 s* - 1)^2), so the term above has the opposite sign of its first
part and lacks the N'(s*) part.  With a constant numerator, t_f = 1 and
the path 1.2 -> 1.2 + 2i -> 0.25 + 2i -> 0.25 + 2.5i, ``continue`` gives
0.0086601 - 0.0028696i where the analytic continuation of the closed-form
singular integral is -0.0028867 + 0.0009565i.  The fix waits on a benchmark
change, whose reference writes out the same nu = 2 formula.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidPathPairError, NumericalError, PoleOnContourError, ValidationError
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
from .quadrature import check_line_symmetry, direct_line_integral, singular_line_tail

#: minimum distance from the critical line of the poles at the path end
ENDPOINT_MARGIN = 0.05
#: default sampling step along w-paths (the ``trace`` command)
PATH_STEP = 0.01


@dataclass(frozen=True, slots=True)
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
    """The correction term at the continued pole s*; NumericalError when it is not finite."""
    value = complex(numerator(s_star))
    term = CorrectionTerm(
        s_star=s_star,
        nu=model.nu,
        coefficient=correction_coefficient(model, s_star),
        numerator_value=value,
    )
    if not cmath.isfinite(term.term_value):
        raise NumericalError(
            f"the correction term at s* = {s_star:.12g} is not finite: N(s*) = {value:.6g}"
        )
    return term


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


def _require_settings(**settings: float) -> None:
    for name, value in settings.items():
        if not (math.isfinite(value) and value > 0):
            raise ValidationError(f"{name} must be positive and finite, got {value}")


def _require_poles_off_line(trace: BranchSign, w_end: complex) -> None:
    """The poles 1/2 +- sqrt(q) at the path end, read off ``trace``, must keep clear of the line."""
    root = trace.final_sign * (trace.end_pole - 0.5)
    if abs(root.real) <= ENDPOINT_MARGIN:
        raise PoleOnContourError(
            f"poles 1/2 +- ({root:.6g}) at endpoint {w_end} lie within "
            f"{ENDPOINT_MARGIN} of the critical line"
        )


def _gaussian_tail_bound(numerator: Numerator, model: SpectralModel, w_end: complex,
                         T: float) -> float:
    """Bound on the Gaussian numerator's line integral over |Im s| > T.

    On s = 1/2 + i tau, |N(s)| = |scale| exp(-tau^2 / width^2) and
    |lambda(s) - lambda(w)| = |a| |tau^2 + q|, with q = (w - 1/2)^2 + c.  So
    both tails together are at most 2 |scale| (width sqrt(pi) / 2)
    erfc(T / width) / (|a| m)^nu, with m = min over tau >= T of |tau^2 + q|:
    the distance from -q to the ray [T^2, inf).  m > 0 because the poles are
    off the line.
    """
    q = radicand(model, w_end)
    m = abs(q.imag) if -q.real >= T * T else abs(T * T + q)
    width = numerator.width
    mass = width * math.sqrt(math.pi) * math.erfc(T / width)
    return abs(numerator.scale) * mass / (abs(model.a) * m) ** model.nu


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
    the line.  A constant numerator's integrand decays only like
    |tau|^(-2 nu), so its part beyond |Im s| = T is added in closed form
    (:func:`quadrature.singular_line_tail`).  A Gaussian numerator's part is
    bounded in closed form, and NumericalError is raised when the bound
    exceeds tol * max(1, |value|).  The Eisenstein numerator gets neither.
    A correction term that is not finite raises NumericalError too.
    """
    _require_settings(T=T, tol=tol)
    w_end = path.end
    trace = branch_sign(model, path)
    _require_poles_off_line(trace, w_end)
    check_line_symmetry(numerator, T)
    endpoint_value, err = direct_line_integral(numerator, model, w_end, T=T, tol=tol)
    if isinstance(numerator, Numerator) and numerator.kind == "constant":
        tail = numerator.value * numerator.scale * singular_line_tail(model, w_end, T)
        endpoint_value += complex(tail)
    elif isinstance(numerator, Numerator) and numerator.kind == "gaussian":
        bound = _gaussian_tail_bound(numerator, model, w_end, T)
        allowed = tol * max(1.0, abs(endpoint_value))
        if bound > allowed:
            raise NumericalError(
                f"the Gaussian numerator's integral beyond T = {T:g} may reach {bound:.3g}, "
                f"more than tol * max(1, |value|) = {allowed:.3g}; raise T"
            )
    corrections: list[CorrectionTerm] = []
    if trace.final_sign == -1:
        corrections.append(_correction_term(numerator, model, trace.end_pole))
        endpoint_value += corrections[0].term_value
    return ContinuationResult(
        endpoint_value=endpoint_value, corrections=corrections, trace=trace, est_error=err
    )


def branching_difference(
    numerator: Callable,
    model: SpectralModel,
    w_end: complex,
    path1: WPath,
    path2: WPath,
    T: float = 40.0,
) -> tuple[complex, CorrectionTerm]:
    """Difference of the continuations along an outside and an inside path.

    Both paths must end at ``w_end``.  The pair is accepted when the tracked
    branch says so: ``path1`` ends flipped (``final_sign == -1``) and
    ``path2`` ends on the branch it started on.  Either path may cross the
    critical line any number of times.  The two continuations share the
    direct line integral at their end point, which cancels from the
    difference, so none is computed: the difference is the correction term
    at ``path1``'s continued pole s*, from the branch rule.  Returns its
    value and the term itself; the numerator is evaluated once outside the
    symmetry probe, at s*, and a term that is not finite raises
    NumericalError.  The symmetry is probed on |Im s| <= T, as for
    :func:`continue_integral` (constant and Gaussian numerators are exact
    there and are not evaluated, see :func:`quadrature.check_line_symmetry`).
    """
    _require_settings(T=T)
    w_end = complex(w_end)
    for path in (path1, path2):
        if path.end != w_end:
            raise InvalidPathPairError(f"path {path.label!r} does not end at w_end = {w_end}")
    outside, inside = branch_sign(model, path1), branch_sign(model, path2)
    _require_poles_off_line(outside, w_end)
    if outside.final_sign != -1 or inside.final_sign != +1:
        raise InvalidPathPairError(
            f"path {path1.label!r} must flip the tracked branch and path {path2.label!r} "
            f"keep it; their final signs are {outside.final_sign:+d} and "
            f"{inside.final_sign:+d}"
        )

    check_line_symmetry(numerator, T)
    term = _correction_term(numerator, model, outside.end_pole)
    return term.term_value, term
