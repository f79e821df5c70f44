"""Piecewise-linear complex paths and branch-tracked square roots.

A continuation parameter travels along a :class:`WPath`; the quantity under
the square root (the radicand) then traces a curve in the plane, and the
branch of the root is fixed by continuity along that curve.  The branch cut
is the negative real axis, so branch bookkeeping reduces to counting signed
crossings of that ray.  :func:`branch_sign` counts them in closed form from
the crossings of the critical line by the path's linear segments, and
``continuation.continue_pole`` by the same rule on the chords between path
samples.  :func:`track_sqrt` counts them on a sampled radicand polyline.

For horizontal crossings of the critical line the radicand runs along a
right-facing parabola; :func:`radicand_curve` produces the samples together
with the parabola coefficients.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    BranchAmbiguityError,
    BranchPointCollisionError,
    DegenerateParametrizationError,
    InvalidPathError,
    StartInLeftHalfPlaneError,
    ValidationError,
)
from .models import GrossencharParams, SpectralModel, branch_points, radicand

#: tolerance for "the radicand hits the origin"
COLLISION_TOL = 1e-8
#: most samples :func:`sample_path` produces; a finer step is refused
MAX_PATH_SAMPLES = 1_000_000


@dataclass(frozen=True, slots=True)
class WPath:
    """Piecewise-linear path of a complex parameter.

    Interpolation between consecutive points is linear in a real parameter
    on [0, 1].  At least two points are required and consecutive points must
    be distinct.
    """

    points: tuple[complex, ...]
    label: str = ""

    def __post_init__(self):
        pts = tuple(complex(p) for p in self.points)
        object.__setattr__(self, "points", pts)
        if len(pts) < 2:
            raise InvalidPathError(f"path needs at least 2 points, got {len(pts)}")
        for a, b in zip(pts[:-1], pts[1:]):
            if a == b:
                raise InvalidPathError(f"consecutive path points coincide at {a}")

    @property
    def start(self) -> complex:
        return self.points[0]

    @property
    def end(self) -> complex:
        return self.points[-1]


@dataclass
class CurveSamples:
    """Ordered complex samples of a curve."""

    samples: np.ndarray

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=complex)
        if self.samples.ndim != 1 or len(self.samples) < 1:
            raise InvalidPathError("curve samples must be a 1-d sequence")

    def __len__(self) -> int:
        return len(self.samples)


@dataclass
class BranchTrace:
    """Continuously tracked square root along a sampled radicand curve.

    ``cut_crossings`` is the signed number of times the radicand polyline
    crosses the negative real axis (positive for crossings from the upper
    half plane to the lower).  ``final_sign`` is +1 when the tracked root
    returns to the branch it started on, -1 otherwise.
    """

    radicand_samples: CurveSamples
    sqrt_samples: CurveSamples
    cut_crossings: int
    final_sign: int


def _interval_counts(
    lengths: Sequence[float], step: float, what: str, minimum: int = 1
) -> list[int]:
    """Intervals of length at most ``step`` on each of ``lengths``, at least ``minimum``.

    The step must be positive and finite.  The counts are known before
    anything is allocated, and more than :data:`MAX_PATH_SAMPLES` in all is
    refused with a message that names ``what``.
    """
    if not (step > 0 and math.isfinite(step)):
        raise InvalidPathError(f"step must be positive and finite, got {step}")
    counts = [max(float(minimum), np.ceil(length / step - 1e-12)) for length in lengths]
    if not sum(counts) <= MAX_PATH_SAMPLES:
        raise InvalidPathError(
            f"step {step:g} along {what} of length {sum(lengths):.6g} needs more than "
            f"{MAX_PATH_SAMPLES} samples; raise the step"
        )
    return [int(n) for n in counts]


def sample_path(path: WPath, step: float) -> CurveSamples:
    """Sample a piecewise-linear path with spacing at most ``step``.

    The sample count is known from the segment lengths before anything is
    allocated; more than :data:`MAX_PATH_SAMPLES` is refused.
    """
    segments = list(zip(path.points[:-1], path.points[1:]))
    counts = _interval_counts([abs(b - a) for a, b in segments], step, "a path")
    pieces = [np.array([path.points[0]], dtype=complex)]
    for (a, b), n in zip(segments, counts):
        t = np.linspace(0.0, 1.0, n + 1)[1:]
        pieces.append(a + t * (b - a))
    return CurveSamples(np.concatenate(pieces))


def _segment_min_distance_to_origin(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distance from the origin to each segment [a_k, b_k]."""
    d = b - a
    denom = np.abs(d) ** 2
    with np.errstate(invalid="ignore", divide="ignore"):
        t = np.where(denom > 0, -np.real(a * np.conj(d)) / np.where(denom > 0, denom, 1.0), 0.0)
    t = np.clip(t, 0.0, 1.0)
    return np.abs(a + t * d)


def _signed_cut_crossings(z: np.ndarray) -> np.ndarray:
    """Signed crossing of the negative real axis by each chord of the polyline ``z``.

    +1 for a chord from the upper half plane to the lower, -1 back, 0 for
    the rest.  Samples with Im == 0 count as the upper half plane, which
    keeps a tangential touch from registering as a double crossing.
    """
    x, y = z.real, z.imag
    upper = y >= 0.0
    crossings = np.zeros(len(z) - 1, dtype=int)
    ia = np.flatnonzero(upper[:-1] != upper[1:])
    ya, yb = y[ia], y[ia + 1]
    t = ya / (ya - yb)
    xc = x[ia] + t * (x[ia + 1] - x[ia])
    crossings[ia] = np.where(xc < 0.0, np.where(upper[ia], 1, -1), 0)
    return crossings


def track_sqrt(radicand: CurveSamples) -> BranchTrace:
    """Track a continuous square root along a sampled radicand curve.

    Each sample's root is its principal root times (-1)^k, with k the number
    of chords before it that cross the branch cut.  The principal root is
    continuous off the cut and changes sign across it, so this is continuity
    along the polyline.  A sample or a chord within :data:`COLLISION_TOL` of
    the branch point 0 is refused, and so is a first sample on the cut.
    """
    z = np.asarray(radicand.samples, dtype=complex)
    if np.min(np.abs(z)) <= COLLISION_TOL:
        raise BranchPointCollisionError(
            f"radicand sample within {COLLISION_TOL:g} of the branch point"
        )
    z0 = z[0]
    if z0.imag == 0.0 and z0.real < 0.0:
        raise BranchAmbiguityError("initial radicand sample lies on the branch cut")
    if np.min(_segment_min_distance_to_origin(z[:-1], z[1:])) <= COLLISION_TOL:
        raise BranchPointCollisionError(
            f"radicand curve passes within {COLLISION_TOL:g} of the branch point"
        )

    return _branch_trace(z, _signed_cut_crossings(z))


def _branch_trace(z: np.ndarray, crossings: np.ndarray) -> BranchTrace:
    """The roots of the radicand samples ``z``, given the signed cut crossings of its chords.

    Each root is the principal one times (-1)^(crossings before its sample).
    A zero imaginary part of either sign counts as the upper half plane.
    """
    flipped = np.concatenate(([False], np.cumsum(crossings) % 2 == 1))
    roots = np.where(flipped, -1, 1) * np.sqrt(z + 0.0)  # + 0.0 turns Im -0.0 into +0.0
    total = int(np.sum(crossings))
    return BranchTrace(CurveSamples(z), CurveSamples(roots), total, +1 if total % 2 == 0 else -1)


@dataclass(frozen=True, slots=True)
class BranchSign:
    """Branch bookkeeping of a pole continued along a w-path, without samples.

    ``cut_crossings`` and ``final_sign`` mean what they mean on a
    :class:`BranchTrace`; ``end_pole`` is the continued pole at the path end.
    """

    cut_crossings: int
    final_sign: int
    end_pole: complex


def _segment_crossing(a: complex, b: complex, c: float) -> int:
    """Signed crossing of the cut by q(w) = (w - 1/2)^2 + c as w runs from a to b.

    For real c >= 0, Im q = 2 (Re w - 1/2) Im w and, on the critical line,
    q = c - (Im w)^2.  So q crosses the negative real axis exactly where the
    segment crosses Re w = 1/2 at |Im w| > sqrt(c), once at most, and one
    division finds the height.  Crossings are signed as
    :func:`_signed_cut_crossings` signs them, with Im q = 0 (a point on the
    line) in the upper half plane, so an end on the line or a segment along
    it counts where the segment leaves the lower half plane or enters it.
    The count is additive: splitting a segment at any of its points leaves
    the sum unchanged.
    """
    d = b - a
    ua, ub = a.real - 0.5, b.real - 0.5
    if (ua < 0.0 < ub) or (ub < 0.0 < ua):  # crosses the line at the height v
        v = a.imag + ua / (ua - ub) * d.imag
        if v * v > c:
            return 1 if d.real * v < 0.0 else -1
    elif ua == 0.0 and ub != 0.0:  # leaves the line at a
        if ub * a.imag < 0.0 and a.imag**2 > c:
            return 1
    elif ub == 0.0 and ua != 0.0:  # reaches the line at b
        if ua * b.imag < 0.0 and b.imag**2 > c:
            return -1
    return 0


def branch_sign(model, path: WPath) -> BranchSign:
    """Cut crossings and final branch of the pole 1/2 + sqrt(q(w)), exactly.

    The crossings are :func:`_segment_crossing` summed over the path's
    segments.  The end pole is 1/2 + final_sign * sqrt(q(w_end)), principal
    root.

    The guards, which ``continuation.continue_pole`` shares: the path must
    start right of the critical line, and |q| = |w - b+| |w - b-| must exceed
    :data:`COLLISION_TOL` at each segment's closest approach to each branch
    point b+- = 1/2 +- i sqrt(c).  Both branch points lie on the line, so
    |q| >= (Re w - 1/2)^2: a segment that stays on one side of the line, with
    both ends farther from it than sqrt(COLLISION_TOL), cannot trip the
    guard, and only a segment that comes nearer is checked.  The filter uses
    twice the tolerance, which leaves room for the guard's own rounding.
    """
    if path.start.real <= 0.5:
        raise StartInLeftHalfPlaneError(
            f"continuation must start right of the critical line, got {path.start}"
        )
    c = float(model.c)
    branch = branch_points(model)
    crossings = 0
    for a, b in zip(path.points[:-1], path.points[1:]):
        ua, ub = a.real - 0.5, b.real - 0.5
        if ua * ub <= 0.0 or min(abs(ua), abs(ub)) ** 2 <= 2.0 * COLLISION_TOL:
            d = b - a
            length = abs(d)
            for bp in branch:
                t = min(1.0, max(0.0, ((bp - a) * (d / length).conjugate()).real / length))
                w = a + t * d
                if abs(w - branch[0]) * abs(w - branch[1]) <= COLLISION_TOL:
                    raise BranchPointCollisionError(
                        f"path passes within {COLLISION_TOL:g} of the branch point {bp}"
                    )
        crossings += _segment_crossing(a, b, c)
    final_sign = +1 if crossings % 2 == 0 else -1
    end_pole = 0.5 + final_sign * cmath.sqrt(radicand(model, path.end))
    return BranchSign(crossings, final_sign, end_pole)


@dataclass(frozen=True, slots=True)
class ParabolaCoeffs:
    """Coefficients of the analytic radicand parabola x = a2*y^2 + c0."""

    a2: float
    c0: float

    def as_dict(self) -> dict:
        return {"a2": self.a2, "c0": self.c0}


def radicand_curve(
    t_norm: float,
    alpha: float,
    sigma_range: Sequence[float] = (-3.0, 3.0),
    step: float = 0.01,
) -> tuple[CurveSamples, ParabolaCoeffs]:
    """Radicand curve for a horizontal crossing at height alpha * t_norm.

    The samples are the radicand of the HilbertMaass model with
    t = (t_norm, -t_norm), whose c is t_norm^2, at w = 1/2 + sigma +
    i alpha t_norm for sigma in ``sigma_range``: the curve
    (sigma^2 + (1 - alpha^2) t^2) + (2 sigma alpha t) i, a right-facing
    parabola x = (y^2 + 4 alpha^2 (1 - alpha^2) t^4) / (4 alpha^2 t^2).  The
    spacing is at most ``step`` along the curve, with at least 8 intervals;
    the step is checked as :func:`sample_path` checks it.
    """
    if not 0 < t_norm < math.inf:
        raise DegenerateParametrizationError(f"t_norm must be positive and finite, got {t_norm}")
    if not math.isfinite(alpha):
        raise ValidationError(f"alpha must be finite, got {alpha}")
    if alpha == 0:
        raise DegenerateParametrizationError("alpha = 0 collapses the curve onto the real axis")
    lo, hi = float(sigma_range[0]), float(sigma_range[1])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise InvalidPathError(f"sigma range ({lo}, {hi}) must have finite bounds")
    if not hi > lo:
        raise InvalidPathError(f"empty sigma range ({lo}, {hi})")
    height = alpha * t_norm
    speed = 2.0 * np.hypot(max(abs(lo), abs(hi)), abs(height))
    (n,) = _interval_counts([speed * (hi - lo)], step, "the radicand curve", minimum=8)
    w = 0.5 + np.linspace(lo, hi, n + 1) + 1j * height
    model = SpectralModel.hilbert_maass(GrossencharParams((t_norm, -t_norm)))
    a2 = 1.0 / (4.0 * alpha**2 * t_norm**2)
    c0 = (1.0 - alpha**2) * t_norm**2
    return CurveSamples(radicand(model, w)), ParabolaCoeffs(a2=a2, c0=c0)
