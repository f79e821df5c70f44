import cmath
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from poletrace.errors import (
    BranchPointCollisionError,
    DegenerateParametrizationError,
    InvalidPathError,
    PoletraceError,
    StartInLeftHalfPlaneError,
    ValidationError,
)
from poletrace.models import GrossencharParams, SpectralModel, branch_points, radicand
from poletrace.paths import (
    COLLISION_TOL,
    MAX_PATH_SAMPLES,
    BranchSign,
    CurveSamples,
    WPath,
    _segment_crossing,
    branch_sign,
    radicand_curve,
    sample_path,
    track_sqrt,
)


class TestWPath:
    def test_requires_two_points(self):
        with pytest.raises(InvalidPathError):
            WPath((2 + 0j,))

    def test_rejects_repeated_points(self):
        with pytest.raises(InvalidPathError):
            WPath((1 + 0j, 1 + 0j, 2 + 0j))


class TestSamplePath:
    def test_single_segment(self):
        cs = sample_path(WPath((1 + 0j, 1 + 1j)), 0.5)
        assert np.allclose(cs.samples, [1 + 0j, 1 + 0.5j, 1 + 1j])

    def test_invalid_path(self):
        with pytest.raises(InvalidPathError):
            sample_path(WPath((0j, 1 + 0j)), -1.0)

    def test_two_legs_step_quarter(self):
        # legs of length 1 each at step 1/4: 4 + 4 intervals, 9 samples
        cs = sample_path(WPath((0j, 1 + 0j, 1 + 1j)), 0.25)
        assert len(cs) == 9
        assert np.max(np.abs(np.diff(cs.samples))) <= 0.25 + 1e-12
        assert cs.samples[0] == 0j and cs.samples[-1] == 1 + 1j

    def test_sample_count_capped_before_allocating(self):
        # step 1e-9 along a path of length 3 would need 3e9 samples, 48 GB
        path = WPath((1.2 + 0j, 1.2 + 2j, 0.2 + 2j))
        tracemalloc.start()
        try:
            with pytest.raises(InvalidPathError, match=r"step 1e-09 .* length 3 "):
                sample_path(path, 1e-9)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_sample_count_at_the_cap_is_accepted(self):
        path = WPath((0j, 1 + 0j))
        assert len(sample_path(path, 1.0 / MAX_PATH_SAMPLES)) == MAX_PATH_SAMPLES + 1
        with pytest.raises(InvalidPathError):
            sample_path(path, 0.99 / MAX_PATH_SAMPLES)


class TestTrackSqrt:
    def test_constant_radicand(self):
        cs = CurveSamples(np.full(11, 4.0 + 0j))
        trace = track_sqrt(cs)
        assert np.allclose(trace.sqrt_samples.samples, 2.0)
        assert trace.cut_crossings == 0
        assert trace.final_sign == +1

    def test_unit_circle_monodromy(self):
        theta = np.linspace(0.0, 2.0 * np.pi, 400)
        trace = track_sqrt(CurveSamples(np.exp(1j * theta)))
        assert trace.sqrt_samples.samples[0] == pytest.approx(1.0)
        assert trace.sqrt_samples.samples[-1] == pytest.approx(-1.0)
        assert abs(trace.cut_crossings) == 1
        assert trace.final_sign == -1

    def test_double_loop_restores_branch(self):
        theta = np.linspace(0.0, 4.0 * np.pi, 900)
        trace = track_sqrt(CurveSamples(np.exp(1j * theta)))
        assert abs(trace.cut_crossings) == 2
        assert trace.final_sign == +1
        assert trace.sqrt_samples.samples[-1] == pytest.approx(1.0)

    def test_parabola_crossing(self):
        # alpha = 2, |t| = 1: real part at sigma = 0 is -3, one axis crossing
        samples, _ = radicand_curve(1.0, 2.0, (-1.0, 1.0), 0.01)
        trace = track_sqrt(samples)
        assert abs(trace.cut_crossings) == 1
        assert trace.final_sign == -1

    def test_collision_raises(self):
        cs = CurveSamples(np.linspace(1.0, -1.0, 41) + 0j)
        with pytest.raises(BranchPointCollisionError):
            track_sqrt(cs)

    def test_initial_sample_on_cut_rejected(self):
        from poletrace.errors import BranchAmbiguityError

        cs = CurveSamples(np.array([-1.0 + 0j, -1.0 + 1j]))
        with pytest.raises(BranchAmbiguityError):
            track_sqrt(cs)

    def test_near_origin_chord_above_the_cut_keeps_the_branch(self):
        # coarse samples pass near 0 without crossing the cut
        cs = CurveSamples(np.array([-1 + 0.001j, 1 + 0.001j]))
        trace = track_sqrt(cs)
        assert trace.cut_crossings == 0
        assert trace.final_sign == +1
        assert np.allclose(trace.sqrt_samples.samples, np.sqrt(cs.samples))

    def test_chord_through_the_branch_point_collides(self):
        # both samples are far from 0, but the chord between them passes 1e-9 above it
        cs = CurveSamples(np.array([-1 + 1e-9j, 1 + 1e-9j]))
        assert np.min(np.abs(cs.samples)) > 0.5
        with pytest.raises(BranchPointCollisionError, match="curve passes within"):
            track_sqrt(cs)

    def test_negative_zero_on_the_cut_counts_as_upper(self):
        # -4 - 0j lies on the cut like -4 + 0j: reached from above, no crossing
        cs = CurveSamples(np.array([-4 + 1j, complex(-4.0, -0.0), -4 + 1j]))
        trace = track_sqrt(cs)
        assert trace.cut_crossings == 0
        assert trace.sqrt_samples.samples[1] == 2j

    @pytest.mark.parametrize("t_norm,alpha", [(1.0, 2.0), (0.5, -1.6), (2.0, 0.4), (1.0, -0.7)])
    def test_invariants(self, t_norm, alpha):
        span = 1.5 * abs(alpha) * t_norm + 1.0
        samples, _ = radicand_curve(t_norm, alpha, (-span, span), 0.01)
        trace = track_sqrt(samples)
        z = trace.radicand_samples.samples
        r = trace.sqrt_samples.samples
        # square of the tracked root returns the radicand
        assert np.all(np.abs(r**2 - z) <= 1e-12 * (1.0 + np.abs(z)))
        # continuity: the chosen root never jumps branches between samples
        assert np.all(np.abs(np.diff(r)) < np.abs(r[1:] + r[:-1]))
        # parity ties the final sign to the crossing count
        assert trace.final_sign == (-1) ** (trace.cut_crossings % 2)


class TestRadicandCurve:
    def test_alpha_one_parabola_through_origin(self):
        samples, coeffs = radicand_curve(1.0, 1.0, (-2.0, 2.0), 0.01)
        assert coeffs.a2 == pytest.approx(0.25)
        assert coeffs.c0 == pytest.approx(0.0)
        assert min(abs(samples.samples)) < 2e-2  # passes through the origin at sigma = 0

    def test_direct_substitution(self):
        samples, _ = radicand_curve(1.0, 2.0, (-1.0, 1.0), 0.01)
        assert samples.samples[-1] == pytest.approx(-2.0 + 4.0j)

    def test_parabola_membership(self):
        samples, coeffs = radicand_curve(1.3, -1.7, (-2.5, 2.5), 0.02)
        x, y = samples.samples.real, samples.samples.imag
        resid = np.abs(x - coeffs.a2 * y**2 - coeffs.c0)
        assert np.all(resid <= 1e-10 * (1.0 + np.abs(x)))

    def test_degenerate_alpha(self):
        with pytest.raises(DegenerateParametrizationError):
            radicand_curve(1.0, 0.0)

    @pytest.mark.parametrize("sigma_range, shown", [
        ((float("nan"), 3.0), "(nan, 3.0)"),
        ((float("-inf"), 3.0), "(-inf, 3.0)"),
        ((0.0, float("inf")), "(0.0, inf)"),
    ])
    def test_non_finite_sigma_range_refused(self, sigma_range, shown):
        message = re.escape(f"sigma range {shown} must have finite bounds")
        with pytest.raises(InvalidPathError, match=message):
            radicand_curve(1.0, 2.0, sigma_range)

    def test_samples_are_the_model_radicand(self):
        # models.radicand of t = (t_norm, -t_norm) along w = 1/2 + sigma + i alpha t_norm
        samples, _ = radicand_curve(1.3, -1.7, (-2.5, 2.5), 0.02)
        model = SpectralModel.hilbert_maass(GrossencharParams((1.3, -1.3)))
        w = 0.5 + np.linspace(-2.5, 2.5, len(samples)) + 1j * (-1.7 * 1.3)
        assert np.array_equal(samples.samples, radicand(model, w))


def _flips(t_norm, alpha):
    """branch_sign's verdict on a leftward crossing of the critical line at alpha * t_norm."""
    model = SpectralModel.hilbert_maass(GrossencharParams((t_norm, -t_norm)))
    span = 1.5 * abs(alpha) * t_norm + 1.0
    path = WPath((complex(0.5 + span, alpha * t_norm), complex(0.5 - span, alpha * t_norm)))
    return branch_sign(model, path).final_sign == -1


class TestCrossesOrigin:
    """The radicand parabola encloses the origin exactly when branch_sign flips the branch."""

    def test_inside(self):
        assert _flips(1.0, 0.5) is False

    def test_outside(self):
        assert _flips(1.0, 2.0) is True

    def test_boundary_raises(self):
        # |alpha| = 1: the path runs through the branch point 1/2 - 2i
        with pytest.raises(BranchPointCollisionError):
            _flips(2.0, -1.0)

    def test_degenerate(self):
        with pytest.raises(DegenerateParametrizationError):
            radicand_curve(1.0, 0.0)

    @pytest.mark.parametrize("t_norm, alpha, message", [
        (float("nan"), 2.0, "t_norm"), (float("inf"), 2.0, "t_norm"),
        (1.0, float("nan"), "alpha"), (1.0, float("-inf"), "alpha"),
    ])
    def test_non_finite_refused(self, t_norm, alpha, message):
        with pytest.raises(ValidationError, match=f"{message} must be"):
            radicand_curve(t_norm, alpha)

    def test_agrees_with_tracked_parity(self):
        # oracle: branch parity of the tracked root over the full sweep
        for t_norm in (0.5, 1.0, 3.0):
            for alpha in (-2.2, -1.5, -0.6, 0.3, 0.8, 1.3, 2.7):
                span = 1.5 * abs(alpha) * t_norm + 1.0
                samples, _ = radicand_curve(t_norm, alpha, (-span, span), 0.02)
                trace = track_sqrt(samples)
                assert _flips(t_norm, alpha) == (trace.cut_crossings % 2 != 0)


def _unfiltered_branch_sign(model, path):
    """branch_sign with the collision guard run on every segment: the reference for the filter."""
    if path.start.real <= 0.5:
        raise StartInLeftHalfPlaneError(
            f"continuation must start right of the critical line, got {path.start}"
        )
    c = float(model.c)
    branch = branch_points(model)
    crossings = 0
    for a, b in zip(path.points[:-1], path.points[1:]):
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


def _outcome(rule, model, path):
    try:
        return rule(model, path)
    except PoletraceError as exc:
        return type(exc), str(exc)


def _points(model):
    """Points on paths that hug the critical line or pass next to a branch point."""
    r = math.sqrt(model.c)
    heights = st.floats(-3.0, 3.0)
    distances = st.floats(-10.0, -2.0).map(lambda k: 10.0**k)
    signs = st.sampled_from([-1.0, 1.0])
    return st.one_of(
        st.builds(lambda u, sign, v: complex(0.5 + sign * u, v), distances, signs, heights),
        st.builds(lambda u, sign, theta: complex(0.5, sign * r) + u * cmath.exp(1j * theta),
                  distances, signs, st.floats(0.0, 2.0 * math.pi)),
        st.builds(complex, st.floats(-1.0, 2.0), heights),
    )


class TestCollisionGuardFilter:
    """The guard runs only near the line, and decides as the guard on every segment does."""

    @settings(max_examples=500)
    @given(
        model=st.one_of(
            st.floats(0.1, 2.0).map(lambda t: SpectralModel.hilbert_maass(GrossencharParams((t, -t)))),
            st.just(SpectralModel.gl2q()),
            st.floats(0.0, 3.0).map(SpectralModel.gl3_cuspidal),
        ),
        data=st.data(),
    )
    def test_same_result_or_error_as_the_full_guard(self, model, data):
        start = data.draw(st.builds(lambda u, v: complex(0.5 + u, v),
                                    st.floats(-10.0, 0.2).map(lambda k: 10.0**k),
                                    st.floats(-3.0, 3.0)))
        points = [start, *data.draw(st.lists(_points(model), min_size=1, max_size=4))]
        assume(all(a != b for a, b in zip(points[:-1], points[1:])))
        path = WPath(tuple(points))
        assert _outcome(branch_sign, model, path) == _outcome(_unfiltered_branch_sign, model, path)

    @pytest.mark.parametrize("u, collides", [
        (1e-10, True), (0.99e-4, True), (1e-4, True), (1.01e-4, False),
        (1.414e-4, False), (1.415e-4, False), (1e-2, False),
    ])
    def test_segment_along_the_line_on_gl2q(self, u, collides):
        # c = 0: both branch points are w = 1/2, and |q| = u^2 where the segment passes it
        model = SpectralModel.gl2q()
        path = WPath((1.2 + 0j, complex(0.5 + u, -1.0), complex(0.5 + u, 1.0)))
        outcome = _outcome(branch_sign, model, path)
        assert outcome == _outcome(_unfiltered_branch_sign, model, path)
        assert (not isinstance(outcome, BranchSign)) == collides
        if collides:
            assert outcome[0] is BranchPointCollisionError
