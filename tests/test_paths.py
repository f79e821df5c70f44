import tracemalloc

import numpy as np
import pytest

from poletrace.errors import (
    BoundaryCrossingError,
    BranchPointCollisionError,
    DegenerateParametrizationError,
    InvalidPathError,
)
from poletrace.paths import (
    MAX_PATH_SAMPLES,
    CurveSamples,
    WPath,
    crosses_origin,
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


class TestCrossesOrigin:
    def test_inside(self):
        assert crosses_origin(1.0, 0.5) is False

    def test_outside(self):
        assert crosses_origin(1.0, 2.0) is True

    def test_boundary_raises(self):
        with pytest.raises(BoundaryCrossingError):
            crosses_origin(2.0, -1.0)

    def test_degenerate(self):
        with pytest.raises(DegenerateParametrizationError):
            crosses_origin(1.0, 0.0)

    def test_agrees_with_tracked_parity(self):
        # oracle: branch parity of the tracked root over the full sweep
        for t_norm in (0.5, 1.0, 3.0):
            for alpha in (-2.2, -1.5, -0.6, 0.3, 0.8, 1.3, 2.7):
                span = 1.5 * abs(alpha) * t_norm + 1.0
                samples, _ = radicand_curve(t_norm, alpha, (-span, span), 0.02)
                trace = track_sqrt(samples)
                assert crosses_origin(t_norm, alpha) == (trace.cut_crossings % 2 != 0)

