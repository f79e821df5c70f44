import re

import numpy as np
import pytest

from poletrace.errors import PoleOnContourError, QuadratureFailureError, ValidationError
from poletrace.planar import (
    circle_average,
    planar_direct_integral,
    planar_regularized_integral,
    planar_singular_integral,
    radial_singular_quadrature,
    verify_no_branching_planar,
)


def gaussian2d(x, y):
    return np.exp(-(x**2 + y**2))


@pytest.mark.parametrize(
    "entry",
    [
        planar_singular_integral,
        lambda w: planar_direct_integral(gaussian2d, w),
        lambda w: planar_regularized_integral(gaussian2d, w),
        radial_singular_quadrature,
        lambda w: verify_no_branching_planar(gaussian2d, w),
    ],
    ids=["singular", "direct", "regularized", "radial", "no_branching"],
)
@pytest.mark.parametrize("w", [0.5j, complex(np.nan, 1.0)], ids=["axis", "nan"])
def test_off_axis_guard(entry, w):
    # one guard in front of every planar entry point; NaN fails it as well
    with pytest.raises(PoleOnContourError, match=re.escape(str(w))):
        entry(w)


class TestPlanarSingular:
    def test_w_one(self):
        assert planar_singular_integral(1.0) == pytest.approx(np.pi)

    def test_w_two_scaling(self):
        assert planar_singular_integral(2.0) == pytest.approx(np.pi / 4.0)

    def test_complex_w(self):
        assert planar_singular_integral(1.0 + 1.0j) == pytest.approx(np.pi / (2.0j))

    def test_purely_imaginary_rejected(self):
        with pytest.raises(PoleOnContourError):
            planar_singular_integral(2.0j)

    def test_radial_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(6):
            w = complex(rng.uniform(0.1, 3.0), rng.uniform(-3.0, 3.0))
            closed = planar_singular_integral(w)
            oracle, _ = radial_singular_quadrature(w)
            assert abs(closed - oracle) <= 1e-6 * abs(closed)


class TestCircleAverage:
    def test_constant_gives_circumference(self):
        value = circle_average(lambda x, y: np.ones_like(x), 2.5)
        assert value == pytest.approx(2.0 * np.pi * 2.5)

    def test_gaussian_on_unit_circle(self):
        value = circle_average(gaussian2d, 1.0)
        assert value == pytest.approx(2.0 * np.pi * np.exp(-1.0), rel=1e-10)

    def test_odd_angular_factor_integrates_to_zero(self):
        f = lambda x, y: np.exp(-(x**2 + y**2)) * x / np.hypot(x, y)
        assert abs(circle_average(f, 1.3)) < 1e-12


class TestPlanarRegularized:
    def test_total_matches_direct_gaussian(self):
        w = 1.0 + 0.4j
        reg = planar_regularized_integral(gaussian2d, w)
        direct, _ = planar_direct_integral(gaussian2d, w)
        assert abs(reg.total - direct) <= 1e-8 * max(1.0, abs(direct))
        assert reg.total == reg.principal + reg.singular

    def test_total_matches_direct_nonradial(self):
        f = lambda x, y: np.exp(-(x**2 + y**2)) * (1.0 + 0.5 * x * y)
        w = 0.7 - 0.3j
        reg = planar_regularized_integral(f, w)
        direct, _ = planar_direct_integral(f, w)
        assert abs(reg.total - direct) <= 1e-8 * max(1.0, abs(direct))

    def test_zero_numerator(self):
        f = lambda x, y: np.zeros_like(x)
        reg = planar_regularized_integral(f, 1.0 + 0.2j)
        assert reg.total == 0.0

    def test_direct_gaussian_known_value(self):
        # radially symmetric: 2 pi int r e^{-r^2} / (r^2+w^2)^2 dr, checked
        # against a high-resolution 1-d oracle
        from poletrace.quadrature import adaptive_quadrature

        w = 1.2 + 0.5j
        direct, _ = planar_direct_integral(gaussian2d, w)
        oracle, _ = adaptive_quadrature(
            lambda r: 2.0 * np.pi * np.asarray(r) * np.exp(-np.asarray(r) ** 2)
            / (np.asarray(r) ** 2 + w**2) ** 2,
            0.0, 60.0, tol=1e-12, initial_points=[0.5, 1.0, 2.0, 5.0],
        )
        assert direct == pytest.approx(oracle, rel=1e-8)

    def test_angular_levels_are_reused(self):
        # every radius converges at 64 angles: 32 + 32 evaluations instead of
        # 32 + 64 when each doubling level is evaluated from scratch
        sizes = []

        def counted(x, y):
            sizes.append(np.size(x))
            return gaussian2d(x, y)

        planar_direct_integral(counted, 1.0 + 0.4j)
        assert sum(sizes) <= 11520

    def test_unconverged_angular_sum_raises(self):
        # the cusp at x = 0 keeps the trapezoid sums from converging on every
        # circle; an unconverged angular mean must not reach the radial driver
        f = lambda x, y: np.sqrt(np.abs(x)) * np.exp(-(x**2 + y**2))
        with pytest.raises(QuadratureFailureError):
            planar_direct_integral(f, 1.0 + 0.5j)

    def test_imaginary_axis_rejected(self):
        with pytest.raises(PoleOnContourError):
            planar_regularized_integral(gaussian2d, 0.5j)


class TestPlanarNoBranching:
    def test_gaussian(self):
        report = verify_no_branching_planar(lambda x, y: np.exp(-(x**2 + y**2)), 1.0 + 0.5j)
        assert report.passed
        # the singular value is the same formula pi/w^2 on both sides; for a
        # mirrored pair the two evaluations are complex conjugates
        assert report.singular_left == pytest.approx(np.conj(report.singular_right))

    def test_zero_numerator(self):
        report = verify_no_branching_planar(lambda x, y: np.zeros_like(x), 0.7 + 0.2j, tol=1e-12)
        assert report.difference == 0.0

    def test_weighted_gaussian(self):
        f = lambda x, y: (x**2 + y**2) * np.exp(-(x**2 + y**2))
        report = verify_no_branching_planar(f, 0.8 + 0.3j, tol=1e-6)
        assert report.passed

    def test_left_half_plane_rejected(self):
        # the check computes the mirror point itself, so it takes Re w > 0
        with pytest.raises(ValidationError, match="positive real part"):
            verify_no_branching_planar(gaussian2d, -1.0 + 0.5j)
