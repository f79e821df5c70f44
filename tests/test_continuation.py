import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import poletrace.continuation as continuation
from poletrace.continuation import (
    PATH_STEP,
    branching_difference,
    continue_integral,
    continue_pole,
    correction_coefficient,
    verify_no_branching_planar,
)
from poletrace.eisenstein import UpperHalfPoint
from poletrace.errors import (
    BranchPointCollisionError,
    InvalidPathPairError,
    PoleOnContourError,
    StartInLeftHalfPlaneError,
)
from poletrace.models import GrossencharParams, SpectralModel, denominator, poles, radicand
from poletrace.numerators import Numerator
from poletrace.paths import CurveSamples, WPath, branch_sign, sample_path, track_sqrt
from poletrace.quadrature import (
    adaptive_line_quadrature,
    adaptive_quadrature,
    singular_line_integral,
)


def hilbert(t_norm: float) -> SpectralModel:
    return SpectralModel.hilbert_maass(GrossencharParams((t_norm, -t_norm)))


def crossing_path(height: float, w_end: complex, start: complex = 1.2 + 0j) -> WPath:
    points = [start, complex(start.real, height), complex(w_end.real, height), w_end]
    deduped = [points[0]] + [b for a, b in zip(points, points[1:]) if b != a]
    return WPath(tuple(deduped))


def _pole_end(trace):
    """Continued pole at the end of a sampled trace: 1/2 + tracked root."""
    return 0.5 + complex(trace.sqrt_samples.samples[-1])


class TestContinuePole:
    def test_outside_crossing_flips(self):
        model = hilbert(1.0)
        trace = continue_pole(model, crossing_path(2.0, 0.25 + 2.5j))
        assert trace.final_sign == -1
        assert abs(trace.cut_crossings) == 1

    def test_inside_crossing_keeps_branch(self):
        model = hilbert(1.0)
        trace = continue_pole(model, crossing_path(0.5, 0.25 + 2.5j))
        assert trace.final_sign == +1
        assert trace.cut_crossings == 0

    def test_no_crossing_stays_reference(self):
        model = hilbert(1.0)
        path = WPath((1.5 + 0j, 1.5 + 1j, 0.8 + 1j))
        trace = continue_pole(model, path)
        assert trace.final_sign == +1
        assert _pole_end(trace) == pytest.approx(poles(model, 0.8 + 1j).s_plus)

    def test_endpoint_matches_signed_principal_root(self):
        model = hilbert(1.0)
        w_end = 0.25 + 2.5j
        flip = continue_pole(model, crossing_path(2.0, w_end))
        keep = continue_pole(model, crossing_path(0.5, w_end))
        root = np.sqrt(radicand(model, w_end))
        assert _pole_end(flip) == pytest.approx(0.5 - root, rel=1e-12)
        assert _pole_end(keep) == pytest.approx(0.5 + root, rel=1e-12)

    def test_left_start_rejected(self):
        with pytest.raises(StartInLeftHalfPlaneError):
            continue_pole(hilbert(1.0), WPath((0.3 + 0j, 0.2 + 1j)))


# -- the closed-form branch rule against the sampled tracker ---------------


def _tracked(model, path):
    """The root tracked along the radicand polyline of the path's samples.

    track_sqrt counts crossings of the cut in the radicand's own plane and
    shares no code with the closed-form rule on w-segments.
    """
    return track_sqrt(CurveSamples(radicand(model, sample_path(path, PATH_STEP).samples)))


def _agree(model, path):
    """branch_sign and the tracked root give the same crossings, sign and end pole."""
    exact, sampled = branch_sign(model, path), _tracked(model, path)
    assert exact.cut_crossings == sampled.cut_crossings
    assert exact.final_sign == sampled.final_sign
    assert abs(exact.end_pole - _pole_end(sampled)) <= 1e-12 * max(1.0, abs(exact.end_pole))
    return exact


def _both_raise(error, model, path):
    with pytest.raises(error):
        branch_sign(model, path)
    with pytest.raises(error):
        continue_pole(model, path)


def _w(x_range, y_range=(-3.0, 3.0)):
    return st.builds(complex, st.floats(*x_range), st.floats(*y_range))


class TestBranchSign:
    @settings(max_examples=200)
    @given(model=st.one_of(st.floats(0.3, 1.5).map(hilbert),
                           st.floats(0.0, 2.0).map(SpectralModel.gl3_cuspidal)),
           start=_w((0.55, 2.5)), rest=st.lists(_w((-1.5, 2.5)), min_size=1, max_size=6))
    def test_agrees_with_the_sampled_tracker(self, model, start, rest):
        points = (start, *rest)
        assume(all(a != b for a, b in zip(points, points[1:])))
        assume(abs(points[-1].real - 0.5) > 1e-3)  # an end pole off the cut has one value
        path = WPath(points)
        try:
            _tracked(model, path)
        except BranchPointCollisionError:
            _both_raise(BranchPointCollisionError, model, path)
            return
        try:
            branch_sign(model, path)
        except BranchPointCollisionError:
            return  # the samples step over a branch point that the path runs through
        _agree(model, path)

    @pytest.mark.parametrize("points, crossings", [
        ((1.2, 1.2 + 2j, 0.5 + 2j, 0.2 + 2.5j), 1),         # through a vertex above sqrt(c)
        ((1.2, 1.2 + 2j, 0.5 + 2j, 1.0 + 2.5j), 0),         # touches the line above it
        ((1.2, 1.2 + 2.5j, 0.2 + 2.5j, 0.5 + 2j, 1.2 + 2j), 0),  # back right via the vertex
        ((1.2, 1.2 + 0.5j, 0.5 + 0.5j, 0.2 + 2.5j), 0),     # through a vertex below sqrt(c)
        ((1.2, 1.2 + 2j, 0.5 + 2j, 0.5 + 3j, 0.2 + 3j), 1),  # along the line, leaves left
        ((1.2, 1.2 + 2j, 0.5 + 2j, 0.5 + 3j, 1.0 + 3j), 0),  # along the line, back right
        ((1.2, 1.2 - 2j, 0.2 - 2j), -1),                     # crosses at Im w < 0
        ((1.2, 1.2 - 2j, 0.2 - 2j, 0.2 + 2j, 1.2 + 2j), -2),  # around both branch points
        ((1.2, 1.2 + 1.001j, 0.2 + 1.001j), 1),              # 1e-3 above the branch point
    ])
    def test_vertices_and_segments_on_the_line(self, points, crossings):
        model = hilbert(1.0)
        exact = _agree(model, WPath(points))
        assert exact.cut_crossings == crossings
        assert exact.final_sign == (-1) ** crossings

    def test_gl2q_follows_the_pole_w(self):
        # c = 0: the poles are w and 1 - w, and the tracked one is w itself
        model = SpectralModel.gl2q()
        for points, crossings in (((1.2, 1.2 + 1j, 0.2 + 1j), 1),
                                  ((1.2, 1.2 - 1j, 0.2 - 1j, 0.2 + 1j, 1.2 + 1j), -2)):
            exact = _agree(model, WPath(points))
            assert exact.cut_crossings == crossings
            assert exact.end_pole == pytest.approx(points[-1], abs=1e-15)

    def test_gl2q_crossing_next_to_the_branch_point(self):
        # the straight path crosses the line 4.4e-4 above w = 1/2, where
        # q = (w - 1/2)^2 turns by almost 2 pi within one 0.01 sampling step
        model = SpectralModel.gl2q()
        start = 0.6389267989540318 + 0.1873838054085608j
        end = -0.5574136159573104 - 1.4224353607243545j
        straight = WPath((start, end))
        detour = WPath((start, complex(start.real, 2.0), complex(end.real, 2.0), end))
        assert branch_sign(model, straight).final_sign == -1
        a, b = _value(model, straight), _value(model, detour)
        assert len(a.corrections) == 1
        assert a.endpoint_value == pytest.approx(b.endpoint_value, rel=1e-14)

    def test_path_through_a_branch_point_collides(self):
        _both_raise(BranchPointCollisionError, hilbert(1.0), WPath((1.2 + 1j, 0.2 + 1j)))
        # the segment passes the branch point between its vertices
        _both_raise(BranchPointCollisionError, hilbert(1.0), WPath((1.2 + 0.3j, -0.2 + 1.7j)))

    def test_left_start_rejected(self):
        for start in (0.3 + 0j, 0.5 + 1j):
            _both_raise(StartInLeftHalfPlaneError, hilbert(1.0), WPath((start, 1.2 + 1j)))


class TestContinuePoleFollowsBranchSign:
    """The sampled trace carries branch_sign's branch at every step."""

    @settings(max_examples=150, deadline=None)
    @given(model=st.one_of(st.floats(0.3, 1.5).map(hilbert),
                           st.floats(0.0, 2.0).map(SpectralModel.gl3_cuspidal),
                           st.just(SpectralModel.gl2q())),
           step=st.sampled_from((0.5, 0.1, 0.01)), data=st.data())
    def test_crossings_sign_and_poles(self, model, step, data):
        points = [data.draw(_w((0.55, 2.5))),
                  *data.draw(st.lists(_w((-1.5, 2.5)), min_size=1, max_size=4))]
        if data.draw(st.booleans()):
            # a segment across the line within 1e-3 of a branch point
            side = data.draw(st.sampled_from((1.0, -1.0)))
            mid = complex(0.5, side * math.sqrt(model.c) + data.draw(st.floats(-1e-3, 1e-3)))
            half = data.draw(_w((0.05, 1.0), (-1.0, 1.0)))
            at = data.draw(st.integers(1, len(points)))
            points[at:at] = [mid + half, mid - half]
        assume(all(a != b for a, b in zip(points, points[1:])))
        path = WPath(tuple(points))
        try:
            exact = branch_sign(model, path)
        except BranchPointCollisionError:
            with pytest.raises(BranchPointCollisionError):
                continue_pole(model, path, step)
            return
        trace = continue_pole(model, path, step)
        assert (trace.cut_crossings, trace.final_sign) == (exact.cut_crossings, exact.final_sign)
        q, root = trace.radicand_samples.samples, trace.sqrt_samples.samples
        s = 0.5 + root
        assert np.all(np.abs((s - 0.5) ** 2 - q) <= 1e-12 * (1.0 + np.abs(q)))
        assert abs(s[-1] - exact.end_pole) <= 1e-12


def four_step_endpoint(numerator, model, w_end, T=40.0, tol=1e-12):
    """Independent re-implementation of the regularize/cross/unregularize steps.

    Regularize right of the line, carry the formula across (the continued
    pole is 1/2 - sqrt(q) and the singular closed form continues as a
    rational function of it), then undo the regularization with the pole
    subtraction evaluated at the continued pole.
    """
    from poletrace.quadrature import singular_line_tail

    s_cont = 0.5 - np.sqrt(radicand(model, w_end))
    n_star = complex(numerator(s_cont))

    def subtracted(s):
        s = np.asarray(s, dtype=complex)
        return (np.asarray(numerator(s), dtype=complex) - n_star) / denominator(model, s, w_end)

    body, _ = adaptive_line_quadrature(subtracted, T, tol=tol)
    principal = body - n_star * singular_line_tail(model, w_end, T)
    continued_singular = 2j * np.pi / (model.a * (1.0 - 2.0 * s_cont))
    return principal + n_star * continued_singular


def deformed_contour_integral(numerator, model, w_end, T):
    """Independent truth for a continuation that ends on the flipped branch.

    The contour is the critical line dragged by the poles: the continued pole
    1/2 - sqrt(q), now left of the line, is kept to the contour's right and
    its partner 1/2 + sqrt(q) to its left, by rectangular detours.  Plain
    quadrature along the pieces; no residue calculus or closed forms.
    """
    root = np.sqrt(radicand(model, w_end))
    continued, partner = 0.5 - root, 0.5 + root
    half = min(0.6, 0.4 * abs(continued.imag - partner.imag))
    detours = sorted(
        [(continued, continued.real - 0.8), (partner, partner.real + 0.8)],
        key=lambda detour: detour[0].imag,
    )
    contour = [0.5 - 1j * T]
    for pole, reach in detours:
        lo, hi = pole.imag - half, pole.imag + half
        contour += [0.5 + 1j * lo, reach + 1j * lo, reach + 1j * hi, 0.5 + 1j * hi]
    contour.append(0.5 + 1j * T)

    total = 0.0 + 0.0j
    for z0, z1 in zip(contour[:-1], contour[1:]):
        dz = z1 - z0
        seg, _ = adaptive_quadrature(
            lambda t, z0=z0, dz=dz: np.asarray(numerator(z0 + np.asarray(t) * dz))
            / denominator(model, z0 + np.asarray(t) * dz, w_end) ** model.nu * dz,
            0.0, 1.0, tol=1e-13,
        )
        total += seg
    return total


class TestContinueIntegral:
    def test_gl2q_correction_formula(self):
        # trivial character: the continued pole is w itself and the endpoint
        # carries N(w') 4 pi i / (1 - 2 w')
        model = SpectralModel.gl2q()
        numerator = Numerator.synthetic_gaussian()
        w_end = 0.2 + 1.1j
        result = continue_integral(numerator, model, crossing_path(0.8, w_end), T=40.0)
        assert len(result.corrections) == 1
        term = result.corrections[0]
        assert term.s_star == pytest.approx(w_end, rel=1e-12)
        expected = complex(numerator(w_end)) * 4j * np.pi / (1.0 - 2.0 * w_end)
        assert term.term_value == pytest.approx(expected, rel=1e-10)

    def test_inside_crossing_adds_nothing(self):
        model = hilbert(1.0)
        numerator = Numerator.synthetic_gaussian()
        result = continue_integral(numerator, model, crossing_path(0.5, 0.25 + 2.5j), T=40.0)
        assert result.corrections == []

    def test_four_step_oracle_at_wprime(self):
        model = hilbert(1.0)
        numerator = Numerator.synthetic_gaussian()
        w_prime = 0.2 + 2.0j
        result = continue_integral(numerator, model, crossing_path(2.0, w_prime), T=40.0)
        oracle = four_step_endpoint(numerator, model, w_prime)
        assert result.endpoint_value == pytest.approx(oracle, rel=1e-9)

    def test_four_step_oracle_after_descent(self):
        # continue through w' = 0.2 + 2i and back down to w'' = 0.2
        model = hilbert(1.0)
        numerator = Numerator.synthetic_gaussian()
        w_second = 0.2 + 0j
        path = WPath((1.2 + 0j, 1.2 + 2j, 0.2 + 2j, w_second))
        result = continue_integral(numerator, model, path, T=40.0)
        oracle = four_step_endpoint(numerator, model, w_second)
        assert result.endpoint_value == pytest.approx(oracle, rel=1e-9)

    @pytest.mark.parametrize(
        "path",
        [
            crossing_path(2.0, 0.25 + 2.5j),
            # crosses above the branch point, comes back between the branch
            # points and ends right of the line with the branch still flipped
            WPath((1.2 + 0j, 1.2 + 2j, 0.2 + 2j, 0.2 + 0.5j, 1.2 + 0.5j)),
        ],
        ids=["single-crossing", "multi-crossing"],
    )
    def test_deformed_contour_oracle(self, path):
        model = hilbert(1.0)
        numerator = Numerator.synthetic_gaussian()
        result = continue_integral(numerator, model, path, T=60.0)
        assert len(result.corrections) == 1
        oracle = deformed_contour_integral(numerator, model, path.end, 60.0)
        assert result.endpoint_value == pytest.approx(oracle, rel=1e-9)

    @pytest.mark.parametrize("T", [1.0, 5.0, 40.0])
    @pytest.mark.parametrize(
        "model", [hilbert(1.0), SpectralModel.gl3_cuspidal(2.0)], ids=["nu=1", "nu=2"]
    )
    def test_constant_numerator_gets_its_tail(self, model, T):
        # the constant's integrand decays like |tau|^(-2 nu): without the
        # part beyond T the endpoint was 0.050 off at T = 40 (nu = 1)
        numerator = Numerator.constant(1.5 - 0.5j, scale=0.7 + 0.2j)
        path = WPath((1.3 + 0j, 1.2 + 0.3j))
        result = continue_integral(numerator, model, path, T=T)
        assert result.corrections == []
        s_star = 0.5 + np.sqrt(complex(radicand(model, path.end)))
        full_line = numerator.value * numerator.scale * singular_line_integral(model, s_star)
        assert abs(result.endpoint_value - full_line) <= 1e-12 * max(1.0, abs(full_line))

    def test_endpoint_margin_enforced(self):
        model = hilbert(1.0)
        path = WPath((1.2 + 0j, 0.52 + 2j))
        with pytest.raises(PoleOnContourError):
            continue_integral(Numerator.synthetic_gaussian(), model, path)


class TestBranchingDifference:
    def test_hilbert_example(self):
        model = hilbert(1.0)
        numerator = Numerator.synthetic_gaussian()
        w_end = 0.25 + 2.5j
        path1 = crossing_path(2.0, w_end)
        path2 = crossing_path(0.3, w_end)
        diff, term = branching_difference(numerator, model, w_end, path1, path2, T=40.0)
        s_star = 0.5 - np.sqrt((w_end - 0.5) ** 2 + 1.0)
        expected = complex(numerator(s_star)) * 4j * np.pi / (1.0 - 2.0 * s_star)
        assert diff == pytest.approx(expected, rel=1e-6)
        assert term.term_value == pytest.approx(expected, rel=1e-12)

    def test_gl3_a_explicit_form(self):
        model = SpectralModel.gl3_cuspidal(0.0)
        numerator = Numerator.synthetic_gaussian()
        root_c = np.sqrt(model.c)
        w_end = complex(0.25, 1.2 * root_c)
        path1 = crossing_path(1.5 * root_c, w_end)
        path2 = crossing_path(0.5 * root_c, w_end)
        diff, term = branching_difference(numerator, model, w_end, path1, path2, T=40.0)
        s_star = 0.5 - np.sqrt(radicand(model, w_end))
        expected = complex(numerator(s_star)) * 8j * np.pi / (36.0 * (1.0 - 2.0 * s_star) ** 3)
        assert diff == pytest.approx(expected, rel=1e-6)

    def test_both_inside_pair_rejected_but_values_agree(self):
        model = hilbert(1.0)
        numerator = Numerator.synthetic_gaussian()
        w_end = 0.25 + 2.5j
        inside_a = crossing_path(0.3, w_end)
        inside_b = crossing_path(0.7, w_end)
        with pytest.raises(InvalidPathPairError):
            branching_difference(numerator, model, w_end, inside_a, inside_b)
        ra = continue_integral(numerator, model, inside_a, T=40.0)
        rb = continue_integral(numerator, model, inside_b, T=40.0)
        assert ra.endpoint_value == pytest.approx(rb.endpoint_value, rel=1e-8)

    def test_trivial_character_rejected(self):
        with pytest.raises(InvalidPathPairError):
            branching_difference(
                Numerator.synthetic_gaussian(), SpectralModel.gl2q(), 0.2 + 1j,
                crossing_path(2.0, 0.2 + 1j), crossing_path(0.5, 0.2 + 1j),
            )

    def test_wrong_endpoint_rejected(self):
        model = hilbert(1.0)
        with pytest.raises(InvalidPathPairError):
            branching_difference(
                Numerator.synthetic_gaussian(), model, 0.25 + 2.5j,
                crossing_path(2.0, 0.25 + 2.5j), crossing_path(0.5, 0.3 + 2.5j),
            )


    def test_pair_ending_right_of_the_line(self):
        # the outside path flips the branch and then crosses back between the
        # branch points; the traces, not the geometry, accept the pair
        model = hilbert(1.0)
        numerator = Numerator.synthetic_gaussian()
        w_end = 1.2 + 0.5j
        outside = WPath((1.2 + 0j, 1.2 + 2j, 0.2 + 2j, 0.2 + 0.5j, w_end))
        inside = WPath((1.2 + 0j, w_end))
        diff, term = branching_difference(numerator, model, w_end, outside, inside, T=40.0)
        assert term.s_star == pytest.approx(0.5 - np.sqrt(radicand(model, w_end)), rel=1e-14)
        assert diff == pytest.approx(term.term_value, rel=1e-9)

    def test_one_probe_and_one_direct_integral(self, monkeypatch):
        calls = {"direct_line_integral": 0, "check_line_symmetry": 0}

        def counted(name):
            original = getattr(continuation, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(continuation, name, counted(name))
        w_end = 0.25 + 2.5j
        branching_difference(
            Numerator.synthetic_gaussian(), hilbert(1.0), w_end,
            crossing_path(2.0, w_end), crossing_path(0.3, w_end), T=40.0,
        )
        assert calls == {"direct_line_integral": 1, "check_line_symmetry": 1}


# -- the branch invariant as properties ------------------------------------
#
# A model is drawn with its branch-point height r = sqrt(c); heights are drawn
# as multiples of r, clear of it, so no path runs into a branch point.

models = st.one_of(
    st.floats(0.6, 1.5).map(hilbert),
    st.floats(0.0, 2.0).map(SpectralModel.gl3_cuspidal),
)
outside = st.floats(1.2, 2.5)
inside = st.floats(0.2, 0.8)
left_x = st.floats(0.1, 0.35)
right_x = st.floats(0.75, 1.1)


def _value(model, path):
    return continue_integral(Numerator.synthetic_gaussian(), model, path, T=40.0)


class TestBranchInvariantProperties:
    @given(model=models, heights=st.tuples(outside, outside) | st.tuples(inside, inside),
           excursion=outside, x_end=left_x, y_end=st.floats(0.3, 2.5))
    def test_homotopic_paths_agree(self, model, heights, excursion, x_end, y_end):
        # both paths cross above the branch point, or both between the branch
        # points; the second first makes an out-and-back trip across the line
        # above the branch point, which does not change its homotopy class
        r = np.sqrt(model.c)
        crossing = heights[0] > 1.0
        h1, h2 = heights[0] * r, heights[1] * r
        w_end = complex(x_end, y_end * r)
        top = excursion * r
        loop = [1.2 + 0j, 1.2 + 1j * top, 0.2 + 1j * top, 0.2 + 1j * (top + 0.4),
                1.2 + 1j * (top + 0.4)]
        plain = _value(model, crossing_path(h1, w_end))
        winding = _value(model, WPath(tuple(loop) + crossing_path(h2, w_end, 1.2 + 0j).points[1:]))
        assert len(winding.corrections) == len(plain.corrections) == int(crossing)
        assert winding.endpoint_value == pytest.approx(plain.endpoint_value, rel=1e-8)

    @given(model=models, sign=st.sampled_from([1, -1]), f_out=outside, f_in=inside,
           x_left=left_x, x_end=right_x)
    def test_loop_around_one_branch_point_adds_the_correction(self, model, sign, f_out,
                                                              f_in, x_left, x_end):
        # out across the line beyond the branch point 1/2 + sign i r, back
        # between the branch points: the path ends right of the line on the
        # flipped branch
        r = np.sqrt(model.c)
        h_out, h_in = sign * f_out * r, sign * f_in * r
        w_end = complex(x_end, h_in)
        loop = WPath((1.2 + 0j, 1.2 + 1j * h_out, x_left + 1j * h_out, x_left + 1j * h_in,
                      w_end))
        numerator = Numerator.synthetic_gaussian()
        looped = _value(model, loop)
        straight = _value(model, WPath((1.2 + 0j, w_end)))
        assert looped.trace.final_sign == -1 and straight.corrections == []
        s_star = 0.5 - np.sqrt(radicand(model, w_end))
        term = complex(numerator(s_star)) * correction_coefficient(model, s_star)
        assert looped.corrections[0].s_star == pytest.approx(s_star, rel=1e-12)
        assert looped.endpoint_value - straight.endpoint_value == pytest.approx(term, rel=1e-10)

    @given(model=models, f_top=outside, f_bottom=outside, x_left=left_x, x_end=right_x)
    def test_loop_around_both_branch_points_adds_none(self, model, f_top, f_bottom,
                                                      x_left, x_end):
        # the radicand winds twice around the origin: two cut crossings, the
        # branch comes back, and the value is the direct one
        r = np.sqrt(model.c)
        w_end = complex(x_end, -f_bottom * r)
        loop = WPath((1.2 + 0j, 1.2 + 1j * f_top * r, x_left + 1j * f_top * r,
                      x_left + 1j * w_end.imag, w_end))
        looped = _value(model, loop)
        straight = _value(model, WPath((1.2 + 0j, w_end)))
        assert abs(looped.trace.cut_crossings) == 2
        assert looped.corrections == []
        assert looped.endpoint_value == pytest.approx(straight.endpoint_value, rel=1e-12)


class TestContinuationProperties:
    def test_path_independence_within_branch_class(self):
        model = hilbert(1.2)
        numerator = Numerator.synthetic_gaussian()
        w_end = 0.25 + 2.2j
        outside_a = continue_integral(numerator, model, crossing_path(1.6, w_end), T=40.0)
        outside_b = continue_integral(numerator, model, crossing_path(2.4, w_end), T=40.0)
        assert outside_a.endpoint_value == pytest.approx(outside_b.endpoint_value, rel=1e-8)

    def test_crossing_height_criterion(self):
        model = hilbert(1.5)
        numerator = Numerator.synthetic_gaussian()
        root_c = np.sqrt(model.c)
        w_end = complex(0.25, 1.8 * root_c)
        for factor in (0.80, 0.90, 0.98, 1.02, 1.10, 1.20):
            result = continue_integral(
                numerator, model, crossing_path(factor * root_c, w_end), T=30.0, tol=1e-9
            )
            assert bool(result.corrections) == (factor > 1.0)

    def test_gl2q_always_picks_up_correction(self):
        model = SpectralModel.gl2q()
        numerator = Numerator.synthetic_gaussian()
        for height in (0.2, 0.9, 1.7):
            w_end = complex(0.2, height + 0.3)
            result = continue_integral(
                numerator, model, crossing_path(height, w_end), T=30.0, tol=1e-9
            )
            assert len(result.corrections) == 1

    def test_coefficient_vs_singular_closed_forms(self):
        # the simple-pole coefficient is the jump of the singular value
        # across the crossing: continued form minus fresh evaluation
        from poletrace.quadrature import singular_line_integral

        model = hilbert(1.0)
        w_end = 0.25 + 2.5j
        s_star = 0.5 - np.sqrt(radicand(model, w_end))
        continued_form = 2j * np.pi / (model.a * (1.0 - 2.0 * s_star))
        fresh = singular_line_integral(model, s_star)
        assert correction_coefficient(model, s_star) == pytest.approx(
            continued_form - fresh, rel=1e-10
        )

    def test_coefficient_double_pole_magnitude(self):
        # the double-pole coefficient matches the singular-form jump in
        # magnitude; its sign follows the stated 8 pi i/(1-2s*)^3 form
        from poletrace.quadrature import singular_line_integral

        model = SpectralModel.gl3_cuspidal(1.0)
        w_end = complex(0.25, 1.3 * np.sqrt(model.c))
        s_star = 0.5 - np.sqrt(radicand(model, w_end))
        continued_form = 4j * np.pi / (model.a**2 * (2.0 * s_star - 1.0) ** 3)
        fresh = singular_line_integral(model, s_star)
        coefficient = correction_coefficient(model, s_star)
        assert abs(coefficient) == pytest.approx(abs(continued_form - fresh), rel=1e-10)
        assert coefficient == pytest.approx(-(continued_form - fresh), rel=1e-10)


class TestPlanarNoBranching:
    def test_gaussian(self):
        report = verify_no_branching_planar(
            lambda x, y: np.exp(-(x**2 + y**2)), -1.0 + 0.5j, 1.0 + 0.5j, tol=1e-6
        )
        assert report.passed
        # the singular value is the same formula pi/w^2 on both sides; for a
        # mirrored pair the two evaluations are complex conjugates
        assert report.singular_left == pytest.approx(np.conj(report.singular_right))

    def test_zero_numerator(self):
        report = verify_no_branching_planar(
            lambda x, y: np.zeros_like(x), -0.7 + 0.2j, 0.7 + 0.2j, tol=1e-12
        )
        assert report.difference == 0.0

    def test_weighted_gaussian(self):
        f = lambda x, y: (x**2 + y**2) * np.exp(-(x**2 + y**2))
        report = verify_no_branching_planar(f, -0.8 + 0.3j, 0.8 + 0.3j, tol=1e-6)
        assert report.passed

    def test_non_mirrored_pair_rejected(self):
        from poletrace.errors import ValidationError

        with pytest.raises(ValidationError):
            verify_no_branching_planar(
                lambda x, y: np.exp(-(x**2 + y**2)), -1.0 + 0.4j, 1.0 + 0.5j
            )


class TestEisensteinNumeratorContinuation:
    def test_two_heights_agree_and_match_formula(self):
        base = UpperHalfPoint(0.0, 1.0)
        numerator = Numerator.eisenstein_product_gl2(base, base, n_terms=25)
        model = SpectralModel.gl2q()
        w_end = 0.2 + 0.9j
        r1 = continue_integral(numerator, model, crossing_path(0.7, w_end), T=25.0, tol=1e-10)
        r2 = continue_integral(numerator, model, crossing_path(1.5, w_end), T=25.0, tol=1e-10)
        assert r1.endpoint_value == pytest.approx(r2.endpoint_value, rel=1e-8)
        expected = complex(numerator(w_end)) * 4j * np.pi / (1.0 - 2.0 * w_end)
        assert r1.corrections[0].term_value == pytest.approx(expected, rel=1e-8)
