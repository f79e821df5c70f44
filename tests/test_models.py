import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poletrace.errors import BranchAmbiguityError, InvalidCharacterError, ValidationError
from poletrace.models import (
    GrossencharParams,
    SpectralModel,
    branch_points,
    denominator,
    eigenvalue,
    eigenvalue_minparabolic_power,
    eigenvalue_minparabolic_root,
    lambda_w,
    poles,
    radicand,
)

finite = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
complexes = st.builds(complex, finite, finite)


def hilbert(t_norm: float) -> SpectralModel:
    return SpectralModel.hilbert_maass(GrossencharParams((t_norm, -t_norm)))


def scalar_eigenvalue(model: SpectralModel, s: complex) -> complex:
    """The scalar eigenvalue as it was written before it took arrays.

    Python complex arithmetic, one point at a time; the reference that the
    array evaluation must reproduce bit for bit.
    """
    s = complex(s)
    if model.kind.value == "GL2Q":
        return s * (s - 1.0)
    if model.kind.value == "HilbertMaass":
        terms = [(s + 1j * t) * (s + 1j * t - 1.0) for t in model.chi.t]
        return sum(terms) / model.chi.n
    s_f = 0.5 + 1j * model.t_f
    return 2.0 * (s_f * (s_f - 1.0) + 3.0 * s * (s - 1.0))


def _bits(z: complex) -> bytes:
    return struct.pack("<dd", z.real, z.imag)


def _three_components(a: float, b: float) -> SpectralModel:
    return SpectralModel.hilbert_maass(GrossencharParams((a, b, -(a + b))))


any_model = st.one_of(
    st.just(SpectralModel.gl2q()),
    st.floats(0.0, 3.0).map(hilbert),
    st.builds(_three_components, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
    st.floats(0.0, 2.0).map(SpectralModel.gl3_cuspidal),
    st.floats(-0.5, 0.0).map(lambda b: SpectralModel.gl3_cuspidal(complex(0.0, b))),
)
# on the critical line and off it, up to the oracle's truncation height 1e5
line_or_plane = st.builds(
    complex,
    st.one_of(st.just(0.5), st.floats(-3.0, 3.0)),
    st.one_of(st.floats(-1e5, 1e5), st.floats(-3.0, 3.0)),
)


class TestGrossenchar:
    def test_zero_sum_enforced(self):
        with pytest.raises(InvalidCharacterError):
            GrossencharParams((1.0, -0.5))

    @pytest.mark.parametrize("t", [(np.nan, np.nan), (np.inf, -np.inf), (1.0, np.nan)])
    def test_non_finite_refused(self, t):
        # a NaN sum passes the zero-sum test, so finiteness is checked first
        with pytest.raises(InvalidCharacterError, match="must be finite"):
            GrossencharParams(t)

    @pytest.mark.parametrize("t_f", [np.inf, complex(1.0, np.nan), complex(0.0, -np.inf)])
    def test_non_finite_gl3_parameter_refused(self, t_f):
        with pytest.raises(ValidationError, match="t_f must be finite"):
            SpectralModel.gl3_cuspidal(t_f)

    def test_norm_sq(self):
        chi = GrossencharParams((1.0, -1.0))
        assert chi.norm_sq == pytest.approx(1.0)


class TestEigenvalue:
    def test_hilbert_product_form(self):
        model = hilbert(1.0)
        # product form, cross-checked against (s-1/2)^2 - |t|^2 - 1/4
        assert eigenvalue(model, 0.5) == pytest.approx(-1.25)
        for s in (0.3 + 2j, 1.7 - 0.4j):
            collapsed = (s - 0.5) ** 2 - model.c - 0.25
            assert eigenvalue(model, s) == pytest.approx(collapsed)

    def test_gl2q(self):
        assert eigenvalue(SpectralModel.gl2q(), 0.0) == 0.0

    def test_gl3_cuspidal(self):
        assert eigenvalue(SpectralModel.gl3_cuspidal(0.0), 0.5) == pytest.approx(-2.0)

    @given(s=complexes, w=complexes)
    @settings(max_examples=200, deadline=None)
    def test_factorization_identity(self, s, w):
        for model in (SpectralModel.gl2q(), hilbert(1.3), SpectralModel.gl3_cuspidal(0.7)):
            lhs = eigenvalue(model, s) - lambda_w(model, w)
            rhs = model.a * ((s - 0.5) ** 2 - (w - 0.5) ** 2 - model.c)
            assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs) + abs(rhs))

    @given(model=any_model, s=st.lists(line_or_plane, min_size=1, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_array_equals_scalar_formula_bit_for_bit(self, model, s):
        got = eigenvalue(model, np.array(s, dtype=complex))
        assert got.shape == (len(s),)
        assert [_bits(g) for g in got.tolist()] == [_bits(scalar_eigenvalue(model, v)) for v in s]
        for zero_d in (s[0], np.complex128(s[0]), np.array(s[0])):
            value = eigenvalue(model, zero_d)
            assert type(value) is complex
            assert _bits(value) == _bits(scalar_eigenvalue(model, s[0]))

    def test_array_shape_is_kept(self):
        s = np.array([[0.5 + 2j, 1.5 - 1j], [0.0, 3.0 + 1e5j]])
        for model in (SpectralModel.gl2q(), hilbert(1.3), SpectralModel.gl3_cuspidal(0.7)):
            got = eigenvalue(model, s)
            assert got.shape == s.shape
            want = [[scalar_eigenvalue(model, v) for v in row] for row in s.tolist()]
            assert got.tolist() == want

    def test_factorization_identity_bulk(self):
        rng = np.random.default_rng(7)
        s = rng.uniform(-3, 3, 10_000) + 1j * rng.uniform(-3, 3, 10_000)
        w = rng.uniform(-3, 3, 10_000) + 1j * rng.uniform(-3, 3, 10_000)
        for model in (hilbert(2.0), SpectralModel.gl3_cuspidal(1.0)):
            lam_s = np.array([eigenvalue(model, sv) for sv in s[:200]])
            lam_w = np.array([lambda_w(model, wv) for wv in w[:200]])
            rhs = model.a * ((s[:200] - 0.5) ** 2 - (w[:200] - 0.5) ** 2 - model.c)
            err = np.abs(lam_s - lam_w - rhs)
            assert np.all(err <= 1e-10 * (1.0 + np.abs(lam_s) + np.abs(lam_w)))
            assert np.allclose(denominator(model, s[:200], w[0]), lam_s - lambda_w(model, w[0]))


class TestMinParabolic:
    def test_power_zero_character(self):
        assert eigenvalue_minparabolic_power(0, 0, 0) == 0

    def test_power_example(self):
        assert eigenvalue_minparabolic_power(2, 0, -2) == 0

    def test_power_trace_enforced(self):
        with pytest.raises(InvalidCharacterError):
            eigenvalue_minparabolic_power(1, 1, 1)

    def test_root_zero(self):
        assert eigenvalue_minparabolic_root(0, 0, 0) == 0

    def test_root_example(self):
        assert eigenvalue_minparabolic_root(1, 1, 0) == pytest.approx(-2.0)

    def test_arrays_match_scalar_calls(self):
        rng = np.random.default_rng(8)
        u = rng.uniform(-3.0, 3.0, (50, 4))
        s1, s2 = u[:, 0] + 1j * u[:, 1], u[:, 2] + 1j * u[:, 3]
        power = eigenvalue_minparabolic_power(s1, s2, -s1 - s2)
        root = eigenvalue_minparabolic_root(s1, s2, -s1 - s2)
        for i in range(s1.size):
            want = eigenvalue_minparabolic_power(s1[i], s2[i], -s1[i] - s2[i])
            assert isinstance(want, complex)
            assert abs(power[i] - want) <= 1e-14 * abs(want)
            want = eigenvalue_minparabolic_root(s1[i], s2[i], -s1[i] - s2[i])
            assert abs(root[i] - want) <= 1e-14 * abs(want)
        with pytest.raises(InvalidCharacterError):
            eigenvalue_minparabolic_power(s1, s2, np.where(np.arange(50) == 7, 1.0, -s1 - s2))

    @given(s1=complexes, s2=complexes)
    @settings(max_examples=300, deadline=None)
    def test_parametrization_consistency(self, s1, s2):
        via_root = eigenvalue_minparabolic_root(s1, s1 + s2, 0.0)
        via_power = eigenvalue_minparabolic_power(s1, s2, -s1 - s2)
        assert abs(via_root - via_power) <= 1e-12 * (1.0 + abs(via_root))

    @given(s_f=complexes, s=complexes)
    @settings(max_examples=300, deadline=None)
    def test_cuspidal_reduction(self, s_f, s):
        reduced = eigenvalue_minparabolic_power(s_f + s, -s_f + s, -2.0 * s)
        target = 2.0 * (s_f * (s_f - 1.0) + 3.0 * s * (s - 1.0))
        assert abs(reduced - target) <= 1e-12 * (1.0 + abs(target))


class TestPoles:
    def test_gl2q_reference(self):
        pair = poles(SpectralModel.gl2q(), 0.75)
        assert pair.s_plus == pytest.approx(0.75)
        assert pair.s_plus + pair.s_minus == pytest.approx(1.0)

    def test_hilbert_pole_solves_eigenvalue_equation(self):
        model = hilbert(1.0)
        w = 1.0 + 2.0j
        pair = poles(model, w)
        assert pair.s_plus == pytest.approx(0.5 + np.sqrt(-2.75 + 2j))
        assert eigenvalue(model, pair.s_plus) == pytest.approx(lambda_w(model, w), rel=1e-10)
        assert eigenvalue(model, pair.s_minus) == pytest.approx(lambda_w(model, w), rel=1e-10)

    def test_gl3_cuspidal_pole(self):
        model = SpectralModel.gl3_cuspidal(0.0)
        pair = poles(model, 1.0)
        assert pair.s_plus == pytest.approx(0.5 + np.sqrt(1.0 / 3.0))
        assert eigenvalue(model, pair.s_plus) == pytest.approx(lambda_w(model, 1.0), rel=1e-10)

    def test_branch_cut_rejected(self):
        # w on the critical line above the branch point: radicand negative real
        with pytest.raises(BranchAmbiguityError):
            poles(hilbert(1.0), 0.5 + 2.0j)

    def test_right_half_plane_pole_side(self):
        rng = np.random.default_rng(3)
        model = hilbert(1.5)
        for _ in range(50):
            w = complex(rng.uniform(0.51, 3.0), rng.uniform(-3.0, 3.0))
            assert poles(model, w).s_plus.real > 0.5


class TestRadicand:
    def test_array_matches_scalar_calls(self):
        # both paths round the same real products and sums, bit for bit
        rng = np.random.default_rng(5)
        w = rng.uniform(-3.0, 3.0, 200) + 1j * rng.uniform(-3.0, 3.0, 200)
        for model in (SpectralModel.gl2q(), hilbert(1.3), SpectralModel.gl3_cuspidal(0.7)):
            scalar = np.array([radicand(model, complex(wk)) for wk in w])
            assert np.array_equal(radicand(model, w), scalar)


class TestBranchPoints:
    def test_gl2q_degenerate(self):
        assert branch_points(SpectralModel.gl2q()) == (0.5 + 0j, 0.5 - 0j)

    def test_gl3_cuspidal(self):
        hi, lo = branch_points(SpectralModel.gl3_cuspidal(0.0))
        assert hi == pytest.approx(0.5 + 1j / (2.0 * np.sqrt(3.0)))
        assert lo == pytest.approx(0.5 - 1j / (2.0 * np.sqrt(3.0)))

    def test_golden_ratio_character(self):
        # unit invariance in Q(sqrt 5) forces t = (pi m / log eps, -pi m / log eps)
        t1 = np.pi / np.log((1.0 + np.sqrt(5.0)) / 2.0)
        hi, _ = branch_points(SpectralModel.hilbert_maass(GrossencharParams((t1, -t1))))
        assert hi.imag == pytest.approx(t1)
        assert hi.imag == pytest.approx(6.5286, abs=1e-4)


class TestModelDescriptor:
    @pytest.mark.parametrize(
        "model",
        [
            SpectralModel.gl2q(),
            SpectralModel.hilbert_maass(GrossencharParams((2.0, -2.0))),
            SpectralModel.gl3_cuspidal(1.0),
            SpectralModel.gl3_cuspidal(-0.25j),
        ],
    )
    def test_roundtrip(self, model):
        restored = SpectralModel.from_dict(model.as_dict())
        assert restored.kind == model.kind
        assert restored.a == model.a
        assert restored.c == pytest.approx(model.c)
        assert restored.nu == model.nu

    @pytest.mark.parametrize(
        "build, fields",
        [
            (SpectralModel.gl2q, "kind=<ModelKind.GL2Q: 'GL2Q'>, chi=None, t_f=0j"),
            (lambda: hilbert(1.5), "kind=<ModelKind.HILBERT_MAASS: 'HilbertMaass'>, "
                                   "chi=GrossencharParams(t=(1.5, -1.5)), t_f=0j"),
            (lambda: SpectralModel.gl3_cuspidal(1.0),
             "kind=<ModelKind.GL3_CUSPIDAL: 'GL3Cuspidal'>, chi=None, t_f=(1+0j)"),
        ],
        ids=["GL2Q", "HilbertMaass", "GL3Cuspidal"],
    )
    def test_derived_fields_leave_identity_alone(self, build, fields):
        # a, c and nu are worked out once from the kind; equality, hash and
        # repr read only what the model was built from
        model, again = build(), build()
        assert model == again and hash(model) == hash(again)
        assert repr(model) == f"SpectralModel({fields})"
        restored = SpectralModel.from_dict(model.as_dict())
        assert restored == model and hash(restored) == hash(model)
        assert (restored.a, restored.c, restored.nu) == (model.a, model.c, model.nu)
        with pytest.raises(ValidationError, match="inconsistent with kind"):
            SpectralModel.from_dict({**model.as_dict(), "c": model.c + 1.0})

    def test_inconsistent_descriptor_rejected(self):
        with pytest.raises(ValidationError):
            SpectralModel.from_dict({"kind": "GL2Q", "c": 5.0})

    def test_exceptional_t_f_range(self):
        SpectralModel.gl3_cuspidal(-0.5j)  # boundary allowed
        with pytest.raises(ValidationError):
            SpectralModel.gl3_cuspidal(-0.6j)
        with pytest.raises(ValidationError):
            SpectralModel.gl3_cuspidal(0.3 + 0.2j)

    def test_gl3_exceptional_offset_still_nonnegative(self):
        model = SpectralModel.gl3_cuspidal(-0.4j)
        assert 0.0 <= model.c < 1.0 / 12.0

    def test_gl3_real_offset_floor(self):
        assert SpectralModel.gl3_cuspidal(0.0).c == pytest.approx(1.0 / 12.0)
        assert SpectralModel.gl3_cuspidal(2.0).c >= 1.0 / 12.0
