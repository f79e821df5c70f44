import cmath
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poletrace.eisenstein import UpperHalfPoint
from poletrace.errors import ValidationError
from poletrace.numerators import Numerator


class TestGaussian:
    def test_symmetric_and_decaying(self):
        n = Numerator.synthetic_gaussian(width=1.5, scale=2.0)
        tau = np.linspace(0.1, 20.0, 40)
        up = n(0.5 + 1j * tau)
        dn = n(0.5 - 1j * tau)
        assert np.allclose(up, dn)
        assert abs(n(0.5 + 20j)) < abs(n(0.5 + 1j))

    def test_scalar_and_array_calls(self):
        n = Numerator.synthetic_gaussian()
        assert isinstance(n(0.7), complex)
        assert n(np.array([0.7, 0.9])).shape == (2,)

    def test_width_validation(self):
        with pytest.raises(ValidationError):
            Numerator.synthetic_gaussian(width=0.0)


class TestConstant:
    def test_value_and_scale(self):
        n = Numerator.constant(2.0, scale=3.0)
        assert n(0.5 + 4j) == 6.0


class TestEisensteinProduct:
    def test_needs_base_points(self):
        with pytest.raises(ValidationError):
            Numerator(kind="eisenstein_product")

    def test_symmetry_on_line(self):
        base = UpperHalfPoint(0.0, 1.0)
        n = Numerator.eisenstein_product_gl2(base, base, n_terms=20)
        a = n(0.5 + 2.3j)
        b = n(0.5 - 2.3j)
        assert a == pytest.approx(b, rel=1e-9)

    @pytest.mark.parametrize("z0", [UpperHalfPoint(0.1, 1.05), UpperHalfPoint(-0.2, 1.3)])
    def test_batch_invariance(self, z0):
        # a node's value does not depend on the other nodes of its batch
        n = Numerator.eisenstein_product_gl2(z0, UpperHalfPoint(0.1, 1.05), n_terms=8)
        s = 0.5 + 1j * np.array([0.0, 0.3, 1.7, 5.5, 6.6, 12.0, 16.0, -4.0])
        s = np.concatenate((s, [0.2 + 0.9j, 1.3 - 0.4j]))
        batch = n(s)
        single = np.array([n(v) for v in s])
        assert np.all(np.abs(batch - single) <= 1e-14 * np.abs(single))


class TestDescriptors:
    @pytest.mark.parametrize(
        "numerator",
        [
            (Numerator.constant(1.5 + 0.5j), {"kind": "constant", "value": [1.5, 0.5]}),
            (Numerator.synthetic_gaussian(width=2.0, scale=1j),
             {"kind": "gaussian", "width": 2.0, "scale": [0, 1]}),
            (Numerator.eisenstein_product_gl2(UpperHalfPoint(0.0, 1.0), UpperHalfPoint(0.1, 1.2)),
             {"kind": "eisenstein_product", "z0": [0.0, 1.0], "z": [0.1, 1.2], "n_terms": 30}),
        ],
    )
    def test_roundtrip(self, numerator):
        built, descriptor = numerator
        restored = Numerator.from_dict(descriptor)
        assert restored == built
        probe = 0.5 + 1.3j
        assert restored(probe) == pytest.approx(built(probe), rel=1e-12)

    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            Numerator.from_dict({"kind": "lorentzian"})

    @pytest.mark.parametrize("descriptor", [
        {"kind": "constant", "value": float("nan")},
        {"kind": "constant", "value": [1.0, float("inf")]},
        {"kind": "gaussian", "scale": [float("nan"), 0.0]},
        {"kind": "gaussian", "width": float("inf")},
    ])
    def test_non_finite_fields_are_refused(self, descriptor):
        with pytest.raises(ValidationError, match="must be finite"):
            Numerator.from_dict(descriptor)

    def test_out_of_domain_fields_keep_their_message(self):
        with pytest.raises(ValidationError, match="^gaussian width must be positive"):
            Numerator.from_dict({"kind": "gaussian", "width": 0.0})


_ANY = st.floats(allow_nan=False, allow_infinity=False)
_SCALES = st.one_of(st.builds(complex, st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
                    st.builds(complex, _ANY, _ANY))


def _agreeing_value(numerator: Numerator, s: complex) -> complex:
    """N(s) from a scalar, a 0-d and a 1-d call, which must agree bit for bit, warning-free."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scalar = numerator(s)
        zero_d = numerator(np.array(s))
        array = numerator(np.array([s, 0.5]))
    assert type(scalar) is complex and type(zero_d) is complex
    bits = [(z.real.hex(), z.imag.hex()) for z in (scalar, zero_d, complex(array[0]))]
    assert bits[0] == bits[1] == bits[2]
    return scalar


class TestScalarAndArrayCalls:
    """Scalar calls take Python arithmetic, array calls numpy's; the bits are the same."""

    @settings(max_examples=400)
    @given(
        numerator=st.one_of(
            st.builds(Numerator.synthetic_gaussian,
                      st.floats(1e-3, 1e3) | st.sampled_from([0.7, 5e-324, 1.7976931348623157e308]),
                      _SCALES),
            st.builds(Numerator.constant, _SCALES, _SCALES),
        ),
        s=st.builds(complex, st.floats(-1e3, 1e3) | _ANY, st.floats(-1e3, 1e3) | _ANY),
    )
    def test_agree_bit_for_bit(self, numerator, s):
        _agreeing_value(numerator, s)

    @given(x=st.floats(26.0, 27.0), y=st.floats(-4.0, 4.0))
    def test_agree_next_to_overflow(self, x, y):
        # Re of the exponent (x^2 - y^2) sweeps across exp's overflow at 709.78,
        # where cmath.exp rounds differently from numpy's exp
        _agreeing_value(Numerator.synthetic_gaussian(1.0, 0.3 - 2j), complex(0.5 + x, y))

    @pytest.mark.parametrize("numerator, s", [
        (Numerator.synthetic_gaussian(0.002), 0.0910012138813 + 0.244499503162j),
        (Numerator.synthetic_gaussian(1.0), 27.2),
        (Numerator.synthetic_gaussian(1e-300, 1j), 0.5 + 1e160 + 1e150j),
        (Numerator.constant(3 - 1j, 1e308 + 1e308j), 0.5),
    ])
    def test_an_overflow_is_non_finite_on_both_paths(self, numerator, s):
        assert not cmath.isfinite(_agreeing_value(numerator, s))
