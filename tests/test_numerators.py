import numpy as np
import pytest

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
