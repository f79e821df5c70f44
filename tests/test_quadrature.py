import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import poletrace.eisenstein as eisenstein
import poletrace.quadrature as quadrature
from poletrace.continuation import continue_integral
from poletrace.eisenstein import UpperHalfPoint
from poletrace.errors import (
    AsymmetricNumeratorError,
    NumericalError,
    PoleOnContourError,
    QuadratureFailureError,
)
from poletrace.models import GrossencharParams, SpectralModel, poles
from poletrace.numerators import Numerator
from poletrace.paths import WPath
from poletrace.quadrature import (
    _WEIGHTS_G,
    _probe_heights,
    adaptive_line_quadrature,
    adaptive_quadrature,
    check_line_symmetry,
    direct_line_integral,
    singular_line_integral,
    singular_line_quadrature,
    singular_line_tail,
)

PINS = Path(__file__).resolve().parent / "golden" / "line_quadrature_pins.json"


def hilbert(t_norm: float) -> SpectralModel:
    return SpectralModel.hilbert_maass(GrossencharParams((t_norm, -t_norm)))


def _poisoned(bad_call: int, index: int, value: float):
    """|x - 1/3|, a kink no single round resolves, with ``value`` put at one node.

    The node is element ``index`` of integrand call number ``bad_call``; the
    abscissa that got it is recorded in ``bad``.
    """
    calls, bad = [], []

    def f(x):
        calls.append(np.size(x))
        out = np.abs(x - 1.0 / 3.0).astype(complex)
        if len(calls) == bad_call:
            out[index] = value
            bad.append(float(x[index]))
        return out

    return f, calls, bad


class TestAdaptiveQuadrature:
    def test_polynomial_exact(self):
        value, err = adaptive_quadrature(lambda x: np.asarray(x) ** 4, 0.0, 1.0)
        assert value == pytest.approx(0.2, abs=1e-14)
        assert err < 1e-12

    def test_failure_reports_worst_interval(self, monkeypatch):
        # a genuine non-integrable singularity cannot converge
        monkeypatch.setattr(quadrature, "MAX_INTERVALS", 64)
        with pytest.raises(QuadratureFailureError) as info:
            adaptive_quadrature(lambda x: 1.0 / np.abs(np.asarray(x)), -1.0, 2.0, tol=1e-13)
        assert info.value.worst_interval is not None
        lo, hi = info.value.worst_interval
        assert lo <= 0.0 <= hi

    def test_non_finite_integrand_fails_at_once(self):
        calls = []

        def f(x):
            calls.append(np.size(x))
            return np.where(np.asarray(x) > 0.7, np.nan, 1.0)

        with pytest.raises(QuadratureFailureError) as info:
            adaptive_quadrature(f, 0.0, 1.0)
        lo, hi = info.value.worst_interval
        assert lo < 1.0 and hi > 0.7
        assert len(calls) == 1

    def test_nan_at_a_kronrod_only_node_fails_at_once(self):
        # index 2 of a panel is a Kronrod node with Gauss weight 0: the Gauss
        # sum sees the NaN only through 0 * NaN
        assert _WEIGHTS_G[2] == 0.0
        f, calls, bad = _poisoned(1, 2, np.nan)
        with pytest.raises(QuadratureFailureError, match="not finite") as info:
            adaptive_quadrature(f, 0.0, 1.0)
        lo, hi = info.value.worst_interval
        assert calls == [15] and lo <= bad[0] <= hi

    def test_inf_at_one_node_names_its_panel(self):
        # three starting panels; the second holds the inf.  The exception
        # reports it, with no invalid-value warning from the sums before it
        f, calls, bad = _poisoned(1, 15 + 7, np.inf)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(QuadratureFailureError, match="not finite") as info:
                adaptive_quadrature(f, 0.0, 3.0, initial_points=[1.0, 2.0])
        assert caught == []
        assert info.value.worst_interval == (1.0, 2.0)
        assert len(calls) == 1 and 1.0 <= bad[0] <= 2.0

    def test_nan_first_met_in_a_later_round(self):
        # the first round cannot resolve the kink; the NaN is put at a node of
        # the second new panel of round two, and that round fails
        f, calls, bad = _poisoned(2, 15 + 4, np.nan)
        with pytest.raises(QuadratureFailureError, match="not finite") as info:
            adaptive_quadrature(f, 0.0, 1.0)
        lo, hi = info.value.worst_interval
        assert calls == [15, 30]
        assert (lo, hi) == (0.5, 1.0) and lo <= bad[0] <= hi

    def test_deterministic(self):
        f = lambda x: np.exp(1j * np.asarray(x)) / (1.0 + np.asarray(x) ** 2)
        first = adaptive_quadrature(f, -30.0, 30.0)
        second = adaptive_quadrature(f, -30.0, 30.0)
        assert first == second


class TestLineQuadrature:
    def test_gl2q_denominator_at_lambda_zero(self):
        # 1/(s(s-1)) on the line; antiderivative -2i arctan(2 tau)
        T = 1e4
        value, _ = adaptive_line_quadrature(lambda s: 1.0 / (s * (s - 1.0)), T, tol=1e-12)
        assert value == pytest.approx(-4j * np.arctan(2 * T), abs=1e-9)
        assert value == pytest.approx(-2j * np.pi, abs=1e-3)

    def test_zero_integrand(self):
        value, err = adaptive_line_quadrature(lambda s: np.zeros_like(s), 100.0)
        assert value == 0.0
        assert err == 0.0

    def test_gaussian_orientation(self):
        calls = []

        def f(s):
            calls.append(np.size(s))
            return np.exp(-np.imag(s) ** 2)

        value, _ = adaptive_line_quadrature(f, 40.0)
        assert value == pytest.approx(1j * np.sqrt(np.pi), rel=1e-10)
        # the new panels of a round share one call
        assert len(calls) <= 6


class TestSingularClosedForms:
    def test_gl2q_reference_value(self):
        model = SpectralModel.gl2q()
        assert singular_line_integral(model, 1.0) == pytest.approx(-2j * np.pi)

    def test_gl2q_left_branch(self):
        model = SpectralModel.gl2q()
        w = 0.2 + 0.3j
        assert singular_line_integral(model, w) == pytest.approx(2j * np.pi / (2 * w - 1))

    def test_pole_on_contour_rejected(self):
        with pytest.raises(PoleOnContourError):
            singular_line_integral(SpectralModel.gl2q(), 0.5 + 2j)

    def test_gl3_double_pole_value(self):
        model = SpectralModel.gl3_cuspidal(0.0)
        s_star = 0.5 + np.sqrt(1.0 / 3.0)
        expected = 4j * np.pi / (36.0 * (2.0 * np.sqrt(1.0 / 3.0)) ** 3)
        assert singular_line_integral(model, s_star) == pytest.approx(expected)

    def test_oracle_agreement_simple_pole(self):
        rng = np.random.default_rng(11)
        for t_norm in (0.0, 1.0, 3.0):
            model = hilbert(t_norm)
            for _ in range(4):
                w = complex(rng.uniform(0.6, 2.0), rng.uniform(-2.0, 2.0))
                closed = singular_line_integral(model, poles(model, w).s_plus)
                oracle, _ = singular_line_quadrature(model, w, T=1e5, tol=1e-12)
                assert abs(closed - oracle) <= 1e-8 * abs(oracle)

    def test_oracle_agreement_double_pole(self):
        rng = np.random.default_rng(12)
        for t_f in (0.0, 2.0):
            model = SpectralModel.gl3_cuspidal(t_f)
            for _ in range(4):
                w = complex(rng.uniform(0.6, 2.0), rng.uniform(-2.0, 2.0))
                closed = singular_line_integral(model, poles(model, w).s_plus)
                oracle, _ = singular_line_quadrature(model, w, T=1e5, tol=1e-12)
                assert abs(closed - oracle) <= 1e-6 * abs(oracle)

    def test_left_of_line_continued_pole_value(self):
        # after a branch flip the supplied pole is 1/2 - sqrt(q); the closed
        # form with the left-branch rule must still match plain quadrature
        model = hilbert(1.0)
        w = 0.25 + 2.5j
        s_left = 0.5 - np.sqrt((w - 0.5) ** 2 + model.c)
        closed = singular_line_integral(model, s_left)
        oracle, _ = singular_line_quadrature(model, w, T=1e5, tol=1e-12)
        assert abs(closed - oracle) <= 1e-8 * abs(oracle)

    def test_tail_matches_quadrature_difference(self):
        model = hilbert(1.0)
        w = 1.4 + 0.2j
        full, _ = singular_line_quadrature(model, w, T=1e5, tol=1e-12)
        short, _ = singular_line_quadrature(model, w, T=50.0, tol=1e-12)
        assert full == pytest.approx(short, rel=1e-10)
        # the tail term is what separates a bare truncation from the oracle
        assert abs(singular_line_tail(model, w, 50.0)) > 1e-3 * abs(full)


class TestPinnedBits:
    """Line quadratures pinned to the bits the scalar eigenvalue loop gave.

    ``golden/line_quadrature_pins.json`` holds seeded inputs and the value and
    est_error they gave, as ``float.hex``, first computed when
    ``singular_line_quadrature`` still evaluated the eigenvalue one node at a
    time and ``_gk15`` summed each rule separately.  They were re-pinned
    when the nu = 2 squares moved to real arithmetic and the error estimate
    to ``np.hypot``; since then they hold with numpy's dispatched SIMD loops
    switched off too (``test_golden.py`` reruns them that way).
    """

    @staticmethod
    def _model(desc: dict) -> SpectralModel:
        if desc["kind"] == "HilbertMaass":
            return SpectralModel.hilbert_maass(
                GrossencharParams(tuple(float.fromhex(t) for t in desc["t"]))
            )
        if desc["kind"] == "GL3Cuspidal":
            return SpectralModel.gl3_cuspidal(_complex(desc["t_f"]))
        return SpectralModel.gl2q()

    @staticmethod
    def _hex(value: complex, err: float) -> dict:
        return {"value": [value.real.hex(), value.imag.hex()], "est_error": err.hex()}

    def test_singular_line_quadrature(self):
        cases = json.loads(PINS.read_text())["singular_line_quadrature"]
        assert len(cases) == 24
        for case in cases:
            value, err = singular_line_quadrature(
                self._model(case["model"]), _complex(case["w"]),
                T=float.fromhex(case["T"]), tol=float.fromhex(case["tol"]),
            )
            want = {key: case[key] for key in ("value", "est_error")}
            assert self._hex(value, err) == want, case

    def test_gaussian_direct_line_integral(self):
        cases = json.loads(PINS.read_text())["direct_line_integral"]
        assert len(cases) == 16
        for case in cases:
            numerator = Numerator.synthetic_gaussian(
                float.fromhex(case["width"]), _complex(case["scale"])
            )
            value, err = direct_line_integral(
                numerator, self._model(case["model"]), _complex(case["w"]),
                T=float.fromhex(case["T"]), tol=float.fromhex(case["tol"]),
            )
            want = {key: case[key] for key in ("value", "est_error")}
            assert self._hex(value, err) == want, case


def _complex(pair: list) -> complex:
    return complex(float.fromhex(pair[0]), float.fromhex(pair[1]))


class TestSingularOracleCalls:
    def test_one_eigenvalue_call_per_integrand_call(self, monkeypatch):
        # a scalar loop over the nodes would make one call per node
        eigen_sizes, integrand_sizes = [], []
        original_eigenvalue = quadrature.eigenvalue
        original_line = quadrature.adaptive_line_quadrature

        def eigenvalue(model, s):
            eigen_sizes.append(np.size(s))
            return original_eigenvalue(model, s)

        def line_quadrature(f, *args, **kwargs):
            def counted(s):
                integrand_sizes.append(np.size(s))
                return f(s)

            return original_line(counted, *args, **kwargs)

        monkeypatch.setattr(quadrature, "eigenvalue", eigenvalue)
        monkeypatch.setattr(quadrature, "adaptive_line_quadrature", line_quadrature)
        for model in (hilbert(1.3), SpectralModel.gl3_cuspidal(0.7), SpectralModel.gl2q()):
            eigen_sizes.clear()
            integrand_sizes.clear()
            singular_line_quadrature(model, 1.2 + 0.4j, T=1e5, tol=1e-12)
            assert len(integrand_sizes) > 1
            assert eigen_sizes == integrand_sizes


class TestRegularized:
    def test_asymmetric_numerator_rejected(self):
        path = WPath((1.5 + 0j, 1.5 + 0.5j))
        with pytest.raises(AsymmetricNumeratorError):
            continue_integral(lambda s: np.asarray(s), SpectralModel.gl2q(), path, T=10.0)

    def test_symmetry_checker_scale(self):
        check_line_symmetry(Numerator.synthetic_gaussian(), 30.0)

    def test_symmetry_checker_makes_one_batched_call(self):
        calls = []

        def numerator(s):
            calls.append(np.size(s))
            return Numerator.synthetic_gaussian()(s)

        check_line_symmetry(numerator, 30.0)
        assert calls == [128]
        with pytest.raises(AsymmetricNumeratorError):
            check_line_symmetry(lambda s: np.imag(np.asarray(s)) + 1.0, 30.0)

    def test_non_finite_numerator_is_a_numerical_error(self):
        # NaN - NaN is NaN, which no asymmetry bound refuses; the probe names
        # the lowest height with a non-finite value instead
        tau = _probe_heights(30.0)
        lowest = f"{tau[tau > 10.0].min():.6g}"
        for sign in (1, -1):
            def numerator(s, sign=sign):
                return np.where(sign * np.imag(np.asarray(s)) > 10.0, np.nan, 1.0)

            with pytest.raises(NumericalError, match=rf"not finite at s = 1/2 \+- {lowest}i"):
                check_line_symmetry(numerator, 30.0)

    def test_probe_heights_are_built_once_per_T(self):
        seen = []

        def numerator(s):
            seen.append(np.array(s))
            return Numerator.synthetic_gaussian()(s)

        check_line_symmetry(numerator, 17.0)
        check_line_symmetry(numerator, 17.0)
        assert _probe_heights(17.0) is _probe_heights(17.0)
        assert not _probe_heights(17.0).flags.writeable
        assert np.array_equal(seen[0], seen[1])
        tau = np.concatenate((np.linspace(0.0, 4.0, 32), np.geomspace(4.0, 17.0, 32)))
        assert np.array_equal(seen[0], np.concatenate((0.5 + 1j * tau, 0.5 - 1j * tau)))
        # the shared grid still catches an asymmetric numerator
        with pytest.raises(AsymmetricNumeratorError):
            check_line_symmetry(lambda s: np.imag(np.asarray(s)) + 1.0, 17.0)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_MODERATE = st.floats(-1e150, 1e150)
_WIDTHS = st.floats(1e-3, 1e3) | st.sampled_from(
    [5e-324, 1e-300, 1e-30, 1e30, 1e300, 1.7976931348623157e308]
)


class TestProbeSkip:
    """Constant and Gaussian numerators are not probed; the Eisenstein product is."""

    @settings(max_examples=300)
    @given(
        numerator=st.one_of(
            st.builds(Numerator.synthetic_gaussian, _WIDTHS, st.builds(complex, _FINITE, _FINITE)),
            st.builds(Numerator.constant, st.builds(complex, _MODERATE, _MODERATE),
                      st.builds(complex, _MODERATE, _MODERATE)),
            st.builds(Numerator.constant, st.builds(complex, _FINITE, _FINITE)),
        ),
        T=st.floats(0.0, 1e6, exclude_min=True),
    )
    def test_the_full_probe_would_find_no_asymmetry(self, numerator, T):
        # the wrapper is not a Numerator, so it gets the full 128-point probe;
        # numpy's overflow warnings are not an outcome of the probe
        with np.errstate(over="ignore", invalid="ignore"):
            assume(np.isfinite(numerator(0.5)))
            assert check_line_symmetry(lambda s: numerator(s), T) == 0.0
        assert check_line_symmetry(numerator, T) == 0.0

    @pytest.mark.parametrize("numerator", [Numerator.constant(2.0, 1j),
                                           Numerator.synthetic_gaussian(0.5, 3.0)])
    def test_constant_and_gaussian_are_not_called(self, monkeypatch, numerator):
        def refuse(self, s):
            raise AssertionError("probed")

        monkeypatch.setattr(Numerator, "__call__", refuse)
        assert check_line_symmetry(numerator, 30.0) == 0.0

    def test_eisenstein_product_is_probed_in_one_batched_call(self, monkeypatch):
        sizes = []

        def completed(s, z, n_terms):
            sizes.append(np.size(s))
            return np.imag(s) + 1.0

        monkeypatch.setattr(eisenstein, "eisenstein_gl2_completed", completed)
        z = UpperHalfPoint(0.1, 1.05)
        with pytest.raises(AsymmetricNumeratorError):
            check_line_symmetry(Numerator.eisenstein_product_gl2(z, z), 16.0)
        assert sizes == [128]
