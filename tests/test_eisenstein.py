import math

import mpmath as mp
import numpy as np
import pytest
from scipy.special import kv as scipy_kv

import mp_oracle
from poletrace import eisenstein
from poletrace.eisenstein import (
    _BERNOULLI,
    FOURIER_CONSTANTS,
    EisensteinParams,
    UpperHalfPoint,
    _fourier_pieces,
    _gamma,
    bessel_k,
    eisenstein_gl2,
    eisenstein_gl2_completed,
    xi,
    zeta,
)
from poletrace.errors import DivergentSumError, DomainError, ValidationError
from poletrace.numerators import Numerator
from poletrace.verify import fit_fourier_constants


class TestZeta:
    def test_basel(self):
        assert zeta(2.0) == pytest.approx(np.pi**2 / 6.0, rel=1e-13)

    def test_at_zero(self):
        # value forced by the functional equation
        assert zeta(0.0) == pytest.approx(-0.5, abs=1e-13)

    def test_partial_sums_bracket_real_values(self):
        # for real s > 1 the Dirichlet partial sums increase towards zeta(s)
        value = zeta(3.0)
        partial = sum(n ** -3.0 for n in range(1, 50))
        tail_bound = 49.0 ** (-2.0) / 2.0
        assert partial < value.real < partial + tail_bound

    def test_pole_rejected(self):
        with pytest.raises(DomainError):
            zeta(1.0)

    @pytest.mark.parametrize("s", [2.0 + 37.0j, 0.5 + 14.1347j, -0.6 + 0.0j, 3.0 + 95.0j,
                                   0.5 + 99.0j, 1.5 - 60.0j])
    def test_doubled_settings_self_oracle(self, s):
        # an mpmath reference; the name predates it and is kept so that the
        # test ids stay stable
        with mp.workdps(30):
            want = complex(mp.zeta(mp.mpc(s)))
        assert abs(zeta(s) - want) <= 1e-10 * max(1.0, abs(want))

    @pytest.mark.parametrize("re_s,bound,scale_by_one", [(0.5, 1e-11, True), (1.5, 1e-12, False),
                                                         (2.5, 1e-12, False)])
    def test_against_mpmath_up_to_im_480(self, re_s, bound, scale_by_one):
        # the range the Eisenstein numerator uses; on the critical line the
        # relative error grows next to the zeros, so it is taken against
        # max(1, |zeta|) there
        rng = np.random.default_rng(480)
        s = re_s + 1j * rng.uniform(-480.0, 480.0, 40)
        got = zeta(s)
        with mp.workdps(30):
            want = np.array([complex(mp.zeta(mp.mpc(v))) for v in s])
        scale = np.maximum(1.0, np.abs(want)) if scale_by_one else np.abs(want)
        assert np.max(np.abs(got - want) / scale) <= bound


class TestBernoulli:
    def test_table_is_exact(self):
        assert len(_BERNOULLI) == 61
        for k in range(61):
            assert _BERNOULLI[k] == float(mp.bernoulli(k)), k


class TestGamma:
    @staticmethod
    def _worst(z):
        with mp.workdps(40):
            want = np.array([complex(mp.gamma(mp.mpc(v))) for v in z])
        return np.max(np.abs(_gamma(z) - want) / np.abs(want))

    @pytest.mark.parametrize("im_max,bound", [(60.0, 1e-13), (200.0, 5e-13)])
    def test_against_mpmath_where_xi_needs_it(self, im_max, bound):
        # xi reflects Re u < 1/2, so Gamma sees Re z >= 1/4; 2.5 is the point
        # behind xi(-4) and xi(5)
        rng = np.random.default_rng(int(im_max))
        z = rng.uniform(0.25, 4.0, 600) + 1j * rng.uniform(-im_max, im_max, 600)
        z = np.concatenate([z, [0.25, 0.5, 1.0, 2.5, 3.0, 4.0]])
        assert self._worst(z) <= bound

    def test_factorials(self):
        n = np.arange(1, 21)
        want = np.array([float(math.factorial(k - 1)) for k in n])
        assert np.max(np.abs(_gamma(n.astype(float)) - want) / want) <= 1e-14

    def test_vectorized_matches_scalar_calls(self):
        rng = np.random.default_rng(3)
        z = rng.uniform(0.25, 4.0, 90) + 1j * rng.uniform(-60.0, 60.0, 90)
        batch = _gamma(z)
        assert all(batch[i] == _gamma(z[i]) for i in range(z.size))


class TestXi:
    def test_functional_equation(self):
        for u in (2.3, 0.7 + 1.4j, 3.0 - 2.0j):
            assert xi(u) == pytest.approx(xi(1.0 - u), rel=1e-12)

    def test_reflection_avoids_trivial_zeros(self):
        # xi(-4) would be gamma-pole times zeta-zero if computed naively
        assert xi(-4.0) == pytest.approx(xi(5.0), rel=1e-13)

    def test_pole(self):
        with pytest.raises(DomainError):
            xi(1.0)

    def test_fourier_pieces_equal_separate_xi_calls(self, monkeypatch):
        # one xi call on [2s, 2s - 1] is split back into the two pieces
        calls = []
        monkeypatch.setattr(eisenstein, "xi", lambda u: calls.append(u) or xi(u))
        s = np.array([0.5 + 1.0j, 0.5 - 7.5j, 0.8 + 1.1j, 2.5, 0.5 + 16.0j])
        xi_2s, xi_2s1, _ = _fourier_pieces(s, UpperHalfPoint(0.1, 1.05), 12)
        assert len(calls) == 1
        assert np.all(xi_2s == xi(2.0 * s))
        assert np.all(xi_2s1 == xi(2.0 * s - 1.0))


class TestGaussLegendre:
    # node counts are multiples of 8; 304 is the largest on the documented
    # bessel_k domain (|Im order| <= 60, x >= 0.1)
    COUNTS = range(8, 513, 8)

    def test_nodes_match_numpy(self):
        for n in self.COUNTS:
            x, w = eisenstein._gauss_legendre(n)
            ref_x, _ = np.polynomial.legendre.leggauss(n)
            assert np.max(np.abs(x - ref_x)) <= 4e-16, n
            assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1]), n
            assert np.all(np.diff(x) > 0), n

    def test_rule_is_exact_for_even_powers(self):
        for n in self.COUNTS:
            x, w = eisenstein._gauss_legendre(n)
            for k in range(0, min(n, 24), 2):
                assert math.fsum(w * x**k) == pytest.approx(2.0 / (k + 1), rel=1e-13), (n, k)

    @pytest.mark.parametrize("n", [8, 32, 88, 128, 304])
    def test_weights_against_mpmath(self, n):
        # numpy's leggauss weights are 4.5e-12 (n = 88) to 1.7e-11 (n = 304) off here
        x, w = eisenstein._gauss_legendre(n)
        for i in sorted({0, 1, 2, n // 4, n // 2 - 1, n // 2}):
            ref_x, ref_w = mp_oracle.gauss_legendre_node(n, x[i])
            assert abs(x[i] - ref_x) <= 2e-16, (n, i)
            assert abs(w[i] / ref_w - 1.0) <= 1e-15 * n, (n, i)

    def test_odd_counts(self):
        for n in (1, 3, 7, 15):
            x, w = eisenstein._gauss_legendre(n)
            ref_x, ref_w = np.polynomial.legendre.leggauss(n)
            assert x[n // 2] == 0.0
            assert np.max(np.abs(x - ref_x)) <= 4e-16
            assert np.max(np.abs(w / ref_w - 1.0)) <= 1e-14


class TestBesselK:
    def test_half_order_closed_form(self):
        assert bessel_k(0.5, 1.0) == pytest.approx(np.sqrt(np.pi / 2.0) * np.exp(-1.0), rel=1e-12)

    def test_order_zero(self):
        # frozen from the doubled-precision self-oracle; scipy agrees
        value = bessel_k(0.0, 1.0)
        assert value == pytest.approx(0.421024, abs=1e-6)
        assert value == pytest.approx(scipy_kv(0, 1.0), rel=1e-12)

    def test_even_in_order(self):
        assert bessel_k(1.7, 0.9) == pytest.approx(bessel_k(-1.7, 0.9), rel=1e-12)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            bessel_k(1.0, 0.0)

    @pytest.mark.parametrize("order,x", [(0.0, 0.1), (3.0, 2.5), (10.0, 0.5), (50.0, 0.1),
                                         (1.5, 40.0)])
    def test_real_orders_against_scipy(self, order, x):
        assert bessel_k(order, x) == pytest.approx(scipy_kv(order, x), rel=1e-9)

    @pytest.mark.parametrize("order,x", [(2.0j, 0.5), (0.5 + 3.0j, 1.2), (6.0j, 1.0)])
    def test_complex_orders_against_doubled_settings(self, order, x):
        want = mp_oracle.bessel_k(order, x)
        assert abs(bessel_k(order, x) - want) <= 1e-9 * abs(want)

    @pytest.mark.parametrize("a", [0.0, 0.4, 2.5, -3.0, 10.0])
    @pytest.mark.parametrize("x", [0.1, 0.9, 6.3, 24.0, 60.0])
    def test_complex_orders_over_the_documented_domain(self, a, x):
        # imaginary parts on both sides of the turning point tau = x, one of
        # them within 1e-9 of it, up to the documented |Im order| <= 60,
        # where the value has decayed like exp(-pi tau / 2)
        taus = [0.0, 0.5 * x, x * (1 - 1e-9), x, x * (1 + 1e-6), min(1.3 * x + 1.0, 59.0),
                17.0, 40.0, 60.0]
        for tau in taus:
            for order in (complex(a, tau), complex(a, -tau)):
                want = mp_oracle.bessel_k(order, x)
                assert abs(bessel_k(order, x) - want) <= 1e-10 * abs(want), (order, x)

    def test_vectorized_matches_elementwise(self):
        order = np.array([0.3 + 2.0j, 40.0j, -1.5, 6.28j])
        x = np.array([0.5, 6.28, 3.0, 6.28])
        batch = bessel_k(order, x)
        assert batch.shape == (4,)
        assert all(batch[i] == bessel_k(order[i], x[i]) for i in range(4))
        assert isinstance(bessel_k(0.5, 1.0), complex)

    def test_order_out_of_range(self):
        with pytest.raises(DomainError):
            bessel_k(1000.0j, 1.0)

    @pytest.mark.parametrize("order", [complex(np.nan, 0.0), complex(0.5, np.inf)])
    def test_non_finite_order(self, order):
        with pytest.raises(DomainError, match="finite order"):
            bessel_k(order, 1.0)

    def test_deep_cancellation_keeps_absolute_accuracy(self):
        # purely imaginary order with exponentially small value: the absolute
        # error stays far below the integrand scale exp(-x)
        value = bessel_k(25.0j, 2.0)
        assert abs(value) <= 1e-14 * np.exp(-2.0)


class TestEisenstein:
    def test_calibrated_constants_validate_off_calibration_points(self):
        # calibration is at s in {3, 3.5, 4}; check a fresh convergent point
        z = UpperHalfPoint(0.41, 1.35)
        s = 2.75
        lattice = eisenstein_gl2(EisensteinParams(s, mode="lattice_sum"), z)
        fourier = eisenstein_gl2(EisensteinParams(s), z)
        assert abs(lattice - fourier) <= 1e-8 * abs(lattice)

    def test_mode_agreement_at_three(self):
        z = UpperHalfPoint(0.0, 1.0)
        lattice = eisenstein_gl2(EisensteinParams(3.0, mode="lattice_sum"), z)
        fourier = eisenstein_gl2(EisensteinParams(3.0), z)
        assert abs(lattice - fourier) <= 1e-6 * abs(lattice)

    def test_lattice_needs_convergence(self):
        with pytest.raises(DivergentSumError):
            eisenstein_gl2(EisensteinParams(0.5 + 2j, mode="lattice_sum"), UpperHalfPoint(0, 1))

    def test_translation_invariance_exact(self):
        s = 0.5 + 2.6j
        a = eisenstein_gl2(EisensteinParams(s), UpperHalfPoint(0.23, 1.1))
        b = eisenstein_gl2(EisensteinParams(s), UpperHalfPoint(1.23, 1.1))
        assert a == pytest.approx(b, rel=1e-12)

    def test_inversion_invariance(self):
        s = 0.5 + 3.1j
        z = 0.3 + 1.2j
        gz = -1.0 / z
        a = eisenstein_gl2(EisensteinParams(s), UpperHalfPoint(z.real, z.imag))
        b = eisenstein_gl2(EisensteinParams(s), UpperHalfPoint(gz.real, gz.imag))
        assert abs(a - b) <= 1e-8 * abs(a)

    def test_zero_at_one_half(self):
        # xi(2s) has its pole at s = 1/2: E(1/2, z) = 0, and next to it
        # E = E*(s, z) (2s - 1) to first order
        z = UpperHalfPoint(0.1, 1.05)
        assert eisenstein_gl2(EisensteinParams(0.5, n_terms=8), z) == 0
        for s in (0.5 + 1e-13, 0.5 + 1e-13j):
            got = eisenstein_gl2(EisensteinParams(s, n_terms=8), z)
            want = mp_oracle.eisenstein(s, z.x, z.y, 8, dps=40)
            assert abs(got - want) <= 1e-9 * abs(want), s

    @pytest.mark.parametrize("x", [0.1, 0.0, -0.3])
    def test_one_at_zero(self, x):
        # xi(2s) has its other pole at s = 0, where E(0, z) = 1 for every z
        for y in (0.8, 1.05, 2.0):
            assert eisenstein_gl2(EisensteinParams(0.0), UpperHalfPoint(x, y)) == 1.0

    def test_next_to_zero_against_mpmath(self):
        z = UpperHalfPoint(0.1, 1.05)
        for s in (1e-13, 1e-13j):
            got = eisenstein_gl2(EisensteinParams(s), z)
            want = mp_oracle.eisenstein(s, z.x, z.y, 30, dps=40)
            assert abs(got - want) <= 1e-9 * abs(want), s

    def test_values_equal_division_by_a_separate_xi(self):
        # the criterion 9 points: bit for bit E* / xi(2s) with xi called on its own
        for s in (2.0, 2.5, 3.0, 2.0 + 1j, 2.5 + 1j, 3.0 + 1j):
            for z in (UpperHalfPoint(0.0, 1.0), UpperHalfPoint(0.3, 1.2)):
                want = eisenstein_gl2_completed(s, z) / xi(2.0 * s)
                assert eisenstein_gl2(EisensteinParams(s), z) == want

    def test_upper_half_plane_validation(self):
        with pytest.raises(ValidationError):
            UpperHalfPoint(0.0, -1.0)

    @pytest.mark.parametrize("x, y", [(np.nan, 1.0), (0.0, np.inf), (np.inf, 1.0)])
    def test_non_finite_point_refused(self, x, y):
        with pytest.raises(ValidationError, match="finite"):
            UpperHalfPoint(x, y)

    def test_bad_mode(self):
        with pytest.raises(ValidationError):
            EisensteinParams(2.0, mode="modular")


class TestCompleted:
    def test_functional_equation_on_line(self):
        z = UpperHalfPoint(0.1, 0.9)
        a = eisenstein_gl2_completed(0.5 + 2.2j, z)
        b = eisenstein_gl2_completed(0.5 - 2.2j, z)
        assert abs(a - b) <= 1e-10 * abs(a)

    def test_functional_equation_off_line(self):
        z = UpperHalfPoint(0.0, 1.0)
        a = eisenstein_gl2_completed(0.8 + 1.1j, z)
        b = eisenstein_gl2_completed(0.2 - 1.1j, z)
        assert abs(a - b) <= 1e-10 * abs(a)

    def test_matches_xi_times_series(self):
        z = UpperHalfPoint(0.3, 1.2)
        s = 2.4
        direct = eisenstein_gl2_completed(s, z)
        assembled = xi(2 * s) * eisenstein_gl2(EisensteinParams(s), z)
        assert direct == pytest.approx(assembled, rel=1e-11)

    def test_decay_on_critical_line(self):
        z = UpperHalfPoint(0.0, 1.0)
        small = abs(eisenstein_gl2_completed(0.5 + 18.0j, z))
        big = abs(eisenstein_gl2_completed(0.5 + 2.0j, z))
        assert small < 1e-9 * big

    def test_center_neighbourhood_is_finite_and_even(self):
        z = UpperHalfPoint(0.0, 1.3)
        center = eisenstein_gl2_completed(0.5, z)
        assert np.isfinite(center.real) and np.isfinite(center.imag)
        for tau in (1e-7, 1e-5, 4e-4, 9.99e-4):
            assert eisenstein_gl2_completed(0.5 + 1j * tau, z) == eisenstein_gl2_completed(
                0.5 - 1j * tau, z), tau
        tau = np.array([1e-7, 2e-4, 9e-4])
        batch = eisenstein_gl2_completed(np.concatenate([0.5 + 1j * tau, 0.5 - 1j * tau]), z)
        assert np.array_equal(batch[:3], batch[3:])


class TestCenter:
    """E* within the centre zone |s - 1/2| < 1e-3, where the two xi poles cancel."""

    BASES = [(0.1, 1.05), (0.0, 1.3), (-0.27, 0.95), (0.37, 1.6)]

    @pytest.mark.parametrize("x,y", BASES)
    def test_value_at_center_against_closed_form(self, x, y):
        want = mp_oracle.estar_center(x, y, 8)
        got = eisenstein_gl2_completed(0.5, UpperHalfPoint(x, y), n_terms=8)
        assert abs(got - want) <= 1e-13 * abs(want)

    @pytest.mark.parametrize("x,y", BASES)
    def test_near_center_against_mpmath(self, x, y):
        # inside the zone the Taylor series from the ring; just outside it the
        # direct Fourier sum, which off the line loses digits next to 1/2
        inside = [1e-7j, 3e-4 - 3e-4j, -9.9e-4]
        outside = [1e-3, 1.4e-3 + 1.4e-3j]
        u = np.array(inside + outside)
        got = eisenstein_gl2_completed(0.5 + u, UpperHalfPoint(x, y), n_terms=8)
        want = np.array([mp_oracle.estar(0.5 + v, x, y, 8, dps=40) for v in u])
        err = np.abs(got - want) / np.abs(want)
        assert np.all(err[:len(inside)] <= 1e-13), err
        assert np.all(err[len(inside):] <= 5e-12), err

    def test_numerator_call_is_one_pass(self, monkeypatch):
        calls = []
        pieces = eisenstein._fourier_pieces
        monkeypatch.setattr(eisenstein, "_fourier_pieces",
                            lambda s, z, n: calls.append(s.size) or pieces(s, z, n))
        z = UpperHalfPoint(0.1, 1.05)
        numerator = Numerator.eisenstein_product_gl2(z, z, n_terms=12)
        numerator(np.array([0.5, 0.5 + 1j, 0.5 - 2e-4j, 0.8]))
        assert calls == [2 + 24]


class TestTruncation:
    def test_every_evaluator_refuses_a_truncated_expansion(self):
        # at y = 0.01 the 30 Fourier terms have not started to decay
        z = UpperHalfPoint(0.0, 0.01)
        with pytest.raises(DomainError, match="n_terms = 30"):
            eisenstein_gl2_completed(0.5 + 3j, z)
        with pytest.raises(DomainError, match="y = 0.01"):
            eisenstein_gl2(EisensteinParams(0.5 + 3j), z)
        with pytest.raises(DomainError):
            Numerator.eisenstein_product_gl2(z, z)(np.array([0.5 + 3j]))

    def test_tightest_benchmark_input_is_accepted(self):
        # y = 0.95, n_terms = 8, |Im s| = 16: the Debye exponent is 31
        value = eisenstein_gl2_completed(0.5 + 16j, UpperHalfPoint(0.0, 0.95), n_terms=8)
        want = mp_oracle.estar(0.5 + 16j, 0.0, 0.95, 40)
        assert abs(value - want) <= 1e-13 * abs(want)

    def test_largest_im_s_of_a_batch_decides(self):
        z = UpperHalfPoint(0.0, 0.95)
        eisenstein_gl2_completed(np.array([0.5 + 16j, 0.5 + 20j]), z, n_terms=8)
        with pytest.raises(DomainError, match=r"\|Im s\| = 24"):
            eisenstein_gl2_completed(np.array([0.5 + 16j, 0.5 - 24j]), z, n_terms=8)


class TestProductNumerator:
    def test_symmetry_at_coincident_points(self):
        z = UpperHalfPoint(0.0, 1.0)
        n = Numerator.eisenstein_product_gl2(z, z)
        assert n(0.5 + 1.7j) == pytest.approx(n(0.5 - 1.7j), rel=1e-9)

    def test_real_at_center(self):
        z = UpperHalfPoint(0.0, 1.0)
        value = Numerator.eisenstein_product_gl2(z, z)(0.5 + 1e-6j)
        assert abs(value.imag) <= 1e-9 * abs(value)

    def test_continued_factor_cross_check(self):
        # E*(-2, i) * E*(3, i): the convergent factor agrees with the coset sum
        z = UpperHalfPoint(0.0, 1.0)
        product = Numerator.eisenstein_product_gl2(z, z)(3.0)
        lattice_factor = xi(6.0) * eisenstein_gl2(EisensteinParams(3.0, mode="lattice_sum"), z)
        continued_factor = xi(-4.0) * eisenstein_gl2(EisensteinParams(-2.0), z)
        assert product == pytest.approx(continued_factor * lattice_factor, rel=1e-6)


class TestAgainstMpmath:
    @pytest.mark.parametrize("tau", [3.1, 16.0, 25.0, 40.0])
    def test_completed_on_critical_line(self, tau):
        x, y = 0.17, 1.08
        want = mp_oracle.estar(0.5 + 1j * tau, x, y, 30)
        got = eisenstein_gl2_completed(0.5 + 1j * tau, UpperHalfPoint(x, y))
        assert abs(got - want) <= 1e-9 * abs(want)

    def test_array_of_s_matches_scalar_calls(self):
        z = UpperHalfPoint(0.1, 1.05)
        s = np.array([0.5 + 1.0j, 0.5 - 7.5j, 0.8 + 1.1j, 2.5, 0.5 + 1e-7j, 0.5 + 5e-4])
        batch = eisenstein_gl2_completed(s, z, n_terms=12)
        single = np.array([eisenstein_gl2_completed(v, z, n_terms=12) for v in s])
        assert np.all(np.abs(batch - single) <= 1e-14 * np.abs(single))

    def test_zeta_vectorized(self):
        s = np.array([2.0, 0.5 + 14.1347j, 3.0 + 95.0j])
        assert np.all(zeta(s) == np.array([zeta(v) for v in s]))


def test_calibration_residual_is_tiny():
    # the least-squares fit of criterion 9 lands on the pinned constants
    c1, c2, residual = fit_fourier_constants()
    assert residual < 1e-9
    assert abs(c1 - FOURIER_CONSTANTS[0]) < 1e-9
    assert abs(c2 - FOURIER_CONSTANTS[1]) < 1e-9
