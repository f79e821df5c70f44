"""Acceptance criterion suites.

Each criterion function runs one oracle- or property-based check at its
pinned tolerance and returns a :class:`CriterionResult`.  The CLI ``verify``
subcommand and the acceptance test module both dispatch through
:func:`run_criteria`, so the tabulated report and the test suite can never
drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .continuation import branching_difference, continue_integral
from .eisenstein import (
    FOURIER_CONSTANTS,
    EisensteinParams,
    UpperHalfPoint,
    _fourier_pieces,
    eisenstein_gl2,
)
from .models import (
    GrossencharParams,
    SpectralModel,
    eigenvalue_minparabolic_power,
    eigenvalue_minparabolic_root,
    poles,
)
from .numerators import Numerator
from .paths import WPath, branch_sign, radicand_curve, track_sqrt
from .planar import planar_singular_integral, radial_singular_quadrature, verify_no_branching_planar
from .quadrature import singular_line_integral, singular_line_quadrature


@dataclass
class CriterionResult:
    ident: str
    title: str
    passed: bool
    worst: float
    tol: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        out = f"[{status}] criterion {self.ident}: {self.title} (worst {self.worst:.3g}, tol {self.tol:g})"
        if self.detail:
            out += f" -- {self.detail}"
        return out


def _rel(a, b):
    """|a - b| / max(|a|, |b|), elementwise on arrays."""
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-300)


def _hilbert(t_norm: float) -> SpectralModel:
    return SpectralModel.hilbert_maass(GrossencharParams((t_norm, -t_norm)))


def _crossing_paths(c: float, w_end: complex) -> tuple[WPath, WPath]:
    """Outside/inside path pair ending at w_end, scaled to the branch height."""
    root_c = float(np.sqrt(c))
    hi, lo = 1.45 * root_c, 0.5 * root_c
    start = 1.2 + 0.0j
    path1 = WPath((start, 1.2 + 1j * hi, 0.25 + 1j * hi, w_end), label="outside")
    path2 = WPath((start, 1.2 + 1j * lo, 0.25 + 1j * lo, w_end), label="inside")
    return path1, path2


def criterion_simple_pole() -> CriterionResult:
    """Closed-form simple-pole singular integral against the quadrature oracle."""
    rng = np.random.default_rng(20260801)
    worst = 0.0
    for t_norm in (0.0, 1.0, 3.0):
        model = _hilbert(t_norm)
        for _ in range(10):
            w = complex(rng.uniform(0.6, 2.0), rng.uniform(-2.0, 2.0))
            closed = singular_line_integral(model, poles(model, w).s_plus)
            oracle, _ = singular_line_quadrature(model, w, T=1e5, tol=1e-12)
            worst = max(worst, _rel(closed, oracle))
    return CriterionResult(
        "1", "simple-pole singular integral vs quadrature", worst <= 1e-8, worst, 1e-8
    )


def criterion_double_pole() -> CriterionResult:
    """a-explicit double-pole closed form against quadrature; ratio to printed form."""
    rng = np.random.default_rng(20260802)
    worst = 0.0
    ratios = []
    for t_f in (0.0, 0.7, 1.3, 2.0):
        model = SpectralModel.gl3_cuspidal(t_f)
        for _ in range(5):
            w = complex(rng.uniform(0.6, 2.0), rng.uniform(-2.0, 2.0))
            s_star = poles(model, w).s_plus
            closed = singular_line_integral(model, s_star)
            oracle, _ = singular_line_quadrature(model, w, T=1e5, tol=1e-12)
            worst = max(worst, _rel(closed, oracle))
            printed = 4j * np.pi / (2.0 * s_star - 1.0) ** 3
            ratios.append(closed / printed)
    ratio = np.mean(ratios)
    detail = (
        f"a-explicit form / printed 4pi*i/(2s-1)^3 form = {ratio.real:.12g} "
        f"(expected 1/36 = {1/36:.12g})"
    )
    ok = worst <= 1e-6 and abs(ratio - 1.0 / 36.0) < 1e-12
    return CriterionResult("2", "double-pole singular integral vs quadrature", ok, worst, 1e-6, detail)


def criterion_planar_singular() -> CriterionResult:
    """pi/w^2 against the radial quadrature oracle."""
    rng = np.random.default_rng(20260803)
    worst = 0.0
    for _ in range(20):
        w = complex(rng.uniform(0.1, 3.0), rng.uniform(-3.0, 3.0))
        closed = planar_singular_integral(w)
        oracle, _ = radial_singular_quadrature(w)
        worst = max(worst, _rel(closed, oracle))
    return CriterionResult(
        "3", "planar singular integral vs radial quadrature", worst <= 1e-6, worst, 1e-6
    )


def criterion_branching_hilbert() -> CriterionResult:
    """Pathwise-continuation difference equals the 4pi*i correction term."""
    rng = np.random.default_rng(20260804)
    numerator = Numerator.synthetic_gaussian()
    worst = 0.0
    for _ in range(10):
        t_norm = rng.uniform(0.5, 4.0)
        model = _hilbert(t_norm)
        root_c = np.sqrt(model.c)
        w_end = complex(rng.uniform(0.1, 0.4), 1.15 * root_c + rng.uniform(0.0, 0.4))
        path1, path2 = _crossing_paths(model.c, w_end)
        diff, term = branching_difference(numerator, model, w_end, path1, path2, T=40.0)
        worst = max(worst, _rel(diff, term.term_value))
    return CriterionResult(
        "4", "branching difference vs closed form (simple pole)", worst <= 1e-6, worst, 1e-6
    )


def criterion_branching_gl3() -> CriterionResult:
    """Same protocol against the a-explicit 8pi*i form for double poles."""
    rng = np.random.default_rng(20260805)
    numerator = Numerator.synthetic_gaussian()
    worst = 0.0
    for t_f in (0.0, 1.0, 2.0):
        model = SpectralModel.gl3_cuspidal(t_f)
        root_c = np.sqrt(model.c)
        w_end = complex(rng.uniform(0.1, 0.4), 1.15 * root_c + rng.uniform(0.0, 0.3))
        path1, path2 = _crossing_paths(model.c, w_end)
        diff, term = branching_difference(numerator, model, w_end, path1, path2, T=40.0)
        worst = max(worst, _rel(diff, term.term_value))
    detail = "coefficient is 8pi*i/(a^2 (1-2s*)^3); printed form omits 1/a^2 = 1/36 (criterion 2)"
    return CriterionResult(
        "5", "branching difference vs closed form (double pole)", worst <= 1e-6, worst, 1e-6, detail
    )


def criterion_no_branching() -> CriterionResult:
    """(a) trivial-character continuation with the Eisenstein numerator;
    (b) planar continuation across the imaginary axis."""
    base = UpperHalfPoint(0.0, 1.0)
    numerator = Numerator.eisenstein_product_gl2(base, base, n_terms=30)
    model = SpectralModel.gl2q()
    w_end = 0.2 + 0.9j
    results = []
    for height in (0.7, 1.5):
        path = WPath((1.3 + 0.0j, 1.3 + 1j * height, 0.2 + 1j * height, w_end))
        results.append(continue_integral(numerator, model, path, T=25.0, tol=1e-10))
    r1, r2 = results
    worst_a = _rel(r1.endpoint_value, r2.endpoint_value)
    expected_term = complex(numerator(w_end)) * 4j * np.pi / (1.0 - 2.0 * w_end)
    term_err = _rel(r1.corrections[0].term_value, expected_term) if r1.corrections else np.inf
    pole_err = abs(r1.corrections[0].s_star - w_end) if r1.corrections else np.inf

    gaussian2d = lambda x, y: np.exp(-(x**2 + y**2))
    report1 = verify_no_branching_planar(gaussian2d, 1.0 + 0.5j, tol=1e-6)
    bump2d = lambda x, y: (x**2 + y**2) * np.exp(-(x**2 + y**2))
    report2 = verify_no_branching_planar(bump2d, 0.8 + 0.3j, tol=1e-6)
    worst_b = max(abs(report1.difference), abs(report2.difference))

    worst = max(worst_a, term_err, pole_err, worst_b)
    ok = worst_a <= 1e-8 and term_err <= 1e-8 and pole_err <= 1e-8 and worst_b <= 1e-6
    detail = (
        f"path agreement {worst_a:.3g}, correction term {term_err:.3g}, "
        f"planar cancellation {worst_b:.3g}"
    )
    return CriterionResult("6", "no-branching checks (trivial character, planar)", ok, worst, 1e-6, detail)


def criterion_winding() -> CriterionResult:
    """:func:`paths.branch_sign`'s closed-form rule against the parity of a root
    tracked by continuity alone along :func:`paths.radicand_curve`'s samples."""
    mags = np.concatenate((np.linspace(0.2, 0.95, 5), np.linspace(1.05, 3.0, 5)))
    alphas = np.concatenate((mags, -mags))
    disagreements = 0
    total = 0
    for t_norm in (0.5, 1.0, 1.7, 2.6, 4.0):
        model = _hilbert(t_norm)
        for alpha in alphas.tolist():
            total += 1
            span = 1.5 * abs(alpha) * t_norm + 1.0
            height = alpha * t_norm
            path = WPath((complex(0.5 + span, height), complex(0.5 - span, height)))
            flips = branch_sign(model, path).final_sign == -1
            samples, _ = radicand_curve(t_norm, alpha, (-span, span), step=0.02)
            if flips != (track_sqrt(samples).cut_crossings % 2 == 1):
                disagreements += 1
    return CriterionResult(
        "7",
        f"winding criterion vs branch parity on {total} grid points",
        disagreements == 0,
        float(disagreements),
        0.0,
    )


def criterion_eigenvalue_consistency() -> CriterionResult:
    """Both Casimir parametrizations agree; cuspidal-data reduction holds."""
    rng = np.random.default_rng(20260808)
    # one row (Re, Im, Re, Im) of two parameters per sample, in draw order
    u = rng.uniform(-3.0, 3.0, (10_000, 4))
    s1, s2 = u[:, 0] + 1j * u[:, 1], u[:, 2] + 1j * u[:, 3]
    via_root = eigenvalue_minparabolic_root(s1, s1 + s2, 0.0)
    via_power = eigenvalue_minparabolic_power(s1, s2, -s1 - s2)
    u = rng.uniform(-3.0, 3.0, (10_000, 4))
    s_f, s = u[:, 0] + 1j * u[:, 1], u[:, 2] + 1j * u[:, 3]
    reduced = eigenvalue_minparabolic_power(s_f + s, -s_f + s, -2.0 * s)
    target = 2.0 * (s_f * (s_f - 1.0) + 3.0 * s * (s - 1.0))
    worst = float(max(np.max(_rel(via_root, via_power)), np.max(_rel(reduced, target))))
    return CriterionResult(
        "8", "Casimir parametrization consistency on 10^4 samples", worst <= 1e-12, worst, 1e-12
    )


def fit_fourier_constants() -> tuple[complex, complex, float]:
    """(C1, C2) of the Fourier expansion fitted to the coset sum; fit residual.

    Linear least squares at Re(s) >= 3, where the truncated coset sum is
    converged to near machine precision.  The residual is relative to
    max(1, largest right-hand side).
    """
    points = [
        (3.0, UpperHalfPoint(0.28, 1.10)),
        (3.5, UpperHalfPoint(0.28, 1.10)),
        (4.0, UpperHalfPoint(-0.17, 0.90)),
    ]
    rows, rhs = [], []
    for s, z in points:
        xi_2s, xi_2s1, acc = _fourier_pieces(np.array([complex(s)]), z, n_terms=40)
        rows.append([xi_2s1[0] * z.y ** (1.0 - s) / xi_2s[0], np.sqrt(z.y) * acc[0] / xi_2s[0]])
        rhs.append(eisenstein_gl2(EisensteinParams(s, mode="lattice_sum"), z) - z.y**s)
    basis, target = np.array(rows), np.array(rhs)
    coeffs, *_ = np.linalg.lstsq(basis, target, rcond=None)
    residual = float(np.max(np.abs(basis @ coeffs - target))) / max(1.0, float(np.max(np.abs(target))))
    return complex(coeffs[0]), complex(coeffs[1]), residual


def criterion_eisenstein() -> CriterionResult:
    """Fitted Fourier constants, Fourier vs coset-sum agreement, modular invariance."""
    c1, c2, residual = fit_fourier_constants()
    constants = max(abs(c1 - FOURIER_CONSTANTS[0]), abs(c2 - FOURIER_CONSTANTS[1]), residual)

    worst_modes = 0.0
    for s in (2.0, 2.5, 3.0, 2.0 + 1j, 2.5 + 1j, 3.0 + 1j):
        for z in (UpperHalfPoint(0.0, 1.0), UpperHalfPoint(0.3, 1.2)):
            lattice = eisenstein_gl2(EisensteinParams(s, mode="lattice_sum"), z)
            fourier = eisenstein_gl2(EisensteinParams(s), z)
            worst_modes = max(worst_modes, _rel(lattice, fourier))

    rng = np.random.default_rng(20260809)
    worst_inv = 0.0
    for _ in range(5):
        z = complex(rng.uniform(-0.45, 0.45), rng.uniform(0.8, 1.5))
        s = 0.5 + 1j * rng.uniform(0.5, 8.0)
        here = eisenstein_gl2(EisensteinParams(s), UpperHalfPoint(z.real, z.imag))
        for gz in (z + 1.0, -1.0 / z):
            there = eisenstein_gl2(EisensteinParams(s), UpperHalfPoint(gz.real, gz.imag))
            worst_inv = max(worst_inv, abs(there - here) / abs(here))

    ok = constants <= 1e-9 and worst_modes <= 1e-6 and worst_inv <= 1e-8
    detail = (
        f"fitted (C1, C2) vs pinned {FOURIER_CONSTANTS} {constants:.3g} (tol 1e-9), "
        f"mode agreement {worst_modes:.3g} (tol 1e-6), invariance {worst_inv:.3g} (tol 1e-8)"
    )
    worst = max(constants, worst_modes, worst_inv)
    return CriterionResult("9", "Eisenstein evaluator modes and invariance", ok, worst, 1e-6, detail)


CRITERIA = {
    "1": criterion_simple_pole,
    "2": criterion_double_pole,
    "3": criterion_planar_singular,
    "4": criterion_branching_hilbert,
    "5": criterion_branching_gl3,
    "6": criterion_no_branching,
    "7": criterion_winding,
    "8": criterion_eigenvalue_consistency,
    "9": criterion_eisenstein,
}

SUITES = {
    "singular-integrals": ("1", "2"),
    "planar": ("3",),
    "branching": ("4", "5"),
    "no-branching": ("6",),
    "winding": ("7",),
    "eigenvalues": ("8",),
    "eisenstein": ("9",),
    "all": tuple(CRITERIA),
}


def run_criteria(idents) -> list[CriterionResult]:
    return [CRITERIA[i]() for i in idents]
