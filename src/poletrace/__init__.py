"""Branch-tracked continuation of spectral integrals with movable poles.

The names below are resolved on first use (PEP 562), so importing the
package loads none of its modules, and a command loads only the ones it
runs.  A resolved name is cached in the package namespace, so later
lookups are plain attribute reads; the modules themselves resolve too
(``poletrace.quadrature``).
"""

import importlib

_EXPORTS = {
    "continuation": ("ContinuationResult", "CorrectionTerm", "branching_difference",
                     "continue_integral", "continue_pole"),
    "eisenstein": ("EisensteinParams", "UpperHalfPoint", "bessel_k", "eisenstein_gl2",
                   "eisenstein_gl2_completed", "zeta"),
    "models": ("GrossencharParams", "ModelKind", "PolePair", "SpectralModel", "branch_points",
               "eigenvalue", "eigenvalue_minparabolic_power", "eigenvalue_minparabolic_root",
               "poles"),
    "numerators": ("Numerator",),
    "paths": ("BranchTrace", "CurveSamples", "WPath", "radicand_curve", "sample_path",
              "track_sqrt"),
    "planar": ("RegularizedResult", "circle_average", "planar_direct_integral",
               "planar_regularized_integral", "planar_singular_integral",
               "verify_no_branching_planar"),
    "quadrature": ("adaptive_line_quadrature", "singular_line_integral"),
}
_MODULES = ("cli", "continuation", "eisenstein", "errors", "models", "numerators", "paths",
            "planar", "quadrature", "verify")
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_MODULES})
