"""Branch-tracked continuation of spectral integrals with movable poles."""

from .continuation import (
    ContinuationResult,
    CorrectionTerm,
    branching_difference,
    continue_integral,
    continue_pole,
)
from .eisenstein import (
    EisensteinParams,
    UpperHalfPoint,
    bessel_k,
    eisenstein_gl2,
    eisenstein_gl2_completed,
    zeta,
)
from .models import (
    GrossencharParams,
    ModelKind,
    PolePair,
    SpectralModel,
    branch_points,
    eigenvalue,
    eigenvalue_minparabolic_power,
    eigenvalue_minparabolic_root,
    poles,
)
from .numerators import Numerator
from .paths import (
    BranchTrace,
    CurveSamples,
    WPath,
    radicand_curve,
    sample_path,
    track_sqrt,
)
from .planar import (
    RegularizedResult,
    circle_average,
    planar_direct_integral,
    planar_regularized_integral,
    planar_singular_integral,
    verify_no_branching_planar,
)
from .quadrature import adaptive_line_quadrature, singular_line_integral

__version__ = "0.1.0"
