"""Symmetric integrand numerators for the line integrals.

All numerators satisfy N(s) = N(1 - s).  The synthetic Gaussian is entire
with Gaussian decay on the critical line; the Eisenstein product uses the
completed normalization (so each factor satisfies the functional equation
exactly and the product decays exponentially on the line).  A constant is
admissible for both pole orders: its integrand decays like |Im s|^(-2 nu), so
the full-line integral converges, and ``continue`` adds its part beyond the
truncation height T in closed form.  Non-finite fields are refused, and so
are descriptor fields of the wrong JSON type and fields the kind does not
read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .eisenstein import UpperHalfPoint, eisenstein_gl2_completed
from .errors import ValidationError
from .models import _is_json_number, _json_complex, _json_real, _json_reals, _known_fields


@dataclass(frozen=True, slots=True)
class Numerator:
    """A symmetric numerator N(s); call it on scalars or arrays of s."""

    kind: str
    scale: complex = 1.0
    value: complex = 1.0
    width: float = 1.0
    z0: Optional[UpperHalfPoint] = None
    z: Optional[UpperHalfPoint] = None
    n_terms: int = 30

    _KINDS = ("constant", "gaussian", "eisenstein_product")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValidationError(f"unknown numerator kind {self.kind!r}")
        for name in ("scale", "value", "width"):
            if not np.isfinite(getattr(self, name)):
                raise ValidationError(f"numerator {name} must be finite, got {getattr(self, name)}")
        if self.kind == "gaussian" and not self.width > 0:
            raise ValidationError(f"gaussian width must be positive, got {self.width}")
        if self.kind == "eisenstein_product" and (self.z0 is None or self.z is None):
            raise ValidationError("eisenstein_product numerator needs both base points")

    @classmethod
    def constant(cls, value: complex = 1.0, scale: complex = 1.0) -> "Numerator":
        return cls(kind="constant", value=complex(value), scale=complex(scale))

    @classmethod
    def synthetic_gaussian(cls, width: float = 1.0, scale: complex = 1.0) -> "Numerator":
        return cls(kind="gaussian", width=float(width), scale=complex(scale))

    @classmethod
    def eisenstein_product_gl2(
        cls,
        z0: UpperHalfPoint,
        z: UpperHalfPoint,
        n_terms: int = 30,
        scale: complex = 1.0,
    ) -> "Numerator":
        return cls(kind="eisenstein_product", z0=z0, z=z, n_terms=n_terms, scale=complex(scale))

    def __call__(self, s):
        scalar = np.isscalar(s) or getattr(s, "ndim", 1) == 0
        sv = np.atleast_1d(np.asarray(s, dtype=complex))
        if self.kind == "constant":
            out = np.full(sv.shape, self.value, dtype=complex)
        elif self.kind == "gaussian":
            out = np.exp(((sv - 0.5) / self.width) ** 2)
        else:
            # E*(1-s, z0) = E*(s, z0) by the functional equation, so with
            # z0 = z both factors share one evaluation
            out = eisenstein_gl2_completed(sv, self.z, self.n_terms)
            if self.z0 == self.z:
                out = out * out
            else:
                out = out * eisenstein_gl2_completed(sv, self.z0, self.n_terms)
        out = self.scale * out
        return complex(out[0]) if scalar else out

    @classmethod
    def from_dict(cls, d: dict) -> "Numerator":
        """A numerator from its JSON descriptor; refuses wrong JSON types and unknown fields."""
        try:
            kind = d["kind"]
            if kind in cls._KINDS:
                own = {"constant": ("value",), "gaussian": ("width",),
                       "eisenstein_product": ("z0", "z", "n_terms")}[kind]
                _known_fields(d, "numerator", ("kind", "scale", *own))
            scale = _json_complex(d.get("scale", 1.0), "numerator", "scale")
            if kind == "constant":
                return cls.constant(_json_complex(d.get("value", 1.0), "numerator", "value"), scale)
            if kind == "gaussian":
                width = _json_real(d.get("width", 1.0), "numerator", "width")
                return cls.synthetic_gaussian(width, scale)
            if kind == "eisenstein_product":
                z0 = UpperHalfPoint(*_json_reals(d["z0"], "numerator", "z0", 2))
                z = UpperHalfPoint(*_json_reals(d["z"], "numerator", "z", 2))
                n_terms = d.get("n_terms", 30)
                if not (_is_json_number(n_terms) and isinstance(n_terms, int) and n_terms >= 0):
                    raise ValidationError(
                        f"bad numerator descriptor: n_terms must be a non-negative integer, "
                        f"got {n_terms!r}"
                    )
                return cls.eisenstein_product_gl2(z0, z, n_terms, scale)
        except ValidationError:
            raise
        except (KeyError, TypeError, ValueError, IndexError, OverflowError) as exc:
            raise ValidationError(f"bad numerator descriptor: {exc!r}") from exc
        raise ValidationError(f"unknown numerator kind {kind!r}")
