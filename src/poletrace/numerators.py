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

import cmath
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from .errors import ValidationError
from .models import _is_json_number, _json_complex, _json_real, _json_reals, _known_fields

if TYPE_CHECKING:
    from .eisenstein import UpperHalfPoint

#: Re e up to which ``cmath.exp(e)`` equals numpy's complex exp (libm's cexp):
#: below log(DBL_MAX) - 1 both take exp(Re e) times cos and sin of Im e
_CMATH_EXP_MAX = 708.0


def _exp(e: complex) -> complex:
    """exp(e) with the bits of numpy's complex exp, for a Python complex e.

    The two agree for Re e <= :data:`_CMATH_EXP_MAX` and finite Im e.  Beyond
    that cmath rounds differently next to overflow, raises OverflowError or
    ValueError where numpy returns a non-finite value, so those values take
    numpy's exp.
    """
    if e.real <= _CMATH_EXP_MAX and math.isfinite(e.imag):
        return cmath.exp(e)
    with np.errstate(all="ignore"):
        return complex(np.exp(e))


@dataclass(frozen=True, slots=True)
class Numerator:
    """A symmetric numerator N(s); call it on scalars or arrays of s.

    A constant or Gaussian numerator at a Python scalar s is worked out in
    Python scalar arithmetic and gives a Python complex; an array of s gives
    an array, from the same real operations done elementwise:

        u = (Re s - 1/2) * (1/width),  v = Im s * (1/width),
        g = exp((u*u - v*v) + i (2 (u*v))),
        N = (sr*gr - si*gi) + i (sr*gi + si*gr)   with scale = sr + i si,

    and a constant is the Python product scale * value.  So a scalar and an
    array call agree bit for bit, and no fused multiply-add of numpy's
    dispatched complex loops reaches a value: the bits are the same on every
    x86-64 CPU.  u and v multiply by 1/width because numpy divides a complex
    by a real width that way, so the values keep the bits they had on a CPU
    without fused multiply-adds (up to the sign of a zero).  A value that
    overflows is non-finite on both paths, without a warning; the caller
    refuses it.  The Eisenstein product is evaluated on arrays always, with
    numpy's complex loops.
    """

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
        for name, kind in (("scale", complex), ("value", complex), ("width", float)):
            object.__setattr__(self, name, kind(getattr(self, name)))
            if not cmath.isfinite(getattr(self, name)):
                raise ValidationError(f"numerator {name} must be finite, got {getattr(self, name)}")
        if self.kind == "gaussian" and not self.width > 0:
            raise ValidationError(f"gaussian width must be positive, got {self.width}")
        if self.kind == "eisenstein_product" and (self.z0 is None or self.z is None):
            raise ValidationError("eisenstein_product numerator needs both base points")

    @classmethod
    def constant(cls, value: complex = 1.0, scale: complex = 1.0) -> "Numerator":
        return cls(kind="constant", value=value, scale=scale)

    @classmethod
    def synthetic_gaussian(cls, width: float = 1.0, scale: complex = 1.0) -> "Numerator":
        return cls(kind="gaussian", width=width, scale=scale)

    @classmethod
    def eisenstein_product_gl2(
        cls,
        z0: UpperHalfPoint,
        z: UpperHalfPoint,
        n_terms: int = 30,
        scale: complex = 1.0,
    ) -> "Numerator":
        return cls(kind="eisenstein_product", z0=z0, z=z, n_terms=n_terms, scale=scale)

    def __call__(self, s):
        scalar = isinstance(s, (int, float, complex))
        if self.kind == "constant":
            value = self.scale * self.value
            return value if scalar or np.ndim(s) == 0 else np.full(np.shape(s), value)
        if scalar and self.kind == "gaussian":
            s = complex(s)
            r = 1.0 / self.width
            u, v = (s.real - 0.5) * r, s.imag * r
            return self.scale * _exp(complex(u * u - v * v, 2.0 * (u * v)))
        z = np.asarray(s, dtype=complex)
        with np.errstate(all="ignore"):  # a non-finite value is refused where it is used
            if self.kind == "gaussian":
                r = 1.0 / self.width
                u, v = (z.real - 0.5) * r, z.imag * r
                e = np.empty(z.shape, dtype=complex)
                e.real, e.imag = u * u - v * v, 2.0 * (u * v)
                g = np.exp(e)
            else:
                from .eisenstein import eisenstein_gl2_completed

                # E*(1-s, z0) = E*(s, z0) by the functional equation, so with
                # z0 = z both factors share one evaluation
                sv = np.atleast_1d(z)
                g = eisenstein_gl2_completed(sv, self.z, self.n_terms)
                if self.z0 == self.z:
                    g = g * g
                else:
                    g = g * eisenstein_gl2_completed(sv, self.z0, self.n_terms)
                g = g.reshape(z.shape)
            out = np.empty(z.shape, dtype=complex)
            sr, si = self.scale.real, self.scale.imag
            out.real, out.imag = sr * g.real - si * g.imag, sr * g.imag + si * g.real
        return complex(out) if z.ndim == 0 else out

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
                from .eisenstein import UpperHalfPoint

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
