"""Eigenvalue families, their poles, and branch points.

Each model kind carries an eigenvalue map lambda(s) satisfying the
factorization

    lambda(s) - lambda(w) = a * ((s - 1/2)^2 - (w - 1/2)^2 - c)

with leading coefficient ``a``, radicand offset ``c``, and pole order ``nu``.
The integrand 1/(lambda(s) - lambda(w))^nu on the critical line then has
poles at s = 1/2 +- sqrt((w - 1/2)^2 + c), and the branch points in w sit at
1/2 +- i sqrt(c).
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import BranchAmbiguityError, InvalidCharacterError, ValidationError


class ModelKind(str, enum.Enum):
    GL2Q = "GL2Q"
    HILBERT_MAASS = "HilbertMaass"
    GL3_CUSPIDAL = "GL3Cuspidal"


@dataclass(frozen=True, slots=True)
class GrossencharParams:
    """Real parameters (t_1, ..., t_n) of an unramified grossencharacter.

    The components must sum to zero; the squared norm is the mean of the
    squared components.  All components zero means the trivial character.
    """

    t: tuple[float, ...]

    def __post_init__(self):
        t = tuple(float(x) for x in self.t)
        object.__setattr__(self, "t", t)
        if len(t) < 1:
            raise InvalidCharacterError("need at least one character parameter")
        if not all(math.isfinite(x) for x in t):
            raise InvalidCharacterError(f"character parameters must be finite, got {t}")
        total = sum(t)
        if abs(total) > 1e-14 * max(1.0, sum(abs(x) for x in t)):
            raise InvalidCharacterError(f"character parameters must sum to 0, got {total!r}")

    @property
    def n(self) -> int:
        return len(self.t)

    @property
    def norm_sq(self) -> float:
        return float(sum(x * x for x in self.t) / len(self.t))


@dataclass(frozen=True, slots=True)
class SpectralModel:
    """An eigenvalue family lambda(s) with factorization data (a, c, nu).

    ``a`` is the leading coefficient of lambda(s) - lambda(w) in (s - 1/2)^2,
    ``c`` the radicand offset (the poles sit at 1/2 +- sqrt((w - 1/2)^2 + c))
    and ``nu`` the pole order of the spectral integrand.  They are worked out
    from the kind once, when the model is built.
    """

    kind: ModelKind
    chi: Optional[GrossencharParams] = None
    t_f: complex = 0.0
    a: float = field(init=False, repr=False, compare=False)
    c: float = field(init=False, repr=False, compare=False)
    nu: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "kind", ModelKind(self.kind))
        object.__setattr__(self, "t_f", complex(self.t_f))
        if self.kind is ModelKind.HILBERT_MAASS and self.chi is None:
            raise ValidationError("HilbertMaass model requires grossencharacter parameters")
        if self.kind is ModelKind.GL3_CUSPIDAL:
            t_f = self.t_f
            if not cmath.isfinite(t_f):
                raise ValidationError(f"t_f must be finite, got {t_f}")
            real_ok = t_f.imag == 0.0
            imag_ok = t_f.real == 0.0 and -0.5 <= t_f.imag <= 0.0
            if not (real_ok or imag_ok):
                raise ValidationError(
                    f"t_f must be real or in -i[0, 1/2], got {t_f}"
                )
        if self.kind is ModelKind.GL2Q:
            a, c, nu = 1.0, 0.0, 1
        elif self.kind is ModelKind.HILBERT_MAASS:
            a, c, nu = 1.0, self.chi.norm_sq, 1
        else:
            a, c, nu = 6.0, float(((self.t_f**2 + 0.25) / 3.0).real), 2
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "nu", nu)

    # -- factory helpers -------------------------------------------------

    @classmethod
    def gl2q(cls) -> "SpectralModel":
        return cls(ModelKind.GL2Q)

    @classmethod
    def hilbert_maass(cls, chi: GrossencharParams) -> "SpectralModel":
        return cls(ModelKind.HILBERT_MAASS, chi=chi)

    @classmethod
    def gl3_cuspidal(cls, t_f: complex) -> "SpectralModel":
        return cls(ModelKind.GL3_CUSPIDAL, t_f=t_f)

    # -- serialization ----------------------------------------------------

    def as_dict(self) -> dict:
        d: dict = {"kind": self.kind.value}
        if self.kind is ModelKind.HILBERT_MAASS:
            d["t"] = list(self.chi.t)
        if self.kind is ModelKind.GL3_CUSPIDAL:
            d["t_f"] = [self.t_f.real, self.t_f.imag]
        d["a"] = self.a
        d["c"] = self.c
        d["nu"] = self.nu
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "SpectralModel":
        try:
            kind = ModelKind(d["kind"])
            own = {ModelKind.GL2Q: (), ModelKind.HILBERT_MAASS: ("t",),
                   ModelKind.GL3_CUSPIDAL: ("t_f",)}[kind]
            _known_fields(d, "model", ("kind", *own, "a", "c", "nu"))
            if kind is ModelKind.GL2Q:
                model = cls.gl2q()
            elif kind is ModelKind.HILBERT_MAASS:
                model = cls.hilbert_maass(GrossencharParams(_json_reals(d["t"], "model", "t")))
            else:
                model = cls.gl3_cuspidal(_json_complex(d.get("t_f", 0.0), "model", "t_f"))
            for key in ("a", "c", "nu"):
                if key in d:
                    got = getattr(model, key)
                    if abs(got - _json_real(d[key], "model", key)) > 1e-12 * max(1.0, abs(got)):
                        raise ValidationError(
                            f"descriptor field {key}={d[key]} inconsistent with kind "
                            f"(expected {got})"
                        )
        except ValidationError:
            raise
        except (KeyError, TypeError, ValueError, IndexError, OverflowError) as exc:
            raise ValidationError(f"bad model descriptor: {exc!r}") from exc
        return model


# -- descriptor fields ---------------------------------------------------------


def _is_json_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _known_fields(d: dict, what: str, fields: tuple) -> None:
    """Refuse the first descriptor field that its kind does not read."""
    for key in d:
        if key not in fields:
            raise ValidationError(
                f"bad {what} descriptor: unknown field {key!r} for kind {d['kind']!r}"
            )


def _json_real(value, what: str, name: str):
    """A descriptor field that must be a JSON number: not a boolean, not a string."""
    if not _is_json_number(value):
        raise ValidationError(f"bad {what} descriptor: {name} must be a number, got {value!r}")
    return value


def _json_reals(value, what: str, name: str, n: Optional[int] = None) -> tuple:
    """A descriptor field that must be a JSON list of numbers (of length n)."""
    if not (isinstance(value, list) and n in (None, len(value))
            and all(map(_is_json_number, value))):
        size = "" if n is None else f"{n} "
        raise ValidationError(
            f"bad {what} descriptor: {name} must be a list of {size}numbers, got {value!r}"
        )
    return tuple(value)


def _json_complex(value, what: str, name: str) -> complex:
    """A descriptor field that must be a JSON number or a [re, im] pair of numbers."""
    if isinstance(value, list) and len(value) == 2 and all(map(_is_json_number, value)):
        return complex(value[0], value[1])
    if not _is_json_number(value):
        raise ValidationError(
            f"bad {what} descriptor: {name} must be a number or a [re, im] pair of numbers, "
            f"got {value!r}"
        )
    return complex(value)


@dataclass(frozen=True, slots=True)
class PolePair:
    """The two poles of the spectral integrand; they always sum to 1."""

    s_plus: complex
    s_minus: complex


def eigenvalue(model: SpectralModel, s):
    """Laplace eigenvalue lambda(s) for the given model, elementwise on arrays.

    The Hilbert-Maass branch computes the literal product-sum over the
    character parameters rather than the collapsed quadratic form, so it
    shares nothing with :func:`denominator`.  The products are written out in
    real arithmetic, in the order of the complex products
    (s + i t)(s + i t - 1), 3s(s - 1), ... of Python's scalar complex type,
    so each element equals the scalar evaluation bit for bit.  A scalar (or
    0-d) s gives a Python complex.
    """
    z = np.asarray(s, dtype=complex)
    x, y = z.real, z.imag
    xm = x - 1.0
    if model.kind is ModelKind.GL2Q:
        re, im = x * xm - y * y, x * y + y * xm
    elif model.kind is ModelKind.HILBERT_MAASS:
        re = im = 0.0
        for t in model.chi.t:
            v = y + t
            re = re + (x * xm - v * v)
            im = im + (x * v + v * xm)
        re, im = re / model.chi.n, im / model.chi.n
    else:
        s_f = 0.5 + 1j * model.t_f
        k = s_f * (s_f - 1.0)
        x3, y3 = 3.0 * x, 3.0 * y
        re = 2.0 * (k.real + (x3 * xm - y3 * y))
        im = 2.0 * (k.imag + (x3 * y + y3 * xm))
    if z.ndim == 0:
        return complex(re, im)
    out = np.empty(z.shape, dtype=complex)
    out.real, out.imag = re, im
    return out


def lambda_w(model: SpectralModel, w: complex) -> complex:
    """Spectral parameter lambda(w): w(w-1) in rank one, 6w(w-1) for GL3 cuspidal data."""
    w = complex(w)
    return model.a * w * (w - 1.0)


def denominator(model: SpectralModel, s, w: complex):
    """lambda(s) - lambda(w), via the factorized form for numerical stability.

    Accepts an array of s values.
    """
    return model.a * ((np.asarray(s, dtype=complex) - 0.5) ** 2 - radicand(model, w))


def eigenvalue_minparabolic_power(s1, s2, s3):
    """Casimir eigenvalue from diagonal-power character exponents (s1, s2, s3).

    Requires s1 + s2 + s3 = 0 and evaluates 2(s1^2 + s1 s2 + s2^2 - 2 s1 - s2),
    elementwise on arrays; scalars give a complex.
    """
    s1, s2, s3 = (np.asarray(v, dtype=complex) for v in (s1, s2, s3))
    trace = s1 + s2 + s3
    bad = np.abs(trace) > 1e-12 * np.maximum(1.0, np.abs(s1) + np.abs(s2) + np.abs(s3))
    if np.any(bad):
        raise InvalidCharacterError(f"character exponents must sum to 0, got {trace[bad].flat[0]}")
    out = 2.0 * (s1 * s1 + s1 * s2 + s2 * s2 - 2.0 * s1 - s2)
    return complex(out) if out.ndim == 0 else out


def eigenvalue_minparabolic_root(s_alpha, s_beta, s_alphabeta):
    """Casimir eigenvalue from positive-root coefficients of the character.

    Elementwise on arrays; scalars give a complex.
    """
    sa, sb, sab = (np.asarray(v, dtype=complex) for v in (s_alpha, s_beta, s_alphabeta))
    out = 2.0 * (sa * sa + sb * sb - sa * sb + sa * sab + sb * sab - sa - sb - 2.0 * sab)
    return complex(out) if out.ndim == 0 else out


def radicand(model: SpectralModel, w):
    """(w - 1/2)^2 + c, the quantity under the square root in the pole formula.

    A scalar w gives a Python complex.  An array is computed in real
    arithmetic, Re = (u^2 - v^2) + c and Im = 2uv with u = Re w - 1/2 and
    v = Im w, so each element equals the scalar call bit for bit on every
    CPU; numpy's dispatched complex multiply may fuse a product into a sum.
    """
    if isinstance(w, (int, float, complex)):
        u = complex(w) - 0.5
        return u * u + model.c
    w = np.asarray(w, dtype=complex)
    u, v = w.real - 0.5, w.imag
    out = np.empty(w.shape, dtype=complex)
    out.real = (u * u - v * v) + model.c
    out.imag = 2.0 * u * v + 0.0  # + 0.0 makes Im -0.0 +0.0, as the scalar sum with c does
    return out


def poles(model: SpectralModel, w: complex) -> PolePair:
    """Reference-branch poles 1/2 +- sqrt((w - 1/2)^2 + c) of the integrand.

    The principal root puts s_plus right of the critical line; for
    Re(w) > 1/2 this is the pole the regularization subtracts at.  A
    radicand on the branch cut has no unambiguous reference branch and the
    caller must continue along an explicit path instead.
    """
    q = radicand(model, w)
    if q.real <= 0.0 and abs(q.imag) <= 1e-14 * (1.0 + abs(q)):
        raise BranchAmbiguityError(
            f"radicand {q} on the branch cut; use a pathwise continuation"
        )
    root = np.sqrt(complex(q))
    return PolePair(s_plus=0.5 + root, s_minus=0.5 - root)


def branch_points(model: SpectralModel) -> tuple[complex, complex]:
    """The pair 1/2 +- i sqrt(c) where the two integrand poles collide."""
    root = math.sqrt(model.c)
    return (complex(0.5, root), complex(0.5, -root))
