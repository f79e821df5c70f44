"""Command-line front end.

Subcommands: branch-points, trace, continue, diff, verify, curve, plus
eval-eisenstein for debugging point evaluations.  Model and numerator
descriptors are JSON files; paths are inline waypoint strings like
"1.2,0;1.2,2;0.25,2.5".  A flat key = value config file with JSON values
(see :data:`_CONFIG_KEYS`) may give model, numerator, path, path2, w-end,
out, T, tol and step; its values become the sub-parsers' defaults, so
command-line flags win and every command reads its settings from the parsed
arguments alone.  All emitted JSON fixes floating-point formatting at 17
significant digits and files are written atomically, so reruns are
byte-identical.

Exit codes: 0 success, 1 validation error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import cmath
import json
import os
import sys
import tempfile
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import NumericalError, PoletraceError, ValidationError
from .models import SpectralModel, branch_points
from .numerators import Numerator

# the handlers import the rest of the package, so a command loads only what it runs
if TYPE_CHECKING:
    from .paths import WPath


def _parse_complex(text: str, name: str) -> complex:
    try:
        re_s, im_s = text.split(",")
        value = complex(float(re_s), float(im_s))
    except Exception as exc:
        raise ValidationError(f"expected 're,im', got {text!r}") from exc
    if not cmath.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {text!r}")
    return value


def _parse_path(text: str | None, key: str = "path", label: str = "") -> WPath:
    from .paths import WPath

    if text is None:
        raise ValidationError(f"no path given (flag --{key} or config key {key!r})")
    points = tuple(_parse_complex(part, "path point") for part in text.split(";") if part.strip())
    return WPath(points, label=label)


def _fmt_float(x: float) -> str:
    return f"{x:.17g}"


def _dump_json(obj, indent: int = 0) -> str:
    """Minimal JSON emitter with fixed 17-significant-digit floats."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f'{pad}  "{k}": {_dump_json(v, indent + 1)}' for k, v in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        return "[" + ", ".join(_dump_json(v, indent) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if obj is None:
        return "null"
    return json.dumps(str(obj))


def _write_atomic(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv(path: Path, samples) -> None:
    lines = ["k,re,im"]
    lines += [f"{k},{_fmt_float(z.real)},{_fmt_float(z.imag)}" for k, z in enumerate(samples)]
    _write_atomic(path, "\n".join(lines) + "\n")


def _write_svg(path: Path, samples, width: int = 640, height: int = 480) -> None:
    xs = np.array([z.real for z in samples])
    ys = np.array([z.imag for z in samples])
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    spanx = max(x1 - x0, 1e-12)
    spany = max(y1 - y0, 1e-12)
    pts = " ".join(
        f"{(x - x0) / spanx * (width - 20) + 10:.2f},"
        f"{height - 10 - (y - y0) / spany * (height - 20):.2f}"
        for x, y in zip(xs, ys)
    )
    svg = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n'
        f'<polyline fill="none" stroke="black" stroke-width="1" points="{pts}"/>\n'
        "</svg>\n"
    )
    _write_atomic(path, svg)


def _load(spec, from_dict, name: str):
    """A descriptor given inline (an object from the config) or by file name."""
    if spec is None:
        raise ValidationError(f"no {name} given (flag --{name} or config key '{name}')")
    if isinstance(spec, dict):
        return from_dict(spec)
    try:
        with open(spec) as fh:
            return from_dict(json.load(fh))
    except FileNotFoundError as exc:
        raise ValidationError(f"{name} file not found: {spec}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{name} file is not valid JSON: {exc}") from exc


#: every setting a config file may give, with the JSON types it may take
_CONFIG_KEYS = {
    **dict.fromkeys(("model", "numerator"), ((dict, str), "an object or a file name")),
    **dict.fromkeys(("path", "path2", "w-end", "w_end", "out"), ((str,), "a string")),
    **dict.fromkeys(("T", "tol", "step"), ((int, float), "a number")),
}


def _load_config(path: str) -> dict:
    """Flat key = JSON-value settings file, as parser defaults keyed by dest.

    Blank lines and lines starting with '#' are skipped, and a value that is
    not JSON is read as a string.  Every other line must be key = value with
    a key of :data:`_CONFIG_KEYS` and a value of one of its types (a number
    is not a boolean); anything else is refused.  A key that only another
    command reads is accepted, so one file can serve several commands.
    """
    config = {}
    try:
        with open(path) as fh:
            for number, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                key, equals, text = (part.strip() for part in line.partition("="))
                if not equals:
                    raise ValidationError(f"config line {number} is not 'key = value': {line!r}")
                if key not in _CONFIG_KEYS:
                    raise ValidationError(f"unknown config key {key!r}")
                try:
                    value = json.loads(text)
                except json.JSONDecodeError:
                    value = text
                kinds, what = _CONFIG_KEYS[key]
                if isinstance(value, bool) or not isinstance(value, kinds):
                    raise ValidationError(f"setting {key!r} must be {what}, got {value!r}")
                # an integer becomes the float that its flag would give
                config[key.replace("-", "_")] = float(value) if isinstance(value, int) else value
    except FileNotFoundError as exc:
        raise ValidationError(f"config file not found: {path}") from exc
    return config


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with 2; we reserve 2 for numerics
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser(config: dict | None = None) -> _Parser:
    """The parser, with the settings of :func:`_load_config` as its defaults."""
    parser = _Parser(prog="poletrace", description=__doc__.splitlines()[0])
    parser.add_argument("--config", help="flat key = JSON-value settings file")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, run, help_text, out="."):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--out", default=out, help=f"output directory (default {out!r})")
        p.set_defaults(run=run)
        return p

    p = add("branch-points", _cmd_branch_points,
            "print the branch points 1/2 +- i sqrt(c) of a model", out=None)
    p.add_argument("--model")

    p = add("trace", _cmd_trace, "track the integrand pole along a w-path")
    p.add_argument("--model")
    p.add_argument("--path", help="waypoints 're,im;re,im;...'")
    p.add_argument("--step", type=float)

    p = add("continue", _cmd_continue, "continue the spectral integral along a w-path")
    p.add_argument("--model")
    p.add_argument("--numerator")
    p.add_argument("--path")
    p.add_argument("--T", type=float, default=40.0)
    p.add_argument("--tol", type=float, default=1e-11)

    p = add("diff", _cmd_diff, "difference of continuations along two paths")
    p.add_argument("--model")
    p.add_argument("--numerator")
    p.add_argument("--path", help="outside path")
    p.add_argument("--path2", help="inside path")
    p.add_argument("--w-end", dest="w_end")
    p.add_argument("--T", type=float, default=40.0,
                   help="height of the numerator's symmetry probe")

    p = add("verify", _cmd_verify, "run acceptance criterion suites")
    p.add_argument("--suite", default="all",
                   help="criterion suite to run (default 'all'); an unknown name lists them")

    p = add("curve", _cmd_curve, "radicand parabola samples as CSV + SVG")
    p.add_argument("--t-norm", dest="t_norm", type=float, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--sigma-range", dest="sigma_range", default="-3,3")
    p.add_argument("--step", type=float, default=0.01)

    p = add("eval-eisenstein", _cmd_eval_eisenstein,
            "point evaluation of the Eisenstein series (debugging)")
    p.add_argument("--s", required=True, help="spectral parameter 're,im'")
    p.add_argument("--z", required=True, help="upper half-plane point 'x,y'")
    p.add_argument("--mode", default="fourier", choices=("fourier", "lattice_sum"))
    p.add_argument("--n-terms", dest="n_terms", type=int, default=30)
    p.add_argument("--completed", action="store_true",
                   help="evaluate the completed series xi(2s) E(s, z)")

    # last, since a default= given after set_defaults would override it
    for p in sub.choices.values():
        p.set_defaults(**(config or {}))
    return parser


def _cmd_branch_points(args) -> int:
    model = _load(args.model, SpectralModel.from_dict, "model")
    hi, lo = branch_points(model)
    print(f"{_fmt_float(hi.real)} +- {_fmt_float(hi.imag)}i")
    if args.out:
        payload = {"model": model.as_dict(),
                   "branch_points": [[hi.real, hi.imag], [lo.real, lo.imag]]}
        _write_atomic(Path(args.out) / "branch_points.json", _dump_json(payload) + "\n")
    return 0


def _cmd_trace(args) -> int:
    from .continuation import PATH_STEP, continue_pole

    model = _load(args.model, SpectralModel.from_dict, "model")
    step = PATH_STEP if args.step is None else args.step
    trace = continue_pole(model, _parse_path(args.path), step=step)
    out = Path(args.out)
    s_samples = 0.5 + trace.sqrt_samples.samples
    payload = {
        "cut_crossings": trace.cut_crossings,
        "final_sign": trace.final_sign,
        "pole_start": [s_samples[0].real, s_samples[0].imag],
        "pole_end": [s_samples[-1].real, s_samples[-1].imag],
        "n_samples": len(s_samples),
    }
    _write_atomic(out / "trace.json", _dump_json(payload) + "\n")
    _write_csv(out / "trace_s.csv", s_samples)
    print(f"final_sign {trace.final_sign}, cut_crossings {trace.cut_crossings}, "
          f"pole end {complex(s_samples[-1]):.12g}")
    return 0


def _cmd_continue(args) -> int:
    from .continuation import continue_integral

    model = _load(args.model, SpectralModel.from_dict, "model")
    numerator = _load(args.numerator, Numerator.from_dict, "numerator")
    path = _parse_path(args.path)
    result = continue_integral(numerator, model, path, T=args.T, tol=args.tol)
    _write_atomic(Path(args.out) / "continuation.json", _dump_json(result.as_dict()) + "\n")
    print(f"endpoint {result.endpoint_value:.12g}, corrections {len(result.corrections)}")
    return 0


def _cmd_diff(args) -> int:
    from .continuation import branching_difference

    model = _load(args.model, SpectralModel.from_dict, "model")
    numerator = _load(args.numerator, Numerator.from_dict, "numerator")
    path1 = _parse_path(args.path, label="outside")
    path2 = _parse_path(args.path2, "path2", label="inside")
    if args.w_end is None:
        raise ValidationError("no endpoint given (flag --w-end or config key 'w-end')")
    w_end = _parse_complex(args.w_end, "w-end")
    difference, term = branching_difference(numerator, model, w_end, path1, path2, T=args.T)
    payload = {"difference": [difference.real, difference.imag], "closed_form": term.as_dict()}
    _write_atomic(Path(args.out) / "diff.json", _dump_json(payload) + "\n")
    print(f"difference {difference:.12g} at s* {term.s_star:.12g}")
    return 0


def _cmd_verify(args) -> int:
    from .verify import SUITES, run_criteria

    suite = args.suite
    if suite not in SUITES:
        print(f"error: unknown suite {suite!r}; choose from {', '.join(sorted(SUITES))}",
              file=sys.stderr)
        return 1
    results = run_criteria(SUITES[suite])
    for res in results:
        print(res.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return 0 if not failed else 2


def _cmd_curve(args) -> int:
    from .paths import radicand_curve

    lo_s, _, hi_s = args.sigma_range.partition(",")
    try:
        sigma_range = (float(lo_s), float(hi_s))
    except ValueError as exc:
        raise ValidationError(f"bad sigma range {args.sigma_range!r}") from exc
    samples, parabola = radicand_curve(args.t_norm, args.alpha, sigma_range, args.step)
    out = Path(args.out)
    stem = f"curve_t{args.t_norm:g}_a{args.alpha:g}"
    _write_csv(out / f"{stem}.csv", samples.samples)
    _write_svg(out / f"{stem}.svg", samples.samples)
    _write_atomic(out / f"{stem}_parabola.json", _dump_json(parabola.as_dict()) + "\n")
    print(f"wrote {stem}.csv / .svg / _parabola.json "
          f"(a2 {_fmt_float(parabola.a2)}, c0 {_fmt_float(parabola.c0)})")
    return 0


def _cmd_eval_eisenstein(args) -> int:
    from .eisenstein import (EisensteinParams, UpperHalfPoint, eisenstein_gl2,
                             eisenstein_gl2_completed)

    if args.completed and args.mode == "lattice_sum":
        raise ValidationError("--completed evaluates the Fourier expansion, not --mode lattice_sum")
    s = _parse_complex(args.s, "s")
    point = _parse_complex(args.z, "z")
    z = UpperHalfPoint(point.real, point.imag)
    if args.completed:
        value = eisenstein_gl2_completed(s, z, n_terms=args.n_terms)
    else:
        value = eisenstein_gl2(EisensteinParams(s, n_terms=args.n_terms, mode=args.mode), z)
    print(f"{_fmt_float(value.real)} {_fmt_float(value.imag)}")
    return 0


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.config is not None:
            args = _build_parser(_load_config(args.config)).parse_args(argv)
        return args.run(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except PoletraceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
