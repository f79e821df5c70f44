"""Command-line front end.

Subcommands: branch-points, trace, continue, diff, verify, curve, plus
eval-eisenstein for debugging point evaluations.  Model and numerator
descriptors are JSON files; paths are inline waypoint strings like
"1.2,0;1.2,2;0.25,2.5".  Settings (including inline model/numerator/path
descriptors) may also come from a flat key = value config file with JSON
values; command-line flags win.  All emitted JSON fixes floating-point
formatting at 17 significant digits and files are written atomically, so
reruns are byte-identical.

Exit codes: 0 success, 1 validation error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from .continuation import PATH_STEP, branching_difference, continue_integral, continue_pole
from .eisenstein import EisensteinParams, UpperHalfPoint, eisenstein_gl2, eisenstein_gl2_completed
from .errors import NumericalError, PoletraceError, ValidationError
from .models import SpectralModel, branch_points
from .numerators import Numerator
from .paths import WPath, radicand_curve
from .verify import SUITES, run_criteria


def _parse_complex(text: str) -> complex:
    try:
        re_s, im_s = text.split(",")
        return complex(float(re_s), float(im_s))
    except Exception as exc:
        raise ValidationError(f"expected 're,im', got {text!r}") from exc


def _parse_path(text: str, label: str = "") -> WPath:
    points = tuple(_parse_complex(part) for part in text.split(";") if part.strip())
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


def _load(spec: str, from_dict, name: str):
    try:
        with open(spec) as fh:
            return from_dict(json.load(fh))
    except FileNotFoundError as exc:
        raise ValidationError(f"{name} file not found: {spec}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{name} file is not valid JSON: {exc}") from exc


def _load_config(path: str | None) -> dict:
    """Flat key = JSON-value settings file; unknown keys are ignored."""
    if path is None:
        return {}
    config = {}
    try:
        with open(path) as fh:
            for raw in fh:
                line = raw.strip()
                if not line or line.startswith("#") or "=" not in line:
                    continue
                key, _, value = line.partition("=")
                try:
                    config[key.strip()] = json.loads(value.strip())
                except json.JSONDecodeError:
                    config[key.strip()] = value.strip()
    except FileNotFoundError as exc:
        raise ValidationError(f"config file not found: {path}") from exc
    return config


def _setting(args, config, key, default):
    value = getattr(args, key, None)
    if value is not None:
        return value
    return config.get(key.replace("_", "-"), config.get(key, default))


def _resolve(args, config, from_dict, name: str):
    """A descriptor from the --<name> file, or inline or as a file name in the config."""
    if getattr(args, name, None):
        return _load(getattr(args, name), from_dict, name)
    descriptor = config.get(name)
    if isinstance(descriptor, dict):
        return from_dict(descriptor)
    if isinstance(descriptor, str):
        return _load(descriptor, from_dict, name)
    raise ValidationError(f"no {name} given (flag --{name} or config key '{name}')")


def _resolve_path(args, config, attr="path", key="path", label="") -> WPath:
    text = getattr(args, attr, None) or config.get(key)
    if not isinstance(text, str):
        raise ValidationError(f"no path given (flag --{key} or config key {key!r})")
    return _parse_path(text, label=label)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with 2; we reserve 2 for numerics
        self.print_usage(sys.stderr)
        raise SystemExit(self._exit_with(message))

    @staticmethod
    def _exit_with(message) -> int:
        print(f"error: {message}", file=sys.stderr)
        return 1


def _build_parser() -> _Parser:
    parser = _Parser(prog="poletrace", description=__doc__.splitlines()[0])
    parser.add_argument("--config", help="flat key = JSON-value settings file")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--out", help="output directory (default '.')")
        return p

    p = add("branch-points", "print the branch points 1/2 +- i sqrt(c) of a model")
    p.add_argument("--model")

    p = add("trace", "track the integrand pole along a w-path")
    p.add_argument("--model")
    p.add_argument("--path", help="waypoints 're,im;re,im;...'")
    p.add_argument("--step", type=float)

    p = add("continue", "continue the spectral integral along a w-path")
    p.add_argument("--model")
    p.add_argument("--numerator")
    p.add_argument("--path")
    p.add_argument("--T", type=float)
    p.add_argument("--tol", type=float)

    p = add("diff", "difference of continuations along two paths")
    p.add_argument("--model")
    p.add_argument("--numerator")
    p.add_argument("--path", help="outside path")
    p.add_argument("--path2", help="inside path")
    p.add_argument("--w-end", dest="w_end")
    p.add_argument("--T", type=float)
    p.add_argument("--tol", type=float)

    p = add("verify", "run acceptance criterion suites")
    p.add_argument("--suite", default="all", help=f"one of {', '.join(sorted(SUITES))}")

    p = add("curve", "radicand parabola samples as CSV + SVG")
    p.add_argument("--t-norm", dest="t_norm", type=float, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--sigma-range", dest="sigma_range", default="-3,3")
    p.add_argument("--step", type=float)

    p = add("eval-eisenstein", "point evaluation of the Eisenstein series (debugging)")
    p.add_argument("--s", required=True, help="spectral parameter 're,im'")
    p.add_argument("--z", required=True, help="upper half-plane point 'x,y'")
    p.add_argument("--mode", default="fourier", choices=("fourier", "lattice_sum"))
    p.add_argument("--n-terms", dest="n_terms", type=int, default=30)
    p.add_argument("--completed", action="store_true",
                   help="evaluate the completed series xi(2s) E(s, z)")

    return parser


def _cmd_branch_points(args, config) -> int:
    model = _resolve(args, config, SpectralModel.from_dict, "model")
    hi, lo = branch_points(model)
    print(f"{_fmt_float(hi.real)} +- {_fmt_float(hi.imag)}i")
    out = _setting(args, config, "out", None)
    if out:
        payload = {"model": model.as_dict(),
                   "branch_points": [[hi.real, hi.imag], [lo.real, lo.imag]]}
        _write_atomic(Path(out) / "branch_points.json", _dump_json(payload) + "\n")
    return 0


def _cmd_trace(args, config) -> int:
    model = _resolve(args, config, SpectralModel.from_dict, "model")
    path = _resolve_path(args, config)
    step = float(_setting(args, config, "step", PATH_STEP))
    trace = continue_pole(model, path, step=step)
    out = Path(_setting(args, config, "out", "."))
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


def _cmd_continue(args, config) -> int:
    model = _resolve(args, config, SpectralModel.from_dict, "model")
    numerator = _resolve(args, config, Numerator.from_dict, "numerator")
    path = _resolve_path(args, config)
    T = float(_setting(args, config, "T", 40.0))
    tol = float(_setting(args, config, "tol", 1e-11))
    result = continue_integral(numerator, model, path, T=T, tol=tol)
    out = Path(_setting(args, config, "out", "."))
    _write_atomic(out / "continuation.json", _dump_json(result.as_dict()) + "\n")
    print(f"endpoint {result.endpoint_value:.12g}, corrections {len(result.corrections)}")
    return 0


def _cmd_diff(args, config) -> int:
    model = _resolve(args, config, SpectralModel.from_dict, "model")
    numerator = _resolve(args, config, Numerator.from_dict, "numerator")
    path1 = _resolve_path(args, config, label="outside")
    path2 = _resolve_path(args, config, attr="path2", key="path2", label="inside")
    w_end_text = args.w_end or config.get("w-end", config.get("w_end"))
    if not isinstance(w_end_text, str):
        raise ValidationError("no endpoint given (flag --w-end or config key 'w-end')")
    w_end = _parse_complex(w_end_text)
    T = float(_setting(args, config, "T", 40.0))
    tol = float(_setting(args, config, "tol", 1e-11))
    difference, term = branching_difference(numerator, model, w_end, path1, path2, T=T, tol=tol)
    agreement = abs(difference - term.term_value) / max(abs(term.term_value), 1e-300)
    payload = {
        "difference": [difference.real, difference.imag],
        "closed_form": term.as_dict(),
        "relative_agreement": agreement,
    }
    out = Path(_setting(args, config, "out", "."))
    _write_atomic(out / "diff.json", _dump_json(payload) + "\n")
    print(f"difference {difference:.12g}, closed form {term.term_value:.12g}, "
          f"relative agreement {agreement:.3g}")
    return 0


def _cmd_verify(args, config) -> int:
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


def _cmd_curve(args, config) -> int:
    lo_s, _, hi_s = args.sigma_range.partition(",")
    try:
        sigma_range = (float(lo_s), float(hi_s))
    except ValueError as exc:
        raise ValidationError(f"bad sigma range {args.sigma_range!r}") from exc
    step = float(_setting(args, config, "step", 0.01))
    samples, parabola = radicand_curve(args.t_norm, args.alpha, sigma_range, step)
    out = Path(_setting(args, config, "out", "."))
    stem = f"curve_t{args.t_norm:g}_a{args.alpha:g}"
    _write_csv(out / f"{stem}.csv", samples.samples)
    _write_svg(out / f"{stem}.svg", samples.samples)
    _write_atomic(out / f"{stem}_parabola.json", _dump_json(parabola.as_dict()) + "\n")
    print(f"wrote {stem}.csv / .svg / _parabola.json "
          f"(a2 {_fmt_float(parabola.a2)}, c0 {_fmt_float(parabola.c0)})")
    return 0


def _cmd_eval_eisenstein(args, config) -> int:
    s = _parse_complex(args.s)
    point = _parse_complex(args.z)
    z = UpperHalfPoint(point.real, point.imag)
    if args.completed:
        value = eisenstein_gl2_completed(s, z, n_terms=args.n_terms)
    else:
        value = eisenstein_gl2(EisensteinParams(s, n_terms=args.n_terms, mode=args.mode), z)
    print(f"{_fmt_float(value.real)} {_fmt_float(value.imag)}")
    return 0


_COMMANDS = {
    "branch-points": _cmd_branch_points,
    "trace": _cmd_trace,
    "continue": _cmd_continue,
    "diff": _cmd_diff,
    "verify": _cmd_verify,
    "curve": _cmd_curve,
    "eval-eisenstein": _cmd_eval_eisenstein,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        config = _load_config(args.config)
        return _COMMANDS[args.command](args, config)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except PoletraceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
