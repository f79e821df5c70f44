"""The benchmark's workloads: seeded inputs, timed operations and their checks.

Each workload is driven by one single-threaded client in a closed loop.  Its
fixed op set (a *round*) is drawn from ``numpy.random.default_rng([seed, r])``
for round ``r``, so the same seed always gives the same inputs, whatever the
number of rounds a run fits in.  ``Op.run`` is what gets timed; ``Op.check``
runs after the timed loop and compares the result with a reference from
:mod:`reference`, which shares no code with poletrace.  The reference module
is imported only by the checks, after the timed loop, so that its memory
stays out of the measured peak.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import poletrace

ROOT = Path(__file__).resolve().parent.parent
CHILD_TIMEOUT_S = 120.0
#: seed stream indices of the first call and of the accuracy grid; rounds
#: count up from 0 and never reach them
FIRST_CALL_STREAM = 1_000_000
GRID_STREAM = 1_000_001


@dataclass
class Op:
    """One timed call and the check of its result (None when correct)."""

    kind: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]


def _tol(label: str, err: float, tol: float) -> "str | None":
    return None if err <= tol else f"{label}: error {err:.3g} > {tol:g}"


def _first_failure(*results) -> "str | None":
    return next((r for r in results if r is not None), None)


def _rng(seed: int, r: int) -> np.random.Generator:
    return np.random.default_rng([seed, r])


def _crossing_path(height: float, w_end: complex, start: complex) -> poletrace.WPath:
    return poletrace.WPath((start, complex(start.real, height), complex(w_end.real, height), w_end))


def _hilbert(t_norm: float) -> poletrace.SpectralModel:
    return poletrace.SpectralModel.hilbert_maass(poletrace.GrossencharParams((t_norm, -t_norm)))


def _model_desc(model: poletrace.SpectralModel) -> dict:
    if model.kind.value == "HilbertMaass":
        return {"kind": "HilbertMaass", "t": list(model.chi.t)}
    if model.kind.value == "GL3Cuspidal":
        return {"kind": "GL3Cuspidal", "t_f": model.t_f.real}
    return {"kind": model.kind.value}


def _path_pair(rng, c: float, im_span: float) -> tuple[complex, poletrace.WPath, poletrace.WPath]:
    """End point above the branch point, an outside and an inside path to it."""
    root_c = float(np.sqrt(c))
    w_end = complex(rng.uniform(0.1, 0.4), 1.15 * root_c + rng.uniform(0.0, im_span))
    outside = _crossing_path(1.45 * root_c, w_end, 1.2 + 0j)
    inside = _crossing_path(0.5 * root_c, w_end, 1.2 + 0j)
    return w_end, outside, inside


# -- eisenstein-line -------------------------------------------------------


class EisensteinLine:
    """continue_integral with the Eisenstein-product numerator on GL2Q.

    A round is one pair of paths that cross the critical line at different
    heights and end at the same point (the shape of acceptance criterion 6).
    Both continuations are checked against a deformed-contour quadrature of
    a reference E*, and the correction term against the reference E* at the
    end point.
    """

    name = "eisenstein-line"
    min_rounds = 1
    T, TOL, N_TERMS = 16.0, 1e-10, 8

    @staticmethod
    def _base_point(rng) -> poletrace.UpperHalfPoint:
        return poletrace.UpperHalfPoint(rng.uniform(-0.3, 0.3), rng.uniform(0.95, 1.15))

    def first_call(self, seed: int) -> Callable[[], object]:
        rng = _rng(seed, FIRST_CALL_STREAM)
        z = self._base_point(rng)
        numerator = poletrace.Numerator.eisenstein_product_gl2(z, z, n_terms=self.N_TERMS)
        s0 = complex(0.5, rng.uniform(0.5, 4.0))
        return lambda: numerator(s0)

    def round(self, seed: int, r: int, work: Path, trace_dir=None) -> list[Op]:
        rng = _rng(seed, r)
        z = self._base_point(rng)
        # the distance of the pole from the line sets the node count, so the
        # rounds of a run cycle through four strata of it
        w_end = complex(0.2 + 0.025 * (r % 4 + rng.uniform()), rng.uniform(0.8, 1.2))
        heights = (rng.uniform(0.5, 0.75), rng.uniform(1.3, 1.7))
        numerator = poletrace.Numerator.eisenstein_product_gl2(z, z, n_terms=self.N_TERMS)
        model = poletrace.SpectralModel.gl2q()
        cache: dict = {}

        def reference():
            if not cache:
                import reference as ref

                n_ref = lambda s: ref.estar(1.0 - s, z.x, z.y, 12) * ref.estar(s, z.x, z.y, 12)
                cache["value"] = ref.contour_integral(n_ref, 1.0, 0.0, 1, w_end, T=self.T + 2.0)
                cache["term"] = ref.correction(1.0, 1, w_end, complex(n_ref(w_end)[0]))
            return cache

        def check(result) -> "str | None":
            import reference as ref

            want = reference()
            if len(result.corrections) != 1:
                return f"expected one correction term, got {len(result.corrections)}"
            term = result.corrections[0]
            return _first_failure(
                _tol("continued pole", abs(term.s_star - w_end), 1e-9),
                _tol("correction term", ref.rel(term.term_value, want["term"]), 1e-8),
                _tol("endpoint vs contour", ref.rel(result.endpoint_value, want["value"]), 1e-8),
            )

        ops = []
        for h in heights:
            path = _crossing_path(h, w_end, 1.3 + 0j)
            run = lambda path=path: poletrace.continue_integral(
                numerator, model, path, T=self.T, tol=self.TOL)
            ops.append(Op("continue_integral", run, check))
        return ops


# -- gaussian-branching ----------------------------------------------------


class GaussianBranching:
    """branching_difference with the synthetic Gaussian (criteria 4 and 5).

    A round alternates HilbertMaass (simple pole) and GL3Cuspidal (double
    pole) models with seeded characters and end points.  Each difference is
    checked against the correction term written out in :mod:`reference`.
    """

    name = "gaussian-branching"
    min_rounds = 1
    OPS_PER_ROUND = 64
    T = 40.0

    def _op(self, rng, k: int) -> Op:
        if k % 2 == 0:
            model = _hilbert(rng.uniform(0.5, 4.0))
            im_span = 0.4
        else:
            model = poletrace.SpectralModel.gl3_cuspidal(rng.uniform(0.0, 2.0))
            im_span = 0.3
        desc = _model_desc(model)
        w_end, outside, inside = _path_pair(rng, model.c, im_span)
        numerator = poletrace.Numerator.synthetic_gaussian()

        def run():
            return poletrace.branching_difference(numerator, model, w_end, outside, inside, T=self.T)

        def check(result) -> "str | None":
            import reference as ref

            difference, term = result
            a, c, nu = ref.model_data(desc)
            s_star = ref.continued_pole(c, w_end, flipped=True)
            want = ref.correction(a, nu, s_star, complex(ref.gaussian(s_star)))
            return _first_failure(
                _tol("closed-form term", ref.rel(term.term_value, want), 1e-9),
                _tol("difference", ref.rel(difference, want), 1e-6),
            )

        return Op("branching_difference", run, check)

    def first_call(self, seed: int) -> Callable[[], object]:
        return self._op(_rng(seed, FIRST_CALL_STREAM), 0).run

    def round(self, seed: int, r: int, work: Path, trace_dir=None) -> list[Op]:
        rng = _rng(seed, r)
        return [self._op(rng, k) for k in range(self.OPS_PER_ROUND)]


# -- oracles ---------------------------------------------------------------


def _gaussian2d(x, y):
    return np.exp(-(x**2 + y**2))


class Oracles:
    """The independent references that verify runs (criteria 1, 2, 3, 9).

    A round holds twelve singular_line_quadrature calls at T = 1e5 (half
    simple-pole HilbertMaass, half double-pole GL3Cuspidal), six planar
    integrals and one eisenstein_gl2 coset sum at Re s > 1.
    """

    name = "oracles"
    min_rounds = 1

    @staticmethod
    def _singular(rng, double: bool) -> Op:
        if double:
            model = poletrace.SpectralModel.gl3_cuspidal(rng.uniform(0.0, 2.0))
            tol = 1e-6
        else:
            model = _hilbert(rng.uniform(0.0, 3.0))
            tol = 1e-8
        desc = _model_desc(model)
        w = complex(rng.uniform(0.6, 2.0), rng.uniform(-2.0, 2.0))

        def run():
            return poletrace.quadrature.singular_line_quadrature(model, w, T=1e5, tol=1e-12)

        def check(result) -> "str | None":
            import reference as ref

            return _tol("singular line integral",
                        ref.rel(result[0], ref.singular_line(*ref.model_data(desc), w)), tol)

        return Op("singular_line_quadrature", run, check)

    @staticmethod
    def _planar(rng, kind: str) -> Op:
        sign = 1.0 if rng.uniform() < 0.5 else -1.0
        w = complex(sign * rng.uniform(0.3, 2.0), rng.uniform(-2.0, 2.0))
        if kind == "radial":
            w = complex(abs(w.real), w.imag)
            run = lambda: poletrace.planar.radial_singular_quadrature(w)[0]
        elif kind == "direct":
            run = lambda: poletrace.planar_direct_integral(_gaussian2d, w)[0]
        else:
            run = lambda: poletrace.planar_regularized_integral(_gaussian2d, w).total

        def check(result) -> "str | None":
            import reference as ref

            if kind == "radial":
                return _tol("pi/w^2", ref.rel(result, ref.planar_singular(w)), 1e-6)
            return _tol(f"planar {kind}", ref.rel(result, ref.planar_gaussian(w)), 1e-7)

        return Op(f"planar_{kind}", run, check)

    @staticmethod
    def _lattice(rng) -> Op:
        s = complex(rng.uniform(2.2, 3.0), rng.uniform(0.5, 2.0))
        z = poletrace.UpperHalfPoint(rng.uniform(-0.4, 0.4), rng.uniform(0.9, 1.4))
        params = poletrace.EisensteinParams(s, mode="lattice_sum")

        def check(result) -> "str | None":
            import reference as ref

            return _tol("coset sum", ref.rel(result, ref.eisenstein(s, z.x, z.y)), 1e-6)

        return Op("eisenstein_gl2", lambda: poletrace.eisenstein_gl2(params, z), check)

    def first_call(self, seed: int) -> Callable[[], object]:
        return self._singular(_rng(seed, FIRST_CALL_STREAM), double=False).run

    def round(self, seed: int, r: int, work: Path, trace_dir=None) -> list[Op]:
        rng = _rng(seed, r)
        ops = []
        for k in range(12):
            ops.append(self._singular(rng, double=k % 2 == 1))
            if k % 2 == 1:
                ops.append(self._planar(rng, ("radial", "direct", "regularized")[(k // 2) % 3]))
        ops.insert(len(ops) // 2, self._lattice(rng))
        return ops


# -- cli-cold --------------------------------------------------------------


@dataclass
class ChildResult:
    returncode: int
    out_dir: Path
    peak_rss_mb: float


def run_child(argv: list[str], out_dir: Path, env: dict) -> ChildResult:
    """Run one child to completion with stdout and stderr captured in out_dir.

    The child is reaped with os.wait4 so that its own peak resident memory
    is known; a watchdog kills it after CHILD_TIMEOUT_S.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "stdout.txt", "wb") as out, open(out_dir / "stderr.txt", "wb") as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(proc.returncode, out_dir, usage.ru_maxrss / 1024.0)


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _outputs(out_dir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())
            if p.is_file() and p.name != "stderr.txt"}


def _path_arg(path: poletrace.WPath) -> str:
    return ";".join(f"{p.real!r},{p.imag!r}" for p in path.points)


class CliCold:
    """One fresh ``python -m poletrace.cli`` process per op.

    A round runs eval-eisenstein --completed, continue, trace and diff once
    each.  Every round repeats the same seeded arguments, so each command's
    output files (and stdout) are compared byte for byte with the first
    round's.  Values are checked against :mod:`reference`.
    """

    name = "cli-cold"
    min_rounds = 2
    N_TERMS = 30  # the CLI's default

    def __init__(self):
        self._first_outputs: dict[str, dict[str, bytes]] = {}

    @staticmethod
    def _eval_point(rng) -> tuple[complex, float, float]:
        return complex(0.5, rng.uniform(1.0, 6.0)), rng.uniform(-0.4, 0.4), rng.uniform(0.9, 1.3)

    def first_call(self, seed: int) -> Callable[[], object]:
        from poletrace.eisenstein import eisenstein_gl2_completed

        s, x, y = self._eval_point(_rng(seed, 0))
        z = poletrace.UpperHalfPoint(x, y)
        return lambda: eisenstein_gl2_completed(s, z, n_terms=self.N_TERMS)

    def _inputs(self, seed: int, work: Path) -> list[tuple[str, list[str], Callable]]:
        """(command, arguments, value check) for the seed; writes the input files."""
        rng = _rng(seed, 0)
        s, x, y = self._eval_point(rng)
        hilbert = _hilbert(rng.uniform(0.5, 3.0))
        gl3 = poletrace.SpectralModel.gl3_cuspidal(rng.uniform(0.0, 2.0))
        w_cont, outside_cont, _ = _path_pair(rng, hilbert.c, 0.4)
        w_trace, _, inside_trace = _path_pair(rng, hilbert.c, 0.4)
        w_diff, outside_diff, inside_diff = _path_pair(rng, gl3.c, 0.3)
        inputs = work / "inputs"
        inputs.mkdir(parents=True, exist_ok=True)
        files = {"hilbert": _model_desc(hilbert), "gl3": _model_desc(gl3),
                 "gaussian": {"kind": "gaussian", "width": 1.0}}
        for stem, desc in files.items():
            (inputs / f"{stem}.json").write_text(json.dumps(desc))
        hilbert_desc, gl3_desc = files["hilbert"], files["gl3"]

        def check_eval(out: Path):
            import reference as ref

            re_s, im_s = (out / "stdout.txt").read_text().split()
            want = complex(ref.estar(s, x, y, 16)[0])
            return _tol("E*", ref.rel(complex(float(re_s), float(im_s)), want), 1e-8)

        def check_continue(out: Path):
            import reference as ref

            got = json.loads((out / "continuation.json").read_text())["endpoint"]
            a, c, nu = ref.model_data(hilbert_desc)
            want = ref.contour_integral(ref.gaussian, a, c, nu, w_cont, T=9.0)
            return _tol("endpoint vs contour", ref.rel(complex(*got), want), 1e-8)

        def check_trace(out: Path):
            import reference as ref

            got = json.loads((out / "trace.json").read_text())
            _, c, _ = ref.model_data(hilbert_desc)
            want = ref.continued_pole(c, w_trace, flipped=False)
            if got["final_sign"] != 1:
                return f"inside path flipped the branch (final_sign {got['final_sign']})"
            return _tol("pole end", abs(complex(*got["pole_end"]) - want), 1e-9)

        def check_diff(out: Path):
            import reference as ref

            got = json.loads((out / "diff.json").read_text())["difference"]
            a, c, nu = ref.model_data(gl3_desc)
            s_star = ref.continued_pole(c, w_diff, flipped=True)
            want = ref.correction(a, nu, s_star, complex(ref.gaussian(s_star)))
            return _tol("difference", ref.rel(complex(*got), want), 1e-6)

        model_h, model_g, gauss = (str(inputs / f"{k}.json") for k in ("hilbert", "gl3", "gaussian"))
        return [
            ("eval-eisenstein", ["eval-eisenstein", f"--s={s.real!r},{s.imag!r}",
                                 f"--z={x!r},{y!r}", "--completed"], check_eval),
            ("continue", ["continue", f"--model={model_h}", f"--numerator={gauss}",
                          f"--path={_path_arg(outside_cont)}"], check_continue),
            ("trace", ["trace", f"--model={model_h}", f"--path={_path_arg(inside_trace)}"],
             check_trace),
            ("diff", ["diff", f"--model={model_g}", f"--numerator={gauss}",
                      f"--path={_path_arg(outside_diff)}", f"--path2={_path_arg(inside_diff)}",
                      f"--w-end={w_diff.real!r},{w_diff.imag!r}"], check_diff),
        ]

    def round(self, seed: int, r: int, work: Path, trace_dir=None) -> list[Op]:
        env = child_env()
        ops = []
        for command, args, check_value in self._inputs(seed, work):
            out_dir = work / f"round{r}{'-traced' if trace_dir else ''}" / command
            if trace_dir is None:
                launcher = [sys.executable, "-m", "poletrace.cli"]
            else:
                launcher = [sys.executable, str(Path(__file__).with_name("probe.py")), "cli",
                            str(trace_dir / f"{command}.json")]
            argv = launcher + args + [f"--out={out_dir}"]
            run = lambda argv=argv, out_dir=out_dir: run_child(argv, out_dir, env)
            ops.append(Op(command, run, self._checker(command, check_value)))
        return ops

    def _checker(self, command: str, check_value: Callable) -> Callable:
        def check(result: ChildResult) -> "str | None":
            if result.returncode != 0:
                err = (result.out_dir / "stderr.txt").read_text().strip().splitlines()
                return f"exit code {result.returncode}: {err[-1] if err else ''}"
            outputs = _outputs(result.out_dir)
            first = self._first_outputs.setdefault(command, outputs)
            if outputs != first:
                return "output files differ from the first run of the same arguments"
            return check_value(result.out_dir)

        return check


WORKLOADS = {w.name: w for w in (EisensteinLine, GaussianBranching, Oracles, CliCold)}
