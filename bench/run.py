"""poletrace benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` the run measures the end-to-end metrics listed
in BENCHMARK.json: set-up probes in fresh processes, then rounds of the
workload's fixed op set in a closed loop for ``--seconds``, then a check of
every result against an independent reference.  With ``--trace 1`` it runs
round 0 once untraced and once under the span tracer and reports the
per-layer metrics; the spans are written to ``bench/traces/``.

The last line of standard output is the result object; the line before it
records the seed, host and library versions.  BLAS and OpenMP are pinned to
one thread here and in every child process.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from importlib.metadata import version  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 120.0
#: nominal time of one run of the speed kernel (see Speed), in seconds
SPEED_NOMINAL_S = 2.0e-3
_now = time.perf_counter

INTEGRAND_OWNERS = ("eisenstein", "quadrature", "planar")
LAYERS = ("eisenstein", "numerators", "quadrature", "paths", "continuation", "planar", "cli")


# -- host speed ------------------------------------------------------------

_KERNEL_X = np.linspace(0.0, 1.0, 15)


def _kernel() -> float:
    """Small-array NumPy ufuncs and Python arithmetic, like a GK15 panel loop."""
    acc = 0.0
    for k in range(150):
        v = np.exp(-(1.0 + 1e-3 * k) * np.cosh(_KERNEL_X)) * np.cos(3.0 * _KERNEL_X + 1e-3j * k)
        acc += abs(complex(np.sum(v)))
        for j in range(10):
            acc += j * 1e-9
    return acc


class Speed:
    """Times in-process calls in reference seconds, corrected for host speed drift.

    On a shared host the same CPU-bound code runs up to twice as slowly, in
    spells of a few seconds.  A fixed kernel that shares no code with
    poletrace is timed before and after every timed call and, from a timer
    signal, every SAMPLE_EVERY_S during it.  The call's time, less the time
    of those in-call samples, is scaled by SPEED_NOMINAL_S over the median
    kernel time.  A change to poletrace moves the scaled time exactly as
    much as the raw time; a change of host speed mostly cancels.  Child
    processes run on another core than the kernel would, so their times
    (set-up probes, cli-cold) stay raw: see :func:`timed`.
    """

    SAMPLE_EVERY_S = 0.05

    def __init__(self):
        _kernel()
        self.samples = [self._sample()]
        self.in_call_s = 0.0
        signal.signal(signal.SIGALRM, self._on_alarm)

    @staticmethod
    def _sample() -> float:
        t0 = _now()
        _kernel()
        return _now() - t0

    def _on_alarm(self, signum, frame) -> None:
        dt = self._sample()
        self.samples.append(dt)
        self.in_call_s += dt

    def start(self) -> None:
        self.samples = self.samples[-1:]
        self.in_call_s = 0.0
        signal.setitimer(signal.ITIMER_REAL, self.SAMPLE_EVERY_S, self.SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)

    def factor(self) -> float:
        self.samples.append(self._sample())
        return SPEED_NOMINAL_S / statistics.median(self.samples)


def timed(fn, speed: "Speed | None"):
    """(fn(), raw seconds, scale factor); an exception raised by fn is the result.

    Without ``speed`` the time is not scaled (factor 1).
    """
    if speed is not None:
        speed.start()
    t0 = _now()
    try:
        out = fn()
    except Exception as exc:  # a failed op is counted as failed; the loop goes on
        out = exc
    finally:
        if speed is not None:
            speed.stop()
    raw = _now() - t0
    if speed is None:
        return out, raw, 1.0
    return out, raw - speed.in_call_s, speed.factor()


# -- children --------------------------------------------------------------


def setup_probe(workload: str, seed: int, measure_eisenstein: bool) -> dict:
    """One fresh process: set-up time from spawn to ready, plus its own timings."""
    from workloads import child_env

    argv = [sys.executable, str(BENCH / "probe.py"), "setup", workload, str(seed),
            "1" if measure_eisenstein else "0"]
    t0 = _now()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True)
    watchdog = threading.Timer(PROBE_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        t_ready = _now()
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    timings = json.loads(rest.strip().splitlines()[-1])
    timings["setup_s"] = t_ready - t0
    return timings


def setup_probes(workload: str, seed: int, measure_eisenstein: bool) -> dict:
    """Median of each timing over SETUP_PROBES fresh processes."""
    probes = [setup_probe(workload, seed, measure_eisenstein) for _ in range(SETUP_PROBES)]
    return {key: statistics.median(p[key] for p in probes) for key in probes[0]}


# -- the timed loop --------------------------------------------------------


def run_ops(ops, speed: "Speed | None", records: list, op_times: list) -> tuple[float, float]:
    """Run ops in order, appending (scaled, raw) times; returns both totals."""
    scaled_total = raw_total = 0.0
    for op in ops:
        out, raw, factor = timed(op.run, speed)
        op_times.append((raw * factor, raw))
        records.append((op, out))
        scaled_total += raw * factor
        raw_total += raw
    return scaled_total, raw_total


def check_records(records) -> list[str]:
    failures = []
    for op, out in records:
        if isinstance(out, Exception):
            failures.append(f"{op.kind}: raised {type(out).__name__}: {out}")
            continue
        reason = op.check(out)
        if reason is not None:
            failures.append(f"{op.kind}: {reason}")
    return failures


def peak_rss_mb(records, in_process: bool) -> float:
    if in_process:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return max((out.peak_rss_mb for _, out in records if hasattr(out, "peak_rss_mb")),
               default=0.0)


def measure(workload, seed: int, seconds: float, work: Path, speed: "Speed | None") -> dict:
    in_process = speed is not None
    if in_process:
        workload.first_call(seed)()
    records, op_times, round_times = [], [], []
    t_start = _now()
    r = 0
    while r < workload.min_rounds or _now() - t_start < seconds:
        round_times.append(run_ops(workload.round(seed, r, work), speed, records, op_times))
        r += 1
    return {
        "records": records,
        "peak_rss_mb": peak_rss_mb(records, in_process),
        "wall_s": statistics.median(t for t, _ in round_times),
        "op_p50_s": statistics.median(t for t, _ in op_times),
        "raw_wall_s": statistics.median(t for _, t in round_times),
        "raw_op_p50_s": statistics.median(t for _, t in op_times),
        "rounds": r,
        "ops": len(op_times),
    }


def traced_round(workload, seed: int, work: Path, in_process: bool) -> dict:
    """Round 0 untraced, then again under the tracer; per-layer summary.

    Times here are raw: the speed kernel would run inside the traced spans.
    """
    from tracer import Tracer, merge_summaries

    if in_process:
        workload.first_call(seed)()
    records, op_times = [], []
    untraced, _ = run_ops(workload.round(seed, 0, work), None, records, op_times)
    if in_process:
        ops = workload.round(seed, 0, work)
        with Tracer() as tracer:
            traced, _ = run_ops(ops, None, records, op_times)
        summary, spans = tracer.summary(), tracer.spans()
    else:
        trace_dir = work / "spans"
        trace_dir.mkdir()
        ops = workload.round(seed, 0, work, trace_dir=trace_dir)
        traced, _ = run_ops(ops, None, records, op_times)
        children = {p.stem: json.loads(p.read_text()) for p in sorted(trace_dir.glob("*.json"))}
        summary = merge_summaries(c["summary"] for c in children.values())
        spans = {name: c["spans"] for name, c in children.items()}
    return {"records": records, "summary": summary, "spans": spans,
            "traced_s": traced, "untraced_s": untraced, "ops": len(op_times)}


# -- per-layer metrics -----------------------------------------------------


def accuracy_grid(seed: int) -> dict:
    """Relative errors of bessel_k, zeta and E* against mpmath, untimed.

    The grid is seeded and always includes tau = 40, where bessel_k loses
    all relative accuracy (its error stays near 1e-16 absolute while the
    true value decays like exp(-pi tau / 2)); the errors are reported as
    measured.
    """
    import reference as ref
    from poletrace.eisenstein import UpperHalfPoint, bessel_k, eisenstein_gl2_completed, zeta
    from workloads import GRID_STREAM

    rng = np.random.default_rng([seed, GRID_STREAM])
    taus = [*sorted(rng.uniform(1.0, 40.0, 5)), 40.0]
    xs = rng.uniform(0.5, 20.0, 3)
    x, y = rng.uniform(-0.5, 0.5), rng.uniform(0.8, 1.5)
    return {
        "eisenstein.bessel_k.max_rel_err": max(
            ref.rel(bessel_k(1j * t, v), ref.bessel_k_mp(1j * t, v)) for t in taus for v in xs),
        "eisenstein.zeta.max_rel_err": max(
            ref.rel(zeta(u), ref.zeta_mp(u)) for t in taus for u in (0.5 + 1j * t, 1 + 2j * t)),
        "eisenstein.completed.max_rel_err": max(
            ref.rel(eisenstein_gl2_completed(0.5 + 1j * t, UpperHalfPoint(x, y)),
                    ref.estar_mp(0.5 + 1j * t, x, y, 20)) for t in taus),
    }


def layer_metrics(summary: dict, probes: dict, accuracy: dict, traced_s: float,
                  untraced_s: float) -> dict:
    """Per-layer metrics; a layer's self share is its self time over the traced round's."""
    from tracer import COUNTED, NUMERATOR_SPAN, SPANNED

    calls, self_s, counts = summary["calls"], summary["self_s"], summary["counts"]

    def ratio(num: int, den: int) -> float:
        return num / den if den else 0.0

    m = {}
    for module, fn in SPANNED:
        name = f"{module}.{fn}"
        m[f"{name}.calls"] = calls.get(name, 0)
        # the driver's self time is reported as quadrature.driver_self_s
        if name != "quadrature.adaptive_quadrature":
            m[f"{name}.self_s"] = self_s.get(name, 0.0)
        if module == "paths":
            m[f"{name}.samples"] = counts.get(f"{name}.samples", 0)
    for module, fn in COUNTED:
        m[f"{module}.{fn}.calls"] = counts.get(f"{module}.{fn}.calls", 0)
    m["eisenstein.bessel_k.total_s"] = summary["total_s"].get("eisenstein.bessel_k", 0.0)
    m["eisenstein.first_call_s"] = probes["eisenstein_first_call_s"]
    m.update(accuracy)
    m["numerators.calls"] = calls.get(NUMERATOR_SPAN, 0)
    m["numerators.nodes"] = counts.get("numerators.nodes", 0)
    m["numerators.nodes_per_call"] = ratio(m["numerators.nodes"], m["numerators.calls"])
    m["numerators.self_s"] = self_s.get(NUMERATOR_SPAN, 0.0)
    m["quadrature.driver_self_s"] = self_s.get("quadrature.adaptive_quadrature", 0.0)
    for layer in INTEGRAND_OWNERS:
        m[f"{layer}.integrand.self_s"] = self_s.get(f"{layer}.integrand", 0.0)
    for key in ("integrand", "line_integrand"):
        m[f"quadrature.{key}.calls"] = counts.get(f"quadrature.{key}.calls", 0)
        m[f"quadrature.{key}.nodes"] = counts.get(f"quadrature.{key}.nodes", 0)
    m["quadrature.integrand.nodes_per_call"] = ratio(m["quadrature.integrand.nodes"],
                                                     m["quadrature.integrand.calls"])
    m["import_s"] = probes["import_s"]
    for layer in LAYERS:
        layer_self = sum(v for name, v in self_s.items() if name.startswith(layer + "."))
        m[f"{layer}.self_share"] = layer_self / traced_s
    m["trace_overhead"] = traced_s / untraced_s
    return m


# -- main ------------------------------------------------------------------


def environment(args) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": platform.node(),
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "python": platform.python_version(), "numpy": version("numpy"),
        "scipy": version("scipy"), "mpmath": version("mpmath"),
        "threads": {var: os.environ[var] for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    if not (ROOT / "src" / "poletrace" / "__init__.py").is_file():
        print(f"error: no poletrace sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    in_process = args.workload != "cli-cold"
    work = Path(tempfile.mkdtemp(prefix=".work-", dir=BENCH))
    try:
        probes = setup_probes(args.workload, args.seed, bool(args.trace))
        if args.trace:
            run = traced_round(workload, args.seed, work, in_process)
            metrics = layer_metrics(run["summary"], probes, accuracy_grid(args.seed),
                                    run["traced_s"], run["untraced_s"])
            traces = BENCH / "traces"
            traces.mkdir(exist_ok=True)
            (traces / f"{args.workload}-seed{args.seed}.json").write_text(
                json.dumps({"env": environment(args), "spans": run["spans"]}))
        else:
            run = measure(workload, args.seed, args.seconds, work,
                          Speed() if in_process else None)
            metrics = {"setup_s": probes["setup_s"], "wall_s": run["wall_s"],
                       "op_p50_s": run["op_p50_s"], "peak_rss_mb": run["peak_rss_mb"]}
        failures = check_records(run["records"])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(run["records"])
    if not args.trace:
        metrics["ok_frac"] = 1.0 - len(failures) / attempted
    listed = spec["per_layer" if args.trace else "end_to_end"]
    if sorted(metrics) != sorted(m["name"] for m in listed):
        raise RuntimeError("computed metrics do not match BENCHMARK.json")
    for reason in failures[:10]:
        print(f"failed: {reason}", file=sys.stderr)
    record = environment(args)
    record.update(ops=run["ops"], rounds=run.get("rounds", 1))
    if not args.trace:
        record.update(raw_wall_s=run["raw_wall_s"], raw_op_p50_s=run["raw_op_p50_s"])
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
