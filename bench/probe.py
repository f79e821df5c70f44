"""Child processes of the benchmark.

``probe.py setup WORKLOAD SEED EIS`` measures set-up in a fresh process: it
times the import of poletrace, makes the workload's first call, prints
``ready`` (the parent's set-up clock stops there), repeats the call warm, and
prints one JSON line with the timings.  With EIS=1 it also times the
eisenstein-line first call, fresh and warm, when the workload's own first
call does not already go through the Eisenstein evaluator.

``probe.py cli SPANS ARGS...`` runs ``poletrace.cli.main(ARGS)`` under the
tracer and writes the spans and their summary to SPANS.

Only the standard library is imported before the timed import.
"""

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def setup(workload_name: str, seed: int, measure_eisenstein: bool) -> None:
    t0 = time.perf_counter()
    import poletrace  # noqa: F401
    if workload_name == "cli-cold":
        import poletrace.cli  # noqa: F401
    t1 = time.perf_counter()
    from workloads import WORKLOADS

    call = WORKLOADS[workload_name]().first_call(seed)
    t2 = time.perf_counter()
    call()
    t3 = time.perf_counter()
    print("ready", flush=True)
    call()
    t4 = time.perf_counter()
    timings = {"import_s": t1 - t0, "first_s": t3 - t2, "warm_s": t4 - t3}
    if workload_name in ("eisenstein-line", "cli-cold"):
        timings["eisenstein_first_call_s"] = timings["first_s"] - timings["warm_s"]
    elif measure_eisenstein:
        eisenstein_call = WORKLOADS["eisenstein-line"]().first_call(seed)
        t5 = time.perf_counter()
        eisenstein_call()
        t6 = time.perf_counter()
        eisenstein_call()
        t7 = time.perf_counter()
        timings["eisenstein_first_call_s"] = (t6 - t5) - (t7 - t6)
    print(json.dumps(timings), flush=True)


def cli(spans_path: str, argv: list) -> int:
    import poletrace.cli
    from tracer import Tracer

    with Tracer() as tracer:
        code = poletrace.cli.main(argv)
    Path(spans_path).write_text(json.dumps({"summary": tracer.summary(), "spans": tracer.spans()}))
    return code


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup(sys.argv[2], int(sys.argv[3]), sys.argv[4] == "1")
    elif sys.argv[1] == "cli":
        sys.exit(cli(sys.argv[2], sys.argv[3:]))
    else:
        sys.exit(f"unknown probe {sys.argv[1]!r}")
