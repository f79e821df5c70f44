"""The benchmark's workloads still fit the package.

``bench/workloads.py`` builds its timed calls from poletrace's names and
options; a renamed or deleted one would break ``bench/run.py``.  These tests
run the first op of each kind in round 0 of the in-process workloads, and
each ``cli-cold`` command's arguments through ``cli.main`` in this process,
without the reference checks.  They only read ``bench/`` (no bytecode is
written there).
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from poletrace.cli import main

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def _load_workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("poletrace_bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["eisenstein-line", "gaussian-branching", "oracles"])
def test_one_op_of_each_kind_runs(name, monkeypatch, tmp_path):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    workload = _load_workloads(monkeypatch).WORKLOADS[name]()
    workload.first_call(1)()
    ops = {}
    for op in workload.round(1, 0, tmp_path):
        ops.setdefault(op.kind, op)
    for kind, op in ops.items():
        assert op.run() is not None, kind


def test_cli_cold_arguments_are_accepted(monkeypatch, tmp_path):
    # a dropped or renamed flag fails here before it fails the benchmark
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    workload = _load_workloads(monkeypatch).WORKLOADS["cli-cold"]()
    for command, args, _ in workload._inputs(1, tmp_path):
        assert main(args + [f"--out={tmp_path / command}"]) == 0, command
