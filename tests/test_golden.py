"""The README's CLI examples, pinned byte for byte.

Reruns within one version are compared elsewhere; these pins catch a change
of any output file or printed line between versions.  ``tests/golden/<name>``
holds each example's stdout and output files; the long CSV and SVG files are
pinned by their SHA-256 in ``<file>.sha256``.  The pins hold on any x86-64
CPU: the examples are rerun with numpy's dispatched SIMD loops switched off.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from poletrace.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
OUTSIDE = "1.2,0;1.2,2;0.25,2;0.25,2.5"
INSIDE = "1.2,0;1.2,0.5;0.25,0.5;0.25,2.5"
MODEL, NUMERATOR = "<model.json>", "<numerator.json>"

EXAMPLES = {
    "branch-points": ["branch-points", "--model", MODEL],
    "trace": ["trace", "--model", MODEL, "--path", OUTSIDE],
    "continue-outside": ["continue", "--model", MODEL, "--numerator", NUMERATOR,
                         "--path", OUTSIDE],
    "continue-back-between": ["continue", "--model", MODEL, "--numerator", NUMERATOR,
                              "--path", "1.2,0;1.2,2;0.2,2;0.2,0.5;1.2,0.5"],
    "diff": ["diff", "--model", MODEL, "--numerator", NUMERATOR, "--path", OUTSIDE,
             "--path2", INSIDE, "--w-end", "0.25,2.5"],
    "curve": ["curve", "--t-norm", "1", "--alpha", "2"],
}


def _pin_name(filename: str) -> str:
    return filename + ".sha256" if filename.endswith((".csv", ".svg")) else filename


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_readme_example_output_is_pinned(name, tmp_path, capsys):
    model, numerator = tmp_path / "model.json", tmp_path / "numerator.json"
    model.write_text(json.dumps({"kind": "HilbertMaass", "t": [1.0, -1.0]}))
    numerator.write_text(json.dumps({"kind": "gaussian", "width": 1.0}))
    argv = [{MODEL: str(model), NUMERATOR: str(numerator)}.get(a, a) for a in EXAMPLES[name]]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 0
    expected = GOLDEN / name
    assert capsys.readouterr().out == (expected / "stdout.txt").read_text()
    pinned = sorted(p.name for p in expected.iterdir() if p.name != "stdout.txt")
    assert sorted(_pin_name(p.name) for p in out.iterdir()) == pinned
    for pin in pinned:
        if pin.endswith(".sha256"):
            got = hashlib.sha256((out / pin[: -len(".sha256")]).read_bytes()).hexdigest()
            assert got == (expected / pin).read_text().strip(), pin
        else:
            assert (out / pin).read_bytes() == (expected / pin).read_bytes(), pin


def test_pins_hold_without_dispatched_simd():
    # numpy's AVX2 and AVX-512 loops may fuse a multiply into an add; the
    # baseline loops do not, and the output bytes must not depend on which ran
    umath = pytest.importorskip("numpy._core._multiarray_umath")
    features = [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]
    if not features:
        pytest.skip("numpy dispatches no CPU feature on this host")
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(features), PYTHONPATH=str(src))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{__file__}::test_readme_example_output_is_pinned"],
        env=env, capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stdout + run.stderr
