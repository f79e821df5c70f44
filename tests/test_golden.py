"""The README's CLI examples, pinned byte for byte.

Reruns within one version are compared elsewhere; these pins catch a change
of any output file or printed line between versions.  ``tests/golden/<name>``
holds each example's stdout and output files; the long CSV and SVG files are
pinned by their SHA-256 in ``<file>.sha256``.  The pins hold on any x86-64
CPU: the examples and the pinned line quadratures are rerun with numpy's
dispatched SIMD loops switched off, and so is a seeded set of ``diff`` and
``continue`` calls with constant and Gaussian numerators, which must keep
their bits.  The Eisenstein product is not covered: its E* products take
numpy's complex loops.

Run as a script, the module prints the bits of that seeded set as JSON.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from poletrace.cli import main
from poletrace.continuation import branching_difference, continue_integral
from poletrace.models import GrossencharParams, SpectralModel
from poletrace.numerators import Numerator
from poletrace.paths import WPath

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


def _without_dispatch(*args: str) -> subprocess.CompletedProcess:
    """Run Python with every CPU feature that numpy dispatches on this host switched off."""
    umath = pytest.importorskip("numpy._core._multiarray_umath")
    features = [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]
    if not features:
        pytest.skip("numpy dispatches no CPU feature on this host")
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(features), PYTHONPATH=str(src))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def test_pins_hold_without_dispatched_simd():
    # numpy's AVX2 and AVX-512 loops may fuse a multiply into an add; the
    # baseline loops do not, and the output bytes must not depend on which ran
    quadrature_tests = Path(__file__).resolve().parent / "test_quadrature.py"
    run = _without_dispatch(
        "-m", "pytest", "-q", "-p", "no:cacheprovider",
        f"{__file__}::test_readme_example_output_is_pinned",
        f"{quadrature_tests}::TestPinnedBits",
    )
    assert run.returncode == 0, run.stdout + run.stderr


def _seeded_results() -> list:
    """Bits of 24 seeded ``diff`` and ``continue`` calls each.

    HilbertMaass and GL3Cuspidal models alternate; the numerators are
    Gaussians of widths 0.5 to 2 and constants, all with complex scales.
    Each outside path crosses the critical line above the branch point
    1/2 + i sqrt(c), each inside path below it.
    """
    rng = np.random.default_rng(7)

    def bits(z: complex) -> list:
        return [z.real.hex(), z.imag.hex()]

    results = []
    for k in range(24):
        if k % 2 == 0:
            t = rng.uniform(0.5, 2.0)
            model = SpectralModel.hilbert_maass(GrossencharParams((t, -t)))
        else:
            model = SpectralModel.gl3_cuspidal(rng.uniform(0.0, 2.0))
        scale = complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        if k % 4 < 3:
            numerator = Numerator.synthetic_gaussian(rng.uniform(0.5, 2.0), scale)
        else:
            numerator = Numerator.constant(complex(rng.uniform(-2.0, 2.0), 1.0), scale)
        root = model.c ** 0.5
        x, y = rng.uniform(0.1, 0.35), root + rng.uniform(0.3, 1.0)
        w_end = complex(x, y)
        high, low = y + 0.5, 0.5 * root
        outside = WPath((1.2, complex(1.2, high), complex(x, high), w_end))
        inside = WPath((1.2, complex(1.2, low), complex(x, low), w_end))
        difference, term = branching_difference(numerator, model, w_end, outside, inside)
        results.append(["diff", bits(difference), bits(term.numerator_value)])
        result = continue_integral(numerator, model, outside)
        results.append(["continue", bits(result.endpoint_value), result.est_error.hex()])
    return results


def test_seeded_diff_and_continue_keep_their_bits_without_dispatched_simd():
    run = _without_dispatch(__file__)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == _seeded_results()


if __name__ == "__main__":
    print(json.dumps(_seeded_results()))
