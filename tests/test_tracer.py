"""The benchmark's span tracer still fits the package.

``bench/tracer.py`` patches layer functions by name; a renamed or deleted
function would break ``bench/run.py --trace 1``.  This test only reads
``bench/`` (no bytecode is written there).
"""

import importlib.util
import sys
from pathlib import Path

import poletrace
import poletrace.cli  # noqa: F401  (the tracer patches cli.main)
from poletrace.models import GrossencharParams, SpectralModel
from poletrace.numerators import Numerator
from poletrace.paths import WPath

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("poletrace_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _package_names() -> dict:
    """Every attribute of every loaded poletrace module, keyed by (module, name)."""
    return {
        (mod_name, attr): value
        for mod_name, mod in list(sys.modules.items())
        if mod is not None and (mod_name == "poletrace" or mod_name.startswith("poletrace."))
        for attr, value in vars(mod).items()
    }


def test_tracer_records_a_continuation_and_restores_the_package(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    tracer_module = _load_tracer()
    model = SpectralModel.hilbert_maass(GrossencharParams((1.0, -1.0)))
    numerator = Numerator.synthetic_gaussian()
    path = WPath((1.2 + 0j, 1.2 + 2j, 0.25 + 2j, 0.25 + 2.5j))
    untraced = poletrace.continue_integral(numerator, model, path, T=40.0)

    before = _package_names()
    call_before = Numerator.__call__
    with tracer_module.Tracer() as tracer:
        traced = poletrace.continue_integral(numerator, model, path, T=40.0)
    summary = tracer.summary()

    assert traced.endpoint_value == untraced.endpoint_value
    assert summary["calls"]["continuation.continue_integral"] == 1
    for name in (
        "continuation.continue_pole",
        "paths.sample_path",
        "paths.track_sqrt",
        "quadrature.check_line_symmetry",
        "quadrature.direct_line_integral",
        "quadrature.adaptive_quadrature",
        "quadrature.integrand",
        tracer_module.NUMERATOR_SPAN,
    ):
        assert summary["calls"].get(name, 0) >= 1, name
    for key in ("quadrature.integrand.calls", "quadrature.line_integrand.calls",
                "models.radicand.calls", "paths.track_sqrt.samples"):
        assert summary["counts"].get(key, 0) >= 1, key

    after = _package_names()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
    assert Numerator.__call__ is call_before
