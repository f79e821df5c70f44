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
    inside = WPath((1.2 + 0j, 1.2 + 0.5j, 0.25 + 0.5j, 0.25 + 2.5j))
    untraced = poletrace.continue_integral(numerator, model, path, T=40.0)
    untraced_trace = poletrace.continue_pole(model, path)

    before = _package_names()
    call_before = Numerator.__call__
    with tracer_module.Tracer() as tracer:
        for mod_name, fn_name in tracer_module.SPANNED + tracer_module.COUNTED:
            module = sys.modules[f"poletrace.{mod_name}"]
            assert getattr(module, fn_name) is not before[(f"poletrace.{mod_name}", fn_name)], (
                f"{mod_name}.{fn_name} is not patched")
        traced = poletrace.continue_integral(numerator, model, path, T=40.0)
        poletrace.branching_difference(numerator, model, path.end, path, inside, T=40.0)
    summary = tracer.summary()

    assert traced.endpoint_value == untraced.endpoint_value
    assert summary["calls"]["continuation.continue_integral"] == 1
    assert summary["calls"]["continuation.branching_difference"] == 1
    for name in (
        "quadrature.check_line_symmetry",
        "quadrature.direct_line_integral",
        "quadrature.adaptive_quadrature",
        "quadrature.integrand",
        tracer_module.NUMERATOR_SPAN,
    ):
        assert summary["calls"].get(name, 0) >= 1, name
    # continue and diff decide the branch in closed form, without samples
    for name in ("continuation.continue_pole", "paths.sample_path", "paths.track_sqrt"):
        assert summary["calls"].get(name, 0) == 0, name
    for key in ("quadrature.integrand.calls", "quadrature.line_integrand.calls",
                "models.radicand.calls"):
        assert summary["counts"].get(key, 0) >= 1, key

    # the trace command's route still samples the path
    with tracer_module.Tracer() as tracer:
        traced_trace = poletrace.continue_pole(model, path)
    summary = tracer.summary()

    assert traced_trace.final_sign == untraced_trace.final_sign
    for name in ("continuation.continue_pole", "paths.sample_path", "paths.track_sqrt"):
        assert summary["calls"].get(name, 0) == 1, name
    for key in ("paths.sample_path.samples", "paths.track_sqrt.samples", "models.radicand.calls"):
        assert summary["counts"].get(key, 0) >= 1, key

    after = _package_names()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
    assert Numerator.__call__ is call_before
