import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import mp_oracle
from poletrace.cli import main
from poletrace.models import GrossencharParams, SpectralModel
from poletrace.numerators import Numerator
from poletrace.quadrature import direct_line_integral


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"kind": "HilbertMaass", "t": [1.0, -1.0]}))
    return str(path)


@pytest.fixture
def numerator_file(tmp_path):
    path = tmp_path / "numerator.json"
    path.write_text(json.dumps({"kind": "gaussian", "width": 1.0}))
    return str(path)


OUTSIDE = "1.2,0;1.2,2;0.25,2;0.25,2.5"
INSIDE = "1.2,0;1.2,0.5;0.25,0.5;0.25,2.5"


class TestBranchPoints:
    def test_hilbert(self, model_file, capsys):
        assert main(["branch-points", "--model", model_file]) == 0
        out = capsys.readouterr().out
        assert out.strip() == "0.5 +- 1i"

    def test_gl3(self, tmp_path, capsys):
        path = tmp_path / "gl3.json"
        path.write_text(json.dumps({"kind": "GL3Cuspidal", "t_f": [2.0, 0.0]}))
        assert main(["branch-points", "--model", str(path)]) == 0
        printed = capsys.readouterr().out
        assert f"{(17/12) ** 0.5:.8f}"[:8] in printed

    def test_missing_model_file(self, capsys):
        assert main(["branch-points", "--model", "/nonexistent.json"]) == 1


class TestTrace:
    def test_writes_json_and_csv(self, model_file, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["trace", "--model", model_file, "--path", OUTSIDE, "--out", str(out)])
        assert code == 0
        payload = json.loads((out / "trace.json").read_text())
        assert payload["final_sign"] == -1
        assert payload["cut_crossings"] == 1
        csv_lines = (out / "trace_s.csv").read_text().splitlines()
        assert csv_lines[0] == "k,re,im"
        assert len(csv_lines) == payload["n_samples"] + 1

    def test_left_start_is_validation_error(self, model_file, tmp_path):
        code = main(["trace", "--model", model_file, "--path", "0.3,0;0.2,1",
                     "--out", str(tmp_path)])
        assert code == 1

    def test_crossing_next_to_the_branch_point_at_the_default_step(self, tmp_path, capsys):
        # GL2Q, crossing the line within 1e-3 of w = 1/2: at step 0.01 the
        # radicand turns by almost 2 pi between two samples, and the branch
        # still follows the path's crossing
        model = tmp_path / "gl2q.json"
        model.write_text(json.dumps({"kind": "GL2Q"}))
        w_end = complex(-0.5574136159573104, -1.4224353607243545)
        path = f"0.6389267989540318,0.1873838054085608;{w_end.real!r},{w_end.imag!r}"
        argv = ["trace", "--model", str(model), "--path", path, "--out", str(tmp_path)]
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith("final_sign -1, cut_crossings 1, pole end ")
        payload = json.loads((tmp_path / "trace.json").read_text())
        assert payload["final_sign"] == -1
        assert abs(complex(*payload["pole_end"]) - w_end) <= 1e-12

    def test_step_too_fine_is_refused_before_sampling(self, model_file, tmp_path, capsys):
        code = main(["trace", "--model", model_file, "--path", OUTSIDE, "--step", "1e-9",
                     "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: step 1e-09 along a path of length 3.45 ")


class TestContinueAndDiff:
    def test_continue_emits_upstream_schema(self, model_file, numerator_file, tmp_path):
        out = tmp_path / "out"
        code = main(["continue", "--model", model_file, "--numerator", numerator_file,
                     "--path", OUTSIDE, "--out", str(out)])
        assert code == 0
        payload = json.loads((out / "continuation.json").read_text())
        assert set(payload) == {"endpoint", "corrections", "crossings", "final_sign", "est_error"}
        assert payload["final_sign"] == -1
        assert len(payload["corrections"]) == 1
        correction = payload["corrections"][0]
        assert set(correction) == {"s_star", "nu", "coefficient", "numerator_value", "term_value"}

    def test_diff_reports_agreement(self, model_file, numerator_file, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["diff", "--model", model_file, "--numerator", numerator_file,
                     "--path", OUTSIDE, "--path2", INSIDE, "--w-end", "0.25,2.5",
                     "--out", str(out)])
        assert code == 0
        payload = json.loads((out / "diff.json").read_text())
        assert payload["relative_agreement"] < 1e-6

    def test_diff_rerun_byte_identical(self, model_file, numerator_file, tmp_path):
        out = tmp_path / "out"
        args = ["diff", "--model", model_file, "--numerator", numerator_file,
                "--path", OUTSIDE, "--path2", INSIDE, "--w-end", "0.25,2.5", "--out", str(out)]
        assert main(args) == 0
        first = (out / "diff.json").read_bytes()
        assert main(args) == 0
        assert (out / "diff.json").read_bytes() == first

    def test_endpoint_on_the_line_clear_of_the_poles(self, model_file, numerator_file, tmp_path):
        # w = 1/2 + i/2 is on the critical line, but its poles 1/2 +- sqrt(3)/2 are not
        out = tmp_path / "out"
        code = main(["continue", "--model", model_file, "--numerator", numerator_file,
                     "--path", "1.2,0;0.5,0.5", "--out", str(out)])
        assert code == 0
        payload = json.loads((out / "continuation.json").read_text())
        assert payload["corrections"] == []
        model = SpectralModel.hilbert_maass(GrossencharParams((1.0, -1.0)))
        direct, _ = direct_line_integral(Numerator.synthetic_gaussian(), model, 0.5 + 0.5j)
        assert complex(*payload["endpoint"]) == pytest.approx(direct, abs=1e-12)

    @pytest.mark.parametrize("flag, value", [("--tol", "0"), ("--tol", "-1"), ("--T", "-5")])
    def test_bad_settings_are_validation_errors(
        self, model_file, numerator_file, tmp_path, capsys, recwarn, flag, value
    ):
        code = main(["continue", "--model", model_file, "--numerator", numerator_file,
                     "--path", OUTSIDE, flag, value, "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{flag[2:]} must be positive" in err and str(float(value)) in err
        assert len(recwarn) == 0

    def test_swapped_paths_validation_error(self, model_file, numerator_file, tmp_path):
        code = main(["diff", "--model", model_file, "--numerator", numerator_file,
                     "--path", INSIDE, "--path2", OUTSIDE, "--w-end", "0.25,2.5",
                     "--out", str(tmp_path)])
        assert code == 1


class TestMalformedInput:
    @pytest.mark.parametrize(
        "which, descriptor, message",
        [
            ("model", {"kind": "HilbertMaass"}, "bad model descriptor"),
            ("model", {"kind": "HilbertMaass", "t": "ab"}, "bad model descriptor"),
            ("model", {"kind": "GL3Cuspidal", "t_f": [1]}, "bad model descriptor"),
            ("model", {"kind": "GL2Q", "c": "x"}, "bad model descriptor"),
            ("model", {"kind": "GL2Q", "c": [1, 2]}, "bad model descriptor"),
            ("model", [1, 2], "bad model descriptor"),
            ("model", {"kind": "GL3MinParabolic"}, "'GL3MinParabolic' is not a valid ModelKind"),
            ("numerator", {"kind": "gaussian", "width": "x"}, "bad numerator descriptor"),
            ("numerator", {"kind": "constant", "value": "q"}, "bad numerator descriptor"),
            ("numerator", {"kind": "eisenstein_product", "z0": [0, 1], "z": [0, 1],
                           "n_terms": "a"}, "bad numerator descriptor"),
            ("numerator", {"kind": "eisenstein_product", "z0": [0], "z": [0, 1]},
             "bad numerator descriptor"),
        ],
    )
    def test_bad_descriptor_is_a_validation_error(
        self, model_file, numerator_file, tmp_path, capsys, which, descriptor, message
    ):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(descriptor))
        files = {"model": model_file, "numerator": numerator_file, which: str(bad)}
        code = main(["continue", "--model", files["model"], "--numerator", files["numerator"],
                     "--path", OUTSIDE, "--out", str(tmp_path / "out")])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and message in captured.err

    def test_bad_point_is_a_validation_error(self, capsys):
        assert main(["eval-eisenstein", "--s", "0.5,3", "--z", "1"]) == 1
        assert capsys.readouterr().err == "error: expected 're,im', got '1'\n"


class TestCurve:
    def test_writes_csv_svg_parabola(self, tmp_path):
        out = tmp_path / "curves"
        code = main(["curve", "--t-norm", "1", "--alpha", "2", "--out", str(out)])
        assert code == 0
        parabola = json.loads((out / "curve_t1_a2_parabola.json").read_text())
        assert parabola == {"a2": 0.0625, "c0": -3}
        svg = (out / "curve_t1_a2.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg
        csv_rows = (out / "curve_t1_a2.csv").read_text().splitlines()
        assert csv_rows[0] == "k,re,im"

    @pytest.mark.parametrize(
        "step, message",
        [("0", "step must be positive and finite"),
         ("-1", "step must be positive and finite"),
         ("nan", "step must be positive and finite"),
         ("1e-9", "step 1e-09 along the radicand curve of length 43.2666 needs more than")],
    )
    def test_bad_step_is_refused_before_sampling(self, step, message, tmp_path, capsys):
        # at 1e-9 the curve would need 4.3e10 samples: refused before any is made
        tracemalloc.start()
        try:
            code = main(["curve", "--t-norm", "1", "--alpha", "2", f"--step={step}",
                         "--out", str(tmp_path / "out")])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"error: {message}")
        assert not (tmp_path / "out").exists()
        assert peak < 1_000_000

    def test_alpha_sweep_minimum_shifts_left(self, tmp_path):
        # alpha = 2 at |t| = 1 has its leftmost point at x = -3 < 0
        for alpha in ("0.5", "2"):
            assert main(["curve", "--t-norm", "1", "--alpha", alpha,
                         "--out", str(tmp_path)]) == 0
        import csv as csv_mod

        with open(tmp_path / "curve_t1_a2.csv") as fh:
            xs = [float(row["re"]) for row in csv_mod.DictReader(fh)]
        assert min(xs) == pytest.approx(-3.0, abs=1e-6)
        with open(tmp_path / "curve_t1_a0.5.csv") as fh:
            xs = [float(row["re"]) for row in csv_mod.DictReader(fh)]
        assert min(xs) > 0.0


class TestVerifyCommand:
    def test_unknown_suite(self, capsys):
        assert main(["verify", "--suite", "bogus"]) == 1
        assert "unknown suite" in capsys.readouterr().err

    def test_winding_suite_passes(self, capsys):
        assert main(["verify", "--suite", "winding"]) == 0
        out = capsys.readouterr().out
        assert "criterion 7" in out and "PASS" in out


class TestConfig:
    def test_config_supplies_defaults_flags_win(self, model_file, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text(f'out = "{tmp_path}/cfg_out"\nstep = 0.02\n')
        code = main(["--config", str(config), "trace", "--model", model_file,
                     "--path", OUTSIDE])
        assert code == 0
        assert (tmp_path / "cfg_out" / "trace.json").exists()
        code = main(["--config", str(config), "trace", "--model", model_file,
                     "--path", OUTSIDE, "--out", str(tmp_path / "flag_out")])
        assert code == 0
        assert (tmp_path / "flag_out" / "trace.json").exists()

    def test_config_supplies_structured_fields(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text(
            'model = {"kind": "HilbertMaass", "t": [1.0, -1.0]}\n'
            f'path = "{OUTSIDE}"\n'
            f'out = "{tmp_path}/structured"\n'
        )
        assert main(["--config", str(config), "trace"]) == 0
        payload = json.loads((tmp_path / "structured" / "trace.json").read_text())
        assert payload["final_sign"] == -1

    def test_missing_model_everywhere(self, capsys):
        assert main(["branch-points"]) == 1


class TestEvalEisenstein:
    def test_point_evaluation(self, capsys):
        code = main(["eval-eisenstein", "--s", "3,0", "--z", "0,1", "--mode", "lattice_sum"])
        assert code == 0
        lattice = complex(*map(float, capsys.readouterr().out.split()))
        code = main(["eval-eisenstein", "--s", "3,0", "--z", "0,1"])
        assert code == 0
        fourier = complex(*map(float, capsys.readouterr().out.split()))
        assert abs(lattice - fourier) <= 1e-6 * abs(lattice)

    def test_completed_flag(self, capsys):
        assert main(["eval-eisenstein", "--s", "0.5,2.2", "--z", "0,1", "--completed"]) == 0
        value = complex(*map(float, capsys.readouterr().out.split()))
        assert abs(value) > 0.0

    def test_completed_high_on_critical_line(self, capsys):
        # the value is about -1.574e-27: every term decays like exp(-20 pi)
        assert main(["eval-eisenstein", "--s", "0.5,40", "--z", "0,1", "--completed"]) == 0
        value = complex(*map(float, capsys.readouterr().out.split()))
        want = mp_oracle.estar(0.5 + 40j, 0.0, 1.0, 30)
        assert abs(value.real - want.real) <= 1e-9 * abs(want.real)
        assert want.real == pytest.approx(-1.574e-27, rel=1e-3)

    def test_truncated_expansion_is_refused(self, capsys):
        # at y = 0.01 the 30 Fourier terms have not started to decay
        assert main(["eval-eisenstein", "--s", "0.5,3", "--z", "0,0.01", "--completed"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "n_terms = 30" in captured.err and "y = 0.01" in captured.err

    def test_equivalent_point_high_in_the_plane(self, capsys):
        # -1/z for z = 0.01i: the value the refused call would have to match
        assert main(["eval-eisenstein", "--s", "0.5,3", "--z", "0,100", "--completed"]) == 0
        value = complex(*map(float, capsys.readouterr().out.split()))
        assert f"{value.real:.4f}" == "-0.0020"
        want = mp_oracle.estar(0.5 + 3j, 0.0, 100.0, 1)
        assert abs(value - want) <= 1e-9 * abs(want)

    def test_overflow_is_a_numerical_failure(self, capsys):
        # xi(400) overflows: no nan is printed
        assert main(["eval-eisenstein", "--s", "200,0", "--z", "0,1", "--completed"]) == 2
        assert capsys.readouterr().out == ""


def test_import_loads_no_scipy():
    # scipy.special alone would add about 0.3 s to every command
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import poletrace.cli, sys; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "[]"


def test_eval_eisenstein_loads_no_numpy_polynomial():
    # numpy.polynomial and numpy.ma used to cost the first Eisenstein call about 16 ms
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys; from poletrace.cli import main; "
            "main(['eval-eisenstein', '--s', '0.5,3.1', '--z', '0,1', '--completed']); "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[:2] in (['numpy', 'polynomial'], ['numpy', 'ma'])))")
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out.strip().splitlines()[-1] == "[]"
