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

    def test_diff_reports_the_correction_term(self, model_file, numerator_file, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["diff", "--model", model_file, "--numerator", numerator_file,
                     "--path", OUTSIDE, "--path2", INSIDE, "--w-end", "0.25,2.5",
                     "--out", str(out)])
        assert code == 0
        payload = json.loads((out / "diff.json").read_text())
        assert set(payload) == {"difference", "closed_form"}
        assert payload["difference"] == payload["closed_form"]["term_value"]
        s_star = complex(*payload["closed_form"]["s_star"])
        assert capsys.readouterr().out.endswith(f" at s* {s_star:.12g}\n")

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

    @pytest.mark.parametrize("command", ["continue", "diff"])
    def test_non_finite_numerator_is_refused(self, model_file, tmp_path, capsys, command):
        # json reads NaN; the descriptor is refused before anything is computed
        bad = tmp_path / "nan.json"
        bad.write_text('{"kind": "constant", "value": NaN}')
        args = [command, "--model", model_file, "--numerator", str(bad), "--path", OUTSIDE,
                "--out", str(tmp_path / "out")]
        if command == "diff":
            args += ["--path2", INSIDE, "--w-end", "0.25,2.5"]
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: numerator value must be finite, got (nan+0j)\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, numerator, value", [
        ("continue", {"kind": "gaussian", "width": 0.002}, "nan+nanj"),
        ("diff", {"kind": "gaussian", "width": 0.002}, "nan+nanj"),
        ("diff", {"kind": "constant", "value": [3, -1], "scale": [1e308, 1e308]}, "inf+infj"),
    ])
    def test_numerator_overflow_at_s_star_is_a_numerical_failure(
        self, tmp_path, capsys, command, numerator, value
    ):
        # exp((s* - 1/2)^2 / width^2) overflows at s* = 0.091 + 0.244i; so does
        # scale * value for the constant, which the symmetry probe does not evaluate
        model, numer, out = tmp_path / "model.json", tmp_path / "numerator.json", tmp_path / "out"
        model.write_text(json.dumps({"kind": "HilbertMaass", "t": [0.1, -0.1]}))
        numer.write_text(json.dumps(numerator))
        args = [command, "--model", str(model), "--numerator", str(numer),
                "--path", "1.2,0;1.2,0.3;0.1,0.3;0.1,0.25", "--out", str(out)]
        if command == "diff":
            args += ["--path2", "1.2,0;1.2,0.05;0.1,0.05;0.1,0.25", "--w-end", "0.1,0.25"]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "numerical failure: the correction term at s* = 0.0910012138813+0.244499503162j "
            f"is not finite: N(s*) = {value}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("T, code", [("1", 2), ("5", 0)])
    def test_gaussian_tail_beyond_T_is_bounded(
        self, model_file, numerator_file, tmp_path, capsys, T, code
    ):
        out = tmp_path / "out"
        assert main(["continue", "--model", model_file, "--numerator", numerator_file,
                     "--path", "1.3,0;1.2,0.3", "--T", T, "--out", str(out)]) == code
        err = capsys.readouterr().err
        if code:
            assert err.startswith("numerical failure: the Gaussian numerator's integral "
                                  "beyond T = 1 may reach 0.114, more than ")
            assert not out.exists()
        else:
            assert err == ""

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

    @pytest.mark.parametrize(
        "which, descriptor, message",
        [
            ("numerator", {"kind": "gaussian", "width": True},
             "bad numerator descriptor: width must be a number, got True"),
            ("model", {"kind": "HilbertMaass", "t": ["1", "-1"]},
             "bad model descriptor: t must be a list of numbers, got ['1', '-1']"),
            ("numerator", {"kind": "constant", "value": "2+1j"},
             "bad numerator descriptor: value must be a number or a [re, im] pair of numbers, "
             "got '2+1j'"),
            ("numerator", {"kind": "gaussian", "scale": [1, True]},
             "bad numerator descriptor: scale must be a number or a [re, im] pair of numbers, "
             "got [1, True]"),
            ("model", {"kind": "GL3Cuspidal", "t_f": "1"},
             "bad model descriptor: t_f must be a number or a [re, im] pair of numbers, got '1'"),
            ("model", {"kind": "GL2Q", "nu": True},
             "bad model descriptor: nu must be a number, got True"),
            ("numerator", {"kind": "eisenstein_product", "z0": [0, "1"], "z": [0, 1]},
             "bad numerator descriptor: z0 must be a list of 2 numbers, got [0, '1']"),
        ] + [
            ("numerator", {"kind": "eisenstein_product", "z0": [0, 1], "z": [0, 1], "n_terms": n},
             f"bad numerator descriptor: n_terms must be a non-negative integer, got {n!r}")
            for n in (2.7, True, "8", -1)
        ],
    )
    def test_number_field_of_the_wrong_json_type_is_refused(
        self, model_file, numerator_file, tmp_path, capsys, which, descriptor, message
    ):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(descriptor))
        files = {"model": model_file, "numerator": numerator_file, which: str(bad)}
        code = main(["continue", "--model", files["model"], "--numerator", files["numerator"],
                     "--path", OUTSIDE, "--out", str(tmp_path / "out")])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_bad_point_is_a_validation_error(self, capsys):
        assert main(["eval-eisenstein", "--s", "0.5,3", "--z", "1"]) == 1
        assert capsys.readouterr().err == "error: expected 're,im', got '1'\n"


class TestNonFiniteInput:
    """A NaN or infinity on the command line or in a descriptor exits 1 and names it."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["eval-eisenstein", "--s", "nan,0", "--z", "0,1"], "s must be finite, got 'nan,0'"),
            (["eval-eisenstein", "--s", "0.3,0", "--z", "nan,1"], "z must be finite, got 'nan,1'"),
            (["eval-eisenstein", "--s", "0.3,inf", "--z", "0,1"], "s must be finite"),
            (["diff", "--model", "MODEL", "--numerator", "NUMERATOR", "--path", OUTSIDE,
              "--path2", INSIDE, "--w-end", "0.25,nan"], "w-end must be finite, got '0.25,nan'"),
            (["trace", "--model", "MODEL", "--path", "1.2,0;nan,2"],
             "path point must be finite, got 'nan,2'"),
            (["curve", "--t-norm", "nan", "--alpha", "2"], "t_norm must be positive and finite"),
            (["curve", "--t-norm", "1", "--alpha", "nan"], "alpha must be finite, got nan"),
        ],
    )
    def test_flag(self, model_file, numerator_file, tmp_path, capsys, argv, message):
        out = tmp_path / "out"
        files = {"MODEL": model_file, "NUMERATOR": numerator_file}
        assert main([files.get(arg, arg) for arg in argv] + ["--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err
        assert not out.exists()

    def test_config_path(self, model_file, tmp_path, capsys):
        config = tmp_path / "settings.cfg"
        config.write_text('path = "1.2,0;inf,2"\n')
        assert main(["--config", str(config), "trace", "--model", model_file,
                     "--out", str(tmp_path / "out")]) == 1
        assert "path point must be finite, got 'inf,2'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, which, descriptor, message",
        [
            ("branch-points", "model", '{"kind": "HilbertMaass", "t": [NaN, NaN]}',
             "character parameters must be finite"),
            ("trace", "model", '{"kind": "HilbertMaass", "t": [NaN, NaN]}',
             "character parameters must be finite"),
            ("branch-points", "model", '{"kind": "GL3Cuspidal", "t_f": Infinity}',
             "t_f must be finite"),
            ("continue", "numerator", '{"kind": "eisenstein_product", "z0": [0, 1], "z": [NaN, 1]}',
             "must be finite, got x = nan"),
        ],
    )
    def test_descriptor(self, model_file, numerator_file, tmp_path, capsys,
                        command, which, descriptor, message):
        bad = tmp_path / "bad.json"
        bad.write_text(descriptor)
        files = {"model": model_file, "numerator": numerator_file, which: str(bad)}
        argv = [command, "--model", files["model"], "--out", str(tmp_path / "out")]
        if command != "branch-points":
            argv += ["--path", OUTSIDE]
        if command == "continue":
            argv += ["--numerator", files["numerator"]]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err
        assert not (tmp_path / "out").exists()


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

    @pytest.mark.parametrize("sigma_range", ["nan,3", "-inf,3", "0,inf"])
    def test_non_finite_sigma_range_is_refused(self, sigma_range, tmp_path, capsys):
        lo, hi = (float(x) for x in sigma_range.split(","))
        code = main(["curve", "--t-norm", "1", "--alpha", "2", f"--sigma-range={sigma_range}",
                     "--out", str(tmp_path / "out")])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: sigma range ({lo}, {hi}) must have finite bounds\n"

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

    @pytest.mark.parametrize(
        "command, line, message",
        [
            ("continue", 'T = "abc"', "setting 'T' must be a number, got 'abc'"),
            ("diff", 'T = "abc"', "setting 'T' must be a number, got 'abc'"),
            ("continue", "T = [1, 2]", "setting 'T' must be a number, got [1, 2]"),
            ("continue", "T = true", "setting 'T' must be a number, got True"),
            ("continue", "tol = 1e-9x", "setting 'tol' must be a number, got '1e-9x'"),
            ("trace", 'step = "x"', "setting 'step' must be a number, got 'x'"),
            ("curve", 'step = "x"', "setting 'step' must be a number, got 'x'"),
            ("trace", "out = 3", "setting 'out' must be a string, got 3"),
            ("branch-points", "out = 3", "setting 'out' must be a string, got 3"),
        ],
    )
    def test_setting_of_the_wrong_type_is_refused(
        self, model_file, numerator_file, tmp_path, capsys, command, line, message
    ):
        config = tmp_path / "run.cfg"
        config.write_text(line + "\n")
        argv = {
            "branch-points": ["--model", model_file],
            "trace": ["--model", model_file, "--path", OUTSIDE],
            "continue": ["--model", model_file, "--numerator", numerator_file, "--path", OUTSIDE],
            "diff": ["--model", model_file, "--numerator", numerator_file, "--path", OUTSIDE,
                     "--path2", INSIDE, "--w-end", "0.25,2.5"],
            "curve": ["--t-norm", "1", "--alpha", "2"],
        }[command]
        if "out" not in line:
            argv += ["--out", str(tmp_path / "out")]
        assert main(["--config", str(config), command, *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()


GL3 = {"kind": "GL3Cuspidal", "t_f": [2.0, 0.0]}
INSIDE_LOW = "1.2,0;1.2,0.3;0.25,0.3;0.25,2.5"
#: every flag of a command, with a value under which it runs
FLAGS = {
    "branch-points": {"--model": "MODEL"},
    "trace": {"--model": "MODEL", "--path": OUTSIDE, "--step": "0.02"},
    "continue": {"--model": "MODEL", "--numerator": "NUMERATOR", "--path": OUTSIDE,
                 "--T": "40", "--tol": "1e-11"},
    "diff": {"--model": "MODEL", "--numerator": "NUMERATOR", "--path": OUTSIDE,
             "--path2": INSIDE, "--w-end": "0.25,2.5", "--T": "40"},
    "curve": {"--t-norm": "1", "--alpha": "2", "--step": "0.02"},
}


class TestConfigDefaults:
    """A config value acts as its flag would, and the flag beats it."""

    @pytest.fixture
    def run(self, model_file, numerator_file, tmp_path, capsys):
        runs = iter(range(100))

        def run(command, flags, config=None):
            """(exit code, stdout, stderr, {file name: bytes}) of one fresh run."""
            out = tmp_path / f"run{next(runs)}"
            files = {"MODEL": model_file, "NUMERATOR": numerator_file}
            argv = [command]
            for flag, value in flags.items():
                argv += [flag, files.get(value, value)]
            if config is not None:
                cfg = out.with_suffix(".cfg")
                cfg.write_text(config)
                argv = ["--config", str(cfg), *argv]
            code = main(argv + ["--out", str(out)])
            captured = capsys.readouterr()
            written = {f.name: f.read_bytes() for f in out.iterdir()} if out.exists() else {}
            return code, captured.out, captured.err, written

        return run

    @pytest.mark.parametrize(
        "command, key, supplied, overriding",
        [
            ("branch-points", "model", {"kind": "GL2Q"}, GL3),
            ("continue", "model", {"kind": "HilbertMaass", "t": [1.5, -1.5]}, GL3),
            ("continue", "numerator", {"kind": "gaussian", "width": 1.5},
             {"kind": "constant", "value": 2.0}),
            ("trace", "path", INSIDE, OUTSIDE),
            ("diff", "path", OUTSIDE, INSIDE),
            ("diff", "path2", INSIDE_LOW, OUTSIDE),
            ("diff", "w-end", "0.25,2.5", "0.3,2.5"),
            ("diff", "w_end", "0.25,2.5", "0.3,2.5"),
            ("continue", "T", 30.0, 1.0),
            ("diff", "T", 30.0, -1.0),
            ("continue", "tol", 1e-9, 1e-10),
            ("trace", "step", 0.05, 0.03),
            ("curve", "step", 0.05, 0.03),
        ],
    )
    def test_config_value_acts_as_its_flag(self, run, tmp_path, command, key, supplied,
                                           overriding):
        def flag_value(value, name):
            if not isinstance(value, dict):
                return str(value)
            descriptor = tmp_path / f"{name}.json"
            descriptor.write_text(json.dumps(value))
            return str(descriptor)

        flag = "--" + key.replace("_", "-")
        others = {f: v for f, v in FLAGS[command].items() if f != flag}
        config = f"{key} = {json.dumps(supplied)}\n"
        by_flag = run(command, {**others, flag: flag_value(supplied, "supplied")})
        assert run(command, others, config) == by_flag
        overridden = run(command, {**others, flag: flag_value(overriding, "overriding")})
        assert overridden != by_flag
        assert run(command, {**others, flag: flag_value(overriding, "again")}, config) == overridden

    def test_config_names_a_descriptor_file(self, run, model_file):
        by_flag = run("trace", FLAGS["trace"])
        flags = {f: v for f, v in FLAGS["trace"].items() if f != "--model"}
        assert run("trace", flags, f"model = {json.dumps(model_file)}\n") == by_flag
        assert by_flag[0] == 0

    def test_branch_points_writes_where_out_says(self, model_file, tmp_path, capsys,
                                                 monkeypatch):
        # no out, no file; the config's out makes it write, and the flag's wins
        monkeypatch.chdir(tmp_path)
        argv = ["branch-points", "--model", model_file]
        assert main(argv) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json"]
        config = tmp_path / "run.cfg"
        config.write_text(f'out = "{tmp_path}/by_config"\n')
        assert main(["--config", str(config), *argv]) == 0
        assert main(["--config", str(config), *argv, "--out", str(tmp_path / "by_flag")]) == 0
        for out in ("by_config", "by_flag"):
            assert [p.name for p in (tmp_path / out).iterdir()] == ["branch_points.json"]

    def test_shared_file_serves_trace_and_continue(self, run):
        # trace reads model, path and out; T, tol, numerator, path2 and w-end are
        # there for the other commands and are accepted unread
        config = "\n".join([
            "# one file for trace, continue and diff",
            'model = {"kind": "HilbertMaass", "t": [1.0, -1.0]}',
            'numerator = {"kind": "gaussian", "width": 1.0}',
            f'path = "{OUTSIDE}"',
            f'path2 = "{INSIDE}"',
            'w-end = "0.25,2.5"',
            "",
            "T = 35",
            "tol = 1e-10",
        ]) + "\n"
        trace = run("trace", {}, config)
        assert trace[0] == 0
        assert trace == run("trace", {"--model": "MODEL", "--path": OUTSIDE})
        continued = run("continue", {}, config)
        assert continued[0] == 0
        assert continued == run("continue", {"--model": "MODEL", "--numerator": "NUMERATOR",
                                             "--path": OUTSIDE, "--T": "35", "--tol": "1e-10"})
        assert run("diff", {}, config)[0] == 0

    @pytest.mark.parametrize(
        "lines, message",
        [
            (["tolerance = 1e-6"], "unknown config key 'tolerance'"),
            (["model_file = \"m.json\""], "unknown config key 'model_file'"),
            (["T = 40", "# comment", "tol 1e-9"], "config line 3 is not 'key = value': 'tol 1e-9'"),
            (["[settings]"], "config line 1 is not 'key = value': '[settings]'"),
            (["model = 3"], "setting 'model' must be an object or a file name, got 3"),
            (["w-end = [0.25, 2.5]"], "setting 'w-end' must be a string, got [0.25, 2.5]"),
        ],
    )
    @pytest.mark.parametrize("command", ["trace", "continue", "curve"])
    def test_unknown_key_and_malformed_line_are_refused(self, run, command, lines, message):
        code, out, err, written = run(command, FLAGS[command], "\n".join(lines) + "\n")
        assert (code, out, err, written) == (1, "", f"error: {message}\n", {})

    @pytest.mark.parametrize(
        "which, descriptor, message",
        [
            ("numerator", {"kind": "gaussian", "widht": 3.0}, "unknown field 'widht'"),
            ("model", {"kind": "GL2Q", "t": [1, -1]}, "unknown field 't'"),
            ("model", {"kind": "HilbertMaass", "t": [1, -1], "t_f": 5}, "unknown field 't_f'"),
            ("numerator", {"kind": "constant", "width": 2.0}, "unknown field 'width'"),
        ],
    )
    @pytest.mark.parametrize("inline", [False, True], ids=["file", "inline"])
    def test_unknown_descriptor_field_is_refused(self, run, tmp_path, which, descriptor,
                                                 message, inline):
        flags = {f: v for f, v in FLAGS["continue"].items() if f != f"--{which}"}
        if inline:
            result = run("continue", flags, f"{which} = {json.dumps(descriptor)}\n")
        else:
            bad = tmp_path / "bad.json"
            bad.write_text(json.dumps(descriptor))
            result = run("continue", {**flags, f"--{which}": str(bad)})
        code, out, err, written = result
        assert (code, out, written) == (1, "", {})
        assert err.startswith(f"error: bad {which} descriptor: {message} for kind ")

    def test_branch_points_file_reads_back(self, tmp_path, capsys):
        # the model object that branch-points writes, a, c and nu included, is a descriptor
        gl3 = tmp_path / "gl3.json"
        gl3.write_text(json.dumps(GL3))
        assert main(["branch-points", "--model", str(gl3), "--out", str(tmp_path)]) == 0
        written = json.loads((tmp_path / "branch_points.json").read_text())["model"]
        assert set(written) == {"kind", "t_f", "a", "c", "nu"}
        config = tmp_path / "again.cfg"
        config.write_text(f"model = {json.dumps(written)}\n")
        first = capsys.readouterr().out
        assert main(["--config", str(config), "branch-points"]) == 0
        assert capsys.readouterr().out == first


class TestEvalEisenstein:
    def test_point_evaluation(self, capsys):
        code = main(["eval-eisenstein", "--s", "3,0", "--z", "0,1", "--mode", "lattice_sum"])
        assert code == 0
        lattice = complex(*map(float, capsys.readouterr().out.split()))
        code = main(["eval-eisenstein", "--s", "3,0", "--z", "0,1"])
        assert code == 0
        fourier = complex(*map(float, capsys.readouterr().out.split()))
        assert abs(lattice - fourier) <= 1e-6 * abs(lattice)

    def test_completed_refuses_the_lattice_mode(self, capsys):
        argv = ["eval-eisenstein", "--s", "2.5,0", "--z", "0,1", "--completed"]
        assert main(argv + ["--mode", "lattice_sum"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--completed" in captured.err and "--mode lattice_sum" in captured.err

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

    def test_zero_at_one_half(self, capsys):
        # E(1/2, z) = 0: xi(2s) has its pole there
        assert main(["eval-eisenstein", "--s", "0.5,0", "--z", "0.1,1.05"]) == 0
        assert capsys.readouterr().out == "0 0\n"

    def test_one_at_zero(self, capsys):
        # E(0, z) = 1, while E* has a real pole there
        assert main(["eval-eisenstein", "--s", "0,0", "--z", "0.1,1.05"]) == 0
        assert capsys.readouterr().out == "1 0\n"
        assert main(["eval-eisenstein", "--s", "0,0", "--z", "0.1,1.05", "--completed"]) == 1
        assert "pole" in capsys.readouterr().err

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


def _run_cli(args: list, cwd: Path) -> subprocess.CompletedProcess:
    """One fresh ``python -c`` process that runs the CLI and then lists the loaded modules."""
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys; from poletrace.cli import main; code = main(sys.argv[1:]); "
            "print(sorted(m for m in sys.modules if m.startswith('poletrace'))); sys.exit(code)")
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, cwd=cwd,
                          capture_output=True, text=True)


@pytest.mark.parametrize("args, absent", [
    (["diff", "--model", "model.json", "--numerator", "numerator.json", "--path", OUTSIDE,
      "--path2", INSIDE, "--w-end", "0.25,2.5", "--out", "out"],
     ("verify", "eisenstein", "planar")),
    (["eval-eisenstein", "--s", "0.3,1", "--z", "0.1,1.1"],
     ("paths", "continuation", "quadrature", "planar", "verify")),
])
def test_a_command_loads_only_the_modules_it_runs(tmp_path, args, absent):
    (tmp_path / "model.json").write_text(json.dumps({"kind": "HilbertMaass", "t": [1.0, -1.0]}))
    (tmp_path / "numerator.json").write_text(json.dumps({"kind": "gaussian", "width": 1.0}))
    run = _run_cli(args, tmp_path)
    assert run.returncode == 0, run.stderr
    loaded = run.stdout.strip().splitlines()[-1]
    assert "'poletrace.cli'" in loaded
    for name in absent:
        assert f"'poletrace.{name}'" not in loaded, name


def test_overflowing_constant_prints_only_the_numerical_failure(tmp_path):
    # scale * value overflows at every quadrature node; numpy's overflow
    # warning used to reach stderr ahead of the failure
    (tmp_path / "model.json").write_text(json.dumps({"kind": "HilbertMaass", "t": [0.1, -0.1]}))
    (tmp_path / "numerator.json").write_text(
        json.dumps({"kind": "constant", "value": [3, -1], "scale": [1e308, 1e308]})
    )
    run = _run_cli(["continue", "--model", "model.json", "--numerator", "numerator.json",
                    "--path", "1.2,0;1.2,0.3;0.1,0.3;0.1,0.25", "--out", "out"], tmp_path)
    assert run.returncode == 2
    assert run.stderr == "numerical failure: integrand is not finite on [-40, -8]\n"
    assert not (tmp_path / "out").exists()
