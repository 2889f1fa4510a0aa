import csv
import math

import numpy as np
import pytest

from rnp.cli import main
from rnp.core import ImageGrid, Rng, psnr
from rnp.problems import make_ct, make_deblur, make_sr


def run_cli(args, monkeypatch=None, env=None):
    if env and monkeypatch:
        for k, v in env.items():
            monkeypatch.setenv(k, v)
    return main(args)


class TestArgumentHandling:
    def test_help_exits_zero_and_lists_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["deblur", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for flag in ("--n", "--p", "--q", "--lambda", "--lambda-grid", "--K",
                     "--seed", "--jobs", "--out", "--tol", "--max-iter"):
            assert flag in out

    @pytest.mark.parametrize("command", ["deblur", "sr", "ct", "diag"])
    def test_help_states_every_default(self, capsys, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "100")
        with pytest.raises(SystemExit):
            main([command, "--help"])
        out = capsys.readouterr().out
        assert "(default: None)" not in out
        lines = out.split("options:", 1)[1].splitlines()[1:]
        for i, line in enumerate(lines):
            if line.startswith("  -"):
                # help text follows on the same line or on an indented next line
                same_line = len(line.strip().split("  ", 1)) == 2
                next_line = i + 1 < len(lines) and lines[i + 1].startswith(" " * 20)
                assert same_line or next_line, f"no help for {line.strip()}"

    def test_lambda_and_lambda_grid_are_exclusive(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["deblur", "--lambda", "0.5", "--lambda-grid", "0.01,0.02",
                  "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert not any(tmp_path.iterdir())

    def test_bad_args_exit_code_two(self):
        # a bad choice, and a flag the CLI no longer has
        for argv in (["deblur", "--kernel", "motion"], ["ct", "--sqrt-tail", "on"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main(["fftshift"])
        assert exc.value.code == 2

    def test_runtime_failure_exit_code_one(self, tmp_path, capsys):
        # SR with n not divisible by the factor fails inside every run
        code = main(["sr", "--n", "33", "--K", "0", "--seed", "1",
                     "--out", str(tmp_path), "--max-iter", "2"])
        assert code == 1

    @pytest.mark.parametrize("flags, message", [
        (["--max-iter", "0"], "outer_max"),
        (["--max-iter", "-1"], "outer_max"),
        (["--K", "-5"], "sketch sizes"),
        (["--jobs", "0"], "jobs"),
    ])
    def test_out_of_range_budget_exits_one_before_any_run(self, tmp_path, capsys,
                                                          flags, message):
        code = main(["deblur", "--n", "32", "--seed", "1", "--out", str(tmp_path)] + flags)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not any(tmp_path.iterdir())


class TestExperimentCommands:
    def test_deblur_writes_traces_and_summary(self, tmp_path, capsys):
        code = main(["deblur", "--kernel", "gauss9", "--p", "1", "--q", "1",
                     "--n", "32", "--K", "0,16", "--seed", "1",
                     "--lambda", "0.05", "--max-iter", "2",
                     "--out", str(tmp_path)])
        assert code == 0
        exp_dir = tmp_path / "deblur_gauss9_n32"
        csvs = sorted(p.name for p in exp_dir.glob("*.csv"))
        assert "summary.csv" in csvs
        assert any(name.startswith("irm_K0") for name in csvs)
        assert any(name.startswith("irm_K16") for name in csvs)
        out = capsys.readouterr().out
        assert "summary" in out

    def test_ct_uses_wapg_and_defaults(self, tmp_path):
        code = main(["ct", "--reg", "tv", "--n", "32", "--views", "10",
                     "--K", "0,8", "--seed", "1", "--lambda", "0.5",
                     "--max-iter", "3", "--out", str(tmp_path)])
        assert code == 0
        exp_dir = tmp_path / "ct_tv_n32"
        assert any(p.name.startswith("wapg_K8") for p in exp_dir.glob("*.csv"))

    @pytest.mark.parametrize("reg, box", [("tv", (0.0, 1.0)), ("hs", (0.0, 1.0)),
                                          ("wavelet", (-math.inf, math.inf))])
    def test_ct_boxes_the_image_except_for_the_separable_wavelet_prox(self, tmp_path,
                                                                     monkeypatch, reg, box):
        import rnp.cli as cli
        specs = []
        monkeypatch.setattr(cli, "run_experiment", lambda spec: specs.append(spec) or [])
        assert main(["ct", "--reg", reg, "--out", str(tmp_path)]) == 0
        assert [(spec.box_lo, spec.box_hi) for spec in specs] == [box]

    def test_out_dir_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RNP_OUT_DIR", str(tmp_path / "envout"))
        code = main(["deblur", "--n", "32", "--K", "0", "--seed", "2",
                     "--lambda", "0.05", "--max-iter", "1"])
        assert code == 0
        assert (tmp_path / "envout" / "deblur_gauss9_n32" / "summary.csv").exists()


class TestConfigFile:
    def test_config_supplies_defaults_and_flags_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 32\nmax-iter = 1  # short run\nlambda = 0.05\n")
        code = main(["deblur", "--config", str(cfg), "--K", "0", "--seed", "3",
                     "--out", str(tmp_path), "--max-iter", "2"])
        assert code == 0
        rows = list(csv.reader(open(
            tmp_path / "deblur_gauss9_n32" / "irm_K0_lam0.05_seed3.csv")))
        assert len(rows) - 1 == 2  # flag overrode the config's max-iter

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("sharpness = 9\n")
        with pytest.raises(SystemExit):
            main(["deblur", "--config", str(cfg), "--out", str(tmp_path)])

    def test_malformed_line_rejected(self, tmp_path):
        cfg = tmp_path / "bad2.cfg"
        cfg.write_text("just some words\n")
        with pytest.raises(SystemExit):
            main(["deblur", "--config", str(cfg), "--out", str(tmp_path)])


class TestDiag:
    def test_diag_passes_and_prints_measurements(self, capsys):
        code = main(["diag", "--seed", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "28" in out  # condition-number threshold is printed
        assert "PASS" in out

    def test_diag_reproducible(self, capsys):
        main(["diag", "--seed", "5"])
        first = capsys.readouterr().out
        main(["diag", "--seed", "5"])
        second = capsys.readouterr().out
        assert first == second


class TestDefaultLambda:
    @pytest.mark.parametrize("command", ["deblur", "sr"])
    def test_default_run_beats_corrupted_input(self, tmp_path, command):
        code = main([command, "--n", "32", "--seed", "1", "--max-iter", "3",
                     "--out", str(tmp_path)])
        assert code == 0
        if command == "deblur":
            problem = make_deblur("gauss9", 32, 0.05, Rng(1))
            observed = ImageGrid(32, 32, problem.y)
        else:
            # nearest-neighbour upsampling of the half-resolution observation
            problem = make_sr(32, 2, 0.05, Rng(1))
            low = problem.y.reshape(16, 16, order="F")
            observed = ImageGrid.from_matrix(np.kron(low, np.ones((2, 2))))
        input_psnr = psnr(observed, problem.ground_truth)
        summary = next(tmp_path.glob("*/summary.csv"))
        with open(summary, newline="") as f:
            rows = list(csv.DictReader(f))
        assert {int(r["K"]) for r in rows} == {0, 100}
        for row in rows:
            assert row["status"] == "ok"
            assert float(row["final_psnr"]) > input_psnr

    @pytest.mark.parametrize("reg", ["tv", "wavelet", "hs"])
    def test_default_ct_run_beats_zero_image(self, tmp_path, reg):
        code = main(["ct", "--reg", reg, "--n", "32", "--seed", "1", "--max-iter", "10",
                     "--out", str(tmp_path)])
        assert code == 0
        truth = make_ct(32, 60, reg, 0.01, Rng(1)).ground_truth
        zero_psnr = psnr(ImageGrid(32, 32, np.zeros(32 * 32)), truth)
        with open(tmp_path / f"ct_{reg}_n32" / "summary.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert {int(r["K"]) for r in rows} == {0, 100 if reg == "hs" else 20}
        for row in rows:
            assert row["status"] == "ok"
            assert float(row["final_psnr"]) > zero_psnr
