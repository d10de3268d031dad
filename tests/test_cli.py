import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import gibbslab
from gibbslab.cli import console_entry, main


def write_config(tmp_path, **overrides):
    cfg = {
        "experiment": "violation",
        "space_spec": {
            "name": "random_loss_table",
            "params": {"num_hypotheses": 16, "num_points": 8, "seed": 3},
        },
        "n": 50,
        "beta_grid": [10.0],
        "delta": 0.05,
        "trials": 150,
        "master_seed": 11,
        "output_path": str(tmp_path / "out.csv"),
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path, cfg


class TestRun:
    def test_successful_run(self, tmp_path, capsys):
        cfg_path, cfg = write_config(tmp_path)
        assert main(["run", str(cfg_path)]) == 0
        assert (tmp_path / "out.csv").exists()
        assert (tmp_path / "out.json").exists()
        assert "violation PASS" in capsys.readouterr().out

    def test_missing_output_path(self, tmp_path, capsys):
        cfg_path, _ = write_config(tmp_path, output_path=None)
        assert main(["run", str(cfg_path)]) == 2
        assert "output_path" in capsys.readouterr().err

    def test_unknown_key_reported_without_traceback(self, tmp_path, capsys):
        cfg_path, _ = write_config(tmp_path, trails=3)
        assert main(["run", str(cfg_path)]) == 2
        assert capsys.readouterr().err == "gibbslab: error: unknown config keys: trails\n"

    def test_bad_space_spec_reported_without_traceback(self, tmp_path, capsys):
        spec = {"name": "random_loss_table", "params": {"num_hypotheses": 16, "num_point": 8, "seed": 3}}
        cfg_path, _ = write_config(tmp_path, space_spec=spec)
        assert main(["run", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("gibbslab: error: space generator 'random_loss_table'") and "num_point" in err

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"n": None}, "missing config keys: n"),
            ({"n": None, "delta": None}, "missing config keys: n, delta"),
            ({"output_path": 5}, "output_path must be a string or null, got 5"),
            ({"density": "polynomial"}, "a density family spec must be an object with a name and params"),
            ({"density": {"params": {"a": 1.0}}}, "unknown density family None"),
            ({"density": {"name": "polynomial", "params": {"b": 1}}}, "unknown parameters ['b'], missing parameters ['a']"),
            ({"density": {"name": "polynomial", "params": {"a": math.nan}}}, "a must be a finite non-negative number, got nan"),
            ({"density": {"name": "capped_exponential", "params": {"beta": 1.0, "cap": "2"}}}, "cap must be a finite"),
        ],
    )
    def test_bad_config_reported_without_traceback(self, tmp_path, capsys, overrides, message):
        cfg_path, cfg = write_config(tmp_path, bound_kind="beyond_gibbs", **overrides)
        # None marks a key to leave out
        cfg_path.write_text(json.dumps({key: value for key, value in cfg.items() if value is not None}))
        assert main(["run", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("gibbslab: error: ") and message in err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("count", ["8", 8.5, True, None])
    def test_non_integer_generator_count_reported_without_traceback(self, tmp_path, capsys, count):
        spec = {"name": "random_loss_table", "params": {"num_hypotheses": count, "num_points": 8, "seed": 3}}
        cfg_path, _ = write_config(tmp_path, space_spec=spec)
        assert main(["run", str(cfg_path)]) == 2
        assert capsys.readouterr().err == (
            f"gibbslab: error: num_hypotheses must be an integer of at least 1, got {count!r}\n"
        )

    def test_missing_config_file_reported_without_traceback(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "absent.json")]) == 2
        assert capsys.readouterr().err.startswith("gibbslab: error: ")

    def test_uncertifiable_delta_fails(self, tmp_path):
        # 150 clean trials cannot certify a rate below 0.001 at 99% confidence
        cfg_path, _ = write_config(tmp_path, delta=0.001)
        assert main(["run", str(cfg_path)]) == 1


class TestVerify:
    def test_determinism_suite(self, capsys):
        assert main(["verify", "determinism"]) == 0
        out = capsys.readouterr().out
        assert "criterion 11 PASS" in out
        assert "suite determinism: PASS" in out

    def test_wall_times_go_to_stderr(self, capsys):
        # stderr: one wall-time line per criterion; stdout: criterion 11's two
        # `gibbslab run` lines, then the verdict lines, then the suite line
        assert main(["verify", "quick"]) == 0
        out, err = capsys.readouterr()
        lines = out.splitlines()
        assert [line.split(" -> ")[0] for line in lines[:2]] == ["violation PASS"] * 2
        assert [line.split()[:3] for line in lines[2:6]] == [["criterion", k, "PASS"] for k in ("02", "03", "10", "11")]
        assert lines[6:] == ["suite quick: PASS (4/4)"]
        assert re.fullmatch(r"criterion 02 wall \d+\.\d{3}s\ncriterion 03 wall \d+\.\d{3}s\n"
                            r"criterion 10 wall \d+\.\d{3}s\ncriterion 11 wall \d+\.\d{3}s\n", err)

    def test_unknown_suite_rejected(self):
        with pytest.raises(SystemExit):
            main(["verify", "not-a-suite"])


class TestSweep:
    def test_phase_sweep(self, tmp_path, capsys):
        out = tmp_path / "phase.csv"
        code = main(
            [
                "sweep",
                "--experiment",
                "phase",
                "--beta-min",
                "0.1",
                "--beta-max",
                "100.0",
                "--beta-steps",
                "12",
                "--n",
                "50",
                "--delta",
                "0.05",
                "--seed",
                "7",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "beta,diagonal,kl,plateau"
        assert len(lines) == 13
        assert "PASS" in capsys.readouterr().out

    def test_zero_beta_steps_reported_without_traceback(self, tmp_path, capsys):
        argv = ["sweep", "--experiment", "phase", "--beta-min", "0.1", "--beta-max", "1.0", "--beta-steps", "0"]
        argv += ["--n", "50", "--delta", "0.05", "--seed", "7", "--out", str(tmp_path / "phase.csv")]
        assert main(argv) == 2
        assert capsys.readouterr().err == "gibbslab: error: beta_grid must be nonempty\n"
        assert not (tmp_path / "phase.csv").exists()

    def test_zero_temp_sweep_with_custom_space(self, tmp_path):
        out = tmp_path / "zt.csv"
        space = json.dumps(
            {"name": "k_minimizer_space", "params": {"num_hypotheses": 50, "num_minimizers": 5, "seed": 2}}
        )
        code = main(
            [
                "sweep",
                "--experiment",
                "zero_temp",
                "--beta-min",
                "0.0",
                "--beta-max",
                "200.0",
                "--beta-steps",
                "9",
                "--n",
                "40",
                "--delta",
                "0.1",
                "--seed",
                "3",
                "--out",
                str(out),
                "--space",
                space,
            ]
        )
        assert code == 0
        assert out.read_text().splitlines()[0] == "beta,lambda_drawn,lambda_min,limit"


def test_console_script_help():
    # A fresh interpreter starts the CLI as `python -m gibbslab`, which runs the
    # same `console_entry` as the installed `gibbslab` script. The child imports
    # the package this suite imported, whatever the working directory.
    package_parent = str(Path(gibbslab.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_parent, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "gibbslab", "--help"], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("usage: gibbslab")
    assert "run" in result.stdout and "verify" in result.stdout and "sweep" in result.stdout


def test_console_script_entry_point():
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parent.parent / "pyproject.toml", "rb") as f:
        scripts = tomllib.load(f)["project"]["scripts"]
    assert scripts["gibbslab"] == "gibbslab.cli:console_entry"
    # importing the module does not run the CLI; it only names the entry point
    from gibbslab import __main__ as module_main

    assert module_main.console_entry is console_entry
