"""CLI tests: exit codes, output schemas, determinism, round trips."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ellrs.cli as cli
from ellrs import (ModelParams, NonconvergentSeries, TorusParams, WeightVector,
                   discrete_rs_residual, generating_function)
from ellrs.cli import CSV_HEADER, load_trajectory_csv, main

FIXTURE = {
    "n": 3,
    "tau": [0.0, 1.0],
    "eta": [0.23, 0.0],
    "lambda0": [[0.11, 0.03], [0.43, -0.06], [-0.37, 0.09]],
    "mu0": [[0.06, 0.01], [0.39, -0.08], [-0.40, 0.07]],
    "c0": [0.1, 0.0],
    "u": [0.17, 0.05],
    "steps": 10,
    "seed": 42,
    "format": "csv",
}


def write_config(tmp_path, name="cfg.json", **extra):
    cfg = dict(FIXTURE)
    cfg.update(extra)
    for key, val in list(cfg.items()):
        if val is None:
            del cfg[key]
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestConfigValidation:
    def test_bad_tau_names_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path, tau=[0.0, -1.0])
        code = main(["verify", "--config", cfg])
        assert code == 2
        assert "tau" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        code = main(["verify", "--config", str(tmp_path / "missing.json")])
        assert code == 2

    def test_bad_steps(self, tmp_path, capsys):
        cfg = write_config(tmp_path, steps=-3)
        code = main(["evolve", "--config", cfg])
        assert code == 2
        assert "steps" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["n", "steps", "seed"])
    def test_bool_integer_field_names_field(self, field, tmp_path, capsys):
        # JSON true is a Python bool, which is also an int; it must not read as 1
        cfg = write_config(tmp_path, **{field: True})
        code = main(["evolve" if field == "steps" else "verify", "--config", cfg,
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"config field '{field}'" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("tol", True), ("tol", math.inf), ("c0", True), ("u", True),
        ("eta", [math.nan, 0.0]), ("tau", [math.nan, 1.0]),
    ])
    def test_bool_or_nonfinite_number_names_field(self, field, value, tmp_path, capsys):
        # JSON true reads as 1, and Python's json parses NaN and Infinity as floats
        cfg = write_config(tmp_path, **{field: value})
        code = main(["verify", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"config field '{field}'" in capsys.readouterr().err

    @pytest.mark.parametrize("schedule, want", [
        ([0.1, 0.2], [0.1, 0.2]),
        ([0.1, 0.2, 0.3], [0.1, 0.2, 0.3]),
        ([0.12, [0.1, 0]], [0.12, 0.1]),
        ([[0.1, 0], 0.12], [0.1, 0.12]),
    ])
    def test_c_schedule_entries(self, schedule, want):
        # each entry is one number or one [re, im] pair, whatever the type of the first
        assert cli.parse_config(dict(FIXTURE, c_schedule=schedule)).c_schedule == want

    @pytest.mark.parametrize("schedule, field", [
        (0.1, "c_schedule"), ([], "c_schedule"), ("0.1", "c_schedule"),
        ([0.1, [0.2]], "c_schedule[1]"), ([0.1, True], "c_schedule[1]"),
        ([[0.1, math.nan]], "c_schedule[0]"),
    ])
    def test_bad_c_schedule_names_entry(self, schedule, field, tmp_path, capsys):
        cfg = write_config(tmp_path, c_schedule=schedule)
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert f"config field '{field}'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["verify", "--steps", "3"], ["verify", "--format", "json"],
        ["backlund", "--steps", "3"], ["backlund", "--format", "json"],
        ["evolve", "--seed", "3"],
    ])
    def test_flag_the_command_ignores_is_refused(self, argv, tmp_path):
        cfg = write_config(tmp_path)
        with pytest.raises(SystemExit) as info:
            main([argv[0], "--config", cfg, "--out", str(tmp_path / "out")] + argv[1:])
        assert info.value.code == 2

    def test_c0_is_optional(self, tmp_path):
        path = tmp_path / "minimal.json"
        path.write_text(json.dumps({"n": 2, "tau": [0, 1], "eta": [0.23, 0], "seed": 1}))
        code = main(["verify", "--config", str(path), "--out", str(tmp_path / "v.json")])
        assert code == 0

    def test_zero_t0_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, t0=[[0.0, 0.0], [1.0, 0.0], [1.0, 0.0]], mu0=None)
        code = main(["backlund", "--config", cfg])
        assert code == 2
        assert "t0" in capsys.readouterr().err


class TestVerify:
    def test_default_passes(self, tmp_path):
        out = tmp_path / "verify.json"
        cfg = write_config(tmp_path)
        code = main(["verify", "--config", cfg, "--out", str(out)])
        assert code == 0
        reports = json.loads(out.read_text())
        assert len(reports) >= 10
        assert all(r["passed"] for r in reports)

    def test_thread_variable_is_ignored(self, tmp_path, monkeypatch):
        # the suite runs in sequence; the old thread-count variable is not read
        monkeypatch.setenv("RS_BACKLUND_THREADS", "abc")
        cfg = write_config(tmp_path)
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "v.json")]) == 0

    def test_tight_tolerance_fails(self, tmp_path):
        out = tmp_path / "verify.json"
        cfg = write_config(tmp_path, tol=1e-15)
        code = main(["verify", "--config", cfg, "--out", str(out)])
        assert code == 1
        reports = json.loads(out.read_text())
        assert any(not r["passed"] for r in reports)


class TestBacklund:
    def test_fixture_residuals(self, tmp_path):
        out = tmp_path / "bl.json"
        cfg = write_config(tmp_path)
        code = main(["backlund", "--config", cfg, "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert set(payload["residuals"]) == {"lax", "eigen", "kernel", "ks"}
        assert all(v < 1e-8 for v in payload["residuals"].values())
        assert len(payload["mu"]) == 3 and len(payload["t_tilde"]) == 3

    def test_solves_mu_from_t0(self, tmp_path, params3):
        # feed t0 computed from the fixture's mu0 and recover mu0
        from ellrs import backlund_t

        lam = WeightVector(np.array([complex(*p) for p in FIXTURE["lambda0"]]), params3)
        mu = WeightVector(np.array([complex(*p) for p in FIXTURE["mu0"]]), params3)
        t0 = backlund_t(lam, mu, 0.1)
        out = tmp_path / "bl.json"
        cfg = write_config(
            tmp_path, mu0=None, t0=[[t.real, t.imag] for t in t0]
        )
        code = main(["backlund", "--config", cfg, "--out", str(out)])
        assert code == 0
        got = np.array([complex(*p) for p in json.loads(out.read_text())["mu"]])
        assert np.abs(got - mu.lam).max() < 1e-7

    def test_unsolvable_exits_3(self, tmp_path):
        cfg = write_config(
            tmp_path, mu0=None, t0=[[1e30, 0.0], [1.0, 0.0], [1.0, 0.0]]
        )
        code = main(["backlund", "--config", cfg, "--out", str(tmp_path / "x.json")])
        assert code == 3

    def test_n1_scalar(self, tmp_path):
        out = tmp_path / "bl1.json"
        cfg = write_config(
            tmp_path,
            n=1,
            lambda0=[[0.3, 0.05]],
            mu0=[[0.18, -0.02]],
        )
        code = main(["backlund", "--config", cfg, "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload["mu"]) == 1


class TestEvolve:
    def test_ten_steps_csv(self, tmp_path):
        out = tmp_path / "traj.csv"
        cfg = write_config(tmp_path)
        code = main(["evolve", "--config", cfg, "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 11 * 3  # header + (steps+1) * n rows
        for a, lam, t, c, rs in load_trajectory_csv(str(out)):
            if 1 <= a <= 9:
                assert rs < 1e-8
            else:
                assert math.isnan(rs)

    def test_c_schedule(self, tmp_path):
        # c follows the schedule, then holds its last value; the factor e^{c(a) - c(a-1)}
        # of the equation of motion is not 1 across the scheduled slices
        schedule = [[0.1, 0.0], [0.12, 0.01], [0.08, -0.02]]
        out = tmp_path / "traj.csv"
        cfg = write_config(tmp_path, c_schedule=schedule, steps=6)
        assert main(["evolve", "--config", cfg, "--out", str(out)]) == 0
        slices = load_trajectory_csv(str(out))
        assert [s[0] for s in slices] == list(range(7))
        want = [complex(*schedule[min(a, 2)]) for a in range(7)]
        assert [s[3] for s in slices] == want
        assert all(rs < 1e-8 for _, _, _, _, rs in slices[1:-1])

    def test_zero_steps(self, tmp_path):
        out = tmp_path / "traj.csv"
        cfg = write_config(tmp_path, steps=0)
        code = main(["evolve", "--config", cfg, "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 3

    def test_steps_flag_overrides(self, tmp_path):
        out = tmp_path / "traj.csv"
        cfg = write_config(tmp_path)
        code = main(["evolve", "--config", cfg, "--steps", "2", "--out", str(out)])
        assert code == 0
        assert len(out.read_text().strip().splitlines()) == 1 + 3 * 3

    def test_round_trip_residuals(self, tmp_path, params3):
        out = tmp_path / "traj.csv"
        cfg = write_config(tmp_path)
        assert main(["evolve", "--config", cfg, "--out", str(out)]) == 0
        slices = load_trajectory_csv(str(out))
        for idx in range(1, len(slices) - 1):
            _, lam_p, _, c_p, _ = slices[idx - 1]
            _, lam_c, _, c_c, stored = slices[idx]
            _, lam_n, _, _, _ = slices[idx + 1]
            recomputed = discrete_rs_residual(
                WeightVector(lam_p, params3),
                WeightVector(lam_c, params3),
                WeightVector(lam_n, params3),
                c_p,
                c_c,
            )
            assert abs(recomputed - stored) < 1e-12

    def test_aborted_run_truncates_with_trailer(self, tmp_path):
        cfg = write_config(
            tmp_path, mu0=None, t0=[[1e30, 0.0], [1.0, 0.0], [1.0, 0.0]], steps=5
        )
        out = tmp_path / "traj.csv"
        code = main(["evolve", "--config", cfg, "--out", str(out)])
        assert code == 3
        lines = out.read_text().strip().splitlines()
        assert lines[-1] == "# aborted at step a=1"
        assert len(lines) == 1 + 3 + 1  # header + initial slice + trailer

    def test_abort_names_step_on_stderr(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, mu0=None, t0=[[1e30, 0.0], [1.0, 0.0], [1.0, 0.0]], steps=5
        )
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "traj.csv")]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: evolve aborted at step a=1: NoConvergence: solve_next failed")
        assert "best relative residual" in err

    def test_numeric_error_keeps_good_steps(self, tmp_path, monkeypatch):
        real_step = cli.step

        def failing_step(traj, *args):
            if len(traj.steps) == 3:
                raise NonconvergentSeries("|theta| overflows double precision")
            return real_step(traj, *args)

        monkeypatch.setattr(cli, "step", failing_step)
        out = tmp_path / "traj.csv"
        code = main(["evolve", "--config", write_config(tmp_path), "--out", str(out)])
        assert code == 3
        lines = out.read_text().strip().splitlines()
        assert lines[-1] == "# aborted at step a=3"
        assert len(lines) == 1 + 3 * 3 + 1  # header + slices a = 0, 1, 2 + trailer

    def test_fourth_weight_start(self, tmp_path):
        # this start once ran into a theta overflow (exit 2, no CSV)
        lam0 = np.array([0.11 + 0.03j, 0.43 - 0.06j, -0.37 + 0.09j, -0.12 - 0.21j])
        mu0 = lam0 - 0.05 - 0.02j + 0.01 * np.arange(4)
        cfg = write_config(
            tmp_path, n=4, steps=100,
            lambda0=[[x.real, x.imag] for x in lam0], mu0=[[x.real, x.imag] for x in mu0],
        )
        out = tmp_path / "traj.csv"
        code = main(["evolve", "--config", cfg, "--out", str(out)])
        assert code == 0
        slices = load_trajectory_csv(str(out))
        assert len(slices) == 101
        assert max(rs for a, _, _, _, rs in slices if 1 <= a <= 99) < 1e-8

    def test_json_format(self, tmp_path):
        out = tmp_path / "traj.json"
        cfg = write_config(tmp_path, format="json", steps=2)
        code = main(["evolve", "--config", cfg, "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload["steps"]) == 3
        assert payload["aborted_at"] is None


class TestDeterminism:
    def test_evolve_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["evolve", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["evolve", "--config", cfg, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_verify_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["verify", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["verify", "--config", cfg, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_backlund_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["backlund", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["backlund", "--config", cfg, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


def test_import_loads_no_scipy():
    # the package runs on NumPy alone; scipy is only a test oracle
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = "import sys, ellrs, ellrs.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_runs_with_scipy_blocked(tmp_path):
    # with every scipy import failing, evolve writes the same bytes and the
    # generating function gives the same value as in this process
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    cfg = write_config(tmp_path)
    blocked, ordinary = tmp_path / "blocked.csv", tmp_path / "ordinary.csv"
    code = f"""
import sys
sys.modules["scipy"] = None
try:
    import scipy.optimize
except ImportError:
    pass
else:
    raise SystemExit("scipy is not blocked")
from ellrs import ModelParams, TorusParams, WeightVector, generating_function
from ellrs.cli import main
assert main(["evolve", "--config", {cfg!r}, "--steps", "100", "--out", {str(blocked)!r}]) == 0
params = ModelParams(3, 0.23, TorusParams(1j))
lam = WeightVector([0.11 + 0.03j, 0.43 - 0.06j, -0.37 + 0.09j], params)
mu = WeightVector([0.06 + 0.01j, 0.39 - 0.08j, -0.40 + 0.07j], params)
print(repr(generating_function(lam, mu, 0.1, 0.17 + 0.05j)))
"""
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    assert main(["evolve", "--config", cfg, "--steps", "100", "--out", str(ordinary)]) == 0
    assert blocked.read_bytes() == ordinary.read_bytes()
    params = ModelParams(3, 0.23, TorusParams(1j))
    lam = WeightVector([0.11 + 0.03j, 0.43 - 0.06j, -0.37 + 0.09j], params)
    mu = WeightVector([0.06 + 0.01j, 0.39 - 0.08j, -0.40 + 0.07j], params)
    assert out.stdout.strip() == repr(generating_function(lam, mu, 0.1, 0.17 + 0.05j))
