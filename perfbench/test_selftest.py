"""Self-test of the benchmark's oracle, checks and tracer.

Run from the repo root (kept out of the package's own test suite):

    python3 -m pytest -q perfbench
"""

import json
import os
import sys
from types import SimpleNamespace

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from ellrs import ModelParams, TorusParams, dedekind_eta, theta_band, theta_level, theta_odd  # noqa: E402
from ellrs.belavin import RTensor  # noqa: E402
from ellrs.elliptic import zeta_log  # noqa: E402

TAU = 1j
TORUS = TorusParams(TAU)


def random_points(count, seed=7, spread=3):
    """Cell-uniform points shifted by random lattice vectors."""
    rng = np.random.default_rng(seed)
    base = rng.uniform(size=count) + rng.uniform(size=count) * TAU
    return base + rng.integers(-spread, spread + 1, count) + rng.integers(-spread, spread + 1, count) * TAU


def rel(a, b):
    return abs(a - b) / max(abs(a), abs(b))


def test_oracle_matches_theta_odd():
    pts = random_points(200)
    want = oracle.theta(pts, TAU)
    for z, w in zip(pts, want):
        assert rel(theta_odd(z, TORUS), w) < 1e-12


def test_oracle_matches_theta_band_and_level():
    for n in (2, 3, 4, 6, 8):
        params = ModelParams(n, 0.23, TORUS)
        for j, z in enumerate(random_points(30, seed=n, spread=1)):
            assert rel(theta_band(j, z, params), oracle.theta_band(j, z, n, TAU)) < 1e-12
            assert rel(theta_level(j, z, params), oracle.theta_level(j, z, n, TAU)) < 1e-12


def test_oracle_zeta_and_eta():
    for z in random_points(50, seed=3, spread=1):
        assert rel(zeta_log(z, TORUS), oracle.zeta(z, TAU)) < 1e-12
    assert rel(dedekind_eta(TAU), oracle.dedekind_eta(TAU)) < 1e-14


def test_oracle_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    q = mpmath.exp(1j * mpmath.pi * TAU)
    for z in random_points(20, seed=11, spread=2):
        want = -complex(mpmath.jtheta(1, mpmath.pi * z, q))
        assert rel(complex(oracle.theta(z, TAU)), want) < 1e-13
    assert rel(oracle.dedekind_eta(TAU), complex(mpmath.eta(TAU))) < 1e-15


def run_round(name, tmp_path, seed=5):
    wl = workloads.WORKLOADS[name](seed, str(tmp_path))
    wl.prepare()
    ops = [wl.make_op(0, i) for i in range(len(wl.sizes))]
    for op in ops:
        assert wl.run(op)
    return wl, ops


def test_verify_check_rejects_perturbed_report(tmp_path):
    wl, ops = run_round("verify", tmp_path)
    assert wl.check(ops) == []
    op = ops[0]
    with open(op.out_path) as fh:
        reports = json.load(fh)
    reports[0]["max_residual"] = 2 * reports[0]["tol"]
    with open(op.out_path, "w") as fh:
        json.dump(reports, fh)
    assert wl.check([op])
    reports[0]["max_residual"] = 0.0
    reports[0]["draws"] -= 1
    with open(op.out_path, "w") as fh:
        json.dump(reports, fh)
    assert wl.check([op])


def test_evolve_check_rejects_nudged_lambda(tmp_path):
    wl, ops = run_round("evolve", tmp_path)
    assert wl.check(ops) == []
    op = ops[1]
    with open(op.out_path) as fh:
        lines = fh.read().splitlines()
    cells = lines[200].split(",")
    cells[2] = repr(float(cells[2]) + 1e-6)
    nudged = lines[:200] + [",".join(cells)] + lines[201:]
    assert workloads.trajectory_errors("\n".join(nudged), op.inputs)
    aborted = lines[: 1 + 50 * op.n] + ["# aborted at step a=50"]
    assert workloads.trajectory_errors("\n".join(aborted), op.inputs)


def test_ybe_check_rejects_bad_residual_and_entry(tmp_path):
    wl, ops = run_round("ybe", tmp_path)
    assert wl.check(ops) == []
    ops[0].result = 2e-8
    assert wl.check(ops[:1])
    ops[0].result = 0.0
    real = wl.belavin

    def nudged_r_matrix(z, params):
        entries = real.r_matrix(z, params).entries.copy()
        entries[1, 0, 0, 1] *= 1 + 1e-9
        return RTensor(entries, z, params)

    wl.belavin = SimpleNamespace(r_matrix=nudged_r_matrix)
    assert wl.check(ops[:1])


def test_traced_counts_repeat_and_self_times_add_up(tmp_path):
    records = []
    for _ in range(2):
        wl = workloads.WORKLOADS["verify"](9, str(tmp_path))
        wl.prepare()
        tracer = tracing.Tracer()
        op = wl.make_op(0, 0)
        original = wl.cli.main
        with tracer:
            assert wl.cli.main is not original
            assert wl.run(op)
            tracer.end_op(0.0, 0)
        assert wl.cli.main is original
        records.append(tracing.op_profile(tracer.ops[0]))
    first, second = records
    assert first["leaf_calls"] == second["leaf_calls"]
    assert first["calls"] == second["calls"]
    for prof in records:
        assert sum(prof["self"].values()) == pytest.approx(prof["root_s"], rel=1e-9)

