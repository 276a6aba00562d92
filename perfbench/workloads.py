"""The benchmark's three workloads: inputs from a seed, one op, output checks.

Every workload is a closed loop with one caller.  Work comes in rounds; a
round holds one op of each size in the workload's cycle, so every run
attempts whole rounds of the same mix.  The inputs of op i of round r depend
only on (seed, r, i).

The program is reached the way a user reaches it: CLI ops call
``ellrs.cli.main(argv)`` on a generated config file and write their output to
a file, library ops call ``ellrs.belavin.ybe_residual``.  Both are looked up
on the module object at call time, so the traced run's wrappers see them.

Checks compare outputs against ``oracle`` (which shares no code with the
package) or against properties the method must have; none compares against a
stored copy of earlier output.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

import oracle

TAU = 1j
ETA = 0.23
README_LAMBDA = (0.11 + 0.03j, 0.43 - 0.06j, -0.37 + 0.09j)
# fourth weight of the n = 4 evolve start; its 100-step trajectory moves
# every component by at most 0.08 per step (no lattice jumps)
FOURTH_WEIGHT = 0.24 + 0.35j
# per-op jitter of the evolve start, so no two ops repeat an input
EVOLVE_JITTER = 1e-3
EVOLVE_STEPS = 100
CSV_HEADER = "a,k,re_lambda,im_lambda,re_t,im_t,re_c,im_c,rs_residual"

# (draws, tol) of every report `ellrs verify` writes with default settings;
# {n} is the model rank
VERIFY_REPORTS = {
    "functional_relation": (100, 1e-9),
    "lagrange_N3": (50, 1e-9),
    "null_sum_N3": (50, 1e-9),
    "lemma_N3": (30, 1e-9),
    "commute": (20, 1e-8),
    "det_formula_n{n}": (50, 1e-9),
    "conjugation": (20, 1e-9),
    "ks_identity": (50, 1e-9),
    "eigenvector": (25, 1e-8),
    "kernel": (25, 1e-8),
    "lax_equation": (25, 1e-8),
    "ybe": (15, 1e-8),
}


@dataclass
class Op:
    """One operation: its size, inputs and (after running) its outcome."""

    round: int
    n: int
    inputs: dict
    argv: list = field(default_factory=list)
    out_path: str | None = None
    exit_code: int | None = None
    result: float | None = None


def op_rng(seed: int, rnd: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, rnd, index])


def _pairs(values) -> list:
    return [[complex(v).real, complex(v).imag] for v in values]


class CliWorkload:
    """Shared set-up of the two workloads that drive `ellrs.cli.main`."""

    command = ""
    sizes: tuple = ()

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def prepare(self) -> None:
        import ellrs.cli

        self.cli = ellrs.cli

    def make_op(self, rnd: int, index: int) -> Op:
        n = self.sizes[index]
        cfg = self.config(n, op_rng(self.seed, rnd, index))
        stem = os.path.join(self.workdir, f"{self.command}-{rnd}-{index}")
        with open(stem + ".json", "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        out = stem + (".csv" if self.command == "evolve" else ".out.json")
        argv = [self.command, "--config", stem + ".json", "--out", out]
        return Op(rnd, n, cfg, argv, out)

    def run(self, op: Op) -> bool:
        """Run the op; False when the command could not do its job.

        Exit 2 (config or numeric error) and 3 (no convergence) are failed
        ops; exit 1 (an identity failed) is a completed op with a wrong
        output, which the checks reject.
        """
        op.exit_code = self.cli.main(op.argv)
        return op.exit_code in (0, 1)

    def output_bytes(self, op: Op) -> int:
        return os.path.getsize(op.out_path)


class VerifyWorkload(CliWorkload):
    """`ellrs verify` at n = 2, 3, 4 with a fresh suite seed per op."""

    command = "verify"
    sizes = (2, 3, 4)

    def config(self, n: int, rng: np.random.Generator) -> dict:
        # c0 is unused by verify, but a config without it is rejected
        return {"n": n, "tau": _pairs([TAU])[0], "eta": [ETA, 0.0], "c0": [0.1, 0.0],
                "seed": int(rng.integers(2**63))}

    def check(self, ops: list) -> list:
        errors = []
        for op in ops:
            where = f"verify n={op.n} seed={op.inputs['seed']}"
            if op.exit_code != 0:
                errors.append(f"{where}: exit {op.exit_code}")
                continue
            with open(op.out_path, encoding="utf-8") as fh:
                reports = {rep["identity_name"]: rep for rep in json.load(fh)}
            expected = {name.format(n=op.n): spec for name, spec in VERIFY_REPORTS.items()}
            if set(reports) != set(expected):
                errors.append(f"{where}: reports {sorted(reports)}")
                continue
            for name, (draws, tol) in expected.items():
                rep = reports[name]
                if not (rep["passed"] and rep["draws"] == draws and rep["tol"] == tol
                        and rep["seed"] == op.inputs["seed"] and rep["max_residual"] < tol):
                    errors.append(f"{where}: report {name} = {rep}")
            res = functional_relation_residual(**reports["functional_relation"]["worst_params"])
            if not res < VERIFY_REPORTS["functional_relation"][1]:
                errors.append(f"{where}: oracle functional_relation residual {res:.3e}")
            name = f"det_formula_n{op.n}"
            res = det_formula_residual(op.n, reports[name]["worst_params"]["z"])
            if not res < VERIFY_REPORTS["det_formula_n{n}"][1]:
                errors.append(f"{where}: oracle {name} residual {res:.3e}")
        return errors


def _cx(pair) -> complex:
    return complex(pair[0], pair[1])


def functional_relation_residual(z, x, y) -> float:
    """theta'(0) Phi_z(x) Phi_z(y) vs Phi_z(x+y)(zeta(z)+zeta(x)+zeta(y)-zeta(z+x+y))."""
    z, x, y = _cx(z), _cx(x), _cx(y)

    def phi(a, b):
        return oracle.theta(a + b, TAU) / (oracle.theta(a, TAU) * oracle.theta(b, TAU))

    lhs = oracle.theta_prime0(TAU) * phi(z, x) * phi(z, y)
    rhs = phi(z, x + y) * (oracle.zeta(z, TAU) + oracle.zeta(x, TAU) + oracle.zeta(y, TAU)
                           - oracle.zeta(z + x + y, TAU))
    return float(abs(lhs - rhs) / (abs(lhs) + abs(rhs)))


def det_formula_residual(n: int, zs) -> float:
    """det(theta_i(z_j)), i = 1..n, against its closed product form."""
    zs = np.array([_cx(z) for z in zs])
    mat = np.array([oracle.theta_level(i, zs, n, TAU) for i in range(1, n + 1)])
    det = complex(np.linalg.det(mat))
    ie = 1j * oracle.dedekind_eta(TAU)
    sign = (-1) ** (n - 1) * (-1) ** (n * (n - 1) // 2)
    rhs = sign * complex(oracle.theta(zs.sum(), TAU)) * ie ** (n - 1)
    for i in range(n):
        for j in range(i + 1, n):
            rhs *= complex(oracle.theta(zs[j] - zs[i], TAU)) / ie
    return abs(det - rhs) / (abs(det) + abs(rhs))


class EvolveWorkload(CliWorkload):
    """`ellrs evolve --steps 100`, alternating the README start (n = 3) and
    its n = 4 extension, each jittered per op."""

    command = "evolve"
    sizes = (3, 4)

    def config(self, n: int, rng: np.random.Generator) -> dict:
        base = np.array((README_LAMBDA + (FOURTH_WEIGHT,))[:n])
        lam0 = base + EVOLVE_JITTER * (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n))
        mu0 = lam0 - 0.05 - 0.02j + 0.01 * np.arange(n)
        return {"n": n, "tau": _pairs([TAU])[0], "eta": [ETA, 0.0],
                "lambda0": _pairs(lam0), "mu0": _pairs(mu0), "c0": [0.1, 0.0],
                "steps": EVOLVE_STEPS, "seed": int(rng.integers(2**63)), "format": "csv"}

    def check(self, ops: list) -> list:
        errors = []
        for op in ops:
            where = f"evolve n={op.n} start={op.inputs['lambda0'][0]}"
            if op.exit_code != 0:
                errors.append(f"{where}: exit {op.exit_code}")
                continue
            with open(op.out_path, encoding="utf-8") as fh:
                text = fh.read()
            errors += [f"{where}: {e}" for e in trajectory_errors(text, op.inputs)]
        return errors


def read_trajectory(text: str, n: int):
    """(lam, t, c, rs) arrays indexed [a, k] from an evolve CSV, or an error."""
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return None, "bad header"
    if any(line.startswith("#") for line in lines):
        return None, "aborted: " + [line for line in lines if line.startswith("#")][0]
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != (EVOLVE_STEPS + 1) * n:
        return None, f"{len(rows)} rows, expected {(EVOLVE_STEPS + 1) * n}"
    idx = np.array([[int(r[0]), int(r[1])] for r in rows])
    want = np.array([[a, k] for a in range(EVOLVE_STEPS + 1) for k in range(n)])
    if not np.array_equal(idx, want):
        return None, "slices out of order or missing"
    vals = np.array([[float(x) for x in r[2:]] for r in rows]).reshape(EVOLVE_STEPS + 1, n, 7)
    lam = vals[..., 0] + 1j * vals[..., 1]
    t = vals[..., 2] + 1j * vals[..., 3]
    c = vals[:, 0, 4] + 1j * vals[:, 0, 5]
    return (lam, t, c, vals[:, 0, 6]), None


def _ratio_products(x, y, shift):
    """prod_s theta(x_k - y_s + shift) / theta(x_k - y_s) for stacked rows."""
    d = x[..., :, None] - y[..., None, :]
    return np.prod(oracle.theta(d + shift, TAU) / oracle.theta(d, TAU), axis=-1)


def trajectory_errors(text: str, inputs: dict) -> list:
    """Check an evolve CSV against the step equation, the companion formula
    for t(a+1) and the second-order residual column."""
    n = inputs["n"]
    parsed, err = read_trajectory(text, n)
    if err:
        return [err]
    lam, t, c, rs = parsed
    errors = []
    lam0 = np.array([_cx(p) for p in inputs["lambda0"]])
    mu0 = np.array([_cx(p) for p in inputs["mu0"]])
    c0 = _cx(inputs["c0"])
    if np.abs(lam[0] - lam0).max() > 1e-15 or np.abs(c - c0).max() > 0:
        errors.append("slice 0 or c column does not match the config")
    t0 = np.exp(c0) * _ratio_products(lam0, mu0, ETA / n)
    step = np.exp(c[:-1, None]) * _ratio_products(lam[:-1], lam[1:], ETA / n)
    # companion: t_k(a+1) = e^c prod_{m != k} theta(mu_mk - eta/n)/theta(mu_mk + eta/n)
    #                      * prod_s theta(lam_s - mu_k + eta/n)/theta(lam_s - mu_k)
    mu, prev = lam[1:], lam[:-1]
    dmu = mu[:, None, :] - mu[:, :, None]  # [a, k, m] = mu_m - mu_k
    off = ~np.eye(n, dtype=bool)
    pair = np.where(off, oracle.theta(dmu - ETA / n, TAU) / oracle.theta(dmu + ETA / n, TAU), 1.0)
    dls = prev[:, None, :] - mu[:, :, None]  # [a, k, s] = lam_s - mu_k
    cross = oracle.theta(dls + ETA / n, TAU) / oracle.theta(dls, TAU)
    companion = np.exp(c[:-1, None]) * pair.prod(axis=-1) * cross.prod(axis=-1)
    for label, want, got in (("t(0)", t0, t[0]), ("step equation", step, t[:-1]),
                             ("companion t(a+1)", companion, t[1:])):
        worst = float((np.abs(want - got) / np.abs(got)).max())
        if not worst < 1e-8:
            errors.append(f"{label} relative residual {worst:.3e}")
    interior = rs[1:-1]
    if not (np.all(interior < 1e-8) and math.isnan(rs[0]) and math.isnan(rs[-1])):
        errors.append(f"rs_residual column: max interior {np.nanmax(interior):.3e}")
    return errors


class YbeWorkload:
    """`ellrs.belavin.ybe_residual(z, w, params)` at n = 6, 7, 8, with (z, w)
    uniform over the cell."""

    sizes = (6, 7, 8)

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def prepare(self) -> None:
        import ellrs.belavin
        from ellrs.elliptic import ModelParams, TorusParams

        self.belavin = ellrs.belavin
        self.params = {n: ModelParams(n, ETA, TorusParams(TAU)) for n in self.sizes}

    def make_op(self, rnd: int, index: int) -> Op:
        rng = op_rng(self.seed, rnd, index)
        z, w = (complex(rng.uniform(), 0) + rng.uniform() * TAU for _ in range(2))
        return Op(rnd, self.sizes[index], {"z": z, "w": w})

    def run(self, op: Op) -> bool:
        op.result = self.belavin.ybe_residual(op.inputs["z"], op.inputs["w"], self.params[op.n])
        return True

    def output_bytes(self, op: Op) -> int:
        return 0

    def check(self, ops: list) -> list:
        errors = []
        for n in sorted({op.n for op in ops}):
            r0 = self.belavin.r_matrix(0.0, self.params[n]).entries
            perm = np.einsum("il,jk->ijkl", np.eye(n), np.eye(n))
            if not np.abs(r0 - perm).max() < 1e-12:
                errors.append(f"ybe n={n}: R(0) is not the permutation operator")
        for op in ops:
            where = f"ybe n={op.n} z={op.inputs['z']} w={op.inputs['w']}"
            if not op.result < 1e-8:
                errors.append(f"{where}: residual {op.result:.3e}")
            for arg in (op.inputs["z"], op.inputs["w"]):
                got = self.belavin.r_matrix(arg, self.params[op.n]).entries
                want = r_matrix_closed_form(arg, op.n)
                err = np.abs(got - want).max() / np.abs(want).max()
                if not err < 1e-10:
                    errors.append(f"{where}: R({arg}) differs from the closed form by {err:.3e}")
        return errors


def r_matrix_closed_form(z: complex, n: int) -> np.ndarray:
    """Belavin R(z) from the uncancelled closed form, with oracle thetas:

    R[i j, i' j'] = delta_{i+j, i'+j'} theta^(i'-j')(z+eta)
                    / (theta^(i'-i)(eta) theta^(i-j')(z))
                    * prod_k theta^(k)(z) / prod_{k>=1} theta^(k)(0)
    """
    ks = np.arange(n)
    band_z = np.array([oracle.theta_band(k, z, n, TAU) for k in ks])
    band_eta = np.array([oracle.theta_band(k, ETA, n, TAU) for k in ks])
    band_ze = np.array([oracle.theta_band(k, z + ETA, n, TAU) for k in ks])
    norm = band_z.prod() / np.prod([oracle.theta_band(k, 0.0, n, TAU) for k in ks[1:]])
    out = np.zeros((n, n, n, n), dtype=complex)
    for i in ks:
        for j in ks:
            for i2 in ks:
                j2 = (i + j - i2) % n
                out[i, j, i2, j2] = (band_ze[(i2 - j2) % n] * norm
                                     / (band_eta[(i2 - i) % n] * band_z[(i - j2) % n]))
    return out


WORKLOADS = {"verify": VerifyWorkload, "evolve": EvolveWorkload, "ybe": YbeWorkload}
