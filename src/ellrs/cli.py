"""Command-line front end: identity sweeps, single Backlund steps, evolution.

Subcommands:

    ellrs verify   --config cfg.json [--seed S --tol T --out PATH]
    ellrs backlund --config cfg.json [--seed S --tol T --out PATH]
    ellrs evolve   --config cfg.json [--steps N --tol T --out PATH --format json|csv]

Exit codes: 0 success / all identities passed, 1 at least one identity
failed, 2 malformed configuration, 3 Newton did not converge (for evolve:
some step failed, and the output keeps the slices before it).

Complex numbers are serialized as [re, im] pairs in JSON and as split
columns in CSV; CSV floats carry 17 significant digits so files round-trip
bit-exactly.  Identical config + seed always produces byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass

import numpy as np

from .elliptic import ModelParams, TorusParams
from .errors import (
    DegenerateSolution,
    DegenerateWeights,
    EllrsError,
    NoConvergence,
)
from .flow import SolverConfig, Trajectory, solve_next, step, trajectory_residuals
from .identities import SuiteConfig, draw_generic, run_all
from .intertwiners import WeightVector
from .lax import (
    _ks_sides,
    backlund_t,
    eigenvector_residual,
    kernel_residual,
    lax_equation_residual,
    make_backlund_step,
)

EXIT_OK = 0
EXIT_IDENTITY_FAILED = 1
EXIT_CONFIG = 2
EXIT_NO_CONVERGENCE = 3

CSV_HEADER = "a,k,re_lambda,im_lambda,re_t,im_t,re_c,im_c,rs_residual"


class ConfigError(Exception):
    """Configuration problem; the message names the offending field."""

    def __init__(self, fieldname: str, message: str):
        super().__init__(f"config field '{fieldname}': {message}")
        self.fieldname = fieldname


@dataclass
class RunConfig:
    """Parsed and validated run configuration."""

    n: int
    tau: complex
    eta: complex
    lambda0: np.ndarray | None
    t0: np.ndarray | None
    mu0: np.ndarray | None
    c0: complex
    c_schedule: list[complex]
    u: complex
    steps: int
    seed: int
    tol: float | None
    output_path: str | None
    format: str

    def model_params(self) -> ModelParams:
        try:
            return ModelParams(self.n, self.eta, TorusParams(self.tau))
        except ValueError as exc:
            raise ConfigError("eta", str(exc))


def _is_finite_number(value) -> bool:
    """A finite JSON number; type(), not isinstance(): JSON true is a bool, which is an int."""
    try:
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


def _as_complex(value, fieldname: str) -> complex:
    if _is_finite_number(value):
        return complex(value)
    if (
        isinstance(value, (list, tuple))
        and len(value) == 2
        and all(_is_finite_number(p) for p in value)
    ):
        return complex(value[0], value[1])
    raise ConfigError(fieldname, f"expected a finite number or [re, im] pair, got {value!r}")


def _as_complex_list(value, fieldname: str, n: int) -> np.ndarray:
    if not isinstance(value, (list, tuple)) or len(value) != n:
        raise ConfigError(fieldname, f"expected a list of {n} complex pairs")
    return np.array([_as_complex(v, f"{fieldname}[{i}]") for i, v in enumerate(value)])


def parse_config(raw: dict, overrides: dict | None = None) -> RunConfig:
    """Validate a JSON config document, applying CLI flag overrides."""
    overrides = overrides or {}
    if not isinstance(raw, dict):
        raise ConfigError("<root>", "config document must be a JSON object")
    merged = dict(raw)
    for key, val in overrides.items():
        if val is not None:
            merged[key] = val

    def fetch(name, default=None, required=False):
        if name in merged:
            return merged[name]
        if required:
            raise ConfigError(name, "missing required field")
        return default

    # integer fields test type(), not isinstance(): JSON true is a bool, which is an int
    n = fetch("n", required=True)
    if type(n) is not int or n < 1:
        raise ConfigError("n", f"expected a positive integer, got {n!r}")
    tau = _as_complex(fetch("tau", required=True), "tau")
    if not tau.imag > 0:
        raise ConfigError("tau", f"Im(tau) must be strictly positive, got {tau}")
    eta = _as_complex(fetch("eta", required=True), "eta")

    lambda0 = fetch("lambda0")
    if lambda0 is not None:
        lambda0 = _as_complex_list(lambda0, "lambda0", n)
    t0 = fetch("t0")
    if t0 is not None:
        t0 = _as_complex_list(t0, "t0", n)
        if np.any(t0 == 0):
            raise ConfigError("t0", "Lax weights must be nonzero")
    mu0 = fetch("mu0")
    if mu0 is not None:
        mu0 = _as_complex_list(mu0, "mu0", n)

    # c(a) = c_schedule[a], holding its last entry; without a schedule, c0 throughout
    if "c_schedule" in merged:
        schedule = merged["c_schedule"]
        if not (isinstance(schedule, (list, tuple)) and schedule):
            raise ConfigError("c_schedule", "expected a non-empty list of finite numbers or "
                                            f"[re, im] pairs, got {schedule!r}")
        c_schedule = [_as_complex(v, f"c_schedule[{i}]") for i, v in enumerate(schedule)]
    else:
        c_schedule = [_as_complex(fetch("c0", 0.0), "c0")]
    c0 = _as_complex(merged["c0"], "c0") if "c0" in merged else c_schedule[0]

    steps = fetch("steps", 0)
    if type(steps) is not int or steps < 0:
        raise ConfigError("steps", f"expected a nonnegative integer, got {steps!r}")
    seed = fetch("seed", 42)
    if type(seed) is not int:
        raise ConfigError("seed", f"expected an integer, got {seed!r}")
    tol = fetch("tol")
    if tol is not None and not (_is_finite_number(tol) and tol > 0):
        raise ConfigError("tol", f"expected a finite positive number, got {tol!r}")
    fmt = fetch("format", "csv")
    if fmt not in ("json", "csv"):
        raise ConfigError("format", f"expected 'json' or 'csv', got {fmt!r}")
    out = fetch("output_path", fetch("out"))
    if out is not None and not isinstance(out, str):
        raise ConfigError("output_path", f"expected a string path, got {out!r}")
    u = _as_complex(fetch("u", 0.0), "u")

    return RunConfig(
        n=n, tau=tau, eta=eta, lambda0=lambda0, t0=t0, mu0=mu0, c0=c0,
        c_schedule=c_schedule, u=u, steps=steps, seed=seed,
        tol=float(tol) if tol is not None else None,
        output_path=out, format=fmt,
    )


def _load_config_file(path: str, overrides: dict | None = None) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError("<file>", f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError("<file>", f"invalid JSON in {path}: {exc}")
    return parse_config(raw, overrides)


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _pair(z: complex) -> list[float]:
    return [z.real, z.imag]


def _fmt(x: float) -> str:
    return format(x, ".17g")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_verify(cfg: RunConfig) -> int:
    """Run the full identity suite; JSON report array; exit 0 iff all passed."""
    params = cfg.model_params()
    reports = run_all(SuiteConfig(params=params, seed=cfg.seed, tol=cfg.tol))
    payload = [dict(asdict(rep), worst_params=json.loads(rep.worst_params)) for rep in reports]
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", cfg.output_path)
    return EXIT_OK if all(rep.passed for rep in reports) else EXIT_IDENTITY_FAILED


def _seed_phase(cfg: RunConfig):
    """(lam, t, mu_or_None) from the config's lambda0 and t0/(mu0+c) data."""
    if cfg.lambda0 is None:
        raise ConfigError("lambda0", "missing required field")
    params = cfg.model_params()
    try:
        lam = WeightVector(cfg.lambda0, params)
    except DegenerateWeights as exc:
        raise ConfigError("lambda0", str(exc))
    if cfg.mu0 is not None:
        try:
            mu = WeightVector(cfg.mu0, params)
        except DegenerateWeights as exc:
            raise ConfigError("mu0", str(exc))
        return lam, backlund_t(lam, mu, cfg.c0), mu
    if cfg.t0 is None:
        raise ConfigError("t0", "either t0 or mu0 (with c0) is required")
    return lam, cfg.t0, None


def cmd_backlund(cfg: RunConfig) -> int:
    """One Backlund step with its residual certificate, as JSON."""
    lam, t, mu = _seed_phase(cfg)
    params = lam.params
    solver = SolverConfig(tol=cfg.tol) if cfg.tol is not None else SolverConfig()
    if mu is None:
        mu = solve_next(lam, t, cfg.c0, solver)
    bstep = make_backlund_step(lam, mu, cfg.c0, cfg.u)

    rng = np.random.default_rng([cfg.seed, 0xBA])
    zs = np.array([draw_generic(rng, params.tau, avoid=(bstep.v + params.eta,))
                   for _ in range(5)])
    # the ks identity at every k' = 0..n-1, relative to its right side
    lhs, rhs = _ks_sides(np.broadcast_to(lam.lam, (lam.n, lam.n)), mu.lam,
                         np.full(lam.n, params.eta / lam.n), np.arange(lam.n), params.torus)

    payload = {
        "mu": [_pair(x) for x in mu.lam],
        "t": [_pair(x) for x in bstep.source.t],
        "t_tilde": [_pair(x) for x in bstep.t_tilde],
        "C": [_pair(x) for x in bstep.C],
        "c": _pair(bstep.c),
        "u": _pair(bstep.u),
        "v": _pair(bstep.v),
        "residuals": {
            "lax": float(lax_equation_residual(zs, bstep).max()),
            "eigen": eigenvector_residual(bstep),
            "kernel": kernel_residual(bstep),
            "ks": float((np.abs(lhs - rhs) / (np.abs(rhs) + 1e-300)).max()),
        },
    }
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", cfg.output_path)
    return EXIT_OK


def _schedule_c(cfg: RunConfig, a: int) -> complex:
    sched = cfg.c_schedule
    return sched[a] if a < len(sched) else sched[-1]


def _trajectory_rows(traj: Trajectory) -> list[str]:
    residuals = trajectory_residuals(traj)
    rows = []
    for idx, slice_ in enumerate(traj.steps):
        rs = residuals[idx - 1] if 1 <= idx <= len(traj.steps) - 2 else math.nan
        for k in range(traj.params.n):
            lam_k = slice_.lam.lam[k]
            t_k = slice_.t[k]
            rows.append(
                ",".join(
                    [str(slice_.a), str(k)]
                    + [_fmt(x) for x in (
                        lam_k.real, lam_k.imag, t_k.real, t_k.imag,
                        slice_.c.real, slice_.c.imag,
                    )]
                    + [_fmt(rs)]
                )
            )
    return rows


def cmd_evolve(cfg: RunConfig) -> int:
    """Multi-step discrete evolution; CSV (or JSON) trajectory export."""
    # with mu0 seed data, _seed_phase already mapped it onto the t(0) weights
    lam, t, _ = _seed_phase(cfg)
    solver = SolverConfig(tol=cfg.tol) if cfg.tol is not None else SolverConfig()
    traj = Trajectory.initial(lam, t, _schedule_c(cfg, 0))
    aborted_at = None
    for a in range(cfg.steps):
        try:
            traj = step(traj, _schedule_c(cfg, a + 1), solver)
        except EllrsError as exc:
            # keep the slices computed so far; the trailer names the failed step
            aborted_at = a + 1
            print(f"error: evolve aborted at step a={aborted_at}: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            break

    if cfg.format == "json":
        payload = {
            "steps": [
                {
                    "a": s.a,
                    "lambda": [_pair(x) for x in s.lam.lam],
                    "t": [_pair(x) for x in s.t],
                    "c": _pair(s.c),
                }
                for s in traj.steps
            ],
            "rs_residuals": trajectory_residuals(traj),
            "aborted_at": aborted_at,
        }
        _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", cfg.output_path)
        return EXIT_NO_CONVERGENCE if aborted_at is not None else EXIT_OK

    lines = [CSV_HEADER] + _trajectory_rows(traj)
    if aborted_at is not None:
        lines.append(f"# aborted at step a={aborted_at}")
    _emit("\n".join(lines) + "\n", cfg.output_path)
    return EXIT_NO_CONVERGENCE if aborted_at is not None else EXIT_OK


def load_trajectory_csv(path: str):
    """Read back an evolve CSV: list of (a, lambda, t, c, rs_residual) slices."""
    slices: dict[int, dict] = {}
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise ValueError(f"unexpected CSV header: {header!r}")
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            cells = line.split(",")
            a, k = int(cells[0]), int(cells[1])
            vals = [float(x) for x in cells[2:]]
            rec = slices.setdefault(a, {"lam": {}, "t": {}, "c": None, "rs": None})
            rec["lam"][k] = complex(vals[0], vals[1])
            rec["t"][k] = complex(vals[2], vals[3])
            rec["c"] = complex(vals[4], vals[5])
            rec["rs"] = vals[6]
    out = []
    for a in sorted(slices):
        rec = slices[a]
        n = len(rec["lam"])
        lam = np.array([rec["lam"][k] for k in range(n)])
        t = np.array([rec["t"][k] for k in range(n)])
        out.append((a, lam, t, rec["c"], rec["rs"]))
    return out


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

# the override flags, each named after the config field it replaces
_FLAGS = {
    "steps": dict(type=int, help="override steps"),
    "seed": dict(type=int, help="override seed"),
    "tol": dict(type=float, help="override tolerance"),
    "out": dict(dest="output_path", help="override output path"),
    "format": dict(choices=("json", "csv"), help="override output format"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ellrs",
        description="Elliptic Ruijsenaars-Schneider toolkit: verify | backlund | evolve",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # each subcommand takes only the flags whose fields it reads
    for name, help_text, flags in (
        ("verify", "run the randomized identity suite", ("seed", "tol", "out")),
        ("backlund", "perform one Backlund step and report residuals", ("seed", "tol", "out")),
        ("evolve", "iterate the discrete-time flow and export the trajectory",
         ("steps", "tol", "out", "format")),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to a JSON config document")
        for flag in flags:
            p.add_argument(f"--{flag}", **_FLAGS[flag])
    return parser


def main(argv=None) -> int:
    overrides = vars(_build_parser().parse_args(argv))
    command, path = overrides.pop("command"), overrides.pop("config")
    try:
        run = {"verify": cmd_verify, "backlund": cmd_backlund, "evolve": cmd_evolve}[command]
        return run(_load_config_file(path, overrides))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NoConvergence, DegenerateSolution) as exc:
        print(f"error: no convergence: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except (EllrsError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
