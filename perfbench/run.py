"""Benchmark runner for ellrs: one workload per invocation, from the repo root.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 22 --trace 0

Timed mode (--trace 0) runs whole rounds of the workload for --seconds,
with one set-up probe (a fresh interpreter) after each round, checks every
output, and prints the end-to-end metrics.  Traced mode
(--trace 1) alternates untraced and traced rounds for --seconds and prints
the per-layer metrics, including the tracing overhead.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Spans of the traced run are written to perfbench/out/.
"""

from __future__ import annotations

import os

# one closed-loop caller in one single-threaded process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "RS_BACKLUND_THREADS"):
    os.environ[_var] = "1"

import argparse
import cmath
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SWEEPS = ("functional_relation", "lagrange", "null_sum", "lemma", "commute",
          "det_formula", "conjugation", "ks", "backlund_residuals", "ybe")


def loop_reference() -> None:
    """A tight pure-Python integer loop."""
    acc = 0
    for i in range(50_000):
        acc += i * i % 7


_SERIES_M = np.arange(-6, 7, dtype=float) + 0.5


def series_reference() -> complex:
    """Scalar series sums through small NumPy arrays, the shape of work of a
    scalar theta call (written apart from the package)."""
    total = 0j
    for k in range(300):
        z = complex(0.01 * k, 0.02 * k)
        q = round(z.imag)
        terms = np.exp((1j * math.pi * 1j) * _SERIES_M * _SERIES_M
                       + (2j * math.pi) * _SERIES_M * (z - q))
        total += complex(np.add.reduce(terms)) * cmath.exp(-1j * math.pi * q * z)
    return total


# the set-up reference: a fresh interpreter that imports only NumPy.  Its
# time follows set-up probes as the host's speed drifts (the in-process
# references do not), and 0.15 s is about its time on a lightly loaded core
# of the 2-core development host
SETUP_REFERENCE = [sys.executable, "-c", "import numpy"]
SETUP_NOMINAL_S = 0.15

# the host reference of each workload: the fixed computation whose time
# follows the workload's op times most closely as the host's speed drifts,
# and its time in ms on an idle core of the 2-core development host
REFERENCES = {
    "verify": (series_reference, 3.0),
    "evolve": (series_reference, 3.0),
    "ybe": (loop_reference, 4.0),
}


class HostSpeed:
    """Host-reference samples taken around every timed interval.

    The host's speed drifts by up to 3x over minutes (other tenants share
    its cores), and op times follow the reference.  A timed interval is
    therefore reported at the nominal host speed: its raw time times
    nominal_ms / median of the SIDE samples before and the SIDE after it.
    The samples are not part of any interval.
    """

    SIDE = 2

    def __init__(self, reference, nominal_ms: float):
        self.reference = reference
        self.nominal_ms = nominal_ms
        self.samples = []

    def sample(self) -> None:
        for _ in range(self.SIDE):
            start = time.perf_counter()
            self.reference()
            self.samples.append((time.perf_counter() - start) * 1e3)

    def timed(self, fn):
        """(fn(), raw seconds, mark); call sample() once after the last one."""
        self.sample()
        mark = len(self.samples)
        start = time.perf_counter()
        result = fn()
        return result, time.perf_counter() - start, mark

    def scale(self, mark: int | None = None) -> float:
        window = self.samples if mark is None else self.samples[mark - self.SIDE:mark + self.SIDE]
        return self.nominal_ms / statistics.median(window)


def metric_units(kind: str) -> dict:
    """Name -> unit of the "end_to_end" or "per_layer" metrics of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {metric["name"]: metric["unit"] for metric in json.load(fh)[kind]}


def interpreter_seconds(argv: list) -> float:
    """Wall time of one fresh interpreter that must exit with code 0."""
    start = time.perf_counter()
    proc = subprocess.run(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          timeout=120, check=False)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[1:]} failed: {proc.stderr.decode()[-2000:]}")
    return elapsed


def setup_probe(args) -> tuple:
    """(raw set-up s, reference s): a fresh interpreter that imports ellrs and
    generates the workload's first round of inputs (the --probe mode of this
    script), and the mean of the set-up reference right before and after it."""
    argv = [sys.executable, os.path.abspath(__file__), "--probe",
            "--workload", args.workload, "--seed", str(args.seed)]
    before = interpreter_seconds(SETUP_REFERENCE)
    probe = interpreter_seconds(argv)
    return probe, (before + interpreter_seconds(SETUP_REFERENCE)) / 2


class Runner:
    """Runs whole rounds of one workload and keeps every op for the checks."""

    def __init__(self, workload, host: HostSpeed):
        self.wl = workload
        self.host = host
        self.ops = []  # (op, raw latency s, ok, host mark)
        self.rounds = []  # (traced, first op index, end op index)
        self.next_round = 0

    def _call(self, op) -> bool:
        try:
            return self.wl.run(op)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            return False

    def round(self, tracer=None) -> float:
        """Run one round; return the raw time of its ops."""
        rnd = self.next_round
        self.next_round += 1
        first = len(self.ops)
        total = 0.0
        for index in range(len(self.wl.sizes)):
            op = self.wl.make_op(rnd, index)
            ok, latency, mark = self.host.timed(lambda: self._call(op))
            total += latency
            self.ops.append((op, latency, ok, mark))
            if tracer is not None:
                tracer.end_op(latency, self.wl.output_bytes(op) if ok else 0)
        self.rounds.append((tracer is not None, first, len(self.ops)))
        return total

    def finish(self) -> None:
        self.host.sample()

    def op_seconds(self, index: int, scaled: bool) -> float:
        _, latency, _, mark = self.ops[index]
        return latency * self.host.scale(mark) if scaled else latency

    def latency_p50_ms(self, traced: bool, scaled: bool) -> float:
        """Median over rounds of the mean op time in the round."""
        return statistics.median(
            sum(self.op_seconds(i, scaled) for i in range(first, end)) / (end - first)
            for t, first, end in self.rounds if t == traced
        ) * 1e3

    def ops_per_s(self, scaled: bool) -> float:
        """Completed ops per second of op time (the host samples excluded)."""
        completed = sum(1 for _, _, ok, _ in self.ops if ok)
        return completed / sum(self.op_seconds(i, scaled) for i in range(len(self.ops)))


def timed_run(runner: Runner, args) -> list:
    """Whole rounds for `args.seconds` of op time, with one set-up probe after
    each round; return the probes' (raw, reference) times."""
    wall = 0.0
    setups = []
    while wall < args.seconds:
        wall += runner.round()
        runner.host.sample()  # the samples after the round's last op
        setups.append(setup_probe(args))
    return setups


def traced_run(runner: Runner, seconds: float, trace_path: str, units: dict) -> dict:
    """Per-layer values from alternating untraced and traced rounds, times
    scaled by the run's host speed."""
    import tracing

    tracer = tracing.Tracer()
    wall = 0.0
    while wall < seconds:
        wall += runner.round()
        with tracer:
            wall += runner.round(tracer)
    runner.finish()
    tracer.dump(trace_path)
    scale = runner.host.scale()
    values = {name: value * scale if units[name] in ("ms", "us") else value
              for name, value in layer_metrics(tracer.ops, len(runner.wl.sizes)).items()}
    values["tracing.overhead_ms"] = (runner.latency_p50_ms(True, True)
                                     - runner.latency_p50_ms(False, True))
    return values


def layer_metrics(ops: list, per_round: int) -> dict:
    """Raw per-layer values of the traced ops (all but the overhead)."""
    import tracing

    profiles = [tracing.op_profile(op) for op in ops]
    rounds = [profiles[i:i + per_round] for i in range(0, len(profiles), per_round)]

    def leaf_calls(p, names):
        return sum(p["leaf_calls"].get(name, 0) for name in names)

    def span_calls(p, names):
        return sum(p["calls"].get(name, 0) for name in names)

    def first_round(fn):
        return sum(fn(p) for p in rounds[0]) / per_round

    def median_ms(fn):
        return statistics.median(sum(fn(p) for p in r) / per_round for r in rounds) * 1e3

    def pct_ms(name, q):
        values = sorted(d for p in profiles for d in p["durations"].get(name, []))
        if not values:
            return 0.0
        return values[min(len(values) - 1, int(q * len(values)))] * 1e3

    theta = tracing.THETA_FUNCS
    theta_calls = first_round(lambda p: leaf_calls(p, theta))
    theta_distinct = sum(op["theta_distinct"] for op in ops[:per_round]) / per_round
    theta_time_per_call = statistics.median(
        sum(leaf_time for p in r for name, leaf_time in p["leaf_time"].items() if name in theta)
        / max(1, sum(leaf_calls(p, theta) for p in r))
        for r in rounds
    )
    metrics = {
        "elliptic.theta_calls": theta_calls,
        "elliptic.theta_ms": median_ms(
            lambda p: sum(p["leaf_time"].get(name, 0.0) for name in theta)),
        "elliptic.theta_us_per_call": theta_time_per_call * 1e6,
        "elliptic.distinct_arg_ratio": theta_distinct / theta_calls if theta_calls else 0.0,
        "elliptic.lattice_distance_calls": first_round(
            lambda p: leaf_calls(p, ("lattice_distance",))),
        "elliptic.lattice_distance_ms": median_ms(
            lambda p: p["leaf_time"].get("lattice_distance", 0.0)),
        "elliptic.dedekind_eta_calls": first_round(lambda p: leaf_calls(p, ("dedekind_eta",))),
        "intertwiners.phi_matrix_calls": first_round(lambda p: span_calls(p, ("phi_matrix",))),
        "intertwiners.phi_inverse_calls": first_round(lambda p: span_calls(p, ("phi_inverse",))),
        "intertwiners.self_ms": median_ms(lambda p: p["self"]["intertwiners"]),
        "belavin.r_matrix_calls": first_round(lambda p: span_calls(p, ("r_matrix",))),
        "belavin.r_matrix_ms": median_ms(lambda p: p["incl"].get("r_matrix", 0.0)),
        "belavin.contraction_ms": median_ms(lambda p: p["incl"].get("_ybe_sides", 0.0)),
        "lax.backlund_calls": first_round(
            lambda p: span_calls(p, ("backlund_t", "backlund_ttilde", "backlund_C"))),
        "lax.gauge_calls": first_round(lambda p: span_calls(p, ("lax_gauge", "m_matrix"))),
        "lax.residual_calls": first_round(lambda p: span_calls(
            p, ("lax_equation_residual", "eigenvector_residual", "kernel_residual",
                "ks_identity_residual"))),
        "lax.self_ms": median_ms(lambda p: p["self"]["lax"]),
        "flow.solve_next_calls": first_round(lambda p: span_calls(p, ("solve_next",))),
        "flow.solve_next_ms_p50": pct_ms("solve_next", 0.5),
        "flow.step_ms_p50": pct_ms("step", 0.5),
        "flow.step_ms_p90": pct_ms("step", 0.9),
        "flow.nearest_assignment_ms": median_ms(
            lambda p: p["incl"].get("nearest_assignment", 0.0)),
        "flow.rs_residual_ms": median_ms(lambda p: p["incl"].get("discrete_rs_residual", 0.0)),
        "flow.self_ms": median_ms(lambda p: p["self"]["flow"]),
        **{f"identities.{sweep}_ms": median_ms(
            lambda p, sweep=sweep: p["incl"].get(f"check_{sweep}", 0.0)) for sweep in SWEEPS},
        "identities.draw_generic_calls": first_round(lambda p: span_calls(p, ("draw_generic",))),
        "identities.self_ms": median_ms(lambda p: p["self"]["identities"]),
        "cli.self_ms": median_ms(lambda p: p["self"]["cli"]),
        "cli.output_bytes": sum(op["output_bytes"] for op in ops[:per_round]) / per_round,
        "tracing.unattributed_ms": statistics.median(
            op["latency_s"] - sum(p["self"].values()) for op, p in zip(ops, profiles)) * 1e3,
    }
    return metrics


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("verify", "evolve", "ybe"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help="only import the package and generate one round of inputs")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ellrs", "__init__.py")):
        print(f"error: no ellrs package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        wl.prepare()
        if args.probe:
            for index in range(len(wl.sizes)):
                wl.make_op(0, index)
            return 0
        runner = Runner(wl, HostSpeed(*REFERENCES[args.workload]))
        if args.trace:
            trace_path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
            units, raw = metric_units("per_layer"), None
            values = traced_run(runner, args.seconds, trace_path, units)
        else:
            units = metric_units("end_to_end")
            setups = timed_run(runner, args)
            raw = {"setup_s": statistics.median(probe for probe, _ in setups),
                   "ops_per_s": runner.ops_per_s(False),
                   "latency_p50_ms": runner.latency_p50_ms(False, False)}
            values = {"setup_s": SETUP_NOMINAL_S * statistics.median(
                          probe / ref for probe, ref in setups),
                      "ops_per_s": runner.ops_per_s(True),
                      "latency_p50_ms": runner.latency_p50_ms(False, True)}
            print(f"set-up reference (a fresh interpreter that imports NumPy): median "
                  f"{statistics.median(ref for _, ref in setups):.3f} s over {len(setups)} "
                  f"probes; nominal {SETUP_NOMINAL_S} s")
            raw["peak_rss_mb"] = values["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        done = [op for op, _, ok, _ in runner.ops if ok]
        errors = wl.check(done)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for err in errors[:20]:
        print(f"check failed: {err}", file=sys.stderr)
    by_size = {}
    for op, latency, _, _ in runner.ops:
        by_size.setdefault(op.n, []).append(latency)
    for n, lats in sorted(by_size.items()):
        print(f"n={n}: {len(lats)} ops, raw median {statistics.median(lats) * 1e3:.1f} ms")
    samples = runner.host.samples
    print(f"host reference ({runner.host.reference.__name__}): {samples[0]:.3f} ms before "
          f"the workload, {samples[-1]:.3f} ms after, median {statistics.median(samples):.3f} ms "
          f"over {len(samples)} samples; nominal {runner.host.nominal_ms} ms")
    if raw:
        # the metrics before host-speed scaling, by name (the result line
        # below holds the scaled values only)
        print("raw " + json.dumps({name: raw[name] for name in units}))
    result = {
        "correct": not errors,
        "attempted": len(runner.ops),
        "failed": len(runner.ops) - len(done),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
