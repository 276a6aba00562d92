"""Out-of-package tracing of the ellrs layers.

Every ellrs function is wrapped where a consuming module binds it (for
example ``ellrs.lax.theta_odd`` and ``ellrs.cli.step``), because each module
imports the names it uses into its own namespace.  Layer functions get a
span each: name, layer, start, end and parent.  Kernel functions of
``ellrs.elliptic`` are leaves: they are wrapped only in the modules that
consume them (so a kernel calling a kernel is not counted twice) and are
aggregated into per-parent counts and time, which keeps memory flat over tens
of thousands of calls per op.  Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import json
import sys
import time
import types

LAYERS = ("elliptic", "intertwiners", "belavin", "lax", "flow", "identities", "cli")
# private functions that get a span of their own
EXTRA_SPANS = {"belavin": ("_ybe_sides",)}
THETA_FUNCS = frozenset({
    "theta_odd", "theta_odd_deriv", "theta_char", "theta_char_deriv",
    "theta_band", "theta_level", "zeta_log", "phi_kernel",
})


def _arg_key(name, args, kwargs):
    key = (name, args, tuple(sorted(kwargs.items())))
    try:
        hash(key)
    except TypeError:
        key = (name, repr(args), repr(sorted(kwargs.items())))
    return key


class Tracer:
    """Installs wrappers on the ellrs modules and records one op at a time."""

    def __init__(self):
        self.ops = []  # one record per traced op
        self._saved = []
        self._stack = []
        self._next_id = 0
        self._spans = []
        self._leaves = {}
        self._distinct = set()

    # -- installation -----------------------------------------------------

    def _targets(self):
        # ellrs.cli is imported only by the workloads that use it
        modules = {layer: sys.modules[f"ellrs.{layer}"] for layer in LAYERS
                   if f"ellrs.{layer}" in sys.modules}
        for consumer in modules.values():
            for attr, func in vars(consumer).items():
                if not isinstance(func, types.FunctionType):
                    continue
                origin = func.__module__.rpartition(".")[2]
                if origin not in modules or not func.__module__.startswith("ellrs."):
                    continue
                if attr.startswith("_") and attr not in EXTRA_SPANS.get(origin, ()):
                    continue
                if origin == "elliptic":
                    if consumer is not modules["elliptic"]:
                        yield consumer, attr, func, self._leaf(attr, func)
                else:
                    yield consumer, attr, func, self._span(attr, origin, func)

    def __enter__(self):
        for module, attr, func, wrapper in list(self._targets()):
            self._saved.append((module, attr, func))
            setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for module, attr, func in reversed(self._saved):
            setattr(module, attr, func)
        self._saved.clear()

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, layer, func):
        stack, spans, clock = self._stack, self._spans, time.perf_counter

        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, layer, start, end, parent))

        return wrapper

    def _leaf(self, name, func):
        stack, leaves, distinct, clock = self._stack, self._leaves, self._distinct, time.perf_counter

        def wrapper(*args, **kwargs):
            distinct.add(_arg_key(name, args, kwargs))
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                elapsed = clock() - start
                slot = (stack[-1] if stack else -1, name)
                rec = leaves.get(slot)
                if rec is None:
                    leaves[slot] = [1, elapsed]
                else:
                    rec[0] += 1
                    rec[1] += elapsed

        return wrapper

    # -- op records -------------------------------------------------------

    def end_op(self, latency_s: float, output_bytes: int) -> None:
        """Close the current op: move its spans, leaves and distinct count."""
        theta_distinct = sum(1 for key in self._distinct if key[0] in THETA_FUNCS)
        self.ops.append({
            "latency_s": latency_s,
            "output_bytes": output_bytes,
            "spans": list(self._spans),
            "leaves": dict(self._leaves),
            "theta_distinct": theta_distinct,
        })
        # the wrappers hold these containers, so empty them in place
        self._spans.clear()
        self._leaves.clear()
        self._distinct.clear()
        self._stack.clear()

    def dump(self, path: str) -> None:
        """Write every recorded span and leaf aggregate as JSON."""
        ops = [
            {
                "latency_s": op["latency_s"],
                "output_bytes": op["output_bytes"],
                "theta_distinct": op["theta_distinct"],
                "spans": [dict(zip(("id", "name", "layer", "start", "end", "parent"), s))
                          for s in op["spans"]],
                "leaves": [{"parent": p, "name": n, "calls": c, "seconds": t}
                           for (p, n), (c, t) in op["leaves"].items()],
            }
            for op in self.ops
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"ops": ops}, fh)


def op_profile(op: dict) -> dict:
    """Per-layer self time and per-function counts / inclusive time of one op.

    A span's self time is its duration minus the time of its child spans and
    of the leaf calls made directly under it.
    """
    child = {}
    for sid, _, _, start, end, parent in op["spans"]:
        child[parent] = child.get(parent, 0.0) + (end - start)
    calls, incl, leaf_calls, leaf_time = {}, {}, {}, {}
    for (parent, name), (count, seconds) in op["leaves"].items():
        child[parent] = child.get(parent, 0.0) + seconds
        leaf_calls[name] = leaf_calls.get(name, 0) + count
        leaf_time[name] = leaf_time.get(name, 0.0) + seconds
    self_time = {layer: 0.0 for layer in LAYERS}
    self_time["elliptic"] = sum(leaf_time.values())
    durations = {}
    for sid, name, layer, start, end, parent in op["spans"]:
        self_time[layer] += (end - start) - child.get(sid, 0.0)
        calls[name] = calls.get(name, 0) + 1
        incl[name] = incl.get(name, 0.0) + (end - start)
        durations.setdefault(name, []).append(end - start)
    roots = sum(end - start for _, _, _, start, end, parent in op["spans"] if parent == -1)
    return {"self": self_time, "calls": calls, "incl": incl, "durations": durations,
            "leaf_calls": leaf_calls, "leaf_time": leaf_time, "root_s": roots}
