"""Per-layer tracing from outside the program.

``Tracer.install()`` replaces each traced public function of ``lueders`` by a
wrapper in every namespace that bound it (``cli`` and ``suite`` import names
such as ``commutant`` directly, while ``operation`` calls ``mk.nullspace``
through the module).  A wrapper records a span (name, start, end, parent, op
id); self time is the span's duration minus the time its traced children
cover.  High-volume leaf calls (C5 alone makes ~184k ``operator_norm`` calls)
are aggregated per parent span instead of kept one by one.  Spans stay in
memory and are written as JSON lines by ``write``.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute, label).  Attributes "Class.method" patch the class.
TRACED = (
    ("matkernel", "nullspace", "matkernel.nullspace"),
    ("matkernel", "subspaces_equal", "matkernel.subspaces_equal"),
    ("matkernel", "operator_norm", "matkernel.operator_norm"),
    ("matkernel", "hermitian_eigendecompose", "matkernel.hermitian_eigendecompose"),
    ("matkernel", "orthonormalize", "matkernel.orthonormalize"),
    ("operation", "LuedersOperation.superoperator", "operation.superoperator"),
    ("operation", "LuedersOperation.apply", "operation.apply"),
    ("operation", "fixed_point_space", "operation.fixed_point_space"),
    ("operation", "commutant", "operation.commutant"),
    ("operation", "verify_resolution_fixed_points", "operation.verify"),
    ("operation", "verify_subnormalized_fixed_points", "operation.verify"),
    ("operation", "nagy_solve", "operation.nagy_solve"),
    ("operation", "joint_eigenspaces", "operation.joint_eigenspaces"),
    ("operation", "channel_norm", "operation.channel_norm"),
    ("operation", "is_undisturbed_state", "operation.is_undisturbed_state"),
    ("witness", "witness_search", "witness.witness_search"),
    ("witness", "build_contractive_block", "witness.build_contractive_block"),
    ("witness", "contraction_threshold", "witness.contraction_threshold"),
    ("effects", "build_effect_set", "effects.build_effect_set"),
    ("effects", "generate_commuting_resolution", "effects.generate"),
    ("effects", "generate_commuting_subnormalized", "effects.generate"),
    ("effects", "generate_noncommuting_resolution", "effects.generate"),
    ("effects", "spectral_window", "effects.spectral_window"),
    ("serialize", "parse_effect_set", "serialize.parse_effect_set"),
    ("serialize", "effect_set_to_json", "serialize.effect_set_to_json"),
)
# Traced functions that call no other traced function and run by the
# hundred thousand: aggregated per parent span.
LEAVES = {"matkernel.operator_norm", "matkernel.hermitian_eigendecompose",
          "operation.apply", "effects.spectral_window"}
CLI_COMMANDS = ("verify", "analyze", "nagy", "witness", "gen", "validate", "suite")
CRITERIA = tuple(f"C{i}" for i in range(1, 11))
COMPLEX_BYTES = np.dtype(complex).itemsize
REAL_BYTES = np.dtype(float).itemsize


def _nullspace_bytes(args, result) -> dict:
    # Computed from factor shapes: σ twice (values-only SVD, then the full
    # one), U (r×r) and Vᴴ (c×c); useful are the returned kernel columns.
    rows, cols = np.shape(args[0])
    computed = 2 * REAL_BYTES * min(rows, cols) + COMPLEX_BYTES * (rows * rows + cols * cols)
    return {"bytes_computed": computed, "useful_bytes": COMPLEX_BYTES * result.size}


def _subspaces_bytes(args, result) -> dict:
    # Two d²×d² projectors and their difference.
    d2 = args[0].dim_hilbert ** 2
    return {"bytes_computed": 3 * COMPLEX_BYTES * d2 * d2}


COUNTERS = {
    "matkernel.nullspace": _nullspace_bytes,
    "matkernel.subspaces_equal": _subspaces_bytes,
    "operation.channel_norm": lambda args, result: {"probes": result.probes},
    "serialize.parse_effect_set": lambda args, result: {"bytes": len(args[0])},
    "serialize.effect_set_to_json": lambda args, result: {"bytes": len(result)},
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent, op)
        self.leaf_totals: list[tuple] = []  # (parent, op, name, count, seconds)
        self.calls: dict = defaultdict(int)
        self.self_s: dict = defaultdict(float)
        self.total_s: dict = defaultdict(float)
        self.counters: dict = defaultdict(float)
        # Open spans: [span id, seconds covered by children, {leaf: [count, seconds]}].
        self._stack: list[list] = []
        self._next_id = 0
        self._op = None

    # -- recording --------------------------------------------------------

    def call(self, name: str, op_id, fn, *args, **kwargs):
        """Run fn under a span; the root span of an op carries its op id."""
        if op_id is not None:
            self._op = op_id
        parent = self._stack[-1] if self._stack else None
        frame = [self._next_id, 0.0, {}]
        self._next_id += 1
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception:
            self.counters[f"{name}.raised"] += 1
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            dur = end - start
            if parent is not None:
                parent[1] += dur
            self.calls[name] += 1
            self.self_s[name] += dur - frame[1]
            self.total_s[name] += dur
            self.spans.append((frame[0], name, start, end, parent[0] if parent else None, self._op))
            for leaf, (count, seconds) in frame[2].items():
                self.leaf_totals.append((frame[0], self._op, leaf, count, seconds))
                self.calls[leaf] += count
                self.self_s[leaf] += seconds
                self.total_s[leaf] += seconds
        counter = COUNTERS.get(name)
        if counter is not None:
            for key, value in counter(args, result).items():
                self.counters[f"{name}.{key}"] += value
        return result

    def _wrap(self, name: str, fn):
        if name in LEAVES:
            return self._wrap_leaf(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, None, fn, *args, **kwargs)

        return wrapper

    def _wrap_leaf(self, name: str, fn):
        # Kept lean: it runs ~300k times in a full suite.  Leaves are only
        # reached inside a span (every op runs under a cli.* root span).
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                frame = stack[-1]
                frame[1] += dur
                agg = frame[2].get(name)
                if agg is None:
                    frame[2][name] = [1, dur]
                else:
                    agg[0] += 1
                    agg[1] += dur

        return wrapper

    def install(self) -> None:
        """Patch every traced function in every lueders namespace that holds it."""
        modules = [m for key, m in sys.modules.items() if key == "lueders" or key.startswith("lueders.")]
        for module_name, attr, label in TRACED:
            module = sys.modules[f"lueders.{module_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                if isinstance(orig, property):
                    setattr(cls, meth, property(self._wrap(label, orig.fget)))
                else:
                    setattr(cls, meth, self._wrap(label, orig))
                continue
            orig = getattr(module, attr)
            wrapped = self._wrap(label, orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)
        criteria = sys.modules["lueders.suite"].CRITERIA
        for cid, fn in list(criteria.items()):
            criteria[cid] = self._wrap(f"suite.{cid}", fn)

    # -- reporting --------------------------------------------------------

    def metrics(self, op_seconds: float, passes: int) -> dict:
        """Per-layer metrics: counts per pass of the schedule, time as a share of op_seconds.

        Times are shares of the traced ops' wall time, not seconds, so that a
        layer a workload never calls reads 0 as a share rather than as a time.
        """
        out = {}

        def put(name, value, unit):
            out[name] = {"value": value, "unit": unit}

        def count(name, value, unit="count"):
            put(name, value / passes, unit)

        labels = sorted({label for _, _, label in TRACED})
        for label in labels:
            count(f"{label}.calls", self.calls[label])
            put(f"{label}.self_frac", self.self_s[label] / op_seconds, "frac")
        computed = self.counters["matkernel.nullspace.bytes_computed"]
        count("matkernel.nullspace.bytes_computed", computed, "B")
        put("matkernel.nullspace.useful_frac",
            self.counters["matkernel.nullspace.useful_bytes"] / computed if computed else 0.0, "frac")
        for name, unit in (("matkernel.subspaces_equal.bytes_computed", "B"),
                           ("operation.channel_norm.probes", "count"),
                           ("witness.witness_search.raised", "count"),
                           ("serialize.parse_effect_set.bytes", "B"),
                           ("serialize.effect_set_to_json.bytes", "B")):
            count(name, self.counters[name], unit)
        for cmd in CLI_COMMANDS:
            count(f"cli.{cmd}.calls", self.calls[f"cli.{cmd}"])
            put(f"cli.{cmd}.self_frac", self.self_s[f"cli.{cmd}"] / op_seconds, "frac")
        for cid in CRITERIA:
            put(f"suite.{cid}.total_frac", self.total_s[f"suite.{cid}"] / op_seconds, "frac")
        count("trace.spans", len(self.spans) + len(self.leaf_totals))
        return out

    def write(self, path, header: dict) -> None:
        """Spans as JSON lines: a header, one line per span, one per leaf aggregate."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for sid, name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
            for parent, op, name, count, seconds in self.leaf_totals:
                fh.write(json.dumps({"name": name, "parent": parent, "op": op,
                                     "count": count, "total_s": seconds}) + "\n")
