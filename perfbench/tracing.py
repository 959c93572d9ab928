"""Traced runs: wrap the public functions of each layer in spans.

The tracer lives entirely in the benchmark.  :func:`install` replaces
each function listed in :data:`LAYERS` with a wrapper that records a
span, at the place its caller looks it up: a module-level function is
replaced in every loaded ``repro`` module that holds it by name (so
``prefill_time`` is wrapped inside ``repro.sim.engine`` as well as in
``repro.perfmodel.prefill``), and a method is replaced on its class and
on every subclass that overrides it (each scheduling policy has its own
``choose``).  :meth:`Tracer.uninstall` restores the originals, so
untraced and traced operations can alternate in one process.

Spans stay in memory as ``[name, start, end, parent, op, outermost]``
and are written out once, as Chrome trace-event JSON (open it in
Perfetto), when the run ends.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

__all__ = ["LAYERS", "Layer", "Tracer", "per_layer_names"]


@dataclass(frozen=True)
class Layer:
    """One wrapped function.

    ``target`` is ``"module:function"``, ``"module:Class.method"`` or
    ``"module:Class.method+"``; the ``+`` also wraps every subclass
    that overrides the method.  ``observe(counters, args, result)``
    adds derived counts at the same boundary.
    """

    name: str
    target: str
    observe: Callable | None = None


def _span_cells(counters, args, result):
    # BatchCostModel.span_cumlat(self, ctx0, k): a batch x k matrix.
    counters["perfmodel.span_cumlat.cells"] += len(args[1]) * args[2]


def _lookup_hit(counters, args, result):
    counters["kvstore.hits"] += bool(result.hit)


def _json_mb(counters, args, result):
    counters["api.json_mb"] += len(result) / 1e6


LAYERS = (
    Layer("perfmodel.span", "repro.perfmodel.decode:BatchCostModel.span"),
    Layer("perfmodel.span_cumlat",
          "repro.perfmodel.decode:BatchCostModel.span_cumlat", _span_cells),
    Layer("perfmodel.find_boundary",
          "repro.perfmodel.decode:BatchCostModel.find_boundary"),
    Layer("perfmodel.prefill_time", "repro.perfmodel.prefill:prefill_time"),
    Layer("net.transfer_time",
          "repro.cluster.network:NetworkModel.transfer_time"),
    Layer("sim.simulate", "repro.sim.engine:simulate"),
    Layer("sim.summary", "repro.sim.engine:SimulationResult.summary"),
    Layer("sim.to_records", "repro.sim.engine:SimulationResult.to_records"),
    Layer("sim.token_times", "repro.sim.request:SimRequest.token_times"),
    Layer("api.resolve", "repro.api.runner:resolve"),
    Layer("api.from_results", "repro.api.artifact:RunArtifact.from_results"),
    Layer("api.to_json", "repro.api.artifact:RunArtifact.to_json", _json_mb),
    Layer("workload.generate_trace", "repro.workload.traces:generate_trace"),
    Layer("sched.dispatch",
          "repro.sim.scheduling:PrefillDispatchPolicy.choose+"),
    Layer("sched.placement",
          "repro.sim.scheduling:DecodePlacementPolicy.choose+"),
    Layer("kvstore.lookup", "repro.kvstore.store:TieredKVStore.lookup",
          _lookup_hit),
    Layer("kvstore.put", "repro.kvstore.store:TieredKVStore.put"),
    Layer("kvstore.select",
          "repro.kvstore.selection:CompressionSelectionPolicy.choose+"),
    Layer("recovery.delay", "repro.sim.recovery:RecoveryPolicy.delay+"),
    Layer("elastic.admit", "repro.sim.elastic:AdmissionPolicy.admit+"),
    Layer("elastic.desired", "repro.sim.elastic:AutoscalerPolicy.desired+"),
    Layer("quant.entropy_encode", "repro.quant.entropy:encode"),
    Layer("quant.entropy_decode", "repro.quant.entropy:decode"),
    Layer("quant.kmeans_1d", "repro.quant.kvquant:kmeans_1d"),
    Layer("core.quantize", "repro.core.quantize:quantize"),
    Layer("core.homomorphic_matmul",
          "repro.core.homomorphic:homomorphic_matmul"),
    Layer("core.hack_append", "repro.core.kv_cache:HackKVCache.append"),
    Layer("core.hack_attention", "repro.core.kv_cache:HackKVCache.attention"),
    Layer("accuracy.attention_error", "repro.accuracy.harness:attention_error"),
    Layer("accuracy.decode_path_error",
          "repro.accuracy.harness:decode_path_error"),
)

#: Per-layer metrics beyond each layer's calls and seconds: the whole
#: operation (the base of every layer's share) and derived counts.
DERIVED = (
    ("op.s", "s", "lower"),
    ("perfmodel.span_cumlat.cells", "count", "lower"),
    ("perfmodel.find_boundary.sim_share", "fraction", "lower"),
    ("kvstore.hit_ratio", "fraction", "higher"),
    ("api.json_mb", "MB", "lower"),
)


def per_layer_names() -> list[tuple[str, str, str]]:
    """``(name, unit, better)`` of every metric :meth:`Tracer.layer_metrics`
    reports."""
    out = []
    for layer in LAYERS:
        out += [(f"{layer.name}.calls", "count", "lower"),
                (f"{layer.name}.s", "s", "lower"),
                (f"{layer.name}.self_s", "s", "lower")]
    return out + list(DERIVED)


def _classes_overriding(base: type, attr: str) -> list[type]:
    seen, stack, out = set(), [base], []
    while stack:
        cls = stack.pop()
        if cls in seen:
            continue
        seen.add(cls)
        if attr in vars(cls):
            out.append(cls)
        stack.extend(cls.__subclasses__())
    return out


class Tracer:
    """In-memory span recorder plus the patch set that feeds it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, float] = {
            "perfmodel.span_cumlat.cells": 0, "kvstore.hits": 0,
            "api.json_mb": 0.0}
        self._stack: list[int] = []
        self._active: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        self.op = -1

    # -- recording --------------------------------------------------------

    def begin_op(self, op: int) -> int:
        """Open the span of operation ``op``; close it with :meth:`exit`."""
        self.op = op
        return self.enter("op")

    def enter(self, name: str) -> int:
        depth = self._active.get(name, 0)
        self._active[name] = depth + 1
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.op,
                           depth == 0])
        self._stack.append(index)
        return index

    def exit(self, index: int) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        self._stack.pop()
        self._active[span[0]] -= 1

    def _wrap(self, layer: Layer, fn: Callable) -> Callable:
        name, observe, counters = layer.name, layer.observe, self.counters

        def traced(*args, **kwargs):
            index = self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(index)
            if observe is not None:
                observe(counters, args, result)
            return result

        return traced

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer function (see module docstring)."""
        for layer in LAYERS:
            module_name, qualname = layer.target.split(":")
            module = importlib.import_module(module_name)
            if "." not in qualname:
                self._patch_function(layer, module, qualname)
                continue
            cls_name, attr = qualname.split(".")
            subclasses = attr.endswith("+")
            attr = attr.rstrip("+")
            base = getattr(module, cls_name)
            owners = _classes_overriding(base, attr) if subclasses else [base]
            for cls in owners:
                original = vars(cls)[attr]
                if isinstance(original, classmethod):
                    wrapped = classmethod(self._wrap(layer, original.__func__))
                else:
                    wrapped = self._wrap(layer, original)
                self._patches.append((cls, attr, original))
                setattr(cls, attr, wrapped)

    def _patch_function(self, layer: Layer, module, attr: str) -> None:
        original = getattr(module, attr)
        wrapped = self._wrap(layer, original)
        for name, mod in list(sys.modules.items()):
            if not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        """Restore every original function."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def layer_metrics(self, n_ops: int) -> dict[str, float]:
        """Per-operation means of calls, inclusive and self seconds.

        Self time is a span's duration minus the time its child spans
        cover; spans of one thread nest, so that is the sum of the
        direct children's durations.  Inclusive time counts only the
        outermost span of each name, so a wrapped override that calls
        its wrapped base is not counted twice.
        """
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _op, _outer in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        calls, incl, self_s = {}, {}, {}
        for i, (name, start, end, _parent, _op, outer) in \
                enumerate(self.spans):
            calls[name] = calls.get(name, 0) + 1
            if outer:
                incl[name] = incl.get(name, 0.0) + (end - start)
            self_s[name] = self_s.get(name, 0.0) + (end - start) - covered[i]
        out = {}
        for layer in LAYERS:
            out[f"{layer.name}.calls"] = calls.get(layer.name, 0) / n_ops
            out[f"{layer.name}.s"] = incl.get(layer.name, 0.0) / n_ops
            out[f"{layer.name}.self_s"] = self_s.get(layer.name, 0.0) / n_ops
        out["op.s"] = incl.get("op", 0.0) / n_ops
        simulate_s = out["sim.simulate.s"]
        out["perfmodel.find_boundary.sim_share"] = (
            out["perfmodel.find_boundary.s"] / simulate_s if simulate_s else 0.0)
        lookups = calls.get("kvstore.lookup", 0)
        out["kvstore.hit_ratio"] = (self.counters["kvstore.hits"] / lookups
                                    if lookups else 0.0)
        out["perfmodel.span_cumlat.cells"] = \
            self.counters["perfmodel.span_cumlat.cells"] / n_ops
        out["api.json_mb"] = self.counters["api.json_mb"] / n_ops
        return out

    def write_chrome(self, path: Path, op: int = 0) -> None:
        """Write the spans of operation ``op`` as Chrome trace events.

        One operation is written, not all: the operations of a run
        repeat the same calls, and one ``sessions_faults`` operation
        alone is ~400k spans.
        """
        spans = [(i, s) for i, s in enumerate(self.spans) if s[4] == op]
        origin = spans[0][1][1] if spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write('{"displayTimeUnit": "ms", "traceEvents": [\n')
            for n, (i, (name, start, end, parent, _op, _outer)) in \
                    enumerate(spans):
                event = {"name": name, "ph": "X", "pid": 1, "tid": 1,
                         "ts": round((start - origin) * 1e6, 3),
                         "dur": round((end - start) * 1e6, 3),
                         "args": {"id": i, "parent": parent, "op": op}}
                fh.write((",\n" if n else "") + json.dumps(event))
            fh.write("\n]}\n")
