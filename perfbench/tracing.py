"""Spans around the calls into each spectheta layer, and the per-layer metrics.

The child process installs the hooks: each public function is replaced,
in the namespace its callers look it up in, by a wrapper that records a
span (name, parent, start, end, value).  Spans live in flat arrays until
the run ends and are then written as one .npz file.  The parent turns
them into per-layer metrics.  Every `*_s` metric is self time, a span's
duration minus the part its child spans cover, so the layers' self times
and `cli.self_s` add up to the traced run time.

A hook whose target no longer exists is skipped and listed as missing;
the metrics that need it are left out of the report instead of failing.
"""

from __future__ import annotations

import importlib
import time
from array import array

import numpy as np

# (module, attribute where callers look it up, span name, payload kind)
HOOKS = (
    ("spectheta.cli", "extremal_search", "enumeration.search", "search"),
    ("spectheta.cli", "enumerate_by_edges", "enumeration.stream", "stream"),
    ("spectheta.cli", "verify_theorem_instance", "verify.certificate", None),
    ("spectheta.cli", "from_graph6", "graph6.decode", None),
    ("spectheta.cli", "to_graph6", "graph6.encode", None),
    ("spectheta.cli", "spectral_radius", "spectral.radius", "spectral"),
    ("spectheta.cli", "contains_theta", "theta.contains", "theta"),
    ("spectheta.enumeration", "canonical_label", "canon.label", None),
    ("spectheta.enumeration", "canonical_edge", "canon.edge", None),
    ("spectheta.enumeration", "canonical_form", "canon.form", None),
    ("spectheta.enumeration", "canonical_order", "canon.order", None),
    ("spectheta.enumeration", "contains_theta", "theta.contains", "theta"),
    ("spectheta.enumeration", "spectral_radius", "spectral.radius", "spectral"),
    ("spectheta.enumeration", "to_graph6", "graph6.encode", None),
    ("spectheta.verify", "contains_theta", "theta.contains", "theta"),
    ("spectheta.verify", "spectral_radius", "spectral.radius", "spectral"),
    ("spectheta.verify", "to_graph6", "graph6.encode", None),
    ("spectheta.graphs", "Graph.__init__", "graphs.build", None),
    ("spectheta.graphs", "Graph.with_edge", "graphs.build", None),
    ("spectheta.graphs", "Graph.without_edge", "graphs.build", None),
    ("spectheta.graphs", "Graph.induced", "graphs.build", None),
    ("spectheta.graphs", "Graph.components", "graphs.walk", None),
    ("spectheta.graphs", "Graph.component_count", "graphs.walk", None),
    ("spectheta.graphs", "Graph.is_connected", "graphs.walk", None),
)

# Span value on success; a call that raised keeps the value -1.
PAYLOADS = {
    None: lambda result: 0,
    "theta": lambda result: int(result is not None),
    "spectral": lambda result: int(result.iterations),
    "search": lambda result: int(result.num_candidates),
    "stream": lambda result: 0,
}

CACHE_OWNER = ("spectheta.canon", "_canonical_pieces")

# Every per-layer metric: (unit, which direction is better).
PER_LAYER = {
    "canon.label_calls": ("count", "lower"),
    "canon.label_s": ("s", "lower"),
    "canon.labels_per_s": ("1/s", "higher"),
    "canon.edge_calls": ("count", "lower"),
    "canon.cache_hit_ratio": ("ratio", "higher"),
    "canon.cache_evictions": ("count", "lower"),
    "theta.calls": ("count", "lower"),
    "theta.s": ("s", "lower"),
    "theta.checks_per_s": ("1/s", "higher"),
    "theta.witness_ratio": ("ratio", "higher"),
    "spectral.calls": ("count", "lower"),
    "spectral.s": ("s", "lower"),
    "spectral.solves_per_s": ("1/s", "higher"),
    "spectral.iterations": ("count", "lower"),
    "spectral.failures": ("count", "lower"),
    "enumeration.self_s": ("s", "lower"),
    "enumeration.classes": ("count", "higher"),
    "enumeration.yield_ratio": ("ratio", "higher"),
    "graphs.build_calls": ("count", "lower"),
    "graphs.build_s": ("s", "lower"),
    "graphs.walk_calls": ("count", "lower"),
    "graphs.walk_s": ("s", "lower"),
    "graph6.calls": ("count", "lower"),
    "graph6.encode_s": ("s", "lower"),
    "graph6.decode_s": ("s", "lower"),
    "verify.calls": ("count", "higher"),
    "verify.self_s": ("s", "lower"),
    "verify.theta_per_cert": ("ratio", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.run_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name = array("h")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.value = array("q")
        self.stack: list[int] = []
        self.installed: list[str] = []
        self.missing: list[str] = []

    def install(self, hooks=HOOKS):
        for module, attr, span, kind in hooks:
            target = f"{module}.{attr}"
            try:
                owner = importlib.import_module(module)
            except ImportError:
                self.missing.append(target)
                continue
            *outer, leaf = attr.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            fn = vars(owner).get(leaf) if owner is not None else None
            if not callable(fn):
                self.missing.append(target)
                continue
            wrapped = self._wrap(fn, self._name_id(span), PAYLOADS[kind])
            if kind == "stream":
                wrapped = self._stream(wrapped, self._name_id(span))
            setattr(owner, leaf, wrapped)
            self.installed.append(target)

    def _name_id(self, span: str) -> int:
        if span not in self.names:
            self.names.append(span)
        return self.names.index(span)

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.value.append(-1)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int, value: int):
        self.end[idx] = time.perf_counter()
        self.stack.pop()
        self.value[idx] = value

    def _wrap(self, fn, nid, payload):
        names, parents, starts, ends, values, stack = (
            self.name, self.parent, self.start, self.end, self.value, self.stack)
        clock = time.perf_counter

        # Inlined _open/_close: this wrapper runs a few hundred thousand times a run.
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            values.append(-1)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            values[idx] = payload(result)
            return result

        return traced

    def _stream(self, call, nid):
        # A generator does its work inside next(), so each step is a span;
        # a step's value is 1 when it yielded an item.
        def steps(iterator):
            while True:
                idx = self._open(nid)
                try:
                    item = next(iterator)
                except StopIteration:
                    self._close(idx, 0)
                    return
                except BaseException:
                    self._close(idx, -1)
                    raise
                self._close(idx, 1)
                yield item

        def traced(*args, **kwargs):
            return steps(iter(call(*args, **kwargs)))

        return traced

    def dump(self, path: str) -> dict:
        np.savez(path, name=np.frombuffer(self.name, np.int16),
                 parent=np.frombuffer(self.parent, np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                 value=np.frombuffer(self.value, np.int64))
        return {"names": self.names, "installed": self.installed, "missing": self.missing,
                "cache": cache_info()}


def cache_info():
    """Counters of the canonical-label lru_cache, read through its public API."""
    try:
        fn = getattr(importlib.import_module(CACHE_OWNER[0]), CACHE_OWNER[1])
        info = fn.cache_info()
    except (ImportError, AttributeError):
        return None
    return info._asdict()


# -- analysis (parent side) ------------------------------------------------

# Self-time metrics that together cover every span, plus the rest of the run.
SELF_TIMES = ("canon.label_s", "theta.s", "spectral.s", "enumeration.self_s", "graphs.build_s",
              "graphs.walk_s", "graph6.encode_s", "graph6.decode_s", "verify.self_s",
              "cli.self_s")


def _ratio(num, den):
    return float(num) / float(den) if den else 0.0


def self_times(parent, dur):
    """Duration minus the summed durations of direct children, per span."""
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    return dur - covered


def layer_metrics(trace: dict, spans, run_s: float) -> dict:
    """Per-layer metrics of one traced run; run_s is its traced work time."""
    names = trace["names"]
    name, parent, value = spans["name"], spans["parent"], spans["value"]
    dur = spans["end"] - spans["start"]
    own = self_times(parent, dur)
    present = set(names)

    def mask(*spans_named):
        ids = [names.index(s) for s in spans_named if s in names]
        return np.isin(name, ids)

    def calls(*spans_named):
        return int(mask(*spans_named).sum())

    def self_s(*spans_named):
        return float(own[mask(*spans_named)].sum())

    out = {}
    canon = ("canon.label", "canon.edge", "canon.form", "canon.order")
    if "canon.label" in present:
        label_s = self_s(*canon)
        out["canon.label_calls"] = calls("canon.label")
        out["canon.label_s"] = label_s
        out["canon.labels_per_s"] = _ratio(out["canon.label_calls"], label_s)
    if "canon.edge" in present:
        out["canon.edge_calls"] = calls("canon.edge")
    cache = trace.get("cache")
    if cache is not None:
        out["canon.cache_hit_ratio"] = _ratio(cache["hits"], cache["hits"] + cache["misses"])
        out["canon.cache_evictions"] = cache["misses"] - cache["currsize"]

    if "theta.contains" in present:
        theta = mask("theta.contains")
        n = int(theta.sum())
        out["theta.calls"] = n
        out["theta.s"] = self_s("theta.contains")
        out["theta.checks_per_s"] = _ratio(n, out["theta.s"])
        out["theta.witness_ratio"] = _ratio(int((value[theta] == 1).sum()), n)

    if "spectral.radius" in present:
        spectral = mask("spectral.radius")
        vals = value[spectral]
        out["spectral.calls"] = int(spectral.sum())
        out["spectral.s"] = self_s("spectral.radius")
        out["spectral.solves_per_s"] = _ratio(out["spectral.calls"], out["spectral.s"])
        out["spectral.iterations"] = int(vals[vals >= 0].sum())
        out["spectral.failures"] = int((vals < 0).sum())

    enum = ("enumeration.search", "enumeration.stream")
    if present & set(enum):
        vals = value[mask(*enum)]
        out["enumeration.self_s"] = self_s(*enum)
        out["enumeration.classes"] = int(vals[vals > 0].sum())
        if "canon.label_calls" in out:
            out["enumeration.yield_ratio"] = _ratio(out["enumeration.classes"],
                                                    out["canon.label_calls"])

    for op in ("build", "walk"):
        if f"graphs.{op}" in present:
            out[f"graphs.{op}_calls"] = calls(f"graphs.{op}")
            out[f"graphs.{op}_s"] = self_s(f"graphs.{op}")

    if present & {"graph6.encode", "graph6.decode"}:
        out["graph6.calls"] = calls("graph6.encode", "graph6.decode")
        out["graph6.encode_s"] = self_s("graph6.encode")
        out["graph6.decode_s"] = self_s("graph6.decode")

    if "verify.certificate" in present:
        out["verify.calls"] = calls("verify.certificate")
        out["verify.self_s"] = self_s("verify.certificate")
        if "theta.contains" in present:
            is_verify = mask("verify.certificate")
            anc = parent[mask("theta.contains")]
            inside = np.zeros(len(anc), dtype=bool)
            while (anc >= 0).any():
                live = anc >= 0
                inside[live] |= is_verify[anc[live]]
                anc = np.where(live, parent[np.maximum(anc, 0)], -1)
            out["verify.theta_per_cert"] = _ratio(int(inside.sum()), out["verify.calls"])

    out["cli.self_s"] = run_s - float(dur[parent < 0].sum())
    return out
