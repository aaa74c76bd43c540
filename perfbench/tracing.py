"""Spans around calls into each gridmap module, recorded from outside.

The traced run wraps public functions in place, in its own process only,
under the names the calling module looks them up by: ``gridmap.cli`` for
the stages a command calls, and the inner modules for calls one module
makes into another (``spectral.eigendecompose`` as called by ``embed`` and
``guarantee``, the embeddings and k-means inside ``solve_multiview``, the
distance matrix inside ``location_similarity``). ``uninstall`` puts every
original back, so untraced rounds run the program untouched.

Spans stay in memory; ``dump`` writes them out when the run ends.
"""
from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import time

# (module, attribute) -> span name; the prefix before the dot is the layer
TARGETS = {
    ("gridmap.cli", "load_dataset"): "ingest.load_dataset",
    ("gridmap.cli", "load_transformers"): "ingest.load_transformers",
    ("gridmap.cli", "load_ground_truth"): "ingest.load_ground_truth",
    ("gridmap.cli", "generate_profiles"): "feeder_sim.generate_profiles",
    ("gridmap.cli", "simulate_voltages"): "feeder_sim.simulate_voltages",
    ("gridmap.cli", "voltage_similarity"): "graph.voltage_similarity",
    ("gridmap.cli", "location_similarity"): "graph.location_similarity",
    ("gridmap.cli", "laplacian"): "graph.laplacian",
    ("gridmap.cli", "embed"): "spectral.embed",
    ("gridmap.cli", "kmeans_pp"): "cluster.kmeans_pp",
    ("gridmap.cli", "assign_transformers"): "cluster.assign_transformers",
    ("gridmap.cli", "attach_transformers"): "cluster.attach_transformers",
    ("gridmap.cli", "evaluate"): "cluster.evaluate",
    ("gridmap.cli", "solve_multiview"): "multiview.solve_multiview",
    ("gridmap.cli", "certify"): "guarantee.certify",
    ("gridmap.graph", "pairwise_geo"): "geo.pairwise_geo",
    ("gridmap.spectral", "eigendecompose"): "spectral.eigendecompose",
    ("gridmap.guarantee", "eigendecompose"): "spectral.eigendecompose",
    ("gridmap.guarantee", "laplacian"): "graph.laplacian",
    ("gridmap.multiview", "laplacian"): "graph.laplacian",
    ("gridmap.multiview", "embed"): "spectral.embed",
    ("gridmap.multiview", "kmeans_pp"): "cluster.kmeans_pp",
}

# per-layer time metric -> span names it sums
LAYER_TIMES = {
    "feeder_sim.profiles_s": ("feeder_sim.generate_profiles",),
    "feeder_sim.simulate_s": ("feeder_sim.simulate_voltages",),
    "ingest.load_s": ("ingest.load_dataset", "ingest.load_transformers",
                      "ingest.load_ground_truth"),
    "graph.voltage_similarity_s": ("graph.voltage_similarity",),
    "graph.location_similarity_s": ("graph.location_similarity",),
    "geo.pairwise_s": ("geo.pairwise_geo",),
    "graph.laplacian_s": ("graph.laplacian",),
    "spectral.embed_s": ("spectral.embed",),
    "cluster.kmeans_s": ("cluster.kmeans_pp",),
    "cluster.assign_s": ("cluster.assign_transformers", "cluster.attach_transformers"),
    "multiview.solve_s": ("multiview.solve_multiview",),
    "guarantee.certify_s": ("guarantee.certify",),
}

# name -> unit, in the order BENCHMARK.json lists them
PER_LAYER = {
    "feeder_sim.profiles_s": "s",
    "feeder_sim.simulate_s": "s",
    "ingest.load_s": "s",
    "ingest.mb_per_s": "MB/s",
    "graph.voltage_similarity_s": "s",
    "graph.location_similarity_s": "s",
    "geo.pairwise_s": "s",
    "graph.laplacian_s": "s",
    "spectral.embed_s": "s",
    "spectral.eigendecompose_calls": "count",
    "cluster.kmeans_s": "s",
    "cluster.lloyd_iters": "count",
    "cluster.assign_s": "s",
    "multiview.solve_s": "s",
    "multiview.outer_iters": "count",
    "guarantee.certify_s": "s",
    "cli.self_s": "s",
    "cli.trial_s": "s",
    "trace.overhead_pct": "%",
}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def install(self) -> None:
        for (module_name, attr), name in TARGETS.items():
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
                _annotate(s.attrs, name, args, result)
            return result

        return traced

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.attrs = tracer, {}
        self.record = {"id": len(tracer.spans), "name": name, "attrs": self.attrs,
                       "parent": tracer._stack[-1] if tracer._stack else None}

    def __enter__(self):
        self.tracer.spans.append(self.record)
        self.tracer._stack.append(self.record["id"])
        self.record["start"] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.record["end"] = time.perf_counter()
        self.tracer._stack.pop()
        return False


def _annotate(attrs: dict, name: str, args, result) -> None:
    if name.startswith("ingest."):
        paths = args[:2] if name == "ingest.load_dataset" else args[:1]
        attrs["bytes"] = sum(os.path.getsize(p) for p in paths if isinstance(p, str))
    elif name == "cluster.kmeans_pp":
        attrs["n_iter"] = result.n_iter
    elif name == "multiview.solve_multiview":
        attrs["outer_iters"] = result[2].n_iters


def round_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer figures of one round (one call of each operation)."""
    dur = {s["id"]: s["end"] - s["start"] for s in spans}
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def total(*names):
        return sum(dur[s["id"]] for n in names for s in by_name.get(n, ()))

    out = {metric: total(*names) for metric, names in LAYER_TIMES.items()}
    read = sum(s["attrs"]["bytes"] for s in spans if s["name"].startswith("ingest."))
    out["ingest.mb_per_s"] = read / 1e6 / out["ingest.load_s"] if read else 0.0
    out["spectral.eigendecompose_calls"] = len(by_name.get("spectral.eigendecompose", ()))
    out["cluster.lloyd_iters"] = sum(s["attrs"]["n_iter"] for s in by_name.get("cluster.kmeans_pp", ()))
    out["multiview.outer_iters"] = sum(
        s["attrs"]["outer_iters"] for s in by_name.get("multiview.solve_multiview", ()))

    commands = [s for s in spans if s["name"].startswith("cli.")]
    children: dict[int, list[dict]] = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out["cli.self_s"] = sum(
        dur[c["id"]] - sum(dur[ch["id"]] for ch in children.get(c["id"], ()))
        for c in commands)
    trials = []
    for c in commands:
        if c["name"] != "cli.sweep-noise":
            continue
        starts = [ch for ch in children.get(c["id"], ())
                  if ch["name"] == "feeder_sim.generate_profiles"]
        ends = [ch for ch in children.get(c["id"], ()) if ch["name"] == "cluster.evaluate"]
        trials += [e["end"] - s["start"] for s, e in zip(starts, ends)]
    out["cli.trial_s"] = statistics.median(trials) if trials else 0.0
    return out
