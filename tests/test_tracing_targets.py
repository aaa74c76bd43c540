"""The benchmark's tracer wraps package functions by (module, attribute)
name, so renaming or dropping one of them has to fail here, by name, and
not only inside a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

from gridmap import graph
from gridmap.feeder_sim import generate_profiles, simulate_voltages

from scenarios import many_xfmr_spec

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_name_resolves():
    tracing = load_tracing()
    assert tracing.TARGETS
    missing = [
        f"{module}.{attr}"
        for module, attr in tracing.TARGETS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []


def test_location_graph_is_traced_one_pairwise_geo_span_per_row_block():
    # geo.pairwise_s sums these spans; a location graph that measured its
    # distances without calling pairwise_geo would leave it at 0
    spec = many_xfmr_spec()
    data, _, _ = simulate_voltages(spec, generate_profiles(spec))
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        graph.location_similarity(data)
    finally:
        tracer.uninstall()
    blocks = graph._row_blocks(data.n_meters)
    assert len(blocks) > 1
    assert [s["name"] for s in tracer.spans].count("geo.pairwise_geo") == len(blocks)
