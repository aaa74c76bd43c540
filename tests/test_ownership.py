"""Who may overwrite which buffer.

The public functions leave their arguments' bytes as they were. A caller
that never reads a graph or matrix again may give it up (``overwrite_graph``,
``overwrite_graphs``, ``overwrite_a``), so that the Laplacian is formed in
the graph's matrix and the eigensolvers work in it without a copy. That
changes memory only: each result keeps the bits of the call that copies.
Both checks run on one connected and one split feeder of
``tests/scenarios.py``.
"""
import warnings

import numpy as np
import pytest

import scenarios
from gridmap.feeder_sim import generate_profiles, simulate_voltages
from gridmap.graph import laplacian, location_similarity, voltage_similarity
from gridmap.guarantee import certify
from gridmap.multiview import solve_multiview
from gridmap.spectral import _components, eigendecompose, embed

CASES = {
    "connected": (lambda: scenarios.three_cluster_spec(noise=1e-4, seed=1), "auto"),
    "split": (scenarios.many_xfmr_spec, scenarios.MANY_XFMR_SIGMA),
}


@pytest.fixture(scope="module", params=list(CASES))
def case(request):
    spec, sigma = CASES[request.param]
    spec = spec()
    data, _, truth = simulate_voltages(spec, generate_profiles(spec))
    blocks, _ = _components(voltage_similarity(data, sigma=sigma).matrix)
    assert (len(blocks) > 1) == (request.param == "split")
    return data, sigma, truth.labels, spec.k


def fields(result):
    """A result's arrays as bytes and its other fields as they are."""
    items = vars(result).items() if hasattr(result, "__dict__") else enumerate(result)
    return {key: value.tobytes() if isinstance(value, np.ndarray) else value
            for key, value in items}


def multiview(g_v, g_l, k, **options):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a solve stopped by its cap is still compared
        emb, km, state = solve_multiview(g_v, g_l, k, seed=0, **options)
    return fields(emb), fields(km), fields(state)


def test_public_calls_leave_their_arguments_as_they_were(case):
    data, sigma, labels, k = case
    inputs = [data.voltages, data.locations, labels]
    before = [a.tobytes() for a in inputs]
    g_v = voltage_similarity(data, sigma=sigma)
    g_l = location_similarity(data)
    lap = laplacian(g_v)
    # a Fortran-ordered matrix is the order the solvers work in
    matrices = [g_v.matrix, g_l.matrix, lap, np.asfortranarray(lap), lap.T]
    kept = [a.tobytes() for a in matrices]

    for matrix in matrices[2:]:
        embed(matrix, k)
        eigendecompose(matrix, k)
    laplacian(g_l)
    certify(g_v, labels)
    multiview(g_v, g_l, k)
    assert [a.tobytes() for a in matrices] == kept
    assert [a.tobytes() for a in inputs] == before


def test_a_given_up_buffer_changes_no_result(case):
    data, sigma, labels, k = case
    graph = voltage_similarity(data, sigma=sigma)
    kept = laplacian(graph)
    given = laplacian(graph, overwrite_graph=True)
    assert given is graph.matrix and given.tobytes() == kept.tobytes()

    # not exactly symmetric, so it cannot be handed over as its transpose
    skewed = kept.copy()
    i, j = np.argwhere(np.triu(kept, 1))[0]
    skewed[i, j] = np.nextafter(skewed[i, j], 0.0)
    for matrix in (kept, np.asfortranarray(kept), skewed):
        for solve in (embed, eigendecompose):
            want = fields(solve(matrix, k))
            assert fields(solve(matrix.copy(order="K"), k, overwrite_a=True)) == want

    want = fields(certify(voltage_similarity(data, sigma=sigma), labels))
    got = certify(voltage_similarity(data, sigma=sigma), labels, overwrite_graph=True)
    assert fields(got) == want

    def graphs():
        return voltage_similarity(data, sigma=sigma), location_similarity(data)

    assert multiview(*graphs(), k, overwrite_graphs=True) == multiview(*graphs(), k)
