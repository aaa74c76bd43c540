"""Recover smart-meter-to-transformer mapping from voltage time series.

Voltages measured behind the same service transformer move together, so
the meters of one transformer form a tight cluster in voltage space. This
package builds a Gaussian similarity graph over meters, embeds it with the
trailing eigenvectors of the unnormalized graph Laplacian, clusters the
embedding with k-means++, and ties clusters back to physical transformers
through meter coordinates. A second, location-based view can be folded in
by co-regularized alternating minimization, and the result ships with
eigengap and subspace-perturbation certificates.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .cluster import (
    EvalReport,
    KMeansResult,
    MappingResult,
    assign_transformers,
    attach_transformers,
    evaluate,
    kmeans_pp,
)
from .errors import GridmapError, InputError, NumericalError
from .feeder_sim import FeederSpec, generate_profiles, simulate_voltages
from .geo import EARTH_RADIUS_KM, haversine, pairwise_geo
from .graph import (
    AUTO,
    SimilarityGraph,
    ideal_graph,
    laplacian,
    location_similarity,
    voltage_similarity,
)
from .guarantee import (
    CanonicalAngles,
    GuaranteeReport,
    canonical_angles,
    certify,
)
from .ingest import (
    GroundTruth,
    MeterDataset,
    TransformerSet,
    load_dataset,
    load_ground_truth,
    load_transformers,
    save_dataset,
    save_ground_truth,
    save_transformers,
)
from .multiview import (
    MultiViewState,
    combined_laplacian,
    disagreement,
    solve_multiview,
)
from .spectral import (
    EigenDecomposition,
    SpectralEmbedding,
    eigendecompose,
    embed,
    fix_signs,
)

__all__ = [
    name for name in dir()
    if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)
] + ["recover"]


def __getattr__(name):
    # recover lives in gridmap.cli; importing it only on first use keeps
    # ``python -m gridmap.cli`` from finding that module already imported
    if name == "recover":
        from .cli import recover
        return recover
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
