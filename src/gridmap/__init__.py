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
from .feeder_sim import FeederSpec, LoadProfileSet, generate_profiles, simulate_voltages
from .geo import EARTH_RADIUS_KM, euclidean_angle, haversine, pairwise_geo
from .graph import (
    AUTO,
    SimilarityGraph,
    ideal_graph,
    laplacian,
    location_similarity,
    median_pairwise,
    voltage_similarity,
)
from .cli import recover
from .guarantee import (
    CanonicalAngles,
    GuaranteeReport,
    canonical_angles,
    certify,
    check_assumption,
    eigengap_and_separation,
    rayleigh_residual,
    tangent_bound,
    verify_eigengap_dominance,
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
    MultiViewConfig,
    MultiViewState,
    combined_laplacian,
    disagreement,
    joint_objective,
    solve_multiview,
)
from .spectral import (
    EigenDecomposition,
    SpectralEmbedding,
    eigendecompose,
    embed,
    fix_signs,
    trace_objective,
)

__all__ = [name for name in dir() if not name.startswith("_")]
