"""The package's public names, pinned: any export change shows up here."""

import gridmap

PUBLIC = [
    "AUTO", "CanonicalAngles", "EARTH_RADIUS_KM", "EigenDecomposition", "EvalReport",
    "FeederSpec", "GridmapError", "GroundTruth", "GuaranteeReport", "InputError",
    "KMeansResult", "LoadProfileSet", "MappingResult", "MeterDataset", "MultiViewConfig",
    "MultiViewState", "NumericalError", "SimilarityGraph", "SpectralEmbedding",
    "TransformerSet", "assign_transformers", "attach_transformers", "canonical_angles",
    "certify", "cluster", "combined_laplacian", "disagreement", "eigendecompose", "embed",
    "errors", "euclidean_angle", "evaluate", "feeder_sim", "fix_signs", "generate_profiles",
    "geo", "graph", "guarantee", "haversine", "ideal_graph", "ingest", "joint_objective",
    "kmeans_pp", "laplacian", "load_dataset", "load_ground_truth", "load_transformers",
    "location_similarity", "median_pairwise", "multiview", "pairwise_geo", "recover",
    "save_dataset", "save_ground_truth", "save_transformers", "simulate_voltages",
    "solve_multiview", "spectral", "voltage_similarity",
]


def test_public_names_are_pinned():
    assert sorted(gridmap.__all__) == PUBLIC
