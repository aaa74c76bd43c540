"""The package's public names, pinned: any export change shows up here."""

import gridmap

PUBLIC = [
    "AUTO", "CanonicalAngles", "EARTH_RADIUS_KM", "EigenDecomposition", "EvalReport",
    "FeederSpec", "GridmapError", "GroundTruth", "GuaranteeReport", "InputError",
    "KMeansResult", "MappingResult", "MeterDataset", "MultiViewState",
    "NumericalError", "SimilarityGraph", "SpectralEmbedding",
    "TransformerSet", "assign_transformers", "attach_transformers", "canonical_angles",
    "certify", "combined_laplacian", "disagreement", "eigendecompose", "embed",
    "evaluate", "fix_signs", "generate_profiles", "haversine", "ideal_graph",
    "kmeans_pp", "laplacian", "load_dataset", "load_ground_truth",
    "load_transformers", "location_similarity", "pairwise_geo", "recover",
    "save_dataset", "save_ground_truth", "save_transformers", "simulate_voltages",
    "solve_multiview", "voltage_similarity",
]


def test_public_names_are_pinned():
    assert sorted(gridmap.__all__) == PUBLIC
