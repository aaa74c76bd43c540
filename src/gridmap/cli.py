"""Command-line entry point.

Subcommands:

* ``simulate``            feeder spec JSON -> synthetic dataset CSVs
* ``cluster``             voltages (+ locations) -> mapping.json
* ``validate-assumption`` voltages + ground truth -> guarantee.json, eigs.csv
* ``evaluate``            mapping.json + ground truth -> evaluation.json
* ``sweep-noise``         repeat simulate+cluster over a noise grid -> sweep.csv

Options resolve as: command-line flag, then config file (flat JSON keyed by
option name), then the GRIDMAP_SEED environment variable for the seed, then
built-in defaults. Exit codes: 0 success, 2 bad input, 3 numerical failure.
Outputs embed the seed, method, and package version, and rerunning a
command with identical inputs reproduces its output files byte for byte.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import __version__
# attach_transformers stays imported: perfbench/tracing.py wraps it on this module
from .cluster import MappingResult, assign_transformers, attach_transformers, evaluate, kmeans_pp
from .errors import InputError, NumericalError
from .feeder_sim import FeederSpec, generate_profiles, simulate_voltages
from .geo import GEO_METRICS
from .graph import AUTO, laplacian, location_similarity, voltage_similarity
from .guarantee import certify
from .ingest import (
    load_dataset,
    load_ground_truth,
    load_transformers,
    open_output,
    save_dataset,
    save_ground_truth,
    save_transformers,
)
from .multiview import TOL, solve_multiview
from .spectral import embed

DEFAULTS = {
    "method": "spectral",
    "sigma": "auto",
    "sigma_l": "auto",
    "geo_metric": "haversine",
    "tol": TOL,
    "restarts": 10,
    "out": ".",
}


def _sigma_arg(text: str):
    if text == "auto":
        return text
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected 'auto' or a finite number, got {text!r}")
    return value


def _noise_grid(text: str) -> list[float]:
    try:
        grid = [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad noise grid {text!r}")
    if not grid or not all(0 <= x < math.inf for x in grid):
        raise argparse.ArgumentTypeError("noise grid must be finite nonnegative numbers")
    return grid


def _config_value(action: argparse.Action, value):
    """A config file value, checked and converted as its flag's text is.

    Counts take JSON integers, other numbers any JSON number, kernel widths
    a number or "auto", and every other option a string.
    """
    expected = {int: (int,), float: (int, float), _sigma_arg: (int, float, str)}
    types = expected.get(action.type, (str,))
    if isinstance(value, bool) or not isinstance(value, types):
        names = " or ".join(t.__name__ for t in types)
        raise InputError(f"config {action.dest}: expected {names}, got {value!r}")
    try:
        value = action.type(value) if action.type else value
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise InputError(f"config {action.dest}: {exc}") from exc
    if action.choices is not None and value not in action.choices:
        raise InputError(f"config {action.dest}: expected one of {list(action.choices)}, "
                         f"got {value!r}")
    return value


def _resolve(args: argparse.Namespace) -> argparse.Namespace:
    """Apply option precedence: flags > config file > env seed > defaults."""
    config = {}
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                config = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise InputError(f"cannot parse config {args.config}: {exc}") from exc
        if not isinstance(config, dict):
            raise InputError(f"config {args.config} must be a JSON object")
    # the help action puts nothing in the namespace, so it is no config key
    options = {action.dest: action for action in args.options if action.dest in vars(args)}
    for key in config:
        if key not in options:
            raise InputError(f"config {key}: not an option of {args.command}")
    for key, value in vars(args).items():
        if value is None and config.get(key) is not None:
            setattr(args, key, _config_value(options[key], config[key]))
    for key, value in DEFAULTS.items():
        if getattr(args, key, "sentinel") is None:
            setattr(args, key, value)
    if getattr(args, "seed", "sentinel") is None:
        env = os.environ.get("GRIDMAP_SEED")
        try:
            args.seed = int(env) if env is not None else 0
        except ValueError:
            raise InputError(f"GRIDMAP_SEED must be an integer, got {env!r}")
    if getattr(args, "seed", 0) < 0:
        raise InputError(f"seed must be non-negative, got {args.seed}")
    return args


def _write_json(path, doc) -> None:
    with open_output(path) as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _jsonable(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, tuple):
        return list(value)
    return value


def _write_matrix_csv(path, ids, header_prefix, matrix) -> None:
    with open_output(path) as fh:
        writer = csv.writer(fh)
        writer.writerow([header_prefix, *(f"c{j}" for j in range(matrix.shape[1]))])
        for name, row in zip(ids, matrix):
            writer.writerow([name, *(repr(float(v)) for v in row)])


def cmd_simulate(args) -> int:
    spec = FeederSpec.from_json_file(args.spec)
    data, xfmrs, truth = simulate_voltages(spec, generate_profiles(spec))
    open_output(args.out, directory=True)
    save_dataset(
        data,
        os.path.join(args.out, "voltages.csv"),
        os.path.join(args.out, "locations.csv"),
    )
    save_transformers(xfmrs, os.path.join(args.out, "transformers.csv"))
    save_ground_truth(truth, os.path.join(args.out, "ground_truth.csv"))
    _write_json(os.path.join(args.out, "spec_echo.json"), spec.to_json_dict())
    print(
        f"simulated {data.n_meters} meters on {xfmrs.n_transformers} transformers "
        f"({data.n_samples} samples) -> {args.out}"
    )
    return 0


def recover(
    data, xfmrs, k, method="spectral", sigma=AUTO, seed=0, restarts=10,
    sigma_l=AUTO, geo_metric="haversine", tol=TOL,
):
    """Recover the meter-to-transformer mapping of one dataset.

    ``spectral`` clusters the bottom-k Laplacian eigenvectors of the voltage
    similarity graph, ``multiview`` co-regularizes them with the location
    graph's until the joint objective changes by less than ``tol``
    (relative), and ``kmeans-baseline`` clusters the raw voltage rows.
    Every method ends in k-means++ and the geographic match of clusters to
    transformers. Returns the mapping, the embedding and the voltage graph;
    the baseline builds neither (None).
    """
    g_v = emb = None
    if method == "kmeans-baseline":
        km = kmeans_pp(data.voltages, k, seed=seed, restarts=restarts)
    elif method == "spectral":
        g_v = voltage_similarity(data, sigma=sigma)
        emb = embed(laplacian(g_v), k)
        km = kmeans_pp(emb.X, k, seed=seed, restarts=restarts)
    elif method == "multiview":
        g_v = voltage_similarity(data, sigma=sigma)
        g_l = location_similarity(data, sigma=sigma_l, metric=geo_metric)
        emb, km, _ = solve_multiview(g_v, g_l, k, seed=seed, restarts=restarts, tol=tol)
    else:
        raise InputError(f"unknown method {method!r}")
    return assign_transformers(km, data, xfmrs), emb, g_v


def cmd_cluster(args) -> int:
    data = load_dataset(args.voltages, args.locations)
    xfmrs = load_transformers(args.transformers) if args.transformers else None
    if args.k is None:
        raise InputError("--k is required (flag or config file)")
    if args.k < 1:
        raise InputError("k must be positive")

    mapping, emb, g_v = recover(
        data, xfmrs, args.k, method=args.method, sigma=args.sigma, seed=args.seed,
        restarts=args.restarts, sigma_l=args.sigma_l, geo_metric=args.geo_metric, tol=args.tol,
    )

    open_output(args.out, directory=True)
    if args.dump_similarity:
        if g_v is None:  # the raw-voltage baseline builds no graph
            g_v = voltage_similarity(data, sigma=args.sigma)
        _write_matrix_csv(args.dump_similarity, data.meter_ids, "meter_id", g_v.matrix)
    if args.dump_embedding:
        if emb is None:
            raise InputError("the raw-voltage baseline has no embedding to dump")
        _write_matrix_csv(args.dump_embedding, data.meter_ids, "meter_id", emb.X)

    doc = {
        "meters": {
            m: {
                "cluster": int(mapping.labels[i]),
                "transformer": None if mapping.mapping is None else mapping.mapping[m],
            }
            for i, m in enumerate(data.meter_ids)
        },
        "seed": args.seed,
        "k": args.k,
        "method": args.method,
        "version": __version__,
    }
    _write_json(os.path.join(args.out, "mapping.json"), doc)
    print(f"clustered {data.n_meters} meters into {args.k} groups -> "
          f"{os.path.join(args.out, 'mapping.json')}")
    return 0


def cmd_validate(args) -> int:
    data = load_dataset(args.voltages)
    xfmrs = load_transformers(args.transformers)
    truth = load_ground_truth(args.ground_truth, data, xfmrs)
    k = args.k if args.k is not None else truth.k
    g_v = voltage_similarity(data, sigma=args.sigma)
    report = certify(g_v, truth, k)

    open_output(args.out, directory=True)
    doc = {f.name: _jsonable(getattr(report, f.name)) for f in dataclasses.fields(report)}
    doc["seed"] = args.seed
    doc["version"] = __version__
    _write_json(os.path.join(args.out, "guarantee.json"), doc)

    with open_output(os.path.join(args.out, "eigs.csv")) as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "ideal", "real"])
        for i, (wi, wr) in enumerate(zip(report.ideal_eigenvalues, report.real_eigenvalues)):
            writer.writerow([i, repr(float(wi)), repr(float(wr))])

    verdict = "holds" if report.assumption_holds else "FAILS"
    print(f"assumption {verdict}: delta = {report.delta:.6g} (k = {k})")
    return 0


def cmd_evaluate(args) -> int:
    mapping, meta = _load_mapping(args.mapping)
    xfmrs = load_transformers(args.transformers)
    truth = load_ground_truth(args.ground_truth, mapping.meter_ids, xfmrs)
    report = evaluate(mapping, truth)

    open_output(args.out, directory=True)
    doc = {
        "accuracy": report.accuracy,
        "exact_recovery": report.exact_recovery,
        "confusion": report.confusion.tolist(),
        "n_meters": report.n_meters,
        "seed": meta.get("seed"),
        "method": meta.get("method"),
        "k": meta.get("k"),
        "version": __version__,
    }
    _write_json(os.path.join(args.out, "evaluation.json"), doc)
    print(f"accuracy {report.accuracy:.4f} "
          f"({'exact' if report.exact_recovery else 'not exact'}) over {report.n_meters} meters")
    return 0


def _json_int(value, what):
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{what} must be an integer, got {value!r}")
    return value


def _load_mapping(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot parse mapping {path}: {exc}") from exc
    try:
        meters = doc["meters"]
        ids = sorted(meters)
        labels = np.array([_json_int(meters[m]["cluster"], f"cluster of {m!r}") for m in ids])
        k = _json_int(doc["k"], "k") if "k" in doc else int(labels.max()) + 1
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{path} is not a mapping file: {exc}") from exc
    if labels.size == 0:
        raise InputError(f"{path} maps no meters")
    if labels.min() < 0:
        raise InputError(f"{path}: cluster labels must be nonnegative")
    # evaluate sizes its confusion matrix from these; one meter per cluster
    # (k = N) is the most a clustering can produce
    if k > labels.size:
        raise InputError(f"{path}: k = {k} exceeds the {labels.size} meters mapped")
    if labels.max() >= labels.size:
        raise InputError(f"{path}: cluster label {labels.max()} is not below the "
                         f"{labels.size} meters mapped")
    result = MappingResult(
        labels=labels,
        meter_ids=ids,
        k=k,
        mapping={m: meters[m].get("transformer") for m in ids},
    )
    return result, doc


def cmd_sweep(args) -> int:
    base = FeederSpec.from_json_file(args.spec)
    grid = sorted(args.noise_grid)
    if args.trials < 1:
        raise InputError("trials must be positive")

    # a trial's load profiles depend on its seed, not on the noise level, so
    # each is drawn once; every level keeps its accuracies in trial order
    accs = [[] for _ in grid]
    exact = [0] * len(grid)
    for trial in range(args.trials):
        profiles = generate_profiles(dataclasses.replace(base, seed=base.seed + trial))
        for level, noise in enumerate(grid):
            spec = dataclasses.replace(base, noise_std_pu=noise, seed=base.seed + trial)
            data, xfmrs, truth = simulate_voltages(spec, profiles)
            mapping, _, _ = recover(
                data, xfmrs, spec.k, sigma=args.sigma, seed=spec.seed, restarts=args.restarts
            )
            report = evaluate(mapping, truth)
            accs[level].append(report.accuracy)
            exact[level] += report.exact_recovery
    rows = [(noise, exact[level] / args.trials, float(np.mean(accs[level])))
            for level, noise in enumerate(grid)]

    open_output(args.out, directory=True)
    path = os.path.join(args.out, "sweep.csv")
    with open_output(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["noise_std_pu", "success_rate", "mean_accuracy", "trials"])
        for noise, rate, acc in rows:
            writer.writerow([repr(float(noise)), repr(rate), repr(acc), args.trials])
    print(f"swept {len(grid)} noise levels x {args.trials} trials -> {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridmap",
        description="Recover meter-to-transformer mapping from voltage time series.",
    )
    parser.add_argument("--version", action="version", version=f"gridmap {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat JSON file with option defaults")
        p.add_argument("--out", default=None, help="output directory (default: .)")
        p.set_defaults(options=p._actions)  # config values go through the same actions

    p = sub.add_parser("simulate", help="generate a synthetic feeder dataset")
    p.add_argument("--spec", required=True, help="feeder spec JSON")
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("cluster", help="recover the mapping from voltages")
    p.add_argument("--voltages", required=True)
    p.add_argument("--locations", default=None)
    p.add_argument("--transformers", default=None)
    p.add_argument("--k", type=int, default=None, help="number of transformers")
    p.add_argument(
        "--method",
        choices=("spectral", "multiview", "kmeans-baseline"),
        default=None,
    )
    p.add_argument("--sigma", type=_sigma_arg, default=None,
                   help="voltage kernel width ('auto' = median distance)")
    p.add_argument("--sigma-l", type=_sigma_arg, default=None,
                   help="location kernel width ('auto' = median distance)")
    p.add_argument("--geo-metric", choices=GEO_METRICS, default=None)
    p.add_argument("--tol", type=float, default=None,
                   help="multiview convergence tolerance (relative objective change)")
    p.add_argument("--restarts", type=int, default=None)
    p.add_argument("--dump-similarity", metavar="CSV", default=None)
    p.add_argument("--dump-embedding", metavar="CSV", default=None)
    p.add_argument("--seed", type=int, default=None, help="k-means++ seed")
    common(p)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("validate-assumption", help="eigengap assumption + subspace bound")
    p.add_argument("--voltages", required=True)
    p.add_argument("--transformers", required=True)
    p.add_argument("--ground-truth", required=True)
    p.add_argument("--k", type=int, default=None,
                   help="default: number of transformers in the ground truth")
    p.add_argument("--sigma", type=_sigma_arg, default=None)
    p.add_argument("--seed", type=int, default=None, help="recorded in guarantee.json")
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("evaluate", help="score a mapping against ground truth")
    p.add_argument("--mapping", required=True, help="mapping.json from 'cluster'")
    p.add_argument("--transformers", required=True)
    p.add_argument("--ground-truth", required=True)
    common(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep-noise", help="success rate vs measurement noise")
    p.add_argument("--spec", required=True, help="feeder spec JSON")
    p.add_argument("--noise-grid", type=_noise_grid, required=True,
                   help="comma-separated noise levels (pu)")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--sigma", type=_sigma_arg, default=None)
    p.add_argument("--restarts", type=int, default=None)
    p.add_argument("--seed", type=int, default=None,
                   help="unused: each trial's seed comes from the spec")
    common(p)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _resolve(args)
        return args.func(args)
    except InputError as exc:
        print(f"gridmap: error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"gridmap: numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
