"""Output checks, computed from the feeder spec and the files on disk alone.

None of them calls into the recovery pipeline or compares against a stored
copy of an earlier output. Each returns a list of problems; an empty list
means the output passed.
"""
from __future__ import annotations

import csv
import json
import math
import os


def planted_mapping(voltages_csv, transformers_csv, sizes) -> dict[str, str]:
    """Meter id -> transformer id of the feeder as written.

    The simulator lays groups out contiguously: the first sizes[0] meter
    rows belong to the first transformer row, and so on.
    """
    meters = _first_column(voltages_csv)
    xfmrs = _first_column(transformers_csv)
    if len(meters) != sum(sizes) or len(xfmrs) != len(sizes):
        raise ValueError("written feeder does not match its spec")
    owner = [xfmrs[j] for j, n in enumerate(sizes) for _ in range(n)]
    return dict(zip(meters, owner))


def _first_column(path) -> list[str]:
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        next(rows)
        return [row[0] for row in rows]


def check_mapping(out_dir, planted: dict[str, str], k: int, method: str) -> list[str]:
    with open(os.path.join(out_dir, "mapping.json")) as fh:
        doc = json.load(fh)
    problems = []
    if doc.get("k") != k or doc.get("method") != method:
        problems.append(f"mapping.json names k={doc.get('k')} method={doc.get('method')}")
    meters = doc.get("meters", {})
    if set(meters) != set(planted):
        problems.append("mapping.json covers other meters than the feeder")
        return problems
    wrong = [m for m, x in planted.items() if meters[m].get("transformer") != x]
    if wrong:
        problems.append(f"{len(wrong)} of {len(planted)} meters on the wrong transformer")
    return problems


def ideal_spectrum(sizes) -> list[float]:
    """Closed-form spectrum of the ideal Laplacian, blocks n_j I - J:
    k zeros and each n_j repeated n_j - 1 times."""
    eigs = [0.0] * len(sizes)
    for n in sizes:
        eigs += [float(n)] * (n - 1)
    return sorted(eigs)


def check_certificate(out_dir, sizes, assumption_expected: bool | None) -> list[str]:
    k = len(sizes)
    with open(os.path.join(out_dir, "eigs.csv"), newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    with open(os.path.join(out_dir, "guarantee.json")) as fh:
        doc = json.load(fh)
    ideal = [float(r[1]) for r in rows]
    real = [float(r[2]) for r in rows]
    expected = ideal_spectrum(sizes)
    problems = []

    if len(ideal) != len(expected):
        return [f"eigs.csv has {len(ideal)} rows, expected {len(expected)}"]
    tol = 1e-9 * max(sizes)
    if any(abs(a - b) > tol for a, b in zip(ideal, expected)):
        problems.append("ideal spectrum differs from the closed form")
    if any(b < a for a, b in zip(real, real[1:])):
        problems.append("measured spectrum is not ascending")
    if abs(real[0]) > 1e-9 * max(1.0, real[-1]):
        problems.append(f"smallest measured eigenvalue {real[0]!r} is not 0")

    delta = ideal[k] - real[k - 1]
    if not math.isclose(doc["delta"], delta, rel_tol=1e-12, abs_tol=1e-12):
        problems.append(f"delta {doc['delta']!r} disagrees with eigs.csv ({delta!r})")
    if doc["assumption_holds"] != (delta > 0):
        problems.append("assumption_holds disagrees with the sign of delta")
    if assumption_expected is not None and doc["assumption_holds"] != assumption_expected:
        problems.append(f"assumption_holds is {doc['assumption_holds']}")

    bounds = ("bound_holds_2", "bound_holds_fro")
    if assumption_expected and not doc["separation"] > 0:
        problems.append(f"separation {doc['separation']!r} is not positive")
    if doc["separation"] > 0:
        # the tan-Theta theorem: the bound holds whenever separation > 0
        problems += [f"{b} is {doc[b]}" for b in bounds if doc[b] is not True]
    elif any(doc[b] is not None for b in bounds):
        problems.append("bound evaluated without a positive separation")
    return problems


def check_sweep(out_dir, grid, trials: int) -> list[str]:
    with open(os.path.join(out_dir, "sweep.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    problems = []
    if [float(r["noise_std_pu"]) for r in rows] != sorted(grid):
        problems.append("sweep.csv rows do not follow the requested noise grid")
    for r in rows:
        noise, rate, acc = (float(r[c]) for c in ("noise_std_pu", "success_rate", "mean_accuracy"))
        if int(r["trials"]) != trials:
            problems.append(f"noise {noise}: {r['trials']} trials, expected {trials}")
        if not rate <= acc <= 1.0:
            problems.append(f"noise {noise}: success {rate} / accuracy {acc} out of order")
        if noise == 0.0 and rate != 1.0:
            problems.append(f"noise-free success rate {rate}")
    return problems
