"""Smoke test of the benchmark harness: tiny feeders, every output check.

    python3 -m pytest perfbench -q
"""
import csv
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
from workloads import SMOKE  # noqa: E402

WIDE = SMOKE["wide"]

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.2",
                 "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 3 and result["attempted"] % 3 == 0
    listed = SPEC["end_to_end"] if trace == "0" else SPEC["per_layer"]
    assert {m["name"]: m["unit"] for m in listed} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("work", "__pycache__"))
    proc = bench("--workload", "wide", "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert "{" not in proc.stdout


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Outputs of one smoke run of the wide workload, copied aside."""
    proc = bench("--workload", "wide", "--seed", "5", "--seconds", "0.1", "--smoke")
    assert proc.returncode == 0, proc.stderr
    dst = tmp_path_factory.mktemp("out")
    shutil.copytree(os.path.join(HERE, "work", "smoke-wide", "setup-0"), dst / "run")
    return dst / "run"


def _sizes(run):
    with open(run / "feeder.json") as fh:
        return json.load(fh)["meters_per_xfmr"]


def _rewrite_csv(path, edit):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def test_checks_pass_on_real_outputs(outputs):
    planted = checks.planted_mapping(
        outputs / "voltages.csv", outputs / "transformers.csv", _sizes(outputs))
    k = len(_sizes(outputs))
    assert checks.check_mapping(outputs / "cluster", planted, k, "spectral") == []
    assert checks.check_certificate(outputs / "validate", _sizes(outputs), True) == []
    assert checks.check_sweep(outputs / "sweep", WIDE.sweep_grid, WIDE.sweep_trials) == []


def test_mapping_check_catches_a_moved_meter(outputs):
    sizes = _sizes(outputs)
    planted = checks.planted_mapping(
        outputs / "voltages.csv", outputs / "transformers.csv", sizes)
    first, last = next(iter(planted)), list(planted)[-1]
    planted[first] = planted[last]
    assert checks.check_mapping(outputs / "cluster", planted, len(sizes), "spectral")


def test_certificate_check_catches_a_wrong_ideal_eigenvalue(outputs, tmp_path):
    run = tmp_path / "validate"
    shutil.copytree(outputs / "validate", run)

    def bump(rows):
        rows[-1][1] = repr(float(rows[-1][1]) + 1.0)

    _rewrite_csv(run / "eigs.csv", bump)
    assert checks.check_certificate(run, _sizes(outputs), True)


def test_sweep_check_catches_success_above_accuracy(outputs, tmp_path):
    run = tmp_path / "sweep"
    shutil.copytree(outputs / "sweep", run)

    def invert(rows):
        rows[-1][1], rows[-1][2] = "1.0", "0.5"

    _rewrite_csv(run / "sweep.csv", invert)
    assert checks.check_sweep(run, WIDE.sweep_grid, WIDE.sweep_trials)


def test_ideal_spectrum_closed_form():
    assert checks.ideal_spectrum([2, 3]) == [0.0, 0.0, 2.0, 3.0, 3.0]
