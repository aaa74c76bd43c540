"""End-to-end exercises of the command line.

Everything but the ``python -m`` check goes through main(argv) in-process,
so exit codes and the files written to --out can be checked without
spawning subprocesses.
"""

import argparse
import dataclasses
import json
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

import gridmap
import gridmap.cli
import gridmap.graph
import gridmap.multiview
import gridmap.spectral
import reference_kmeans
from gridmap.cli import main
from gridmap.feeder_sim import generate_profiles, simulate_voltages
from gridmap.ingest import save_dataset, save_ground_truth, save_transformers

from scenarios import (
    MANY_XFMR_SIGMA,
    TWO_SITE_SIGMA,
    many_xfmr_spec,
    shrunken_gap_spec,
    three_cluster_spec,
    two_cluster_spec,
    two_site_case,
)

SIM_FILES = (
    "voltages.csv",
    "locations.csv",
    "transformers.csv",
    "ground_truth.csv",
    "spec_echo.json",
)


def write_spec(path, spec):
    with open(path, "w") as fh:
        json.dump(spec.to_json_dict(), fh)
    return str(path)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def simulate(tmp_path, spec, sub="sim"):
    """Run the simulate subcommand and return its output directory."""
    spec_path = write_spec(tmp_path / f"{sub}_spec.json", spec)
    out = tmp_path / sub
    assert main(["simulate", "--spec", spec_path, "--out", str(out)]) == 0
    return out


def test_simulate_writes_the_expected_files(tmp_path):
    out = simulate(tmp_path, two_cluster_spec(0.0, seed=3))
    for name in SIM_FILES:
        assert (out / name).is_file(), name
    echo = read_json(out / "spec_echo.json")
    assert echo["k"] == 2
    assert echo["seed"] == 3


def test_simulate_rerun_is_byte_identical(tmp_path):
    spec = two_cluster_spec(1e-4, seed=9)
    a = simulate(tmp_path, spec, sub="a")
    b = simulate(tmp_path, spec, sub="b")
    for name in SIM_FILES:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_simulate_rejects_negative_resistance(tmp_path):
    doc = two_cluster_spec(0.0, seed=0).to_json_dict()
    doc["line_resistance_pu"] = -0.001
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["simulate", "--spec", str(bad), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("command", ["simulate", "sweep-noise"])
def test_spec_voltage_the_loader_would_refuse_exits_2(tmp_path, capsys, command):
    # cluster refuses a panel at 2 pu or more, so simulate must not write one
    doc = {"k": 2, "meters_per_xfmr": 3, "T": 24, "xfmr_impedance_pu": 0.003,
           "line_resistance_pu": 0.0005, "noise_std_pu": 0.0, "seed": 0,
           "substation_voltage_pu": 2.5}
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    assert main(spec_argv(command, spec, tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert "gridmap: error: substation_voltage_pu must lie strictly inside (0, 2)" in err
    assert not (tmp_path / "o").exists()


def test_simulate_fails_cleanly_when_loads_cannot_separate(tmp_path, capsys):
    # every load clamps at the zero injection floor, so every profile is the
    # same and no redraw can tell the two transformers apart
    spec = tmp_path / "flat.json"
    spec.write_text(json.dumps({
        "k": 2, "meters_per_xfmr": [2, 2], "xfmr_impedance_pu": 0.003,
        "line_resistance_pu": 0.0001, "T": 8, "noise_std_pu": 0.0, "seed": 0,
        "base_load_pu": -0.5,
    }))
    assert main(["simulate", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 2
    assert "redraws" in capsys.readouterr().err


def cluster_args(src, k=None, **extra):
    argv = [
        "cluster",
        "--voltages", str(src / "voltages.csv"),
        "--locations", str(src / "locations.csv"),
        "--transformers", str(src / "transformers.csv"),
    ]
    if k is not None:
        argv += ["--k", str(k)]
    for flag, value in extra.items():
        argv += ["--" + flag.replace("_", "-"), str(value)]
    return argv


def evaluate_args(src, mapping):
    return ["evaluate", "--mapping", str(mapping),
            "--transformers", str(src / "transformers.csv"),
            "--ground-truth", str(src / "ground_truth.csv")]


def test_cluster_then_evaluate_on_a_clean_feeder(tmp_path):
    out = simulate(tmp_path, two_cluster_spec(0.0, seed=3))
    assert main(cluster_args(out, k=2, seed=0, out=out)) == 0

    doc = read_json(out / "mapping.json")
    assert doc["k"] == 2
    assert doc["method"] == "spectral"
    assert doc["seed"] == 0
    assert sorted(doc["meters"]) == [f"m{i:03d}" for i in range(10)]
    assert all(m["transformer"] in ("x0", "x1") for m in doc["meters"].values())

    assert main(evaluate_args(out, out / "mapping.json") + ["--out", str(out)]) == 0
    ev = read_json(out / "evaluation.json")
    assert ev["accuracy"] == 1.0
    assert ev["exact_recovery"] is True
    assert ev["n_meters"] == 10
    assert ev["method"] == "spectral"
    assert ev["k"] == 2
    assert ev["seed"] == 0


def test_cluster_k1_sends_everyone_to_one_transformer(tmp_path):
    out = simulate(tmp_path, two_cluster_spec(0.0, seed=4))
    assert main(cluster_args(out, k=1, out=out)) == 0
    doc = read_json(out / "mapping.json")
    xfmrs = {m["transformer"] for m in doc["meters"].values()}
    assert len(xfmrs) == 1
    assert xfmrs.pop() in ("x0", "x1")


def test_cluster_rerun_is_byte_identical(tmp_path):
    out = simulate(tmp_path, two_cluster_spec(1e-4, seed=5))
    for sub in ("r1", "r2"):
        assert main(cluster_args(out, k=2, seed=1, out=tmp_path / sub)) == 0
    first = (tmp_path / "r1" / "mapping.json").read_bytes()
    assert first == (tmp_path / "r2" / "mapping.json").read_bytes()


@pytest.mark.parametrize("spec, method", [
    (many_xfmr_spec(), "spectral"),
    (shrunken_gap_spec(), "multiview"),
], ids=["star-k24", "noisy-multiview"])
def test_outputs_match_the_reference_kmeans_byte_for_byte(tmp_path, monkeypatch, spec, method):
    src = simulate(tmp_path, spec)
    spec_path = write_spec(tmp_path / "spec.json", spec)

    def run(out):
        assert main(cluster_args(src, k=spec.k, method=method, seed=4, out=out)) == 0
        assert main(["sweep-noise", "--spec", spec_path, "--noise-grid", "0,1e-4",
                     "--trials", "2", "--out", str(out)]) == 0
        return (out / "mapping.json").read_bytes(), (out / "sweep.csv").read_bytes()

    shipped = run(tmp_path / "shipped")
    calls = []

    def reference(*args, **kwargs):
        calls.append(args[1])
        return reference_kmeans.kmeans_pp(*args, **kwargs)

    # the multiview route calls k-means++ from its own module
    monkeypatch.setattr(gridmap.cli, "kmeans_pp", reference)
    monkeypatch.setattr(gridmap.multiview, "kmeans_pp", reference)
    assert run(tmp_path / "reference") == shipped
    assert calls == [spec.k] * 5  # cluster, then 2 noise levels x 2 trials


def test_block_solve_writes_the_outputs_of_the_dense_solve(tmp_path, monkeypatch):
    # at this width the graph falls apart into blocks; a run whose labelling
    # reports one block takes the whole-matrix solve and writes the same bytes
    spec = many_xfmr_spec()
    src = simulate(tmp_path, spec)
    spec_path = write_spec(tmp_path / "spec.json", spec)
    sigma = str(MANY_XFMR_SIGMA)

    def run(out):
        assert main(cluster_args(src, k=spec.k, sigma=sigma, seed=4, out=out)) == 0
        assert main(["sweep-noise", "--spec", spec_path, "--noise-grid", "0", "--trials", "2",
                     "--sigma", sigma, "--out", str(out)]) == 0
        return (out / "mapping.json").read_bytes(), (out / "sweep.csv").read_bytes()

    components = gridmap.spectral._components
    labelled = []

    def count_blocks(a):
        blocks, isolated = components(a)
        labelled.append(len(blocks) + isolated.size)
        return blocks, isolated

    def one_block(a):
        return [np.arange(a.shape[0])], np.array([], dtype=int)

    monkeypatch.setattr(gridmap.spectral, "_components", count_blocks)
    split = run(tmp_path / "split")
    assert len(labelled) == 3 and min(labelled) > 1  # cluster, then 2 trials
    monkeypatch.setattr(gridmap.spectral, "_components", one_block)
    assert run(tmp_path / "whole") == split


def test_block_height_changes_no_output_byte_and_starts_no_thread(tmp_path, monkeypatch):
    # 120 meters, so the graphs take blocks of 7 rows
    spec = many_xfmr_spec()
    spec_path = write_spec(tmp_path / "spec.json", spec)
    assert len(gridmap.graph._row_blocks(120)) == 18

    def run(sub):
        out = tmp_path / sub
        assert main(["simulate", "--spec", spec_path, "--out", str(out)]) == 0
        assert main(cluster_args(out, k=spec.k, method="multiview", seed=4, out=out)) == 0
        assert main(["sweep-noise", "--spec", spec_path, "--noise-grid", "0,1e-4",
                     "--trials", "2", "--out", str(out)]) == 0
        return {f.name: f.read_bytes() for f in sorted(out.iterdir())}

    before = threading.active_count()
    blocked = run("blocked")
    # one row a block: the graphs' bytes, and so every output, stay
    monkeypatch.setattr(gridmap.graph, "BLOCK_ROWS", 1)
    assert len(gridmap.graph._row_blocks(120)) == 120
    assert run("rows") == blocked
    assert threading.active_count() == before


def test_cluster_without_k_fails(tmp_path):
    out = simulate(tmp_path, two_cluster_spec(0.0, seed=0))
    assert main(cluster_args(out, out=tmp_path / "o")) == 2
    assert not (tmp_path / "o" / "mapping.json").exists()


def test_cluster_rejects_nonpositive_k(tmp_path):
    out = simulate(tmp_path, two_cluster_spec(0.0, seed=0))
    assert main(cluster_args(out, k=0, out=tmp_path / "o")) == 2


def test_unknown_method_is_an_argparse_error(tmp_path):
    out = simulate(tmp_path, two_cluster_spec(0.0, seed=0))
    with pytest.raises(SystemExit) as err:
        main(cluster_args(out, k=2, method="bogus"))
    assert err.value.code == 2


def test_recover_through_the_package_attribute():
    # README's library use calls gridmap.recover, which the package takes
    # from gridmap.cli on first use; an unknown method is bad input there too
    spec = two_cluster_spec(0.0, seed=0)
    data, xfmrs, truth = simulate_voltages(spec, generate_profiles(spec))
    assert gridmap.recover is gridmap.cli.recover
    mapping, _, _ = gridmap.recover(data, xfmrs, k=2, seed=0)
    assert gridmap.evaluate(mapping, truth).exact_recovery
    with pytest.raises(gridmap.InputError, match="unknown method 'bogus'"):
        gridmap.recover(data, xfmrs, 2, method="bogus")


@pytest.mark.parametrize("command, flag", [
    pytest.param("cluster", ["--lambda", "0.5"], id="--lambda"),
    pytest.param("cluster", ["--max-iters", "30"], id="--max-iters"),
    pytest.param("cluster", ["--final-view", "voltage"], id="--final-view"),
    pytest.param("cluster", ["--restarts", "5"], id="--restarts"),
    pytest.param("cluster", ["--geo-metric", "haversine"], id="--geo-metric"),
    pytest.param("sweep-noise", ["--restarts", "5"], id="sweep-noise--restarts"),
    pytest.param("validate-assumption", ["--k", "2"], id="validate-assumption--k"),
])
def test_removed_multiview_flags_exit_2(tmp_path, command, flag):
    if command == "cluster":
        argv = cluster_args(tmp_path, k=2, method="multiview", out=tmp_path / "o") + flag
    elif command == "validate-assumption":
        argv = _validate(tmp_path, sub="o") + flag
    else:
        argv = ["sweep-noise", "--spec", write_spec(tmp_path / "spec.json", two_cluster_spec()),
                "--noise-grid", "0.0", "--trials", "1", "--out", str(tmp_path / "o")] + flag
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert not (tmp_path / "o").exists()


def test_validate_config_k_is_not_an_option(tmp_path, capsys):
    # k comes from the ground truth's groups; a config file cannot set it
    src = simulate(tmp_path, two_cluster_spec(0.0, seed=0))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"k": 2}))
    assert main(_validate(src, sub="o") + ["--config", str(cfg)]) == 2
    assert "config k: not an option of validate-assumption" in capsys.readouterr().err
    assert not (src / "o").exists()


# Each subcommand's option dests, pinned: a change that adds or drops a knob
# shows it here.
OPTIONS = {
    "simulate": ["config", "out", "spec"],
    "cluster": [
        "config", "dump_embedding", "dump_similarity", "k", "locations", "method", "out",
        "seed", "sigma", "sigma_l", "tol", "transformers", "voltages",
    ],
    "validate-assumption": [
        "config", "ground_truth", "out", "seed", "sigma", "transformers", "voltages",
    ],
    "evaluate": ["config", "ground_truth", "mapping", "out", "transformers"],
    "sweep-noise": ["config", "noise_grid", "out", "seed", "sigma", "spec", "trials"],
}


def test_option_sets_are_pinned():
    sub = next(a for a in gridmap.cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    got = {name: sorted(a.dest for a in p._actions if a.dest != "help")
           for name, p in sub.choices.items()}
    assert got == OPTIONS


def test_the_parser_is_built_once_and_parses_afresh(tmp_path):
    assert gridmap.cli.build_parser() is gridmap.cli.build_parser()
    src = simulate(tmp_path, two_cluster_spec(0.0, seed=0))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 5}))
    assert main(cluster_args(src, k=2, seed=3, out=tmp_path / "a")) == 0
    assert main(cluster_args(src, k=2, config=cfg, out=tmp_path / "b")) == 0
    assert read_json(tmp_path / "a" / "mapping.json")["seed"] == 3
    assert read_json(tmp_path / "b" / "mapping.json")["seed"] == 5


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2


def test_version_flag_exits_0():
    with pytest.raises(SystemExit) as err:
        main(["--version"])
    assert err.value.code == 0


def test_module_entry_point_runs_without_a_runtime_warning():
    src = os.path.dirname(os.path.dirname(gridmap.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "gridmap.cli", "--version"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr


def test_config_file_fills_gaps_and_flags_win(tmp_path):
    out = simulate(tmp_path, two_cluster_spec(0.0, seed=2))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"k": 2, "method": "kmeans-baseline", "seed": 11}))
    assert main(
        cluster_args(out, config=cfg, method="spectral", out=tmp_path / "o")
    ) == 0
    doc = read_json(tmp_path / "o" / "mapping.json")
    assert doc["k"] == 2          # from the config
    assert doc["seed"] == 11      # from the config
    assert doc["method"] == "spectral"  # the flag beats the config


@pytest.mark.parametrize("text", ["{not json", "[1, 2]"], ids=["syntax", "not-a-dict"])
def test_bad_config_exits_2(tmp_path, text):
    out = simulate(tmp_path, two_cluster_spec(0.0, seed=0))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert main(cluster_args(out, k=2, config=cfg)) == 2


def spec_argv(command, spec, out):
    argv = [command, "--spec", str(spec), "--out", str(out)]
    if command == "sweep-noise":
        argv += ["--noise-grid", "0.0", "--trials", "1"]
    return argv


@pytest.mark.parametrize("command", ["simulate", "sweep-noise"])
@pytest.mark.parametrize("text", ["[1, 2]", '"abc"', "5", "null"])
def test_spec_that_is_not_an_object_exits_2(tmp_path, capsys, command, text):
    spec = tmp_path / "spec.json"
    spec.write_text(text)
    assert main(spec_argv(command, spec, tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert "gridmap: error: a feeder spec must be a JSON object" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["simulate", "sweep-noise"])
@pytest.mark.parametrize("locations", [
    [[40.0, True], [40.0, -105.0]],
    [[40.0, -105.0], [40.0]],
    "abc",
    {"a": 1},
], ids=["bool", "short-pair", "string", "object"])
def test_spec_coordinates_are_checked(tmp_path, capsys, command, locations):
    doc = two_cluster_spec(0.0, seed=0).to_json_dict() | {"xfmr_locations": locations}
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    assert main(spec_argv(command, spec, tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert "gridmap: error: xfmr_locations must be a list of" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("route", ["config", "simulate-spec", "sweep-spec", "mapping"])
def test_undecodable_json_input_exits_2(tmp_path, capsys, route):
    src = simulate(tmp_path, two_cluster_spec(0.0, seed=0))
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"k": "\xff"}')
    out = str(tmp_path / "o")
    argv = {
        "config": cluster_args(src, k=2, config=bad),
        "simulate-spec": ["simulate", "--spec", str(bad)],
        "sweep-spec": ["sweep-noise", "--spec", str(bad), "--noise-grid", "0.0", "--trials", "1"],
        "mapping": evaluate_args(src, bad),
    }[route] + ["--out", out]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "gridmap: error: cannot parse" in err
    assert "Traceback" not in err
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "config",
    [
        {"geo_metric": "bogus", "method": "multiview"},
        {"sigma": "abc"},
        {"restarts": "x"},
        {"lambda_reg": "x", "method": "multiview"},
        {"tol": "x", "method": "multiview"},
        {"k": "2"},
        {"sigmaa": 0.01},
        {"method": "bogus"},
    ],
    ids=["geo-metric", "sigma", "restarts", "lambda", "tol", "k-as-text", "unknown-key",
         "method-not-a-choice"],
)
def test_bad_config_values_exit_2(tmp_path, capsys, config):
    out = simulate(tmp_path, two_cluster_spec(0.0, seed=0))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    k = None if "k" in config else 2
    assert main(cluster_args(out, k=k, config=cfg, out=tmp_path / "o")) == 2
    assert "gridmap: error: config" in capsys.readouterr().err
    assert not (tmp_path / "o" / "mapping.json").exists()


def test_seed_ignores_the_environment(tmp_path, monkeypatch):
    out = simulate(tmp_path, two_cluster_spec(0.0, seed=2))
    for env in ("7", "not-a-number"):  # GRIDMAP_SEED is no longer read
        monkeypatch.setenv("GRIDMAP_SEED", env)
        assert main(cluster_args(out, k=2, out=tmp_path / env)) == 0
        assert read_json(tmp_path / env / "mapping.json")["seed"] == 0

    # the flag sets it
    assert main(cluster_args(out, k=2, seed=3, out=tmp_path / "flag")) == 0
    assert read_json(tmp_path / "flag" / "mapping.json")["seed"] == 3


@pytest.mark.parametrize("route", ["flag", "config", "simulate", "sweep-noise"])
def test_negative_seed_exits_2(tmp_path, capsys, route):
    doc = two_cluster_spec(0.0, seed=0).to_json_dict()
    doc["seed"] = -1
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    out = str(tmp_path / "o")
    if route == "simulate":
        argv = ["simulate", "--spec", str(spec), "--out", out]
    elif route == "sweep-noise":
        argv = ["sweep-noise", "--spec", str(spec), "--noise-grid", "0.0",
                "--trials", "1", "--out", out]
    else:
        argv = cluster_args(simulate(tmp_path, two_cluster_spec(0.0, seed=0)), k=2, out=out)
        if route == "flag":
            argv += ["--seed", "-1"]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"seed": -1}))
            argv += ["--config", str(cfg)]
    assert main(argv) == 2
    assert "gridmap: error:" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("command", ["simulate", "evaluate"])
@pytest.mark.parametrize("route", ["environment", "flag"])
def test_simulate_and_evaluate_take_no_seed(tmp_path, monkeypatch, command, route):
    src = simulate(tmp_path, two_cluster_spec(0.0, seed=0))
    if command == "simulate":
        argv = ["simulate", "--spec", write_spec(tmp_path / "spec.json", two_cluster_spec(0.0, 0))]
    else:
        assert main(cluster_args(src, k=2, out=src)) == 0
        argv = evaluate_args(src, src / "mapping.json")
    out = tmp_path / "o"
    argv += ["--out", str(out)]
    if route == "environment":  # a seed the command never uses cannot fail it
        monkeypatch.setenv("GRIDMAP_SEED", "-1")
        assert main(argv) == 0
    else:
        assert _exit_code(argv + ["--seed", "3"]) == 2
        assert not out.exists()


@pytest.mark.parametrize("edit", [
    lambda doc: doc.update(meters={}),
    lambda doc: doc.update(k="abc"),
    lambda doc: doc["meters"]["m000"].update(cluster=-1),
    lambda doc: doc["meters"]["m000"].update(cluster=1.9),
    lambda doc: doc["meters"]["m000"].update(cluster=True),
    lambda doc: doc.update(k=2.7),
    lambda doc: doc.update(k=200000),
    lambda doc: doc["meters"]["m000"].update(cluster=300000),
    lambda doc: doc.update(k=11),
    lambda doc: doc["meters"]["m000"].update(cluster=10),
], ids=["no-meters", "k-as-text", "negative-cluster", "fractional-cluster", "bool-cluster",
        "fractional-k", "huge-k", "huge-cluster", "k-above-meters", "cluster-at-meters"])
def test_malformed_mapping_exits_2(tmp_path, capsys, edit):
    src = simulate(tmp_path, two_cluster_spec(0.0, seed=0))
    assert main(cluster_args(src, k=2, out=src)) == 0
    doc = read_json(src / "mapping.json")
    edit(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "o"
    assert main(evaluate_args(src, bad) + ["--out", str(out)]) == 2
    assert "gridmap: error:" in capsys.readouterr().err
    assert not out.exists()


def test_one_meter_per_cluster_evaluates(tmp_path):
    # k = N is the largest mapping the baseline can write, and it scores
    src = simulate(tmp_path, two_cluster_spec(0.0, seed=0))
    with pytest.warns(UserWarning, match="more clusters than transformers"):
        assert main(cluster_args(src, k=10, method="kmeans-baseline", out=src)) == 0
    assert main(evaluate_args(src, src / "mapping.json") + ["--out", str(tmp_path / "o")]) == 0
    assert read_json(tmp_path / "o" / "evaluation.json")["accuracy"] == 0.2


def test_dump_similarity_and_embedding(tmp_path):
    out = simulate(tmp_path, two_cluster_spec(0.0, seed=6))
    sim_csv = tmp_path / "sim.csv"
    emb_csv = tmp_path / "emb.csv"
    assert main(cluster_args(
        out, k=2, out=tmp_path / "o",
        dump_similarity=sim_csv, dump_embedding=emb_csv,
    )) == 0

    sim_lines = sim_csv.read_text().splitlines()
    assert sim_lines[0].split(",")[:2] == ["meter_id", "c0"]
    assert len(sim_lines) == 11
    for i, line in enumerate(sim_lines[1:]):
        cells = line.split(",")
        assert cells[0] == f"m{i:03d}"
        assert cells[1 + i] == "1.0"  # unit self-similarity on the diagonal

    emb_lines = emb_csv.read_text().splitlines()
    assert emb_lines[0] == "meter_id,c0,c1"
    assert len(emb_lines) == 11


DUMP_FLAGS = ["dump_similarity", "dump_embedding"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes on this platform")
@pytest.mark.parametrize("flag", DUMP_FLAGS)
def test_dump_to_a_fifo(tmp_path, flag):
    # a pipe cannot be truncated, so its writer must not try
    src = simulate(tmp_path, two_cluster_spec(0.0, seed=6))
    assert main(cluster_args(src, k=2, out=tmp_path / "a", **{flag: tmp_path / "file.csv"})) == 0
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    got = []

    def read():
        with open(fifo, "rb") as fh:
            got.append(fh.read())

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    assert main(cluster_args(src, k=2, out=tmp_path / "b", **{flag: fifo})) == 0
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert got == [(tmp_path / "file.csv").read_bytes()]


@pytest.mark.parametrize("flag", DUMP_FLAGS)
def test_dump_to_the_null_device(tmp_path, flag):
    src = simulate(tmp_path, two_cluster_spec(0.0, seed=6))
    assert main(cluster_args(src, k=2, out=tmp_path / "o", **{flag: os.devnull})) == 0
    assert read_json(tmp_path / "o" / "mapping.json")["k"] == 2


def test_baseline_dumps_the_graph_it_does_not_cluster(tmp_path):
    out = simulate(tmp_path, two_cluster_spec(0.0, seed=6))
    for method in ("kmeans-baseline", "spectral"):
        assert main(cluster_args(
            out, k=2, method=method, out=tmp_path / method,
            dump_similarity=tmp_path / f"{method}.csv",
        )) == 0
    sim = (tmp_path / "kmeans-baseline.csv").read_text()
    assert len(sim.splitlines()) == 11
    assert sim == (tmp_path / "spectral.csv").read_text()


def test_baseline_has_no_embedding_to_dump(tmp_path, capsys):
    # refused with the other argument checks, before anything is loaded or written
    out = simulate(tmp_path, two_cluster_spec(0.0, seed=6))
    capsys.readouterr()
    assert main(cluster_args(
        out, k=2, method="kmeans-baseline", dump_embedding=tmp_path / "e.csv",
        dump_similarity=tmp_path / "s.csv", out=tmp_path / "mapped",
    )) == 2
    assert "no embedding to dump" in capsys.readouterr().err
    for name in ("e.csv", "s.csv", "mapped"):
        assert not (tmp_path / name).exists()


def test_multiview_needs_locations(tmp_path):
    out = simulate(tmp_path, two_cluster_spec(0.0, seed=0))
    argv = cluster_args(out, k=2, method="multiview")
    del argv[3:5]  # drop --locations and its value
    assert main(argv) == 2


def _evaluate(out, mapping_path, sub):
    rc = main([
        "evaluate",
        "--mapping", str(mapping_path),
        "--transformers", str(out / "transformers.csv"),
        "--ground-truth", str(out / "ground_truth.csv"),
        "--out", str(out / sub),
    ])
    assert rc == 0
    return read_json(out / sub / "evaluation.json")


def test_two_site_rescue_through_the_cli(tmp_path):
    """A meter sitting across the boundary: voltage alone misfiles it,
    voltage plus location does not, and the raw-voltage baseline is the
    worst of the three."""
    data, xfmrs, truth = two_site_case(seed=0)
    out = tmp_path
    save_dataset(data, out / "voltages.csv", out / "locations.csv")
    save_transformers(xfmrs, out / "transformers.csv")
    save_ground_truth(truth, out / "ground_truth.csv")
    sigma = repr(TWO_SITE_SIGMA)

    runs = {
        "single": {"sigma": sigma},
        "base": {"method": "kmeans-baseline"},
        "multi": {"method": "multiview", "sigma": sigma},
    }
    acc = {}
    for sub, extra in runs.items():
        assert main(cluster_args(out, k=2, seed=0, out=out / sub, **extra)) == 0
        acc[sub] = _evaluate(out, out / sub / "mapping.json", sub + "_eval")

    assert acc["single"]["accuracy"] < 1.0
    assert acc["base"]["accuracy"] < acc["single"]["accuracy"]
    assert acc["multi"]["accuracy"] == 1.0
    assert acc["multi"]["exact_recovery"] is True


def test_fewer_distinct_meters_than_clusters_exits_3(tmp_path, capsys):
    data, xfmrs, _ = two_site_case(seed=0)
    data.voltages = np.repeat(data.voltages[[0, 6]], 6, axis=0)   # 2 distinct rows
    save_dataset(data, tmp_path / "voltages.csv", tmp_path / "locations.csv")
    save_transformers(xfmrs, tmp_path / "transformers.csv")
    argv = cluster_args(tmp_path, k=3, method="kmeans-baseline", out=tmp_path / "out")
    assert main(argv) == 3
    assert "only 2 of 3 clusters" in capsys.readouterr().err


def _validate(out, sigma=None, sub="val"):
    argv = [
        "validate-assumption",
        "--voltages", str(out / "voltages.csv"),
        "--transformers", str(out / "transformers.csv"),
        "--ground-truth", str(out / "ground_truth.csv"),
        "--out", str(out / sub),
    ]
    if sigma is not None:
        argv += ["--sigma", sigma]
    return argv


def test_validate_assumption_on_a_clean_feeder(tmp_path):
    out = simulate(tmp_path, three_cluster_spec(0.0, seed=2))
    assert main(_validate(out, sigma="0.0001")) == 0
    doc = read_json(out / "val" / "guarantee.json")
    assert doc["assumption_holds"] is True
    assert doc["delta"] == pytest.approx(4.0, abs=1e-3)
    assert doc["bound_holds_2"] is True
    assert doc["bound_holds_fro"] is True
    assert doc["galerkin_norm"] <= 1e-10
    assert doc["k"] == 3

    eigs = (out / "val" / "eigs.csv").read_text().splitlines()
    assert eigs[0] == "index,ideal,real"
    assert len(eigs) == 41
    assert eigs[4].split(",")[1] == "4.0"  # smallest group has 4 meters


def test_validate_assumption_flags_an_overlap(tmp_path):
    out = simulate(tmp_path, three_cluster_spec(1e-3, seed=0))
    assert main(_validate(out)) == 0
    doc = read_json(out / "val" / "guarantee.json")
    assert doc["assumption_holds"] is False
    assert doc["delta"] < 0.0


def test_validate_rerun_is_byte_identical(tmp_path):
    out = simulate(tmp_path, three_cluster_spec(0.0, seed=2))
    assert main(_validate(out, sub="v1")) == 0
    assert main(_validate(out, sub="v2")) == 0
    for name in ("guarantee.json", "eigs.csv"):
        assert (out / "v1" / name).read_bytes() == (out / "v2" / name).read_bytes()


def test_validate_missing_truth_file_exits_2(tmp_path):
    out = simulate(tmp_path, three_cluster_spec(0.0, seed=2))
    argv = _validate(out)
    argv[6] = str(out / "nope.csv")
    assert argv[5] == "--ground-truth"
    assert main(argv) == 2


@pytest.mark.parametrize("name,good,bad", [
    ("voltages.csv", b"\nm000,", b"\nm\xe9000,"),
    ("transformers.csv", b"\nx0,", b"\nx\xe90,"),
    ("ground_truth.csv", b"\nm000,", b"\nm\xe9000,"),
    # the open quote runs to the end of the file, past csv's field size limit
    ("voltages.csv", b"\nm000,", b'\n"m000,'),
], ids=["latin1-voltages", "latin1-transformers", "latin1-truth", "unterminated-quote"])
def test_undecodable_or_malformed_csv_exits_2(tmp_path, capsys, name, good, bad):
    spec = dataclasses.replace(three_cluster_spec(0.0, seed=2), T=200)
    out = simulate(tmp_path, spec)
    path = out / name
    raw = path.read_bytes()
    assert good in raw
    path.write_bytes(raw.replace(good, bad, 1))
    assert main(_validate(out)) == 2
    assert f"{path}: malformed CSV" in capsys.readouterr().err


def test_sweep_noise_orders_rows_and_nails_the_clean_level(tmp_path):
    spec_path = write_spec(tmp_path / "spec.json", two_cluster_spec(0.0, seed=0))
    out = tmp_path / "sweep"
    assert main([
        "sweep-noise", "--spec", spec_path,
        "--noise-grid", "0.001,0.0",   # deliberately unsorted
        "--trials", "4",
        "--out", str(out),
    ]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "noise_std_pu,success_rate,mean_accuracy,trials"
    rows = [line.split(",") for line in lines[1:]]
    assert [float(r[0]) for r in rows] == [0.0, 0.001]
    assert float(rows[0][1]) == 1.0
    assert float(rows[0][2]) == 1.0
    assert all(r[3] == "4" for r in rows)


def test_sweep_draws_each_trials_profiles_once(tmp_path, monkeypatch):
    spec = two_cluster_spec(0.0, seed=3)
    spec_path = write_spec(tmp_path / "spec.json", spec)
    calls = []

    def counted(s):
        calls.append(s.seed)
        return generate_profiles(s)

    monkeypatch.setattr(gridmap.cli, "generate_profiles", counted)
    grid = [0.0, 5e-4, 2e-3]
    out = tmp_path / "sweep"
    assert main(["sweep-noise", "--spec", spec_path, "--noise-grid", "2e-3,0,5e-4",
                 "--trials", "3", "--sigma", "0.002", "--out", str(out)]) == 0
    assert calls == [3, 4, 5]

    # each level keeps the accuracies of a fresh simulate + recover per trial
    lines = (out / "sweep.csv").read_text().splitlines()[1:]
    for line, noise in zip(lines, grid):
        accs = []
        for trial in range(3):
            cell = dataclasses.replace(spec, noise_std_pu=noise, seed=spec.seed + trial)
            data, xfmrs, truth = simulate_voltages(cell, generate_profiles(cell))
            mapping, _, _ = gridmap.cli.recover(data, xfmrs, cell.k, sigma=0.002, seed=cell.seed)
            accs.append(gridmap.evaluate(mapping, truth))
        rate = sum(r.exact_recovery for r in accs) / 3
        mean = float(np.mean([r.accuracy for r in accs]))
        assert line == f"{noise!r},{rate!r},{mean!r},3"


def test_sweep_rejects_bad_input(tmp_path):
    spec_path = write_spec(tmp_path / "spec.json", two_cluster_spec(0.0, seed=0))
    with pytest.raises(SystemExit) as err:
        main(["sweep-noise", "--spec", spec_path,
              "--noise-grid", "a,b", "--trials", "2"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["sweep-noise", "--spec", spec_path,
              "--noise-grid", "-0.1", "--trials", "2"])
    assert err.value.code == 2
    assert main(["sweep-noise", "--spec", spec_path,
                 "--noise-grid", "0.0", "--trials", "0",
                 "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("command, target", [
    ("simulate", "out"),
    ("simulate", "voltages.csv"),
    ("cluster", "out"),
    ("cluster", "dump-similarity"),
    ("cluster", "dump-embedding"),
    ("cluster", "mapping.json"),
    ("validate-assumption", "out"),
    ("validate-assumption", "eigs.csv"),
    ("evaluate", "out"),
    ("sweep-noise", "out"),
    ("sweep-noise", "sweep.csv"),
])
def test_unwritable_outputs_exit_2(tmp_path, capsys, command, target):
    spec = two_cluster_spec(0.0, seed=0)
    src = simulate(tmp_path, spec)
    spec_path = write_spec(tmp_path / "spec.json", spec)
    assert main(cluster_args(src, k=2, out=src)) == 0  # the mapping evaluate reads
    argv = {
        "simulate": ["simulate", "--spec", spec_path],
        "cluster": cluster_args(src, k=2),
        "validate-assumption": ["validate-assumption", "--voltages", str(src / "voltages.csv"),
                                "--transformers", str(src / "transformers.csv"),
                                "--ground-truth", str(src / "ground_truth.csv")],
        "evaluate": evaluate_args(src, src / "mapping.json"),
        "sweep-noise": ["sweep-noise", "--spec", spec_path, "--noise-grid", "0", "--trials", "1"],
    }[command]
    out = tmp_path / "o"
    if target == "out":
        (tmp_path / "file").write_text("")
        out = bad = tmp_path / "file" / "sub"  # a directory inside a regular file
    elif target.startswith("dump-"):
        bad = tmp_path / "missing" / "dump.csv"  # a file in a missing directory
        argv += ["--" + target, str(bad)]
    else:
        bad = out / target  # a directory where the output file goes
        bad.mkdir(parents=True)
    argv += ["--out", str(out)]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"gridmap: error: cannot write {bad}: " in err
    assert "Traceback" not in err


def _exit_code(argv):
    """main's return code, or argparse's exit code for a rejected flag."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("route,flags", [
    ("cluster", {"sigma": "nan"}),
    ("cluster", {"sigma": "inf"}),
    ("cluster", {"config": {"sigma": float("nan")}}),
    ("cluster", {"method": "multiview", "sigma_l": "nan"}),
    ("cluster", {"method": "multiview", "tol": "inf"}),
    ("cluster", {"method": "multiview", "tol": "nan"}),
    ("validate-assumption", {"sigma": "nan"}),
    ("sweep-noise", {"noise_grid": "0.0,nan"}),
    ("simulate", {"noise_std_pu": float("nan")}),
    ("simulate", {"xfmr_impedance_pu": [0.004, float("nan")]}),
    ("simulate", {"line_resistance_pu": float("inf")}),
    ("simulate", {"T": float("nan")}),
    # tol is checked under every method, also where it goes unused
    ("cluster", {"tol": "nan"}),
    ("cluster", {"tol": "inf"}),
    ("cluster", {"tol": "0"}),
    ("cluster", {"tol": "-1"}),
    ("cluster", {"method": "kmeans-baseline", "tol": "nan"}),
    ("cluster", {"method": "kmeans-baseline", "tol": "inf"}),
    ("cluster", {"method": "kmeans-baseline", "tol": "0"}),
    ("cluster", {"method": "kmeans-baseline", "tol": "-1"}),
    ("cluster", {"method": "multiview", "tol": "0"}),
    ("cluster", {"method": "multiview", "tol": "-1"}),
    ("cluster", {"config": {"tol": 0}}),
], ids=["sigma-nan", "sigma-inf", "config-sigma-nan", "sigma-l-nan", "tol-inf", "tol-nan",
        "validate-sigma-nan", "noise-grid-nan", "spec-noise-nan", "spec-impedance-nan",
        "spec-line-inf", "spec-T-nan", "spectral-tol-nan", "spectral-tol-inf",
        "spectral-tol-0", "spectral-tol-negative", "baseline-tol-nan", "baseline-tol-inf",
        "baseline-tol-0", "baseline-tol-negative", "multiview-tol-0",
        "multiview-tol-negative", "config-tol-0"])
def test_non_finite_numbers_exit_2(tmp_path, route, flags):
    doc = two_cluster_spec(0.0, seed=0).to_json_dict()
    if route == "simulate":  # the bad number sits in the feeder spec
        doc.update(flags)
        flags = {}
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    if "config" in flags:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(flags["config"]))
        flags = {**flags, "config": cfg}
    if route == "cluster":
        argv = cluster_args(simulate(tmp_path, two_cluster_spec(0.0, seed=0)), k=2)
    elif route == "validate-assumption":
        src = simulate(tmp_path, two_cluster_spec(0.0, seed=0))
        argv = [route, "--voltages", str(src / "voltages.csv"),
                "--transformers", str(src / "transformers.csv"),
                "--ground-truth", str(src / "ground_truth.csv")]
    else:
        argv = [route, "--spec", str(spec)]
        if route == "sweep-noise":
            argv += ["--trials", "1"]
    out = tmp_path / "o"
    for flag, value in {**flags, "out": out}.items():
        argv += ["--" + flag.replace("_", "-"), str(value)]
    assert _exit_code(argv) == 2
    assert not out.exists()
