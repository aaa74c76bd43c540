"""gridmap benchmark: times whole commands and, in a traced run, each layer.

    python3 perfbench/run.py --workload wide --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; gridmap is imported from ./src. The
workload's feeder is generated from --seed with the package simulator and
written as CSV files under perfbench/work/. A set-up (generate, write, one
warm-up call of each operation) is repeated SETUPS times and timed. Then
whole rounds run until --seconds have passed; a round is one in-process
call of each operation: `gridmap cluster`, `gridmap validate-assumption`
and `gridmap sweep-noise`. Every call's output is checked (see checks.py)
and must be byte-identical to the first warm-up's.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced and
traced rounds and prints the per-layer metrics of the traced ones, plus the
tracing overhead as the traced rounds' excess wall time over the untraced.
The last line of stdout is one JSON object.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from typing import Callable, NamedTuple

import checks
import tracing

BLAS_THREADS = 1
SETUPS = 3
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_NAMES = ("wide", "month", "multiview")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny feeders, for testing the harness itself")
    return p.parse_args(argv)


def import_gridmap():
    """Import gridmap from this checkout's src/ and nowhere else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import gridmap

    if not os.path.abspath(gridmap.__file__).startswith(src + os.sep):
        raise ImportError(f"gridmap resolved to {gridmap.__file__}, not under {src}")
    return gridmap


class Operation(NamedTuple):
    name: str
    argv: list[str]
    outputs: list[str]          # files compared byte for byte with the first call's
    check: Callable[[], list[str]]


class Bench:
    def __init__(self, workload, seed: int, work_dir: str):
        from gridmap import cli, feeder_sim, ingest
        from workloads import SWEEP_WIDTH, voltage_width

        self.cli, self.sim, self.ingest = cli, feeder_sim, ingest
        self.w, self.seed, self.dir = workload, seed, work_dir
        self.spec = workload.spec(seed)

        # kernel widths come from the generated data, before any timing
        data, _, _ = self._simulate(self.spec)
        self.sigma = voltage_width(data.voltages, workload.k, workload.width)
        if workload.noise > 0:
            clean = self.spec.to_json_dict() | {"noise_std_pu": 0.0}
            data, _, _ = self._simulate(feeder_sim.FeederSpec.from_json_dict(clean))
        self.sweep_sigma = voltage_width(data.voltages, workload.k, SWEEP_WIDTH)

        self.ops: list[Operation] = []          # on the latest set-up's files
        self.reference: dict[str, list[bytes]] = {}  # op name -> its first outputs
        self.times: dict[str, list[float]] = {}
        self.planted = None
        self.failed = 0
        self.wrong_output = False

    def _simulate(self, spec):
        return self.sim.simulate_voltages(spec, self.sim.generate_profiles(spec))

    def _operations(self, d: str) -> list[Operation]:
        w, sizes = self.w, self.spec.meters_per_xfmr
        f = {name: os.path.join(d, name) for name in (
            "voltages.csv", "locations.csv", "transformers.csv", "ground_truth.csv",
            "feeder.json", "cluster", "validate", "sweep")}
        cluster = ["cluster", "--voltages", f["voltages.csv"],
                   "--locations", f["locations.csv"], "--transformers", f["transformers.csv"],
                   "--k", str(w.k), "--method", w.method, "--sigma", repr(self.sigma)]
        if w.sigma_l is not None:
            cluster += ["--sigma-l", repr(w.sigma_l)]
        if w.tol is not None:
            cluster += ["--tol", repr(w.tol)]
        validate = ["validate-assumption", "--voltages", f["voltages.csv"],
                    "--transformers", f["transformers.csv"],
                    "--ground-truth", f["ground_truth.csv"], "--sigma", repr(self.sigma)]
        sweep = ["sweep-noise", "--spec", f["feeder.json"],
                 "--noise-grid", ",".join(repr(x) for x in w.sweep_grid),
                 "--trials", str(w.sweep_trials), "--sigma", repr(self.sweep_sigma)]
        return [
            Operation("cluster", cluster + ["--seed", "0", "--out", f["cluster"]],
                      [os.path.join(f["cluster"], "mapping.json")],
                      lambda: checks.check_mapping(f["cluster"], self.planted, w.k, w.method)),
            Operation("validate-assumption", validate + ["--seed", "0", "--out", f["validate"]],
                      [os.path.join(f["validate"], n) for n in ("guarantee.json", "eigs.csv")],
                      lambda: checks.check_certificate(f["validate"], sizes,
                                                       w.assumption_expected)),
            Operation("sweep-noise", sweep + ["--seed", "0", "--out", f["sweep"]],
                      [os.path.join(f["sweep"], "sweep.csv")],
                      lambda: checks.check_sweep(f["sweep"], w.sweep_grid, w.sweep_trials)),
        ]

    def setup(self, index: int) -> float:
        """Generate the feeder, write its CSVs, warm up each operation.

        Each set-up writes to a directory of its own, so no later set-up
        finds the files of an earlier one under the same path.
        """
        d = os.path.join(self.dir, f"setup-{index}")
        os.makedirs(d)
        gc.collect()
        start = time.perf_counter()
        data, xfmrs, truth = self._simulate(self.spec)
        voltages = os.path.join(d, "voltages.csv")
        transformers = os.path.join(d, "transformers.csv")
        self.ingest.save_dataset(data, voltages, os.path.join(d, "locations.csv"))
        self.ingest.save_transformers(xfmrs, transformers)
        self.ingest.save_ground_truth(truth, os.path.join(d, "ground_truth.csv"))
        with open(os.path.join(d, "feeder.json"), "w") as fh:
            json.dump(self.spec.to_json_dict(), fh)
        elapsed = time.perf_counter() - start

        if self.planted is None:
            self.planted = checks.planted_mapping(
                voltages, transformers, self.spec.meters_per_xfmr)
        self.ops = self._operations(d)
        return elapsed + sum(self.call(op, timed=False) for op in self.ops)

    def call(self, op: Operation, timed=True, tracer=None) -> float:
        """One in-process command, its output checked; returns its wall time."""
        gc.collect()
        span = tracer.span(f"cli.{op.name}") if tracer else contextlib.nullcontext()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()), span:
                code = self.cli.main(op.argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            traceback.print_exc()
            code = None
        elapsed = time.perf_counter() - start
        if code != 0:
            print(f"perfbench: {op.name} exited with {code}", file=sys.stderr)
            self.failed += timed
            return elapsed

        problems = op.check()
        outputs = []
        for path in op.outputs:
            with open(path, "rb") as fh:
                outputs.append(fh.read())
        if self.reference.setdefault(op.name, outputs) != outputs:
            problems.append("output differs from the first call's bytes")
        if problems:
            print(f"perfbench: {op.name}: {'; '.join(problems)}", file=sys.stderr)
            self.wrong_output = True
            self.failed += timed
        elif timed:
            self.times.setdefault(op.name, []).append(elapsed)
        return elapsed


def run(args) -> dict:
    from workloads import SMOKE, WORKLOADS

    workload = (SMOKE if args.smoke else WORKLOADS)[args.workload]
    work_dir = os.path.join(HERE, "work", ("smoke-" if args.smoke else "") + workload.name)
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)

    bench = Bench(workload, args.seed, work_dir)
    setups = [bench.setup(i) for i in range(SETUPS)]

    tracer = tracing.Tracer() if args.trace else None
    layer_rounds, round_walls = [], {False: [], True: []}
    attempted = 0
    start = time.perf_counter()
    rounds = 0
    while rounds < 1 + args.trace or time.perf_counter() - start < args.seconds:
        traced = tracer is not None and rounds % 2 == 1
        first_span = len(tracer.spans) if tracer else 0
        if traced:
            tracer.install()
        try:
            wall = time.perf_counter()
            for op in bench.ops:
                bench.call(op, tracer=tracer if traced else None)
            wall = time.perf_counter() - wall
        finally:
            if traced:
                tracer.uninstall()
        attempted += len(bench.ops)
        round_walls[traced].append(wall)
        if traced:
            layer_rounds.append(tracing.round_metrics(tracer.spans[first_span:]))
        rounds += 1

    if tracer:
        tracer.dump(os.path.join(work_dir, "spans.json"))
        untraced = statistics.median(round_walls[False])
        metrics = {name: statistics.median(r[name] for r in layer_rounds)
                   for name in tracing.PER_LAYER if name != "trace.overhead_pct"}
        metrics["trace.overhead_pct"] = (
            100.0 * (statistics.median(round_walls[True]) - untraced) / untraced)
        units = tracing.PER_LAYER
    else:
        trials = len(workload.sweep_grid) * workload.sweep_trials
        times = bench.times
        metrics = {
            "setup_s": statistics.median(setups),
            "cluster_s": _median(times.get("cluster", [])),
            "certify_s": _median(times.get("validate-assumption", [])),
            "trials_per_s": _median([trials / t for t in times.get("sweep-noise", [])]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {"setup_s": "s", "cluster_s": "s", "certify_s": "s",
                 "trials_per_s": "1/s", "peak_rss_mb": "MB"}

    print(f"{workload.name} seed {args.seed}: N={bench.spec.n_meters} k={workload.k} "
          f"T={workload.T}, {rounds} rounds, {attempted} operations, {bench.failed} failed")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:14.6g} {units[name]}")
    return {
        "correct": not bench.wrong_output,
        "attempted": attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def _median(values):
    return statistics.median(values) if values else float("nan")


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    try:
        import_gridmap()
    except ImportError as exc:
        print(f"perfbench: cannot import gridmap from {ROOT}/src: {exc}", file=sys.stderr)
        return 2
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
