"""Pipeline benchmark: one catebounds seed end to end, checked and timed.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

A run repeats whole rounds until S seconds have passed. A round is one
pipeline seed (`runner.run_pipeline` plus `runner.emit_results`, jobs = 1)
followed by six output checks; each of the seven is one operation. With
`--trace 0` the run reports the end-to-end metrics, at the reference speed of
`speed.py` (the reference kernel runs before and after every seed), and with
`--trace 1` the per-layer metrics of a traced seed, alternating traced and
untraced rounds so the tracing overhead is measured too. The last line of standard output is a
JSON object with `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# one BLAS thread: the pipeline runs in one process, and a second thread
# on a shared 2-core machine only adds noise to the timings
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
# fewest set-up probes in a run: one runs before each round, so that the
# probes spread over the run like its seeds, and the rest after the last
SETUP_PROBES = 5
CHECKS = ("gamma", "gamma_csv", "intervals", "quadrature", "policy",
          "determinism")


def _parse(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _probe_setup(spec: dict, expect: tuple[int, int]) -> float:
    """Seconds of import + `runner.load_dataset` in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, str(BENCH / "probe_setup.py"), str(SRC), json.dumps(spec)],
        check=True, capture_output=True, text=True, timeout=120)
    probe = json.loads(out.stdout.strip().splitlines()[-1])
    if (probe["n_train"], probe["n_test"]) != expect:
        raise RuntimeError(f"set-up loaded {probe['n_train']}/{probe['n_test']} "
                           f"rows, expected {expect}")
    return probe["setup_s"]


def _source_key(config_dict: dict) -> str:
    """Identity of the program's sources and the config: the output digest
    stored by an earlier process is comparable only under the same key."""
    h = hashlib.sha256(json.dumps(config_dict, sort_keys=True).encode())
    for p in sorted((SRC / "catebounds").glob("*.py")):
        h.update(p.name.encode() + p.read_bytes())
    return h.hexdigest()[:32]


class Operations:
    """Counts operations attempted and failed; a failure is reported on
    stderr with its traceback and the run goes on. Every failure makes the
    run wrong, except one that raises `known_fault`: that output shows a
    known fault of the program and was otherwise found right."""

    def __init__(self, known_fault: type[Exception]) -> None:
        self.known_fault = known_fault
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.seconds: dict[str, float] = {}

    def run(self, name: str, fn) -> bool:
        self.attempted += 1
        started = time.perf_counter()
        try:
            fn()
            return True
        except Exception as exc:  # reported, counted, and the round goes on
            self.failed += 1
            self.wrong += not isinstance(exc, self.known_fault)
            print(f"operation {name} failed: {exc}", file=sys.stderr)
            if not isinstance(exc, AssertionError):
                traceback.print_exc(file=sys.stderr)
            return False
        finally:
            self.seconds[name] = (self.seconds.get(name, 0.0)
                                  + time.perf_counter() - started)

    def skip(self, names) -> None:
        self.attempted += len(names)
        self.failed += len(names)
        self.wrong += len(names)


def _timed_seed(runner, config, train, test, seed) -> float:
    """Wall seconds of one pipeline seed, as a user of the library runs it."""
    started = time.perf_counter()
    runner.emit_results(config, [runner.run_pipeline(config, train, test, seed)])
    return time.perf_counter() - started


def _run_workload(args) -> dict:
    import numpy as np
    from catebounds import runner
    from catebounds.runner import config_to_dict

    import checks
    from speed import Kernel
    from tracing import LAYER_METRICS, SETUP_METRICS, Tracer, median_metrics
    from workloads import WORKLOADS, write_mnist_inputs

    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from "
                         f"{', '.join(WORKLOADS)} or all")
    wl = WORKLOADS[args.workload]
    seed = args.seed
    work = BENCH / ".work" / wl.name
    rel = work.relative_to(ROOT)
    out_dir = work / "out"
    shutil.rmtree(out_dir, ignore_errors=True)
    config = wl.config(seed, out_dir=str(rel / "out"), input_dir=str(rel / "inputs"))
    deltas = config.deltas

    spec = config_to_dict(config)["dataset"]
    rows = (spec["n_train"], spec["n_test"])
    mnist = None if wl.synthetic else write_mnist_inputs(work / "inputs", seed, rows)

    metrics: dict[str, tuple[float, str]] = {}
    tracer = Tracer()
    if args.trace:
        with tracer.installed(), tracer.span("setup"):
            train, test = runner.load_dataset(config.dataset)
        setup_layers = tracer.layers(0)
        for name in SETUP_METRICS:
            unit, fn = LAYER_METRICS[name]
            metrics[name] = (fn(setup_layers), unit)
    else:
        train, test = runner.load_dataset(config.dataset)

    ops = Operations(checks.KnownFault)
    seed_dir = out_dir / f"seed_{seed}"
    check_rng = np.random.default_rng(np.random.SeedSequence((seed, 0xC4EC)))
    quad_points = sorted(int(i) for i in check_rng.choice(
        test.n, size=checks.QUADRATURE_POINTS, replace=False))
    oracle = None
    # stage-0 checkpoint bytes, and the train and test phi they give
    phi_of = [None, None, None]
    digest_file = work / "digests" / f"seed_{seed}-{_source_key(config_to_dict(config))}"
    reference = digest_file.read_text().strip() if digest_file.exists() else None

    def determinism():
        nonlocal reference
        got = checks.digest(out_dir)
        if reference is None:
            reference = got
            digest_file.parent.mkdir(parents=True, exist_ok=True)
            digest_file.write_text(got + "\n")
        if got != reference:
            raise checks.CheckFailed(f"output digest {got[:16]} differs from "
                                     f"the first run's {reference[:16]}")

    seed_times = {False: [], True: []}
    setup_times = []
    kernel = None if args.trace else Kernel()
    traced_layers = []
    peak_rss_mb = None
    started = time.perf_counter()
    rounds = 0
    try:
        while True:
            traced = bool(args.trace) and rounds % 2 == 1
            rounds += 1
            if not args.trace:
                setup_times.append(_probe_setup(spec, rows))
            gc.collect()
            if not args.trace:
                # the machine's speed just before the seed, and just after it
                kernel.time()

            def pipeline():
                if traced:
                    with tracer.installed(), tracer.span("seed"):
                        root = len(tracer.spans) - 1
                        elapsed = _timed_seed(runner, config, train, test, seed)
                    traced_layers.append(tracer.layers(root))
                else:
                    elapsed = _timed_seed(runner, config, train, test, seed)
                seed_times[traced].append(elapsed)

            seed_ok = ops.run("seed", pipeline)
            if not args.trace:
                kernel.time()
            if not seed_ok:
                ops.skip(CHECKS)
            else:
                if peak_rss_mb is None:
                    # read before any check runs, so the checks' arrays do not count
                    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                if oracle is None:
                    oracle = (checks.synthetic_oracle(test.x) if mnist is None else
                              checks.hcmnist_oracle(mnist.train_images, mnist.train_labels,
                                                    mnist.test_images, mnist.test_labels))
                blob = (seed_dir / "stage0.json").read_bytes()
                if blob != phi_of[0]:
                    phi_of[:] = [blob, *checks.representations(blob, train.x, test.x)]
                phi, phi_test = phi_of[1:]
                ops.run("gamma", lambda: checks.check_gamma(
                    seed_dir, deltas, phi, phi_test, np.random.default_rng(seed)))
                ops.run("gamma_csv", lambda: checks.check_gamma_csv(
                    seed_dir, deltas, phi))
                ops.run("intervals", lambda: checks.check_intervals(
                    seed_dir, deltas, train.n, test.n))
                ops.run("quadrature", lambda: checks.check_quadrature(
                    seed_dir, phi_test[quad_points], deltas, config.k, quad_points))
                ops.run("policy", lambda: checks.check_policy(
                    out_dir, seed, deltas, oracle))
                ops.run("determinism", determinism)
            done = time.perf_counter() - started >= args.seconds
            if done and (not args.trace or rounds % 2 == 0):
                break
    finally:
        if kernel is not None:
            kernel.close()

    print(f"{wl.name} seed {seed}: {rounds} rounds, seed wall seconds "
          f"{[round(t, 4) for t in seed_times[False]]} untraced, "
          f"{[round(t, 4) for t in seed_times[True]]} traced")
    print("seconds per operation, all rounds: " + ", ".join(
        f"{name} {t:.2f}" for name, t in ops.seconds.items()))
    if args.trace:
        per_seed = [{name: fn(layers) for name, (unit, fn) in LAYER_METRICS.items()
                     if name not in SETUP_METRICS} for layers in traced_layers]
        if per_seed:
            for name, value in median_metrics(per_seed).items():
                metrics[name] = (value, LAYER_METRICS[name][0])
            _print_layers(traced_layers[len(traced_layers) // 2])
        if seed_times[True] and seed_times[False]:
            metrics["trace.overhead_s"] = (statistics.median(seed_times[True])
                                           - statistics.median(seed_times[False]), "s")
        tracer.write(work / f"trace-seed_{seed}.jsonl")
    else:
        while len(setup_times) < SETUP_PROBES:
            setup_times.append(_probe_setup(spec, rows))
        scale = kernel.scale()
        print(f"reference kernel wall seconds {[round(t, 4) for t in kernel.samples]}, "
              f"scale to the reference speed {scale:.4f}; set-up wall seconds "
              f"{[round(t, 4) for t in setup_times]}")
        metrics["setup_s"] = (statistics.median(setup_times) * scale, "s")
        if seed_times[False]:
            # the mean, i.e. the run's seed time over its seeds: on the shared
            # machine it spread less from run to run than the median of rounds
            metrics["seed_s"] = (statistics.fmean(seed_times[False]) * scale, "s")
        if peak_rss_mb is not None:
            metrics["peak_rss_mb"] = (peak_rss_mb, "MiB")
    return {"correct": ops.wrong == 0, "attempted": ops.attempted,
            "failed": ops.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def _print_layers(layers: dict) -> None:
    """Inclusive, self and top-level seconds per traced function of one seed."""
    seed_s = layers["seed"]["seconds"]
    print(f"{'span':34} {'calls':>7} {'incl s':>9} {'self s':>9} "
          f"{'top s':>9} {'share':>6} {'nodes':>9}")
    for name, e in sorted(layers.items(), key=lambda kv: -kv[1]["seconds"]):
        print(f"{name:34} {e['calls']:7d} {e['seconds']:9.4f} {e['self_s']:9.4f} "
              f"{e.get('top_level_s', e['seconds']):9.4f} "
              f"{e['seconds'] / seed_s:6.1%} {e['nodes']:9d}")


def _run_all(args) -> dict:
    """Every workload in a fresh interpreter; metrics prefixed by workload.
    The children's stderr passes through; a child that exits with an error
    counts as one failed operation and the other workloads still run."""
    from workloads import WORKLOADS

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        sys.stdout.write(out.stdout)
        if out.returncode != 0:
            print(f"workload {name} exited with code {out.returncode}",
                  file=sys.stderr)
            total["correct"] = False
            total["attempted"] += 1
            total["failed"] += 1
            continue
        result = json.loads(out.stdout.strip().splitlines()[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = value
    return total


def main() -> int:
    args = _parse(sys.argv[1:])
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    if not (SRC / "catebounds" / "runner.py").is_file():
        print(f"no catebounds sources under {SRC}; run from a checkout of the "
              f"repository", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    result = _run_all(args) if args.workload == "all" else _run_workload(args)
    for name, m in result["metrics"].items():
        print(f"{name:40} {m['value']:>14.6g} {m['unit']}")
    print(f"operations: {result['attempted']} attempted, {result['failed']} failed")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
