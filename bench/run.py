#!/usr/bin/env python3
"""causalign benchmark: one command, three workloads, output checks.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload reference|large-n|suite --seed N \\
        --seconds S --trace 0|1

The run repeats whole rounds of its workload (one pipeline run, or one
``run_benchmark`` call for the suite) until S seconds of rounds have been
measured, checks every round's outputs (see checks.py) and prints one JSON
object as its last line: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run (see tracing.py) with ``--trace 1``.
Timings are medians over the rounds. Nothing in the environment is changed:
BLAS threading is whatever the machine gives the program.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 7

END_TO_END = {
    "run_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "auroc": "ratio",
    "best_graph_auroc": "ratio",
}
# per-layer metrics measured by the driver rather than the tracer
DRIVER_LAYERS = {
    "io.bytes_written": "B",
    "pipeline.children_cpu_s": "s",
    "pipeline.parallel_efficiency": "ratio",
    "pipeline.traced_run.s": "s",
}


def layer_unit(name: str) -> str:
    if name in DRIVER_LAYERS:
        return DRIVER_LAYERS[name]
    return "s" if name.endswith(".s") else "count"


def _children_cpu_seconds() -> float:
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return kids.ru_utime + kids.ru_stime


def _cpu_seconds() -> float:
    """CPU time of this process (every thread, BLAS helpers included) and
    of its reaped children (the suite's pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    return own.ru_utime + own.ru_stime + _children_cpu_seconds()


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def _bytes_under(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclasses.dataclass
class Round:
    wall: float
    cpu: float
    attempted: int
    failed: int
    problems: list
    auroc: float | None = None
    best_graph_auroc: float | None = None
    fingerprint: dict | None = None
    layers: dict | None = None
    seed: int | None = None


@contextlib.contextmanager
def _capture_refine(pipeline, sink: dict):
    """Keep the RefineTrace of an in-memory run for the output checks."""
    original = pipeline.refine

    def capturing(*args, **kwargs):
        sink["trace"] = original(*args, **kwargs)
        return sink["trace"]

    pipeline.refine = capturing
    try:
        yield
    finally:
        pipeline.refine = original


def run_single(wl, round_dir: Path, tracer) -> Round | None:
    """One pipeline run (reference, large-n); None when the instance is
    left out because its random seed graph breaks the in-degree cap (see
    the FOUND line in CHANGES.md): that fails on about 1 instance in 1000,
    by seed, so it would make the failed share differ between runs."""
    import checks
    from causalign.errors import DegreeCapError, StageError

    pipeline = importlib.import_module("causalign.pipeline")
    config = dataclasses.replace(wl.config, out_dir=str(round_dir) if wl.writes_run_dir else None)
    captured: dict = {}
    with tracer.installed() if tracer else contextlib.nullcontext():
        with _capture_refine(pipeline, captured):
            cpu0, t0 = _cpu_seconds(), time.perf_counter()
            try:
                record = pipeline.run_pipeline(config, dataset=wl.dataset, truth=wl.truth)
            except StageError as exc:
                if exc.stage == "refine" and isinstance(exc.cause, DegreeCapError):
                    print(f"{wl.name}: instance left out: {exc}", file=sys.stderr)
                    return None
                print(f"{wl.name}: operation failed: {exc}", file=sys.stderr)
                record = None
            wall, cpu = time.perf_counter() - t0, _cpu_seconds() - cpu0
    if record is None:
        return Round(wall, cpu, 1, 1, [])
    if wl.writes_run_dir:
        art = checks.load_run_dir(str(round_dir))
        fingerprint = {name: _sha256(round_dir / name) for name in ("prediction.csv", "trace.jsonl")}
    else:
        art = checks.from_memory(record, captured["trace"], wl.dataset, wl.truth)
        steps = json.dumps([s.to_json() for s in captured["trace"].steps]).encode()
        fingerprint = {
            "prediction": hashlib.sha256(record.prediction.tobytes()).hexdigest(),
            "trace": hashlib.sha256(steps).hexdigest(),
        }
    problems = checks.check_run(art, config.refine.score)
    return Round(
        wall,
        cpu,
        1,
        0,
        problems,
        auroc=record.metrics["final"]["auroc"],
        best_graph_auroc=record.metrics["best_graph"]["auroc"],
        fingerprint=fingerprint,
    )


def run_suite_pass(wl, out_dir: Path, threads: int, tracer) -> Round:
    """One ``run_benchmark`` call over the suite's instances."""
    import checks
    import workloads

    pipeline = importlib.import_module("causalign.pipeline")
    with tracer.installed() if tracer else contextlib.nullcontext():
        cpu0, t0 = _cpu_seconds(), time.perf_counter()
        pipeline.run_benchmark(
            wl.config, workloads.SUITE_SETTING, workloads.SUITE_INSTANCES, str(out_dir), threads=threads
        )
        wall, cpu = time.perf_counter() - t0, _cpu_seconds() - cpu0
    problems, ok, failed = checks.check_suite_tables(str(out_dir), workloads.SUITE_INSTANCES)
    fingerprint = {}
    for i in ok:
        inst = out_dir / "instances" / f"{i:03d}"
        problems += [f"instance {i}: {p}" for p in checks.check_run(checks.load_run_dir(str(inst)), wl.config.refine.score)]
        for name in ("prediction.csv", "trace.jsonl"):
            fingerprint[f"{i:03d}/{name}"] = _sha256(inst / name)
    summary = {(r["method"], r["metric"]): float(r["mean"]) for r in checks.read_csv(str(out_dir / "summary.csv"))}
    return Round(
        wall,
        cpu,
        workloads.SUITE_INSTANCES,
        len(failed),
        problems,
        auroc=summary.get(("final", "auroc")),
        best_graph_auroc=summary.get(("best_graph", "auroc")),
        fingerprint=fingerprint,
    )


def run_round(wl, round_dir: Path, trace: bool) -> Round | None:
    import tracing
    import workloads

    if not trace:
        if wl.name == workloads.SUITE:
            return run_suite_pass(wl, round_dir, workloads.SUITE_WORKERS, None)
        return run_single(wl, round_dir, None)

    tracer = tracing.Tracer()
    if wl.name == workloads.SUITE:
        # the pool's workers cannot report into this process's tracer, so
        # the layers are traced on a serial pass over the same instances;
        # the parallel pass gives the pool's own figures
        kids0 = _children_cpu_seconds()
        parallel = run_suite_pass(wl, round_dir / "parallel", workloads.SUITE_WORKERS, None)
        children_cpu = _children_cpu_seconds() - kids0
        serial = run_suite_pass(wl, round_dir / "serial", 1, tracer)
        rnd = serial
        rnd.attempted += parallel.attempted
        rnd.failed += parallel.failed
        rnd.problems += parallel.problems
        if parallel.fingerprint != serial.fingerprint:
            rnd.problems.append("serial and parallel suite passes wrote different outputs")
        efficiency = sum(tracer.instance_s) / (workloads.SUITE_WORKERS * parallel.wall)
        written = _bytes_under(round_dir / "serial")
    else:
        rnd = run_single(wl, round_dir, tracer)
        if rnd is None:
            return None
        children_cpu, efficiency = 0.0, 1.0
        written = _bytes_under(round_dir) if round_dir.exists() else 0
    rnd.layers = tracer.metrics()
    rnd.layers.update(
        {
            "io.bytes_written": written,
            "pipeline.children_cpu_s": children_cpu,
            "pipeline.parallel_efficiency": efficiency,
            "pipeline.traced_run.s": rnd.wall,
        }
    )
    return rnd


def measure_setup(workload: str, seed: int) -> float:
    """Median over fresh interpreters of the time from spawning one to the
    moment it has imported causalign and built the workload's inputs."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        done = subprocess.run(
            [sys.executable, str(BENCH / "probe_setup.py"), workload, str(seed)],
            check=True,
            capture_output=True,
            text=True,
            timeout=120,
        )
        # CLOCK_MONOTONIC is system-wide, so the child's reading is
        # comparable with this process's
        times.append(float(done.stdout.strip().splitlines()[-1]) - t0)
    return statistics.median(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "causalign" / "__init__.py").is_file():
        print(f"error: no causalign sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}", file=sys.stderr)
        return 2
    min_rounds = 1 if args.trace else workloads.QUALITY_ROUNDS[args.workload]
    run_dir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    rounds: list[Round] = []
    index = 0
    try:
        while len(rounds) < min_rounds or sum(r.wall for r in rounds) < args.seconds:
            # a traced run repeats one instance so its counts repeat exactly
            if args.trace and rounds:
                seed = rounds[0].seed
            else:
                seed, index = workloads.instance_seed(args.seed, index), index + 1
            round_dir = run_dir / f"round{len(rounds)}"
            rnd = run_round(workloads.build(args.workload, seed), round_dir, bool(args.trace))
            shutil.rmtree(round_dir, ignore_errors=True)
            if rnd is None:
                continue
            rnd.seed = seed
            rounds.append(rnd)
            print(
                f"round {len(rounds) - 1} seed={seed} wall={rnd.wall:.3f}s cpu={rnd.cpu:.3f}s "
                f"auroc={rnd.auroc} best_graph_auroc={rnd.best_graph_auroc}",
                file=sys.stderr,
            )
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    peak_rss = _peak_rss_mb()  # read before the set-up probes add children

    ok = [r for r in rounds if r.failed < r.attempted]
    problems = [p for r in rounds for p in r.problems]
    for seed in {r.seed for r in ok}:
        if len({json.dumps(r.fingerprint, sort_keys=True) for r in ok if r.seed == seed}) > 1:
            problems.append(f"rounds with seed {seed} wrote different outputs")
    if not ok:
        print("error: every operation failed", file=sys.stderr)
        return 1
    if args.workload == workloads.REFERENCE:
        for r in ok:
            print(f"sha256 seed={r.seed} " + " ".join(f"{k}={v}" for k, v in sorted(r.fingerprint.items())))

    if args.trace:
        values = {name: statistics.median(r.layers[name] for r in ok) for name in ok[0].layers}
        metrics = {name: {"value": v, "unit": layer_unit(name)} for name, v in values.items()}
    else:
        quality = [r for r in rounds[:min_rounds] if r.failed < r.attempted] or ok
        values = {
            "run_s": statistics.median(r.wall for r in ok),
            "cpu_s": statistics.median(r.cpu for r in ok),
            "peak_rss_mb": peak_rss,
            "setup_s": measure_setup(args.workload, workloads.instance_seed(args.seed, 0)),
            "auroc": statistics.fmean(r.auroc for r in quality),
            "best_graph_auroc": statistics.fmean(r.best_graph_auroc for r in quality),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
        if not values["auroc"] > 0.5:
            problems.append(f"final AUROC {values['auroc']} is not above 0.5")
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
