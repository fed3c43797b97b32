"""The repo benchmark: one command, one workload, one fresh process.

    python3 benchmarks/perf/run.py --workload NAME --seed S --seconds T --trace 0|1
    python3 benchmarks/perf/run.py --all [--quick]
    python3 benchmarks/perf/run.py compare DIR_A DIR_B
    python3 benchmarks/perf/run.py check

A run times its set-up, does one untimed warm-up pass, repeats timed passes
over the same generated inputs for ``--seconds``, checks the outputs, prints
every metric as ``name value unit`` and ends with one JSON line.  Seconds are
machine seconds (``timing.py``).  With
``--trace 1`` half the time goes to untraced passes and one more pass runs
under the span recorder; the JSON line then carries the per-layer metrics.
See README.md in this directory.
"""

from __future__ import annotations

import os
import sys
import time

_PROCESS_START = time.perf_counter()

# One process, one thread: BLAS / OpenMP pools must be pinned before numpy loads.
for _variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_variable] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple  # noqa: E402

PERF_DIR = Path(__file__).resolve().parent
REPO_ROOT = PERF_DIR.parents[1]
SOURCE_DIR = REPO_ROOT / "src"
DEFAULT_OUT = PERF_DIR / "out"
sys.path.insert(0, str(SOURCE_DIR))

import config  # noqa: E402

#: Budget of the untimed warm-up pass.
WARMUP_SECONDS = 1.0


# --------------------------------------------------------------------------- #
# Trained-pipeline cache (the benchmark's build step)
# --------------------------------------------------------------------------- #


def _source_key(pipeline_kwargs: Dict[str, object]) -> str:
    """Hash of everything the cached build depends on: the program's sources and the model config for
    the weights, this file and ``timing.py`` for the training times stored beside them."""
    hasher = hashlib.sha256(json.dumps(pipeline_kwargs, sort_keys=True).encode("utf-8"))
    for path in sorted(SOURCE_DIR.rglob("*.py")) + [PERF_DIR / "run.py", PERF_DIR / "timing.py"]:
        hasher.update(str(path.relative_to(REPO_ROOT)).encode("utf-8"))
        hasher.update(path.read_bytes())
    return hasher.hexdigest()[:16]


def _cache_paths(out_dir: Path, quick: bool) -> Tuple[Path, Path]:
    kwargs = config.QUICK_PIPELINE if quick else config.BENCH_PIPELINE
    stem = out_dir / "cache" / f"pipeline-{'quick' if quick else 'full'}-{_source_key(kwargs)}"
    return stem.with_suffix(".pkl"), stem.with_suffix(".json")


def _train_timed(pipeline: Any, method: str, gauge: Any) -> float:
    """Machine seconds ``pipeline.train_method(method)`` takes.

    Training is one call of several seconds, longer than the machine holds
    one speed, so each optimisation step is timed as a unit of its own: the
    trainer's per-step ``prepare_inputs`` closes one step, lets the gauge
    tick, and opens the next.
    """
    from repro.core.training import MedusaTrainer

    original = MedusaTrainer.prepare_inputs
    starts: List[float] = []
    wall: List[float] = []

    def close_step() -> None:
        wall.append(time.perf_counter() - starts[-1])

    def ticking(trainer: Any, sample: Any) -> Any:
        close_step()
        gauge.tick()
        starts.append(time.perf_counter())
        return original(trainer, sample)

    MedusaTrainer.prepare_inputs = ticking
    try:
        starts.append(time.perf_counter())
        pipeline.train_method(method)
        close_step()
    finally:
        MedusaTrainer.prepare_inputs = original
    gauge.sample()
    return sum(gauge.machine_seconds(starts, wall))


def build_trained_pipeline(out_dir: Path, quick: bool) -> None:
    """Prepare corpus and tokenizer, train the three methods, pickle the pipeline; the machine seconds
    each step took are written beside it."""
    import timing
    from repro.core.pipeline import PipelineConfig, VerilogSpecPipeline
    from repro.serving import save_pipeline

    pickle_path, meta_path = _cache_paths(out_dir, quick)
    pickle_path.parent.mkdir(parents=True, exist_ok=True)
    gauge = timing.MachineGauge()
    prepare_s: List[float] = []
    train_s: Dict[str, List[float]] = {method: [] for method in config.METHODS}
    # One measurement of a several-second training repeated to within 12 % only, so the whole
    # (deterministic) build is done BUILD_REPS times and each step reports its median.
    for _ in range(config.BUILD_REPS):
        pipeline = VerilogSpecPipeline(PipelineConfig(**(config.QUICK_PIPELINE if quick else config.BENCH_PIPELINE)))
        start = time.perf_counter()
        pipeline.prepare()
        prepare_wall = time.perf_counter() - start
        gauge.sample()
        prepare_s.append(gauge.machine_seconds([start], [prepare_wall])[0])
        for method in config.METHODS:
            train_s[method].append(_train_timed(pipeline, method, gauge))
    seconds = {
        "prepare_s": statistics.median(prepare_s),
        "train_s": {method: statistics.median(values) for method, values in train_s.items()},
    }
    pipeline.histories.clear()
    # Write-then-rename, so an interrupted build never leaves a half-written cache.
    for path, write in (
        (pickle_path, lambda tmp: save_pipeline(pipeline, str(tmp))),
        (meta_path, lambda tmp: tmp.write_text(json.dumps(seconds))),
    ):
        temporary = path.with_suffix(path.suffix + f".{os.getpid()}.tmp")
        write(temporary)
        os.replace(temporary, path)


def ensure_trained_pipeline(out_dir: Path, quick: bool) -> Tuple[Path, Dict[str, Any]]:
    """Path of the pickled trained pipeline and what building it cost (``prepare_s``, ``train_s`` per
    method, machine seconds); builds it if missing.

    The driver makes 136 runs in 57 minutes and training takes 5 to 9 s, so
    a checkout trains once (the cache is keyed by a hash of ``src/``) and
    ``setup_s`` times what every run pays after that; what the build cost is
    reported as ``data.prepare_s`` and ``models.train_s.*`` and judged by
    ``compare``.  The build runs in a process of its own so that the first
    run's ``peak_rss_mb`` does not carry training's memory.
    """
    pickle_path, meta_path = _cache_paths(out_dir, quick)
    if not (pickle_path.exists() and meta_path.exists()):
        command = [sys.executable, str(Path(__file__).resolve()), "build", "--out", str(out_dir)]
        subprocess.run(command + (["--quick"] if quick else []), check=True)
    return pickle_path, json.loads(meta_path.read_text())


def load_pipeline(path: Path) -> Any:
    # The file was written by ensure_trained_pipeline in this checkout.
    with open(path, "rb") as handle:
        return pickle.load(handle)


# --------------------------------------------------------------------------- #
# One run
# --------------------------------------------------------------------------- #


def _measure_passes(workload: Any, gauge: Any, seconds: float) -> List[Any]:
    """Repeat passes over the same inputs until ``seconds`` of wall time are spent.

    The first pass is always whole.  Workloads with ``partial_passes`` stop
    at the first unit boundary after the deadline; the others start another
    pass only if, going by the last one, it would end in time.  At least two
    passes run where outputs of two passes are compared (``min_passes``).
    """
    deadline = time.perf_counter() + seconds
    passes: List[Any] = []
    while True:
        whole = not passes or not workload.partial_passes
        keep_going: Callable[[], bool] = (lambda: True) if whole else (lambda: time.perf_counter() < deadline)
        # Engines and their listeners form reference cycles; collecting them at a fixed point keeps
        # peak_rss_mb from depending on when the cyclic collector happens to run.
        gc.collect()
        began = time.perf_counter()
        result = workload.run_pass(gauge, keep_going)
        now = time.perf_counter()
        if result.raw:
            workload.settle(result, passes[0] if passes else None)
            passes.append(result)
        in_time = now < deadline if workload.partial_passes else now + (now - began) <= deadline
        if len(passes) >= workload.min_passes and not in_time:
            return passes


def _warm_up(workload: Any, gauge: Any) -> None:
    if not workload.warm_up:
        return
    deadline = time.perf_counter() + WARMUP_SECONDS
    workload.run_pass(gauge, lambda: time.perf_counter() < deadline)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB


def run_workload(name: str, seed: int, seconds: float, trace: bool, quick: bool, out_dir: Path) -> Dict[str, Any]:
    """Run one workload and return its result document (also written under ``out_dir``)."""
    import timing
    import workloads

    # Set-up, timed: the imports above, then SETUP_REPS x (load the trained pipeline, generate the
    # inputs, build the program objects).
    import_wall = time.perf_counter() - _PROCESS_START
    gauge = timing.MachineGauge()
    sizes = config.QUICK_SIZES if quick else config.FULL_SIZES
    workload_cls = workloads.WORKLOAD_CLASSES[name]
    pipeline_path, build = ensure_trained_pipeline(out_dir, quick) if workload_cls.methods else (None, None)
    starts, reps_wall = [_PROCESS_START], [import_wall]
    for _ in range(config.SETUP_REPS):
        starts.append(time.perf_counter())
        workload = workload_cls(load_pipeline(pipeline_path) if pipeline_path else None, sizes, seed)
        reps_wall.append(time.perf_counter() - starts[-1])
        gauge.tick()
    gauge.sample()
    import_s, *reps_s = gauge.machine_seconds(starts, reps_wall)
    setup_s = import_s + statistics.median(reps_s)

    built = {}
    if build:
        built = {"data.prepare_s": build["prepare_s"], **{f"models.train_s.{m}": v for m, v in build["train_s"].items()}}

    _warm_up(workload, gauge)
    passes = _measure_passes(workload, gauge, seconds / 2 if trace else seconds)
    summary = workload.summarise(passes)
    tail = timing.tail_percentile(len(summary.op_seconds))

    document: Dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "comparable": not quick,
        "inputs_sha256": workload.inputs_digest(),
        "outputs_sha256": summary.outputs_sha256,
        "ops_attempted": summary.ops_attempted,
        "ops_failed": summary.ops_failed,
        "notes": summary.notes,
        "passes": {
            "count": len(passes),
            "units_per_pass": len(passes[0].raw),
            "wall_s": [p.wall for p in passes],
            "machine_factor": [p.factor for p in passes],
        },
        "op_latency": {
            "samples": len(summary.op_seconds),
            "tail_percentile": tail,
            "tail_ms": 1e3 * timing.percentile(summary.op_seconds, tail),
        },
        "setup": {"import_s": import_s, "reps_s": reps_s},
        "detail": {
            "op_p50_ms": 1e3 * statistics.median(summary.op_seconds),
            "op_p90_ms": 1e3 * timing.percentile(summary.op_seconds, 90.0),
            **summary.detail,
            **built,
        },
    }
    if trace:
        document["per_layer"], document["layer_table"] = _traced_run(workload, gauge, passes, pipeline_path, out_dir)
        document["per_layer"].update(document["detail"])
    document["end_to_end"] = {**summary.end_to_end, "peak_rss_mb": _peak_rss_mb(), "setup_s": setup_s}

    out_dir.mkdir(parents=True, exist_ok=True)
    result_path = out_dir / f"{name}-seed{seed}-trace{int(trace)}.json"
    result_path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return document


def _traced_run(
    workload: Any, gauge: Any, untraced: Sequence[Any], pipeline_path: Optional[Path], out_dir: Path
) -> Tuple[Dict[str, float], str]:
    """One more pass under the span recorder; returns every per-layer metric (0 where a layer
    did no work) and the printable span table."""
    import layers
    import probes
    import spans
    from timing import medians_by_unit

    tracer = layers.LayerTracer()
    tracer.install()
    try:
        traced = workload.run_pass(gauge, lambda: True, tracer.recorder)
    finally:
        tracer.recorder.restore()
    metrics = {metric.name: 0.0 for metric in config.PER_LAYER}
    metrics.update(tracer.metrics(traced.wall, traced.factor))
    metrics.update(workload.layer_counts(untraced))
    metrics.update(workload.traced_counts(traced))
    metrics["trace.overhead_ratio"] = sum(traced.seconds) / sum(medians_by_unit([p.seconds for p in untraced]))
    metrics["machine.factor"] = statistics.median(p.factor for p in untraced)
    metrics.update(probes.run_probes(workload, gauge, untraced, pipeline_path))

    out_dir.mkdir(parents=True, exist_ok=True)
    tracer.recorder.write_chrome_trace(str(out_dir / f"{workload.name}-seed{workload.seed}.trace.json"))
    table = f"--- spans of the traced pass ({traced.wall:.3f} s wall, machine factor {traced.factor:.3f}) ---\n"
    return metrics, table + spans.format_layer_table(tracer.recorder.totals(), traced.wall)


# --------------------------------------------------------------------------- #
# Output
# --------------------------------------------------------------------------- #


def _print_run(document: Dict[str, Any]) -> None:
    name = document["workload"]
    label = "" if document["comparable"] else "  [--quick: NOT comparable]"
    print(f"=== {name}  seed {document['seed']}{label} ===")
    rate_of, op_of = config.WORKLOAD_SEMANTICS[name]
    print(f"rate_per_s counts: {rate_of}")
    print(f"op is: {op_of}")
    passes = document["passes"]
    walls = " ".join(f"{wall:.2f}/{factor:.2f}" for wall, factor in zip(passes["wall_s"], passes["machine_factor"]))
    print(f"passes {passes['count']} x {passes['units_per_pass']} units; wall s / machine factor of each: {walls}")
    for metric in config.END_TO_END:
        print(f"{metric.name} {document['end_to_end'][metric.name]:.6g} {metric.unit}")
    latency = document["op_latency"]
    print(
        f"op latency: {latency['samples']} operations; the highest percentile with ten samples beyond it is "
        f"p{latency['tail_percentile']:g} = {latency['tail_ms']:.6g} ms"
    )
    units = {metric.name: metric.unit for metric in config.PER_LAYER}
    for key, value in document["detail"].items():
        print(f"{key} {value:.6g} {units[key]}")
    if "per_layer" in document:
        print(document["layer_table"])
        for metric in config.PER_LAYER:
            if metric.name not in document["detail"]:
                print(f"{metric.name} {document['per_layer'][metric.name]:.6g} {metric.unit}")
    print(f"ops_attempted {document['ops_attempted']} count")
    print(f"ops_failed {document['ops_failed']} count")
    print(f"outputs_sha256 {document['outputs_sha256']}")
    for note in document["notes"]:
        print(f"FAILED CHECK: {note}")


def _result_line(document: Dict[str, Any]) -> str:
    """The driver's contract: the last line of standard output."""
    if document["trace"]:
        metrics = {m.name: {"value": float(document["per_layer"][m.name]), "unit": m.unit} for m in config.PER_LAYER}
    else:
        metrics = {m.name: {"value": float(document["end_to_end"][m.name]), "unit": m.unit} for m in config.END_TO_END}
    return json.dumps(
        {
            "correct": document["ops_failed"] == 0,
            "attempted": int(document["ops_attempted"]),
            "failed": int(document["ops_failed"]),
            "metrics": metrics,
        }
    )


# --------------------------------------------------------------------------- #
# Command line
# --------------------------------------------------------------------------- #


def _parse(argv: Sequence[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(config.WORKLOADS))
    parser.add_argument("--all", action="store_true", help="run every workload, one after the other")
    parser.add_argument("--seed", type=int, default=0, help="feeds the input generators only")
    parser.add_argument("--seconds", type=float, default=float(config.RUN_SECONDS), help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, nargs="?", const=1)
    parser.add_argument("--quick", action="store_true", help="tiny model and inputs; results are not comparable")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT, help="directory for result files and the model cache")
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in ("compare", "check"):
        import compare

        return compare.main(argv)
    if not SOURCE_DIR.is_dir():
        print(f"error: {SOURCE_DIR} not found: the benchmark measures the program under src/", file=sys.stderr)
        return 2
    if argv and argv[0] == "build":  # internal: see ensure_trained_pipeline
        args = _parse(argv[1:])
        build_trained_pipeline(args.out, args.quick)
        return 0
    args = _parse(argv)
    if args.all == bool(args.workload):
        print("error: give exactly one of --workload NAME and --all", file=sys.stderr)
        return 2
    if args.all:
        # One fresh process per workload, like every other run.
        passed_on = [a for a in argv if a != "--all"]
        codes = [subprocess.run([sys.executable, __file__, "--workload", name] + passed_on).returncode for name in config.WORKLOADS]
        return max(codes)
    seconds = min(args.seconds, 2.0) if args.quick else args.seconds
    document = run_workload(args.workload, args.seed, seconds, bool(args.trace), args.quick, args.out)
    _print_run(document)
    print(_result_line(document))
    return 1 if document["ops_failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
