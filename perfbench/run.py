"""hopscope benchmark: one closed-loop caller, one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The seed makes the inputs; hopscope sees only
those inputs. ``--trace 0`` repeats the workload's fixed pass while another
pass still fits in ``--seconds`` and reports the end-to-end metrics;
``--trace 1`` runs one plain pass and one traced pass and reports the
per-layer metrics. Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

import os

# One caller and no hidden thread pools: pin BLAS before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
OUT = HERE / "_out"
SETUP_REPEATS = 7
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def setup_seconds(name: str, seed: int, repeats: int) -> list[float]:
    """Set-up times of fresh interpreters, run one after another."""
    times = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), "--workload", name, "--seed", str(seed), "--out", str(OUT)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def run_passes(wl, inputs, seconds: float) -> list:
    """Repeat the fixed pass while one more pass still fits in ``seconds``.

    Every pass starts from a collected heap, so no pass pays for garbage
    an earlier one left behind.
    """
    passes, walls = [], []
    start = time.perf_counter()
    while True:
        gc.collect()
        t0 = time.perf_counter()
        passes.append(wl.run(inputs))
        walls.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            return passes


def summarize(name: str, seed: int, passes: list, extra: list[str]) -> None:
    first = passes[0]
    print(f"workload {name} seed {seed}: {len(passes)} pass(es), {first.attempted} operations each")
    for line in extra:
        print("  " + line)
    epoch_ms = [v for p in passes for v in p.epoch_ms]
    if epoch_ms:
        print(f"  epoch_ms_p50   {statistics.median(epoch_ms):.4f} ms  median over n={len(epoch_ms)} "
              "training runs or sweep cells")
        print(f"  test_acc_mean  {statistics.fmean(first.accuracies):.4f}       mean over "
              f"{len(first.accuracies)} runs or cells of one pass")
    else:
        print("  epoch_ms_p50   n/a (no training)")
        print("  test_acc_mean  n/a (no training)")
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    print(f"  failed_frac    {failed / attempted:.4f}       {failed} of {attempted} operations")
    print(f"  peak_rss_mb    {peak_rss_mb():.1f} MB")
    for p in passes:
        for problem in p.problems[:5]:
            print(f"  FAILED: {problem}")
    print(f"  digest         {first.digest}   (hash of every output of one pass)")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(name: str, seed: int, seconds: float, trace: int, scale=workloads.FULL,
            setup_repeats: int = SETUP_REPEATS):
    """Run one workload; returns its passes, its metrics as name -> (value, unit), and report lines."""
    wl = workloads.WORKLOADS[name]
    OUT.mkdir(exist_ok=True)
    setups = [] if trace else setup_seconds(name, seed, setup_repeats)
    with tempfile.TemporaryDirectory(dir=OUT) as work, tempfile.TemporaryDirectory(dir=OUT) as toy:
        inputs = wl.setup(seed, scale, Path(work))
        wl.run(wl.setup(seed, workloads.TOY, Path(toy)))  # warm-up: lazy imports, first calls
        if not trace:
            passes = run_passes(wl, inputs, seconds)
            metrics = {
                "wall_s": (workloads.pass_seconds(passes), "s"),
                "setup_s": (statistics.median(setups), "s"),
                "peak_rss_mb": (peak_rss_mb(), "MB"),
            }
            extra = [
                f"wall_s         {metrics['wall_s'][0]:.4f} s   mean library time of {len(passes)} "
                f"pass(es) {[round(p.seconds, 4) for p in passes]}",
                f"setup_s        {metrics['setup_s'][0]:.4f} s   median of {len(setups)} fresh-interpreter "
                f"set-ups {[round(s, 4) for s in setups]}",
            ]
            return passes, metrics, extra
        plain = wl.run(inputs)
        with tracing.Tracer() as tracer:
            traced = wl.run(inputs)
        layer = tracing.layer_metrics(tracer.spans, traced.cells)
        layer["models.spmm_floor_s"] = tracing.spmm_floor(wl.floor_plan(inputs) if wl.floor_plan else [],
                                                          np.random.default_rng(seed))
        fb = layer["models.model_forward.s"] + layer["models.model_backward.s"]
        layer["models.floor_share"] = layer["models.spmm_floor_s"] / fb if fb else 0.0
        layer["trace.overhead_s"] = traced.seconds - plain.seconds
    spans_file = OUT / f"trace-{name}-seed{seed}.jsonl"
    tracer.write(spans_file)
    metrics = {k: (v, tracing.UNITS[k]) for k, v in layer.items()}
    extra = [f"plain pass {plain.seconds:.4f} s, traced pass {traced.seconds:.4f} s"]
    extra += [f"{k:34s} {v:.6g} {u}" for k, (v, u) in sorted(metrics.items())]
    extra.append(f"spans written to {spans_file.relative_to(HERE.parent)} ({len(tracer.spans)} spans)")
    return [plain, traced], metrics, extra


def result(passes: list, metrics: dict) -> dict:
    """The last-line JSON object; every pass over the same inputs must agree."""
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    return {
        "correct": failed == 0 and len({p.digest for p in passes}) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    passes, metrics, extra = measure(args.workload, args.seed, args.seconds, args.trace)
    summarize(args.workload, args.seed, passes, extra)
    if len({p.digest for p in passes}) != 1:
        print("  FAILED: passes over the same inputs gave different outputs")
    print(json.dumps(result(passes, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
