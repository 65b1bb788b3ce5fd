"""Benchmark entry point: one workload, one closed-loop client, one result line.

    python3 perfbench/run.py --workload train-short --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory. The last line of stdout is the result object
`{"correct", "attempted", "failed", "metrics"}`; the line before it holds
the workload-specific figures and the machine description. With
`--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
per-layer ones (see README.md in this directory).
"""

import os

# pinned before numpy loads: the system is bound by Python dispatch, and a
# second BLAS thread only adds noise on a two-core machine
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
IMPORT_REPEATS = 5


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("train-short", "eval-long", "gradcheck"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def pin_cpu():
    """Keep the run and its children on one CPU, the last one allowed.

    On a shared host the vCPUs can run at different speeds for minutes at a
    time (15% apart on a two-vCPU KVM guest); a run free to land on either
    reads bimodal, while runs pinned to one CPU agree to a few percent.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def import_seconds() -> float:
    """Median wall time of a fresh interpreter importing the package."""
    times = []
    for _ in range(IMPORT_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import vcrnet, vcrnet.diagnostics, vcrnet.cli"],
            env=_child_env(), cwd=ROOT, check=True, timeout=120,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def prepare_seconds(workload) -> float:
    """Median of repeated in-process set-ups; the last one stays in use."""
    times = []
    for _ in range(workload.setup_repeats):
        t0 = time.perf_counter()
        workload.prepare()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_rounds(workload, seconds: float) -> list:
    """Closed loop: whole rounds until `seconds` have passed, at least one."""
    samples = []
    start = time.perf_counter()
    while True:
        samples.extend(workload.round())
        if time.perf_counter() - start >= seconds:
            return samples


def percentile(values: list, q: float) -> float:
    """Linear-interpolated percentile; q in [0, 100]."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[int(q) - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment(pinned_cpu) -> dict:
    import numpy as np

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "pinned_cpu": pinned_cpu,
        "cpu": cpu,
    }


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload, samples: list, setup_s: float) -> tuple:
    """The contract metrics plus the workload-specific figures behind them."""
    done = [s for s in samples if s.ok]
    busy_ms = sum(s.ms for s in done)
    items_per_s = 1000.0 * sum(s.items for s in done) / busy_ms if busy_ms else 0.0
    lat = sorted(s.ms for s in done if s.latency)
    p50 = percentile(lat, 50) if lat else 0.0
    rss = peak_rss_mb()
    metrics = {
        "setup_s": _metric(setup_s, "s"),
        "peak_rss_mb": _metric(rss, "MB"),
        "items_per_s": _metric(items_per_s, "1/s"),
        "call_ms.p50": _metric(p50, "ms"),
    }
    failed = sum(not s.ok for s in samples)
    detail = {"setup_s": setup_s, "peak_rss_mb": rss,
              "failed_share": failed / len(samples), "latency_samples": len(lat)}
    if workload.name == "train-short":
        detail["train.instances_per_s"] = items_per_s
        detail["train.epoch_s.p50"] = p50 / 1000.0
    elif workload.name == "eval-long":
        detail["eval.tasks_per_s"] = items_per_s
        detail["eval.task_ms.p50"] = p50
        detail["eval.task_ms.p90"] = percentile(lat, 90) if lat else 0.0
    else:
        detail["gradcheck_s"] = p50 / 1000.0
    return metrics, detail


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "vcrnet" / "__init__.py").is_file():
        print(f"error: no vcrnet package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    cpu = pin_cpu()

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        if args.trace:
            import traced

            metrics, samples, detail = traced.run(
                workloads.WORKLOADS[args.workload], args.seed, workdir
            )
        else:
            imp_s = import_seconds()
            workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
            setup_s = imp_s + prepare_seconds(workload)
            workload.warm_up()
            samples = run_rounds(workload, args.seconds)
            metrics, detail = end_to_end(workload, samples, setup_s)
            detail["import_s"] = imp_s
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [s for s in samples if not s.ok]
    for s in failed[:5]:
        print(f"failed call: {s.errors}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "env": environment(cpu), "detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": metrics,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
