"""Run one workload over several seeds and report the run-to-run spread.

    python3 perfbench/spread.py --workload eval-long --seeds 1-10
    python3 perfbench/spread.py --workload gradcheck --seeds 1-10 --out perfbench/baseline.json

Each run is a fresh `run.py` process with `run_seconds` from BENCHMARK.json.
For every end-to-end metric it prints the median, the quartiles and the
spread (q3 - q1) / median beside the metric's bound. `--out` merges the raw
result lines into a JSON file keyed by workload and trace mode.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def quartile_spread(values: list) -> tuple:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    runs = []
    for seed in _seeds(args.seeds):
        cmd = list(bench["command"]) + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        runs.append({"seed": seed, "info": json.loads(lines[-2]), "result": result})
        values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {values if not args.trace else ''}", flush=True)

    if len(runs) >= 2:
        bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
        names = runs[0]["result"]["metrics"]
        for name in names:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            med, q1, q3, spread = quartile_spread(values)
            bound = bounds.get(name)
            note = f"bound {bound}" if bound is not None else ""
            print(f"{name:34s} median {med:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}  "
                  f"spread {spread:6.3f}  {note}")

    if args.out:
        out = Path(args.out)
        merged = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
        merged[f"{args.workload}/trace{args.trace}"] = runs
        out.write_text(json.dumps(merged, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
