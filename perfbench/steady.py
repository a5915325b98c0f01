"""Steadiness check: run the benchmark once per seed and summarise.

    python3 perfbench/steady.py --workloads expect invariants oracle \
        --seeds 1 2 3 4 5 6 7 8 9 10 --out perfbench/results/set1.json

For each workload and end-to-end metric it reports the median and the
quartiles of the per-run values (statistics.quantiles, n=4) and their
spread, the quartile distance as a share of the median.  With one seed it
runs every workload once and prints every metric with its unit.  Run it
from the root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", nargs="+", required=True)
    p.add_argument("--seeds", nargs="+", type=int, required=True)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--out", required=True)
    a = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    report = {"run_seconds": spec["run_seconds"], "seeds": a.seeds, "trace": a.trace,
              "workloads": {}}
    for workload in a.workloads:
        runs = []
        for seed in a.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", str(a.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=200)
            if proc.returncode != 0:
                raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append(result)
            print(workload, seed, json.dumps(result), flush=True)
        metrics = {}
        for name in runs[0]["metrics"]:
            metrics[name] = summarise([r["metrics"][name]["value"] for r in runs])
            if a.trace == 0:
                metrics[name]["bound"] = bounds[name]
        report["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": metrics,
        }
    Path(a.out).parent.mkdir(parents=True, exist_ok=True)
    Path(a.out).write_text(json.dumps(report, indent=1) + "\n")
    for workload, w in report["workloads"].items():
        for name, m in w["metrics"].items():
            spread = "n/a" if m["spread"] is None else f"{m['spread']:.3f}"
            print(f"{workload:11s} {name:34s} median {m['median']:.6g} "
                  f"q1 {m['q1']:.6g} q3 {m['q3']:.6g} spread {spread}")


if __name__ == "__main__":
    main()
