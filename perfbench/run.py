"""wml benchmark: one run of one workload.

    python3 perfbench/run.py --workload expect --seed 0 --seconds 30 --trace 0

Run from the root of a checkout.  A run is a closed loop with one client:
passes over the workload's queries are issued one after another, each
pass in a fresh process (worker.py), so the program's memos start empty
in every pass and persist across the queries of that pass.  Another pass
starts only when it would end within ``--seconds`` of the first one
(judged by the longest pass so far), so a run's length does not depend
on the machine's speed; at least one pass always runs.

Times are in reference seconds (see worker.py): each query's time and
each set-up is scaled by the speed of the host, measured by a fixed
calibration loop run next to it.  On a shared host the speed of such a
loop swings by half and more, over seconds and over minutes, so the raw
times of two runs of the same code can differ by that much; the scaled
times differ by a few per cent.  The raw times are printed as comments.

--trace 0 reports the end-to-end metrics.  ``wall_s`` is the time of one
pass over the queries, each query counted at its median over the run's
passes.  ``setup_s`` is the median of several set-ups and ``peak_rss_mb``
the median over passes.  --trace 1 alternates untraced and traced passes
and reports the per-layer metrics of the traced ones (medians), the
per-command times of the untraced ones and the tracing overhead; span
times in the per-layer metrics are raw seconds.  Every
output is checked exactly against reference.json; the last line of stdout
is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("expect", "invariants", "oracle")
SETUP_PROBES = 9
DEADLINE_S = 170  # a run must end within 180 s
COMMAND_METRICS = {
    "expect": "cmd.expect_s",
    "expect-iterated": "cmd.iterated_s",
    "tree": "cmd.tree_s",
    "rank": "cmd.witness_s",
    "witnesses": "cmd.witness_s",
    "whitehead": "cmd.whitehead_s",
    "oracle": "cmd.oracle_s",
    "orbits": "cmd.orbits_s",
}


class BenchError(Exception):
    pass


class Runner:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.start = perf_counter()

    def worker(self, *extra: str) -> dict:
        remaining = DEADLINE_S - (perf_counter() - self.start)
        if remaining <= 0:
            raise BenchError("out of time before the pass could start")
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), *extra]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"pass did not end within {DEADLINE_S} s of the run's start")
        if proc.returncode != 0:
            raise BenchError(f"worker failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


class Loop:
    """Paces the passes of a run: another round starts only if a round as
    long as the longest so far would end within the run's seconds."""

    def __init__(self, seconds: int):
        self.seconds = seconds
        self.start = self.mark = perf_counter()
        self.longest = 0.0
        self.rounds = 0

    def another(self) -> bool:
        now = perf_counter()
        if self.rounds:
            self.longest = max(self.longest, now - self.mark)
        self.mark = now
        self.rounds += 1
        return self.rounds == 1 or now - self.start + self.longest <= self.seconds


def wall(p: dict, key: str = "seconds") -> float:
    return sum(q[key] for q in p["queries"])


def typical(passes: list[dict]) -> dict:
    """Each query's median time in reference seconds over the passes, by
    query id."""
    times = {}
    for p in passes:
        for q in p["queries"]:
            times.setdefault(q["id"], []).append(q["ref_s"])
    return {qid: statistics.median(ts) for qid, ts in times.items()}


def failures(passes: list[dict]) -> list[str]:
    """Failed queries; a query whose output differs between passes fails."""
    first = {}
    problems = []
    for p in passes:
        for q in p["queries"]:
            first.setdefault(q["id"], q["digest"])
            if q["problem"]:
                problems.append(f"{q['id']}: {q['problem']}")
            elif q["digest"] != first[q["id"]]:
                problems.append(f"{q['id']}: output differs between passes")
    return problems


def end_to_end(r: Runner, seconds: int) -> tuple[list[dict], dict]:
    r.worker("--setup-only")  # warm-up: byte-compilation is not set-up a user pays each time
    setups = [r.worker("--setup-only") for _ in range(SETUP_PROBES)]
    passes = []
    loop = Loop(seconds)
    while loop.another():
        passes.append(r.worker())
    setups += passes
    metrics = {
        "wall_s": sum(typical(passes).values()),
        "setup_s": statistics.median(s["setup_ref_s"] for s in setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    print(f"# {len(passes)} passes of {len(passes[0]['queries'])} queries, {len(setups)} set-ups")
    print("# raw pass wall times: " + ", ".join(f"{wall(p):.3f} s" for p in passes))
    print("# pass wall times in reference seconds: "
          + ", ".join(f"{wall(p, 'ref_s'):.3f} s" for p in passes))
    print(f"# raw median set-up: {statistics.median(s['setup_s'] for s in setups):.4f} s")
    for name, value in sorted(command_seconds(passes).items()):
        print(f"# {name} = {value:.4f} s")
    return passes, metrics


def command_seconds(passes: list[dict]) -> dict:
    """Per-command sums of the queries' typical times."""
    commands = {q["id"]: q["command"] for q in passes[0]["queries"]}
    sums = dict.fromkeys(sorted(set(COMMAND_METRICS.values())), 0.0)
    for qid, seconds in typical(passes).items():
        sums[COMMAND_METRICS[commands[qid]]] += seconds
    return sums


def layer_summary(plain: list[dict], traced: list[dict]) -> dict:
    """Per-layer metrics: medians over the traced passes, per-command
    times of the untraced passes, and the tracing overhead."""
    metrics = {
        name: statistics.median(p["layers"][name] for p in traced)
        for name in traced[0]["layers"]
    }
    metrics.update(command_seconds(plain))
    metrics["cli.queries"] = len(traced[0]["queries"])
    metrics["cli.bytes_out"] = statistics.median(
        sum(q["bytes"] for q in p["queries"]) for p in traced)
    metrics["budget.errors"] = statistics.median(
        sum(q["rc"] == 3 for q in p["queries"]) for p in traced)
    metrics["trace.overhead_frac"] = (
        sum(typical(traced).values()) / sum(typical(plain).values()) - 1)
    return metrics


def per_layer(r: Runner, seconds: int) -> tuple[list[dict], dict]:
    OUT_DIR.mkdir(exist_ok=True)
    plain, traced = [], []
    loop = Loop(seconds)
    while loop.another():
        plain.append(r.worker())
        spans = OUT_DIR / f"spans-{r.workload}-seed{r.seed}-pass{len(traced)}.jsonl"
        traced.append(r.worker("--trace", "1", "--spans-out", str(spans)))
    metrics = layer_summary(plain, traced)
    print(f"# {len(plain)} untraced and {len(traced)} traced passes; {traced[0]['spans']} "
          f"spans kept and {traced[0]['spans_dropped']} dropped per traced pass, "
          f"written to {OUT_DIR.name}/")
    return plain + traced, metrics


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()
    try:
        if not (ROOT / "src" / "wml" / "cli.py").is_file():
            raise BenchError(f"no program to measure: {ROOT / 'src' / 'wml'} is missing")
        with open(ROOT / "BENCHMARK.json") as fh:
            spec = json.load(fh)
        r = Runner(a.workload, a.seed)
        if a.trace:
            passes, values = per_layer(r, a.seconds)
            wanted = spec["per_layer"]
        else:
            passes, values = end_to_end(r, a.seconds)
            wanted = spec["end_to_end"]
    except (BenchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    problems = failures(passes)
    for line in problems[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    attempted = sum(len(p["queries"]) for p in passes)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(f"# failed_frac = {len(problems) / attempted:.6g} ({len(problems)} of {attempted})")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
