"""One pass of a workload in a fresh process.

Run by run.py, not by hand.  The pass imports ``wml`` from the checkout's
``src``, builds the group tables and the seeded queries (the set-up),
then issues the queries one after another through ``wml.cli.run`` with
stdout captured, and checks every output against the reference.  It
prints one JSON line with the timings, the check results and, when
traced, the per-layer metrics.

Every time is also given in reference seconds: a fixed piece of work
(``calibrate``) runs next to each timed step, and the step's time is
scaled by ``REF_CAL_S`` over the calibration's time.  The host's speed
swings by half and more over seconds and minutes; the scaled time is what
the step would take at the speed at which the calibration takes
``REF_CAL_S``, so those swings cancel while a change in the program's own
work still shows in full.
"""

from __future__ import annotations

from time import perf_counter

START = perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

import corpus  # noqa: E402
import exact  # noqa: E402
import layers  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
CALIBRATION_STEPS = 12_000
REF_CAL_S = 0.010  # calibrate() takes 7-12 ms on a 2-vCPU Xeon VM


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def import_program():
    sys.path.insert(0, str(ROOT / "src"))
    import wml.cli
    from wml.characters import builtin_group

    return wml.cli, builtin_group


def calibrate() -> float:
    """Seconds a fixed piece of pure-Python work takes: dict updates with
    tuple keys, integer arithmetic, Fraction sums and a sort, the kinds of
    work the program does.  It uses nothing of the program."""
    t0 = perf_counter()
    table = {}
    x = 1
    acc = Fraction(0)
    for i in range(CALIBRATION_STEPS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = (x & 511, i & 7)
        table[key] = table.get(key, 0) + x
        if i % 16 == 0:
            acc += Fraction(x & 255, (i & 31) + 1)
    sorted(table.values())
    return perf_counter() - t0


def issue(cli, argv, rec=None):
    """(exit code, stdout, stderr, seconds) of one query."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            if rec is None:
                rc = cli.run(list(argv))
            else:
                rc = rec.call("cli.query", cli.run, (list(argv),), {}, None)
        except Exception:  # a crash is a failed query, not a failed benchmark
            traceback.print_exc()
            rc = -1
        seconds = perf_counter() - t0
    return rc, out.getvalue(), err.getvalue(), seconds


def run_queries(cli, queries, reference: dict, rec=None) -> list[dict]:
    """Issue the queries in order (traced when a recorder is given), with
    a calibration before each and after the last, then check each output;
    one row per query."""
    records = []
    calibrations = []
    with layers.traced(rec) if rec is not None else contextlib.nullcontext():
        for q in queries:
            calibrations.append(calibrate())
            if rec is not None:
                rec.query = q.id
            records.append((q, issue(cli, q.argv, rec)))
        calibrations.append(calibrate())
    rows = []
    for i, (q, (rc, stdout, stderr, seconds)) in enumerate(records):
        around = (calibrations[i] + calibrations[i + 1]) / 2
        if rc != 0:
            problem = f"exit code {rc}: {stderr.strip()[-300:]}"
        elif q.id not in reference:
            problem = "no reference output"
        else:
            problem = exact.check(q.command, stdout, reference[q.id])
        rows.append({
            "id": q.id,
            "command": q.command,
            "seconds": seconds,
            "ref_s": seconds * REF_CAL_S / around,
            "rc": rc,
            "problem": problem,
            "bytes": len(stdout.encode()),
            "digest": hashlib.sha256(stdout.encode()).hexdigest(),
        })
    return rows


def run_pass(workload: str, seed: int, trace: bool, spans_out: str | None,
             setup_only: bool) -> dict:
    cli, builtin_group = import_program()
    for name in corpus.groups(workload):
        builtin_group(name)
    queries = corpus.queries(workload, seed)
    reference = load_reference()
    setup_s = perf_counter() - START
    around = statistics.median(calibrate() for _ in range(3))
    result = {"setup_s": setup_s, "setup_ref_s": setup_s * REF_CAL_S / around}
    if setup_only:
        return result

    rec = layers.Recorder() if trace else None
    result["queries"] = run_queries(cli, queries, reference, rec)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if rec is not None:
        result["layers"] = layers.layer_metrics(rec)
        result["spans"] = len(rec.spans)
        result["spans_dropped"] = rec.dropped
        if spans_out:
            rec.write_spans(spans_out)
    return result


def main() -> None:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--spans-out", default=None)
    p.add_argument("--setup-only", action="store_true")
    a = p.parse_args()
    result = run_pass(a.workload, a.seed, bool(a.trace), a.spans_out, a.setup_only)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
