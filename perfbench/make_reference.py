"""Write reference.json: the checked fields of every query at seed 0.

    python3 perfbench/make_reference.py

Run it from the root of a checkout at the commit whose outputs are the
reference.  A Monte Carlo query also records the exact value from the
brute-force oracle with the same arguments, which its estimate is
checked against.
"""

from __future__ import annotations

import json

import corpus
import exact
from worker import REFERENCE, import_program, issue


def main() -> None:
    cli, _ = import_program()
    reference = {}
    for workload in corpus.WORKLOADS:
        for q in corpus.queries(workload, 0):
            rc, stdout, stderr, _ = issue(cli, q.argv)
            if rc != 0:
                raise SystemExit(f"{q.id}: exit code {rc}\n{stderr}")
            entry = {"command": q.command,
                     "fields": exact.checked_fields(q.command, json.loads(stdout))}
            if "--samples" in q.argv:
                cut = q.argv.index("--samples")
                rc, stdout, stderr, _ = issue(cli, q.argv[:cut])
                if rc != 0:
                    raise SystemExit(f"{q.id} (exact): exit code {rc}\n{stderr}")
                entry["exact"] = json.loads(stdout)["value"]
            reference[q.id] = entry
            print(f"{workload}: {q.id}")
    with open(REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
