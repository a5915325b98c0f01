"""Tests of the benchmark's own parts: generator, checker, reference and
tracing.

    python3 -m pytest perfbench/tests -q

Takes about a minute; the program is imported from the checkout's src.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import corpus  # noqa: E402
import exact  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402

CLI, _ = worker.import_program()
REFERENCE = worker.load_reference()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def cli_json(argv) -> dict:
    rc, out, err, _ = worker.issue(CLI, argv)
    assert rc == 0, (argv, err)
    return json.loads(out)


def option(argv, name):
    return argv[argv.index(name) + 1] if name in argv else None


def cheap(q: corpus.Query) -> bool:
    """Queries of well under a second each, enough to reach every layer."""
    words = [a for a in q.id.split()[1:2] if not a.startswith("--")]
    if q.command == "orbits":
        return "subsets:7,3" in q.id
    if q.command == "oracle" and "--n-list" in q.id:
        return "aabb" in q.id
    return bool(words) and words[0] in corpus.SHORT_WORDS and "S3 --char std --n 3" not in q.id


# -- the seeded input generator ----------------------------------------------


def free_reduce(letters):
    out = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return out


@pytest.mark.parametrize("text", sorted({w for ws in corpus.WORKLOADS.values()
                                         for _, w, _ in ws if w}))
def test_parser_agrees_with_the_program(text):
    from wml.words import parse_word

    letters = corpus.parse(text)
    chars = sorted({c for c, _ in letters})
    signed = [(chars.index(c) + 1) * e for c, e in letters]
    assert tuple(free_reduce(signed)) == parse_word(text).letters


def test_seed_zero_is_the_corpus_and_seeds_are_deterministic():
    for name, spec in corpus.WORKLOADS.items():
        zero = corpus.queries(name, 0)
        assert [q.argv[1] for q in zero if q.command != "orbits"] == [
            w for _, w, _ in spec if w is not None]
        assert corpus.queries(name, 5) == corpus.queries(name, 5)
        one, two = corpus.queries(name, 1), corpus.queries(name, 2)
        assert [q.argv for q in one] != [q.argv for q in two]
        assert sorted(q.id for q in one) == sorted(q.id for q in zero)


def test_two_seeds_give_identical_checked_outputs():
    for name in corpus.WORKLOADS:
        outputs = {}
        for seed in (1, 2):
            for q in corpus.queries(name, seed):
                if not cheap(q):
                    continue
                out = cli_json(q.argv)
                assert exact.check(q.command, json.dumps(out), REFERENCE[q.id]) is None, q
                outputs.setdefault(q.id, []).append(exact.checked_fields(q.command, out))
        assert outputs
        for qid, (a, b) in outputs.items():
            if "--samples" not in qid:
                assert exact.same(a, b), qid


# -- the exact checker ----------------------------------------------------------


def test_checker_compares_values_not_text():
    third_root = {"conductor": 3, "coeffs": ["0", "1"]}
    same_root_lifted = {"conductor": 6, "coeffs": ["-1", "1"]}  # z6^2 = z6 - 1
    assert exact.same({"v": third_root}, {"v": same_root_lifted})
    assert not exact.same({"v": third_root}, {"v": {"conductor": 3, "coeffs": ["1", "0"]}})
    assert exact.same({"v": "1/2"}, {"v": {"conductor": 4, "coeffs": ["1/2", "0"]}})
    half_over_n = {"conductor": 1, "num": [["1/2"]], "den": [["0"], ["1"]]}
    scaled = {"conductor": 1, "num": [["1"]], "den": [["0"], ["2"]]}
    expanded = {"conductor": 1, "num": [["-1/2"], ["1/2"]], "den": [["0"], ["-1"], ["1"]]}
    assert exact.same({"f": half_over_n}, {"f": scaled})
    assert exact.same({"f": half_over_n}, {"f": expanded})
    assert not exact.same({"f": half_over_n}, {"f": {"conductor": 1, "num": [["1/2"]],
                                                     "den": [["1"], ["1"]]}})
    assert exact.same({"m": {"multiset": [[1, "2"], [3, "4"]]}},
                      {"m": {"multiset": [[3, "4"], [1, "2"]]}})
    assert not exact.same({"m": {"multiset": [[1, "2"], [1, "2"]]}},
                          {"m": {"multiset": [[1, "2"], [3, "4"]]}})


def test_checker_rejects_a_wrong_output():
    qid = "expect [a,b] --group S3 --char std --n 3"
    out = cli_json(qid.split())
    assert exact.check("expect", json.dumps(out), REFERENCE[qid]) is None
    out["value"] = "1/7"
    assert exact.check("expect", json.dumps(out), REFERENCE[qid]) is not None


# -- the reference: two independent routes agree -------------------------------


def oracle_character(argv) -> list[str]:
    """The finite group and character the brute-force oracle needs."""
    char = option(argv, "--char") or "trivial"
    if char == "circle:2":
        return ["--group", "C2", "--char", "chi1"]
    return ["--group", option(argv, "--group") or "C2", "--char", char]


def test_every_concrete_value_agrees_between_oracle_and_symbolic_routes():
    checked = 0
    for qid, entry in REFERENCE.items():
        argv = qid.split()
        command, word = argv[0], argv[1]
        if command not in ("expect", "expect-iterated", "oracle"):
            continue
        n, n_list = option(argv, "--n"), option(argv, "--n-list")
        if n is None and n_list is None:
            continue
        expected = entry.get("exact", entry["fields"].get("value"))
        degree = ["--n", n] if n is not None else ["--n-list", n_list]
        brute = cli_json(["oracle", word, *oracle_character(argv), *degree])["value"]
        char = [a for a in argv[2:] if a not in ("--symbolic", "--chi")]
        char = char[: char.index(degree[0])]
        if command == "oracle" and char[-1] == "trivial":
            char = []
        if n is not None:
            symbolic = cli_json(["expect", word, *char, *degree])["value"]
        else:
            symbolic = cli_json(["expect-iterated", word, *char, *degree])["value"]
        assert exact.same({"v": expected}, {"v": brute}), qid
        assert exact.same({"v": expected}, {"v": symbolic}), qid
        checked += 1
    assert checked >= 15


# -- tracing ---------------------------------------------------------------------


def test_wrappers_cover_every_import_site_and_are_restored():
    import wml.core_graphs
    import wml.mobius
    import wml.rational
    import wml.wreath_measures

    originals = (wml.core_graphs.morphism, wml.mobius.morphism,
                 wml.wreath_measures.L_value_at, wml.core_graphs.QuotientPoset.leq,
                 wml.rational.RationalFunctionN.__dict__["of"])
    with layers.traced(layers.Recorder()):
        assert wml.mobius.morphism is wml.core_graphs.morphism is not originals[0]
        assert wml.wreath_measures.L_value_at is wml.mobius.L_value_at is not originals[2]
    assert (wml.core_graphs.morphism, wml.mobius.morphism, wml.wreath_measures.L_value_at,
            wml.core_graphs.QuotientPoset.leq,
            wml.rational.RationalFunctionN.__dict__["of"]) == originals


def test_a_renamed_function_fails_loudly(monkeypatch):
    import wml.core_graphs

    original = wml.core_graphs.fold
    probes = dict(layers.PROBES)
    probes["zz.missing"] = ("wml.core_graphs", (("no_such_function", None),))
    monkeypatch.setattr(layers, "PROBES", probes)
    with pytest.raises(AttributeError):
        with layers.traced(layers.Recorder()):
            pass
    assert wml.core_graphs.fold is original


def test_traced_outputs_equal_untraced_and_every_layer_metric_moves():
    budget_probe = corpus.Query("budget probe", "oracle",
                                ("oracle", "[a,b]", *corpus.S3, "--n", "3", "--budget", "10"))
    nonzero = set()
    names = None
    for name in ("oracle", "invariants", "expect"):
        queries = [q for q in corpus.queries(name, 0) if cheap(q)]
        if name == "oracle":
            queries.append(budget_probe)
        rec = layers.Recorder()
        traced = worker.run_queries(CLI, queries, REFERENCE, rec)
        plain = worker.run_queries(CLI, queries, REFERENCE)
        assert [r["digest"] for r in traced] == [r["digest"] for r in plain]
        assert [r["problem"] for r in plain if r["id"] != "budget probe"] == [None] * len(
            [q for q in queries if q.id != "budget probe"])
        assert rec.spans and all(s[2] is not None for s in rec.spans)
        metrics = run.layer_summary(
            [{"queries": plain}], [{"queries": traced, "layers": layers.layer_metrics(rec)}])
        names = names or set(metrics)
        assert set(metrics) == names
        nonzero |= {k for k, v in metrics.items() if v}
    assert names == {m["name"] for m in SPEC["per_layer"]}
    assert nonzero == names


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
