import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from wml.cli import build_parser, parse_group_spec, run
from wml.budget import ValidationError


def run_json(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_unread_flags_are_usage_errors(capsys):
    for argv in (
        ["rank", "a", "--threads", "2"],
        ["rank", "a", "--seed", "1"],
        ["expect", "a", "--whitehead-rank-bound", "3"],
        ["expect-iterated", "a", "--whitehead-rank-bound", "3"],
        ["tree", "a", "--whitehead-rank-bound", "3"],
        ["oracle", "a", "--whitehead-rank-bound", "3"],
        ["orbits", "--action", "natural:3", "--whitehead-rank-bound", "3"],
        ["whitehead", "aa", "--budget", "5"],
    ):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_the_parser_is_built_once_per_process(capsys):
    build_parser.cache_clear()
    assert run(["whitehead", "ab"]) == 0
    assert run(["rank", "ab"]) == 0
    assert build_parser.cache_info().misses == 1
    capsys.readouterr()


def test_a_usage_error_exits_with_code_2_from_the_cached_parser(capsys):
    assert run(["whitehead", "ab"]) == 0
    with pytest.raises(SystemExit) as exc:
        run(["expect"])
    assert exc.value.code == 2
    assert run(["whitehead", "ab"]) == 0
    capsys.readouterr()


def test_rank_command(capsys):
    code, data = run_json(capsys, "rank", "[a,b]")
    assert code == 0
    assert data["pi"] == 2
    assert len(data["crit"]) == 1
    assert data["crit"][0]["rank"] == 2


def test_rank_identity_and_infinity(capsys):
    code, data = run_json(capsys, "rank", "a")
    assert code == 0 and data["pi"] == "inf"
    code, data = run_json(capsys, "rank", "aA")
    assert code == 0 and data["pi"] == 0


def test_expect_symbolic(capsys):
    code, data = run_json(capsys, "expect", "[a,b]", "--group", "S3", "--char", "std", "--symbolic")
    assert code == 0
    assert data["symbolic"] == {"conductor": 1, "num": [["1/2"]], "den": [["0"], ["1"]]}
    assert data["leading"] == {"exponent": -1, "coefficient": "1/2"}


def test_expect_at_n_matches_oracle(capsys):
    code, data = run_json(capsys, "expect", "[a,b]", "--group", "C2", "--char", "chi1", "--n", "3")
    assert code == 0
    code2, data2 = run_json(capsys, "oracle", "[a,b]", "--group", "C2", "--char", "chi1", "--n", "3")
    assert code2 == 0
    assert data["value"] == data2["value"] == "1/3"


def test_expect_at_n_reports_chi(capsys):
    code, data = run_json(capsys, "expect", "aabb", "--n", "3", "--chi")
    assert code == 0
    assert data == {"word": "a^2 b^2", "phi": "trivial", "n": 3, "value": "3/2", "chi_value": "1/2"}
    code, data = run_json(capsys, "expect", "aabb", "--n", "3")
    assert code == 0 and "chi_value" not in data
    # chi subtracts the constant 1 only for the trivial character
    code, data = run_json(capsys, "expect", "aabb", "--group", "C2", "--char", "chi1",
                          "--n", "3", "--chi")
    assert code == 0 and data["chi_value"] == data["value"]


def _forbid_the_poset(monkeypatch, command):
    import wml.wreath_measures

    def unbuilt(w):
        raise AssertionError(f"{command} built the quotient poset")

    monkeypatch.setattr(wml.wreath_measures, "enumerate_quotients", unbuilt)


def test_expect_leaves_the_poset_unbuilt(capsys, monkeypatch):
    _forbid_the_poset(monkeypatch, "one-level expect")
    code, data = run_json(capsys, "expect", "[a,b][a,c]", "--group", "S3", "--char", "std",
                          "--symbolic", "--n", "2", "--chi")
    assert code == 0 and "value" in data and "chi_symbolic" in data


def test_rank_leaves_the_poset_unbuilt(capsys, monkeypatch):
    _forbid_the_poset(monkeypatch, "rank")
    code, data = run_json(capsys, "rank", "[a,b][a,c]")
    assert code == 0 and data["pi"] == 3 and data["partial"] is True


def test_witnesses_leaves_the_poset_unbuilt(capsys, monkeypatch):
    _forbid_the_poset(monkeypatch, "witnesses")
    code, data = run_json(capsys, "witnesses", "[a,b][a,c]", "--group", "S3", "--char", "std")
    assert code == 0 and data["pi"] == 3 and data["witnesses"]


def test_one_level_expect_fits_one_gibibyte():
    # 221,008 quotients: the stored poset took about 2 GB, the stream does not store it
    src = Path(__file__).resolve().parents[1] / "src"
    child = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from wml.cli import run\n"
        "sys.exit(run(sys.argv[1:]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", child, "expect", "[[a,b],[a,c]]", "--symbolic"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    symbolic = json.loads(proc.stdout)["symbolic"]
    assert [int(c) for c, in symbolic["num"]] == [32, 48, -295, 120, 117, -123, 51, -11, 1]
    assert [int(c) for c, in symbolic["den"]] == [0, 0, 36, -132, 193, -144, 58, -12, 1]


def test_expect_circle(capsys):
    code, data = run_json(capsys, "expect", "aa", "--char", "circle:2", "--symbolic")
    assert code == 0
    assert data["symbolic"]["num"] == [["1"]]


def test_expect_iterated(capsys):
    code, data = run_json(
        capsys, "expect-iterated", "[a,b]", "--group", "C2", "--char", "chi1", "--n-list", "2,2"
    )
    assert code == 0
    assert data["value"] == "1/4"
    assert data["levels"] == 2 and data["chains"]


def test_tree_command(capsys):
    code, data = run_json(capsys, "tree", "[a,b]", "--levels", "2")
    assert code == 0
    assert data["dimension_identity"] is True
    assert data["difference_leading"]["exponent"] == -2


def test_oracle_monte_carlo_seeded(capsys):
    code, a = run_json(
        capsys, "oracle", "[a,b]", "--group", "C2", "--char", "chi1", "--n", "2",
        "--samples", "500", "--seed", "11",
    )
    code2, b = run_json(
        capsys, "oracle", "[a,b]", "--group", "C2", "--char", "chi1", "--n", "2",
        "--samples", "500", "--seed", "11",
    )
    assert code == code2 == 0
    assert a["monte_carlo"] == b["monte_carlo"]


def test_orbits_command(capsys):
    code, data = run_json(capsys, "orbits", "--action", "subsets:4,2", "--t", "2", "--injective")
    assert code == 0
    assert data["orbits"] == 3 and data["injective_orbits"] == 2
    code, data = run_json(capsys, "orbits", "--action", "natural:3", "--t", "2")
    assert data["orbits"] == 2


def test_whitehead_command(capsys):
    code, data = run_json(capsys, "whitehead", "abAB")
    assert code == 0
    assert data["min_length"] == 4
    assert data["is_primitive"] is False


def test_validation_exit_code(capsys):
    assert run(["rank", "a^"]) == 2
    assert run(["expect", "a", "--group", "NOPE", "--char", "std"]) == 2
    capsys.readouterr()


ORACLE_S3 = ("oracle", "[a,b]", "--group", "S3", "--char", "std")


@pytest.mark.parametrize("argv, message", [
    # a zero is an explicit value, not a missing one
    (("tree", "[a,b]", "--levels", "0"), "at least one wreath level"),
    ((*ORACLE_S3, "--n", "0"), "wreath degree must be >= 1, got 0"),
    ((*ORACLE_S3, "--samples", "0"), "at least one sample, got 0"),
    # the oracle checks its own inputs
    ((*ORACLE_S3, "--n", "-1"), "wreath degree must be >= 1, got -1"),
    ((*ORACLE_S3, "--n-list", "2,-1"), "wreath degree must be >= 1, got -1"),
    ((*ORACLE_S3, "--n-list", "2,0"), "wreath degree must be >= 1, got 0"),
    ((*ORACLE_S3, "--samples", "-5"), "at least one sample, got -5"),
], ids=["tree-levels-0", "oracle-n-0", "oracle-samples-0", "oracle-n-negative",
        "oracle-n-list-negative", "oracle-n-list-0", "oracle-samples-negative"])
def test_out_of_range_counts_are_validation_errors(capsys, argv, message):
    assert run(list(argv)) == 2
    out, err = capsys.readouterr()
    assert out == "" and message in err


def test_budget_exit_code(capsys):
    assert run(["oracle", "[a,b]", "--group", "S3", "--char", "std", "--n", "4"]) == 3
    capsys.readouterr()


def test_env_budget_override(capsys, monkeypatch):
    monkeypatch.setenv("WML_BUDGET", "10")
    assert run(["oracle", "[a,b]", "--group", "C2", "--char", "chi1", "--n", "2"]) == 3
    monkeypatch.delenv("WML_BUDGET")
    assert run(["oracle", "[a,b]", "--group", "C2", "--char", "chi1", "--n", "2"]) == 0
    capsys.readouterr()


def test_group_spec_builtin_and_json(tmp_path):
    g, chars = parse_group_spec("S4")
    assert g.order == 24 and len(chars) == 5
    # JSON group round trip (Klein group with characters)
    data = {
        "name": "klein",
        "mult": [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]],
        "characters": [
            {"name": "triv", "conductor": 1, "values": [["1"], ["1"], ["1"], ["1"]]},
            {"name": "x", "conductor": 1, "values": [["1"], ["-1"], ["1"], ["-1"]]},
        ],
    }
    path = tmp_path / "klein.json"
    path.write_text(json.dumps(data))
    g2, chars2 = parse_group_spec(str(path))
    assert g2.order == 4
    assert [c.name for c in chars2] == ["triv", "x"]
    assert all(c.is_irreducible for c in chars2)


def test_group_spec_malformed_table(tmp_path):
    bad = {"mult": [[0, 1], [1]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    with pytest.raises(ValidationError) as exc:
        parse_group_spec(str(path))
    assert "row" in str(exc.value)


def test_round_trip_witnesses_json(capsys):
    code, data = run_json(capsys, "witnesses", "aabb", "--group", "Q8", "--char", "dim2")
    assert code == 0
    assert data["pi"] == 2
    # crit graphs re-parse under the documented schema
    for entry in data["crit"]:
        g = entry["graph"]
        assert set(g) == {"vertices", "root", "rank", "edges"}
        for e in g["edges"]:
            assert set(e) == {"src", "dst", "label"}


def test_table_format(capsys):
    code = run(["rank", "aa", "--format", "table"])
    out = capsys.readouterr().out
    assert code == 0
    assert "pi: 1" in out


def test_witnesses_circle_character(capsys):
    code, data = run_json(capsys, "witnesses", "aabb", "--char", "circle:2")
    assert code == 0
    assert data["pi"] == 2 and data["phi"] == "circle(2)"


def test_rank_regression_conjugate_letter_word(capsys):
    code, data = run_json(capsys, "rank", "abab^-1")
    assert code == 0 and data["pi"] == 2


def test_malformed_circle_modulus(capsys):
    assert run(["expect", "aa", "--char", "circle:x"]) == 2
    assert run(["expect", "aa", "--char", "circle:1"]) == 2
    capsys.readouterr()


def test_group_spec_from_permutation_generators(tmp_path):
    data = {"name": "S3perm", "perm_generators": [[1, 0, 2], [1, 2, 0]]}
    path = tmp_path / "s3.json"
    path.write_text(json.dumps(data))
    g, chars = parse_group_spec(str(path))
    assert g.order == 6 and chars == ()
