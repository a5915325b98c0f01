import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings

import wml.words as words
from wml.cli import build_parser, cmd_whitehead, parse_group_spec, run
from wml.budget import DEFAULT_WHITEHEAD_RANK_BOUND, ValidationError
from word_strategies import cyclic_words


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


def test_expect_identity_word_is_n_dim_phi(capsys):
    code, data = run_json(capsys, "expect", "aA", "--symbolic", "--chi", "--n", "3")
    assert code == 0
    assert data["symbolic"] == {"conductor": 1, "num": [["0"], ["1"]], "den": [["1"]]}
    assert data["leading"] == {"exponent": 1, "coefficient": "1"}
    assert data["chi_symbolic"] == {"conductor": 1, "num": [["-1"], ["1"]], "den": [["1"]]}
    assert (data["value"], data["chi_value"]) == ("3", "2")
    code, data = run_json(capsys, "expect", "[a,a]", "--group", "S3", "--char", "std", "--n", "4")
    assert code == 0 and data["value"] == "8"
    code, data = run_json(capsys, "oracle", "[a,a]", "--group", "S3", "--char", "std", "--n", "4")
    assert code == 0 and data["value"] == "8"


def test_a_rational_symbolic_answer_prints_at_conductor_one(capsys):
    code, data = run_json(capsys, "expect", "aA", "--group", "C3", "--char", "chi1", "--symbolic")
    assert code == 0
    assert data["symbolic"] == {"conductor": 1, "num": [["0"], ["1"]], "den": [["1"]]}


def test_whitehead_rank_bound_defaults_to_the_library_default():
    args = build_parser().parse_args(["rank", "a"])
    assert args.whitehead_rank_bound == DEFAULT_WHITEHEAD_RANK_BOUND


@pytest.mark.parametrize("command", [("expect-iterated", "--levels", "2"), ("tree",)])
def test_chains_of_the_identity_word_are_validation_errors(capsys, command):
    assert run([command[0], "aA", *command[1:]]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "w reduces to the identity" in err


def test_symbolic_chi_reduces_the_level_sum_once(capsys, monkeypatch):
    # the chi function is subtracted from the reduced sum expect already holds
    from wml.rational import PoleRational

    calls = []
    reduced = PoleRational.reduced

    def counted(self):
        calls.append(self)
        return reduced(self)

    monkeypatch.setattr(PoleRational, "reduced", counted)
    code, data = run_json(capsys, "expect", "aabb", "--symbolic", "--chi")
    assert code == 0 and "chi_symbolic" in data and data["chi_symbolic"] != data["symbolic"]
    assert len(calls) == 1


def _forbid_the_poset(monkeypatch, command):
    import wml.wreath_measures

    def unbuilt(*args, **kwargs):
        raise AssertionError(f"{command} built the quotient poset")

    monkeypatch.setattr(wml.wreath_measures, "enumerate_quotients", unbuilt)


def test_expect_leaves_the_poset_unbuilt(capsys, monkeypatch):
    _forbid_the_poset(monkeypatch, "one-level expect")
    code, data = run_json(capsys, "expect", "[a,b][a,c]", "--group", "S3", "--char", "std",
                          "--symbolic", "--n", "2", "--chi")
    assert code == 0 and "value" in data and "chi_symbolic" in data


@pytest.mark.parametrize("degrees", [("--levels", "3"), ("--n-list", "2,3")],
                         ids=["levels", "n-list"])
def test_tree_leaves_the_poset_unbuilt(capsys, monkeypatch, degrees):
    _forbid_the_poset(monkeypatch, "tree")
    code, data = run_json(capsys, "tree", "[a,b][a,c]", *degrees)
    assert code == 0 and data["difference_leading"]["exponent"] == -4  # 2 (1 - pi), pi = 3


def test_rank_leaves_the_poset_unbuilt(capsys, monkeypatch):
    _forbid_the_poset(monkeypatch, "rank")
    code, data = run_json(capsys, "rank", "[a,b][a,c]")
    assert code == 0 and data["pi"] == 3 and data["partial"] is True


def test_witnesses_leaves_the_poset_unbuilt(capsys, monkeypatch):
    _forbid_the_poset(monkeypatch, "witnesses")
    code, data = run_json(capsys, "witnesses", "[a,b][a,c]", "--group", "S3", "--char", "std")
    assert code == 0 and data["pi"] == 3 and data["witnesses"]


def test_witnesses_reach_the_double_commutator(capsys):
    # 221,008 quotients rewrite w to 1,030 distinct first-crossing words;
    # pi, the critical value and the witness count are those the BFS-basis
    # rewriting gave
    code, data = run_json(capsys, "witnesses", "[[a,b],[a,c]]", "--group", "S3", "--char", "std")
    assert code == 0
    assert data["pi"] == 2 and data["crit_value"] == {"conductor": 1, "coeffs": ["1/2"]}
    assert len(data["witnesses"]) == 56


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


@pytest.mark.parametrize("command", ["tree", "expect-iterated"])
def test_levels_must_match_the_n_list(capsys, command):
    assert run([command, "aabb", "--n-list", "2,3", "--levels", "5"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "--levels 5 disagrees with the 2 degrees of --n-list" in err
    code, data = run_json(capsys, command, "aabb", "--n-list", "2,3", "--levels", "2")
    assert code == 0 and data["levels"] == 2 and data["degrees"] == [2, 3]


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
    code, data = run_json(capsys, "orbits", "--action", "natural:3", "--t", "0", "--injective")
    assert code == 0
    assert data["orbits"] == data["injective_orbits"] == 1  # the one empty tuple


def test_whitehead_command(capsys):
    code, data = run_json(capsys, "whitehead", "abAB")
    assert code == 0
    assert data["min_length"] == 4
    assert data["is_primitive"] is False


def test_validation_exit_code(capsys):
    assert run(["rank", "a^"]) == 2
    assert run(["expect", "a", "--group", "NOPE", "--char", "std"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ("expect", "ab", "--group", "S3", "--char", "all", "--n", "3"),
    ("witnesses", "ab", "--group", "S3", "--char", "all"),
    ("oracle", "ab", "--group", "S3", "--char", "all", "--n", "3"),
], ids=["expect", "witnesses", "oracle"])
def test_char_all_names_no_character(capsys, argv):
    # every command reads one character, so 'all' is no shorthand for the first
    assert run(list(argv)) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "unknown character 'all'; available: ['trivial', 'sign', 'std']" in err


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
    (("orbits", "--action", "natural:3", "--t", "-1"), "tuple length must be >= 0, got -1"),
    # an action needs at least one point
    (("orbits", "--action", "natural:0", "--t", "1"), "at least one point, got degree 0"),
    (("orbits", "--action", "glvec:-1", "--t", "1"), "GL_n(F_2) needs n >= 1, got -1"),
    (("orbits", "--action", "glvec:0", "--t", "1"), "GL_n(F_2) needs n >= 1, got 0"),
    (("orbits", "--action", "subsets:3,5", "--t", "1"), "at least one point, got degree 0"),
    # one parser reads --n-list for every command
    (("expect-iterated", "aa", "--n-list", "2,x"), "malformed --n-list '2,x'"),
    (("tree", "[a,b]", "--n-list", "2,,3"), "malformed --n-list '2,,3'"),
    ((*ORACLE_S3, "--n-list", "2,x"), "malformed --n-list '2,x'"),
    (("tree", "[a,b]", "--n-list", ""), "malformed --n-list ''"),
], ids=["tree-levels-0", "oracle-n-0", "oracle-samples-0", "oracle-n-negative",
        "oracle-n-list-negative", "oracle-n-list-0", "oracle-samples-negative",
        "orbits-t-negative", "orbits-natural-0", "orbits-glvec-negative", "orbits-glvec-0", "orbits-subsets-empty",
        "expect-iterated-n-list-letter", "tree-n-list-empty-item",
        "oracle-n-list-letter", "tree-n-list-empty"])
def test_out_of_range_counts_are_validation_errors(capsys, argv, message):
    assert run(list(argv)) == 2
    out, err = capsys.readouterr()
    assert out == "" and message in err


def test_one_sample_prints_json_with_no_stderr(capsys):
    assert run([*ORACLE_S3, "--samples", "1"]) == 0
    out, _ = capsys.readouterr()

    def not_json(constant):
        raise AssertionError(f"{constant} is not JSON")

    data = json.loads(out, parse_constant=not_json)
    assert data["monte_carlo"]["samples"] == 1
    assert data["monte_carlo"]["stderr"] is None


def test_budget_exit_code(capsys):
    # 51 classes of S3 wr S4 times 31,104^2 tuples for the other letters
    assert run(["oracle", "[a,b]c", "--group", "S3", "--char", "std", "--n", "4"]) == 3
    capsys.readouterr()


def test_the_oracle_reaches_s3_wr_s4(capsys):
    # 51 x 31,104 tuples, within the default budget; every tuple would be 967 million
    spec = ["--group", "S3", "--char", "std", "--n", "4"]
    code, oracle = run_json(capsys, "oracle", "[a,b]", *spec)
    _, data = run_json(capsys, "expect", "[a,b]", *spec)
    assert code == 0 and oracle["wreath_order"] == 31104
    assert oracle["value"] == data["value"] == "1/8"


@pytest.mark.parametrize("argv", [
    ["expect", "[a,b][a,c]", "--symbolic"],
    ["tree", "[a,b][a,c]"],
    ["rank", "[a,b][a,c]"],
    ["witnesses", "[a,b][a,c]"],
    ["expect-iterated", "[a,b][a,c]", "--levels", "2"],
], ids=["expect", "tree", "rank", "witnesses", "expect-iterated"])
def test_budget_reaches_the_quotient_enumeration(capsys, argv):
    assert run([*argv, "--budget", "50"]) == 3
    assert "quotient enumeration" in capsys.readouterr().err


def test_symbolic_commands_never_import_numpy():
    # numpy serves the oracle only; the symbolic side counts words in pure Python
    src = Path(__file__).resolve().parents[1] / "src"
    child = (
        "import contextlib, io, json, sys\n"
        "import wml, wml.cli\n"
        "queries = []\n"
        "for group, char in (('S3', 'std'), ('Q8', 'dim2')):\n"
        "    spec = ['--group', group, '--char', char]\n"
        "    queries += [['expect', 'aabb', '--symbolic', *spec],\n"
        "                ['expect-iterated', 'aabb', '--levels', '2', *spec],\n"
        "                ['witnesses', 'aabb', *spec]]\n"
        "queries.append(['tree', 'aabb', '--levels', '2'])\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [wml.cli.run(q) for q in queries]\n"
        "    before = 'numpy' in sys.modules\n"
        "    codes.append(wml.cli.run(['oracle', 'aabb', '--group', 'S3', '--char', 'std']))\n"
        "print(json.dumps([codes, before, 'numpy' in sys.modules]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", child], env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[0] * 8, False, True]


def test_surface_word_on_s5_answers(capsys):
    # 120^4 tuples: beyond a tuple count's budget, not the elimination's
    code, data = run_json(capsys, "expect", "[a,b][c,d]", "--group", "S5", "--char", "std",
                          "--symbolic")
    assert code == 0
    assert data["symbolic"]["num"] == [["1/64"]]
    assert data["symbolic"]["den"] == [["0"], ["0"], ["0"], ["1"]]
    # the S4 analogue at n = 1 against the oracle's 24^4 tuples
    spec = ["--group", "S4", "--char", "std", "--n", "1"]
    code, data = run_json(capsys, "expect", "[a,b][c,d]", *spec)
    _, oracle = run_json(capsys, "oracle", "[a,b][c,d]", *spec)
    assert code == 0 and data["value"] == oracle["value"] == "1/27"


def test_word_expansion_past_the_budget_exits_3(capsys):
    assert run(["whitehead", "a^1000000000"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("budget exceeded:")


def test_the_budget_option_reaches_the_word_parser(capsys):
    # without --budget reaching the parser, a^2000 passed it and stopped
    # at the word-length bound (exit 2)
    assert run(["expect", "a^2000", "--symbolic", "--budget", "100"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("budget exceeded: expanded power length")


def test_the_budget_option_reaches_the_whitehead_searches(capsys, monkeypatch):
    # rank's witness report hands --budget to the free-factor search.  Its
    # class walk settles aBab^-3 in 6 rewrites, fewer than the stream
    # charges before it, so the search's budget is read rather than run out
    budgets = []
    walk = words._class_walk
    monkeypatch.setattr(words, "_class_walk",
                        lambda rank, key, budget: budgets.append(budget) or walk(rank, key, budget))
    assert run(["rank", "aBab^-3", "--budget", "100"]) == 0
    assert budgets and set(budgets) == {100}
    assert run(["whitehead", "aBab^-3", "--budget", "5"]) == 3
    assert capsys.readouterr().err.startswith("budget exceeded: expanded word length")


def test_whitehead_reaches_the_rank4_level_sets(capsys):
    # the class walk finds aabbccdd's 23,424 words in 69 classes by 2,968
    # rewrites; each class is counted by orbit-stabilizer, not relabeled
    code, data = run_json(capsys, "whitehead", "aabbccdd")
    assert code == 0 and data["level_set_size"] == 23424
    assert len(data["level_set_classes"]) == 69
    assert sum(c["size"] for c in data["level_set_classes"]) == 23424
    code, data = run_json(capsys, "whitehead", "[a,b][c,d]")
    assert code == 0 and data["level_set_size"] == 1008
    assert run(["whitehead", "aabbccdd", "--budget", "2967"]) == 3
    assert capsys.readouterr().err.startswith("budget exceeded: Whitehead level set")
    assert run(["whitehead", "aabbccdd", "--budget", "2968"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("word, bound, classes, size", [
    ("aabbccddee", "5", 841, 3159936),
    ("[a,b][c,d][e,f]", "6", 131, 5702400),
])
def test_whitehead_reaches_the_rank5_and_rank6_level_sets(capsys, word, bound, classes, size):
    # millions of words, counted class by class under the default budget
    code, data = run_json(capsys, "whitehead", word, "--whitehead-rank-bound", bound)
    assert code == 0 and data["level_set_size"] == size
    assert len(data["level_set_classes"]) == classes
    assert sum(c["size"] for c in data["level_set_classes"]) == size


def test_whitehead_lists_each_class_once_with_its_size(capsys):
    code, data = run_json(capsys, "whitehead", "aabbcc")
    assert code == 0 and data["level_set_size"] == 328
    assert "level_set" not in data
    keys = [c["key"] for c in data["level_set_classes"]]
    assert keys[0] == "a^2 b^2 c^2" and len(set(keys)) == len(keys) == 9
    code, data = run_json(capsys, "whitehead", "aA")
    assert code == 0 and data["level_set_classes"] == [{"key": "1", "size": 1}]
    assert data["min_length"] == 0 and data["level_set_size"] == 1
    assert data["is_primitive"] is False and data["lies_in_proper_free_factor"] is True


@settings(max_examples=150, deadline=None)
@given(cyclic_words(max_length=10, min_rank=1, max_rank=4))
def test_whitehead_answers_from_its_classes_equal_the_library(w):
    # whitehead reads is_primitive and lies_in_proper_free_factor off its
    # one walk; the library decides each by its own search
    args = build_parser().parse_args(["whitehead", w.display(), "--rank", str(w.rank)])
    out = cmd_whitehead(args)
    assert out["is_primitive"] is words.is_primitive(w)
    assert out["lies_in_proper_free_factor"] is words.lies_in_proper_free_factor(w)


def test_oracle_budget_option(capsys):
    # 5 classes of C2 wr S2 times 8 elements for the second letter
    query = ["oracle", "[a,b]", "--group", "C2", "--char", "chi1", "--n", "2"]
    assert run(query + ["--budget", "10"]) == 3
    assert capsys.readouterr().err.startswith("budget exceeded: brute enumeration")
    assert run(query) == 0
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


C2_MULT = [[0, 1], [1, 0]]


@pytest.mark.parametrize("bad, field", [
    ({"mult": [[0, 1], [1]]}, "row"),
    ({"mult": [[0, 1], [1, 2]]}, "mult"),
    ({"mult": [[0, 1], [1, -1]]}, "mult"),
    ({"mult": [[0, 1], [1, "0"]]}, "mult"),
    ({"mult": 4}, "mult"),
    ({"perm_generators": []}, "generator"),
    ({"perm_generators": [[1, 0], [1, 2, 0]]}, "generator"),
    ({"perm_generators": [[0, 0]]}, "generator"),
    ({"perm_generators": [[1, 0, 3]]}, "generator"),
    ({"mult": C2_MULT, "characters": [{"conductor": "x", "values": [["1"], ["-1"]]}]},
     "conductor"),
    ({"mult": C2_MULT, "characters": [{"conductor": 100003, "values": [["1"], ["-1"]]}]},
     "conductor 100003 does not divide"),
    ({"mult": C2_MULT, "characters": [{"conductor": 3, "values": [["1"], ["-1"]]}]},
     "conductor 3 does not divide"),
    ({"mult": C2_MULT, "characters": [{"conductor": 1}]}, "values"),
    ({"mult": C2_MULT, "characters": [{"conductor": 1, "values": [["1"], ["y"]]}]}, "values"),
    ([C2_MULT], "object"),
], ids=["ragged-rows", "entry-out-of-range", "negative-entry", "non-int-entry", "mult-not-rows",
        "no-generators", "ragged-generators", "repeated-point", "point-out-of-range",
        "bad-conductor", "huge-conductor", "conductor-off-the-exponent", "no-values",
        "bad-coefficient", "not-an-object"])
def test_group_spec_malformed_table(tmp_path, capsys, bad, field):
    # a malformed group file is a validation error (exit 2), not a traceback
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    with pytest.raises(ValidationError, match=field):
        parse_group_spec(str(path))
    assert run(["expect", "aa", "--group", str(path), "--char", "i0", "--n", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err


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


@pytest.mark.parametrize("command", ["expect", "witnesses"])
def test_zero_mean_queries_reach_the_nested_commutator(capsys, command):
    # [[a,b],[a,c]] has 221,008 quotients; the 56 whose every edge w
    # crosses twice are all a zero-mean character's sum and report read
    argv = [command, "[[a,b],[a,c]]", "--group", "S3", "--char", "std"]
    code, data = run_json(capsys, *argv, *(["--symbolic"] if command == "expect" else []))
    assert code == 0
    if command == "expect":
        assert data["symbolic"]["num"] and data["phi"] == "std on S3"
    else:
        assert data["pi"] == 2 and len(data["witnesses"]) == 56


def test_a_budget_below_the_full_stream_lets_the_zero_mean_query_finish(capsys):
    # [[a,b],c]: 4,728 generation states in full, 265 for the quotients
    # crossed twice; the relative expectations over S3 need 6^4
    argv = ["[[a,b],c]", "--group", "S3", "--char", "std", "--budget", "2000"]
    code, data = run_json(capsys, "expect", *argv, "--symbolic")
    assert code == 0 and data["symbolic"]["num"]
    assert run(["witnesses", *argv]) == 0
    capsys.readouterr()
    assert run(["expect", "[[a,b],c]", "--symbolic", "--budget", "2000"]) == 3
    assert "quotient enumeration" in capsys.readouterr().err


def _symmetric_group_file(tmp_path, n):
    """A group file of S_n by an n-cycle and a transposition, with the
    trivial character, one value per class (the partitions of n)."""
    classes = {6: 11, 7: 15}[n]
    data = {"name": f"S{n}perm",
            "perm_generators": [[*range(1, n), 0], [1, 0, *range(2, n)]],
            "characters": [{"name": "triv", "conductor": 1, "values": [["1"]] * classes}]}
    path = tmp_path / f"s{n}.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_a_large_permutation_group_fails_at_its_multiplication_table(tmp_path, capsys):
    # S7: 5,040^2 table entries exceed the default budget of 10^7
    path = _symmetric_group_file(tmp_path, 7)
    assert run(["expect", "a", "--group", path, "--char", "triv", "--n", "2"]) == 3
    assert "multiplication table (order 5040)" in capsys.readouterr().err
    assert run(["oracle", "a", "--group", path, "--char", "triv", "--n", "1"]) == 3
    capsys.readouterr()


def test_a_permutation_group_within_the_budget_runs(tmp_path, capsys):
    # S6: 720^2 = 518,400 entries; a budget below them refuses the table
    path = _symmetric_group_file(tmp_path, 6)
    code, data = run_json(capsys, "expect", "a", "--group", path, "--char", "triv", "--n", "2")
    assert code == 0 and data["value"] == "1"  # one fixed point on average
    assert run(["expect", "a", "--group", path, "--char", "triv", "--n", "2",
                "--budget", "518399"]) == 3
    assert "multiplication table" in capsys.readouterr().err
