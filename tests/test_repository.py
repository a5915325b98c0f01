"""Checks on the package source and the demos as a whole."""

import argparse
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "wml").glob("*.py"))


def test_no_assert_statements_in_the_package():
    # assert is stripped under python -O; invariants raise InvariantError
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and not found, found


def _is_empty_container(value) -> bool:
    if isinstance(value, ast.Dict):
        return not value.keys
    if isinstance(value, ast.List):
        return not value.elts
    return (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
            and value.func.id in ("dict", "set") and not value.args and not value.keywords)


def test_no_module_or_class_level_empty_containers():
    # an empty container bound at module or class level is a process-wide
    # memo; per-word memos belong to the WordContext the caller holds
    found = []
    for path in SOURCES:
        scopes = [ast.parse(path.read_text())]
        while scopes:
            scope = scopes.pop()
            for node in scope.body:
                if isinstance(node, ast.ClassDef):
                    scopes.append(node)
                elif isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
                    if _is_empty_container(node.value):
                        found.append(f"{path.name}:{node.lineno}")
    assert SOURCES and not found, found


def test_every_import_is_used():
    # a name a module imports and never reads is a dead dependency;
    # __init__ imports only to re-export
    found = []
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        found.append(f"{path.name}:{node.lineno} {name}")
    assert SOURCES and not found, found


def test_no_module_reads_the_environment():
    # the evaluation budget, like every setting, is the caller's argument
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
                found.append(f"{path.name}:{node.lineno} {node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                found += [f"{path.name}:{node.lineno} {alias.name}" for alias in node.names
                          if alias.name in ("environ", "getenv")]
    assert SOURCES and not found, found


def _subcommands():
    from wml.cli import build_parser

    (commands,) = [action for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    return commands.choices


def test_every_command_takes_the_budget_option():
    commands = _subcommands()
    missing = [name for name, sub in commands.items()
               if not any("--budget" in action.option_strings for action in sub._actions)]
    assert len(commands) == 8 and not missing, missing


def test_only_rank_and_witnesses_take_the_whitehead_rank_bound():
    # the bound chooses which quotients a witness report decides; the
    # whitehead command's search is bounded by the budget alone
    takes = {name for name, sub in _subcommands().items()
             if any("--whitehead-rank-bound" in action.option_strings for action in sub._actions)}
    assert takes == {"rank", "witnesses"}


def test_the_budget_alone_bounds_the_whitehead_searches():
    # no search takes a rank bound, and no descent is cached across
    # searches, where a hit would skip the charge of its passes
    tree = ast.parse((ROOT / "src" / "wml" / "words.py").read_text())
    functions = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    params = {arg.arg for f in functions.values() for arg in f.args.args + f.args.kwonlyargs}
    assert "rank_bound" not in params
    assert not {"_check_rank_bound", "_charge_move_table"} & set(functions)
    assert not functions["_descend_key"].decorator_list


def _names_read(reference: str) -> set:
    """The names a test reference imports or reads as attributes."""
    tree = ast.parse((ROOT / "tests" / reference).read_text())
    names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             for alias in node.names}
    return names | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def test_the_whitehead_reference_prices_moves_by_rewriting():
    # the tests compare the library's descent, walks and class sizes, which
    # read each move's length off the Whitehead graph and count each class
    # by orbit-stabilizer, against this reference, which lists every word
    names = _names_read("whitehead_reference.py")
    library = {"_descend_key", "_class_key", "_class_walk", "_class_size", "_cut_sizes",
               "_whitehead_graph", "_screened_moves", "_move_images", "_pass_charge", "_cyc_len"}
    assert not names & library, names & library


def test_the_fold_reference_closes_under_merges():
    # the tests compare the library's partition generator and refinement
    # order against this reference's merge DAG
    names = _names_read("fold_reference.py")
    library = {"QuotientPoset", "enumerate_quotients", "fold_closed_partitions"}
    assert not names & library, names & library


# the stored-poset interface the word context no longer has; a reference
# builds its own poset and relative expectations
CONTEXT_POSET = {"poset", "e_rel", "basis", "link_fibers", "_poset"}


def test_the_witness_reference_reads_the_stored_poset():
    # the tests compare the streamed witness report against this reference
    names = _names_read("witness_reference.py")
    library = {"fold_closed_partitions", "read_partition", "witness_report"} | CONTEXT_POSET
    assert not names & library, names & library


def test_the_partition_reader_reference_reads_no_stream():
    # the tests compare the stream's first-crossing words against this
    # reference's BFS-basis words
    names = _names_read("partition_reader_reference.py")
    library = {"fold_closed_partitions", "_coefficient"}
    assert not names & library, names & library


def test_the_general_action_reference_reads_the_stored_poset():
    # the tests compare the streamed general-action sums against this reference
    names = _names_read("general_action_reference.py")
    library = {"fold_closed_partitions", "read_partition", "partition_graphs",
               "_coefficient", "general_action_expectation"} | CONTEXT_POSET
    assert not names & library, names & library


def test_the_brute_reference_enumerates_every_tuple():
    # the tests compare the class-reduced counts and the vectorized wreath
    # arrays against this reference's full enumeration and element loops
    names = _names_read("brute_reference.py")
    library = {"class_labels", "_class_labels", "mult_ids", "_component_product",
               "base_table", "components", "inverse_ids", "encode_components",
               "ind_character_values", "to_finite_group", "word_element_counts",
               "_evaluator", "_wreath_values", "_table_values"}
    assert not names & library, names & library


def _definitions(path) -> list:
    """(qualified name, node) of each top-level statement of a module, a
    class's body statement by statement."""
    out = []
    for top in ast.parse(path.read_text()).body:
        if isinstance(top, ast.ClassDef):
            out += [(f"{top.name}.{getattr(node, 'name', '')}", node) for node in top.body]
        else:
            out.append((getattr(top, "name", ""), top))
    return out


def test_only_the_chains_read_the_stored_poset():
    # every other sum streams the partitions; a new reader of the stored
    # poset brings its memory back, and a second builder its budget
    definitions = _definitions(ROOT / "src" / "wml" / "wreath_measures.py")
    context = {name.split(".")[1]: node for name, node in definitions
               if name.startswith("WordContext.")}
    bound = {node.attr for method in context.values() for node in ast.walk(method)
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
             and isinstance(node.value, ast.Name) and node.value.id == "self"}
    assert bound == {"original", "word", "rank", "_poset", "_sums", "_inner"}, bound
    methods = {name for name, node in context.items() if isinstance(node, ast.FunctionDef)}
    assert methods == {"__init__", "context_of"}, methods
    touching = {name for name, top in definitions for node in ast.walk(top)
                if isinstance(node, ast.Attribute) and node.attr == "_poset"}
    assert touching == {"WordContext.__init__", "iterated_expectation"}, touching
    builders = {name for name, top in definitions for node in ast.walk(top)
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "enumerate_quotients"}
    assert builders == {"iterated_expectation"}, builders


def test_the_poset_keeps_only_what_the_commands_read():
    # every command streams the quotients; the stored poset serves the
    # chains of expect-iterated, and no command reads the incidence algebra
    definitions = _definitions(ROOT / "src" / "wml" / "core_graphs.py")
    poset = {name.split(".")[1] for name, node in definitions
             if name.startswith("QuotientPoset.") and isinstance(node, ast.FunctionDef)}
    assert poset == {"__init__", "_order", "__len__", "morphism_between", "leq", "above",
                     "chains"}, poset
    removed = {name for name, _ in definitions} & {"decomp", "afd_cyclic"}
    assert not removed, removed
    mobius = {name for name, _ in _definitions(ROOT / "src" / "wml" / "mobius.py")}
    algebra = {name for name in mobius if name.endswith("_derivation")
               or name in ("PosetFunction", "convolve", "mobius_B")}
    assert not algebra, algebra


def test_one_recursion_sums_the_levels():
    # the single-variable function and the values at concrete degrees are
    # two readings of one level recursion with one memo, and one rule
    # gives every reader its coefficients; a further caller of the rule,
    # or a second memo, forks them again
    tree = ast.parse((ROOT / "src" / "wml" / "wreath_measures.py").read_text())
    callers = {top.name for top in tree.body for node in ast.walk(top)
               if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
               and node.func.id == "_coefficient"}
    assert callers == {"_level_sum", "general_action_expectation", "witness_report"}, callers
    context = next(top for top in tree.body
                   if isinstance(top, ast.ClassDef) and top.name == "WordContext")
    init = next(node for node in context.body
                if isinstance(node, ast.FunctionDef) and node.name == "__init__")
    bound = {node.attr for node in ast.walk(init)
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)}
    assert "_sums" in bound and "_values" not in bound, bound


def test_one_closure_builds_every_permutation_group():
    # a group file's generators and a PermAction close by the same routine;
    # a loop of their own is a second closure with its own bound
    methods = {}
    for module, method in (("characters.py", "FiniteGroup.from_permutation_generators"),
                           ("mobius.py", "PermAction.__init__")):
        methods.update(item for item in _definitions(ROOT / "src" / "wml" / module)
                       if item[0] == method)
    assert len(methods) == 2, sorted(methods)
    for name, node in methods.items():
        calls = {sub.func.id for sub in ast.walk(node)
                 if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)}
        loops = [sub.lineno for sub in ast.walk(node) if isinstance(sub, (ast.For, ast.While))]
        assert "permutation_closure" in calls and not loops, (name, loops)


def test_the_alg_route_reference_builds_its_own_chains():
    # the tests compare the library's chain sum against this reference's
    # algebraic chains
    names = _names_read("alg_route_reference.py")
    library = {"iterated_expectation", "IteratedExpectation", "ChainTerm",
               "single_variable", "value_at_closed_form", "_sum_forms"} | CONTEXT_POSET
    assert not names & library, names & library


@pytest.mark.parametrize("demo", [
    "01_ranks_and_witnesses.py",
    "02_symbolic_expectations.py",
    "03_oracle_cross_check.py",
    "04_iterated_wreaths_and_trees.py",
    "05_general_actions_and_torsion_letters.py",
])
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
