"""Per-layer tracing from outside the program.

``traced(recorder)`` wraps the public functions of each layer of ``wml``
at every place they are bound: the defining module and every ``wml``
module that imported the name, or the class that owns a method.  The
originals are put back when the block exits.  A missing name raises, so
a renamed function fails loudly instead of recording zero.

Each wrapped call is a span (name, start, end, parent, query id).  Spans
of the functions called very often (``HOT``) are only counted, not kept,
so memory stays bounded; their time still counts as child time of the
enclosing span.  Self time is a span's duration minus the time of its
child spans.  A layer's time sums only the outermost calls into it, so
recursion is not counted twice.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

MAX_SPANS = 100_000


def _den_degree(rec, bound, result):
    rec.maxima["den_degree"] = max(rec.maxima["den_degree"], result.den.degree())


def _morphism_found(rec, bound, result):
    rec.counts["morphism_found"] += result is not None


def _nodes(rec, bound, result):
    rec.counts["nodes"] += len(result.nodes)


def _fold_in_enumeration(rec, bound, result):
    if rec.depth["core_graphs.enumerate"]:
        rec.counts["enumeration_folds"] += 1


def _level_set(rec, bound, result):
    rec.counts["level_set_size"] += len(result[1])


def _erel_nonzero(rec, bound, result):
    rec.counts["erel_nonzero"] += not result.is_zero()


def _chains(rec, bound, result):
    rec.counts["chains"] += len(result.terms)


def _brute_tuples(rec, bound, result):
    args = bound()
    rec.counts["tuples"] += args["group"].order ** args["w"].rank


def _orbit_tuples(rec, bound, result):
    args = bound()
    rec.counts["orbit_tuples"] += args["action"].degree ** args["t"]


def _mc_samples(rec, bound, result):
    rec.counts["mc_samples"] += bound()["samples"]


# layer probe -> (defining module, ((attribute, result hook), ...))
PROBES = {
    "rational.reduce": ("wml.rational", (("RationalFunctionN.of", _den_degree),)),
    "rational.gcd": ("wml.rational", (("Poly.gcd", None),)),
    "core_graphs.leq": ("wml.core_graphs", (("QuotientPoset.leq", None),)),
    "core_graphs.morphism": ("wml.core_graphs", (("morphism", _morphism_found),)),
    "core_graphs.enumerate": ("wml.core_graphs", (("enumerate_quotients", _nodes),)),
    "core_graphs.fold": ("wml.core_graphs", (("fold", _fold_in_enumeration),)),
    "core_graphs.basis": ("wml.core_graphs", (("spanning_tree_basis", None),)),
    "words.whitehead": ("wml.words", (
        ("whitehead_minimize", _level_set),
        ("is_primitive", None),
        ("lies_in_proper_free_factor", None),
    )),
    "characters.erel": ("wml.characters", (("expectation_rel", _erel_nonzero),)),
    "characters.word_eval": ("wml.characters", (("expectation_word", None),)),
    "mobius.lvalue": ("wml.mobius", (("L_value_at", None),)),
    "wreath_measures.context": ("wml.wreath_measures", (("WordContext.__init__", None),)),
    "wreath_measures.api": ("wml.wreath_measures", (
        ("ind_expectation_symbolic", None),
        ("ind_expectation_at", None),
        ("chi_expectation_symbolic", None),
        ("leading_term", None),
        ("witness_report", None),
        ("WitnessReport.to_json", None),
        ("iterated_expectation", _chains),
        ("iterated_value_at", None),
        ("IteratedExpectation.single_variable", None),
        ("IteratedExpectation.to_json", None),
        ("tree_fix_expectation", None),
        ("TreeFixReport.difference_single_variable", None),
        ("TreeFixReport.total_at", None),
        ("TreeFixReport.term_at", None),
    )),
    "oracle.wreath_build": ("wml.oracle", (
        ("iterated_ind_character", None),
        ("build_wreath", None),
        ("build_iterated_wreath", None),
    )),
    "oracle.brute": ("wml.oracle", (("brute_expectation", _brute_tuples),)),
    "oracle.orbit": ("wml.oracle", (
        ("orbit_count", _orbit_tuples),
        ("injective_orbit_count", _orbit_tuples),
    )),
    "oracle.mc": ("wml.oracle", (("monte_carlo_expectation", _mc_samples),)),
    "cli.emit": ("wml.cli", (("_emit", None),)),
}

# called up to millions of times per query: counted, never kept as spans
HOT = {"rational.reduce", "rational.gcd", "core_graphs.leq", "core_graphs.morphism",
       "core_graphs.fold", "mobius.lvalue"}


class Recorder:
    """Spans and counters of one traced pass, held in memory."""

    def __init__(self):
        self.t0 = perf_counter()
        self.calls = Counter()
        self.seconds = Counter()  # outermost calls only
        self.self_seconds = Counter()
        self.counts = Counter()
        self.maxima = Counter()
        self.depth = Counter()
        self.stack: list[list] = []  # [child seconds] per open call
        self.spans: list[list] = []  # [name, start, end, parent, query]
        self.open_span = -1
        self.dropped = 0
        self.query = None

    def call(self, probe, fn, args, kwargs, hook):
        span = -1
        parent = self.open_span
        if probe not in HOT:
            if len(self.spans) < MAX_SPANS:
                span = len(self.spans)
                name = f"{probe}:{fn.__qualname__}"
                self.spans.append([name, perf_counter() - self.t0, None, parent, self.query])
                self.open_span = span
            else:
                self.dropped += 1
        frame = [0.0]
        self.stack.append(frame)
        self.depth[probe] += 1
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self.stack.pop()
            self.depth[probe] -= 1
            duration = end - start
            self.calls[probe] += 1
            if not self.depth[probe]:
                self.seconds[probe] += duration
            self.self_seconds[probe] += duration - frame[0]
            if self.stack:
                self.stack[-1][0] += duration
            if span >= 0:
                self.spans[span][2] = end - self.t0
                self.open_span = parent
        if hook is not None:
            hook(self, lambda: inspect.signature(fn).bind(*args, **kwargs).arguments, result)
        return result

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(("name", "start", "end", "parent", "query"), s))))
                fh.write("\n")


def _wrapper(rec, probe, fn, hook):
    def wrapped(*args, **kwargs):
        return rec.call(probe, fn, args, kwargs, hook)

    return wrapped


def _install(rec) -> list:
    restore = []
    try:
        for probe, (module_name, attrs) in PROBES.items():
            module = importlib.import_module(module_name)
            for attr, hook in attrs:
                if "." in attr:
                    cls_name, name = attr.split(".")
                    cls = getattr(module, cls_name)
                    raw = cls.__dict__[name]
                    if isinstance(raw, staticmethod):
                        new = staticmethod(_wrapper(rec, probe, raw.__func__, hook))
                    else:
                        new = _wrapper(rec, probe, raw, hook)
                    setattr(cls, name, new)
                    restore.append((cls, name, raw))
                    continue
                fn = getattr(module, attr)
                new = _wrapper(rec, probe, fn, hook)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name != "wml" and not mod_name.startswith("wml."):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, key, new)
                            restore.append((mod, key, fn))
    except BaseException:
        _uninstall(restore)
        raise
    return restore


def _uninstall(restore) -> None:
    for owner, name, original in reversed(restore):
        setattr(owner, name, original)


@contextmanager
def traced(rec: Recorder):
    """Wrap every probe for the duration of the block."""
    restore = _install(rec)
    try:
        yield rec
    finally:
        _uninstall(restore)


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def layer_metrics(rec: Recorder) -> dict:
    """The per-layer metrics of a traced pass, by name."""
    c, s, n = rec.calls, rec.seconds, rec.counts
    wm_self = rec.self_seconds["wreath_measures.context"] + rec.self_seconds["wreath_measures.api"]
    return {
        "rational.reduce_calls": c["rational.reduce"],
        "rational.reduce_s": s["rational.reduce"],
        "rational.gcd_calls": c["rational.gcd"],
        "rational.gcd_s": s["rational.gcd"],
        "rational.den_degree_max": rec.maxima["den_degree"],
        "core_graphs.leq_calls": c["core_graphs.leq"],
        "core_graphs.morphism_calls": c["core_graphs.morphism"],
        "core_graphs.morphism_s": s["core_graphs.morphism"],
        "core_graphs.morphism_found_frac": _ratio(n["morphism_found"], c["core_graphs.morphism"]),
        "core_graphs.enumerate_calls": c["core_graphs.enumerate"],
        "core_graphs.enumerate_s": s["core_graphs.enumerate"],
        "core_graphs.nodes": n["nodes"],
        "core_graphs.nodes_per_s": _ratio(n["nodes"], s["core_graphs.enumerate"]),
        "core_graphs.fold_calls": c["core_graphs.fold"],
        "core_graphs.merge_yield": _ratio(n["nodes"], n["enumeration_folds"]),
        "core_graphs.basis_calls": c["core_graphs.basis"],
        "core_graphs.basis_s": s["core_graphs.basis"],
        "words.whitehead_calls": c["words.whitehead"],
        "words.whitehead_s": s["words.whitehead"],
        "words.level_set_size": n["level_set_size"],
        "characters.erel_calls": c["characters.erel"],
        "characters.erel_s": s["characters.erel"],
        "characters.erel_nonzero_frac": _ratio(n["erel_nonzero"], c["characters.erel"]),
        "characters.word_eval_calls": c["characters.word_eval"],
        "characters.word_eval_s": s["characters.word_eval"],
        "mobius.lvalue_calls": c["mobius.lvalue"],
        "mobius.lvalue_s": s["mobius.lvalue"],
        "wreath_measures.context_calls": c["wreath_measures.context"],
        "wreath_measures.chains": n["chains"],
        "wreath_measures.self_s": wm_self,
        "oracle.wreath_build_s": s["oracle.wreath_build"],
        "oracle.brute_calls": c["oracle.brute"],
        "oracle.brute_s": s["oracle.brute"],
        "oracle.tuples": n["tuples"],
        "oracle.tuples_per_s": _ratio(n["tuples"], s["oracle.brute"]),
        "oracle.orbit_s": s["oracle.orbit"],
        "oracle.orbit_tuples": n["orbit_tuples"],
        "oracle.mc_samples": n["mc_samples"],
        "cli.emit_s": s["cli.emit"],
    }
