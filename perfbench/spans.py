"""Spans around synlat's layers, recorded from outside the program.

The traced run replaces module attributes with wrappers for its duration:
the names synlat.cli imported (so spans follow the order cli.cmd_* calls
them), the functions the groups workload calls through their modules, and
the few functions that those call through module globals.  Spans are kept
in memory and written out when the run ends.

Two synlat.terms functions run too often for a span each.  Their calls are
counted on the enclosing span, and the time of eval_lattice_form is taken
out of that span's self time and reported as a layer of its own.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

clock = time.perf_counter

_PAYLOAD = ("automaton_payload", "automaton_text", "automaton_dot",
            "algebra_payload", "algebra_text", "algebra_dot", "reversible_payload")
_SERIALIZE = ("render_json", "text_table", "dot_automaton", "dot_order")

# span name -> the (module, attribute) pairs it wraps
LAYERS = {
    "regex.parse": [("synlat.cli", "parse_regex")],
    "regex.compile": [("synlat.cli", "compile_canonical_dfa")],
    "atoms.profile_table": [("synlat.cli", "build_profile_table"), ("synlat.atoms", "build_profile_table")],
    "canonical.meet_automaton": [("synlat.cli", "build_meet_automaton"),
                                 ("synlat.canonical", "build_meet_automaton")],
    "canonical.lattice_automaton": [("synlat.cli", "build_lattice_automaton")],
    "syntactic.monoid": [("synlat.cli", "syntactic_monoid"), ("synlat.syntactic", "syntactic_monoid")],
    "syntactic.semiring": [("synlat.cli", "syntactic_semiring")],
    "syntactic.lattice_algebra": [("synlat.cli", "syntactic_lattice_algebra")],
    "syntactic.hasse": [("synlat.syntactic", "hasse_from_leq"), ("synlat.render", "hasse_of_elements")],
    "reversible.forbidden": [("synlat.reversible", "find_forbidden_configuration")],
    "reversible.identity": [("synlat.reversible", "check_reversibility_identity")],
    "render.payload": [("synlat.render", name) for name in _PAYLOAD],
    "render.serialize": [("synlat.render", name) for name in _SERIALIZE],
}

# counted per call: name -> ((module, attribute), whether its time is a layer of its own)
HOT = {
    "terms.eval_lattice_form": (("synlat.terms", "eval_lattice_form"), True),
    "terms.multiply_lattice_forms": (("synlat.terms", "multiply_lattice_forms"), False),
}

REQUEST = "request"               # span around one whole request; its self time is cli.self_s
CLOSURE = "syntactic.lattice_closure"


def _lattice_sizes(alg):
    n, k = len(alg), len(alg.dfa.alphabet)
    tables = 2 if alg.mul_table is None else 3
    return {
        "syntactic.lattice_elements": n,
        "syntactic.lattice_pair_ops": n * k + n * (n + 1),   # k letter products, then a meet and a join per pair
        "syntactic.lattice_table_cells": tables * n * n,
    }


# span name -> sizes derived from (positional arguments, result)
_SIZES = {
    "regex.compile": lambda args, r: {"regex.dfa_states": r.n_states},
    "atoms.profile_table": lambda args, r: {"atoms.profiles": r.n_profiles},
    "canonical.meet_automaton": lambda args, r: {"canonical.meet_states": len(r.states)},
    "canonical.lattice_automaton": lambda args, r: {"canonical.lattice_states": len(r.states)},
    "syntactic.monoid": lambda args, r: {"syntactic.monoid_elements": len(r), "syntactic.cayley_cells": len(r) ** 2},
    "syntactic.semiring": lambda args, r: {"syntactic.semiring_elements": len(r),
                                           "syntactic.semiring_pair_ops": 3 * len(r) * (len(r) + 1) // 2},
    "syntactic.lattice_algebra": lambda args, r: _lattice_sizes(r),
    "reversible.identity": lambda args, r: {"reversible.quadruples": len(args[0].elements) ** 4},
}

# span record fields
NAME, REQ, PARENT, START, END, CHILD, SIZES = range(7)


class Tracer:
    """Records spans [name, request, parent, start, end, child seconds, sizes]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.request = None

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append([name, self.request, parent, clock(), None, 0.0, defaultdict(float)])
        self._open.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, index: int, sizes: dict | None = None) -> None:
        span = self.spans[index]
        span[END] = clock()
        for key, value in (sizes or {}).items():
            span[SIZES][key] += value
        self._open.pop()
        if span[PARENT] is not None:
            self.spans[span[PARENT]][CHILD] += span[END] - span[START]

    def _span_wrapper(self, name, fn):
        sizes = _SIZES.get(name)

        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.end(index)
                raise
            self.end(index, sizes(args, result) if sizes else None)
            return result
        return traced

    def _hot_wrapper(self, name, fn, timed):
        calls = name + "_calls"
        seconds = name + "_s"

        def counted(*args, **kwargs):
            span = self.spans[self._open[-1]]
            span[SIZES][calls] += 1
            if not timed:
                return fn(*args, **kwargs)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                span[CHILD] += elapsed
                span[SIZES][seconds] += elapsed
        return counted

    def install(self) -> None:
        for name, targets in LAYERS.items():
            for module, attr in targets:
                self._patch(module, attr, lambda fn, name=name: self._span_wrapper(name, fn))
        for name, ((module, attr), timed) in HOT.items():
            self._patch(module, attr, lambda fn, name=name, timed=timed: self._hot_wrapper(name, fn, timed))

    def _patch(self, module_name, attr, make):
        module = importlib.import_module(module_name)
        fn = getattr(module, attr)
        self._saved.append((module, attr, fn))
        setattr(module, attr, make(fn))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)


def layer_totals(spans: list[list], requests: set) -> dict[str, float]:
    """Self time per span name and summed sizes, over the spans of the given requests.

    The request span's self time is reported as cli.self_s: argument parsing
    and glue for CLI requests, the benchmark's own call sequence for library
    requests.
    """
    out: dict[str, float] = defaultdict(float)
    for span in spans:
        if span[REQ] not in requests:
            continue
        name = "cli.self" if span[NAME] == REQUEST else span[NAME]
        out[name + "_s"] += span[END] - span[START] - span[CHILD]
        for key, value in span[SIZES].items():
            out[key] += value
    return out


def to_json(spans: list[list]) -> dict:
    """Columns and rows of the span list, times relative to the first span."""
    t0 = spans[0][START] if spans else 0.0
    rows = []
    for i, s in enumerate(spans):
        rows.append([i, s[NAME], s[REQ], s[PARENT], s[START] - t0, s[END] - t0,
                     s[END] - s[START] - s[CHILD], dict(s[SIZES])])
    return {"columns": ["id", "name", "request", "parent", "start_s", "end_s", "self_s", "sizes"], "spans": rows}
