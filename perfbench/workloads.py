"""The benchmark's workloads: their inputs and request lists.

A request is either a synlat command line, run in-process through
synlat.cli.main with stdout captured, or a library call sequence that
returns the text a caller would print.  Library calls go through module
attributes (synlat.atoms.build_profile_table, ...) so that the traced run can
wrap them.
"""

from __future__ import annotations

import contextlib
import io
from collections import deque
from dataclasses import dataclass
from typing import Callable

import synlat
from synlat import atoms, cli, render, reversible, syntactic

import regexgen

WORKLOADS = ("algebra", "groups", "batch")

# Batch corpus size and regex size; see README.md for why nodes stop at 6.
BATCH_REGEXES = 1200
BATCH_MAX_NODES = 6
# A fixed regex sent ANCHOR_REPEATS times per pass, spread through the seeded
# ones.  Its semiring request is slower than any seeded draw's, so every seed
# has the same slowest request; see README.md.
ANCHOR = ("abcab", "abc")
ANCHOR_REPEATS = 5
FORMATS = ("json", "table", "dot")


@dataclass(frozen=True)
class Request:
    """One request.  Exactly one of argv and call is set."""

    key: str                                   # names the request; repeats pool their samples
    argv: tuple[str, ...] | None = None        # synlat command line
    call: Callable[[], str] | None = None      # library call sequence returning stdout text
    elements: int | None = None                # hand-known element count of the output...
    fmt: str | None = None                     # ...rendered in this format
    reversible: bool | None = None             # hand-known verdict


def execute(req: Request) -> tuple[int, str]:
    """(exit code, stdout) of one request; library requests exit 0 unless they raise."""
    if req.call is not None:
        return 0, req.call()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(req.argv))
        except SystemExit as exc:           # argparse rejects the command line
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue()


# --- algebra: few large lattice-algebra and semiring requests ---

# (level, regex, alphabet, format, element count)
_ALGEBRA_SHORT = (      # under 0.3 s each
    ("lattice", "a+b+", "ab", "table", 22),
    ("lattice", "(a|bb)*", "ab", "dot", 17),
    ("lattice", "ab*a|b", "ab", "json", 25),
    ("semiring", "(a|b)*a(a|b)(a|b)", "ab", "table", 44),
    ("semiring", "(a|b)*a(a|b)(a|b)", "ab", "json", 44),
)
_ALGEBRA_LONG = (       # 1 s and more
    ("lattice", "(a|bc)*(c|%e)", "abc", "table", 71),
    ("lattice", "(a|bc)*(c|%e)", "abc", "json", 71),
    ("lattice", "(a|b)*abb", "ab", "json", 137),
)


def _algebra_request(level: str, regex: str, alphabet: str, fmt: str, n: int) -> Request:
    argv = ("algebra", "--level", level, "--regex", regex, "--alphabet", alphabet, "--format", fmt)
    return Request(" ".join(argv), argv=argv, elements=n, fmt=fmt)


def algebra_requests() -> list[Request]:
    """The short requests before each long one, so each short one is timed three times a pass.

    A short request's three samples pool under its key, and their median
    is its time; a single sample of a 0.2 s request moved with the machine
    more than the 12 s request's did.
    """
    short = [_algebra_request(*spec) for spec in _ALGEBRA_SHORT]
    out = []
    for spec in _ALGEBRA_LONG:
        out.extend(short)
        out.append(_algebra_request(*spec))
    return out


# --- groups: monoids and reversibility verdicts of permutation and transformation DFAs ---

def _closure_size(gens: list[tuple[int, ...]]) -> int:
    """Size of the transformation monoid generated by gens, by breadth-first search."""
    n = len(gens[0])
    ident = tuple(range(n))
    seen = {ident}
    queue = deque([ident])
    while queue:
        t = queue.popleft()
        for g in gens:
            m = tuple(g[q] for q in t)
            if m not in seen:
                seen.add(m)
                queue.append(m)
    return len(seen)


def generator_dfa(name: str, gens: list[tuple[int, ...]], alphabet: str, size: int) -> synlat.Dfa:
    """Minimal DFA of the action of gens on 0..Q-1, initial and only final state 0.

    Raises ValueError unless the generators make a monoid of the expected
    size and the DFA is already minimal, so a wrong input is caught before
    the first request.
    """
    q = len(gens[0])
    if _closure_size(gens) != size:
        raise ValueError(f"{name}: generators make {_closure_size(gens)} elements, expected {size}")
    delta = tuple(tuple(g[s] for g in gens) for s in range(q))
    dfa = synlat.minimize(synlat.Dfa(tuple(alphabet), delta, 0, frozenset({0})))
    if dfa.n_states != q:
        raise ValueError(f"{name}: minimal DFA has {dfa.n_states} states, expected {q}")
    return dfa


def _transposition(q):
    return (1, 0) + tuple(range(2, q))


def _cycle(q):
    return tuple((i + 1) % q for i in range(q))


def _merge(q):
    return (0, 0) + tuple(range(2, q))


def _groups_inputs() -> dict[str, tuple[synlat.Dfa, int]]:
    """name -> (DFA, monoid size) for S4, D15, Z31, T4 and T5."""
    specs = {
        "S4": ([_transposition(4), _cycle(4)], "ab", 24),
        "D15": ([_cycle(15), tuple((-i) % 15 for i in range(15))], "ab", 30),
        "Z31": ([_cycle(31)], "a", 31),
        "T4": ([_transposition(4), _cycle(4), _merge(4)], "abc", 4**4),
        "T5": ([_transposition(5), _cycle(5), _merge(5)], "abc", 5**5),
    }
    return {name: (generator_dfa(name, gens, alphabet, n), n) for name, (gens, alphabet, n) in specs.items()}


def _verdict(dfa: synlat.Dfa) -> str:
    pt = atoms.build_profile_table(dfa)
    monoid = syntactic.syntactic_monoid(dfa)
    report = reversible.is_reversible(dfa, pt, monoid, quadruple_budget=cli.Budgets.quadruples)
    return render.render_json(render.reversible_payload(report))


def _monoid(name: str, dfa: synlat.Dfa, fmt: str) -> str:
    pt = atoms.build_profile_table(dfa)
    monoid = syntactic.syntactic_monoid(dfa)
    if fmt == "json":
        return render.render_json(render.algebra_payload(name, dfa.alphabet, "monoid", dfa, pt, monoid))
    return render.algebra_text("monoid", dfa, pt, monoid, None, None, False)


def groups_requests() -> list[Request]:
    inputs = _groups_inputs()
    out = []
    for name in ("S4", "D15", "Z31"):
        dfa, n = inputs[name]
        out.append(Request(f"reversible {name}", call=lambda dfa=dfa: _verdict(dfa), reversible=True))
    for name, fmt in (("T4", "json"), ("T5", "table")):
        dfa, n = inputs[name]
        out.append(Request(f"monoid {name} {fmt}", call=lambda name=name, dfa=dfa, fmt=fmt: _monoid(name, dfa, fmt),
                           elements=n, fmt=fmt))
    return out


# --- batch: many small requests on seeded random regexes ---

def _regex_requests(i: int, regex: str, alphabet: str) -> list[Request]:
    """The three automaton levels, monoid, semiring and verdict of one regex.

    Formats rotate with the regex's position i; the monoid has no order
    diagram, so its format alternates between json and table.
    """
    common = ("--regex", regex, "--alphabet", alphabet)
    argvs = (
        ("automaton", "--level", "dfa", *common, "--format", FORMATS[i % 3]),
        ("automaton", "--level", "meet", *common, "--format", FORMATS[(i + 1) % 3]),
        ("automaton", "--level", "lattice", *common, "--format", FORMATS[(i + 2) % 3]),
        ("algebra", "--level", "monoid", *common, "--format", FORMATS[i % 2]),
        ("algebra", "--level", "semiring", *common, "--format", FORMATS[(i + 1) % 3]),
        ("reversible", *common),
    )
    return [Request(" ".join(argv), argv=argv) for argv in argvs]


def batch_requests(seed: int) -> list[Request]:
    """Six requests per seeded regex, and the ANCHOR's six before every 1/ANCHOR_REPEATS of them."""
    anchor = _regex_requests(0, *ANCHOR)
    step = BATCH_REGEXES // ANCHOR_REPEATS
    out = []
    for i, (regex, alphabet) in enumerate(regexgen.corpus(seed, BATCH_REGEXES, BATCH_MAX_NODES)):
        if i % step == 0:
            out.extend(anchor)
        out.extend(_regex_requests(i, regex, alphabet))
    return out


def build(workload: str, seed: int) -> list[Request]:
    if workload == "algebra":
        return algebra_requests()
    if workload == "groups":
        return groups_requests()
    if workload == "batch":
        return batch_requests(seed)
    raise ValueError(f"unknown workload {workload!r}")
