"""DOT, JSON, and plain-text renderings of automata and algebras.

Everything here is a pure function of canonically numbered structures, so
output bytes are reproducible for a fixed configuration.  Solid labeled
edges are transitions; dashed unlabeled edges are inclusion covers, the
convention of the meet/lattice automaton drawings.
"""

from __future__ import annotations

import json
from itertools import chain, repeat

from .atoms import ProfileTable, bit_indices, bottom, residual_atoms, top
from .automata import Dfa
from .errors import InconsistencyError
from .syntactic import IntRows, Memo, hasse_of_elements


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def dot_automaton(labels, initial, finals, alphabet, delta, covers) -> str:
    lines = ["digraph {", "  rankdir=LR;", '  __start [shape=none, label=""];']
    for i, label in enumerate(labels):
        shape = "doublecircle" if i in finals else "circle"
        lines.append(f"  q{i} [shape={shape}, label={_quote(label)}];")
    lines.append(f"  __start -> q{initial};")
    for i, row in enumerate(delta):
        for li, t in enumerate(row):
            lines.append(f"  q{i} -> q{t} [label={_quote(alphabet[li])}];")
    for lo, hi in covers:
        lines.append(f"  q{lo} -> q{hi} [style=dashed, arrowhead=none];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def dot_order(labels, covers) -> str:
    lines = ["digraph {", "  rankdir=BT;"]
    for i, label in enumerate(labels):
        lines.append(f"  e{i} [shape=box, label={_quote(label)}];")
    for lo, hi in covers:
        lines.append(f"  e{lo} -> e{hi} [style=dashed, arrowhead=none];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def text_table(header, columns) -> str:
    """A table given column by column: header[k] heads the cells columns[k], each a sequence.

    Each column is left-justified to its widest cell, header included, and
    the columns stand two spaces apart; every line but the rule under the
    header has its trailing blanks cut.  The cells are padded a column at a
    time and the lines joined a row at a time, each step one map.
    """
    widths = [max(len(title), max(map(len, column), default=0)) for title, column in zip(header, columns)]
    padded = [map(str.ljust, column, repeat(width)) for column, width in zip(columns, widths)]
    head = "  ".join(map(str.ljust, header, widths)).rstrip()
    rule = "  ".join(map("-".__mul__, widths))
    return "\n".join(chain((head, rule), map(str.rstrip, map("  ".join, zip(*padded))), ("",)))


_encode_scalar = json.JSONEncoder(ensure_ascii=False).encode


def render_json(payload: dict) -> str:
    """json.dumps(payload, ensure_ascii=False, indent=2) and a newline, byte for byte.

    With indent the stdlib runs its pure-Python encoder, which builds a
    string per container and copies it into its parent's.  This writer
    appends every piece of the document to one flat list and joins it once
    at the end.  Rows of ints are written with one join per row: an IntRows
    (an algebra's table) as it is, since it holds plain ints only, and a
    list or tuple of lists of ints once one type check run in C finds plain
    ints in every cell.  The tables repeat a few ids, and the elements
    a few witness words, many times, so each distinct int and string is
    encoded once per call.  Keys must be strings, as in every payload here.
    """
    out = []
    _json(payload, "\n", out, Memo(str), Memo(_encode_scalar))
    out.append("\n")
    return "".join(out)


def _json(obj, nl: str, out: list, ints: Memo, strs: Memo) -> None:
    """Append obj as indented JSON to out; nl is a newline followed by obj's own indent.

    ints and strs hold the encodings of the ints and strings met so far in
    this document.  Only plain ints enter ints: True == 1 shares 1's slot.
    An IntRows is trusted to hold plain ints; every list and tuple is
    checked.  Anything else goes to the encoder without indent, so bools
    still print as true and false.
    """
    kind = type(obj)
    if kind is int:
        out.append(ints[obj])
    elif kind is str:
        out.append(strs[obj])
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = nl + "  "
        sep, comma = "{" + inner, "," + inner
        for k, v in obj.items():
            out += (sep, strs[k], ": ")
            _json(v, inner, out, ints, strs)
            sep = comma
        out += (nl, "}")
    elif kind is IntRows or isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = nl + "  "
        sep, comma = "[" + inner, "," + inner
        rows = kind is IntRows
        if not rows:
            kinds = set(map(type, obj))
            if kinds == {int}:
                out += (sep, comma.join(map(ints.__getitem__, obj)), nl, "]")
                return
            rows = kinds <= {list, tuple} and set(map(type, chain.from_iterable(obj))) == {int}
        if rows:
            cell = inner + "  "
            between, open_row, close_row = "," + cell, "[" + cell, inner + "]"
            for row in obj:
                if row:
                    out += (sep, open_row, between.join(map(ints.__getitem__, row)), close_row)
                else:
                    out += (sep, "[]")
                sep = comma
        else:
            for v in obj:
                out.append(sep)
                _json(v, inner, out, ints, strs)
                sep = comma
        out += (nl, "]")
    else:
        out.append(_encode_scalar(obj))


# --- automaton documents ---

def _dfa_labels(dfa):
    return dfa.state_labels or tuple(f"q{i}" for i in range(dfa.n_states))


def automaton_parts(level: str, dfa: Dfa, pt: ProfileTable, automaton):
    """(labels, atomsets, initial, finals, delta, covers) for a level."""
    if level == "dfa":
        labels = _dfa_labels(dfa)
        atomsets = tuple(residual_atoms(pt, q) for q in range(dfa.n_states))
        return labels, atomsets, dfa.initial, dfa.finals, dfa.delta, ()
    labels = automaton.labels()
    return labels, automaton.states, automaton.initial, automaton.finals, automaton.delta, automaton.order.covers


def automaton_payload(regex_text, alphabet, level, dfa, pt, automaton) -> dict:
    labels, atomsets, initial, finals, delta, covers = automaton_parts(level, dfa, pt, automaton)
    return {
        "alphabet": list(alphabet),
        "regex": regex_text,
        "level": level,
        "initial": initial,
        "states": [
            {
                "id": i,
                "label": labels[i],
                "final": i in finals,
                "atomset": list(atomsets[i].indices()),
            }
            for i in range(len(labels))
        ],
        "transitions": [
            [i, alphabet[li], delta[i][li]] for i in range(len(labels)) for li in range(len(alphabet))
        ],
        "hasse": [list(c) for c in covers],
    }


def automaton_text(level, dfa, pt, automaton) -> str:
    labels, _, initial, finals, delta, _ = automaton_parts(level, dfa, pt, automaton)
    states = list(labels)
    states[initial] = "-> " + states[initial]
    final = ["yes" if i in finals else "" for i in range(len(labels))]
    targets = [list(map(labels.__getitem__, column)) for column in zip(*delta)]
    return text_table(["state", "final", *dfa.alphabet], [states, final, *targets])


def automaton_dot(level, dfa, pt, automaton) -> str:
    labels, _, initial, finals, delta, covers = automaton_parts(level, dfa, pt, automaton)
    return dot_automaton(labels, initial, finals, dfa.alphabet, delta, covers)


# --- algebra documents ---

def _table_columns(level, dfa, pt, meet_aut, lattice_aut, suppress):
    """(column states, column labels, state → cell label) of an element table.

    Monoid states are DFA state numbers; the semiring's and the lattice
    algebra's are AtomSets, labelled by the meet or lattice automaton.
    """
    if level == "monoid":
        cell_labels = dict(enumerate(_dfa_labels(dfa)))
    else:
        aut = meet_aut if level == "semiring" else lattice_aut
        cell_labels = dict(zip(aut.states, aut.labels()))
    if suppress:
        dfa_labels = _dfa_labels(dfa)
        qs = [q for q in range(dfa.n_states) if residual_atoms(pt, q) not in (top(pt), bottom(pt))]
        states = qs if level == "monoid" else [residual_atoms(pt, q) for q in qs]
        return states, [dfa_labels[q] for q in qs], cell_labels
    return list(cell_labels), list(cell_labels.values()), cell_labels


def _mul_table(algebra):
    """A semiring's or lattice algebra's product table, an IntRows whose rows are built as they
    are read; a lattice algebra built with with_tables=False has none."""
    if algebra.mul_table is None:
        raise ValueError("algebra was built without multiplication tables")
    return algebra.mul_table


def table_images(level, dfa, algebra, states):
    """columns[k][e]: the state states[k] acted on by element e, one column per state.

    A monoid element's mapping acts on every DFA state, so the columns are
    read off the mappings and no row of the Cayley table is built.  For the
    other levels each state X is the initial column's image under some
    element c, and X·e is then the initial column's image under c·e, read
    off the product table.
    """
    if level == "monoid":
        by_state = list(zip(*(e.mapping for e in algebra.elements)))
        return [by_state[q] for q in states]
    initial = [e.mapping[dfa.initial] for e in algebra.elements]
    mul = _mul_table(algebra)
    reached = {}
    for c, x in enumerate(initial):
        reached.setdefault(x, c)
    try:
        return [list(map(initial.__getitem__, mul[reached[x]])) for x in states]
    except KeyError:
        raise InconsistencyError("column is not an image of the initial column") from None


def algebra_payload(regex_text, alphabet, level, dfa, pt, algebra) -> dict:
    """The algebra document; its tuples and IntRows serialize as JSON arrays (json.dumps
    needs default=tuple for the IntRows), so writing it builds every table row."""
    if level == "monoid":
        residuals = [residual_atoms(pt, q).indices() for q in range(dfa.n_states)]
        images = [list(map(residuals.__getitem__, e.mapping)) for e in algebra.elements]
        tables = {"mul": algebra.table}
        covers = ()
    else:
        indices = Memo(lambda bits: tuple(bit_indices(bits)))   # each distinct image converted once
        images = [[indices[x.bits] for x in e.mapping] for e in algebra.elements]
        tables = {"mul": _mul_table(algebra), "meet": algebra.meet_table}
        if level == "lattice":
            tables["join"] = algebra.join_table
        covers = hasse_of_elements(algebra).covers
    return {
        "alphabet": list(alphabet),
        "regex": regex_text,
        "level": level,
        "elements": [
            {"id": i, "witness": e.witness, "images": m}
            for i, (e, m) in enumerate(zip(algebra.elements, images))
        ],
        "tables": tables,
        "hasse": covers,
    }


def algebra_text(level, dfa, pt, algebra, meet_aut, lattice_aut, suppress) -> str:
    states, col_labels, cell_labels = _table_columns(level, dfa, pt, meet_aut, lattice_aut, suppress)
    images = table_images(level, dfa, algebra, states)
    try:
        columns = [list(map(cell_labels.__getitem__, column)) for column in images]
    except KeyError:
        raise InconsistencyError("image is not a state of the canonical automaton") from None
    return text_table(["element", *col_labels], [algebra.labels(), *columns])


def algebra_dot(algebra) -> str:
    """Order diagram of a semiring or lattice algebra; the monoid has none."""
    labels = algebra.labels()
    return dot_order(labels, hasse_of_elements(algebra).covers)


# --- reversibility document ---

def reversible_payload(report) -> dict:
    witness = None
    if report.forbidden is not None:
        fw = report.forbidden
        witness = {"f": fw.f, "g": fw.g, "h": fw.h, "x": fw.x, "y": fw.y}
    counterexample = None
    if report.identity_counterexample is not None:
        ic = report.identity_counterexample
        counterexample = {
            "p": ic.p,
            "u": ic.u,
            "v": ic.v,
            "w": ic.w,
            "state": ic.state,
            "lhs": list(ic.lhs.indices()),
            "rhs": list(ic.rhs.indices()),
        }
    return {
        "reversible": report.reversible,
        "witness": witness,
        "identity_counterexample": counterexample,
    }
