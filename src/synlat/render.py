"""DOT, JSON, and plain-text renderings of automata and algebras.

Everything here is a pure function of canonically numbered structures, so
output bytes are reproducible for a fixed configuration.  Solid labeled
edges are transitions; dashed unlabeled edges are inclusion covers, the
convention of the meet/lattice automaton drawings.
"""

from __future__ import annotations

import json

from .atoms import ProfileTable, bottom, residual_atoms, top
from .automata import Dfa
from .errors import InconsistencyError
from .syntactic import extend_semiring_action, hasse_of_elements
from . import terms


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


def text_table(header, rows) -> str:
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(row):
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
    sep = "  ".join("-" * w for w in widths)
    return "\n".join([fmt(header), sep] + [fmt(r) for r in rows]) + "\n"


def render_json(payload: dict) -> str:
    return json.dumps(payload, ensure_ascii=False, indent=2) + "\n"


# --- automaton documents ---

def automaton_parts(level: str, dfa: Dfa, pt: ProfileTable, automaton):
    """(labels, atomsets, initial, finals, delta, covers) for a level."""
    if level == "dfa":
        labels = dfa.state_labels or tuple(f"q{i}" for i in range(dfa.n_states))
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
    header = ["state", "final"] + list(dfa.alphabet)
    rows = []
    for i, label in enumerate(labels):
        mark = ("-> " if i == initial else "") + label
        rows.append([mark, "yes" if i in finals else ""] + [labels[delta[i][li]] for li in range(len(dfa.alphabet))])
    return text_table(header, rows)


def automaton_dot(level, dfa, pt, automaton) -> str:
    labels, _, initial, finals, delta, covers = automaton_parts(level, dfa, pt, automaton)
    return dot_automaton(labels, initial, finals, dfa.alphabet, delta, covers)


# --- algebra documents ---

def _dfa_labels(dfa):
    return dfa.state_labels or tuple(f"q{i}" for i in range(dfa.n_states))


def _column_states(level, dfa, pt, meet_aut, lattice_aut, suppress):
    """Column atomsets and labels for the element tables."""
    if suppress:
        labels = _dfa_labels(dfa)
        return [
            (residual_atoms(pt, q), labels[q])
            for q in range(dfa.n_states)
            if residual_atoms(pt, q) not in (top(pt), bottom(pt))
        ]
    if level == "monoid":
        labels = _dfa_labels(dfa)
        return [(residual_atoms(pt, q), labels[q]) for q in range(dfa.n_states)]
    if level == "semiring":
        return list(zip(meet_aut.states, meet_aut.labels()))
    return list(zip(lattice_aut.states, lattice_aut.labels()))


def _image_label(x, state_labels):
    try:
        return state_labels[x]
    except KeyError:
        raise InconsistencyError("image is not a state of the canonical automaton") from None


def algebra_rows(level, dfa, pt, algebra, meet_aut, lattice_aut, suppress):
    """(column labels, element row labels, cell labels) of the transformation table."""
    cols = _column_states(level, dfa, pt, meet_aut, lattice_aut, suppress)
    dfa_labels = _dfa_labels(dfa)
    rows = []
    if level == "monoid":
        for e in algebra.elements:
            cells = []
            for x, _ in cols:
                q = next(q for q in range(dfa.n_states) if residual_atoms(pt, q) == x)
                cells.append(dfa_labels[e.mapping[q]])
            rows.append((terms.word_str(e.witness), cells))
    elif level == "semiring":
        state_labels = dict(zip(meet_aut.states, meet_aut.labels()))
        for e in algebra.elements:
            cells = [
                _image_label(extend_semiring_action(pt, e.mapping, x), state_labels)
                for x, _ in cols
            ]
            rows.append((terms.meet_form_str(e.witness), cells))
    else:
        state_labels = dict(zip(lattice_aut.states, lattice_aut.labels()))
        for e in algebra.elements:
            cells = [
                _image_label(terms.eval_lattice_form(pt, x, e.witness), state_labels)
                for x, _ in cols
            ]
            rows.append((terms.lattice_form_str(e.witness), cells))
    return [label for _, label in cols], rows


def algebra_payload(regex_text, alphabet, level, dfa, pt, algebra) -> dict:
    elements = []
    if level == "monoid":
        for i, e in enumerate(algebra.elements):
            elements.append({
                "id": i,
                "witness": e.witness,
                "images": [list(residual_atoms(pt, q).indices()) for q in e.mapping],
            })
        tables = {"mul": [list(r) for r in algebra.table]}
        covers = []
    elif level == "semiring":
        for i, e in enumerate(algebra.elements):
            elements.append({
                "id": i,
                "witness": list(e.witness),
                "images": [list(x.indices()) for x in e.mapping],
            })
        tables = {
            "mul": [list(r) for r in algebra.mul_table],
            "meet": [list(r) for r in algebra.meet_table],
        }
        covers = hasse_of_elements(algebra).covers
    else:
        for i, e in enumerate(algebra.elements):
            elements.append({
                "id": i,
                "witness": [list(u) for u in e.witness],
                "images": [list(x.indices()) for x in e.mapping],
            })
        tables = {
            "mul": [list(r) for r in algebra.mul_table],
            "meet": [list(r) for r in algebra.meet_table],
            "join": [list(r) for r in algebra.join_table],
        }
        covers = hasse_of_elements(algebra).covers
    return {
        "alphabet": list(alphabet),
        "regex": regex_text,
        "level": level,
        "elements": elements,
        "tables": tables,
        "hasse": [list(c) for c in covers],
    }


def algebra_text(level, dfa, pt, algebra, meet_aut, lattice_aut, suppress) -> str:
    col_labels, rows = algebra_rows(level, dfa, pt, algebra, meet_aut, lattice_aut, suppress)
    header = ["element"] + col_labels
    return text_table(header, [[label] + cells for label, cells in rows])


def algebra_dot(level, algebra) -> str:
    if level == "monoid":
        raise ValueError("the monoid carries no order diagram; use json or table")
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
