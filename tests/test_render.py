"""render_json and text_table against the code they replace.

render_json must write exactly json.dumps(payload, ensure_ascii=False,
indent=2) + "\\n".  It appends every piece to one flat list, and writes a
list of plain ints, and a table (an algebra's IntRows, trusted unchecked,
or a list or tuple of such lists, found by one type check over all its
cells), one join per row.  So the payloads mix ints with bools (which
must not take either path), big and negative ints, None, empty
containers and strings that need escaping, and the int tables get a
strategy of their own: empty rows, rows nested one level deeper, and a bool
or None in one cell of any row.  It encodes each distinct int and string,
key or value, once per call, so the payloads draw keys, strings and ints
from small sets too, to be met again.  Real documents (a lattice algebra,
a monoid, a semiring and a verdict) are compared whole.

text_table takes its cells column by column and must pad and strip as the
per-cell, row-by-row ljust/rstrip code below did, given the same table
transposed.
"""

import json

from hypothesis import given, strategies as st

import synlat
from conftest import build
from synlat.render import algebra_payload, render_json, reversible_payload, text_table

ESCAPED = st.sampled_from(['"', "\\", "\x00", "\x1f", "\n", "\t", "\x7f", "\u2028", "\u2029", "é", "λ", "⊤", "😀"])
TEXT = st.text(ESCAPED | st.characters(), max_size=8)
INTS = (
    st.integers()
    | st.integers(min_value=-2, max_value=3)
    | st.integers(min_value=2**64, max_value=2**80)
    | st.integers(min_value=-(2**80), max_value=-(2**64))
)
WORDS = st.sampled_from(["λ", "a", "ab", "", "1", "true", '"'])
SCALARS = st.none() | st.booleans() | INTS | TEXT | WORDS
KEYS = st.sampled_from(["id", "images", "λ", "", '"', "1", "true"]) | TEXT


def containers(children):
    items = st.lists(children, max_size=5)
    return items | items.map(tuple) | st.lists(INTS, max_size=5) | st.dictionaries(KEYS, children, max_size=5)


PAYLOADS = st.dictionaries(KEYS, st.recursive(SCALARS, containers, max_leaves=12), max_size=6)


@given(PAYLOADS)
def test_render_json_matches_indented_json_dumps(payload):
    assert render_json(payload) == json.dumps(payload, ensure_ascii=False, indent=2) + "\n"


def as_json(payload):
    # an algebra document's tables are IntRows, each equal to the tuple of its rows
    return json.dumps(payload, ensure_ascii=False, indent=2, default=tuple) + "\n"


ROWS = st.lists(INTS, max_size=5)   # the empty list gives an empty row
DEEPER = st.lists(ROWS | ROWS.map(tuple), max_size=3)


@st.composite
def int_tables(draw):
    """A list or tuple of int rows, some of them tuples, empty or nested one level deeper,
    with at most one cell of one row spoiled by a bool or None."""
    rows = draw(st.lists(ROWS | ROWS.map(tuple) | DEEPER, min_size=1, max_size=6))
    cells = [(r, c) for r, row in enumerate(rows) for c in range(len(row))]
    if cells and draw(st.booleans()):
        r, c = draw(st.sampled_from(cells))
        row = list(rows[r])
        row[c] = draw(st.booleans() | st.none())
        rows[r] = type(rows[r])(row)
    return draw(st.sampled_from([list, tuple]))(rows)


@st.composite
def nested_tables(draw):
    """Int tables at depths 1 to 4 inside dicts, beside other values."""
    payload = {draw(KEYS): draw(int_tables())}
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        payload = {draw(KEYS): draw(SCALARS), draw(KEYS): payload, draw(KEYS): draw(int_tables())}
    return payload


@given(nested_tables())
def test_render_json_writes_int_tables_as_json_dumps(payload):
    assert render_json(payload) == as_json(payload)


def test_render_json_tables_with_one_bad_cell():
    for bad in (True, False, None):
        for table in (
            [[1, 2], [3, bad]],
            [(bad, 0), (1,)],
            ([0], [], [1, [bad]]),
            [[0, 1], [[2, 3], [bad]]],
            [[], [bad]],
            [[2**70, -1], [bad, 1]],
        ):
            payload = {"t": table, "d": {"t": table, "x": [table, 1]}}
            assert render_json(payload) == as_json(payload)


def test_render_json_matches_json_dumps_on_real_documents():
    _, dfa, pt = build("(a|b)*abb", "ab")
    lattice = synlat.syntactic_lattice_algebra(pt, dfa)
    assert len(lattice) == 137
    _, dfa2, pt2 = build("(aa|ab|bab)*(a|b)b(a|b)", "ab")
    monoid = synlat.syntactic_monoid(dfa2)
    assert len(monoid.elements) == 100
    _, dfa3, pt3 = build("(a|b)*a(a|b)(a|b)", "ab")
    semiring = synlat.syntactic_semiring(pt3, dfa3)
    _, dfa4, pt4 = build("a+b+", "ab")
    report = synlat.is_reversible(dfa4, pt4, synlat.syntactic_monoid(dfa4))
    assert not report.reversible and report.forbidden is not None and report.identity_counterexample is not None
    for payload in (
        algebra_payload("(a|b)*abb", "ab", "lattice", dfa, pt, lattice),
        algebra_payload("(aa|ab|bab)*(a|b)b(a|b)", "ab", "monoid", dfa2, pt2, monoid),
        algebra_payload("(a|b)*a(a|b)(a|b)", "ab", "semiring", dfa3, pt3, semiring),
        reversible_payload(report),
    ):
        assert render_json(payload) == as_json(payload)


def test_render_json_edge_cases():
    payload = {"": [], "d": {}, "bools": [True, 1, False, 0], "ints": (-1, 2**70, 0), "nested": [[], [{}], [None]]}
    assert render_json(payload) == json.dumps(payload, ensure_ascii=False, indent=2) + "\n"
    assert render_json({}) == "{}\n"


def test_render_json_keeps_bools_and_ints_apart_in_either_order():
    # True == 1 and False == 0 hash alike: whichever comes first, the other must not print as it
    for first, second in ((True, 1), (1, True), (False, 0), (0, False)):
        for payload in (
            {"a": first, "b": second},
            {"a": [first, second], "b": [second]},
            {"a": [first], "b": [second, second]},
            {"a": first, "b": [second], "c": [7, second], "d": second},
            {"a": [[first], [second]], "b": (second, first)},
        ):
            assert render_json(payload) == json.dumps(payload, ensure_ascii=False, indent=2) + "\n"


def reference_text_table(header, rows):
    """The per-cell text_table that render.text_table replaced, kept as its reference."""
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def fmt(row):
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
    sep = "  ".join("-" * w for w in widths)
    return "\n".join([fmt(header), sep] + [fmt(r) for r in rows]) + "\n"


CELL_PARTS = st.sampled_from(["λ", "∅", "⊤", "⊥", "∧", "∨", "{", "}", "''", " "])
CELLS = st.lists(CELL_PARTS, max_size=4).map("".join)   # the empty list gives an empty cell


@st.composite
def tables(draw):
    width = draw(st.integers(min_value=1, max_value=5))
    row = st.lists(CELLS, min_size=width, max_size=width)
    return draw(row), draw(st.lists(row, max_size=6))


def columns_of(header, rows):
    """The table's cells column by column, as text_table takes them; one column per header cell
    even when there are no rows."""
    return [[row[k] for row in rows] for k in range(len(header))]


@given(tables())
def test_text_table_matches_the_per_cell_reference(table):
    header, rows = table
    assert text_table(header, columns_of(header, rows)) == reference_text_table(header, rows)


def test_text_table_edge_cases():
    cases = [
        (["element"], []),                               # no rows
        (["element", "q0", "q1"], []),                   # no rows under several columns
        (["element"], [["λ"], ["⊤"]]),                   # no state columns
        (["element", ""], [["λ", ""], ["a∧b", ""]]),     # an all-empty column, last: the rule keeps its blanks
        (["", "q"], [["", "λ"], ["", ""]]),              # an all-empty column, first
        (["", ""], [["", ""]]),                          # nothing but empty cells
        (["{}", "{0}"], [["{", "}"], ["{0:>3}", " "]]),  # format syntax in cells
        (["a ", "b  "], [["λ  ", "⊤ "], [" ", "  "]]),   # cells with trailing blanks
    ]
    for header, rows in cases:
        assert text_table(header, columns_of(header, rows)) == reference_text_table(header, rows)
    assert text_table(["element"], [[]]) == "element\n-------\n"
    assert text_table(["element", ""], [["λ"], [""]]) == "element\n-------  \nλ\n"
    # columns may be any sequences, such as the tuples of a monoid's mappings
    assert text_table(["s", "a"], [("p", "q"), ("q", "p")]) == "s  a\n-  -\np  q\nq  p\n"
