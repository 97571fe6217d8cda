"""render_json and text_table against the code they replace.

render_json must write exactly json.dumps(payload, ensure_ascii=False,
indent=2) + "\\n".  It writes lists of plain ints on a fast path, so the
payloads mix ints with bools (which must not take it), big and negative
ints, None, empty containers and strings that need escaping.  It converts
each distinct int and dict key once per call, so the payloads draw keys and
ints from small sets too, to be met again.

text_table must pad and strip as the per-cell ljust/rstrip code below did.
"""

import json

from hypothesis import given, strategies as st

from synlat.render import render_json, text_table

ESCAPED = st.sampled_from(['"', "\\", "\x00", "\x1f", "\n", "\t", "\x7f", "\u2028", "\u2029", "é", "λ", "⊤", "😀"])
TEXT = st.text(ESCAPED | st.characters(), max_size=8)
INTS = (
    st.integers()
    | st.integers(min_value=-2, max_value=3)
    | st.integers(min_value=2**64, max_value=2**80)
    | st.integers(min_value=-(2**80), max_value=-(2**64))
)
SCALARS = st.none() | st.booleans() | INTS | TEXT
KEYS = st.sampled_from(["id", "images", "λ", "", '"', "1", "true"]) | TEXT


def containers(children):
    items = st.lists(children, max_size=5)
    return items | items.map(tuple) | st.lists(INTS, max_size=5) | st.dictionaries(KEYS, children, max_size=5)


PAYLOADS = st.dictionaries(KEYS, st.recursive(SCALARS, containers, max_leaves=12), max_size=6)


@given(PAYLOADS)
def test_render_json_matches_indented_json_dumps(payload):
    assert render_json(payload) == json.dumps(payload, ensure_ascii=False, indent=2) + "\n"


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


@given(tables())
def test_text_table_matches_the_per_cell_reference(table):
    header, rows = table
    assert text_table(header, rows) == reference_text_table(header, rows)


def test_text_table_edge_cases():
    cases = [
        (["element"], []),                               # no rows
        (["element"], [["λ"], ["⊤"]]),                   # no state columns
        (["element", ""], [["λ", ""], ["a∧b", ""]]),     # an all-empty column
        (["", ""], [["", ""]]),                          # nothing but empty cells
        (["{}", "{0}"], [["{", "}"], ["{0:>3}", " "]]),  # format syntax in cells
    ]
    for header, rows in cases:
        assert text_table(header, rows) == reference_text_table(header, rows)
    assert text_table(["element"], []) == "element\n-------\n"
