"""render_json against the stdlib writer it replaces.

render_json must write exactly json.dumps(payload, ensure_ascii=False,
indent=2) + "\\n".  It writes lists of plain ints on a fast path, so the
payloads mix ints with bools (which must not take it), big and negative
ints, None, empty containers and strings that need escaping.
"""

import json

from hypothesis import given, strategies as st

from synlat.render import render_json

ESCAPED = st.sampled_from(['"', "\\", "\x00", "\x1f", "\n", "\t", "\x7f", "\u2028", "\u2029", "é", "λ", "⊤", "😀"])
TEXT = st.text(ESCAPED | st.characters(), max_size=8)
INTS = st.integers() | st.integers(min_value=2**64, max_value=2**80) | st.integers(min_value=-(2**80), max_value=-(2**64))
SCALARS = st.none() | st.booleans() | INTS | TEXT


def containers(children):
    items = st.lists(children, max_size=5)
    return items | items.map(tuple) | st.lists(INTS, max_size=5) | st.dictionaries(TEXT, children, max_size=5)


PAYLOADS = st.dictionaries(TEXT, st.recursive(SCALARS, containers, max_leaves=12), max_size=6)


@given(PAYLOADS)
def test_render_json_matches_indented_json_dumps(payload):
    assert render_json(payload) == json.dumps(payload, ensure_ascii=False, indent=2) + "\n"


def test_render_json_edge_cases():
    payload = {"": [], "d": {}, "bools": [True, 1, False, 0], "ints": (-1, 2**70, 0), "nested": [[], [{}], [None]]}
    assert render_json(payload) == json.dumps(payload, ensure_ascii=False, indent=2) + "\n"
    assert render_json({}) == "{}\n"
