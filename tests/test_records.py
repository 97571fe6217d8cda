"""The record classes: constructors, reprs, equality, hashing and immutability.

Every public class that holds a fixed set of fields behaves as a frozen
record: it prints as Name(field=value, ...), equals another exactly when
both are of one class and their compared fields are equal, hashes alike when
equal, and refuses assignment with AttributeError.  cli.Budgets alone is
mutable, and so unhashable.
"""

import pickle

import pytest
from hypothesis import given, strategies as st

from synlat import atoms, automata, canonical as cn, cli, oracle, regex as rx, reversible as rv, syntactic as sy
from synlat import terms as tm
from synlat.errors import InputError
from synlat.records import Record

a, b = rx.Letter("a"), rx.Letter("b")
sa, sb = tm.Sym("a"), tm.Sym("b")

_AUTOMATON = [
    ("table", "pt", "pt2"),
    ("states", ("s",), ("t",)),
    ("witnesses", ((),), (("a",),)),
    ("delta", ((0,),), ((1,),)),
    ("initial", 0, 1),
    ("finals", frozenset({0}), frozenset()),
    ("order", "o", "p"),
]

# (class, its constructor's fields in order as (name, value, another value),
#  the fields == ignores, the fields repr leaves out).  The values need not
#  have the types the package builds them from: a record checks none.
RECORDS = [
    (rx.Empty, [], (), ()),
    (rx.Epsilon, [], (), ()),
    (rx.Letter, [("char", "a", "b")], (), ()),
    (rx.Concat, [("parts", (a, b), (b, a))], (), ()),
    (rx.Union, [("parts", (a, b), (b, a))], (), ()),
    (rx.Star, [("inner", a, b)], (), ()),
    (rx.RegexAst, [("root", a, rx.Star(a)), ("alphabet", ("a",), ("a", "b"))], (), ()),
    (tm.Sym, [("char", "a", "b")], (), ()),
    (tm.Lam, [], (), ()),
    (tm.TopT, [], (), ()),
    (tm.BotT, [], (), ()),
    (tm.Cat, [("left", sa, sb), ("right", sb, tm.Lam())], (), ()),
    (tm.Meet, [("left", sa, sb), ("right", sb, tm.Lam())], (), ()),
    (tm.Join, [("left", sa, sb), ("right", sb, tm.Lam())], (), ()),
    (automata.Dfa, [
        ("alphabet", ("a", "b"), ("b", "a")),
        ("delta", ((1, 0), (1, 1)), ((0, 1), (1, 1))),
        ("initial", 0, 1),
        ("finals", frozenset({1}), frozenset()),
        ("state_labels", ("x", "y"), None),
    ], (), ()),
    (cn.HasseDiagram, [("covers", ((0, 1),), ())], (), ()),
    (cn.MeetAutomaton, _AUTOMATON, (), ()),
    (cn.LatticeAutomaton, _AUTOMATON, (), ()),
    (sy.SyntacticMonoid, [
        ("dfa", "d", "e"),
        ("elements", ("x",), ("y",)),
        ("identity", 0, 1),
        ("table", ((0,),), ((1,),)),
        ("letter_elements", (0,), (1,)),
        ("index", {"m": 0}, {"n": 0}),
        ("right", ((0,),), ((1,),)),
    ], ("table", "index", "right"), ("index", "right")),
    (sy.SemiringElement, [("mapping", ("m",), ("n",)), ("witness", ("a",), ("b",))], (), ()),
    (sy.LatticeAlgebraElement, [("mapping", ("m",), ("n",)), ("witness", (("a",),), ())], (), ()),
    (sy.SyntacticSemiring, [
        ("pt", "pt", "pt2"),
        ("dfa", "d", "e"),
        ("elements", ("x",), ("y",)),
        ("one", 0, 1),
        ("top", 1, 0),
        ("letter_elements", (0,), (1,)),
        ("meet_table", ((0,),), ((1,),)),
        ("mul_table", ((1,),), ((0,),)),
        ("order", "o", "p"),
    ], (), ()),
    (sy.SyntacticLatticeAlgebra, [
        ("pt", "pt", "pt2"),
        ("dfa", "d", "e"),
        ("elements", ("x",), ("y",)),
        ("one", 0, 1),
        ("top", 1, 0),
        ("bottom", 2, 3),
        ("generators", (0,), (1,)),
        ("meet_table", ((0,),), ((1,),)),
        ("join_table", ((1,),), ((0,),)),
        ("mul_table", ((2,),), None),
        ("order", "o", "p"),
        ("columns", ("c",), None),
    ], (), ()),
    (sy.AxiomViolation, [("law", "idem", "comm"), ("operands", (0, 1), (1,)), ("lhs", 0, 1), ("rhs", 1, 0)], (), ()),
    (sy.AxiomReport, [("violations", (), ("v",)), ("checked", 3, 4), ("truncated", False, True)], (), ()),
    (rv.ForbiddenWitness, [("f", 0, 9), ("g", 1, 9), ("h", 2, 9), ("x", "a", "b"), ("y", "b", "a")], (), ()),
    (rv.IdentityCounterexample, [
        ("p", "a", "b"), ("u", "", "a"), ("v", "b", ""), ("w", "ab", "ba"),
        ("state", 0, 1), ("lhs", "L", "M"), ("rhs", "R", "S"),
    ], (), ()),
    (rv.ReversibilityReport, [("reversible", True, False), ("forbidden", None, "f"), ("identity_counterexample", None, "c")], (), ()),
    (oracle.OracleConfig, [("max_word_len", 3, 4), ("max_term_nodes", 3, 5)], (), ()),
    (cli.Budgets, [("profiles", 1, 2), ("states", 3, 4), ("elements", 5, 6), ("quadruples", 7, 8)], (), ()),
]
IDS = [spec[0].__name__ for spec in RECORDS]
GENERIC = [spec for spec in RECORDS if spec[0].__init__ is Record.__init__]
DEFAULTS = {(sy.SyntacticLatticeAlgebra, "columns"): None, (sy.AxiomReport, "truncated"): False}
# the classes that validate their arguments, derive a field or are built in bulk
OWN_INIT = {automata.Dfa, cli.Budgets, oracle.OracleConfig, rx.Letter, rx.Star, rx.Concat, rx.Union,
            atoms.AtomSet, sy._Element}
ABSTRACT = {rx.Node, tm.Term}   # bases, never built
NOT_IN_RECORDS = {atoms.AtomSet}   # equal only over one table object: test_atom_sets_are_equal_only_over_one_table
MUTABLE = {cli.Budgets}
SLOTTED = {rx.Empty, rx.Epsilon, rx.Letter, rx.Concat, rx.Union, rx.Star,
           tm.Sym, tm.Lam, tm.TopT, tm.BotT, tm.Cat, tm.Meet, tm.Join}


def _build(cls, fields, changed=None):
    """cls over the first values, or with the other value in the field named changed."""
    return cls(*(other if name == changed else value for name, value, other in fields))


@pytest.mark.parametrize("cls,fields,ignored,hidden", RECORDS, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, fields, ignored, hidden):
    positional = _build(cls, fields)
    keyword = cls(**{name: value for name, value, _ in fields})
    for name, value, _ in fields:
        assert getattr(positional, name) is value and getattr(keyword, name) is value
    assert repr(positional) == repr(keyword) and positional == keyword


@pytest.mark.parametrize("cls,fields,ignored,hidden", RECORDS, ids=IDS)
def test_repr_names_the_class_and_each_shown_field(cls, fields, ignored, hidden):
    shown = ", ".join(f"{name}={value!r}" for name, value, _ in fields if name not in hidden)
    assert repr(_build(cls, fields)) == f"{cls.__name__}({shown})"


@pytest.mark.parametrize("cls,fields,ignored,hidden", RECORDS, ids=IDS)
def test_equal_iff_the_compared_fields_are_equal(cls, fields, ignored, hidden):
    x, y = _build(cls, fields), _build(cls, fields)
    assert x == y and not x != y
    if cls in MUTABLE:
        assert cls.__hash__ is None
    else:
        assert hash(x) == hash(y)
    for name, _, _ in fields:
        z = _build(cls, fields, changed=name)
        assert (x == z) == (name in ignored) and (x != z) == (name not in ignored)
        if name in ignored:
            assert hash(x) == hash(z)
    assert x != (cls, tuple(value for _, value, _ in fields)) and x != object()


@pytest.mark.parametrize("cls,fields,ignored,hidden", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, fields, ignored, hidden):
    x = _build(cls, fields)
    if cls not in MUTABLE:
        with pytest.raises(AttributeError):
            x.no_such_field = 1
    for name, value, other in fields:
        if cls in MUTABLE:
            x = _build(cls, fields)
            setattr(x, name, other)
            assert getattr(x, name) is other
            continue
        with pytest.raises(AttributeError):
            setattr(x, name, other)
        with pytest.raises(AttributeError):
            delattr(x, name)
        assert getattr(x, name) is value


@pytest.mark.parametrize("cls,fields,ignored,hidden", RECORDS, ids=IDS)
def test_pickling_round_trips(cls, fields, ignored, hidden):
    x = _build(cls, fields)
    y = pickle.loads(pickle.dumps(x))
    assert type(y) is cls and y == x and repr(y) == repr(x)


@pytest.mark.parametrize("cls,fields,ignored,hidden", GENERIC, ids=[spec[0].__name__ for spec in GENERIC])
def test_generic_constructor_refuses_wrong_arguments(cls, fields, ignored, hidden):
    values = [value for _, value, _ in fields]
    with pytest.raises(TypeError):
        cls(*values, "extra")
    with pytest.raises(TypeError):
        cls(*values, no_such_field=1)
    for i, (name, value, _) in enumerate(fields):
        with pytest.raises(TypeError):
            cls(*values[: i + 1], **{name: value})
        rest = {other: v for other, v, _ in fields if other != name}
        if (cls, name) in DEFAULTS:
            assert getattr(cls(**rest), name) is DEFAULTS[cls, name]
        else:
            with pytest.raises(TypeError):
                cls(**rest)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_public_record_class_is_pinned_and_only_the_listed_ones_write_init():
    import synlat, synlat.cli, synlat.oracle   # every module that defines a record class
    found = set(_subclasses(Record))
    public = {c for c in found if not c.__name__.startswith("_") and c.__module__.startswith("synlat.")}
    assert public - ABSTRACT - NOT_IN_RECORDS == {spec[0] for spec in RECORDS}
    assert {c for c in found if "__init__" in vars(c)} == OWN_INIT


@pytest.mark.parametrize("cls", sorted(SLOTTED, key=lambda c: c.__name__), ids=lambda c: c.__name__)
def test_syntax_tree_nodes_have_slots_and_no_dict(cls):
    fields = next(spec[1] for spec in RECORDS if spec[0] is cls)
    assert not hasattr(_build(cls, fields), "__dict__")


def test_built_algebras_pickle_through_their_tables_as_tuples():
    dfa = rx.compile_canonical_dfa(rx.parse_regex("(a|b)*abb", "ab"))
    monoid = sy.syntactic_monoid(dfa)
    copy = pickle.loads(pickle.dumps(monoid))
    assert copy == monoid and copy.table == monoid.table and type(copy.table) is tuple
    assert (copy.index, copy.right) == (monoid.index, monoid.right)
    pt = atoms.build_profile_table(dfa)
    for alg in (sy.syntactic_semiring(pt, dfa), sy.syntactic_lattice_algebra(pt, dfa)):
        copy = pickle.loads(pickle.dumps(alg))
        for name in ("meet_table", "join_table", "mul_table"):
            if name in alg._fields:
                assert getattr(copy, name) == getattr(alg, name) and type(getattr(copy, name)) is tuple
        assert copy.labels() == alg.labels() and copy.order == alg.order and copy.dfa == alg.dfa
        assert [[s.bits for s in e.mapping] for e in copy.elements] == [[s.bits for s in e.mapping] for e in alg.elements]
        # its AtomSets belong to the copy's own profile table, so the copy equals no original
        assert all(s.table is copy.pt for e in copy.elements for s in e.mapping) and copy != alg


@pytest.mark.parametrize(
    "left,right",
    [
        (rx.Empty(), rx.Epsilon()),
        (rx.Concat((a, b)), rx.Union((a, b))),
        (rx.Letter("a"), tm.Sym("a")),
        (tm.Lam(), tm.TopT()),
        (tm.TopT(), tm.BotT()),
        (tm.Cat(sa, sb), tm.Meet(sa, sb)),
        (tm.Meet(sa, sb), tm.Join(sa, sb)),
        (cn.MeetAutomaton(*(v for _, v, _ in _AUTOMATON)), cn.LatticeAutomaton(*(v for _, v, _ in _AUTOMATON))),
        (sy.SemiringElement(("m",), ("a",)), sy.LatticeAlgebraElement(("m",), ("a",))),
    ],
    ids=lambda x: type(x).__name__,
)
def test_records_of_two_classes_differ_on_equal_fields(left, right):
    assert left != right and right != left and not left == right


def test_defaults_apply_and_are_class_attributes():
    assert (automata.Dfa.state_labels, sy.AxiomReport.truncated, sy.SyntacticLatticeAlgebra.columns) == (None, False, None)
    assert (oracle.OracleConfig.max_word_len, oracle.OracleConfig.max_term_nodes) == (3, 3)
    assert (cli.Budgets.profiles, cli.Budgets.states, cli.Budgets.elements, cli.Budgets.quadruples) == (
        atoms.DEFAULT_PROFILE_BUDGET, automata.DEFAULT_STATE_BUDGET, sy.DEFAULT_ELEMENT_BUDGET, rv.DEFAULT_QUADRUPLE_BUDGET
    )
    dfa = automata.Dfa(("a",), ((0,),), 0, frozenset())
    assert dfa.state_labels is None
    assert sy.AxiomReport((), 0).truncated is False
    assert sy.SyntacticLatticeAlgebra(*"abcdefghijk").columns is None
    assert (oracle.OracleConfig().max_word_len, oracle.OracleConfig().max_term_nodes) == (3, 3)
    assert oracle.OracleConfig(5) == oracle.OracleConfig(5, 3) == oracle.OracleConfig(max_word_len=5)
    assert cli.Budgets() == cli.Budgets(
        atoms.DEFAULT_PROFILE_BUDGET, automata.DEFAULT_STATE_BUDGET, sy.DEFAULT_ELEMENT_BUDGET, rv.DEFAULT_QUADRUPLE_BUDGET
    )
    assert repr(cli.Budgets(states=9)) == (
        f"Budgets(profiles={atoms.DEFAULT_PROFILE_BUDGET}, states=9, "
        f"elements={sy.DEFAULT_ELEMENT_BUDGET}, quadruples={rv.DEFAULT_QUADRUPLE_BUDGET})"
    )


def test_dfa_letter_index_is_built_hidden_ignored_and_frozen():
    dfa = automata.Dfa(("a", "b"), ((1, 0), (1, 1)), 0, frozenset({1}))
    assert dfa._letter_index == {"a": 0, "b": 1} and "_letter_index" not in repr(dfa)
    other = automata.Dfa(("a", "b"), ((1, 0), (1, 1)), 0, frozenset({1}))
    object.__setattr__(other, "_letter_index", {})
    assert dfa == other and hash(dfa) == hash(other)
    with pytest.raises(AttributeError):
        dfa._letter_index = {}
    with pytest.raises(TypeError):
        automata.Dfa(("a",), ((0,),), 0, frozenset(), None, {})
    with pytest.raises(ValueError, match="^initial state out of range$"):
        automata.Dfa(("a",), ((0,),), 1, frozenset())


def test_atom_sets_are_equal_only_over_one_table():
    table, twin = ["t"], ["t"]
    x = atoms.AtomSet(table, 3)
    assert x == atoms.AtomSet(table, 3) and hash(x) == hash(atoms.AtomSet(table, 3))
    assert x != atoms.AtomSet(twin, 3) and x != atoms.AtomSet(table, 1)
    assert repr(x) == "AtomSet(table=['t'], bits=3)"


@pytest.mark.parametrize("name", ["profiles", "states", "elements", "quadruples"])
def test_a_non_positive_budget_is_an_input_error(name):
    """The CLI exits 2 on it (test_cli.test_non_positive_budget_exits_2)."""
    for value in (0, -1):
        with pytest.raises(InputError, match=f"^budget {name} must be positive$"):
            cli.Budgets(**{name: value})


def test_oracle_bounds_must_be_positive():
    for args in ((0, 3), (3, 0)):
        with pytest.raises(ValueError, match="^oracle bounds must be positive$"):
            oracle.OracleConfig(*args)


# --- == and hash against a reference (class, fields) tuple, on random trees ---

def _regex_reference(node):
    if isinstance(node, rx.Letter):
        return (rx.Letter, node.char)
    if isinstance(node, (rx.Concat, rx.Union)):
        return (type(node), tuple(map(_regex_reference, node.parts)))
    if isinstance(node, rx.Star):
        return (type(node), _regex_reference(node.inner))
    return (type(node),)


def _term_reference(t):
    if isinstance(t, tm.Sym):
        return (tm.Sym, t.char)
    if isinstance(t, (tm.Cat, tm.Meet, tm.Join)):
        return (type(t), _term_reference(t.left), _term_reference(t.right))
    return (type(t),)


# small alphabets and trees, so that two draws are often equal
regex_trees = st.recursive(
    st.one_of(st.builds(rx.Empty), st.builds(rx.Epsilon), st.builds(rx.Letter, st.sampled_from("ab"))),
    lambda kids: st.one_of(
        st.builds(rx.Star, kids),
        st.builds(rx.Concat, st.lists(kids, min_size=2, max_size=3).map(tuple)),
        st.builds(rx.Union, st.lists(kids, min_size=2, max_size=3).map(tuple)),
    ),
    max_leaves=4,
)
term_trees = st.recursive(
    st.one_of(st.builds(tm.Lam), st.builds(tm.TopT), st.builds(tm.BotT), st.builds(tm.Sym, st.sampled_from("ab"))),
    lambda kids: st.one_of(st.builds(tm.Cat, kids, kids), st.builds(tm.Meet, kids, kids), st.builds(tm.Join, kids, kids)),
    max_leaves=4,
)


def _rebuild_regex(ref):
    cls, *rest = ref
    if cls is rx.Letter:
        return cls(rest[0])
    if cls in (rx.Concat, rx.Union):
        return cls(tuple(map(_rebuild_regex, rest[0])))
    if cls is rx.Star:
        return cls(_rebuild_regex(rest[0]))
    return cls()


def _rebuild_term(ref):
    cls, *rest = ref
    if cls is tm.Sym:
        return cls(rest[0])
    if rest:
        return cls(*map(_rebuild_term, rest))
    return cls()


def _agree(x, y, reference):
    assert (x == y) == (reference(x) == reference(y))
    assert (x != y) == (reference(x) != reference(y))
    if x == y:
        assert hash(x) == hash(y) and repr(x) == repr(y)


@given(regex_trees, regex_trees)
def test_regex_nodes_compare_as_their_class_and_fields_on_random_trees(x, y):
    _agree(x, y, _regex_reference)
    copy = _rebuild_regex(_regex_reference(x))
    assert copy is not x
    _agree(x, copy, _regex_reference)


@given(term_trees, term_trees)
def test_terms_compare_as_their_class_and_fields_on_random_trees(x, y):
    _agree(x, y, _term_reference)
    copy = _rebuild_term(_term_reference(x))
    assert copy is not x
    _agree(x, copy, _term_reference)


def test_dfa_transformation_is_a_named_tuple_of_mapping_and_witness():
    x = sy.DfaTransformation((1, 0), "ab")
    assert repr(x) == "DfaTransformation(mapping=(1, 0), witness='ab')"
    assert x == ((1, 0), "ab") == sy.DfaTransformation(mapping=(1, 0), witness="ab") and hash(x) == hash(((1, 0), "ab"))
    assert x != sy.DfaTransformation((1, 0), "ba") and x != sy.DfaTransformation((0, 1), "ab")
    made = sy.DfaTransformation._make(iter([(1, 0), "ab"]))
    assert type(made) is sy.DfaTransformation and made == x and (made.mapping, made.witness) == ((1, 0), "ab")
    assert sy.DfaTransformation._fields == ("mapping", "witness") and pickle.loads(pickle.dumps(x)) == x
    assert sy.DfaTransformation.__doc__.startswith("Action of a word on the DFA states")
    with pytest.raises(AttributeError):
        x.mapping = (0, 1)
