import random
from operator import and_, or_
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

import synlat
from synlat import terms as tm
from synlat.atoms import quotient_bits, residual_atoms, unpack_columns
from synlat.automata import close_values
from synlat.canonical import hasse_from_leq, quotient_moves, state_closures
from synlat.errors import BudgetError, InconsistencyError
from synlat.syntactic import (
    AxiomViolation,
    DfaTransformation,
    SyntacticLatticeAlgebra,
    LatticeAlgebraElement,
    _mask_lattice,
    _meet_values,
    _quotients,
    check_lattice_algebra_axioms,
    extend_semiring_action,
    hasse_of_elements,
    multiply_lattice_elements,
    omega_power,
)

from conftest import build, random_ast, random_regex_corpus
from test_automata import states_by_name

# Reference images of the 11 semiring elements, keyed by canonical witness;
# columns in the canonical-DFA order (L, K, ∅, b*) then the meet-automaton
# extras (A*, b+).
SEMIRING_IMAGES = {
    ("",): ("L", "K", "0", "b*", "A*", "b+"),
    ("a",): ("K", "K", "0", "0", "A*", "0"),
    ("b",): ("0", "b*", "0", "b*", "A*", "b*"),
    ("ab",): ("b*", "b*", "0", "0", "A*", "0"),
    ("ba",): ("0", "0", "0", "0", "A*", "0"),
    (): ("A*", "A*", "A*", "A*", "A*", "A*"),
    ("", "a"): ("L", "K", "0", "0", "A*", "0"),
    ("", "b"): ("0", "b+", "0", "b*", "A*", "b+"),
    ("", "ab"): ("0", "b+", "0", "0", "A*", "0"),
    ("a", "ab"): ("b+", "b+", "0", "0", "A*", "0"),
    ("b", "ab"): ("0", "b*", "0", "0", "A*", "0"),
}

# The 22 lattice-algebra element images over the informative residual
# columns (L, K, b*).
LATTICE_IMAGE_TRIPLES = {
    ("L", "K", "b*"), ("K", "K", "0"), ("0", "b*", "b*"), ("b*", "b*", "0"),
    ("0", "0", "0"), ("A*", "A*", "A*"), ("L", "K", "0"), ("0", "b+", "b*"),
    ("0", "b+", "0"), ("b+", "b+", "0"), ("0", "b*", "0"),
    ("L", "Kλ", "0"), ("L", "Kλ", "b*"), ("Kλ", "Kλ", "0"), ("b+", "b+", "b*"),
    ("K", "Kλ", "b*"), ("b*", "b*", "b*"), ("b+", "b*", "0"), ("K", "K", "b*"),
    ("b+", "b*", "b*"), ("K", "Kλ", "0"), ("Kλ", "Kλ", "b*"),
}


def named_atoms(dfa, pt):
    L, K, empty, bstar = states_by_name(dfa)
    aL, aK, aE, aB = (residual_atoms(pt, q) for q in (L, K, empty, bstar))
    return {
        "L": aL, "K": aK, "0": aE, "b*": aB,
        "b+": synlat.meet(aK, aB), "Kλ": synlat.join(aK, aB), "A*": synlat.top(pt),
    }


def atom_name(names, x):
    for k, v in names.items():
        if v == x:
            return k
    raise AssertionError("image is not one of the named states")


@pytest.fixture(scope="module")
def apb():
    _, dfa, pt = build("a+b+", "ab")
    return dfa, pt


@pytest.fixture(scope="module")
def monoid(apb):
    dfa, _ = apb
    return synlat.syntactic_monoid(dfa)


@pytest.fixture(scope="module")
def semiring(apb):
    dfa, pt = apb
    return synlat.syntactic_semiring(pt, dfa)


@pytest.fixture(scope="module")
def algebra(apb):
    dfa, pt = apb
    return synlat.syntactic_lattice_algebra(pt, dfa)


# --- monoid ---

def test_monoid_of_a_plus_b_plus(monoid):
    assert len(monoid) == 5
    assert [e.witness for e in monoid.elements] == ["", "a", "b", "ab", "ba"]


def test_monoid_idempotents_and_zero(monoid):
    ea, eb = monoid.element_of_word("a"), monoid.element_of_word("b")
    assert monoid.table[ea][ea] == ea
    assert monoid.table[eb][eb] == eb
    zero = monoid.element_of_word("ba")
    for x in range(len(monoid)):
        assert monoid.table[zero][x] == zero


def test_monoid_dfa_coherence(monoid, apb):
    dfa, _ = apb
    for e in monoid.elements:
        for q in range(dfa.n_states):
            assert e.mapping[q] == synlat.run(dfa, q, e.witness)


def test_omega_power(monoid):
    ea = monoid.element_of_word("a")
    assert omega_power(monoid, ea) == ea
    assert omega_power(monoid, monoid.identity) == monoid.identity
    zero = monoid.element_of_word("ba")
    assert omega_power(monoid, zero) == zero
    eab = monoid.element_of_word("ab")
    assert omega_power(monoid, eab) == monoid.element_of_word("ba")  # abab ~ ba, the zero


def test_monoid_cayley_closure(monoid):
    # table entries realize witness concatenation
    for i, e in enumerate(monoid.elements):
        for j, f in enumerate(monoid.elements):
            assert monoid.table[i][j] == monoid.element_of_word(e.witness + f.witness)


def assert_table_composes_mappings(monoid):
    maps = [e.mapping for e in monoid.elements]
    index = {m: i for i, m in enumerate(maps)}
    assert len(monoid.table) == len(maps)
    for i, row in enumerate(monoid.table):
        assert row == tuple(index[tuple(mj[x] for x in maps[i])] for mj in maps)


def t4_dfa():
    """The full transformation monoid T4 (256 elements) as the action of three letters on 4 states."""
    gens = [(1, 0, 2, 3), (1, 2, 3, 0), (0, 0, 2, 3)]
    delta = tuple(tuple(g[q] for g in gens) for q in range(4))
    return synlat.minimize(synlat.Dfa(("a", "b", "c"), delta, 0, frozenset({0})))


def test_lazy_cayley_table_of_t4():
    monoid = synlat.syntactic_monoid(t4_dfa())
    assert len(monoid) == 256
    assert_table_composes_mappings(monoid)


@pytest.mark.parametrize("seed", range(1, 11))
def test_lazy_cayley_table_on_random_corpus(seed):
    for ast in random_regex_corpus(seed=seed, count=60):
        assert_table_composes_mappings(synlat.syntactic_monoid(synlat.compile_canonical_dfa(ast)))


def test_lazy_cayley_rows_in_any_order(monoid):
    # a row read before or after others, or by a negative index, is the same row
    last = len(monoid) - 1
    fresh = synlat.syntactic_monoid(monoid.dfa)
    assert fresh.table[-1] == monoid.table[last]
    assert list(reversed(fresh.table)) == list(reversed(list(monoid.table)))
    with pytest.raises(IndexError):
        fresh.table[len(monoid)]


def test_cayley_table_slices_are_built_rows(apb):
    dfa, _ = apb
    table = synlat.syntactic_monoid(dfa).table
    assert table[0:2] == [table[0], table[1]]
    assert table[::-1] == list(reversed(table))
    assert table[len(table):] == []


def algebra_tables(dfa, pt, budget=synlat.syntactic.DEFAULT_ELEMENT_BUDGET):
    """Every table of every algebra of the language with at most budget elements, each an IntRows
    with no row built yet."""
    tables = []
    builds = [
        lambda: [synlat.syntactic_monoid(dfa, budget).table],
        lambda: [(s := synlat.syntactic_semiring(pt, dfa, budget)).meet_table, s.mul_table],
        lambda: [(a := synlat.syntactic_lattice_algebra(pt, dfa, budget)).meet_table, a.join_table, a.mul_table],
        lambda: [(a := synlat.transition_lattice_algebra(pt, dfa, budget)).meet_table, a.join_table, a.mul_table],
    ]
    for tables_of in builds:
        try:
            tables += tables_of()
        except BudgetError:
            pass
    return tables


def assert_rows_act_as_their_tuple(fresh, table):
    """fresh, a table no row of which is built, acts as the tuple of table's rows, table the same table
    built again."""
    ref = tuple(map(tuple, table))
    n = len(ref)
    assert len(fresh) == n
    assert fresh[-1] == ref[-1] and fresh[-n] == ref[0]   # rows read by negative index first
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            fresh[i]
    for s in (slice(None, None, -2), slice(1, 3), slice(n, None)):
        assert fresh[s] == list(ref[s])
    assert list(fresh) == list(ref)
    assert fresh == ref and ref == fresh and not fresh != ref and fresh == table
    assert fresh != ref[:-1] and fresh != list(ref)
    assert repr(fresh) == repr(ref) and hash(fresh) == hash(ref)
    assert all(type(row) is tuple and len(row) == n for row in fresh)
    assert all(type(x) is int for row in fresh for x in row)   # render._json writes the cells unchecked


@pytest.mark.parametrize("pattern,alphabet", [("a+b+", "ab"), ("(a|b)*abb", "ab"), ("(a|bc)*(c|%e)", "abc")])
def test_algebra_tables_act_as_tuples_of_int_rows(pattern, alphabet):
    _, dfa, pt = build(pattern, alphabet)
    for fresh, table in zip(algebra_tables(dfa, pt), algebra_tables(dfa, pt), strict=True):
        assert_rows_act_as_their_tuple(fresh, table)


@pytest.mark.parametrize("seed", range(1, 4))
def test_algebra_tables_act_as_tuples_of_int_rows_on_random_corpus(seed):
    for ast in random_regex_corpus(seed=seed, count=20):
        dfa = synlat.compile_canonical_dfa(ast)
        pt = synlat.build_profile_table(dfa)
        for fresh, table in zip(algebra_tables(dfa, pt, 300), algebra_tables(dfa, pt, 300), strict=True):
            assert_rows_act_as_their_tuple(fresh, table)


def reference_monoid(dfa, budget=None):
    """(mappings, right, witnesses): breadth-first search on tuples of states, letters in alphabet order.

    None if the monoid has more than budget elements.
    """
    identity = tuple(range(dfa.n_states))
    mappings, words, index, right = [identity], [""], {identity: 0}, []
    for m, w in zip(mappings, words):   # both grow as they are visited
        row = []
        for li, a in enumerate(dfa.alphabet):
            t = tuple(dfa.delta[q][li] for q in m)
            if t not in index:
                if len(mappings) == budget:
                    return None
                index[t] = len(mappings)
                mappings.append(t)
                words.append(w + a)
            row.append(index[t])
        right.append(tuple(row))
    return mappings, right, words


def assert_monoid_matches_reference(dfa):
    mappings, right, words = reference_monoid(dfa)
    m = synlat.syntactic_monoid(dfa)
    assert [e.mapping for e in m.elements] == mappings
    assert all(type(q) is int for q in m.elements[-1].mapping)
    assert m.right == tuple(right)
    assert [e.witness for e in m.elements] == words
    assert m.index == {t: i for i, t in enumerate(mappings)}
    return m


def dihedral_dfa(q):
    """Minimal DFA of the dihedral group D_q (2q elements) acting on 0..q-1 by a rotation (a) and a reflection (b)."""
    gens = (tuple((i + 1) % q for i in range(q)), tuple((-i) % q for i in range(q)))
    delta = tuple(tuple(g[s] for g in gens) for s in range(q))
    dfa = synlat.minimize(synlat.Dfa(("a", "b"), delta, 0, frozenset({0})))
    assert dfa.n_states == q
    return dfa


@pytest.mark.parametrize("q", [130, 300])
def test_coded_monoid_past_ascii_states(q):
    # states from 128 up are coded past ASCII, and from 256 up past one byte a character
    m = assert_monoid_matches_reference(dihedral_dfa(q))
    assert len(m) == 2 * q


def test_coded_monoid_of_t4():
    assert len(assert_monoid_matches_reference(t4_dfa())) == 256


@st.composite
def transformation_dfas(draw):
    n = draw(st.integers(1, 8))
    letters = draw(st.integers(1, 3))
    row = st.tuples(*[st.integers(0, n - 1)] * letters)
    delta = draw(st.lists(row, min_size=n, max_size=n))
    return synlat.Dfa(tuple("abc"[:letters]), tuple(delta), 0, frozenset())


@given(transformation_dfas())
def test_coded_monoid_on_random_transformations(dfa):
    # three letters on eight states can make millions of elements: past 2,000 both must refuse
    if reference_monoid(dfa, 2_000) is None:
        with pytest.raises(BudgetError, match="^monoid elements exceeded budget of 2000$"):
            synlat.syntactic_monoid(dfa, 2_000)
    else:
        assert_monoid_matches_reference(dfa)


# --- semiring ---

def test_semiring_of_a_plus_b_plus_matches_reference_images(semiring, apb):
    dfa, pt = apb
    assert len(semiring) == 11
    names = named_atoms(dfa, pt)
    by_witness = {e.witness: e for e in semiring.elements}
    assert set(by_witness) == set(SEMIRING_IMAGES)
    columns = [names[c] for c in ("L", "K", "0", "b*", "A*", "b+")]
    for witness, expected in SEMIRING_IMAGES.items():
        e = by_witness[witness]
        got = tuple(atom_name(names, extend_semiring_action(pt, e.mapping, col)) for col in columns)
        assert got == expected, witness


def test_semiring_row_a_meet_ab(semiring, apb):
    dfa, pt = apb
    names = named_atoms(dfa, pt)
    e = next(e for e in semiring.elements if e.witness == ("a", "ab"))
    # maps L↦b+, K↦b+, b*↦∅ plus the derivable columns b+↦∅, A*↦A*, ∅↦∅
    L, K, empty, bstar = states_by_name(dfa)
    assert e.mapping[L] == names["b+"]
    assert e.mapping[K] == names["b+"]
    assert e.mapping[bstar] == names["0"]
    assert extend_semiring_action(pt, e.mapping, names["b+"]) == names["0"]
    assert extend_semiring_action(pt, e.mapping, names["A*"]) == names["A*"]


def test_semiring_lambda_meet_ab_equals_a_meet_b(semiring, apb):
    dfa, pt = apb
    e = next(e for e in semiring.elements if e.witness == ("", "ab"))
    mapping = tuple(
        synlat.eval_meet_form(pt, residual_atoms(pt, q), ("a", "b")) for q in range(dfa.n_states)
    )
    assert mapping == e.mapping


def test_semiring_product_matches_witness_product(semiring, apb):
    # extension-based product equals evaluation of the concatenated witness forms
    dfa, pt = apb
    for i, e in enumerate(semiring.elements):
        for j, f in enumerate(semiring.elements):
            product = semiring.elements[semiring.mul_table[i][j]]
            w = tm.mf_mul(e.witness, f.witness)
            expected = tuple(
                synlat.eval_meet_form(pt, residual_atoms(pt, q), w) for q in range(dfa.n_states)
            )
            assert product.mapping == expected


def test_semiring_is_idempotent_semiring(semiring):
    # idempotent-semiring laws on the computed tables
    n = len(semiring)
    A, M = semiring.meet_table, semiring.mul_table
    one, top = semiring.one, semiring.top
    for i in range(n):
        assert A[i][i] == i
        assert A[i][top] == i
        assert M[i][one] == i and M[one][i] == i
        assert M[i][top] == top and M[top][i] == top
        for j in range(n):
            assert A[i][j] == A[j][i]
            for k in range(n):
                assert A[A[i][j]][k] == A[i][A[j][k]]
                assert M[M[i][j]][k] == M[i][M[j][k]]
                assert M[i][A[j][k]] == A[M[i][j]][M[i][k]]
                assert M[A[i][j]][k] == A[M[i][k]][M[j][k]]


def test_semiring_order_covers(semiring):
    by_witness = {e.witness: i for i, e in enumerate(semiring.elements)}
    w = lambda *words: by_witness[tuple(words)]
    expected = {
        (w("ba"), w("", "ab")),
        (w("", "ab"), w("", "a")), (w("", "ab"), w("", "b")),
        (w("", "ab"), w("a", "ab")), (w("", "ab"), w("b", "ab")),
        (w("", "a"), w("")), (w("", "a"), w("a")),
        (w("", "b"), w("")), (w("", "b"), w("b")),
        (w("a", "ab"), w("a")), (w("a", "ab"), w("ab")),
        (w("b", "ab"), w("b")), (w("b", "ab"), w("ab")),
        (w(""), w()), (w("a"), w()), (w("b"), w()), (w("ab"), w()),
    }
    assert set(semiring.order.covers) == expected
    assert set(hasse_of_elements(semiring).covers) == expected


# --- lattice algebra ---

def test_lattice_algebra_has_22_elements(algebra):
    assert len(algebra) == 22


def test_lattice_algebra_matches_reference_images(algebra, apb):
    dfa, pt = apb
    names = named_atoms(dfa, pt)
    L, K, _, bstar = states_by_name(dfa)
    triples = {
        tuple(atom_name(names, e.mapping[q]) for q in (L, K, bstar)) for e in algebra.elements
    }
    assert len(triples) == 22  # distinct already on the three non-trivial columns
    assert triples == LATTICE_IMAGE_TRIPLES


def test_lattice_algebra_sample_row(algebra, apb):
    # (λ∧a)∨(b∧ab) maps L↦L, K↦K^λ, b*↦∅
    dfa, pt = apb
    names = named_atoms(dfa, pt)
    L, K, _, bstar = states_by_name(dfa)
    i = algebra.element_of_form(synlat.lattice_form([["", "a"], ["b", "ab"]]))
    e = algebra.elements[i]
    assert e.mapping[L] == names["L"]
    assert e.mapping[K] == names["Kλ"]
    assert e.mapping[bstar] == names["0"]


def test_lattice_algebra_generating_identities(algebra):
    # λ = (λ∧a)∨(λ∧b), a = (λ∧a)∨(a∧ab), b = (λ∧b)∨(b∧ab)
    el = lambda *inners: algebra.element_of_form(synlat.lattice_form(inners))
    join = algebra.join_table
    assert el([""]) == join[el(["", "a"])][el(["", "b"])]
    assert el(["a"]) == join[el(["", "a"])][el(["a", "ab"])]
    assert el(["b"]) == join[el(["", "b"])][el(["b", "ab"])]


def test_lambda_meet_ab_same_element_different_lattice_action(algebra, apb):
    dfa, pt = apb
    names = named_atoms(dfa, pt)
    f1 = synlat.lattice_form([["", "ab"]])
    f2 = synlat.lattice_form([["a", "b"]])
    assert algebra.element_of_form(f1) == algebra.element_of_form(f2)
    klam = names["Kλ"]
    assert synlat.eval_lattice_form(pt, klam, f1) == names["b*"]
    assert synlat.eval_lattice_form(pt, klam, f2) == names["b+"]


def test_lattice_pointwise_law(algebra, apb):
    dfa, pt = apb
    for e in algebra.elements:
        for q in range(dfa.n_states):
            assert e.mapping[q] == synlat.eval_lattice_form(pt, residual_atoms(pt, q), e.witness)


def test_multiply_unit_laws(algebra):
    mul = algebra.mul_table
    for i in range(len(algebra)):
        assert mul[i][algebra.one] == i
        assert mul[algebra.one][i] == i


def test_multiply_lambda_meet_ab_witness_independent_for_generators(algebra, apb):
    # (λ∧ab)·x = (a∧b)·x for every generator x, although the two witnesses act
    # differently on the lattice-automaton state K^λ
    dfa, pt = apb
    f1 = synlat.lattice_form([["", "ab"]])
    f2 = synlat.lattice_form([["a", "b"]])
    for a in dfa.alphabet:
        g = synlat.lattice_form([[a]])
        p1 = synlat.multiply_lattice_forms(f1, g)
        p2 = synlat.multiply_lattice_forms(f2, g)
        m1 = tuple(synlat.eval_lattice_form(pt, residual_atoms(pt, q), p1) for q in range(dfa.n_states))
        m2 = tuple(synlat.eval_lattice_form(pt, residual_atoms(pt, q), p2) for q in range(dfa.n_states))
        assert m1 == m2


def test_multiply_top_agrees_with_pointwise_top_action(algebra, apb):
    # ⊤·e via witness expansion vs ⊤'s action composed with e on every residual
    dfa, pt = apb
    for j, e in enumerate(algebra.elements):
        product = algebra.mul_table[algebra.top][j]
        expected = tuple(
            synlat.eval_lattice_form(pt, synlat.top(pt), e.witness) for _ in range(dfa.n_states)
        )
        assert algebra.elements[product].mapping == expected


def test_general_witness_independence_fails_for_products():
    # the documented obstruction: a∨b times (λ∧ab) vs (a∧b) lands in
    # different syntactic elements, so no witness-free product exists
    _, dfa, pt = build("a+b+", "ab")
    avb = synlat.lattice_form([["a"], ["b"]])
    f1 = synlat.lattice_form([["", "ab"]])
    f2 = synlat.lattice_form([["a", "b"]])
    p1 = synlat.multiply_lattice_forms(avb, f1)
    p2 = synlat.multiply_lattice_forms(avb, f2)
    m1 = tuple(synlat.eval_lattice_form(pt, residual_atoms(pt, q), p1) for q in range(dfa.n_states))
    m2 = tuple(synlat.eval_lattice_form(pt, residual_atoms(pt, q), p2) for q in range(dfa.n_states))
    assert m1 != m2


def test_witness_independence_for_generator_products_random():
    # 50 random pairs of distinct forms with equal element maps: products with
    # every generator coincide (right multiplication by words is well-defined)
    rng = random.Random(21)
    _, dfa, pt = build("a+b+", "ab")
    from conftest import random_lattice_form

    def mapping_of(f):
        return tuple(synlat.eval_lattice_form(pt, residual_atoms(pt, q), f) for q in range(dfa.n_states))

    by_map = {}
    pairs = []
    while len(pairs) < 50:
        f = random_lattice_form(rng, "ab", max_inners=3, max_words=2, max_len=2)
        m = mapping_of(f)
        if m in by_map and by_map[m] != f:
            pairs.append((by_map[m], f))
        by_map.setdefault(m, f)
    for f1, f2 in pairs:
        for a in dfa.alphabet:
            g = synlat.lattice_form([[a]])
            assert mapping_of(synlat.multiply_lattice_forms(f1, g)) == mapping_of(
                synlat.multiply_lattice_forms(f2, g)
            )


def test_embedding_chain(monoid, semiring, algebra, apb):
    dfa, pt = apb
    # monoid -> semiring: injective and multiplication preserving
    sem_index = {e.mapping: i for i, e in enumerate(semiring.elements)}
    embed_m = []
    for e in monoid.elements:
        mapping = tuple(residual_atoms(pt, e.mapping[q]) for q in range(dfa.n_states))
        embed_m.append(sem_index[mapping])
    assert len(set(embed_m)) == len(monoid)
    for i in range(len(monoid)):
        for j in range(len(monoid)):
            assert semiring.mul_table[embed_m[i]][embed_m[j]] == embed_m[monoid.table[i][j]]
    # semiring -> lattice algebra: injective, preserving ∧; · preserved except
    # through the ⊥-collapsed class [ba], whose canonical lattice witness is ⊥
    # (products through ⊥ and through the word ba differ for the left factor ⊤,
    # and no witness choice satisfies both sides)
    alg_index = {e.mapping: i for i, e in enumerate(algebra.elements)}
    embed_s = [alg_index[e.mapping] for e in semiring.elements]
    assert len(set(embed_s)) == len(semiring)
    mismatches = set()
    for i in range(len(semiring)):
        for j in range(len(semiring)):
            assert algebra.meet_table[embed_s[i]][embed_s[j]] == embed_s[semiring.meet_table[i][j]]
            if algebra.mul_table[embed_s[i]][embed_s[j]] != embed_s[semiring.mul_table[i][j]]:
                mismatches.add((semiring.elements[i].witness, semiring.elements[j].witness))
    assert mismatches == {((), ("ba",))}


def test_counts_chain(monoid, semiring, algebra):
    assert (len(monoid), len(semiring), len(algebra)) == (5, 11, 22)


def assert_one_meet_layer(dfa, pt):
    """The semiring's witnesses are the residual lattice quotient's inners; returns the
    number of semiring elements compared and how many of them map every column to ∅."""
    semiring = synlat.syntactic_semiring(pt, dfa)
    try:
        algebra = synlat.syntactic_lattice_algebra(pt, dfa, 300, with_tables=False)
    except BudgetError:
        return 0, 0
    empty = 0
    for e in semiring.elements:
        witness = algebra.elements[algebra.index[e.mapping]].witness
        if all(x == synlat.bottom(pt) for x in e.mapping):
            # ∅ everywhere is ⊥ in the lattice, whose least form is the empty join
            empty += 1
            assert witness == ()
        else:
            assert witness == (e.witness,)
    return len(semiring), empty


def test_semiring_and_residual_quotient_read_one_meet_layer(apb):
    assert assert_one_meet_layer(*apb) == (11, 1)


def test_semiring_and_residual_quotient_read_one_meet_layer_on_random_corpus():
    counts = []
    for seed in range(1, 6):
        for ast in random_regex_corpus(seed=seed, count=60):
            dfa = synlat.compile_canonical_dfa(ast)
            counts.append(assert_one_meet_layer(dfa, synlat.build_profile_table(dfa)))
    assert [sum(c) for c in zip(*counts)] == [1297, 243]   # lattice quotients past 300 elements skipped


def test_lattice_order_has_ba_bottom_and_top(algebra, apb):
    dfa, pt = apb
    ba_map = tuple(synlat.bottom(pt) for _ in range(dfa.n_states))
    assert algebra.elements[algebra.bottom].mapping == ba_map
    # ⊥ coincides with the class of the word ba
    ba_el = algebra.element_of_form(synlat.lattice_form([["ba"]]))
    assert ba_el == algebra.bottom
    covers = hasse_of_elements(algebra).covers
    lowers = {hi for _, hi in covers}
    uppers = {lo for lo, _ in covers}
    roots = set(range(len(algebra))) - lowers   # no lower cover: minima
    tops = set(range(len(algebra))) - uppers    # no upper cover: maxima
    assert roots == {algebra.bottom}
    assert tops == {algebra.top}


def test_lattice_order_covers_against_reachability_oracle(algebra):
    # transitive reduction recomputed from raw reachability of the order
    n = len(algebra)
    le = [[algebra.meet_table[i][j] == i for j in range(n)] for i in range(n)]
    expected = set()
    for i in range(n):
        for j in range(n):
            if i == j or not le[i][j]:
                continue
            if any(le[i][k] and le[k][j] and k not in (i, j) for k in range(n)):
                continue
            expected.add((i, j))
    assert set(hasse_of_elements(algebra).covers) == expected


# --- axiom checker ---

def chain_algebra(pt):
    """Hand-built lawful lattice algebra on the chain ⊥ < 1 < ⊤.

    Multiplication x·y = y except x·1 = x; the single generator acts as the
    identity.  This is a genuine lattice algebra, used as the clean baseline
    for fault injection (the syntactic quotients are generally not lawful,
    see
    test_syntactic_lattice_algebra_violations_are_intrinsic).
    """
    bot_a, top_a = synlat.bottom(pt), synlat.top(pt)
    one_a = residual_atoms(pt, 0)
    elements = (
        LatticeAlgebraElement((bot_a,), tm.BOT_FORM),
        LatticeAlgebraElement((one_a,), synlat.lattice_form([[""]])),
        LatticeAlgebraElement((top_a,), tm.TOP_FORM),
    )
    mn = lambda i, j: min(i, j)
    mx = lambda i, j: max(i, j)
    meet = tuple(tuple(mn(i, j) for j in range(3)) for i in range(3))
    join = tuple(tuple(mx(i, j) for j in range(3)) for i in range(3))
    mul = tuple(tuple(i if j == 1 else j for j in range(3)) for i in range(3))
    from synlat.canonical import hasse_from_leq

    order = hasse_from_leq([sum(1 << j for j in range(3) if mn(i, j) == i) for i in range(3)])
    return SyntacticLatticeAlgebra(
        pt, pt.dfa, elements, 1, 2, 0, (1,), meet, join, mul, order
    )


def test_axiom_checker_passes_on_lawful_algebra():
    _, dfa, pt = build("%e", "a")
    alg = chain_algebra(pt)
    report = check_lattice_algebra_axioms(alg)
    assert report.ok, report.violations[:3]


def test_axiom_checker_localizes_corrupted_join_entry():
    _, dfa, pt = build("%e", "a")
    alg = chain_algebra(pt)
    join = [list(r) for r in alg.join_table]
    join[0][1] = 2  # corrupt ⊥∨1
    corrupted = SyntacticLatticeAlgebra(
        alg.pt, alg.dfa, alg.elements, alg.one, alg.top, alg.bottom, alg.generators,
        alg.meet_table, tuple(tuple(r) for r in join), alg.mul_table, alg.order,
    )
    report = check_lattice_algebra_axioms(corrupted)
    assert not report.ok
    join_laws = {
        "join-commutative", "join-associative", "join-idempotent", "join-bottom-unit",
        "join-top-zero", "absorption-meet-join", "absorption-join-meet",
        "meet-over-join", "join-over-meet", "mul-left-dist-join", "mul-right-dist-join",
    }
    assert set(report.laws_violated()) <= join_laws
    # every violation involves the corrupted pair
    for v in report.violations:
        assert 0 in v.operands or 1 in v.operands


def test_syntactic_lattice_algebra_violations_are_intrinsic(algebra):
    # the witness-based product cannot satisfy the 8-tuple laws: λ∧ab = a∧b as
    # elements forces conflicting left-distributivity values, whichever witness
    # is stored
    report = check_lattice_algebra_axioms(algebra)
    assert not report.ok
    assert "mul-left-dist-meet" in report.laws_violated()


def test_axiom_checker_reports_elements_outside_the_span_of_the_products():
    # on the chain ⊥ < 1 < x < ⊤ with P = {1}, the products of P are {1}, so the lattice they
    # span with the bounds misses x; every other law holds (each row is monotone, and
    # M[M[i][j]][k] = M[i][M[j][k]]); the checker reads the tables only
    mul = ((0, 0, 0, 3), (0, 1, 2, 3), (0, 2, 2, 3), (0, 3, 3, 3))
    meet = tuple(tuple(min(i, j) for j in range(4)) for i in range(4))
    join = tuple(tuple(max(i, j) for j in range(4)) for i in range(4))
    order = hasse_from_leq([sum(1 << j for j in range(i, 4)) for i in range(4)])
    alg = SyntacticLatticeAlgebra(None, None, tuple(range(4)), 1, 3, 0, (1,), meet, join, mul, order)
    violation = AxiomViolation("lattice-generated-by-products-of-P", (2,), 2, -1)
    report = check_lattice_algebra_axioms(alg)
    assert (report.violations, report.truncated) == ((violation,), False)
    truncated = check_lattice_algebra_axioms(alg, max_violations=0)
    assert (truncated.violations, truncated.truncated, truncated.checked) == ((), True, report.checked)


def test_axiom_checker_refuses_an_algebra_without_tables(apb):
    dfa, pt = apb
    alg = synlat.syntactic_lattice_algebra(pt, dfa, with_tables=False)
    with pytest.raises(ValueError, match="^algebra was built without multiplication tables$"):
        check_lattice_algebra_axioms(alg)


@pytest.mark.parametrize("builder", [synlat.syntactic_semiring, synlat.syntactic_lattice_algebra])
def test_algebras_refuse_the_profile_table_of_another_dfa(builder, apb):
    dfa, _ = apb
    _, _, other = build("a*", "ab")
    with pytest.raises(ValueError, match="^profile table was built from a different DFA$"):
        builder(other, dfa)


def test_axiom_checker_on_degenerate_language():
    # %0 collapses 1 with ⊥, so the unit and right-zero laws conflict: the
    # 2-element quotient cannot satisfy both at once
    _, dfa, pt = build("%0", "a")
    alg = synlat.syntactic_lattice_algebra(pt, dfa)
    assert len(alg) == 2
    assert alg.one == alg.bottom
    report = check_lattice_algebra_axioms(alg)
    assert not report.ok
    assert "mul-unit-right" in report.laws_violated()


@pytest.mark.parametrize("pattern,alphabet", [("a+b+", "ab"), ("(a|bb)*", "ab"), ("ab*a|b", "ab")])
def test_multiply_lattice_elements_matches_table(pattern, alphabet):
    # the table walks the witnesses' trees; the reference multiplies the
    # witness forms and evaluates the product on the columns
    _, dfa, pt = build(pattern, alphabet)
    algebra = synlat.syntactic_lattice_algebra(pt, dfa)
    for i in range(len(algebra)):
        for j in range(len(algebra)):
            assert multiply_lattice_elements(algebra, i, j) == algebra.mul_table[i][j]


# --- transition lattice algebra ---

TRANSITION_LANGUAGES = [("a+b+", "ab"), ("%0", "a"), ("(a|bb)*", "ab"), ("ab*a|b", "ab")]


@pytest.fixture(scope="module")
def transition(apb):
    dfa, pt = apb
    return synlat.transition_lattice_algebra(pt, dfa)


def test_transition_lattice_algebra_restricts_to_residual_quotient(transition, algebra, apb):
    # 33 maps on the lattice-automaton states; on the residual columns they
    # give the 22 residual maps, and λ∧ab, a∧b (one residual class) split
    dfa, pt = apb
    assert len(transition) == 33
    assert transition.columns == synlat.build_lattice_automaton(pt, dfa).states
    cols = [transition.columns.index(residual_atoms(pt, q)) for q in range(dfa.n_states)]
    restricted = {tuple(e.mapping[c] for c in cols) for e in transition.elements}
    assert restricted == {e.mapping for e in algebra.elements}
    f1 = synlat.lattice_form([["", "ab"]])
    f2 = synlat.lattice_form([["a", "b"]])
    assert transition.element_of_form(f1) != transition.element_of_form(f2)
    for i in range(len(transition)):
        for j in transition.generators:
            assert multiply_lattice_elements(transition, i, j) == transition.mul_table[i][j]


@pytest.mark.parametrize("pattern,alphabet", TRANSITION_LANGUAGES)
def test_transition_witnesses_evaluate_to_their_maps(pattern, alphabet):
    _, dfa, pt = build(pattern, alphabet)
    alg = synlat.transition_lattice_algebra(pt, dfa)
    for e in alg.elements:
        assert e.mapping == tuple(synlat.eval_lattice_form(pt, x, e.witness) for x in alg.columns)


@pytest.mark.parametrize("pattern,alphabet", TRANSITION_LANGUAGES)
def test_transition_mul_table_matches_witness_products(pattern, alphabet):
    _, dfa, pt = build(pattern, alphabet)
    alg = synlat.transition_lattice_algebra(pt, dfa)
    index = {e.mapping: i for i, e in enumerate(alg.elements)}
    for i, e in enumerate(alg.elements):
        for j, f in enumerate(alg.elements):
            form = synlat.multiply_lattice_forms(e.witness, f.witness)
            expected = tuple(synlat.eval_lattice_form(pt, x, form) for x in alg.columns)
            assert alg.mul_table[i][j] == index[expected]


def test_transition_lattice_algebra_of_empty_language():
    # the lattice automaton of %0 has the states ∅ and A*, so 1 acts as the
    # identity on them and is neither ⊥ nor ⊤
    _, dfa, pt = build("%0", "a")
    alg = synlat.transition_lattice_algebra(pt, dfa)
    assert len(alg) == 3
    assert alg.one != alg.bottom
    assert alg.one != alg.top


@pytest.mark.parametrize("pattern,alphabet", TRANSITION_LANGUAGES)
def test_transition_lattice_algebra_is_lawful(pattern, alphabet):
    _, dfa, pt = build(pattern, alphabet)
    report = check_lattice_algebra_axioms(synlat.transition_lattice_algebra(pt, dfa))
    assert report.ok, [v.describe() for v in report.violations[:3]]


def test_budgets():
    _, dfa, pt = build("a+b+", "ab")
    with pytest.raises(synlat.BudgetError):
        synlat.syntactic_monoid(dfa, budget=2)
    with pytest.raises(synlat.BudgetError):
        synlat.syntactic_semiring(pt, dfa, budget=3)
    with pytest.raises(synlat.BudgetError):
        synlat.syntactic_lattice_algebra(pt, dfa, budget=3)
    with pytest.raises(synlat.BudgetError):
        synlat.transition_lattice_algebra(pt, dfa, budget=32)


# --- the op tables close_values records, against the operations computed directly ---

LATTICE_TABLE_BUDGET = 200   # larger lattice quotients are skipped: their builds take seconds each


def bits(mapping):
    return tuple(x.bits for x in mapping)


def op_table(maps, op):
    """table[i][j] = the element whose mapping is op(maps[i], maps[j]); mappings compare by bits."""
    index = {bits(m): i for i, m in enumerate(maps)}
    return tuple(tuple(index[bits(op(mi, mj))] for mj in maps) for mi in maps)


def pointwise(op):
    """op on each column's pair of images, evaluated once per distinct pair."""
    memo = {}

    def cell(x, y):
        z = memo.get((x.bits, y.bits))
        if z is None:
            z = memo[x.bits, y.bits] = op(x, y)
        return z

    return lambda mi, mj: tuple(map(cell, mi, mj))


def witness_product_table(alg):
    """table[i][j] = the element whose mapping is j's witness evaluated on each image of i.

    Each witness is evaluated once per distinct image; a product outside the
    algebra raises KeyError.
    """
    index = {bits(e.mapping): i for i, e in enumerate(alg.elements)}
    images = {x for e in alg.elements for x in e.mapping}
    acts = [{x: synlat.eval_lattice_form(alg.pt, x, e.witness) for x in images} for e in alg.elements]
    return tuple(tuple(index[bits(map(act.__getitem__, e.mapping))] for act in acts) for e in alg.elements)


def assert_recorded_tables_match_direct_operations(dfa, pt):
    monoid = synlat.syntactic_monoid(dfa)
    index = {e.mapping: i for i, e in enumerate(monoid.elements)}
    letters = range(len(dfa.alphabet))
    assert monoid.right == tuple(
        tuple(index[tuple(dfa.delta[q][a] for q in e.mapping)] for a in letters) for e in monoid.elements
    )

    semiring = synlat.syntactic_semiring(pt, dfa)
    maps = [e.mapping for e in semiring.elements]
    assert semiring.meet_table == op_table(maps, pointwise(synlat.meet))
    assert semiring.mul_table == op_table(
        maps, lambda mi, mj: tuple(extend_semiring_action(pt, mj, x) for x in mi)
    )

    for build_algebra in (synlat.syntactic_lattice_algebra, synlat.transition_lattice_algebra):
        try:
            alg = build_algebra(pt, dfa, budget=LATTICE_TABLE_BUDGET)
        except synlat.BudgetError:
            continue
        maps = [e.mapping for e in alg.elements]
        assert alg.meet_table == op_table(maps, pointwise(synlat.meet))
        assert alg.join_table == op_table(maps, pointwise(synlat.join))
        assert alg.mul_table == witness_product_table(alg)


def test_recorded_tables_of_a_plus_b_plus(apb):
    assert_recorded_tables_match_direct_operations(*apb)


@pytest.mark.parametrize("seed", range(1, 6))
def test_recorded_tables_on_random_corpus(seed):
    for ast in random_regex_corpus(seed=seed, count=60):
        dfa = synlat.compile_canonical_dfa(ast)
        assert_recorded_tables_match_direct_operations(dfa, synlat.build_profile_table(dfa))


@given(st.integers(min_value=0), st.sampled_from(["ba", "cba", "cab"]))
def test_recorded_tables_over_reversed_alphabets(seed, alphabet):
    # the lattice product walks the monoid's tree over the sorted letters, which is not the
    # order of these alphabets, so a wrong map from sorted letters to positions shows here
    dfa = synlat.compile_canonical_dfa(random_ast(random.Random(seed), alphabet))
    assert_recorded_tables_match_direct_operations(dfa, synlat.build_profile_table(dfa))


# --- the lattice order read off join-irreducible masks, against the order of the mappings ---

def assert_lattice_covers_match_brute_force(dfa, pt):
    for build_algebra in (synlat.syntactic_lattice_algebra, synlat.transition_lattice_algebra):
        try:
            alg = build_algebra(pt, dfa, budget=LATTICE_TABLE_BUDGET)
        except synlat.BudgetError:
            continue
        maps = [bits(e.mapping) for e in alg.elements]
        up = [sum(1 << j for j, y in enumerate(maps) if all(a | b == b for a, b in zip(x, y))) for x in maps]
        assert up == [sum(1 << j for j, k in enumerate(row) if k == i) for i, row in enumerate(alg.meet_table)]
        assert alg.order == hasse_from_leq(up)


def test_lattice_covers_of_a_plus_b_plus(apb):
    assert_lattice_covers_match_brute_force(*apb)


@pytest.mark.parametrize("seed", range(1, 6))
def test_lattice_covers_on_random_corpus(seed):
    for ast in random_regex_corpus(seed=seed, count=60):
        dfa = synlat.compile_canonical_dfa(ast)
        assert_lattice_covers_match_brute_force(dfa, synlat.build_profile_table(dfa))


@given(st.integers(min_value=0), st.sampled_from(["ab", "ba", "abc", "cba"]))
def test_lattice_covers_on_random_languages(seed, alphabet):
    dfa = synlat.compile_canonical_dfa(random_ast(random.Random(seed), alphabet))
    assert_lattice_covers_match_brute_force(dfa, synlat.build_profile_table(dfa))


# --- letter rows walked along the values closures' trees, against each column's quotient ---

WALK_BUDGET = 500   # closures past it are skipped


@st.composite
def random_dfas(draw):
    """A minimal DFA of up to five states over one to three letters in any order, random transitions and finals."""
    n = draw(st.integers(1, 5))
    alphabet = draw(st.permutations("abc"))[:draw(st.integers(1, 3))]
    row = st.tuples(*[st.integers(0, n - 1)] * len(alphabet))
    delta = draw(st.lists(row, min_size=n, max_size=n))
    finals = draw(st.frozensets(st.integers(0, n - 1)))
    return synlat.minimize(synlat.Dfa(tuple(alphabet), tuple(delta), 0, finals))


def column_quotients(pt, v, n_columns, letter):
    """Each column's letter quotient, on n_columns columns packed into v (atoms.pack_images)."""
    width = pt.n_profiles
    return sum(quotient_bits(pt, x, letter) << c * width for c, x in enumerate(unpack_columns(pt, v, n_columns)))


@given(random_dfas())
def test_walked_letter_rows_match_column_quotients_on_random_dfas(dfa):
    # the semiring's meet values are the residual quotient's; the builders walk these rows where
    # they took each column's quotient of every value before
    pt = synlat.build_profile_table(dfa)
    quotients = [(pt.residual_bits, dfa.delta)]
    try:
        *_, (states, index, _) = state_closures(pt, dfa, WALK_BUDGET)
        quotients.append((states, quotient_moves(pt, dfa, states, index)))
    except BudgetError:
        pass
    for cols, delta in quotients:
        try:
            _, meet_tree, meets, _, _, _, steps = _meet_values(pt, dfa, cols, delta, WALK_BUDGET, "values")
            joins, _, _, join_tree = close_values([0], [lambda v, y=y: v | y for y in meets], (), WALK_BUDGET, "values")
        except BudgetError:
            continue
        meet_rows = _quotients(meet_tree, steps, and_, meets[0])
        for values, rows in [(meets, meet_rows), (joins, _quotients(join_tree, meet_rows, or_, 0))]:
            assert rows == [tuple(column_quotients(pt, v, len(cols), a) for a in dfa.alphabet) for v in values]


# --- guards against tampered inputs: each raises where a builder's output would be inconsistent ---

def test_omega_power_of_an_unclosed_monoid_is_an_inconsistency():
    # one element whose mapping is a 3-cycle: its square is not an element, so no idempotent
    # turns up within the element count
    monoid = SimpleNamespace(elements=(DfaTransformation((1, 2, 0), "a"),), index={})
    with pytest.raises(InconsistencyError, match="^no idempotent power found; the monoid is not closed$"):
        omega_power(monoid, 0)


def test_a_form_outside_the_index_is_an_inconsistency():
    _, dfa, pt = build("a+b+", "ab")
    alg = synlat.syntactic_lattice_algebra(pt, dfa)
    form = alg.elements[1].witness
    assert alg.element_of_form(form) == 1
    alg.index.clear()
    with pytest.raises(InconsistencyError, match="^form evaluates outside the computed algebra$"):
        alg.element_of_form(form)


def test_two_joins_with_one_mask_are_an_inconsistency():
    # elements 1 and 2 both join the only meet value onto ⊥, so both get its mask
    with pytest.raises(
        InconsistencyError, match="^two lattice algebra elements have the same join-irreducibles below them$"
    ):
        _mask_lattice([1], [(1, 0, 0), (2, 0, 0)])
