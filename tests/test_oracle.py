import itertools
import random

import pytest
from hypothesis import given, strategies as st

import synlat
from synlat.atoms import quotient_word, residual_atoms, top
from synlat.automata import access_words
from synlat.oracle import (
    OracleConfig,
    oracle_enumerate_elements,
    oracle_enumerate_saturated,
    oracle_lattice_congruent,
    oracle_monoid_congruent,
    oracle_semiring_congruent,
    oracle_transition_action,
    words_upto,
)
from synlat.terms import eval_lattice_bits, eval_meet_bits, lattice_form_key, meet_form_key, word_key

from conftest import build, random_ast, random_lattice_form


@pytest.fixture(scope="module")
def apb():
    _, dfa, pt = build("a+b+", "ab")
    return dfa, pt


def test_monoid_congruence_examples(apb):
    dfa, pt = apb
    assert oracle_monoid_congruent(pt, dfa, "aa", "a")
    assert not oracle_monoid_congruent(pt, dfa, "ab", "ba")
    assert oracle_monoid_congruent(pt, dfa, "bab", "bab")


def test_semiring_congruence_examples(apb):
    dfa, pt = apb
    assert oracle_semiring_congruent(pt, dfa, ("", "ab"), ("a", "b"))
    assert not oracle_semiring_congruent(pt, dfa, ("a",), ("a", "ab"))
    assert oracle_semiring_congruent(pt, dfa, ("a", "b"), ("a", "b"))
    assert oracle_semiring_congruent(pt, dfa, (), ())  # ⊤ with itself


def test_lattice_congruence_examples(apb):
    dfa, pt = apb
    f = synlat.lattice_form([["", "a"], ["b", "ab"]])
    assert oracle_lattice_congruent(pt, dfa, f, f)
    f1 = synlat.lattice_form([["", "ab"]])
    f2 = synlat.lattice_form([["a", "b"]])
    assert oracle_lattice_congruent(pt, dfa, f1, f2)
    # ... even though the two forms act differently on the lattice state K^λ
    klam = synlat.eval_lattice_form(
        pt, residual_atoms(pt, dfa.initial), synlat.lattice_form([["a"], ["ab"]])
    )
    assert synlat.eval_lattice_form(pt, klam, f1) != synlat.eval_lattice_form(pt, klam, f2)
    assert not oracle_lattice_congruent(
        pt, dfa, synlat.lattice_form([["a"]]), synlat.lattice_form([["b"]])
    )


def test_enumerate_semiring_words_len_2_gives_table1(apb):
    dfa, pt = apb
    maps = oracle_enumerate_elements(pt, dfa, "semiring", OracleConfig(2, 4))
    assert len(maps) == 11
    engine = synlat.syntactic_semiring(pt, dfa)
    assert maps == frozenset(e.mapping for e in engine.elements)
    # saturation: words ≤ 3 adds nothing
    assert maps == oracle_enumerate_elements(pt, dfa, "semiring", OracleConfig(3, 5))


def test_enumerate_lattice_words_len_2_gives_22(apb):
    dfa, pt = apb
    maps = oracle_enumerate_elements(pt, dfa, "lattice", OracleConfig(2, 4))
    assert len(maps) == 22
    engine = synlat.syntactic_lattice_algebra(pt, dfa, with_tables=False)
    assert maps == frozenset(e.mapping for e in engine.elements)


def test_enumerate_monoid_saturates_to_engine(apb):
    dfa, pt = apb
    maps, cfg = oracle_enumerate_saturated(pt, dfa, "monoid")
    engine = synlat.syntactic_monoid(dfa)
    assert maps == frozenset(e.mapping for e in engine.elements)


def test_enumerate_empty_language():
    _, dfa, pt = build("%0", "a")
    assert len(oracle_enumerate_elements(pt, dfa, "monoid", OracleConfig(2, 2))) == 1
    assert len(oracle_enumerate_elements(pt, dfa, "semiring", OracleConfig(2, 2))) == 2
    assert len(oracle_enumerate_elements(pt, dfa, "lattice", OracleConfig(2, 2))) == 2


def test_enumerate_unknown_level(apb):
    dfa, pt = apb
    with pytest.raises(ValueError):
        oracle_enumerate_elements(pt, dfa, "group", OracleConfig(2, 2))


def test_oracle_config_bounds():
    with pytest.raises(ValueError):
        OracleConfig(0, 3)
    with pytest.raises(ValueError):
        OracleConfig(3, 0)


def test_subset_budget(apb):
    dfa, pt = apb
    with pytest.raises(synlat.BudgetError):
        oracle_enumerate_elements(pt, dfa, "semiring", OracleConfig(4, 8), subset_budget=10)


def test_join_subset_budget(apb):
    # words up to length 1 give 3 maps: 7 meet combinations of at most 2 fit a budget of 10,
    # but their 7 meets give 29 join combinations
    dfa, pt = apb
    assert len(oracle_enumerate_elements(pt, dfa, "semiring", OracleConfig(1, 2), subset_budget=10)) == 7
    with pytest.raises(synlat.BudgetError, match="^oracle join combinations exceeded budget of 10$"):
        oracle_enumerate_elements(pt, dfa, "lattice", OracleConfig(1, 2), subset_budget=10)


def test_saturation_bound(apb):
    # the monoid has 3 maps of words up to length 1 and 5 up to lengths 2 and 3
    dfa, pt = apb
    with pytest.raises(synlat.BudgetError, match="^oracle saturation bounds exceeded budget of 2$"):
        oracle_enumerate_saturated(pt, dfa, "monoid", max_word_len=2)
    maps, cfg = oracle_enumerate_saturated(pt, dfa, "monoid", max_word_len=3)
    assert len(maps) == 5 and cfg == OracleConfig(3, 3)


def test_words_upto_shortlex():
    assert words_upto("ab", 2) == ["", "a", "b", "aa", "ab", "ba", "bb"]


def engine_maps(dfa, pt, level):
    if level == "monoid":
        return frozenset(e.mapping for e in synlat.syntactic_monoid(dfa).elements)
    if level == "semiring":
        return frozenset(e.mapping for e in synlat.syntactic_semiring(pt, dfa).elements)
    return frozenset(
        e.mapping for e in synlat.syntactic_lattice_algebra(pt, dfa, with_tables=False).elements
    )


@pytest.mark.parametrize(
    "pattern,alphabet",
    [("a+b+", "ab"), ("a*", "ab"), ("(ab)*", "ab"), ("a?b", "ab"), ("%e", "a"), ("a(b|c)", "abc")],
)
def test_saturated_enumeration_agrees_with_engines(pattern, alphabet):
    _, dfa, pt = build(pattern, alphabet)
    for level in ("monoid", "semiring", "lattice"):
        maps, _ = oracle_enumerate_saturated(pt, dfa, level)
        assert maps == engine_maps(dfa, pt, level), (pattern, level)


def test_congruence_oracles_agree_with_engine_equality():
    # 500 random form pairs per level against element-map equality
    _, dfa, pt = build("a+b+", "ab")
    rng = random.Random(77)
    n = dfa.n_states

    def monoid_map(w):
        return tuple(synlat.run(dfa, q, w) for q in range(n))

    def semiring_map(u):
        return tuple(synlat.eval_meet_form(pt, residual_atoms(pt, q), u) for q in range(n))

    def lattice_map(f):
        return tuple(synlat.eval_lattice_form(pt, residual_atoms(pt, q), f) for q in range(n))

    for _ in range(500):
        w1 = "".join(rng.choice("ab") for _ in range(rng.randint(0, 4)))
        w2 = "".join(rng.choice("ab") for _ in range(rng.randint(0, 4)))
        assert oracle_monoid_congruent(pt, dfa, w1, w2) == (monoid_map(w1) == monoid_map(w2))
    for _ in range(500):
        u1 = synlat.meet_form(
            "".join(rng.choice("ab") for _ in range(rng.randint(0, 2))) for _ in range(rng.randint(0, 3))
        )
        u2 = synlat.meet_form(
            "".join(rng.choice("ab") for _ in range(rng.randint(0, 2))) for _ in range(rng.randint(0, 3))
        )
        assert oracle_semiring_congruent(pt, dfa, u1, u2) == (semiring_map(u1) == semiring_map(u2))
    for _ in range(500):
        f1 = random_lattice_form(rng, "ab", max_len=2)
        f2 = random_lattice_form(rng, "ab", max_len=2)
        assert oracle_lattice_congruent(pt, dfa, f1, f2) == (lattice_map(f1) == lattice_map(f2))


@pytest.mark.parametrize(
    "pattern,alphabet", [("a+b+", "ab"), ("%0", "a"), ("(a|bb)*", "ab"), ("ab*a|b", "ab")]
)
def test_transition_oracle_reproduces_element_maps(pattern, alphabet):
    # raw DFA runs of x·w for each lattice-automaton witness x agree with the
    # closure's maps, and distinct elements get distinct oracle maps
    _, dfa, pt = build(pattern, alphabet)
    la = synlat.build_lattice_automaton(pt, dfa)
    alg = synlat.transition_lattice_algebra(pt, dfa)
    oracle_maps = [oracle_transition_action(pt, dfa, la, e.witness) for e in alg.elements]
    assert oracle_maps == [e.mapping for e in alg.elements]
    assert len(set(oracle_maps)) == len(alg)


LEAST_FORM_MONOID = 48     # the brute force below checks semirings of monoids up to this size
LEAST_FORM_WORDS = 20_000  # and enumerates at most this many words


def least_words(dfa):
    """The word_key-least word of each transformation of the DFA's states, by enumerating
    every word length by length, in string order; None past LEAST_FORM_WORDS words or
    LEAST_FORM_MONOID transformations.

    A length that brings no new transformation ends the search: each longer word
    is a word of that length times letters, and so acts as a shorter one does.
    """
    n = dfa.n_states
    least = {}
    count = 0
    for length in itertools.count():
        fresh = False
        for letters in itertools.product(sorted(dfa.alphabet), repeat=length):
            count += 1
            if count > LEAST_FORM_WORDS:
                return None
            w = "".join(letters)
            m = tuple(synlat.run(dfa, q, w) for q in range(n))
            if m not in least:
                least[m] = w
                fresh = True
        if not fresh:
            return least if len(least) <= LEAST_FORM_MONOID else None


def assert_witnesses_are_least_forms(pattern_or_ast, alphabet=None):
    """Each semiring witness is the least meet form of its element among all meet forms
    of at most three words: fewest words first, then sorted word keys.

    A form's element depends only on the transformations of its words, and putting
    a transformation's least word in place of any other of its words, or dropping a
    repeated transformation, gives a form no later in that order.  So the least form
    of an element uses least words of distinct transformations, and forms over those
    words, enumerated in order, find the least one of up to three words.
    """
    if alphabet is None:
        dfa = synlat.compile_canonical_dfa(pattern_or_ast)
        pt = synlat.build_profile_table(dfa)
    else:
        _, dfa, pt = build(pattern_or_ast, alphabet)
    least = least_words(dfa)
    if least is None:
        return False
    sr = synlat.syntactic_semiring(pt, dfa)
    residual = pt.residual_bits
    images = {w: tuple(residual[q] for q in m) for m, w in least.items()}
    first = {}
    for k in range(4):
        for form in itertools.combinations(sorted(least.values(), key=word_key), k):
            value = (top(pt).bits,) * dfa.n_states
            for w in form:
                value = tuple(map(int.__and__, value, images[w]))
            first.setdefault(value, form)
    n = dfa.n_states
    for e in sr.elements:
        value = tuple(x.bits for x in e.mapping)
        for w in e.witness:
            assert least[tuple(synlat.run(dfa, q, w) for q in range(n))] == w
        if len(e.witness) <= 3:
            assert first[value] == e.witness
        else:
            assert value not in first
            meet = (top(pt).bits,) * n
            for w in e.witness:
                meet = tuple(map(int.__and__, meet, images[w]))
            assert meet == value
    return True


@pytest.mark.parametrize(
    "pattern,alphabet",
    [("a+b+", "ab"), ("(a|b)*a(a|b)", "ab"), ("abcab", "cba"), ("(ab|ba)*", "ba"), ("b(a|c)*a", "cab"),
     ("(a|b)*", "ab"), ("%0", "a"), ("a(b|c)", "abc"),
     ("(a|b)*a(a|b)(a|b)", "ab"), ("(a|b)*a(a|b)(a|b)", "ba"), ("(aa|ab|bab)*", "ab")],   # 3-word witnesses
)
def test_semiring_witnesses_are_least_forms(pattern, alphabet):
    assert assert_witnesses_are_least_forms(pattern, alphabet)


@given(st.integers(min_value=0), st.sampled_from(["ab", "ba", "abc", "cab", "cba"]))
def test_semiring_witnesses_are_least_forms_on_random_languages(seed, alphabet):
    assert_witnesses_are_least_forms(random_ast(random.Random(seed), alphabet, max_nodes=10))


LEAST_LATTICE_MONOID = 8   # the lattice oracle below checks languages whose monoid has at most this many elements
LEAST_LATTICE_SIZE = 3     # and enumerates lattice forms of up to this many inners, each of up to this many words
LEAST_LATTICE_BUDGET = 300   # quotients larger than this are skipped: their product tables take seconds


def assert_lattice_witnesses_are_least_forms(pattern_or_ast, alphabet=None):
    """Each witness of a lattice quotient is the least lattice form with its element, for both
    quotients: fewest inners first, then sorted inner keys, each inner compared as a meet form.
    Returns how many quotients it checked.

    The brute force enumerates, in that order, every lattice form of up to three inners, each
    a meet form of up to three least words, and keeps the first form of each element.  Putting
    a word's least word in its place leaves the element and gives a form no later, so the
    least form uses least words only; one that fits these bounds is the first found, and one
    that does not is before every form found for its element.
    """
    if alphabet is None:
        dfa = synlat.compile_canonical_dfa(pattern_or_ast)
        pt = synlat.build_profile_table(dfa)
    else:
        _, dfa, pt = build(pattern_or_ast, alphabet)
    least = least_words(dfa)
    if least is None or len(least) > LEAST_LATTICE_MONOID:
        return 0
    words = sorted(least.values(), key=word_key)
    size = LEAST_LATTICE_SIZE
    inners = [u for k in range(size + 1) for u in itertools.combinations(words, k)]   # in meet_form_key order
    width = pt.n_profiles

    def packed(cells):
        return sum(x.bits << (width * c) for c, x in enumerate(cells))

    checked = 0
    for build_algebra in (synlat.syntactic_lattice_algebra, synlat.transition_lattice_algebra):
        try:
            alg = build_algebra(pt, dfa, budget=LEAST_LATTICE_BUDGET)
        except synlat.BudgetError:
            continue
        columns = alg.columns or tuple(residual_atoms(pt, q) for q in range(dfa.n_states))
        images = {w: packed(quotient_word(pt, x, w) for x in columns) for w in words}
        full = packed([top(pt)] * len(columns))
        inner_values = []
        for u in inners:
            v = full
            for w in u:
                v &= images[w]
            inner_values.append(v)
        first = {}
        for k in range(size + 1):
            for combo in itertools.combinations(range(len(inners)), k):
                v = 0
                for i in combo:
                    v |= inner_values[i]
                first.setdefault(v, combo)
        for e in alg.elements:
            form, value = e.witness, packed(e.mapping)
            assert alg.mapping_of_form(form) == e.mapping
            assert all(least[tuple(synlat.run(dfa, q, w) for q in range(dfa.n_states))] == w for u in form for w in u)
            found = tuple(inners[i] for i in first[value]) if value in first else None
            if len(form) <= size and all(len(u) <= size for u in form):
                assert found == form
            else:
                assert found is None or lattice_form_key(form) < lattice_form_key(found)
        checked += 1
    return checked


@pytest.mark.parametrize(
    "pattern,alphabet",
    [("a+b+", "ab"), ("(ab)*", "ab"), ("a?b", "ab"), ("ab*a|b", "ab"), ("a(b|c)", "abc"), ("(a|bb)*", "ab"),
     ("b(a|c)*a", "cab"), ("(a|b)*a(a|b)", "ba"), ("%0", "a"), ("a*", "ab")],
)
def test_lattice_witnesses_are_least_forms(pattern, alphabet):
    assert assert_lattice_witnesses_are_least_forms(pattern, alphabet) == 2


@given(st.integers(min_value=0), st.sampled_from(["ab", "ba", "abc", "cab", "cba"]))
def test_lattice_witnesses_are_least_forms_on_random_languages(seed, alphabet):
    assert_lattice_witnesses_are_least_forms(random_ast(random.Random(seed), alphabet, max_nodes=8))


LEAST_AUTOMATON_RESIDUALS = 10   # the automaton oracle below checks DFAs of at most this many states
LEAST_AUTOMATON_MEETS = 64       # and lattice automata over at most this many meet states
LEAST_AUTOMATON_SIZE = 3         # enumerating lattice forms of up to this many inners


def assert_automaton_witnesses_are_least_forms(pattern_or_ast, alphabet=None):
    """The meet automaton's witnesses are the least meet forms over the access words, and the
    lattice automaton's the least lattice forms over the meet automaton's witnesses: fewest
    members first, then sorted member keys.  Returns how many automata it checked.

    The brute force enumerates every set of access words in meet_form_key order, and every set
    of up to three meet witnesses in lattice_form_key order, keeping the first form of each
    state.  A lattice witness beyond that size must be before every form found for its state.
    """
    if alphabet is None:
        dfa = synlat.compile_canonical_dfa(pattern_or_ast)
        pt = synlat.build_profile_table(dfa)
    else:
        _, dfa, pt = build(pattern_or_ast, alphabet)
    if dfa.n_states > LEAST_AUTOMATON_RESIDUALS:
        return 0
    language = pt.residual_bits[dfa.initial]
    words = sorted(access_words(dfa), key=word_key)
    first = {}
    for k in range(len(words) + 1):
        for form in itertools.combinations(words, k):
            first.setdefault(eval_meet_bits(pt, language, form), form)
    ma = synlat.build_meet_automaton(pt, dfa)
    assert [first[s.bits] for s in ma.states] == list(ma.witnesses)
    if len(ma.states) > LEAST_AUTOMATON_MEETS:
        return 1

    la = synlat.build_lattice_automaton(pt, dfa)
    inners = sorted(zip(ma.witnesses, (s.bits for s in ma.states)), key=lambda p: meet_form_key(p[0]))
    first = {}
    for k in range(LEAST_AUTOMATON_SIZE + 1):
        for combo in itertools.combinations(inners, k):
            v = 0
            for _, bits in combo:
                v |= bits
            first.setdefault(v, tuple(u for u, _ in combo))
    for s, form in zip(la.states, la.witnesses):
        assert eval_lattice_bits(pt, language, form) == s.bits
        assert all(u in ma.witnesses for u in form)
        if len(form) <= LEAST_AUTOMATON_SIZE:
            assert first[s.bits] == form
        else:
            assert s.bits not in first or lattice_form_key(form) < lattice_form_key(first[s.bits])
    return 2


@pytest.mark.parametrize(
    "pattern,alphabet",
    [("a+b+", "ab"), ("(ab|ba)*", "ab"), ("(a|b)*abb", "ab"), ("((%e|b)ab)*", "ab"), ("(aa|ab|bab)*", "ab"),
     ("abcab", "cba"), ("b(a|c)*a", "cab"), ("(a|b)*a(a|b)", "ba"), ("a(b|c)", "abc"), ("%0", "a")],
)
def test_automaton_witnesses_are_least_forms(pattern, alphabet):
    assert assert_automaton_witnesses_are_least_forms(pattern, alphabet) == 2


@given(st.integers(min_value=0), st.sampled_from(["ab", "ba", "abc", "cab", "cba"]))
def test_automaton_witnesses_are_least_forms_on_random_languages(seed, alphabet):
    assert_automaton_witnesses_are_least_forms(random_ast(random.Random(seed), alphabet, max_nodes=10))
