"""The builders' witnesses and tables against the witness replay.

Every witness is its least form, read off a breadth-first tree, and the
semiring is built from the monoid with no closure of forms at all.  Each
test here rebuilds the automata and algebras with tests/test_close.py's
reference builders, the witness replay over tuple forms (terms.mf_meet,
mf_mul, lf_meet, lf_join, multiply_lattice_forms, ordered by meet_form_key
and lattice_form_key), and asserts the same values in the same order and
the same op tables.  Each witness equals the replay's or is strictly before
it in that order, and it evaluates to its own element.
"""

import random

import pytest
from hypothesis import given, strategies as st

import synlat
from synlat import terms
from synlat.atoms import quotient_bits

from conftest import build, random_ast, random_regex_corpus
from test_close import (
    LATTICE_BUDGET,
    reference_lattice_algebra,
    reference_lattice_automaton,
    reference_meet_automaton,
    reference_semiring,
)


def assert_least_of(witness, replayed, key):
    """The builder's witness is the replay's, or strictly before it."""
    assert witness == replayed or key(witness) < key(replayed)


def bit_maps(elements):
    return [tuple(x.bits for x in e.mapping) for e in elements]


def assert_automaton_matches(automaton, reference, pt, eval_bits, key):
    values, witnesses, *_ = reference
    language = pt.residual_bits[pt.dfa.initial]
    assert [s.bits for s in automaton.states] == values
    for w, replayed, v in zip(automaton.witnesses, witnesses, values):
        assert_least_of(w, replayed, key)
        assert eval_bits(pt, language, w) == v


def assert_builders_match_replay(dfa, pt):
    ma = synlat.build_meet_automaton(pt, dfa)
    assert_automaton_matches(ma, reference_meet_automaton(pt, dfa), pt, terms.eval_meet_bits, terms.meet_form_key)

    la = synlat.build_lattice_automaton(pt, dfa)
    reference = reference_lattice_automaton(pt, ma)
    assert_automaton_matches(la, reference, pt, terms.eval_lattice_bits, terms.lattice_form_key)

    sr = synlat.syntactic_semiring(pt, dfa)
    values, witnesses, index, _, tables = reference_semiring(pt, dfa)
    assert bit_maps(sr.elements) == values
    assert (sr.meet_table, sr.mul_table) == tables
    assert sr.letter_elements == tuple(index[tuple(pt.residual_bits[row[li]] for row in dfa.delta)]
                                       for li in range(len(dfa.alphabet)))
    assert [e.witness for e in sr.elements] == witnesses

    quotients = [
        (synlat.syntactic_lattice_algebra, pt.residual_bits),
        (synlat.transition_lattice_algebra, tuple(s.bits for s in la.states)),
    ]
    for build_algebra, cols in quotients:
        try:
            alg = build_algebra(pt, dfa, budget=LATTICE_BUDGET)
        except synlat.BudgetError:
            continue
        values, witnesses, index, right, tables = reference_lattice_algebra(pt, dfa, cols, LATTICE_BUDGET)
        assert bit_maps(alg.elements) == values
        assert (alg.meet_table, alg.join_table) == tables
        assert [tuple(index[tuple(quotient_bits(pt, x, a) for x in v)] for a in dfa.alphabet) for v in values] == right
        assert alg.generators == right[alg.one]
        element_of = {e.mapping: i for i, e in enumerate(alg.elements)}
        for i, (e, replayed) in enumerate(zip(alg.elements, witnesses)):
            assert_least_of(e.witness, replayed, terms.lattice_form_key)
            assert element_of[alg.mapping_of_form(e.witness)] == i


def test_builders_match_replay_of_a_plus_b_plus():
    _, dfa, pt = build("a+b+", "ab")
    assert_builders_match_replay(dfa, pt)


@pytest.mark.parametrize("seed", range(1, 6))
def test_builders_match_replay_on_random_corpus(seed):
    for ast in random_regex_corpus(seed=seed, count=60):
        dfa = synlat.compile_canonical_dfa(ast)
        assert_builders_match_replay(dfa, synlat.build_profile_table(dfa))


@given(st.integers(min_value=0), st.sampled_from(["ba", "cba"]))
def test_builders_match_replay_over_reversed_alphabets(seed, alphabet):
    # witness words compare by (length, string), which is not the order of such an alphabet
    dfa = synlat.compile_canonical_dfa(random_ast(random.Random(seed), alphabet))
    assert_builders_match_replay(dfa, synlat.build_profile_table(dfa))
